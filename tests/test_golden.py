"""Golden outputs: the SHA-256 of stdout and the exit code of small CLI runs.

Every change to the computation must keep the printed numbers byte for
byte; a change that alters any of them fails here.  The digests were
recorded from the code before the deck-group layout moved into
`QuotientSpec`.  To re-record after an intended change of output, print
`_digest(argv)` for each run below.
"""

import hashlib

import pytest

from homgrow.cli import main

RUNS = {
    "tower-circle": (
        ['tower', '--example', 'circle', '--levels', '1..32'],
        "4d03c4fe8a5f12434a7e3249caf79aafbc1f5032f443ff8f95eb9971bdb00c46", 0),
    "tower-torus2": (
        ['tower', '--example', 'torus2', '--levels', '1,2,4', '--moduli-pattern', 'i,i'],
        "f536d516e1e5332ecc49e8c4f981d10695e93a99d1f2d4a282412d605fe57d90", 0),
    "tower-torus3": (
        ['tower', '--example', 'torus3', '--levels', '1,2', '--moduli-pattern', 'i,i,i'],
        "470321a48beaccbe181ad53f3f3fb87339416deacb68d546f2ec46b35bb8cc44", 0),
    "tower-s1-cross-json": (
        ['tower', '--example', 's1_cross', '--levels', '1..6', '--format', 'json'],
        "96003cde698a140a88da7b82092992e969fb05f29d8ad7d468841d84bbfff601", 0),
    "tower-mapping-torus-cat": (
        ['tower', '--example', 'mapping_torus:[[2,1],[1,1]]', '--levels', '1..20'],
        "6761a7ce809d688db0c30e77c0a4a56d3b5190a34b130ffcc8cf0531032f03ab", 0),
    "tower-mapping-torus-3": (
        ['tower', '--example', 'mapping_torus:[[3]]', '--levels', '1..8'],
        "c4006c313fdf05900a6df995afab431ccf3dc0180e8502bc32f73f13046a8c8a", 0),
    "tower-mapping-torus-swap": (
        ['tower', '--example', 'mapping_torus:[[0,1],[1,0]]', '--levels', '1,2,4'],
        "d42f2772a4d719b964f2c0c39e674d28b3564a085ea40087daeeb6e48d9a8067", 0),
    "homology-torus3": (
        ['homology', '--example', 'torus3', '--levels', '2'],
        "b2e896d4388f6f503a3d371de36260769e3fd67f7592e0fa8a7233f0b7bea1d4", 0),
    "homology-circle": (
        ['homology', '--example', 'circle'],
        "430153bd7fe1d5ace649e57c5958b600dcfccd765b5c8fc299eb988dc70ffdcf", 0),
    "verify-rho-identity": (
        ['verify', '--seed', '0', '--suite', 'rho-identity', '--count', '20'],
        "8aa93eb1cff9bb8bdcce093eaa7b0a628da01a48af5f0fc4ece156b2903e8040", 0),
    "verify-fk-factorization": (
        ['verify', '--seed', '0', '--suite', 'fk-factorization', '--count', '40'],
        "4a0e817395ec4762d9e49760c330ca560d8acab36d1d6e823676265022dc0ccc", 0),
    "verify-group-homology": (
        ['verify', '--seed', '0', '--suite', 'group-homology', '--count', '6'],
        "394c9e2d650533e7348b6d6667d87a582bdf39ebf9070be93d05b1bca3210f2e", 0),
    "verify-mu-nu-estimate": (
        ['verify', '--seed', '0', '--suite', 'mu-nu-estimate', '--count', '4'],
        "bd8509c810f3a762d194be0aaf06c010eafc956ebf1586244ee3111478db4fa6", 0),
}


def _digest(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), rc


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_is_unchanged(name, capsys):
    argv, digest, code = RUNS[name]
    assert _digest(argv, capsys) == (digest, code)
