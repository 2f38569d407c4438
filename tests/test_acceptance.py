"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
immediately).  Criteria with stated runtime budgets assert them.
"""

import math
import random
import time
from math import comb

from homgrow.chain_complex import homology_from_analysis
from homgrow.cli import main
from homgrow.corpus import run_suite
from homgrow.exact_linalg import IntMatrix
from homgrow.finite_homology import (
    FinAbGroup,
    _weak_compositions,
    standard_resolution,
)
from homgrow.group_ring import (
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    torus_complex,
)
from homgrow.growth import (
    bound_lambda,
    probe_torsion_growth,
    rank_gradient_example,
    run_tower,
)


def _pass(num, message):
    print(f"PASS criterion {num}: {message}")


def _assert_suite(name, rng, count, checks=None):
    """Run a corpus verification suite; every one of its checks must pass."""
    ran, failures = run_suite(name, rng, count)
    assert failures == []
    assert ran == (count if checks is None else checks)


def test_criterion_01_rho_identity_corpus():
    rng = random.Random(20240601)
    t0 = time.time()
    # exact equality of the squared sides on 200 random complexes
    _assert_suite("rho-identity", rng, 200)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(1, f"rho_Z - rho_2 = alternating alpha sum, exactly, on 200 "
             f"random complexes in {elapsed:.1f}s")


def test_criterion_02_fk_factorization_corpus():
    rng = random.Random(20240602)
    t0 = time.time()
    # exact equality and the sandwich inequalities on 500 random matrices
    _assert_suite("fk-factorization", rng, 500)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _pass(2, f"det(u)^2 = det(j_k)^2 |tors|^2 det(pr_c)^2 exactly on 500 "
             f"matrices in {elapsed:.1f}s")


def test_criterion_03_circle_tower_to_1024():
    levels = [QuotientSpec((2 ** k,)) for k in range(11)]   # 1 .. 1024
    C = circle_complex()
    lam = bound_lambda(C)
    assert lam == 8.0
    report = run_tower(C, levels, primes=(2,), max_degree=1)
    for lv in report.levels:
        i = lv.index
        assert lv.betti_q[1] == 1                      # b_1/i = 1/i exactly
        assert lv.rho_z == 0.0                         # exact at every level
        assert abs(lv.ln_det_c[1] - math.log(i)) <= 1e-9
        assert abs(lv.ln_det_alpha[1] - 0.5 * math.log(i)) <= 1e-9
        for val in (lv.betti_q[1] / i, lv.d_hn[1] / i, lv.ln_tors[1] / i,
                    lv.ln_det_c[1] / i, abs(lv.ln_det_alpha[1]) / i,
                    abs(lv.rho_2) / i):
            assert abs(val) <= lam
    _pass(3, "circle tower to 1024: b_1 = 1, ln det c_1 = ln i, "
             "ln det alpha_1 = ln(i)/2, rho_Z = 0, all within Lambda = 8")


def test_criterion_04_mapping_torus_to_50():
    t0 = time.time()
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    report = probe_torsion_growth(A, list(range(1, 51)))
    # probe raises unless |tors H_0| equals |det(A^i - I)| at every level
    assert all(not r["degenerate"] for r in report["levels"])
    final = report["levels"][-1]
    target = math.log((3 + math.sqrt(5)) / 2)
    assert abs(final["ln_tors_per_index"] - target) <= 1e-4
    # the independent oracle ln(tr A^i - 2)/i at i = 50
    P = IntMatrix.identity(2)
    for _ in range(50):
        P = A @ P
    oracle = math.log(P[0, 0] + P[1, 1] - 2) / 50
    assert abs(final["ln_tors_per_index"] - oracle) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass(4, f"mapping torus [[2,1],[1,1]] to i = 50: torsion equals "
             f"|det(A^i - I)| exactly, ln|tors|/50 = "
             f"{final['ln_tors_per_index']:.6f} in {elapsed:.1f}s")


def test_criterion_05_minimal_generator_laws():
    # tuple search against the invariant-factor formula on 100 groups
    _assert_suite("mg-laws", random.Random(20240605), 100)
    # sandwich on tower homologies
    towers = [
        (circle_complex(), [QuotientSpec((i,)) for i in (1, 2, 4, 8)]),
        (torus_complex(2), [QuotientSpec((i, i)) for i in (1, 2, 4)]),
        (mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]])),
         [QuotientSpec((i,)) for i in (1, 2, 3, 4)]),
    ]
    for C, levels in towers:
        for spec in levels:
            h = homology_from_analysis(base_change(C, spec), primes=(2, 3, 5))
            for n in range(len(h.betti_q)):
                t = h.tors_order[n]
                for p in (2, 3, 5):
                    s_p = sum(1 for d in h.invariant_factors[n] if d % p == 0)
                    assert h.betti_q[n] <= h.betti_q[n] + s_p <= h.d_hn[n]
                assert h.d_hn[n] <= h.betti_q[n] + \
                    (math.log(t) / math.log(2) if t > 1 else 0.0) + 1e-9
    _pass(5, "brute-force minimal-generator search agrees with the "
             "invariant-factor formula on 100 groups; sandwich holds on all "
             "tower homologies")


def test_criterion_06_group_homology_bounds():
    # resolution ranks: the weak-composition formula for n <= 8, m <= 4
    for m in range(1, 5):
        for n in range(9):
            assert len(_weak_compositions(n, m)) == comb(n + m - 1, m - 1)
    for factors in [(2,), (3,), (2, 2), (2, 4), (2, 2, 2)]:
        res = standard_resolution(FinAbGroup(factors), 4)
        m = len(factors)
        assert res.ranks == [comb(n + m - 1, m - 1) for n in range(5)]
    # H_1..H_4 finite, killed by |G|, and within the order and generator
    # bounds, on 40 modules over groups of order <= 16
    _assert_suite("group-homology", random.Random(20240606), 40)
    _pass(6, "group homology bounds and resolution rank formula hold on the "
             "|G| <= 16 corpus, degrees up to 4")


def test_criterion_07_mu_nu_estimate_suite():
    rng = random.Random(20240607)
    # mu bounds and nilpotence on 40 nilpotent modules over Z/2, Z/4,
    # Z/2 + Z/2, then the nu bounds and the estimate suite on 5 small free
    # ZG-complexes
    _assert_suite("mu-nu-estimate", rng, 40, checks=45)
    # filtration-length oracle agrees with the augmentation index, |M| <= 64
    _assert_suite("filtration", rng, 25)
    _pass(7, "mu/nu/estimate inequalities hold on the nilpotent corpus and "
             "small free ZG-complexes; filtration search matches the "
             "augmentation index")


def test_criterion_08_rank_gradient_example():
    rep = rank_gradient_example((0, 1, 2, 3), [1, 2, 4, 8, 16])
    lims = rep["limits"]
    assert (lims["b1_Q"], lims["b1_Fp"], lims["d_H1"], lims["rank_gradient"]) \
        == (0, 1, 2, 3)
    assert rep["strict_chain"]
    assert lims["b1_Q"] < lims["b1_Fp"] < lims["d_H1"] < lims["rank_gradient"]
    _pass(8, "free-product profile (0,1,2,3) gives the strict chain "
             "0 < 1 < 2 < 3")


GROWTH_KEYS = ("betti_q", "betti_p_2", "d_hn", "ln_tors", "ln_det_alpha")


def _check_torus_tower(m, specs):
    report = run_tower(torus_complex(m), specs, primes=(2,), max_degree=m)
    for key in GROWTH_KEYS:
        for n in range(m + 1):
            seq = [abs(x) for x in report.series(key, n)]
            for lv, val in zip(report.levels, seq):
                assert val <= 2.0 / min(lv.moduli) + 1e-9, (key, n, val)
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1e-9, (key, n, seq)
    for lv in report.levels:
        assert all(t == 1 for t in lv.tors_order)
        assert all(x == 0.0 for x in lv.ln_tors)
    return report


def test_criterion_09_torus_towers():
    specs2 = [QuotientSpec((i, i)) for i in (2, 4, 8, 16)]
    rep2 = _check_torus_tower(2, specs2)
    assert rep2.levels[-1].index == 256
    specs3 = [QuotientSpec(t) for t in ((2, 2, 2), (4, 4, 4), (8, 8, 4))]
    rep3 = _check_torus_tower(3, specs3)
    assert rep3.levels[-1].index == 256
    _pass(9, "torus towers (m = 2, 3) reach index 256 with all normalized "
             "growth invariants below 2/smallest-modulus, nonincreasing, "
             "and torsion-free homology throughout")


def test_criterion_10_tower_determinism(tmp_path):
    out1 = tmp_path / "jobs1.csv"
    out8 = tmp_path / "jobs8.csv"
    base = ["tower", "--example", "circle", "--levels", "1,2,4,8,16,32,64",
            "--primes", "2,3", "--max-degree", "1"]
    assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(base + ["--jobs", "8", "--out", str(out8)]) == 0
    b1, b8 = out1.read_bytes(), out8.read_bytes()
    assert b1 == b8
    _pass(10, f"tower CSV is byte-identical across --jobs 1 and --jobs 8 "
              f"({len(b1)} bytes)")
