import json

import pytest

from homgrow.cli import builtin_complex, main
from homgrow.errors import ParseError
from homgrow.serialize import (
    complex_from_document,
    complex_to_document,
    dump_complex,
    load_complex,
)


BUILTINS = ["circle", "torus2", "torus3", "s1_cross",
            "mapping_torus:[[2,1],[1,1]]"]


class TestSerialization:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_roundtrip(self, name, tmp_path):
        C = builtin_complex(name)
        path = tmp_path / "cx.json"
        dump_complex(C, str(path))
        C2 = load_complex(str(path))
        assert C2.m == C.m and C2.dims == C.dims
        for n in range(1, C.top_degree + 1):
            assert C2.differential(n) == C.differential(n)

    def test_document_identity(self):
        C = builtin_complex("circle")
        doc = complex_to_document(C)
        C2 = complex_from_document(doc)
        assert complex_to_document(C2) == doc

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            complex_from_document({"m": 1, "top_degree": 1, "dims": [1]})

    @pytest.mark.parametrize("doc", [
        {"m": -1, "top_degree": 0, "dims": [1], "differentials": []},
        {"m": 0, "top_degree": 0, "dims": [-3], "differentials": []},
    ], ids=["negative-m", "negative-dims"])
    def test_negative_sizes_rejected(self, doc):
        with pytest.raises(ParseError):
            complex_from_document(doc)

    def test_shape_mismatch(self):
        doc = {"m": 0, "top_degree": 1, "dims": [1, 1],
               "differentials": [[[]]]}
        with pytest.raises(ParseError):
            complex_from_document(doc)

    def test_invalid_boundary_rejected(self):
        one = [{"exp": [], "coef": "1"}]
        doc = {"m": 0, "top_degree": 2, "dims": [1, 1, 1],
               "differentials": [[[one]], [[one]]]}
        with pytest.raises(ParseError):
            complex_from_document(doc)


class TestCommands:
    def test_homology_circle(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = main(["homology", "--example", "circle", "--levels", "3",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["index"] == 3
        assert [d["betti_q"] for d in data["degrees"]] == [1, 1]

    def test_homology_mapping_torus(self, tmp_path):
        out = tmp_path / "h.json"
        rc = main(["homology", "--example", "mapping_torus:[[2,1],[1,1]]",
                   "--levels", "2", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["degrees"][0]["tors_order"] == "5"

    def test_homology_plain_complex(self, tmp_path):
        doc = {"m": 0, "top_degree": 1, "dims": [1, 1],
               "differentials": [[[[{"exp": [], "coef": "3"}]]]]}
        path = tmp_path / "cx.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "h.json"
        rc = main(["homology", "--input", str(path), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["degrees"][0]["invariant_factors"] == [3]

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 1,')
        rc = main(["homology", "--input", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_exit_code(self, capsys):
        rc = main(["homology"])
        assert rc == 2

    def test_tower_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["tower", "--example", "circle", "--levels", "1,2,4",
                   "--primes", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["level_index", "index", "degree", "betti_q"]
        assert "ln_det_alpha_per_index" in header
        assert len(lines) == 1 + 3 * 2

    def test_tower_json(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["tower", "--example", "circle", "--levels", "1,2",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert "rows" in data and "tail_estimates" in data

    def test_tower_deterministic_across_jobs(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["tower", "--example", "circle", "--levels", "1,2,4,8",
                "--primes", "2,3"]
        assert main(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(base + ["--jobs", "8", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_moduli_pattern(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["tower", "--example", "torus2", "--levels", "1,2",
                   "--moduli-pattern", "i,i", "--out", str(out)])
        assert rc == 0

    def test_unknown_example(self, capsys):
        rc = main(["homology", "--example", "klein_bottle"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["homology", "--example", "circle", "--primes", "x"],
        ["tower", "--example", "circle", "--levels", "0"],
        ["homology", "--example", "circle", "--levels", "2",
         "--moduli-pattern", "0"],
        ["homology", "--example", "mapping_torus:[[0]]"],
        ["homology", "--input", "{doc}"],
        ["tower", "--example", "circle", "--levels", "2,1"],
        ["tower", "--example", "circle", "--levels", "1,2",
         "--max-degree", "-1"],
        ["verify", "--suite", "rho-identity", "--count", "-1"],
        ["tower", "--example", "circle", "--levels", "1,2", "--primes", ","],
        ["tower", "--example", "circle", "--levels", "1,2", "--jobs", "0"],
    ], ids=["bad-prime", "zero-level", "zero-modulus", "singular-matrix",
            "negative-dims", "decreasing-levels", "negative-max-degree",
            "negative-count", "empty-primes", "nonpositive-jobs"])
    def test_bad_input_exit_code(self, argv, tmp_path, capsys):
        doc = tmp_path / "negative_dims.json"
        doc.write_text(json.dumps(
            {"m": 0, "top_degree": 0, "dims": [-3], "differentials": []}))
        assert main([a.replace("{doc}", str(doc)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "verification failure" not in err

    @pytest.mark.parametrize("argv", [
        ["homology", "--example", "circle", "--max-degree", "1"],
        ["homology", "--example", "circle", "--format", "json"],
        ["homology", "--example", "circle", "--seed", "1"],
        ["homology", "--example", "circle", "--jobs", "2"],
        ["verify", "--input", "complex.json"],
        ["verify", "--example", "circle"],
        ["verify", "--levels", "2"],
        ["verify", "--moduli-pattern", "i"],
        ["verify", "--primes", "2"],
        ["verify", "--max-degree", "1"],
        ["verify", "--format", "json"],
        ["verify", "--out", "report.txt"],
        ["verify", "--jobs", "2"],
        ["tower", "--example", "circle", "--seed", "1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_single_suite(self, capsys):
        rc = main(["verify", "--suite", "fk-factorization", "--count", "40",
                   "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fk-factorization: 40/40 passed [ok]" in out

    def test_rho_suite(self, capsys):
        rc = main(["verify", "--suite", "rho-identity", "--count", "30"])
        assert rc == 0
        assert "rho-identity: 30/30 passed" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        rc = main(["verify", "--suite", "nope"])
        assert rc == 2
