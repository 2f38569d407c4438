import json
import re

import pytest

from homgrow import chain_complex, cli, corpus
from homgrow.cli import (
    MAX_LEVELS,
    _parse_levels,
    builtin_complex,
    main,
)
from homgrow.errors import DegenerateLevel, IdentityViolation, ParseError
from homgrow.growth import MAX_NONZEROS, MAX_ROWS
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

    @pytest.mark.parametrize("diffs", [5, [5], [[5]], [[[5]]]],
                             ids=["differentials", "matrix", "row", "entry"])
    def test_non_list_rejected(self, diffs):
        doc = {"m": 0, "top_degree": 1, "dims": [1, 1],
               "differentials": diffs}
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

    def test_homology_checks_rho_identity(self, monkeypatch, tmp_path,
                                          capsys):
        # alpha_0^2 times 4 breaks rho_Z - rho_2 = sum (-1)^n ln det alpha_n
        exact = chain_complex.ChainAnalysis.alpha_square

        def skewed(an, n):
            return 4 * exact(an, n) if n == 0 else exact(an, n)

        monkeypatch.setattr(chain_complex.ChainAnalysis, "alpha_square",
                            skewed)
        rc = main(["homology", "--example", "circle", "--levels", "3",
                   "--out", str(tmp_path / "h.json")])
        assert rc == 1
        assert "rho identity fails exactly" in capsys.readouterr().err

    def test_homology_checks_lambda_bounds(self, monkeypatch, tmp_path,
                                           capsys):
        monkeypatch.setattr(cli.growth, "bound_lambda", lambda C: 0.0)
        rc = main(["homology", "--example", "circle", "--levels", "3",
                   "--out", str(tmp_path / "h.json")])
        assert rc == 1
        assert "verification failure" in capsys.readouterr().err

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

    def test_levels_unread_by_pattern_named(self, capsys):
        # refused for the unread --levels, not for the equal indices
        rc = main(["tower", "--example", "circle", "--levels", "2,3",
                   "--moduli-pattern", "3"])
        err = capsys.readouterr().err
        assert rc == 2 and "--levels" in err and "--moduli-pattern" in err

    def test_tower_pattern_without_i_named(self, capsys):
        # the default levels 1,2,4,8 all give index 3: the pattern is at
        # fault, not the --levels that was never given
        rc = main(["tower", "--example", "circle", "--moduli-pattern", "3"])
        err = capsys.readouterr().err
        assert rc == 2 and "--moduli-pattern" in err

    @pytest.mark.parametrize("text, token", [("1,2,16..4", "16..4"),
                                             ("8..2", "8..2")])
    def test_reversed_range_refused(self, text, token, capsys):
        # a reversed range used to expand to nothing: the first tower ran
        # on levels 1 and 2, the second read as "--levels must be nonempty"
        with pytest.raises(ParseError, match=re.escape(repr(token))):
            _parse_levels(text)
        rc = main(["tower", "--example", "circle", "--levels", text])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and repr(token) in err
        assert _parse_levels("4..4") == [4]

    def test_level_range_limit(self):
        assert len(_parse_levels(f"1..{MAX_LEVELS}")) == MAX_LEVELS
        with pytest.raises(ParseError):
            _parse_levels(f"1..{MAX_LEVELS + 1}")
        with pytest.raises(ParseError):
            _parse_levels(f"1..{MAX_LEVELS // 2},1..{MAX_LEVELS // 2 + 1}")

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
        ["homology", "--example", "mapping_torus:[[1.5]]"],
        ["homology", "--example", "mapping_torus:[[true]]"],
        ["homology", "--example", "mapping_torus:{}"],
        ["homology", "--input", "{coef}"],
        ["homology", "--input", "{m}"],
        ["tower", "--example", "circle", "--levels", "2",
         "--out", "{missing}/x.csv"],
        ["homology", "--example", "circle", "--levels", "2",
         "--out", "{missing}/x.json"],
        ["homology", "--example", "circle",
         "--levels", "100000000000000000000"],
        ["tower", "--example", "circle", "--levels", str(MAX_ROWS + 1)],
        ["homology", "--example", "torus3", "--levels", "128",
         "--moduli-pattern", "i,i,i"],
        ["homology", "--example", "mapping_torus:[[1,2"],
        ["homology", "--example", "circle", "--levels", "1..x"],
        ["homology", "--example", "circle", "--levels", ","],
        ["homology", "--example", "circle", "--moduli-pattern", "i,i"],
        ["homology", "--example", "circle", "--moduli-pattern", "x"],
        ["homology", "--example", "circle", "--input", "{plain}"],
        ["homology", "--example", "circle", "--primes", "4"],
        ["homology", "--example", "circle", "--levels", "2,3"],
        ["tower", "--input", "{plain}"],
        ["homology", "--input", "{list}"],
        ["homology", "--input", "{dims}"],
        ["homology", "--input", "{term}"],
        ["homology", "--input", "{arity}"],
        ["homology", "--input", "{dir}"],
        ["homology", "--input", "{digits}"],
        ["homology", "--input", "{negtop}"],
        ["homology", "--example", "circle", "--primes", "9" * 401],
        ["homology", "--example", "circle", "--primes",
         "1000000000000000003"],
        ["homology", "--input", "{plain}", "--levels", "7"],
        ["homology", "--input", "{plain}", "--moduli-pattern", "3,4,5"],
        ["tower", "--example", "circle", "--levels", "2,3",
         "--primes", "2,2"],
        ["homology", "--example", "circle", "--primes", "3,5,3"],
        ["homology", "--example", "circle", "--levels", "5",
         "--moduli-pattern", "3"],
        ["tower", "--example", "circle", "--levels", "5",
         "--moduli-pattern", "3"],
    ], ids=["bad-prime", "zero-level", "zero-modulus", "singular-matrix",
            "negative-dims", "decreasing-levels", "negative-max-degree",
            "negative-count", "empty-primes", "nonpositive-jobs",
            "fractional-matrix-entry", "boolean-matrix-entry",
            "matrix-not-a-list", "fractional-coef", "fractional-m",
            "tower-unwritable-out", "homology-unwritable-out",
            "overflowing-level", "rows-above-cap", "torus3-rows-above-cap",
            "malformed-matrix-json", "bad-level-range", "empty-levels",
            "pattern-arity", "pattern-token", "input-and-example",
            "composite-prime", "homology-two-levels", "tower-without-group",
            "document-not-an-object", "dims-length", "term-not-an-object",
            "exponent-arity", "input-is-a-directory",
            "coef-beyond-digit-limit", "negative-top-degree",
            "prime-of-401-digits",
            "prime-above-cap", "levels-without-group",
            "pattern-without-group", "tower-repeated-prime",
            "homology-repeated-prime", "homology-levels-without-i",
            "tower-levels-without-i"])
    def test_bad_input_exit_code(self, argv, tmp_path, capsys):
        one = [{"exp": [], "coef": "1"}]
        docs = {
            "{doc}": {"m": 0, "top_degree": 0, "dims": [-3],
                      "differentials": []},
            # c_1 = [-1.9] would be read as [-1]; m = 1.9 as m = 1
            "{coef}": {"m": 0, "top_degree": 1, "dims": [1, 1],
                       "differentials": [[[[{"exp": [], "coef": -1.9}]]]]},
            "{m}": {"m": 1.9, "top_degree": 0, "dims": [1],
                    "differentials": []},
            "{plain}": {"m": 0, "top_degree": 1, "dims": [1, 1],
                        "differentials": [[[one]]]},
            "{list}": [1, 2],
            "{dims}": {"m": 0, "top_degree": 1, "dims": [1],
                       "differentials": [[[one]]]},
            "{term}": {"m": 0, "top_degree": 1, "dims": [1, 1],
                       "differentials": [[[["x"]]]]},
            "{arity}": {"m": 1, "top_degree": 1, "dims": [1, 1],
                        "differentials": [[[[{"exp": [1, 0], "coef": "1"}]]]]},
            # more digits than int() converts from a string by default
            "{digits}": {"m": 0, "top_degree": 1, "dims": [1, 1],
                         "differentials": [[[[{"exp": [],
                                                "coef": "1" * 5000}]]]]},
            "{negtop}": {"m": 1, "top_degree": -1, "dims": [],
                         "differentials": []},
        }
        # refusals whose message must name the offending field
        named = {"{negtop}": "top_degree"}
        paths = {"{missing}": tmp_path / "missing", "{dir}": tmp_path}
        for key, doc in docs.items():
            paths[key] = tmp_path / f"{key.strip('{}')}.json"
            paths[key].write_text(json.dumps(doc))

        def fill(arg):
            for key, path in paths.items():
                arg = arg.replace(key, str(path))
            return arg

        assert main([fill(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "verification failure" not in err
        for key, field in named.items():
            if key in argv:
                assert field in err
        if "--primes" in argv:
            assert "--primes" in err

    @pytest.mark.parametrize("command", ["tower", "homology"])
    @pytest.mark.parametrize("out", ["{missing}/x.out", "{dir}"],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_refused_before_computing(
            self, command, out, monkeypatch, tmp_path, capsys):
        calls = []

        def counted(real):
            def wrapper(*a, **kw):
                calls.append(real)
                return real(*a, **kw)
            return wrapper

        monkeypatch.setattr(cli.growth, "run_tower",
                            counted(cli.growth.run_tower))
        monkeypatch.setattr(cli.growth, "base_change",
                            counted(cli.growth.base_change))
        path = out.replace("{missing}", str(tmp_path / "missing")) \
                  .replace("{dir}", str(tmp_path))
        rc = main([command, "--example", "circle", "--levels", "2",
                   "--out", path])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert calls == []

    @pytest.mark.parametrize("command", ["tower", "homology"])
    def test_nonzeros_above_cap_refused_before_base_change(
            self, command, monkeypatch, tmp_path, capsys):
        # 140000 rows are under MAX_ROWS; 140000 x 64 nonzeros are not
        entry = [{"exp": [k], "coef": "1"} for k in range(64)]
        doc = {"m": 1, "top_degree": 1, "dims": [1, 1],
               "differentials": [[[entry]]]}
        path = tmp_path / "many_terms.json"
        path.write_text(json.dumps(doc))
        assert 140000 <= MAX_ROWS and 140000 * 64 > MAX_NONZEROS
        calls = []
        real = cli.growth.base_change

        def counted(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli.growth, "base_change", counted)
        rc = main([command, "--input", str(path), "--levels", "140000"])
        assert rc == 2
        assert "nonzeros" in capsys.readouterr().err
        assert calls == []

    def test_failed_run_leaves_existing_out_untouched(self, monkeypatch,
                                                      tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("previous result\n")

        def failing(*a, **kw):
            raise IdentityViolation("planted failure")

        monkeypatch.setattr(cli.growth, "run_tower", failing)
        rc = main(["tower", "--example", "circle", "--levels", "1,2",
                   "--out", str(out)])
        assert rc == 1
        assert out.read_text() == "previous result\n"

    @pytest.mark.parametrize("command", ["tower", "homology"])
    def test_refused_request_is_an_input_error(self, command, monkeypatch,
                                               capsys):
        # run_tower refuses a bad request before any level runs; the CLI
        # keeps no copy of those checks, so the refusal itself exits 2
        def refusing(*a, **kw):
            raise DegenerateLevel("planted refusal")

        monkeypatch.setattr(cli.growth, "run_tower", refusing)
        assert main([command, "--example", "circle", "--levels", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: planted refusal\n"

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

    @pytest.mark.parametrize("name", list(corpus.SUITES))
    def test_every_suite_runs(self, name, capsys):
        assert main(["verify", "--suite", name, "--count", "2"]) == 0
        assert f"{name}: " in capsys.readouterr().out

    def test_suite_draws_do_not_depend_on_other_suites(self, monkeypatch,
                                                       capsys):
        # each suite has its own generator, so an instance that fails in a
        # full run is drawn again by --suite with the same --seed
        drawn = []

        def first_instance(name, rng, count):
            suite, _ = corpus.SUITES[name]
            check = next(suite(rng, 1))
            if name == "filtration":
                drawn.append(check.args)
            return 1, []

        monkeypatch.setattr(cli, "run_suite", first_instance)
        assert main(["verify", "--seed", "3"]) == 0
        assert main(["verify", "--seed", "3", "--suite", "filtration"]) == 0
        assert len(drawn) == 2
        assert drawn[0] == drawn[1]

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def check():
            raise IdentityViolation("planted failure")

        def planted(rng, count):
            for _ in range(count):
                yield check

        monkeypatch.setitem(corpus.SUITES, "mg-laws", (planted, 3))
        assert main(["verify", "--suite", "mg-laws"]) == 1
        out = capsys.readouterr().out
        assert "  mg-laws FAILED: check 1: planted failure" in out
        assert "mg-laws: 0/3 passed [FAILED]" in out
