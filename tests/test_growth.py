import math

import pytest

from homgrow import growth
from homgrow.cli import builtin_complex
from homgrow.errors import (
    DegenerateLevel,
    DimensionMismatch,
    HypothesisViolated,
    InconsistentProfile,
)
from homgrow.exact_linalg import IntMatrix, rank
from homgrow.group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    ModuleWithAction,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    quotient_homology_module,
    torus_complex,
)
from homgrow.growth import (
    bound_lambda,
    probe_alpha_vanishing,
    probe_torsion_growth,
    rank_gradient_example,
    run_tower,
)


def _never_called(*args, **kwargs):
    raise AssertionError("a level was computed before the refusal")


def _module_rationally_trivial(M):
    """Oracle for `ChainAnalysis.rationally_trivial` on the homology module
    with action: the deck action is trivial on Q tensor M when every A - 1
    maps into torsion, i.e. the coinvariants keep the free rank of M."""
    return rank(M.coinvariant_relations()) == rank(M.presentation)


def _mapping_torus(rows):
    return mapping_torus_complex(IntMatrix.from_rows(rows))


# The tier-1 tower levels, with the even levels of two mapping tori whose
# deck action is rationally nontrivial there.
RATIONAL_TRIVIALITY_LEVELS = [
    (circle_complex(), [(2 ** k,) for k in range(9)]),
    (torus_complex(2), [(i, i) for i in (1, 2, 4, 8)] + [(3, 5)]),
    (torus_complex(3), [(1, 1, 1), (2, 2, 2), (4, 4, 2)]),
    (_mapping_torus([[2, 1], [1, 1]]), [(i,) for i in range(1, 51)]),
    (builtin_complex("s1_cross"), [(i,) for i in range(1, 13)]),
    (_mapping_torus([[0, 1], [1, 0]]), [(i,) for i in (1, 2, 3, 4, 8, 64)]),
    (_mapping_torus([[-1]]), [(i,) for i in range(1, 9)]),
]


def circle_levels(top):
    i = 1
    out = []
    while i <= top:
        out.append(QuotientSpec((i,)))
        i *= 2
    return out


class TestBoundLambda:
    def test_circle(self):
        assert bound_lambda(circle_complex()) == 8.0

    def test_point(self):
        pt = LaurentChainComplex(1, [1], [])
        assert bound_lambda(pt) == 4.0

    def test_torus2(self):
        lam = bound_lambda(torus_complex(2))
        expected = 4 * (1 + max(math.log(4), 1) * 2 + max(math.log(4), 1))
        assert abs(lam - expected) < 1e-12


class TestRunTower:
    def test_circle_tower(self):
        rep = run_tower(circle_complex(), circle_levels(32), primes=(2,),
                        max_degree=1)
        assert rep.series("betti_q", 1) == [1.0, 0.5, 0.25, 0.125, 0.0625,
                                            0.03125]
        for lv, i in zip(rep.levels, (1, 2, 4, 8, 16, 32)):
            assert abs(lv.rho_z) < 1e-12
            assert abs(lv.ln_det_c[1] - math.log(i)) < 1e-12
            assert abs(lv.ln_det_alpha[1] - 0.5 * math.log(i)) < 1e-12
            assert abs(lv.ln_det_alpha[0] + 0.5 * math.log(i)) < 1e-12

    def test_tail_estimates_and_flags(self):
        rep = run_tower(circle_complex(), circle_levels(16), primes=(2,),
                        max_degree=1)
        assert "betti_q" in rep.tail_estimates
        assert abs(rep.tail_estimates["betti_q"][1]) < 0.05
        assert all(rep.cauchy_flags["betti_q"][1:2])

    def test_increasing_index_required(self):
        with pytest.raises(DegenerateLevel):
            run_tower(circle_complex(),
                      [QuotientSpec((4,)), QuotientSpec((2,))])

    def test_empty_tower_refused(self, monkeypatch):
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="at least one level"):
            run_tower(circle_complex(), [])

    def test_level_of_wrong_arity_refused(self, monkeypatch):
        # the (2, 2) level used to fail in base change, after (2,) and (3,)
        # had run
        monkeypatch.setattr(growth, "base_change", _never_called)
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="arity"):
            run_tower(circle_complex(), [QuotientSpec((2,)),
                                         QuotientSpec((3,)),
                                         QuotientSpec((2, 2))])

    def test_negative_max_degree_refused(self, monkeypatch):
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="max_degree"):
            run_tower(circle_complex(), circle_levels(4), max_degree=-1)

    @pytest.mark.parametrize("max_degree", [1.5, True, "1"],
                             ids=["float", "bool", "string"])
    def test_non_int_max_degree_refused(self, max_degree, monkeypatch):
        monkeypatch.setattr(growth, "base_change", _never_called)
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="nonnegative int"):
            run_tower(torus_complex(2), [QuotientSpec((2, 2))],
                      max_degree=max_degree)

    @pytest.mark.parametrize("primes, message", [
        ((4,), "not prime"), ((1,), "not prime"), ((-3,), "not prime"),
        ((2, 2), "repeat"), ((3, 5, 3), "repeat"),
        # a prime above MAX_PRIME
        ((10 ** 18 + 3,), "above"),
        ((2.0,), "must be ints"), ((False,), "must be ints")],
        ids=["composite", "one", "negative", "repeat", "later-repeat",
             "above-cap", "float", "bool"])
    def test_bad_primes_refused(self, primes, message, monkeypatch):
        # s_p counts are F_p dimensions only for a prime p, and a repeat
        # would write its betti_p column twice
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match=message):
            run_tower(circle_complex(), circle_levels(4), primes=primes)

    @pytest.mark.parametrize("jobs", [0, -3, "2", 1.0, True],
                             ids=["zero", "negative", "string", "float",
                                  "bool"])
    def test_bad_jobs_refused(self, jobs, monkeypatch):
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="jobs must be a positive"):
            run_tower(circle_complex(), circle_levels(4), jobs=jobs)

    def test_oversized_level_refused_before_base_change(self, monkeypatch):
        # a library call used to go straight into base change, whatever
        # the index; only the command line checked the caps
        monkeypatch.setattr(growth, "base_change", _never_called)
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match=f"more than "
                           f"{growth.MAX_ROWS} rows"):
            run_tower(circle_complex(), [QuotientSpec((growth.MAX_ROWS + 1,))])
        # 140000 rows are under MAX_ROWS; 140000 x 64 nonzeros are not
        many = LaurentPoly(1, {(k,): 1 for k in range(64)})
        C = LaurentChainComplex(1, [1, 1], [[[many]]])
        assert 140000 <= growth.MAX_ROWS and 140000 * 64 > growth.MAX_NONZEROS
        with pytest.raises(DegenerateLevel, match=r"nonzeros \(64 Laurent"):
            run_tower(C, [QuotientSpec((140000,))])

    def test_tower_with_only_its_last_level_oversized_runs_no_level(
            self, monkeypatch):
        monkeypatch.setattr(growth, "base_change", _never_called)
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="rows"):
            run_tower(circle_complex(), circle_levels(4)
                      + [QuotientSpec((growth.MAX_ROWS + 1,))])

    def test_jobs_agree(self):
        levels = circle_levels(16)
        r1 = run_tower(circle_complex(), levels, primes=(2,), jobs=1)
        r4 = run_tower(circle_complex(), levels, primes=(2,), jobs=4)
        for a, b in zip(r1.levels, r4.levels):
            assert a == b


class TestProbes:
    def test_alpha_circle(self):
        rep = probe_alpha_vanishing(circle_complex(), circle_levels(64), 1,
                                    tail_threshold=0.2)
        vals = [r["normalized_abs_log"] for r in rep["levels"]]
        for i, v in zip((1, 2, 4, 8, 16, 32, 64), vals):
            assert abs(v - 0.5 * math.log(i) / i) < 1e-12

    def test_alpha_degree_zero(self):
        probe_alpha_vanishing(circle_complex(), circle_levels(64), 0,
                              tail_threshold=0.2)

    def test_torsion_growth_fibonacci_like(self):
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        rep = probe_torsion_growth(A, [1, 2, 3, 5, 8])
        by_level = {r["level"]: r for r in rep["levels"]}
        assert by_level[2]["tors_order"] == 5
        lam = (3 + math.sqrt(5)) / 2
        assert abs(rep["mahler_log"] - math.log(lam)) < 1e-9

    def test_torsion_growth_scalar(self):
        rep = probe_torsion_growth(IntMatrix.from_rows([[2]]), [10])
        assert rep["levels"][0]["tors_order"] == 2 ** 10 - 1

    def test_degenerate_level_flagged(self):
        # A = [[0,1],[1,0]] has A^2 = I, so level 2 is degenerate
        rep = probe_torsion_growth(IntMatrix.from_rows([[0, 1], [1, 0]]),
                                   [1, 2])
        flags = {r["level"]: r.get("degenerate") for r in rep["levels"]}
        assert flags[2] is True

    @pytest.mark.parametrize("first, second, trivial", [
        ([[1, 0], [0, 1]], [[1, 0], [0, -1]], False),
        ([[1, 0], [0, -1]], [[1, 0], [0, 1]], False),
        ([[0, 1], [1, 0]], [[1, 0], [0, 1]], False),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1]], True),
    ])
    def test_rational_triviality_over_all_generators(self, first, second,
                                                     trivial):
        # Z^2 acted on by Z/2 x Z/2: one generator acting nontrivially on
        # Q tensor M is enough to refuse
        M = ModuleWithAction(IntMatrix.zeros(2, 0),
                             [IntMatrix.from_rows(first),
                              IntMatrix.from_rows(second)], [2, 2])
        assert _module_rationally_trivial(M) is trivial

    def test_predicate_equals_module_route(self):
        nontrivial = 0
        for C, levels in RATIONAL_TRIVIALITY_LEVELS:
            for moduli in levels:
                qc = base_change(C, QuotientSpec(moduli))
                for n in range(C.top_degree + 1):
                    got = qc.analysis.rationally_trivial(n)
                    assert got is _module_rationally_trivial(
                        quotient_homology_module(qc, n)), (moduli, n)
                    nontrivial += not got
        # [[0, 1], [1, 0]] at 2, 4, 8, 64 and [[-1]] at 2, 4, 6, 8, in
        # degrees 0 and 1
        assert nontrivial == 16

    def test_one_of_two_generators_acting_nontrivially(self):
        # t_1 + 1 over Z[Z^2] at quotient (2, 1): t_1 acts by -1 on
        # H_0 = H_1 = Z, and t_2 has order 1
        m = 2
        C = LaurentChainComplex(m, [1, 1], [[[
            LaurentPoly.variable(m, 0) + LaurentPoly.const(m, 1)]]])
        spec = QuotientSpec((2, 1))
        qc = base_change(C, spec)
        for n in (0, 1):
            M = quotient_homology_module(qc, n)
            assert M.structure() == (1, ())
            assert _module_rationally_trivial(M) is False
            assert qc.analysis.rationally_trivial(n) is False
        with pytest.raises(HypothesisViolated, match="nontrivial"):
            probe_alpha_vanishing(C, [spec], 0)

    def test_alpha_probe_builds_no_homology_module(self, monkeypatch):
        # the Betti numbers decide the hypothesis: no deck actions, no
        # homology module with action
        built = []

        def recorded(C, spec):
            built.append(base_change(C, spec))
            return built[-1]

        monkeypatch.setattr(growth, "base_change", recorded)
        probe_alpha_vanishing(torus_complex(2),
                              [QuotientSpec((i, i)) for i in (1, 2, 4)], 1,
                              tail_threshold=1.0)
        assert len(built) == 3
        for qc in built:
            assert qc._memo == {} and "actions" not in vars(qc)

    def test_alpha_probe_rejects_nontrivial_action(self):
        # t has eigenvalue -1 on H_0, so the rational action is nontrivial
        A = IntMatrix.from_rows([[-1, 0], [0, 1]])
        with pytest.raises(HypothesisViolated):
            probe_alpha_vanishing(mapping_torus_complex(A),
                                  [QuotientSpec((2,))], 0)


class TestRankGradient:
    def test_paper_profile_strict_chain(self):
        rep = rank_gradient_example((0, 1, 2, 3), [1, 2, 4, 8])
        assert rep["strict_chain"]
        assert rep["limits"] == {"b1_Q": 0, "b1_Fp": 1, "d_H1": 2,
                                 "rank_gradient": 3}
        row = rep["levels"][-1]
        assert row["b1_Q"] == 1 and row["d_G"] == 1 + 8 * 3

    def test_trivial_profile(self):
        rep = rank_gradient_example((0, 0, 0, 0), [1, 2])
        assert not rep["strict_chain"]
        assert rep["limits"]["rank_gradient"] == 0

    def test_free_group_profile(self):
        rep = rank_gradient_example((1, 1, 1, 1), [1, 2, 4])
        assert rep["limits"] == {"b1_Q": 1, "b1_Fp": 1, "d_H1": 1,
                                 "rank_gradient": 1}
        assert not rep["strict_chain"]

    def test_inconsistent_profile(self):
        with pytest.raises(InconsistentProfile):
            rank_gradient_example((2, 1, 1, 1), [1])

    @pytest.mark.parametrize("profile", [(0, 1, 2), (0, 1, 2, 3, 4), ()],
                             ids=["three", "five", "empty"])
    def test_profile_of_wrong_length_refused(self, profile):
        # tuple unpacking raised a bare ValueError
        with pytest.raises(InconsistentProfile, match="four entries"):
            rank_gradient_example(profile, [1])

    @pytest.mark.parametrize("profile, levels", [
        ((0, 1.9, 2, 3), [1]), ((0, 1, 2, "3"), [1]), ((0, True, 2, 3), [1]),
        ((0, 1, 2, 3), [1, 1.5]), ((0, 1, 2, 3), [True])],
        ids=["float", "string", "bool", "float-level", "bool-level"])
    def test_non_int_input_refused(self, profile, levels):
        # int() would truncate 1.9 to 1 and read True as level 1
        with pytest.raises(DimensionMismatch, match="expected an integer"):
            rank_gradient_example(profile, levels)

    @pytest.mark.parametrize("levels", [[0], [1, -2]],
                             ids=["zero", "negative"])
    def test_levels_below_one_refused(self, levels):
        # level 0 divided by zero
        with pytest.raises(DegenerateLevel, match="at least 1"):
            rank_gradient_example((0, 1, 2, 3), levels)
