import math

import pytest

from homgrow import growth
from homgrow.errors import DegenerateLevel, InconsistentProfile
from homgrow.exact_linalg import IntMatrix
from homgrow.group_ring import (
    LaurentChainComplex,
    ModuleWithAction,
    QuotientSpec,
    circle_complex,
    torus_complex,
)
from homgrow.growth import (
    _action_rationally_trivial,
    bound_lambda,
    probe_alpha_vanishing,
    probe_torsion_growth,
    rank_gradient_example,
    run_tower,
)


def _never_called(*args, **kwargs):
    raise AssertionError("a level was computed before the refusal")


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

    def test_negative_max_degree_refused(self, monkeypatch):
        monkeypatch.setattr(growth, "_analyze_level", _never_called)
        with pytest.raises(DegenerateLevel, match="max_degree"):
            run_tower(circle_complex(), circle_levels(4), max_degree=-1)

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
        assert _action_rationally_trivial(M) is trivial

    def test_alpha_probe_rejects_nontrivial_action(self):
        from homgrow.errors import HypothesisViolated
        from homgrow.group_ring import mapping_torus_complex
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
