import random
from math import comb, prod

import pytest

from homgrow.chain_complex import d_of_abelian_group
from homgrow.corpus import (
    _module_elements,
    filtration_length_oracle,
    random_module_with_action,
    random_nilpotent_module,
)
from homgrow.errors import DimensionMismatch, HypothesisViolated
from homgrow.exact_linalg import IntMatrix, rank, smith_normal_form
from homgrow.finite_homology import (
    FinAbGroup,
    augmentation_filtration,
    coinvariants,
    estimate_constants,
    group_homology,
    nu_kernel_cokernel,
    standard_resolution,
    verify_estimate_bounds,
)
from homgrow.group_ring import (
    ModuleWithAction,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    torus_complex,
)


def trivial_module(orders, presentation=None):
    P = presentation if presentation is not None else IntMatrix.zeros(1, 0)
    g = P.rows
    return ModuleWithAction(P, [IntMatrix.identity(g) for _ in orders],
                            list(orders))


class TestFinAbGroup:
    def test_chaining(self):
        assert FinAbGroup.from_orders((4, 2)).factors == (2, 4)
        assert FinAbGroup.from_orders((2, 3)).factors == (6,)
        assert FinAbGroup.from_orders(()).factors == ()
        assert FinAbGroup((2, 4)).order == 8

    def test_invalid_chain_rejected(self):
        with pytest.raises(DimensionMismatch):
            FinAbGroup((4, 2))


class TestResolutions:
    def test_rank_formula(self):
        for factors in [(2,), (3,), (2, 2), (2, 4), (2, 2, 2), (2, 2, 4)]:
            G = FinAbGroup(factors)
            res = standard_resolution(G, 5)
            m = len(factors)
            for n in range(6):
                assert res.ranks[n] == comb(n + m - 1, m - 1)

    def test_cyclic_rank_one(self):
        res = standard_resolution(FinAbGroup((5,)), 6)
        assert all(r == 1 for r in res.ranks)

    def test_trivial_group(self):
        res = standard_resolution(FinAbGroup(()), 3)
        assert res.ranks == [1, 0, 0, 0]


class TestGroupHomology:
    def test_cyclic_trivial_coefficients(self):
        for d in (2, 3, 4, 6):
            G = FinAbGroup((d,))
            M = trivial_module((d,))
            assert group_homology(G, M, 0) == (1, ())
            assert group_homology(G, M, 1) == (0, (d,))
            assert group_homology(G, M, 2) == (0, ())
            assert group_homology(G, M, 3) == (0, (d,))

    def test_klein_four(self):
        G = FinAbGroup((2, 2))
        M = trivial_module((2, 2))
        assert group_homology(G, M, 1) == (0, (2, 2))
        assert group_homology(G, M, 2) == (0, (2,))

    def test_kunneth_oracle(self):
        # H_1(Z/2 + Z/4; Z) = Z/2 + Z/4 (abelianization)
        G = FinAbGroup((2, 4))
        M = trivial_module((2, 4))
        assert group_homology(G, M, 1) == (0, (2, 4))

    def test_annihilation_and_bounds(self):
        rng = random.Random(401)
        done = 0
        while done < 30:
            orders = rng.choice([(2,), (3,), (4,), (2, 2), (8,), (2, 4),
                                 (16,), (9,)])
            G = FinAbGroup.from_orders(orders)
            M = random_module_with_action(rng, G.factors)
            free_m, facs_m = M.structure()
            dM = d_of_abelian_group(facs_m, free_m)
            if dM > 3:
                continue
            m = G.d
            for n in range(1, 5):
                free_h, facs_h = group_homology(G, M, n)
                assert free_h == 0
                assert all(G.order % d == 0 for d in facs_h)
                order_h = 1
                for d in facs_h:
                    order_h *= d
                d_n = comb(n + m - 1, m - 1)
                assert order_h <= G.order ** (d_n * dM)
                assert d_of_abelian_group(facs_h, 0) <= d_n * dM
            done += 1


class TestFiltration:
    def test_zero_module(self):
        M = ModuleWithAction(IntMatrix.identity(1), [IntMatrix.identity(1)], [2])
        assert augmentation_filtration(M) == (True, 0)

    def test_z4_by_three(self):
        M = ModuleWithAction(IntMatrix.from_rows([[4]]),
                             [IntMatrix.from_rows([[3]])], [2])
        assert augmentation_filtration(M) == (True, 2)

    def test_sign_action_not_nilpotent(self):
        M = ModuleWithAction(IntMatrix.from_rows([[3]]),
                             [IntMatrix.from_rows([[-1]])], [2])
        nil, _ = augmentation_filtration(M)
        assert not nil

    def test_oracle_agreement(self):
        rng = random.Random(402)
        done = 0
        while done < 20:
            M = random_nilpotent_module(rng, rng.choice([(2,), (4,), (2, 2)]))
            oracle = filtration_length_oracle(M, max_order=64)
            if oracle is None:
                continue
            nil, length = augmentation_filtration(M)
            assert nil and length == oracle
            done += 1

    def test_subadditivity_on_direct_sums(self):
        # length(M0 + M2) = max(lengths) <= sum
        rng = random.Random(403)
        for _ in range(20):
            M0 = random_nilpotent_module(rng, (2,))
            M2 = random_nilpotent_module(rng, (2,))
            g0, g2 = M0.num_generators, M2.num_generators
            P = IntMatrix.from_rows([
                list(M0.presentation.row(i)) + [0] * M2.presentation.cols
                for i in range(g0)] + [
                [0] * M0.presentation.cols + list(M2.presentation.row(i))
                for i in range(g2)])
            A = IntMatrix.from_rows([
                list(M0.generators_action[0].row(i)) + [0] * g2
                for i in range(g0)] + [
                [0] * g0 + list(M2.generators_action[0].row(i))
                for i in range(g2)])
            M = ModuleWithAction(P, [A], [2])
            _, l0 = augmentation_filtration(M0)
            _, l2 = augmentation_filtration(M2)
            nil, l = augmentation_filtration(M)
            assert nil and l == max(l0, l2) <= l0 + l2

    def test_torsion_free_nilpotent_is_trivial(self):
        # finite-order unipotent integer action is the identity
        rng = random.Random(404)
        for _ in range(10):
            g = rng.randint(1, 3)
            M = ModuleWithAction(IntMatrix.zeros(g, 0),
                                 [IntMatrix.identity(g)], [2])
            nil, length = augmentation_filtration(M)
            assert nil and length <= 1


class TestModuleModel:
    def test_hermite_transversal(self):
        # random_module_with_action conjugates its presentation, so the
        # Hermite form is seldom diagonal.
        rng = random.Random(406)
        finite = infinite = 0
        for _ in range(40):
            M = random_module_with_action(rng, rng.choice([(2,), (4,), (2, 2)]))
            P = M.presentation
            model = _module_elements(M)
            if rank(P) < P.rows:
                assert model is None
                infinite += 1
                continue
            finite += 1
            diag, elements, actions, reduce = model
            assert len(elements) == \
                prod(smith_normal_form(P).invariant_factors)
            transversal = set(elements)
            assert len(transversal) == len(elements)
            assert all(reduce(x) == x for x in elements)
            for act in actions:
                assert all(act(x) in transversal for x in elements)
            for j in range(P.cols):
                col = P.column(j)
                for x in elements:
                    assert reduce([a + b for a, b in zip(x, col)]) == x
                y = [rng.randint(-20, 20) for _ in range(P.rows)]
                assert reduce(y) in transversal
                assert reduce([a + 3 * b for a, b in zip(y, col)]) == reduce(y)
        assert finite and infinite


class TestCoinvariants:
    def test_trivial_action(self):
        M = trivial_module((2,), IntMatrix.from_rows([[6]]))
        rep = coinvariants(M)
        assert rep["quotient"] == (0, (6,))
        assert rep["ker_mu_order"] == 1

    def test_z4_by_three(self):
        M = ModuleWithAction(IntMatrix.from_rows([[4]]),
                             [IntMatrix.from_rows([[3]])], [2])
        rep = coinvariants(M)
        assert rep["quotient"] == (0, (2,))
        assert rep["ker_mu_order"] == 2
        assert rep["ker_mu_bound"] == 2
        assert rep["d_bound"] == 4

    def test_random_nilpotent_bounds(self):
        rng = random.Random(405)
        for _ in range(30):
            M = random_nilpotent_module(rng, rng.choice([(2,), (4,), (2, 2)]))
            coinvariants(M)   # raises on any violated bound


class TestNu:
    def test_circle_nu0_iso(self):
        qc = base_change(circle_complex(), QuotientSpec((4,)))
        rep = nu_kernel_cokernel(qc, 0)
        assert rep["ker_order"] == 1 and rep["coker_order"] == 1

    def test_trivial_quotient_identity(self):
        qc = base_change(circle_complex(), QuotientSpec((1,)))
        for n in (0, 1):
            rep = nu_kernel_cokernel(qc, n)
            assert rep["ker_order"] == 1 and rep["coker_order"] == 1

    def test_circle_nu1_coker_is_index(self):
        # H_1(C[i]) = Z by the norm cycle; augmentation multiplies by i
        for i in (2, 3, 5):
            qc = base_change(circle_complex(), QuotientSpec((i,)))
            rep = nu_kernel_cokernel(qc, 1)
            assert rep["ker_order"] == 1
            assert rep["coker_order"] == i
            assert rep["coker_bound"] >= i

    def test_two_term_zg_complex(self):
        # 0 -> Z[Z/2] --(t-1)--> Z[Z/2] -> 0 realized as circle at level 2
        qc = base_change(circle_complex(), QuotientSpec((2,)))
        rep = nu_kernel_cokernel(qc, 1)
        assert rep["ker_order"] == 1 and rep["coker_order"] == 2


class TestEstimates:
    def test_constant_base_cases(self):
        assert estimate_constants(1, 0, 0)[:2] == (1, 0)
        assert estimate_constants(2, 0, 0)[:2] == (2 * 2, 1)

    def test_one_step_recursion(self):
        assert estimate_constants(1, 1, 0)[0] == 2

    def test_c1_recursion(self):
        assert estimate_constants(2, 1, 0)[1] == 1 + 2 + 1

    def test_monotone_in_r(self):
        for n in range(3):
            for p in range(n + 1):
                c0a, c1a, d0a, d1a = estimate_constants(1, n, p)
                c0b, c1b, d0b, d1b = estimate_constants(3, n, p)
                assert c0a <= c0b and c1a <= c1b

    def test_bounds_on_quotient_complexes(self):
        cases = [
            (circle_complex(), (3,), 1, 1),
            (circle_complex(), (4,), 1, 1),
            (torus_complex(2), (2, 2), 1, 2),
            (mapping_torus_complex(IntMatrix.from_rows([[3]])), (2,), 3, 1),
        ]
        for C, moduli, r, d in cases:
            qc = base_change(C, QuotientSpec(moduli))
            rep = verify_estimate_bounds(qc, r=r, d=d)
            assert len(rep["degrees"]) == d + 1

    def test_hypothesis_violation_detected(self):
        # H_0 of the level-3 mapping torus of [2] is Z/7 with t acting by 2:
        # (t-1) acts invertibly, so the module is not nilpotent
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[2]])),
                         QuotientSpec((3,)))
        with pytest.raises(HypothesisViolated):
            verify_estimate_bounds(qc, r=3, d=0)
