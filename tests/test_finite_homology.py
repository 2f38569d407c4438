import random
from math import comb, prod

import pytest

from homgrow.chain_complex import ChainAnalysis, d_of_abelian_group
from homgrow.corpus import (
    _check_nu_estimate,
    _module_elements,
    _nu_complexes,
    filtration_length_oracle,
    random_complex,
    random_module_with_action,
    random_nilpotent_module,
)
from homgrow.errors import (
    DimensionMismatch,
    HomgrowError,
    HypothesisViolated,
    IdentityViolation,
    IncompatibleAction,
)
from homgrow.exact_linalg import IntMatrix, rank, smith_normal_form
from homgrow import finite_homology
from homgrow.finite_homology import (
    FinAbGroup,
    Resolution,
    _kernel_structure,
    _weak_compositions,
    augmentation_filtration,
    coinvariants,
    estimate_constants,
    group_homology,
    nu_kernel_cokernel,
    standard_resolution,
    verify_estimate_bounds,
)
from homgrow.group_ring import (
    LaurentPoly,
    ModuleWithAction,
    QuotientSpec,
    _regular_rows,
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


def entrywise_resolution(factors, up_to):
    """Oracle for the resolution differentials: each entry of the tensor
    resolution as a Laurent polynomial (t_j - 1 in odd, the norm element in
    even positive degrees of coordinate j, Koszul signs), then expanded
    through the regular representation."""
    m = len(factors)
    q = QuotientSpec(factors)
    one = LaurentPoly.const(m, 1)
    diffs = []
    for n in range(1, up_to + 1):
        src = _weak_compositions(n, m)
        dst = {c: i for i, c in enumerate(_weak_compositions(n - 1, m))}
        mat = [[LaurentPoly.zero(m) for _ in src] for _ in dst]
        for cj, comp in enumerate(src):
            sign = 1
            for j, d in enumerate(factors):
                if comp[j]:
                    lowered = comp[:j] + (comp[j] - 1,) + comp[j + 1:]
                    if comp[j] % 2:
                        entry = LaurentPoly.variable(m, j) - one
                    else:
                        entry = LaurentPoly(m, {
                            tuple(t if k == j else 0 for k in range(m)): 1
                            for t in range(d)})
                    mat[dst[lowered]][cj] = entry * LaurentPoly.const(m, sign)
                if comp[j] % 2:
                    sign = -sign
        diffs.append(IntMatrix._raw(len(dst) * q.index, len(src) * q.index,
                                    _regular_rows(mat, q)))
    return diffs


def regular_module(factors):
    """Z[G] with each generator acting by its regular representation."""
    q = QuotientSpec(factors)
    acts = [IntMatrix._raw(q.index, q.index, _regular_rows(
                [[LaurentPoly.variable(q.m, j)]], q)) for j in range(q.m)]
    return ModuleWithAction(IntMatrix.zeros(q.index, 0), acts, list(factors))


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
        assert res.differentials_int == \
            [IntMatrix.zeros(1, 0), IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)]

    @pytest.mark.parametrize("factors", [
        (2,), (3,), (5,), (2, 2), (2, 4), (2, 2, 2), (16,), (9,), (2, 2, 4),
        (3, 6)])
    def test_matrices_match_entrywise_expansion(self, factors):
        res = standard_resolution(FinAbGroup(factors), 4)
        assert res.differentials_int == entrywise_resolution(factors, 4)

    @pytest.mark.parametrize("degree, factor, message", [
        (1, 2, "augmentation cokernel is not Z"),
        (2, 2, "not exact in degree 1"),
        (3, 3, "not exact in degree 2"),
    ])
    def test_scaled_differential_refused(self, degree, factor, message):
        res = standard_resolution(FinAbGroup((2, 2)), 4)
        diffs = list(res.differentials_int)
        diffs[degree - 1] = diffs[degree - 1].scale(factor)
        with pytest.raises(IdentityViolation, match=message):
            Resolution(res.group, res.length, res.ranks,
                       diffs).verify_exactness()

    def test_non_composing_differential_refused(self):
        # +1 on one entry of d_2 adds column 0 of d_1 to d_1 d_2
        res = standard_resolution(FinAbGroup((3,)), 3)
        diffs = list(res.differentials_int)
        rows = [dict(r) for r in diffs[1].data]
        rows[0][0] = rows[0].get(0, 0) + 1
        diffs[1] = IntMatrix._raw(diffs[1].rows, diffs[1].cols, rows)
        assert not (diffs[0] @ diffs[1]).is_zero()
        with pytest.raises(HomgrowError):
            Resolution(res.group, res.length, res.ranks,
                       diffs).verify_exactness()


class TestKernelStructure:
    def test_free_complex_matches_chain_analysis(self):
        # with no relations on either side the kernel of c_n modulo
        # im c_(n+1) is H_n of the complex
        rng = random.Random(407)
        for _ in range(200):
            C = random_complex(rng)
            an = ChainAnalysis(C)
            for n in range(C.top_degree + 1):
                c_n = C.differential(n)
                none = IntMatrix.zeros(c_n.rows, 0)
                assert _kernel_structure(c_n, C.differential(n + 1), none) \
                    == (an.betti(n), an.torsion_factors(n))


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

    def test_orders_chaining_to_the_group(self):
        # Z/2 x Z/3 acting trivially is Z/6 acting trivially
        M = trivial_module((2, 3))
        expected = [(1, ()), (0, (6,)), (0, ()), (0, (6,)), (0, ())]
        assert [group_homology(FinAbGroup((6,)), M, n)
                for n in range(5)] == expected
        assert [group_homology(FinAbGroup((6,)), trivial_module((6,)), n)
                for n in range(5)] == expected

    def test_mismatched_group_rejected(self):
        with pytest.raises(IncompatibleAction):
            group_homology(FinAbGroup((3,)), trivial_module((2,)), 1)

    @pytest.mark.parametrize("factors", [
        (2,), (3,), (4,), (2, 2), (2, 4), (9,), (2, 2, 2)])
    def test_shapiro_regular_module(self, factors):
        # Z[G] is free over ZG: H_0 = Z and H_n = 0 for n >= 1
        G, M = FinAbGroup(factors), regular_module(factors)
        assert [group_homology(G, M, n) for n in range(4)] == \
            [(1, ())] + [(0, ())] * 3

    def test_norm_blocks_cost_linear_products(self, monkeypatch):
        # one product per power of the generator per call, not one per
        # term of every norm entry: 5 calls of 15 products over Z/16
        M = trivial_module((16,))
        calls = []
        matmul = IntMatrix.__matmul__

        def counted(A, B):
            calls.append(1)
            return matmul(A, B)

        monkeypatch.setattr(IntMatrix, "__matmul__", counted)
        G = FinAbGroup((16,))
        assert [group_homology(G, M, n) for n in range(5)] == \
            [(1, ()), (0, (16,)), (0, ()), (0, (16,)), (0, ())]
        assert len(calls) <= 75

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
        # Z/3 with the Z/2 generator acting by -1: I M = 2 M = M
        M = ModuleWithAction(IntMatrix.from_rows([[3]]),
                             [IntMatrix.from_rows([[-1]])], [2])
        assert augmentation_filtration(M) == (False, None)

    @pytest.mark.parametrize("presentation", [[[2]], [[4, 0], [0, 6]]])
    @pytest.mark.parametrize("orders", [[], [1]], ids=["no-generator",
                                                         "order-1"])
    def test_trivial_group_matches_oracle(self, presentation, orders):
        # no generator acts, so I M = 0 for every nonzero M
        P = IntMatrix.from_rows(presentation)
        M = ModuleWithAction(P, [IntMatrix.identity(P.rows) for _ in orders],
                             orders)
        assert filtration_length_oracle(M) == 1
        assert augmentation_filtration(M) == (True, 1)

    def test_oracle_agreement(self):
        rng = random.Random(402)
        done = 0
        while done < 20:
            M = random_nilpotent_module(rng, rng.choice([(2,), (4,), (2, 2)]))
            oracle = filtration_length_oracle(M)
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

    @pytest.mark.parametrize("presentation, actions, orders, message", [
        ([[2]], [[[1, 0], [0, 1]]], [2], "wrong shape"),
        ([[2]], [[[1]]], [2, 2], "one order per"),
        # swaps Z/2 and Z/3
        ([[2, 0], [0, 3]], [[[0, 1], [1, 0]]], [2], "preserve relations"),
        ([[], []], [[[1, 1], [0, 1]], [[1, 0], [1, 1]]], [2, 2],
         "do not commute"),
        ([[]], [[[-1]]], [3], "order dividing 3"),
    ], ids=["shape", "order-count", "relations", "commuting", "order"])
    def test_incompatible_action_refused(self, presentation, actions, orders,
                                         message):
        P = IntMatrix(len(presentation), len(presentation[0]),
                      [x for row in presentation for x in row])
        with pytest.raises(IncompatibleAction, match=message):
            ModuleWithAction(P, [IntMatrix.from_rows(A) for A in actions],
                             orders)


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

    def test_ker_mu_matches_element_model(self):
        # I.M is the subgroup generated by every A x - x
        rng = random.Random(408)
        checked = 0
        while checked < 40:
            orders = rng.choice([(2,), (3,), (4,), (2, 2)])
            make = rng.choice([random_module_with_action,
                               random_nilpotent_module])
            M = make(rng, orders)
            model = _module_elements(M)
            if model is None or len(model[1]) > 64:
                continue
            _, elements, actions, reduce = model
            ideal = {reduce([0] * M.num_generators)}
            frontier = list(ideal)
            gens = {reduce([a - b for a, b in zip(act(x), x)])
                    for act in actions for x in elements}
            while frontier:
                x = frontier.pop()
                for y in gens:
                    z = reduce([a + b for a, b in zip(x, y)])
                    if z not in ideal:
                        ideal.add(z)
                        frontier.append(z)
            assert coinvariants(M)["ker_mu_order"] == len(ideal)
            checked += 1

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

    def test_homology_module_built_once_per_degree(self, monkeypatch):
        # the nu suite reads H_n of each quotient complex for every bound
        built = []
        check = ModuleWithAction.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(ModuleWithAction, "__post_init__", counted)
        for case in _nu_complexes():
            _check_nu_estimate(*case)
        # (d + 1) degrees per complex: 2 + 2 + 3 + 2 + 2
        assert len(built) == 11

    def test_homology_map_built_once_per_degree(self, monkeypatch):
        # nu and the estimate suite read the same map of each degree
        built = []
        augmentation = finite_homology._augmentation_map

        def counted(qc, n):
            built.append((qc, n))
            return augmentation(qc, n)

        monkeypatch.setattr(finite_homology, "_augmentation_map", counted)
        for case in _nu_complexes():
            _check_nu_estimate(*case)
        # (d + 1) degrees per complex: 2 + 2 + 3 + 2 + 2
        assert len(built) == 11

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
            (circle_complex(), (1,), 1, 1),
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
