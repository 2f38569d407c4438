import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from homgrow.chain_complex import ChainAnalysis, IntChainComplex, homology
from homgrow.corpus import random_complex
from homgrow.errors import DimensionMismatch, NonSquareMatrix
from homgrow.exact_linalg import IntMatrix, cokernel_structure, det_bareiss
from homgrow.group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    QuotientSpec,
    base_change,
    circle_complex,
    homology_with_action,
    mapping_torus_complex,
    operator_norm_bound,
    tensor,
    torus_complex,
)


def subset_torus(m):
    """Oracle for `torus_complex`: the Koszul complex on (x_1 - 1, ...,
    x_m - 1) written out on the lexicographic k-subsets of range(m); the
    column of S has (-1)^t (x_s - 1) in the row of S minus its t-th
    element s."""
    one = LaurentPoly.const(m, 1)
    x = [LaurentPoly.variable(m, j) - one for j in range(m)]
    subsets = [list(itertools.combinations(range(m), k)) for k in range(m + 1)]
    dims = [len(s) for s in subsets]
    diffs = []
    for k in range(1, m + 1):
        rows = [[LaurentPoly.zero(m) for _ in subsets[k]]
                for _ in subsets[k - 1]]
        for cj, S in enumerate(subsets[k]):
            for t_pos, elt in enumerate(S):
                T = tuple(v for v in S if v != elt)
                ri = subsets[k - 1].index(T)
                rows[ri][cj] = x[elt] * LaurentPoly.const(m, (-1) ** t_pos)
        diffs.append(rows)
    return LaurentChainComplex(m, dims, diffs)


def integer_complex(C):
    """Oracle for base change of an m = 0 complex: each entry read as the
    integer coefficient of its () term."""
    diffs = []
    for n in range(1, C.top_degree + 1):
        rows = [[p.terms.get((), 0) for p in row] for row in C.differential(n)]
        diffs.append(IntMatrix.from_rows(rows) if rows
                     else IntMatrix.zeros(0, C.dims[n]))
    return IntChainComplex(C.dims, diffs)


def as_m0(cx):
    """An integer complex written as an m = 0 group-ring complex."""
    return LaurentChainComplex(0, cx.dims, [
        [[LaurentPoly.const(0, D[i, j]) for j in range(D.cols)]
         for i in range(D.rows)] for D in cx.differentials])


def _assert_same_complex(a, b):
    assert a.dims == b.dims
    assert [D.shape for D in a.differentials] == \
        [D.shape for D in b.differentials]
    assert [D.to_lists() for D in a.differentials] == \
        [D.to_lists() for D in b.differentials]


class TestLaurentPoly:
    def test_arithmetic(self):
        t = LaurentPoly.variable(1, 0)
        one = LaurentPoly.const(1, 1)
        p = (t - one) * (t + one)
        assert p.terms == {(2,): 1, (0,): -1}

    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(1, {(0,): 1}) - LaurentPoly(1, {(0,): 1})
        assert p.is_zero() and p.terms == {}


class TestBaseChange:
    def test_circle_circulant(self):
        qc = base_change(circle_complex(), QuotientSpec((3,)))
        c1 = qc.complex.differentials[0]
        assert c1.column(0) == (-1, 1, 0)
        assert c1.column(1) == (0, -1, 1)
        assert c1.column(2) == (1, 0, -1)

    def test_trivial_group_spec(self):
        q = QuotientSpec(())
        assert q.m == 0 and q.index == 1
        with pytest.raises(DimensionMismatch):
            QuotientSpec((0,))

    def test_m0_complex_read_unchanged(self):
        rng = random.Random(0)
        for _ in range(50):
            C = as_m0(random_complex(rng))
            _assert_same_complex(base_change(C, QuotientSpec(())).complex,
                                 integer_complex(C))

    def test_m0_sphere_read_unchanged(self):
        S2 = LaurentChainComplex(0, [1, 0, 1], [[[]], []])
        cx = base_change(S2, QuotientSpec(())).complex
        _assert_same_complex(cx, integer_complex(S2))
        assert [d.shape for d in cx.differentials] == [(1, 0), (0, 1)]

    def test_trivial_quotient_is_augmentation(self):
        qc = base_change(torus_complex(2), QuotientSpec((1, 1)))
        assert qc.complex.dims == [1, 2, 1]
        assert all(d.is_zero() for d in qc.complex.differentials)

    def test_dims_scale_with_index(self):
        qc = base_change(torus_complex(2), QuotientSpec((2, 2)))
        assert qc.complex.dims == [4, 8, 4]

    def test_actions_commute_with_differentials(self):
        qc = base_change(torus_complex(2), QuotientSpec((2, 3)))
        for n in range(1, qc.complex.top_degree + 1):
            c = qc.complex.differential(n)
            for j in range(2):
                assert qc.actions[n - 1][j] @ c == c @ qc.actions[n][j]

    def test_actions_built_lazily_by_formula(self):
        q = QuotientSpec((2, 3))
        qc = base_change(torus_complex(2), q)
        assert "actions" not in vars(qc)
        elements = list(itertools.product(*[range(n) for n in q.moduli]))
        position = {g: k for k, g in enumerate(elements)}
        n_g = q.index
        for n, dim in enumerate(qc.complex.dims):
            for j in range(q.m):
                A = qc.actions[n][j]
                expected = [[0] * dim for _ in range(dim)]
                for blk in range(dim // n_g):
                    for k, g in enumerate(elements):
                        h = list(g)
                        h[j] = (h[j] + 1) % q.moduli[j]
                        expected[blk * n_g + position[tuple(h)]][
                            blk * n_g + k] = 1
                assert A.to_lists() == expected
        assert qc.actions is qc.actions

    def test_entries_cancelling_mod_n_store_nothing(self):
        # t^2 - 1 vanishes modulo t^2 = 1: both terms land on the same
        # entries and cancel.
        t2_minus_1 = LaurentPoly(1, {(2,): 1, (0,): -1})
        C = LaurentChainComplex(1, [1, 1], [[[t2_minus_1]]])
        c1 = base_change(C, QuotientSpec((2,))).complex.differential(1)
        assert c1.shape == (2, 2)
        assert c1.nnz() == 0 and c1.is_zero()

    def test_memory_follows_nonzeros(self):
        # A dense index^2 store of this level peaks near 256 MiB.
        tracemalloc.start()
        try:
            qc = base_change(circle_complex(), QuotientSpec((4096,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert qc.complex.differential(1).nnz() == 2 * 4096
        assert peak < 16 * 2 ** 20

    def test_functoriality_along_divisors(self):
        # collapsing the level-N complex by the extra deck translations gives
        # the level-N' complex, up to identical homology
        C = circle_complex()
        for big, small in ((4, 2), (6, 3), (8, 2)):
            h_direct = homology(base_change(C, QuotientSpec((small,))).complex)
            h_collapsed = homology(_collapse(C, big, small))
            assert h_direct.betti_q == h_collapsed.betti_q
            assert h_direct.invariant_factors == h_collapsed.invariant_factors


def _collapse(C, big, small):
    """Base change at `big`, then quotient the deck action down to `small`."""
    qc = base_change(C, QuotientSpec((big,)))
    # orbit map: group element g mod big -> g mod small
    ng, ns = big, small
    maps = []
    for n in range(C.top_degree + 1):
        d = C.dims[n]
        rows = d * ns
        cols = d * ng
        e = [0] * (rows * cols)
        for b in range(d):
            for g in range(ng):
                e[(b * ns + g % ns) * cols + b * ng + g] = 1
        maps.append(IntMatrix(rows, cols, e))
    # sections: g mod small -> same representative
    secs = []
    for n in range(C.top_degree + 1):
        d = C.dims[n]
        rows = d * ng
        cols = d * ns
        e = [0] * (rows * cols)
        for b in range(d):
            for g in range(ns):
                e[(b * ng + g) * cols + b * ns + g] = 1
        secs.append(IntMatrix(rows, cols, e))
    from homgrow.chain_complex import IntChainComplex
    dims = [d * ns for d in C.dims]
    diffs = [maps[n - 1] @ qc.complex.differential(n) @ secs[n]
             for n in range(1, C.top_degree + 1)]
    return IntChainComplex(dims, diffs)


class TestHomologyWithAction:
    def test_circle_h1_trivial_action(self):
        for i in (2, 3, 4):
            M = homology_with_action(circle_complex(), QuotientSpec((i,)), 1)
            assert M.structure() == (1, ())
            assert M.generators_action[0] == IntMatrix.identity(1)

    def test_circle_h0_trivial_action(self):
        # the deck action permutes the generators but is trivial on H_0
        M = homology_with_action(circle_complex(), QuotientSpec((5,)), 0)
        assert M.structure() == (1, ())
        from homgrow.exact_linalg import column_hnf, solve_in_lattice
        rel = column_hnf(M.presentation)
        A = M.generators_action[0]
        diff = A - IntMatrix.identity(M.num_generators)
        assert solve_in_lattice(rel, diff) is not None

    def test_torus_h1(self):
        M = homology_with_action(torus_complex(2), QuotientSpec((2, 2)), 1)
        assert M.structure() == (2, ())


class TestOperatorNormBound:
    def test_worked_values(self):
        assert operator_norm_bound(circle_complex().differential(1)) == 2.0
        assert operator_norm_bound(torus_complex(2).differential(1)) == 4.0
        one = [[LaurentPoly.const(1, 1)]]
        assert operator_norm_bound(one) == 1.0

    def test_dominates_singular_values(self):
        rng = random.Random(301)
        complexes = [circle_complex(), torus_complex(2),
                     mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]]))]
        for C in complexes:
            for n in range(1, C.top_degree + 1):
                K = operator_norm_bound(C.differential(n))
                for _ in range(3):
                    if C.m == 1:
                        spec = QuotientSpec((rng.randint(1, 6),))
                    else:
                        spec = QuotientSpec(tuple(rng.randint(1, 4)
                                                  for _ in range(C.m)))
                    qc = base_change(C, spec)
                    M = np.array(qc.complex.differential(n).to_lists(),
                                 dtype=float)
                    if M.size == 0:
                        continue
                    smax = float(np.linalg.svd(M, compute_uv=False)[0])
                    assert smax <= K + 1e-9


class TestExamples:
    def test_mapping_torus_torsion_small(self):
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        qc = base_change(mapping_torus_complex(A), QuotientSpec((2,)))
        h = homology(qc.complex)
        t = 1
        for d in h.invariant_factors[0]:
            t *= d
        assert t == 5

    def test_mapping_torus_resultant(self):
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[2]])),
                         QuotientSpec((3,)))
        h = homology(qc.complex)
        t = 1
        for d in h.invariant_factors[0]:
            t *= d
        assert t == 7

    def test_mapping_torus_identity_is_circlelike(self):
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[1]])),
                         QuotientSpec((4,)))
        h = homology(qc.complex)
        assert h.betti_q == [1, 1]
        assert h.invariant_factors == [(), ()]

    def test_mapping_torus_requires_nonsingular_square(self):
        with pytest.raises(NonSquareMatrix):
            mapping_torus_complex(IntMatrix.from_rows([[1, 2]]))
        with pytest.raises(NonSquareMatrix):
            mapping_torus_complex(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_mapping_torus_law_random(self):
        # |tors H_0(C[i])| = |det(A^i - I)| on random 2x2 matrices
        rng = random.Random(302)
        checked = 0
        while checked < 50:
            A = IntMatrix(2, 2, [rng.randint(-3, 3) for _ in range(4)])
            if det_bareiss(A.to_lists()) == 0:
                continue
            i = rng.randint(1, 5)
            P = IntMatrix.identity(2)
            for _ in range(i):
                P = A @ P
            det = det_bareiss((P - IntMatrix.identity(2)).to_lists())
            if det == 0:
                continue
            qc = base_change(mapping_torus_complex(A), QuotientSpec((i,)))
            an = ChainAnalysis(qc.complex)
            assert an.tors_order(0) == abs(det)
            checked += 1

    def test_product_with_circle_torus(self):
        p = tensor(circle_complex(), circle_complex())
        assert p.m == 2 and p.dims == [1, 2, 1]
        h = homology(base_change(p, QuotientSpec((2, 2))).complex)
        assert h.betti_q == [1, 2, 1]

    def test_torus_quotients_torsion_free(self):
        for m, moduli in ((2, (2, 2)), (2, (3, 2)), (3, (2, 2, 2))):
            qc = base_change(torus_complex(m), QuotientSpec(moduli))
            h = homology(qc.complex)
            for n in range(m + 1):
                assert h.invariant_factors[n] == ()
                assert h.betti_q[n] == math.comb(m, n)


class TestTensor:
    POINT = LaurentChainComplex(0, [1], [])
    SPHERE = LaurentChainComplex(0, [1, 0, 1], [[[]], []])

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_torus_is_the_subset_koszul_complex(self, m):
        T, oracle = torus_complex(m), subset_torus(m)
        assert (T.m, T.dims) == (oracle.m, oracle.dims)
        assert T.differentials == oracle.differentials

    def test_tensor_with_point(self):
        C = mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]]))
        for T in (tensor(C, self.POINT), tensor(self.POINT, C)):
            assert (T.m, T.dims) == (C.m, C.dims)
            assert T.differentials == C.differentials

    def test_sphere_factor_shifts_homology(self):
        # H_n(S^2 x C) = H_n(C) + H_(n-2)(C)
        C = mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]]))
        q = QuotientSpec((5,))
        h = homology(base_change(C, q).complex)
        hs = homology(base_change(tensor(self.SPHERE, C), q).complex)
        assert len(hs.betti_q) == 4
        for n in range(4):
            parts = [k for k in (n, n - 2) if 0 <= k <= C.top_degree]
            assert hs.betti_q[n] == sum(h.betti_q[k] for k in parts)
            factors = [d for k in parts for d in h.invariant_factors[k]]
            diag = [[d if i == j else 0 for j in range(len(factors))]
                    for i, d in enumerate(factors)]
            assert (hs.invariant_factors[n]
                    == cokernel_structure(IntMatrix.from_rows(diag))[1])
        assert hs.invariant_factors[2] == h.invariant_factors[0] != ()
