import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homgrow.chain_complex import (
    ChainAnalysis,
    IntChainComplex,
    homology_from_analysis,
    rho_identity_from_analysis,
)
from homgrow.corpus import random_complex
from homgrow.errors import DimensionMismatch, InvalidComplex, NonSquareMatrix
from homgrow.exact_linalg import (
    IntMatrix,
    cokernel_structure,
    det_bareiss,
    smith_normal_form,
)
from homgrow.group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    QuotientSpec,
    _cyclic_smith,
    _regular_rows,
    base_change,
    circle_complex,
    mapping_torus_complex,
    operator_norm_bound,
    quotient_homology_module,
    tensor,
    torus_complex,
)

# The tower levels the tier-1 tests run, per complex.
TIER1_TOWERS = [
    (circle_complex(), [(2 ** k,) for k in range(9)]),
    (torus_complex(2), [(i, i) for i in (1, 2, 4, 8)] + [(3, 5)]),
    (torus_complex(3), [(1, 1, 1), (2, 2, 2), (4, 4, 2)]),
    (mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]])),
     [(i,) for i in range(1, 51)]),
]


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

    @pytest.mark.parametrize("terms", [{(0,): 2.5}, {(0.5,): 2},
                                       {(0,): "2"}, {(True,): 1}],
                             ids=["coefficient", "exponent", "str", "bool"])
    def test_non_integer_terms_refused(self, terms):
        # int() would keep the coefficient 2 and the exponent 0
        with pytest.raises(DimensionMismatch):
            LaurentPoly(1, terms)

    def test_numpy_integer_terms_accepted(self):
        p = LaurentPoly(1, {(np.int64(2),): np.int32(3)})
        assert p.terms == {(2,): 3}
        assert LaurentChainComplex(1, [np.int64(1)], []).dims == [1]

    def test_non_integer_dims_refused(self):
        with pytest.raises(DimensionMismatch):
            LaurentChainComplex(1, [1.9], [])

    def test_entry_of_another_arity_refused(self):
        # x_2 - 1 over Z[Z^2] in an m = 1 complex: base change to (3,) read
        # its exponents against one modulus and returned c_1 = 0
        x2 = LaurentPoly.variable(2, 1) - LaurentPoly.const(2, 1)
        with pytest.raises(InvalidComplex, match="arity"):
            LaurentChainComplex(1, [1, 1], [[[x2]]])


class TestLaurentDifferential:
    def test_zero_map_outside_the_degrees(self):
        # differential(0) read differentials[-1], the top differential
        C = circle_complex()
        assert C.differential(0) == []
        assert C.differential(2) == [[]]
        assert C.differential(-1) == [] and C.differential(3) == []
        T = torus_complex(2)
        assert T.differential(0) == []
        assert T.differential(3) == [[]]
        assert [len(T.differential(n)) for n in (1, 2)] == [1, 2]


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

    @pytest.mark.parametrize("j", [-1, 2, 5])
    def test_regular_generator_outside_the_arity_refused(self, j):
        # -1 read x_2 and 2 raised a bare IndexError
        with pytest.raises(DimensionMismatch):
            QuotientSpec((3, 4)).regular_generator(j)

    @pytest.mark.parametrize("moduli", [(2.7,), (2.0,), (4, 2.0), (True,),
                                        ("2",)])
    def test_non_int_moduli_refused(self, moduli):
        # int() would read 2.7 as the index-2 level
        with pytest.raises(DimensionMismatch):
            QuotientSpec(moduli)

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

    def test_actions_equal_laurent_diagonal_on_tier1_levels(self):
        # oracle: x_j expanded once as the top x top Laurent diagonal x_j I,
        # a degree of rank r taking its first r blocks of rows
        for C, levels in TIER1_TOWERS:
            top = max(C.dims)
            for moduli in levels:
                q = QuotientSpec(moduli)
                qc = base_change(C, q)
                zero, n_g = LaurentPoly.zero(q.m), q.index
                for j in range(q.m):
                    x_j = [[LaurentPoly.variable(q.m, j) if a == b else zero
                            for b in range(top)] for a in range(top)]
                    rows = _regular_rows(x_j, q)
                    for n, r in enumerate(C.dims):
                        assert qc.actions[n][j] == IntMatrix._raw(
                            r * n_g, r * n_g, rows[:r * n_g]), (moduli, n, j)

    def test_m0_level_has_no_actions_and_is_its_own_augmentation(self):
        S2 = LaurentChainComplex(0, [1, 0, 1], [[[]], []])
        qc = base_change(S2, QuotientSpec(()))
        assert qc.actions == [[], [], []]
        assert qc.lift is qc

    def test_level_is_the_analysis_of_its_source_and_quotient(self):
        C, q = torus_complex(2), QuotientSpec((2, 3))
        level = base_change(C, q)
        assert isinstance(level, ChainAnalysis)
        assert level.source is C and level.quotient == q

    def test_actions_built_only_for_homology_with_action(self):
        level = base_change(torus_complex(2), QuotientSpec((2, 2)))
        homology_from_analysis(level, (2,))
        rho_identity_from_analysis(level)
        assert "actions" not in vars(level)
        quotient_homology_module(level, 1)
        assert "actions" in vars(level)

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
            h_direct = homology_from_analysis(
                base_change(C, QuotientSpec((small,))))
            h_collapsed = homology_from_analysis(
                ChainAnalysis(_collapse(C, big, small)))
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


def _sparse_smith(block, q):
    """The Smith form of a Laurent block's base change to q, by the sparse
    elimination: the oracle of `_cyclic_smith`."""
    size = len(block) * q.index
    return smith_normal_form(IntMatrix._raw(size, size,
                                            _regular_rows(block, q)))


@st.composite
def _unimodular_end_blocks(draw):
    """(block, N): a k x k block over Z[t^+-1], k <= 3, with coefficients
    at lo..lo + d, lo in -2..0 and d in 0..4, whose top coefficient has
    determinant +-1; and N, in 1..12 or in 1..d, so that it often falls
    below d."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    lo = draw(st.integers(-2, 0))
    small = st.integers(-2, 2)
    square = st.lists(st.lists(small, min_size=k, max_size=k),
                      min_size=k, max_size=k)
    coeffs = [draw(square) for _ in range(d + 1)]
    # lower times upper triangular, +-1 on both diagonals
    lower, upper = [IntMatrix.from_rows(
        [[draw(st.sampled_from([-1, 1])) if i == j else
          draw(small) if (i > j) == first else 0 for j in range(k)]
         for i in range(k)]) for first in (True, False)]
    coeffs[-1] = (lower @ upper).to_lists()
    block = tuple(tuple(LaurentPoly(1, {(lo + s,): c[i][j]
                                        for s, c in enumerate(coeffs)})
                        for j in range(k)) for i in range(k))
    return block, draw(st.integers(1, 12) | st.integers(1, max(d, 1)))


class TestCyclicSmith:
    """`_cyclic_smith` reads the Smith form of an m = 1 block's base change
    off T^N - I, T the companion matrix; the sparse Smith form of the
    base-changed block is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_unimodular_end_blocks())
    def test_equals_the_sparse_smith_form(self, drawn):
        block, N = drawn
        q = QuotientSpec((N,))
        assert _cyclic_smith(block, q) == _sparse_smith(block, q)

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_laurent_ends_below_the_degree(self, N):
        # t^-2 - 2 + 3t^2 - 2t^3, d = 5 > N, has its unit at t^-2 and is
        # off the route; its conjugate, with the unit on top, takes it
        p = LaurentPoly(1, {(-2,): 1, (0,): -2, (2,): 3, (3,): -2})
        q = QuotientSpec((N,))
        assert _cyclic_smith(((p,),), q) is None
        block = ((p.conjugate(),),)
        assert _cyclic_smith(block, q) == _sparse_smith(block, q)

    def test_none_off_its_route(self):
        three = mapping_torus_complex(IntMatrix.from_rows([[3]]))
        (_, no_unit_end), = three.laplacian_components(0)
        (_, torus2), = torus_complex(2).laplacian_components(0)
        assert no_unit_end == ((LaurentPoly(1, {(-1,): -3, (0,): 10,
                                                (1,): -3}),),)
        assert _cyclic_smith(no_unit_end, QuotientSpec((4,))) is None
        assert _cyclic_smith(torus2, QuotientSpec((2, 2))) is None
        assert _cyclic_smith(((LaurentPoly.zero(1),),),
                             QuotientSpec((4,))) is None
        assert _cyclic_smith(((LaurentPoly.zero(1),) * 2,) * 2,
                             QuotientSpec((4,))) is None

    def test_stored_factors_on_tier1_levels(self):
        # every m = 1 tier-1 level above index 1 stores, per component,
        # the sparse Smith form of its base change; all take the route
        taken = 0
        for C, levels in TIER1_TOWERS:
            if C.m != 1:
                continue
            for moduli in levels[1:]:
                q = QuotientSpec(moduli)
                an = base_change(C, q)
                blocks = set()
                for n in range(C.top_degree + 1):
                    an.fk_laplacian(n)
                    blocks.update(b for _, b in C.laplacian_components(n))
                assert {b: v for (key, b), v in an._memo.items()
                        if key == "_block_factors"} == {
                    b: _sparse_smith(b, q).invariant_factors for b in blocks}
                taken += sum(_cyclic_smith(b, q) is not None for b in blocks)
        assert taken == 8 + 49


class TestHomologyWithAction:
    def test_circle_h1_trivial_action(self):
        for i in (2, 3, 4):
            M = quotient_homology_module(
                base_change(circle_complex(), QuotientSpec((i,))), 1)
            assert M.structure() == (1, ())
            assert M.generators_action[0] == IntMatrix.identity(1)

    def test_circle_h0_trivial_action(self):
        # the deck action permutes the generators but is trivial on H_0
        M = quotient_homology_module(
            base_change(circle_complex(), QuotientSpec((5,))), 0)
        assert M.structure() == (1, ())
        from homgrow.exact_linalg import column_hnf, solve_in_lattice
        rel = column_hnf(M.presentation)
        A = M.generators_action[0]
        diff = A - IntMatrix.identity(M.num_generators)
        assert solve_in_lattice(rel, diff) is not None

    def test_torus_h1(self):
        M = quotient_homology_module(
            base_change(torus_complex(2), QuotientSpec((2, 2))), 1)
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
        h = homology_from_analysis(qc)
        t = 1
        for d in h.invariant_factors[0]:
            t *= d
        assert t == 5

    def test_mapping_torus_resultant(self):
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[2]])),
                         QuotientSpec((3,)))
        h = homology_from_analysis(qc)
        t = 1
        for d in h.invariant_factors[0]:
            t *= d
        assert t == 7

    def test_mapping_torus_identity_is_circlelike(self):
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[1]])),
                         QuotientSpec((4,)))
        h = homology_from_analysis(qc)
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
        h = homology_from_analysis(base_change(p, QuotientSpec((2, 2))))
        assert h.betti_q == [1, 2, 1]

    def test_torus_quotients_torsion_free(self):
        for m, moduli in ((2, (2, 2)), (2, (3, 2)), (3, (2, 2, 2))):
            qc = base_change(torus_complex(m), QuotientSpec(moduli))
            h = homology_from_analysis(qc)
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
        h = homology_from_analysis(base_change(C, q))
        hs = homology_from_analysis(base_change(tensor(self.SPHERE, C), q))
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
