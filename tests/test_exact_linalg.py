import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_factors

from homgrow import exact_linalg
from homgrow.chain_complex import laplacian
from homgrow.corpus import random_unimodular
from homgrow.errors import DimensionMismatch
from homgrow.exact_linalg import (
    IntMatrix,
    cokernel_structure,
    column_hnf,
    det_bareiss,
    det_bareiss_psd,
    fk_determinant,
    fk_factorization_check,
    kernel_lattice,
    rank,
    smith_normal_form,
    solve_in_lattice,
)
from homgrow.exact_linalg import (
    _chain_divisibility,
    _fk_square_image_lattice,
    _fk_square_minor_sum,
    _fk_square_structure,
    _gram_det,
    _row_hnf_clean,
)
from homgrow.group_ring import (
    QuotientSpec,
    base_change,
    circle_complex,
    torus_complex,
)


def _random_matrix(rng, max_dim=6, bound=5):
    n, m = rng.randint(0, max_dim), rng.randint(0, max_dim)
    return IntMatrix(n, m, [rng.randint(-bound, bound) for _ in range(n * m)])


@st.composite
def _small_matrices(draw, max_dim=8, max_cols=None, bound=5):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_cols or max_dim))
    entries = draw(st.lists(st.integers(-bound, bound),
                            min_size=n * m, max_size=n * m))
    return IntMatrix(n, m, entries)


@st.composite
def _list_operands(draw, max_dim=7, bound=4):
    """Shapes n, k, m, w and list-of-lists a, b (n x k), c (k x m), d (n x w)."""
    n, k, m, w = (draw(st.integers(0, max_dim)) for _ in range(4))

    def lists(r, c):
        return [draw(st.lists(st.integers(-bound, bound),
                              min_size=c, max_size=c)) for _ in range(r)]

    return n, k, m, w, lists(n, k), lists(n, k), lists(k, m), lists(n, w)


@st.composite
def _sparse_banded_matrices(draw, max_dim=30, bound=3):
    """Sparse matrices up to max_dim x max_dim.  About half carry a cyclic
    +-1 band on permuted rows, the shape of a circle differential, where the
    pivot order decides how long the transform rows grow."""
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    cells = {}
    if n and m and draw(st.booleans()):
        k = min(n, m)
        shift = draw(st.integers(1, k))
        a, b = (draw(st.sampled_from([1, -1])) for _ in range(2))
        perm = draw(st.permutations(range(n)))
        for i in range(k):
            cells[perm[i], i] = cells.get((perm[i], i), 0) + a
            j = (i + shift) % k
            cells[perm[i], j] = cells.get((perm[i], j), 0) + b
    if n and m:
        for i, j, v in draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                          st.integers(-bound, bound)), max_size=2 * max_dim)):
            cells[i, j] = v
    return IntMatrix(n, m, [cells.get((i, j), 0)
                            for i in range(n) for j in range(m)])


@st.composite
def _unit_dense_matrices(draw, max_dim=9):
    """Matrices up to max_dim x max_dim, mostly +-1 with some zeros and a
    few 2s, so nearly every Smith pivot is a unit; half are replaced by
    A @ A^T, the shape of a Laplacian."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    entries = draw(st.lists(st.sampled_from([1, -1, 1, -1, 0, 0, 2]),
                            min_size=n * m, max_size=n * m))
    A = IntMatrix(n, m, entries)
    return A @ A.transpose() if draw(st.booleans()) else A


@st.composite
def _unit_pivot_off_the_popped_row(draw):
    """Matrices whose unit Smith step pivots on a row other than the popped
    one, which survives the step.

    Rows i1 < i0 have the same length and units in a shared column pj; i0
    also has a unit in column q, i1 one in column s.  At first i0's best
    entry is in q (fq other rows) and i1's record is worse (pj holds k + 2
    rows, s holds fs + 1, and fq < min(k + 1, fs)).  Then k rows
    {c_t: 1, pj: 1}, each alone in its column c_t, pivot first and leave
    pj without touching i0 or i1, so i1's record goes stale.  i0 pops next,
    now best in pj (fq >= 2), and the unit step there pivots on i1, the
    least (|entry|, length, row), and leaves i0 changed and nonempty.

    Every other entry is even, and each filler row of q and s holds a 2 in
    a column of its own: it pivots there, m = 0, and its even entries
    reduce to 0 mod 2 without touching i0.  So no later step refreshes i0:
    only the fresh record of the unit step keeps its factor 1.
    """
    fq = draw(st.integers(2, 3))
    k = draw(st.integers(fq, fq + 2))
    fs = draw(st.integers(fq + 1, fq + 3))
    extra = draw(st.integers(0, 3))          # columns shared by the fillers
    pad = draw(st.integers(0, 2))            # equal extra length of i0, i1
    even = st.sampled_from([2, -2, 4, -4, 6])
    unit = st.sampled_from([1, -1])
    pj, q, s = 0, 1, 2
    ncols = 3 + k + fq + fs
    spare = list(range(ncols, ncols + extra + 2 * pad))
    rows = [{3 + t: draw(unit), pj: draw(unit)} for t in range(k)]
    i1 = {pj: draw(unit), s: draw(unit)}
    i0 = {pj: draw(unit), q: draw(unit)}
    i1.update({j: draw(even) for j in spare[extra:extra + pad]})
    i0.update({j: draw(even) for j in spare[extra + pad:]})
    for f, col in enumerate([q] * fq + [s] * fs):
        r = {3 + k + f: draw(st.sampled_from([2, -2])), col: draw(even)}
        if spare:
            r.update({j: draw(even) for j in draw(
                st.lists(st.sampled_from(spare), max_size=2))})
        rows.append(r)
    order = draw(st.permutations(range(len(rows) + 2)))
    a, b = sorted(order[:2])
    placed = [None] * (len(rows) + 2)
    placed[a], placed[b] = i1, i0
    for pos, r in zip(order[2:], rows):
        placed[pos] = r
    ncols += len(spare)
    perm = draw(st.permutations(range(ncols)))
    return IntMatrix(len(placed), ncols, [
        r.get(perm[j], 0) for r in placed for j in range(ncols)])


@st.composite
def _matrices_with_zero_lines(draw, max_dim=7, bound=5):
    """Up to max_dim x max_dim, some rows and columns set to zero."""
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    zero_cols = draw(st.sets(st.integers(0, m - 1))) if m else set()
    entries = draw(st.lists(st.integers(-bound, bound),
                            min_size=n * m, max_size=n * m))
    return IntMatrix(n, m, [
        0 if i in zero_rows or j in zero_cols else entries[i * m + j]
        for i in range(n) for j in range(m)])


def _sympy(A):
    return Matrix(A.rows, A.cols, [x for r in A.to_lists() for x in r])


def _unit_factors(A, k):
    """Whether A has rank k and all k invariant factors are 1, by sympy."""
    factors = [abs(int(d)) for d in sympy_factors(_sympy(A), domain=ZZ) if d]
    return factors == [1] * k


def _from_lists(rows, ncols):
    return IntMatrix(len(rows), ncols, [x for r in rows for x in r])


def _minor_gcd(A, k):
    lists = A.to_lists()
    g = 0
    for I in itertools.combinations(range(A.rows), k):
        for J in itertools.combinations(range(A.cols), k):
            g = gcd(g, det_bareiss([[lists[i][j] for j in J] for i in I]))
    return g


class TestIntMatrixAgainstLists:
    @settings(max_examples=200, deadline=None)
    @given(_list_operands())
    def test_operations_match_lists(self, operands):
        n, k, m, w, a, b, c, d = operands
        A, B = _from_lists(a, k), _from_lists(b, k)
        at = [[a[i][j] for i in range(n)] for j in range(k)]
        cases = [
            (A @ _from_lists(c, m), (n, m),
             [[sum(a[i][t] * c[t][j] for t in range(k)) for j in range(m)]
              for i in range(n)]),
            (A + B, (n, k), [[x + y for x, y in zip(r, s)]
                             for r, s in zip(a, b)]),
            (A - B, (n, k), [[x - y for x, y in zip(r, s)]
                             for r, s in zip(a, b)]),
            (-A, (n, k), [[-x for x in r] for r in a]),
            (A.transpose(), (k, n), at),
            (IntMatrix.hstack([A, _from_lists(d, w)], n), (n, k + w),
             [r + s for r, s in zip(a, d)]),
            (A.scale(0), (n, k), [[0] * k for _ in range(n)]),
            (IntMatrix.from_columns(at, n), (n, k), a),
        ]
        for R, shape, expected in cases:
            assert R.shape == shape
            assert R.to_lists() == expected
            assert all(v for row in R.data for v in row.values())
        same = (A + B) - B         # equal rows, possibly in another key order
        assert same == A and hash(same) == hash(A)
        assert (A == B) == (a == b)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_list_operands().map(lambda o: _from_lists(o[4], o[1])),
                     _sparse_banded_matrices()))
    def test_kernels_leave_input_unchanged(self, M):
        a = M.to_lists()
        A = M + M.scale(0)                                   # shares rows
        H = column_hnf(A)
        h = H.to_lists()
        smith_normal_form(A)
        kernel_lattice(A)
        column_hnf(A)
        rank(A)
        X = solve_in_lattice(H, A)
        assert A.to_lists() == a and M.to_lists() == a
        assert H.to_lists() == h
        assert H @ X == A

    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(2, 2, [1, 2, 3, 4.5]),
        lambda: IntMatrix(1, 2, [Fraction(3), 1]),
        lambda: IntMatrix(1, 2, ["3", 1]),
        lambda: IntMatrix(1, 2, [True, 1]),
        lambda: IntMatrix.from_rows([[1.7, 2], [3, 4]]),
        lambda: IntMatrix.from_rows([[2.0]]),
        lambda: IntMatrix.diagonal([2.5]),
        lambda: IntMatrix.from_columns([[1.5]], 1),
    ], ids=["init-float", "init-fraction", "init-str", "init-bool",
            "from_rows", "from_rows-integral-float", "diagonal",
            "from_columns"])
    def test_non_integer_entries_refused(self, build):
        # int() would truncate 4.5 to 4 and parse "3"
        with pytest.raises(DimensionMismatch):
            build()

    def test_numpy_integers_accepted(self):
        A = IntMatrix.from_rows(np.array([[1, -2], [0, 3]]))
        assert A.to_lists() == [[1, -2], [0, 3]]
        assert all(type(v) is int for r in A.data for v in r.values())
        assert IntMatrix.diagonal([np.int32(5)]).to_lists() == [[5]]

    def test_indices_outside_the_shape_refused(self):
        A = IntMatrix.from_rows([[1, 2], [3, 4]])
        for bad in ((-1, 0), (2, 0), (0, -1), (0, 2)):
            with pytest.raises(IndexError):
                A[bad]
        for i in (-1, 2):
            with pytest.raises(IndexError):
                A.row(i)
            with pytest.raises(IndexError):
                A.column(i)
        assert A[1, 0] == 3 and A.row(1) == (3, 4) and A.column(1) == (2, 4)


def _dense_block_diag(blocks):
    """Oracle for `IntMatrix.block_diag` on lists of lists."""
    cols = sum(B.cols for B in blocks)
    out, off = [], 0
    for B in blocks:
        for r in B.to_lists():
            out.append([0] * off + r + [0] * (cols - off - B.cols))
        off += B.cols
    return out


class TestBlockBuilders:
    def test_hstack_of_no_pieces(self):
        assert IntMatrix.hstack([], 3) == IntMatrix.zeros(3, 0)
        assert IntMatrix.hstack([], 0).shape == (0, 0)

    def test_hstack_skips_pieces_without_columns(self):
        A = _from_lists([[1, 0], [0, -2]], 2)
        Z = IntMatrix.zeros(2, 0)
        assert IntMatrix.hstack([Z, A, Z], 2) is A
        assert IntMatrix.hstack([Z, Z], 2) == Z
        B = _from_lists([[3], [0]], 1)
        assert IntMatrix.hstack([A, Z, B], 2).to_lists() \
            == [[1, 0, 3], [0, -2, 0]]

    @pytest.mark.parametrize("pieces, rows", [
        ([IntMatrix.zeros(2, 2), IntMatrix.zeros(3, 1)], 2),
        ([IntMatrix.zeros(2, 2)], 3),
        ([IntMatrix.zeros(2, 1), IntMatrix.zeros(3, 0)], 2)],
        ids=["pieces-differ", "single-piece", "piece-without-columns"])
    def test_hstack_row_mismatch_refused(self, pieces, rows):
        with pytest.raises(DimensionMismatch, match="row mismatch"):
            IntMatrix.hstack(pieces, rows)

    def test_block_diag_of_no_blocks(self):
        assert IntMatrix.block_diag([]).shape == (0, 0)

    def test_block_diag_of_zero_size_blocks(self):
        A = _from_lists([[1, 2, 0], [0, 0, 5]], 3)
        blocks = [IntMatrix.zeros(0, 2), A, IntMatrix.zeros(1, 0),
                  IntMatrix.zeros(0, 0), _from_lists([[-4]], 1)]
        R = IntMatrix.block_diag(blocks)
        assert R.shape == (4, 6)
        assert R.to_lists() == _dense_block_diag(blocks)
        assert IntMatrix.block_diag([IntMatrix.zeros(0, 0)] * 3).shape \
            == (0, 0)

    def test_first_rows_shared_and_inputs_unchanged(self):
        A = _from_lists([[1, 0], [0, 2]], 2)
        B = _from_lists([[0, 3], [4, 0]], 2)
        before = [dict(r) for r in A.data + B.data]
        D = IntMatrix.block_diag([A, B])
        assert all(r is s for r, s in zip(D.data, A.data))
        assert not any(r is s for r in D.data[2:] for s in B.data)
        H = IntMatrix.hstack([A, IntMatrix.zeros(2, 0), B], 2)
        assert H.to_lists() == [[1, 0, 0, 3], [0, 2, 4, 0]]
        assert [dict(r) for r in A.data + B.data] == before

    def test_builders_match_dense_reference(self):
        rng = random.Random(5)
        for _ in range(300):
            blocks = [_random_matrix(rng, max_dim=4, bound=3)
                      for _ in range(rng.randint(0, 4))]
            D = IntMatrix.block_diag(blocks)
            assert D.to_lists() == _dense_block_diag(blocks)
            assert D.shape == (sum(B.rows for B in blocks),
                               sum(B.cols for B in blocks))
            assert all(v for r in D.data for v in r.values())
            rows = rng.randint(0, 4)
            pieces = [IntMatrix(rows, w, [rng.randint(-3, 3)
                                          for _ in range(rows * w)])
                      for w in (rng.randint(0, 3)
                                for _ in range(rng.randint(0, 4)))]
            H = IntMatrix.hstack(pieces, rows)
            assert H.shape == (rows, sum(P.cols for P in pieces))
            assert H.to_lists() == [sum((P.to_lists()[i] for P in pieces),
                                        []) for i in range(rows)]
            assert all(v for r in H.data for v in r.values())


class TestSmithNormalForm:
    def test_zero_matrix(self):
        sf = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert sf.rank == 0 and sf.invariant_factors == ()

    def test_worked_example(self):
        sf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert sf.invariant_factors == (2, 4)

    def test_diagonal_rechaining(self):
        sf = smith_normal_form(IntMatrix.diagonal([6, 4]))
        assert sf.invariant_factors == (2, 12)

    def test_empty(self):
        sf = smith_normal_form(IntMatrix.zeros(0, 3))
        assert sf.rank == 0 and sf.invariant_factors == ()

    def test_gcd_of_minors(self):
        rng = random.Random(101)
        for _ in range(60):
            A = _random_matrix(rng)
            sf = smith_normal_form(A)
            prod = 1
            for k, d in enumerate(sf.invariant_factors, start=1):
                prod *= d
                assert _minor_gcd(A, k) == prod

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_small_matrices(), _sparse_banded_matrices()))
    def test_sparse_agrees_with_sympy(self, A):
        sparse = smith_normal_form(A).invariant_factors
        reference = tuple(abs(int(d)) for d in sympy_factors(
            Matrix(A.to_lists()), domain=ZZ) if d)
        assert sparse == reference

    def test_permutation_invariance(self):
        rng = random.Random(103)
        for _ in range(60):
            A = _random_matrix(rng, max_dim=8)
            expected = smith_normal_form(A).invariant_factors
            rows, cols = list(range(A.rows)), list(range(A.cols))
            rng.shuffle(rows)
            rng.shuffle(cols)
            P = IntMatrix.from_rows([[A[i, j] for j in cols] for i in rows])
            assert smith_normal_form(P).invariant_factors == expected

    def test_migrated_pivot_is_not_lost(self):
        # The first pivot migrates away from the row it was popped from;
        # that row survives the step holding 12, and dropping it as a
        # candidate loses the factor.
        A = IntMatrix(5, 4, [0, 0, 2, 2, -2, -2, 0, 5, 0, 0, 3, 0,
                             -2, -2, 1, 3, 3, 2, 0, 1])
        assert smith_normal_form(A).invariant_factors == (1, 1, 1, 12)

    def test_unit_pivot_row_other_than_the_popped_row(self):
        # In one unit step the least (|entry|, row length, row) in the
        # pivot column is not the row whose heap record was popped; that
        # row stays nonempty and needs a fresh record.
        A = IntMatrix.from_rows([[0, 1, -1, 0, 1], [0, 1, 1, -1, 0],
                                 [-1, 0, 0, 0, -1], [0, -1, 2, 2, 1]])
        assert smith_normal_form(A).invariant_factors == (1, 1, 1, 5)

    @settings(max_examples=150, deadline=None)
    @given(_unit_dense_matrices())
    def test_unit_pivots_agree_with_sympy(self, A):
        reference = tuple(abs(int(d)) for d in sympy_factors(
            _sympy(A), domain=ZZ) if d)
        assert smith_normal_form(A).invariant_factors == reference

    @settings(max_examples=100, deadline=None)
    @given(_unit_pivot_off_the_popped_row())
    def test_unit_pivot_off_the_popped_row(self, A):
        reference = tuple(abs(int(d)) for d in sympy_factors(
            _sympy(A), domain=ZZ) if d)
        assert smith_normal_form(A).invariant_factors == reference

    def test_unit_pivots_skip_euclid(self, monkeypatch):
        # A unit pivot clears its column in one pass and needs no
        # remainders: on circle 512 every pivot of Delta_0 but the last
        # one is a unit, and every pivot of the kernel's Hermite form is.
        X = base_change(circle_complex(), QuotientSpec((512,))).complex
        calls = []
        quotient = exact_linalg._nearest_quotient
        monkeypatch.setattr(exact_linalg, "_nearest_quotient",
                            lambda b, a: calls.append(1) or quotient(b, a))
        assert smith_normal_form(laplacian(X, 0)).invariant_factors \
            == (1,) * 510 + (512,)
        assert len(calls) < 10
        calls.clear()
        assert kernel_lattice(X.differential(1)).shape == (512, 1)
        assert calls == []

    def test_chain_sets_units_aside(self):
        assert _chain_divisibility([6, 1, -4, 0, 1, 9]) == [1, 1, 1, 6, 36]


class TestKernelLattice:
    def test_sum_map(self):
        K = kernel_lattice(IntMatrix.from_rows([[1, 1]]))
        assert K.shape == (2, 1)
        assert sorted(K.column(0)) == [-1, 1]

    def test_identity(self):
        assert kernel_lattice(IntMatrix.identity(3)).shape == (3, 0)

    def test_zero(self):
        K = kernel_lattice(IntMatrix.zeros(2, 2))
        assert K.shape == (2, 2)
        assert cokernel_structure(K) == (0, ())

    def test_saturation(self):
        # quotient Z^cols / ker is torsion-free: all invariant factors 1
        rng = random.Random(103)
        for _ in range(80):
            A = _random_matrix(rng)
            K = kernel_lattice(A)
            assert (A @ K).is_zero()
            if K.cols:
                _, facs = cokernel_structure(K)
                assert facs == ()

    def test_solve_roundtrip(self):
        rng = random.Random(104)
        for _ in range(60):
            A = _random_matrix(rng, max_dim=5)
            K = kernel_lattice(A)
            if K.cols == 0:
                continue
            # random integer combinations lie in the lattice
            X = IntMatrix(K.cols, 2,
                          [rng.randint(-3, 3) for _ in range(K.cols * 2)])
            B = K @ X
            Y = solve_in_lattice(K, B)
            assert Y == X

    def test_unimodular_inverse(self):
        rng = random.Random(106)
        for n in range(11):
            for _ in range(20):
                U, Ui = random_unimodular(n, rng)
                assert U @ Ui == IntMatrix.identity(n)
                assert Ui @ U == IntMatrix.identity(n)

    def test_unimodular_draws_are_pinned(self):
        # the corpora are seeded: the same draws must give the same U
        rng = random.Random(0)
        U, Ui = random_unimodular(3, rng)
        assert U.to_lists() == [[0, 0, 1], [-2, 1, 0], [1, -1, 0]]
        assert Ui.to_lists() == [[0, -1, -1], [0, -1, -2], [1, 0, 0]]
        assert rng.random() == 0.8050278270130223


def _column_walk_solve(B, C):
    """The column walk `solve_in_lattice` replaced, kept as its oracle:
    every basis column, in order, against every right-hand column."""
    if exact_linalg._is_identity(B):
        return C
    bcols = B.transpose().data
    piv = [min(col) for col in bcols]
    out = []
    for ccol in C.transpose().data:
        resid = dict(ccol)
        y = {}
        for t, (p, bcol) in enumerate(zip(piv, bcols)):
            v = resid.get(p, 0)
            if v:
                q, r = divmod(v, bcol[p])
                if r:
                    return None
                y[t] = q
                for i, w in bcol.items():
                    x = resid.get(i, 0) - q * w
                    if x:
                        resid[i] = x
                    else:
                        resid.pop(i, None)
        if resid:
            return None
        out.append(y)
    return IntMatrix._raw(C.cols, B.cols, out).transpose()


@st.composite
def _lattice_systems(draw, max_dim=7, bound=4):
    """(H, C): H the column Hermite basis of a random lattice, C some
    right-hand columns, each in the lattice or moved off it by a random
    vector."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(0, max_dim))
    A = IntMatrix(n, m, draw(st.lists(st.integers(-bound, bound),
                                      min_size=n * m, max_size=n * m)))
    H = column_hnf(A)
    k = draw(st.integers(0, 4))
    Y = IntMatrix(H.cols, k, draw(st.lists(
        st.integers(-bound, bound), min_size=H.cols * k,
        max_size=H.cols * k)))
    E = IntMatrix(n, k, draw(st.lists(
        st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=n * k,
        max_size=n * k)))
    return H, H @ Y + E


class TestSolveInLattice:
    """`solve_in_lattice` walks the residual's rows from the top, each
    through the basis column pivoting there; it must return the X of the
    column walk, and None exactly where the walk does."""

    @settings(max_examples=300, deadline=None)
    @given(_lattice_systems())
    def test_equals_the_column_walk(self, system):
        H, C = system
        X = solve_in_lattice(H, C)
        assert X == _column_walk_solve(H, C)
        if X is not None:
            assert H @ X == C

    # pivots in rows 0 and 2, entries 2 and 3
    H = IntMatrix.from_rows([[2, 0], [1, 0], [5, 3], [0, 1]])

    def test_in_the_lattice(self):
        C = IntMatrix.from_rows([[4], [2], [13], [1]])
        assert solve_in_lattice(self.H, C) == IntMatrix.from_rows([[2], [1]])

    @pytest.mark.parametrize("column", [
        [0, 1, 0, 0],      # row 1 holds no pivot
        [2, 2, 5, 0],      # row 1 is left after the first column
        [0, 0, 0, 1],      # row 3 holds no pivot
        [1, 0, 0, 0],      # 2 does not divide 1
        [2, 1, 7, 0],      # 3 does not divide 2 in row 2
    ])
    def test_outside_the_lattice(self, column):
        C = IntMatrix.from_columns([column], 4)
        assert solve_in_lattice(self.H, C) is None
        assert _column_walk_solve(self.H, C) is None


def _assert_column_hermite_basis(A, H, r):
    """H is in column Hermite form with r columns and every column of A lies
    in its lattice; returns the coordinates X with H @ X = A."""
    assert H.shape == (A.rows, r)
    pivots = [min(col) for col in H.transpose().data]
    assert pivots == sorted(set(pivots))
    for j, p in enumerate(pivots):
        assert H[p, j] > 0
        assert all(0 <= H[p, k] < H[p, j] for k in range(r) if k != j)
    X = solve_in_lattice(H, A)
    assert X is not None and H @ X == A
    return X


def _column_hermite_transform(A):
    """(H, V) with A @ V = [H | 0] and V unimodular, from the transform
    mode of _row_hnf_clean on A^T."""
    _, hrows, urows = _row_hnf_clean(A.transpose().data, transform=True)
    H = IntMatrix._raw(len(hrows), A.rows, hrows).transpose()
    V = IntMatrix._raw(len(urows), A.cols, urows).transpose()
    return H, V


def _is_unimodular(V):
    sf = smith_normal_form(V)
    return sf.rank == V.rows == V.cols and set(sf.invariant_factors) <= {1}


class TestHermiteAgainstSympy:
    """rank, kernel_lattice, column_hnf and the transform mode all run the
    one reduction loop of _row_hnf_clean; each is checked here against
    sympy or against a defining property."""

    @settings(max_examples=200, deadline=None)
    @given(_matrices_with_zero_lines())
    def test_hermite_layer(self, A):
        r = rank(A)
        assert r == _sympy(A).rank()

        K = kernel_lattice(A)
        assert K.shape == (A.cols, A.cols - r)
        assert (A @ K).is_zero()
        if K.cols:
            assert _unit_factors(K, K.cols)   # saturated

        H = column_hnf(A)
        X = _assert_column_hermite_basis(A, H, r)
        # the columns of A lie in the lattice of H, and their coordinates
        # map onto Z^r, so the two lattices are equal
        if r:
            assert _unit_factors(X, r)

        H2, V = _column_hermite_transform(A)
        assert H2 == H
        assert V.shape == (A.cols, A.cols)
        assert abs(_sympy(V).det()) == 1
        AV = A @ V
        assert all(AV[i, j] == (H[i, j] if j < r else 0)
                   for i in range(A.rows) for j in range(A.cols))


class TestHermiteLoop:
    """The pivot order and column index of _row_hnf_clean, on the inputs
    where they matter: long cyclic bands and sparse matrices up to 30x30."""

    @pytest.mark.parametrize("transpose", [False, True], ids=["c1", "c1T"])
    def test_circle_kernel_memory_follows_output(self, transpose):
        # A full transform on c_1^T at this index peaks in the hundreds of
        # MiB; the kernel itself is one column of 4096 ones.
        c1 = base_change(circle_complex(),
                         QuotientSpec((4096,))).complex.differential(1)
        A = c1.transpose() if transpose else c1
        tracemalloc.start()
        try:
            K = kernel_lattice(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert K.shape == (4096, 1) and K.nnz() == 4096
        assert peak < 16 * 2 ** 20

    @settings(max_examples=150, deadline=None)
    @given(_sparse_banded_matrices())
    def test_against_sympy(self, A):
        S = _sympy(A)
        r = rank(A)
        assert r == S.rank()

        K = kernel_lattice(A)
        N = S.nullspace()
        assert K.shape == (A.cols, A.cols - r) and len(N) == K.cols
        assert (A @ K).is_zero()
        if N:
            # K has full column rank and spans the Q-span of N
            assert Matrix.hstack(_sympy(K), *N).rank() == len(N)

        _assert_column_hermite_basis(A, column_hnf(A), r)

        _, V = _column_hermite_transform(A)
        assert _is_unimodular(V)


class TestCokernelStructure:
    def test_crt_merge(self):
        assert cokernel_structure(IntMatrix.diagonal([2, 3])) == (0, (6,))

    def test_zero_map(self):
        assert cokernel_structure(IntMatrix.zeros(2, 1)) == (2, ())

    def test_multiplication(self):
        assert cokernel_structure(IntMatrix.from_rows([[5]])) == (0, (5,))


class TestFKDeterminant:
    def test_multiplication_by_n(self):
        for n in (1, 2, 3, 7):
            d = fk_determinant(IntMatrix.from_rows([[n]]))
            assert d.square_exact == n * n

    def test_column_vector(self):
        d = fk_determinant(IntMatrix.from_rows([[1], [1]]))
        assert d.square_exact == 2
        assert abs(d.log_value - 0.5 * math.log(2)) < 1e-12

    def test_zero_matrix(self):
        assert fk_determinant(IntMatrix.zeros(3, 2)).square_exact == 1

    def test_routes_agree(self):
        rng = random.Random(105)
        for _ in range(120):
            A = _random_matrix(rng)
            s1 = _fk_square_minor_sum(A)
            s2 = _fk_square_image_lattice(A)
            s3 = _fk_square_structure(A)
            assert s1 == s2 == s3
            # the call ChainAnalysis makes, with both kernels supplied
            d = fk_determinant(A, kernel=kernel_lattice(A),
                               left_kernel=kernel_lattice(A.transpose()))
            assert d.square_exact == s1

    @settings(max_examples=150, deadline=None)
    @given(_small_matrices(max_dim=6, bound=3))
    def test_routes_agree_on_random_matrices(self, A):
        # up to 6x6 the minor sum always fits its work budget
        sq = _fk_square_minor_sum(A)
        assert _fk_square_image_lattice(A) == sq
        assert _fk_square_structure(A) == sq

    @pytest.mark.parametrize("example, moduli, n", [
        ("torus3", (2, 2, 2), 1),     # rank 7 of 8x24: image lattice
        ("torus3", (2, 2, 2), 2),     # rank 14 of 24x24: structure
        ("torus3", (2, 2, 2), 3),     # rank 7 of 24x8: image lattice
        ("circle", (64,), 1),         # rank 63 of 64x64: structure
    ])
    def test_routes_agree_on_tower_differentials(self, example, moduli, n):
        C = circle_complex() if example == "circle" else torus_complex(3)
        A = base_change(C, QuotientSpec(moduli)).complex.differential(n)
        sq = _fk_square_structure(A)
        assert _fk_square_image_lattice(A) == sq
        assert fk_determinant(A).square_exact == sq
        d = fk_determinant(A, kernel=kernel_lattice(A),
                           left_kernel=kernel_lattice(A.transpose()))
        assert d.square_exact == sq

    def test_one_gram_when_both_kernels_are_one_lattice(self, monkeypatch):
        # a Laplacian with the harmonic lattice as both kernels, as the
        # whole-Laplacian route passes it: det(W^T W) is computed once
        X = base_change(torus_complex(2), QuotientSpec((3, 3))).complex
        delta = laplacian(X, 1)
        W = kernel_lattice(delta)
        assert W.cols == 2
        grams = []
        real = exact_linalg.det_bareiss_psd
        monkeypatch.setattr(exact_linalg, "det_bareiss_psd",
                            lambda G: grams.append(G) or real(G))
        sq = _fk_square_structure(delta, W, W)
        assert len(grams) == 1
        assert fk_determinant(delta, kernel=W, left_kernel=W).square_exact \
            == sq == _fk_square_image_lattice(delta)

    def test_float_eigenvalue_crosscheck(self):
        # square_exact equals the product of nonzero eigenvalues of A^T A
        rng = random.Random(106)
        for _ in range(60):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            A = IntMatrix(n, m, [rng.randint(-5, 5) for _ in range(n * m)])
            r = rank(A)
            if r == 0:
                continue
            G = np.array((A.transpose() @ A).to_lists(), dtype=float)
            eig = sorted(np.linalg.eigvalsh(G))[::-1][:r]
            prod = float(np.prod(eig))
            sq = float(fk_determinant(A).square_exact)
            assert abs(prod - sq) <= 1e-6 * max(1.0, abs(sq))

    def test_orthogonal_invariance(self):
        # signed permutations on either side leave the determinant alone
        rng = random.Random(107)
        for _ in range(40):
            A = _random_matrix(rng, max_dim=5)
            if A.rows == 0 or A.cols == 0:
                continue
            perm = list(range(A.rows))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(A.rows)]
            P = IntMatrix.from_rows([
                [signs[i] if j == perm[i] else 0 for j in range(A.rows)]
                for i in range(A.rows)])
            qperm = list(range(A.cols))
            rng.shuffle(qperm)
            qsigns = [rng.choice((1, -1)) for _ in range(A.cols)]
            Q = IntMatrix.from_rows([
                [qsigns[i] if j == qperm[i] else 0 for j in range(A.cols)]
                for i in range(A.cols)])
            assert fk_determinant(P @ A @ Q).square_exact == \
                fk_determinant(A).square_exact

    def test_square_at_least_one(self):
        rng = random.Random(108)
        for _ in range(60):
            A = _random_matrix(rng)
            assert fk_determinant(A).square_exact >= 1


class TestFKFactorization:
    def test_diag_2_3(self):
        rep = fk_factorization_check(IntMatrix.diagonal([2, 3]))
        assert rep["det_u"].square_exact == 36
        assert rep["det_jk"].square_exact == 1
        assert rep["tors_coker"] == 6
        assert rep["det_prc"].square_exact == 1

    def test_row_2_0(self):
        rep = fk_factorization_check(IntMatrix.from_rows([[2, 0]]))
        assert rep["det_u"].square_exact == 4
        assert rep["det_jk"].square_exact == 1
        assert rep["tors_coker"] == 2

    def test_zero(self):
        rep = fk_factorization_check(IntMatrix.zeros(2, 2))
        assert rep["det_u"].square_exact == 1
        assert rep["tors_coker"] == 1

    def test_random_exact(self):
        rng = random.Random(109)
        for _ in range(200):
            fk_factorization_check(_random_matrix(rng))

    def test_image_lattice_when_minors_exceed_budget(self):
        # rank 6 in 12 x 12: C(12, 6)^2 minors are over the work budget
        rng = random.Random(977)
        A = IntMatrix(12, 6, [rng.randint(-3, 3) for _ in range(72)]) \
            @ IntMatrix(6, 12, [rng.randint(-3, 3) for _ in range(72)])
        assert rank(A) == 6
        assert _fk_square_minor_sum(A) is None
        rep = fk_factorization_check(A)
        assert rep["det_u"].square_exact == _fk_square_image_lattice(A)


class TestBareiss:
    def test_psd_agrees_with_general(self):
        rng = random.Random(110)
        for _ in range(100):
            B = _random_matrix(rng, max_dim=5, bound=4)
            G = (B.transpose() @ B).to_lists()
            assert det_bareiss(G) == det_bareiss_psd(G) == _gram_det(B)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(40, 4), (4, 8)]).flatmap(
        lambda shape: _small_matrices(*shape, bound=3)))
    def test_gram_equals_the_product_route(self, B):
        # tall (up to 40 x 4) and wide (up to 4 x 8) B: the outer products
        # of the row dicts sum to the sparse product B^T B
        assert _gram_det(B) == det_bareiss_psd(
            (B.transpose() @ B).to_lists())

    def test_gram_of_no_columns_is_one(self):
        assert _gram_det(IntMatrix.zeros(3, 0)) == 1
        assert _gram_det(IntMatrix.zeros(0, 0)) == 1

    def test_known_determinant(self):
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([]) == 1
