import itertools
import math
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors as sympy_factors

from homgrow.corpus import invert_unimodular, random_unimodular
from homgrow.errors import IdentityViolation
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
    _colhnf_with_transform,
    _fk_square_image_lattice,
    _fk_square_minor_sum,
    _fk_square_structure,
    _gram_int,
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
def _small_matrices(draw, max_dim=8, bound=5):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
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
            (IntMatrix.hstack(A, _from_lists(d, w)), (n, k + w),
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
    @given(_list_operands())
    def test_kernels_leave_input_unchanged(self, operands):
        _, k, _, _, a, b, _, _ = operands
        A = _from_lists(a, k) + _from_lists(b, k).scale(0)   # shares rows
        H = column_hnf(A)
        h = H.to_lists()
        smith_normal_form(A)
        kernel_lattice(A)
        column_hnf(A)
        X = solve_in_lattice(H, A)
        assert A.to_lists() == a
        assert H.to_lists() == h
        assert H @ X == A


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
        for n in range(6):
            U = random_unimodular(n, rng)
            assert U @ invert_unimodular(U) == IntMatrix.identity(n)
        with pytest.raises(IdentityViolation):
            invert_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


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


class TestHermiteAgainstSympy:
    """rank, kernel_lattice, column_hnf and _colhnf_with_transform all run
    the one reduction loop of _row_hnf_clean; each is checked here against
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

        H2, V = _colhnf_with_transform(A)
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

        _, V = _colhnf_with_transform(A)
        assert V @ invert_unimodular(V) == IntMatrix.identity(A.cols)


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

    def test_float_eigenvalue_crosscheck(self):
        # square_exact equals the product of nonzero eigenvalues of A^T A
        rng = random.Random(106)
        for _ in range(60):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            A = IntMatrix(n, m, [rng.randint(-5, 5) for _ in range(n * m)])
            r = rank(A)
            if r == 0:
                continue
            G = np.array(_gram_int(A), dtype=float)
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
            G = _gram_int(B)
            assert det_bareiss(G) == det_bareiss_psd(G)

    def test_known_determinant(self):
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([]) == 1
