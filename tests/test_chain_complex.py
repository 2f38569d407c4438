import math
import random
from fractions import Fraction

import pytest

from homgrow import chain_complex, exact_linalg
from homgrow.chain_complex import (
    ChainAnalysis,
    IntChainComplex,
    alpha_log_dets,
    d_of_abelian_group,
    d_primewise,
    direct_sum,
    homology,
    homology_from_analysis,
    laplacian,
    rho_2,
    rho_Z,
    rho_identity_from_analysis,
    verify_rho_identity,
)
from homgrow.corpus import random_complex, random_unimodular
from homgrow.errors import DegreeOutOfRange, InvalidComplex
from homgrow.exact_linalg import (
    IntMatrix,
    _colhnf_with_transform,
    column_hnf,
    fk_determinant,
    kernel_lattice,
    smith_normal_form,
    solve_in_lattice,
)
from homgrow.group_ring import (
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    tensor,
    torus_complex,
)


def circle_level(i):
    e = [0] * (i * i)
    for j in range(i):
        e[j * i + j] -= 1
        e[((j + 1) % i) * i + j] += 1
    return IntChainComplex([i, i], [IntMatrix(i, i, e)])


def mult_complex(n):
    return IntChainComplex([1, 1], [IntMatrix.from_rows([[n]])])


class TestConstruction:
    def test_boundary_condition_enforced(self):
        with pytest.raises(InvalidComplex):
            IntChainComplex([1, 1, 1], [IntMatrix.from_rows([[1]]),
                                        IntMatrix.from_rows([[1]])])

    def test_shape_check(self):
        with pytest.raises(InvalidComplex):
            IntChainComplex([2, 1], [IntMatrix.from_rows([[1]])])


class TestHomology:
    def test_circle_quotient(self):
        h = homology(circle_level(3), primes=(2, 3, 5))
        assert h.betti_q == [1, 1]
        assert h.invariant_factors == [(), ()]
        assert h.d_hn == [1, 1]

    def test_multiplication_by_three(self):
        h = homology(mult_complex(3), primes=(3,))
        assert h.invariant_factors[0] == (3,)
        assert h.betti_q == [0, 0]
        assert abs(h.log_tors[0] - math.log(3)) < 1e-12
        # universal coefficients: s_3 contributes in degrees 0 and 1
        assert h.betti_mod_p[3] == [1, 1]

    def test_zero_complex(self):
        h = homology(IntChainComplex([0], []))
        assert h.betti_q == [0]

    def test_mod_p_against_fp_rank(self):
        # betti_mod_p from invariant factors equals an independent F_p rank
        rng = random.Random(201)
        for _ in range(40):
            C = random_complex(rng)
            h = homology(C, primes=(2, 3, 5))
            for p in (2, 3, 5):
                for n in range(C.top_degree + 1):
                    expected = _fp_betti(C, n, p)
                    assert h.betti_mod_p[p][n] == expected, (n, p)


def _fp_rank(M, p):
    rows = [[x % p for x in M.row(i)] for i in range(M.rows)]
    r = 0
    cols = M.cols
    row_used = [False] * M.rows
    for j in range(cols):
        piv = None
        for i in range(M.rows):
            if not row_used[i] and rows[i][j] % p:
                piv = i
                break
        if piv is None:
            continue
        row_used[piv] = True
        r += 1
        inv = pow(rows[piv][j], p - 2, p)
        rows[piv] = [(x * inv) % p for x in rows[piv]]
        for i in range(M.rows):
            if i != piv and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[piv])]
    return r


def _fp_betti(C, n, p):
    rank_n = _fp_rank(C.differential(n), p) if n >= 1 else 0
    rank_n1 = _fp_rank(C.differential(n + 1), p) if n < C.top_degree else 0
    return C.dim(n) - rank_n - rank_n1


class TestMinimalGenerators:
    def test_coprime_merge(self):
        # Z/p + Z/q with p != q is cyclic
        assert d_primewise((2, 3), 0) == 1
        assert d_of_abelian_group((6,), 0) == 1

    def test_mixed(self):
        assert d_of_abelian_group((2, 4), 2) == 4

    def test_trivial(self):
        assert d_of_abelian_group((), 0) == 0

    def test_formulas_agree(self):
        rng = random.Random(202)
        for _ in range(200):
            k = rng.randint(0, 4)
            chain = []
            d = rng.choice([2, 2, 3, 4])
            for _ in range(k):
                chain.append(d)
                d *= rng.choice([1, 1, 2, 3])
            free = rng.randint(0, 3)
            assert d_of_abelian_group(chain, free) == d_primewise(chain, free)

    def test_sandwich(self):
        # dim_Q(Q @ H_n) <= dim_Fp(F_p @ H_n) <= d(H_n)
        #                <= dim_Q + ln|tors|/ln 2, on random homologies
        rng = random.Random(203)
        for _ in range(40):
            C = random_complex(rng)
            h = homology(C, primes=(2, 3, 5))
            for n in range(C.top_degree + 1):
                t = h.tors_order[n]
                for p in (2, 3, 5):
                    s_p = sum(1 for d in h.invariant_factors[n] if d % p == 0)
                    dim_fp = h.betti_q[n] + s_p
                    assert h.betti_q[n] <= dim_fp <= h.d_hn[n]
                assert h.d_hn[n] <= h.betti_q[n] + (
                    math.log(t) / math.log(2) if t > 1 else 0) + 1e-9

    def test_subadditivity_on_split_sequences(self):
        # d(M0 + M2) <= d(M0) + d(M2), and each summand's d at most the sum's
        rng = random.Random(204)
        for _ in range(100):
            f0 = sorted(rng.choice([2, 3, 4, 9]) for _ in range(rng.randint(0, 3)))
            f2 = sorted(rng.choice([2, 3, 4, 9]) for _ in range(rng.randint(0, 3)))
            r0, r2 = rng.randint(0, 2), rng.randint(0, 2)
            d0 = d_primewise(f0, r0)
            d2 = d_primewise(f2, r2)
            dsum = d_primewise(list(f0) + list(f2), r0 + r2)
            assert dsum <= d0 + d2
            assert d0 <= dsum and d2 <= dsum


class TestTorsionInvariants:
    def test_rho_z_multiplication(self):
        assert abs(rho_Z(mult_complex(3)) - math.log(3)) < 1e-12

    def test_rho_z_circle(self):
        for i in (1, 2, 5, 8):
            assert abs(rho_Z(circle_level(i))) < 1e-12

    def test_rho_z_empty(self):
        assert rho_Z(IntChainComplex([0], [])) == 0.0

    def test_rho_2_circle(self):
        for i in (1, 2, 3, 8):
            assert abs(rho_2(circle_level(i)) - math.log(i)) < 1e-12

    def test_rho_2_multiplication(self):
        for n in (1, 2, 5):
            assert abs(rho_2(mult_complex(n)) - math.log(n)) < 1e-12

    def test_laplacian_circle(self):
        L = laplacian(circle_level(4), 1)
        assert L.row(0) == (2, -1, 0, -1)

    def test_laplacian_edge_case(self):
        C = IntChainComplex([2, 1], [IntMatrix.from_rows([[1], [1]])])
        assert laplacian(C, 0).to_lists() == [[1, 1], [1, 1]]

    def test_laplacian_degree_range(self):
        with pytest.raises(DegreeOutOfRange):
            laplacian(circle_level(2), 5)


def _fraction_inverse(M: list) -> list:
    """Inverse of a nonsingular integer matrix as Fractions (Gauss-Jordan)."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for k in range(n):
        piv = next(i for i in range(k, n) if A[i][k] != 0)
        A[k], A[piv] = A[piv], A[k]
        inv = 1 / A[k][k]
        A[k] = [x * inv for x in A[k]]
        for i in range(n):
            if i != k and A[i][k]:
                f = A[i][k]
                A[i] = [x - f * y for x, y in zip(A[i], A[k])]
    return [row[n:] for row in A]


class TestAlpha:
    def test_circle_values(self):
        for i in (1, 2, 3, 5, 16):
            a = alpha_log_dets(circle_level(i))
            assert a.square_exact[1] == i
            assert a.square_exact[0] == Fraction(1, i)
            assert abs(a.log_det_alpha[1] - 0.5 * math.log(i)) < 1e-12

    def test_concentrated_complex(self):
        a = alpha_log_dets(IntChainComplex([1], []))
        assert a.square_exact == [Fraction(1)]

    def test_invariance_under_homology_rebasing(self):
        # the alpha square does not depend on the Z-basis chosen for H_n(C)_f
        from homgrow.chain_complex import ChainAnalysis
        from homgrow.exact_linalg import _gram_int, det_fraction

        def alpha_square_with_lifts(an, n, Z):
            # the definition: Gram determinant of the projections of the
            # lifts onto the harmonic subspace, via (W^T W)^{-1}
            W = an.harmonic(n)
            WtW = _gram_int(W)
            WtZ = (W.transpose() @ Z).to_lists()
            inv = _fraction_inverse(WtW)
            k = len(WtW)
            b = Z.cols
            gram = [[sum(Fraction(WtZ[a][i]) * inv[a][c] * WtZ[c][j]
                         for a in range(k) for c in range(k))
                     for j in range(b)] for i in range(b)]
            return det_fraction(gram)

        rng = random.Random(205)
        for _ in range(20):
            C = random_complex(rng)
            an = ChainAnalysis(C)
            for n in range(C.top_degree + 1):
                b = an.betti(n)
                if b == 0:
                    continue
                Z = an.free_lifts(n)
                U = random_unimodular(b, rng)
                assert alpha_square_with_lifts(an, n, Z @ U) == \
                    an.alpha_square(n)

    def test_invariance_under_orthogonal_base_change(self):
        # signed permutations of the chain bases preserve the Hilbert
        # structure, hence every alpha square
        rng = random.Random(206)
        for _ in range(15):
            C = random_complex(rng)
            a1 = alpha_log_dets(C)
            perms = []
            for n in range(C.top_degree + 1):
                d = C.dim(n)
                order = list(range(d))
                rng.shuffle(order)
                signs = [rng.choice((1, -1)) for _ in range(d)]
                perms.append(IntMatrix.from_rows(
                    [[signs[i] if j == order[i] else 0 for j in range(d)]
                     for i in range(d)]))
            inv = [P.transpose() for P in perms]
            diffs = [perms[n - 1] @ C.differential(n) @ inv[n]
                     for n in range(1, C.top_degree + 1)]
            C2 = IntChainComplex(C.dims, diffs)
            a2 = alpha_log_dets(C2)
            assert a1.square_exact == a2.square_exact


class TestRhoIdentity:
    def test_circle(self):
        for i in (1, 2, 3, 8):
            rep = verify_rho_identity(circle_level(i))
            assert abs(rep["alpha_sum"] + math.log(i)) < 1e-12

    def test_multiplication(self):
        rep = verify_rho_identity(mult_complex(4))
        assert abs(rep["rho_Z"] - rep["rho_2"]) < 1e-12

    def test_zero(self):
        verify_rho_identity(IntChainComplex([0], []))

    def test_random_corpus(self):
        rng = random.Random(206)
        for _ in range(60):
            verify_rho_identity(random_complex(rng))


class TestConstructions:
    def test_direct_sum_betti_additivity(self):
        ds = direct_sum(circle_level(2), circle_level(3))
        assert homology(ds).betti_q == [2, 2]

    def test_tensor_kunneth_toruslike(self):
        # circle x circle has the betti numbers of the torus
        t = base_change(tensor(circle_complex(), circle_complex()),
                        QuotientSpec((2, 2))).complex
        assert t.dims == [4, 8, 4]
        assert homology(t).betti_q == [1, 2, 1]


def _direct_layers(C, n):
    """Degree-n layers by direct kernel_lattice, smith_normal_form and
    fk_determinant calls, with nothing shared between degrees; for n >= 1
    also the Smith form of c_n itself."""
    c, cnext = C.differential(n), C.differential(n + 1)
    K = kernel_lattice(c)
    X = (solve_in_lattice(K, cnext) if K.cols
         else IntMatrix.zeros(0, cnext.cols))
    sf = smith_normal_form(X)
    b = K.cols - sf.rank
    if K.cols == 0:
        W = K
    else:
        W = column_hnf(K @ kernel_lattice(cnext.transpose() @ K))
    if b == 0:
        Z = IntMatrix.zeros(C.dim(n), 0)
    else:
        _, V = _colhnf_with_transform(kernel_lattice(X.transpose()).transpose())
        Z = K @ IntMatrix._raw(b, K.cols, V.transpose().data[:b]).transpose()
    layers = {
        "kernel": K,
        "left_kernel": kernel_lattice(c.transpose()),
        "harmonic": W,
        "free_lifts": Z,
        "torsion": tuple(d for d in sf.invariant_factors if d != 1),
        "fk": fk_determinant(c).square_exact,
    }
    if n >= 1:
        layers["smith"] = smith_normal_form(c)
    return layers


def _shared_layers(an, n):
    """The same layers from ChainAnalysis; its smith(n) factors X_(n-1),
    which must have the invariant factors of c_n."""
    layers = {
        "kernel": an.kernel(n),
        "left_kernel": an.left_kernel(n),
        "harmonic": an.harmonic(n),
        "free_lifts": an.free_lifts(n),
        "torsion": an.torsion_factors(n),
        "fk": an.fk_differential(n).square_exact,
    }
    if n >= 1:
        layers["smith"] = an.smith(n)
    return layers


def _analysed_level(C):
    """ChainAnalysis of C after the requests of one tower level, in the
    tower's order, so the caches fill as they do there."""
    an = ChainAnalysis(C)
    homology_from_analysis(an, (2, 3, 5))
    rho_identity_from_analysis(an)
    return an


def _assert_layers_agree(C):
    an = _analysed_level(C)
    for n in range(C.top_degree + 1):
        assert _shared_layers(an, n) == _direct_layers(C, n), n


def _tier1_tower_levels():
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    towers = [
        (circle_complex(), [(2 ** k,) for k in range(9)]),
        (torus_complex(2), [(i, i) for i in (1, 2, 4, 8)]),
        (torus_complex(3), [(1, 1, 1), (2, 2, 2), (4, 4, 2)]),
        (mapping_torus_complex(A), [(i,) for i in range(1, 51)]),
    ]
    for L, levels in towers:
        for moduli in levels:
            yield base_change(L, QuotientSpec(moduli)).complex


class TestSharedLayers:
    """The per-degree layers ChainAnalysis shares (one Smith form per
    degree, of X_(n-1) and so of c_n, one left kernel per differential,
    kernels skipped by rank) agree exactly with the direct computation of
    each layer."""

    def test_random_corpus(self):
        rng = random.Random(7)
        for _ in range(400):
            _assert_layers_agree(random_complex(rng))

    def test_tier1_tower_levels(self):
        for C in _tier1_tower_levels():
            _assert_layers_agree(C)

    @staticmethod
    def _count_calls(monkeypatch):
        """Record the argument of every kernel_lattice and smith_normal_form
        call made through chain_complex or exact_linalg."""
        calls = {"kernel_lattice": [], "smith_normal_form": []}
        for name, log in calls.items():
            real = getattr(exact_linalg, name)

            def counted(A, _real=real, _log=log):
                _log.append(A)
                return _real(A)

            monkeypatch.setattr(chain_complex, name, counted)
            monkeypatch.setattr(exact_linalg, name, counted)
        return calls

    def test_known_empty_harmonic_lattice_is_not_computed(self, monkeypatch):
        calls = self._count_calls(monkeypatch)["kernel_lattice"]
        rng = random.Random(7)
        skipped = 0
        for _ in range(400):
            C = random_complex(rng)
            del calls[:]
            an = _analysed_level(C)
            made = list(calls)
            for n in range(C.top_degree + 1):
                K = an.kernel(n)
                if an.betti(n) or not K.cols or an._kernel_is_identity(n):
                    continue
                assert an.harmonic(n).shape == (C.dim(n), 0)
                M = C.differential(n + 1).transpose() @ K
                assert not any(A == M for A in made)
                skipped += 1
        assert skipped > 0

    def test_full_rank_mapping_torus_level_computes_no_kernel(
            self, monkeypatch):
        A = IntMatrix.from_rows([[2, 1], [1, 1]])
        C = base_change(mapping_torus_complex(A), QuotientSpec((100,))).complex
        calls = self._count_calls(monkeypatch)
        _analysed_level(C)
        assert [M.shape for M in calls["kernel_lattice"] if not M.is_zero()] \
            == []

    def test_circle_level_shares_left_kernel_and_smith_form(
            self, monkeypatch):
        C = base_change(circle_complex(), QuotientSpec((64,))).complex
        c1 = C.differential(1)
        calls = self._count_calls(monkeypatch)
        _analysed_level(C)
        assert sum(M == c1.transpose() for M in calls["kernel_lattice"]) == 1
        assert sum(M == c1 for M in calls["smith_normal_form"]) == 1

    def test_torus3_level_factors_seven_matrices(self, monkeypatch):
        # X_0 = c_1, X_1 and X_2 (X_3 has no columns), which H_0..H_2 and
        # the FK structure routes of c_1..c_3 share, and the four
        # Laplacians of the FK identity; c_2 gets no Smith form of its own
        C = base_change(torus_complex(3), QuotientSpec((4, 4, 4))).complex
        calls = self._count_calls(monkeypatch)
        an = _analysed_level(C)
        for n in range(1, C.top_degree + 1):
            an.fk_differential(n)
        nonzero = [M for M in calls["smith_normal_form"] if not M.is_zero()]
        assert len(nonzero) == 7
        assert not any(M == C.differential(2) for M in nonzero)
