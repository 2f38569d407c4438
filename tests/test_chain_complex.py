import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homgrow import (
    chain_complex,
    characters,
    corpus,
    exact_linalg,
    finite_homology,
    group_ring,
    growth,
    serialize,
)
from homgrow.chain_complex import (
    ChainAnalysis,
    IntChainComplex,
    d_of_abelian_group,
    d_primewise,
    direct_sum,
    homology_from_analysis,
    laplacian,
    rho_identity_from_analysis,
    verify_rho_identity,
)
from homgrow.cli import builtin_complex, suite_rng
from homgrow.corpus import random_complex, random_unimodular
from homgrow.errors import (
    DegenerateLevel,
    DegreeOutOfRange,
    DimensionMismatch,
    IdentityViolation,
    InvalidComplex,
)
from homgrow.exact_linalg import (
    IntMatrix,
    _chain_divisibility,
    _row_hnf_clean,
    column_hnf,
    fk_determinant,
    kernel_lattice,
    smith_normal_form,
    solve_in_lattice,
)
from homgrow.group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    tensor,
    torus_complex,
)
from homgrow.serialize import complex_from_document


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

    @pytest.mark.parametrize("dims", [[1.9, 1], [1, 1.0], [True, 1],
                                      ["1", 1]])
    def test_non_integer_dims_refused(self, dims):
        # int() would read [1.9, 1] as [1, 1]
        with pytest.raises(DimensionMismatch):
            IntChainComplex(dims, [IntMatrix.zeros(1, 1)])


class TestHomology:
    def test_circle_quotient(self):
        h = homology_from_analysis(ChainAnalysis(circle_level(3)),
                                   primes=(2, 3, 5))
        assert h.betti_q == [1, 1]
        assert h.invariant_factors == [(), ()]
        assert h.d_hn == [1, 1]

    def test_multiplication_by_three(self):
        h = homology_from_analysis(ChainAnalysis(mult_complex(3)), primes=(3,))
        assert h.invariant_factors[0] == (3,)
        assert h.betti_q == [0, 0]
        assert abs(h.log_tors[0] - math.log(3)) < 1e-12
        # universal coefficients: s_3 contributes in degrees 0 and 1
        assert h.betti_mod_p[3] == [1, 1]

    def test_zero_complex(self):
        h = homology_from_analysis(ChainAnalysis(IntChainComplex([0], [])))
        assert h.betti_q == [0]

    @pytest.mark.parametrize("primes, message", [
        ((4, 1), "4 is not prime"), ((1,), "not prime"), ((-3,), "not prime"),
        ((2.0,), "must be ints"), ((True,), "must be ints"),
        ((3, "5"), "must be ints"), ((2, 2), "repeat"),
        ((2 ** 40 + 15,), "above")],
        ids=["composite", "one", "negative", "float", "bool", "str",
             "repeat", "above-cap"])
    def test_bad_primes_refused(self, primes, message):
        # s_p counts are F_p dimensions only for a prime p
        with pytest.raises(DegenerateLevel, match=message):
            homology_from_analysis(ChainAnalysis(mult_complex(4)),
                                   primes=primes)

    def test_primes_from_any_iterable(self):
        an = ChainAnalysis(mult_complex(6))
        h = homology_from_analysis(an, primes=iter([2, 3]))
        assert h == homology_from_analysis(an, primes=(2, 3))
        assert sorted(h.betti_mod_p) == [2, 3]

    def test_primality_against_trial_division(self):
        def trial(n):
            return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert [n for n in range(-2, 30000) if chain_complex._is_prime(n)] \
            == [n for n in range(-2, 30000) if trial(n)]
        # strong pseudoprimes to the prime bases 2..7 and 2..23, and
        # the largest prime below MAX_PRIME
        for n in (3215031751, 3825123056546413051, 2 ** 40 - 87):
            assert chain_complex._is_prime(n) == trial(n)

    def test_mod_p_against_fp_rank(self):
        # betti_mod_p from invariant factors equals an independent F_p rank
        rng = random.Random(201)
        for _ in range(40):
            C = random_complex(rng)
            h = homology_from_analysis(ChainAnalysis(C), primes=(2, 3, 5))
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
            h = homology_from_analysis(ChainAnalysis(C), primes=(2, 3, 5))
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
        assert abs(verify_rho_identity(mult_complex(3))["rho_Z"]
                   - math.log(3)) < 1e-12

    def test_rho_z_circle(self):
        for i in (1, 2, 5, 8):
            assert abs(verify_rho_identity(circle_level(i))["rho_Z"]) < 1e-12

    def test_rho_z_empty(self):
        assert verify_rho_identity(IntChainComplex([0], []))["rho_Z"] == 0.0

    def test_rho_2_circle(self):
        for i in (1, 2, 3, 8):
            assert abs(verify_rho_identity(circle_level(i))["rho_2"]
                       - math.log(i)) < 1e-12

    def test_rho_2_multiplication(self):
        for n in (1, 2, 5):
            assert abs(verify_rho_identity(mult_complex(n))["rho_2"]
                       - math.log(n)) < 1e-12

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
            a = verify_rho_identity(circle_level(i))["alpha"]
            assert a.square_exact[1] == i
            assert a.square_exact[0] == Fraction(1, i)
            assert abs(a.log_det_alpha[1] - 0.5 * math.log(i)) < 1e-12

    def test_concentrated_complex(self):
        a = verify_rho_identity(IntChainComplex([1], []))["alpha"]
        assert a.square_exact == [Fraction(1)]

    def test_invariance_under_homology_rebasing(self):
        # the alpha square does not depend on the Z-basis chosen for H_n(C)_f
        from homgrow.chain_complex import ChainAnalysis
        from homgrow.exact_linalg import det_fraction

        def alpha_square_with_lifts(an, n, Z):
            # the definition: Gram determinant of the projections of the
            # lifts onto the harmonic subspace, via (W^T W)^{-1}
            W = an.harmonic(n)
            WtW = (W.transpose() @ W).to_lists()
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
                U, _ = random_unimodular(b, rng)
                assert alpha_square_with_lifts(an, n, Z @ U) == \
                    an.alpha_square(n)

    def test_invariance_under_orthogonal_base_change(self):
        # signed permutations of the chain bases preserve the Hilbert
        # structure, hence every alpha square
        rng = random.Random(206)
        for _ in range(15):
            C = random_complex(rng)
            a1 = verify_rho_identity(C)["alpha"]
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
            a2 = verify_rho_identity(C2)["alpha"]
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

    def test_each_check_raises(self, monkeypatch):
        # circle level 5: alpha squares 1/5 and 5, FK square of c_1 25,
        # FK square of Delta_1 625; each plant breaks exactly one check
        exact_ln = chain_complex.ln_of_fraction

        class SkewedLaplacian(ChainAnalysis):
            def fk_laplacian(self, n):
                fk = super().fk_laplacian(n)
                return type(fk)(fk.log_value, 4 * fk.square_exact)

        with pytest.raises(IdentityViolation, match="Laplacian determinant"):
            rho_identity_from_analysis(SkewedLaplacian(circle_level(5)))

        for planted, message in [
                (lambda x: exact_ln(x) + (x > 100), "rho_2 routes disagree"),
                (lambda x: exact_ln(x) + (x == 5), "fails in floats")]:
            monkeypatch.setattr(chain_complex, "ln_of_fraction", planted)
            with pytest.raises(IdentityViolation, match=message):
                verify_rho_identity(circle_level(5))
        monkeypatch.undo()

        class SkewedAlpha(ChainAnalysis):
            def alpha_square(self, n):
                return (4 if n == 0 else 1) * super().alpha_square(n)

        with pytest.raises(IdentityViolation, match="fails exactly"):
            rho_identity_from_analysis(SkewedAlpha(circle_level(5)))

    def test_planted_block_factor_fails_the_laplacian_identity(self):
        # the memoized block factors still go through the Laplacian
        # identity circle level 5: L_0 = L_1 = 2 - t - t^-1, one block with
        # factors (1, 1, 1, 5); a planted last factor of 10 has the right
        # rank
        level = QuotientSpec((5,))
        ref = base_change(circle_complex(), level)
        rho_identity_from_analysis(ref)
        (key, factors), = _memoized_blocks(ref).items()
        assert factors == (1, 1, 1, 5)
        for planted, message in [
                (factors[:-1] + (2 * factors[-1],),
                 "Laplacian determinant identity fails"),
                (factors + (5,), "rank mismatch")]:
            an = base_change(circle_complex(), level)
            an._memo["_block_factors", key] = planted
            with pytest.raises(IdentityViolation, match=message):
                rho_identity_from_analysis(an)

    def test_wrong_base_change_of_a_differential_fails(self):
        # c_1 of circle level 4 doubled: a Delta_n built from that c_1
        # agrees with it, the Laurent Laplacian of the source does not
        qc = base_change(circle_complex(), QuotientSpec((4,)))
        wrong = IntChainComplex(qc.complex.dims,
                                [qc.complex.differential(1).scale(2)])
        rho_identity_from_analysis(ChainAnalysis(wrong))
        an = ChainAnalysis(wrong, qc.source, qc.quotient)
        with pytest.raises(IdentityViolation,
                           match="Laplacian determinant identity fails"):
            rho_identity_from_analysis(an)

    @pytest.mark.parametrize("characters", [False, True],
                             ids=["whole", "blocks"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_planted_harmonic_lattice_off_a_differential_fails(
            self, n, characters):
        # circle level 4: c_0 = 0, so in degree 0 only W^T c_1 sees the
        # plant, and c_2 = 0, so in degree 1 only c_1 W does
        qc = base_change(circle_complex(), QuotientSpec((4,)))
        an = qc if characters else ChainAnalysis(qc.complex)
        assert an.harmonic(n).shape == (4, 1)
        an._memo["harmonic", n] = IntMatrix.from_rows([[1], [0], [0], [0]])
        with pytest.raises(IdentityViolation, match="not annihilated"):
            an.fk_laplacian(n)


class TestConstructions:
    def test_direct_sum_betti_additivity(self):
        ds = direct_sum(circle_level(2), circle_level(3))
        assert homology_from_analysis(ChainAnalysis(ds)).betti_q == [2, 2]

    def test_tensor_kunneth_toruslike(self):
        # circle x circle has the betti numbers of the torus
        t = base_change(tensor(circle_complex(), circle_complex()),
                        QuotientSpec((2, 2)))
        assert t.complex.dims == [4, 8, 4]
        assert homology_from_analysis(t).betti_q == [1, 2, 1]


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
        _, _, urows = _row_hnf_clean(kernel_lattice(X.transpose()).data,
                                     transform=True)
        Z = K @ IntMatrix._raw(b, K.cols, urows[:b]).transpose()
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


def _analysed_quotient(L, moduli):
    """`_analysed_level` of a fresh tower level, which is split above
    index 1."""
    an = base_change(L, QuotientSpec(moduli))
    homology_from_analysis(an, (2, 3, 5))
    rho_identity_from_analysis(an)
    return an


def _memoized(obj, name):
    """The values `obj._memo` keeps for one memoized method."""
    return [v for (key, _), v in obj._memo.items() if key == name]


def _memoized_blocks(level):
    """Laplacian block -> the factors a level's memo keeps for it."""
    return {block: v for (key, block), v in level._memo.items()
            if key == "_block_factors"}


def _assert_layers_agree(C):
    an = _analysed_level(C)
    for n in range(C.top_degree + 1):
        assert _shared_layers(an, n) == _direct_layers(C, n), n


def _sparse_smith(block, q):
    """The sparse Smith form of a Laurent block's base change to q: the
    route `group_ring._cyclic_smith` replaces, kept as its oracle."""
    size = len(block) * q.index
    return smith_normal_form(IntMatrix._raw(
        size, size, group_ring._regular_rows(block, q)))


def _tier1_quotients():
    A = IntMatrix.from_rows([[2, 1], [1, 1]])
    towers = [
        (circle_complex(), [(2 ** k,) for k in range(9)]),
        (torus_complex(2), [(i, i) for i in (1, 2, 4, 8)]),
        (torus_complex(3), [(1, 1, 1), (2, 2, 2), (4, 4, 2)]),
        (mapping_torus_complex(A), [(i,) for i in range(1, 51)]),
    ]
    for L, levels in towers:
        for moduli in levels:
            yield base_change(L, QuotientSpec(moduli))


def _tier1_tower_levels():
    for qc in _tier1_quotients():
        yield qc.complex


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
        """Record the first argument of every kernel_lattice,
        smith_normal_form, laplacian and _cyclic_smith call made through
        exact_linalg, chain_complex or group_ring."""
        calls = {"kernel_lattice": [], "smith_normal_form": [],
                 "laplacian": [], "_cyclic_smith": []}
        for name, log in calls.items():
            modules = [m for m in (exact_linalg, chain_complex, group_ring)
                       if hasattr(m, name)]
            real = getattr(modules[0], name)

            def counted(*args, _real=real, _log=log):
                _log.append(args[0])
                return _real(*args)

            for module in modules:
                monkeypatch.setattr(module, name, counted)
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

    def test_torus3_level_factors_four_matrices(self, monkeypatch):
        # X_0 = c_1, X_1 and X_2 (X_3 has no columns), which H_0..H_2 and
        # the FK structure routes of c_1..c_3 share, and one Laplacian
        # block: every L_n is 6 - sum_j (x_j + x_j^-1) times the identity,
        # so Delta_0..Delta_3 are 1, 3, 3 and 1 copies of one block,
        # factored once per analysis; c_2 gets no Smith form of its own,
        # and no Delta_n is built
        calls = self._count_calls(monkeypatch)
        an = _analysed_quotient(torus_complex(3), (4, 4, 4))
        for n in range(1, an.complex.top_degree + 1):
            an.fk_differential(n)
        nonzero = [M for M in calls["smith_normal_form"] if not M.is_zero()]
        assert len(nonzero) == 4
        assert not any(M == an.complex.differential(2) for M in nonzero)
        assert calls["laplacian"] == []

    def _assert_factors_blocks(self, complex_, moduli, count, monkeypatch):
        """A tower level factors `count` Laplacian blocks, one Smith form
        each (of T^N - I on the companion route, else of the base-changed
        block) besides the relations of its analysis and of its lift, and
        builds no Delta_n; a second, fresh analysis of the same level
        factors them again.  The stored factors are those of the
        base-changed blocks."""
        calls = self._count_calls(monkeypatch)
        smith, factored = calls["smith_normal_form"], calls["_cyclic_smith"]
        q = QuotientSpec(moduli)
        for _ in range(2):
            del smith[:], factored[:]
            an = _analysed_quotient(complex_, moduli)
            ours = (an, an.lift)
            relations = [id(X) for a in ours
                         for X in _memoized(a, "relations")]
            blocks = [M for M in smith if id(M) not in relations]
            assert len(smith) - len(blocks) \
                == sum(len(_memoized(a, "smith")) for a in ours)
            assert len(blocks) == count
            assert len(factored) == count
            assert _memoized_blocks(an) == {
                block: _sparse_smith(block, q).invariant_factors
                for block in factored}
        assert calls["laplacian"] == []

    @pytest.mark.parametrize("complex_, moduli", [
        (circle_complex(), (64,)),
        (mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]])), (50,)),
        (torus_complex(3), (4, 4, 2))],
        ids=["circle", "mapping-torus", "torus3"])
    def test_level_factors_one_laplacian_block(self, complex_, moduli,
                                               monkeypatch):
        # circle and mapping torus of a symmetric matrix: L_0 = L_1, one
        # component each; torus3: every L_n is a multiple of the identity
        self._assert_factors_blocks(complex_, moduli, 1, monkeypatch)

    def test_nonsymmetric_mapping_torus_factors_two_blocks(self, monkeypatch):
        # A A^T != A^T A, so L_0 = A A^T - tA - t^-1 A^T + 1 and
        # L_1 = A^T A - tA - t^-1 A^T + 1 differ
        A = IntMatrix.from_rows([[1, 1], [0, 1]])
        self._assert_factors_blocks(mapping_torus_complex(A), (50,), 2,
                                    monkeypatch)


@st.composite
def _laurent_levels(draw):
    """A Laurent complex and moduli: a mapping torus of a random
    nonsingular 2 x 2 or 3 x 3 matrix, the circle of t^2 - 1, whose base
    change splits further at even index, or a torus level with a modulus
    of 1."""
    kind = draw(st.sampled_from(["mapping", "t2-1", "torus"]))
    if kind == "mapping":
        k = draw(st.integers(2, 3))
        A = draw(st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k)
                 .map(lambda e: IntMatrix(k, k, e))
                 .filter(lambda A: exact_linalg.det_bareiss(A.to_lists())))
        return mapping_torus_complex(A), (draw(st.integers(1, 10)),)
    if kind == "t2-1":
        t2 = LaurentPoly(1, {(2,): 1, (0,): -1})
        return (LaurentChainComplex(1, [1, 1], [[[t2]]]),
                (draw(st.integers(1, 16)),))
    m = draw(st.integers(2, 3))
    moduli = draw(st.permutations([1] + [draw(st.integers(1, 4))
                                         for _ in range(m - 1)]))
    return torus_complex(m), tuple(moduli)


class TestLaurentLaplacian:
    """A tower level's Delta_n is the base change of the Laurent Laplacian
    L_n, one diagonal block per connected component of L_n."""

    @staticmethod
    def _levels():
        yield from _tier1_quotients()
        unipotent = IntMatrix.from_rows([[1, 1], [0, 1]])
        for L, top in ((mapping_torus_complex(unipotent), 8),
                       (builtin_complex("s1_cross"), 6)):
            for i in range(1, top + 1):
                yield base_change(L, QuotientSpec((i,)))

    def test_blocks_are_principal_submatrices_on_tier1_levels(self):
        for qc in self._levels():
            N = qc.quotient.index
            for n in range(qc.complex.top_degree + 1):
                delta = laplacian(qc.complex, n)
                components = qc.source.laplacian_components(n)
                assert sorted(i for comp, _ in components for i in comp) \
                    == list(range(qc.source.dim(n)))
                nnz = 0
                for comp, block in components:
                    rows = [i * N + v for i in comp for v in range(N)]
                    size = len(rows)
                    sub = IntMatrix(size, size, [delta[r, c] for r in rows
                                                 for c in rows])
                    assert IntMatrix._raw(size, size, group_ring._regular_rows(
                        block, qc.quotient)) == sub, (qc.quotient, n, comp)
                    nnz += sub.nnz()
                # Delta_n is zero outside the blocks
                assert nnz == delta.nnz(), (qc.quotient, n)

    def test_nonsymmetric_mapping_torus_laplacians_differ(self):
        L = mapping_torus_complex(IntMatrix.from_rows([[1, 1], [0, 1]]))
        (_, b0), = L.laplacian_components(0)
        (_, b1), = L.laplacian_components(1)
        assert b0 != b1

    @settings(max_examples=60, deadline=None)
    @given(_laurent_levels())
    def test_chained_block_factors_equal_the_whole_smith_form(self, level):
        L, moduli = level
        qc = base_change(L, QuotientSpec(moduli))
        for n in range(L.top_degree + 1):
            diag = [f for _, block in L.laplacian_components(n)
                    for f in qc.quotient.block_factors(block)]
            assert tuple(_chain_divisibility(diag)) == smith_normal_form(
                laplacian(qc.complex, n)).invariant_factors, n


class TestHarmonicLift:
    """A quotient complex lifts its harmonic lattice from the augmented
    complex when their Betti numbers agree, and keeps the kernel route
    when they do not."""

    @staticmethod
    def _lifted(an, n):
        return (an.betti(n) and not an._kernel_is_identity(n)
                and an.lift.betti(n) == an.betti(n))

    def test_lift_equals_kernel_route_on_tier1_levels(self):
        lifted = 0
        for qc in _tier1_quotients():
            an, direct = qc, ChainAnalysis(qc.complex)
            for n in range(qc.complex.top_degree + 1):
                lifted += bool(self._lifted(an, n))
                assert column_hnf(an.harmonic(n)) == direct.harmonic(n), \
                    (qc.quotient, n)
        # every degree n >= 1 of circle, torus2 and torus3 above index 1;
        # the mapping torus has b_n = 0
        assert lifted == 8 + 3 * 2 + 2 * 3

    def test_betti_numbers_above_the_augmented_take_the_kernel_route(self):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        an = base_change(mapping_torus_complex(swap), QuotientSpec((64,)))
        assert [an.betti(n) for n in range(3)] == [2, 2, 0]
        assert [an.lift.betti(n) for n in range(3)] == [1, 1, 0]
        # the lift would give one column
        W = an.harmonic(1)
        assert W.cols == 2
        assert W == ChainAnalysis(an.complex).harmonic(1)
        rho_identity_from_analysis(an)

    def test_planted_lift_scaled_by_two_fails_the_laplacian_identity(self):
        # alpha_n cannot see the scale of the harmonic lattice, but the FK
        # structure route of Delta_n reads det(W^T W)
        an = base_change(torus_complex(2), QuotientSpec((4, 4)))
        aug = an.lift
        assert self._lifted(an, 1)
        aug._memo["harmonic", 1] = aug.harmonic(1).scale(2)
        with pytest.raises(IdentityViolation, match="Laplacian"):
            rho_identity_from_analysis(an)

    def test_lifted_torus3_degree_computes_no_harmonic_kernel(
            self, monkeypatch):
        an = base_change(torus_complex(3), QuotientSpec((4, 4, 4)))
        calls = TestSharedLayers._count_calls(monkeypatch)
        for n in (1, 2):
            assert self._lifted(an, n)
            an.lift.harmonic(n)
            an.kernel(n)
            del calls["kernel_lattice"][:]
            W = an.harmonic(n)
            assert calls["kernel_lattice"] == []
            assert (laplacian(an.complex, n) @ W).is_zero()
            assert W.cols == an.betti(n) == 3


class TestLiftedKernels:
    """K_n = W_n when c_(n+1) = 0, and ker(c_(n+1)^T) = W_n when c_n = 0:
    a split level takes its top-degree cycles and its bottom-degree left
    kernel from the lifted harmonic lattices, with no elimination."""

    def test_lifted_lattices_equal_the_eliminations_on_tier1_levels(self):
        # both routes give the column Hermite basis of one saturated
        # lattice, so the matrices are equal entry for entry
        applied = 0
        for an in _tier1_quotients():
            if not an.split:
                continue
            C = an.complex
            top = C.top_degree
            for n, lattice, matrix in (
                    (top, an.kernel(top), C.differential(top)),
                    (0, an.left_kernel(1), C.differential(1).transpose())):
                lifted = an.lifted_harmonic(n)
                if lifted is None or not lattice.cols:
                    continue
                assert lattice is lifted
                direct = kernel_lattice(matrix)
                assert lattice.shape == direct.shape, (an.quotient, n)
                assert lattice.data == direct.data, (an.quotient, n)
                applied += 1
        # circle 2..256, torus2 (2,2)..(8,8) and torus3 (2,2,2), (4,4,2),
        # both degrees each; the mapping torus has b_n = 0
        assert applied == 2 * (8 + 3 + 2)

    @pytest.mark.parametrize("degree", ["top", "bottom"])
    @pytest.mark.parametrize("L, moduli", [
        (circle_complex(), (2,)), (circle_complex(), (4,)),
        (circle_complex(), (8,)), (circle_complex(), (64,)),
        (torus_complex(2), (4, 4)), (torus_complex(3), (2, 2, 2)),
        (torus_complex(3), (4, 4, 2))],
        ids=["circle-2", "circle-4", "circle-8", "circle-64", "torus2-4-4",
             "torus3-2-2-2", "torus3-4-4-2"])
    def test_planted_lift_scaled_by_two_fails(self, L, moduli, degree):
        an = base_change(L, QuotientSpec(moduli))
        n = an.complex.top_degree if degree == "top" else 0
        aug = an.lift
        W = aug.harmonic(n)
        aug._memo["harmonic", n] = W.scale(2)
        assert an.rationally_trivial(n)
        with pytest.raises(IdentityViolation, match="Laplacian"):
            homology_from_analysis(an, (2, 3, 5))
            rho_identity_from_analysis(an)
        assert an.lifted_harmonic(n).data[0] == W.scale(2).data[0] != {}

    def test_betti_from_ranks_equals_the_kernel_width(self):
        suite, count = corpus.SUITES["rho-identity"]
        checked = 0
        for check in suite(suite_rng(0, "rho-identity"), count):
            an = ChainAnalysis(*check.args)
            for n in range(an.complex.top_degree + 1):
                assert an.betti(n) == an.kernel(n).cols - an.rank(n + 1)
                checked += 1
        assert checked > count

    @pytest.mark.parametrize("index", [2, 3, 8, 64])
    def test_circle_level_eliminates_nothing_of_index_size(
            self, index, monkeypatch):
        # K_0 is the kernel of the zero map c_0, the identity with no
        # elimination; every other lattice of the level is lifted
        calls = TestSharedLayers._count_calls(monkeypatch)["kernel_lattice"]
        an = _analysed_quotient(circle_complex(), (index,))
        assert an.split and [an.betti(n) for n in (0, 1)] == [1, 1]
        assert [M.shape for M in calls
                if index in M.shape and not M.is_zero()] == []


class TestTrivialGroupIsItsOwnLift:
    """Without a character split the lift is the analysis itself: an m = 0
    level, an index-1 level and a plain complex are one case."""

    @staticmethod
    def _assert_own_lift(an):
        assert not an.split
        assert an.lift is an
        top = an.complex.top_degree
        assert all(an.rationally_trivial(n) for n in range(top + 1))

    def test_m0_document(self):
        two = [{"exp": [], "coef": "2"}]
        C = complex_from_document({"m": 0, "top_degree": 1, "dims": [1, 1],
                                   "differentials": [[[two]]]})
        qc = base_change(C, QuotientSpec(()))
        self._assert_own_lift(qc)
        assert qc.tors_order(0) == 2

    @pytest.mark.parametrize("C, moduli", [
        (circle_complex(), (1,)),
        (torus_complex(3), (1, 1, 1)),
        (mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]])), (1,)),
    ], ids=["circle", "torus3", "mapping_torus"])
    def test_index_one_level(self, C, moduli):
        an = base_change(C, QuotientSpec(moduli))
        self._assert_own_lift(an)
        rho_identity_from_analysis(an)

    def test_random_complex(self):
        self._assert_own_lift(ChainAnalysis(random_complex(random.Random(3))))

    def test_own_lift_holds_no_reference_cycle(self):
        # an analysis that cached itself as its lift would stay alive, memo
        # and all, until the cycle collector ran
        an = ChainAnalysis(random_complex(random.Random(3)))
        rho_identity_from_analysis(an)
        assert an.lift is an
        ref = weakref.ref(an)
        gc.disable()
        try:
            del an
            assert ref() is None
        finally:
            gc.enable()

    def test_index_two_level_lifts_from_another_analysis(self):
        an = base_change(circle_complex(), QuotientSpec((2,)))
        assert an.split
        assert an.lift is not an and not an.lift.split
        assert an.lift.complex == an.source.augmented_complex()

    def test_planted_augmentation_map_is_checked(self, monkeypatch):
        # at (2,), degree 1 of the mapping torus of [[-1]], K_1 has one
        # column and the augmented K_1 none: the augmentation must send
        # the cycle to zero, and [[1, 0]] does not
        qc = base_change(mapping_torus_complex(IntMatrix.from_rows([[-1]])),
                         QuotientSpec((2,)))
        assert qc.kernel(1).cols == 1
        assert qc.lift.kernel(1).cols == 0
        monkeypatch.setattr(finite_homology, "_augmentation_map",
                            lambda qc, n: IntMatrix.from_rows([[1, 0]]))
        with pytest.raises(IdentityViolation, match="escapes"):
            finite_homology._homology_map_data(qc, 1)


MEMOIZED = ("smith", "left_kernel", "kernel", "relations", "free_lifts",
            "harmonic", "lifted_harmonic", "fk_differential", "fk_laplacian")


class TestMemo:
    """One memo per object: `_per_degree` keeps each method's value per
    degree in the object's `_memo`, and the memo dies with the object."""

    def test_decorator_runs_the_body_once_per_object_and_degree(self):
        runs = []

        class Probe:
            def __init__(self):
                self._memo = {}

            @chain_complex._per_degree
            def square(self, n):
                runs.append((self, n))
                return [n * n]

        a, b = Probe(), Probe()
        assert a.square(3) is a.square(3) and a.square(4) == [16]
        assert b.square(3) == [9] and b.square(3) is not a.square(3)
        assert runs == [(a, 3), (a, 4), (b, 3)]
        assert a._memo == {("square", 3): [9], ("square", 4): [16]}

    @pytest.mark.parametrize("characters", [False, True],
                             ids=["kernel-route", "characters"])
    def test_analysis_methods_run_once_per_degree(self, characters,
                                                  monkeypatch):
        # torus2 at (4, 4) lifts its harmonic lattices from `lift`; without
        # characters every layer takes the kernel route
        def level():
            qc = base_change(torus_complex(2), QuotientSpec((4, 4)))
            an = qc if characters else ChainAnalysis(qc.complex)
            homology_from_analysis(an, (2, 3))
            rho_identity_from_analysis(an)
            for n in range(an.complex.top_degree + 1):
                an.left_kernel(n)
                an.relations(n)
            return an

        calls = TestSharedLayers._count_calls(monkeypatch)
        an = level()
        made = {name: len(log) for name, log in calls.items()}
        assert made["smith_normal_form"] and made["kernel_lattice"]
        # a split level also memoizes its Laplacian blocks
        assert {name for name, _ in an._memo} == set(MEMOIZED) | (
            {"_block_factors"} if characters else set())
        before = dict(an._memo)
        for name, n in before:
            assert getattr(an, name)(n) is before[name, n]
        homology_from_analysis(an, (2, 3))
        rho_identity_from_analysis(an)
        assert {name: len(log) for name, log in calls.items()} == made
        assert an._memo == before
        # a fresh analysis of the same level computes everything again
        fresh = level()
        assert {name: len(log) for name, log in calls.items()} \
            == {name: 2 * k for name, k in made.items()}
        assert fresh._memo.keys() == before.keys()

    def test_quotient_complex_functions_run_once_per_degree(
            self, monkeypatch):
        solved = []
        real = group_ring.solve_in_lattice

        def counted(*args):
            solved.append(args)
            return real(*args)

        monkeypatch.setattr(group_ring, "solve_in_lattice", counted)
        monkeypatch.setattr(finite_homology, "solve_in_lattice", counted)
        qc = base_change(torus_complex(2), QuotientSpec((2, 2)))
        for n in (0, 1):
            finite_homology.nu_kernel_cokernel(qc, n)
        made = len(solved)
        assert made
        # the level's one memo also holds the analysis entries these read
        memo = {key: value for key, value in qc._memo.items()
                if key[0] in ("quotient_homology_module",
                              "_homology_map_data")}
        assert sorted(memo) == [("_homology_map_data", 0),
                                ("_homology_map_data", 1),
                                ("quotient_homology_module", 0),
                                ("quotient_homology_module", 1)]
        assert group_ring.quotient_homology_module(qc, 1) \
            is memo["quotient_homology_module", 1]
        assert finite_homology._homology_map_data(qc, 0) \
            is memo["_homology_map_data", 0]
        assert len(solved) == made
        other = base_change(torus_complex(2), QuotientSpec((2, 2)))
        M = group_ring.quotient_homology_module(other, 1)
        assert M is not memo["quotient_homology_module", 1]
        assert len(solved) > made

    SOURCE_MEMOIZED = ("laplacian_components", "gram_char_poly")

    def test_source_work_runs_once_per_source_and_degree(self, monkeypatch):
        # the Laurent complex keeps its level-independent work: a torus3
        # tower of three levels builds each degree's components and
        # coefficients once, and a second tower on the same source none
        class Writes(dict):
            """A memo that logs its writes, one per body run."""

            def __init__(self):
                super().__init__()
                self.log = []

            def __setitem__(self, key, value):
                self.log.append(key)
                super().__setitem__(key, value)

        polys = []
        real = characters.gram_char_poly
        monkeypatch.setattr(characters, "gram_char_poly",
                            lambda *a: polys.append(a) or real(*a))
        C = torus_complex(3)
        monkeypatch.setattr(C, "_memo", Writes())
        levels = [QuotientSpec(q) for q in ((2, 2, 2), (4, 4, 2), (4, 4, 4))]
        expected = sorted([("gram_char_poly", n) for n in (1, 2, 3)]
                          + [("laplacian_components", n) for n in range(4)])
        for _ in range(2):
            growth.run_tower(C, levels, primes=(2,))
            assert sorted(C._memo.log) == expected
            assert len(polys) == 3
        for name in self.SOURCE_MEMOIZED:
            fn = vars(LaurentChainComplex)[name]
            assert fn.__name__ == fn.__wrapped__.__name__ == name
            assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__

    def test_source_memo_dies_with_the_source(self):
        C = torus_complex(3)
        level = base_change(C, QuotientSpec((2, 2, 2)))
        rho_identity_from_analysis(level)
        assert {name for name, _ in C._memo} == set(self.SOURCE_MEMOIZED)
        ref = weakref.ref(C)
        del C, level
        assert ref() is None

    def test_threads_sharing_a_fresh_source_give_one_report(self):
        # two threads may compute one source entry twice, never differently
        levels = [QuotientSpec(q) for q in ((2, 2, 2), (4, 4, 2), (4, 4, 4))]
        tables = []
        for jobs in (2, 1):
            C = torus_complex(3)
            assert not C._memo
            report = growth.run_tower(C, levels, primes=(2, 3), jobs=jobs)
            tables.append(serialize.tower_rows_to_csv(
                *serialize.tower_report_rows(report)))
        assert tables[0] == tables[1]

    def test_no_cache_outlives_its_object(self):
        # a tower level is one object with one memo, holding the analysis
        # entries and those of homology with action; it and its lift die
        # with the level
        level = base_change(torus_complex(2), QuotientSpec((2, 2)))
        rho_identity_from_analysis(level)
        finite_homology.verify_estimate_bounds(level, r=3, d=1)
        names = {name for name, _ in level._memo}
        assert {"kernel", "relations", "harmonic", "fk_laplacian",
                "quotient_homology_module", "_homology_map_data"} <= names
        assert level.lift._memo
        refs = [weakref.ref(x) for x in (level, level.lift)]
        del level
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_memoized_names_keep_name_and_doc(self):
        functions = [vars(ChainAnalysis)[name] for name in MEMOIZED] + [
            ChainAnalysis._block_factors,
            group_ring.quotient_homology_module,
            finite_homology._homology_map_data]
        for fn in functions:
            assert fn.__name__ == fn.__wrapped__.__name__
            assert fn.__doc__ and fn.__doc__ == fn.__wrapped__.__doc__
        assert [fn.__name__ for fn in functions[:len(MEMOIZED)]] \
            == list(MEMOIZED)
