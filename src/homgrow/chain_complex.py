"""Finite based free Z-chain complexes and their torsion invariants.

Homology is computed exactly: kernels are saturated lattices, torsion comes
from Smith forms, and minimal generator counts follow the invariant-factor
structure.  The module also evaluates the integral torsion rho_Z, the
combinatorial L2-torsion rho_2 over the trivial group, the comparison maps
alpha_n between lattice homology bases and harmonic kernels, and verifies the
identity rho_Z - rho_2 = sum_n (-1)^n ln det(alpha_n) with exact arithmetic.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import (
    DegenerateLevel,
    DegreeOutOfRange,
    IdentityViolation,
    InvalidComplex,
)
from .exact_linalg import (
    FKDet,
    IntMatrix,
    SmithForm,
    _exact_int,
    _fk_det,
    _fk_route,
    _fk_square_image_lattice,
    _fk_square_structure,
    _row_hnf_clean,
    column_hnf,
    det_fraction,
    fk_determinant,
    kernel_lattice,
    ln_of_fraction,
    smith_normal_form,
    solve_in_lattice,
)

__all__ = [
    "IntChainComplex",
    "HomologySummary",
    "AlphaData",
    "homology",
    "check_primes",
    "MAX_PRIME",
    "d_of_abelian_group",
    "d_primewise",
    "laplacian",
    "verify_rho_identity",
    "direct_sum",
    "ChainAnalysis",
]


class IntChainComplex:
    """Chain complex of free Z-modules with integer differentials.

    ``dims[n]`` is the rank of C_n for n = 0..top_degree and
    ``differentials[n-1]`` is c_n : C_n -> C_{n-1} for n = 1..top_degree.
    The relation c_n c_{n+1} = 0 is checked at construction.
    """

    __slots__ = ("top_degree", "dims", "differentials")

    def __init__(self, dims: Sequence[int], differentials: Sequence[IntMatrix]):
        dims = list(map(_exact_int, dims))
        if not dims:
            raise InvalidComplex("a complex needs at least degree 0")
        if len(differentials) != len(dims) - 1:
            raise InvalidComplex(
                f"expected {len(dims) - 1} differentials, got {len(differentials)}")
        for n, c in enumerate(differentials, start=1):
            if c.shape != (dims[n - 1], dims[n]):
                raise InvalidComplex(
                    f"differential {n} has shape {c.shape}, "
                    f"expected {(dims[n - 1], dims[n])}", degree=n)
        for n in range(1, len(dims) - 1):
            if not (differentials[n - 1] @ differentials[n]).is_zero():
                raise InvalidComplex(
                    f"c_{n} c_{n + 1} != 0", degree=n)
        self.top_degree = len(dims) - 1
        self.dims = dims
        self.differentials = list(differentials)

    def differential(self, n: int) -> IntMatrix:
        """c_n : C_n -> C_{n-1}; the zero map outside 1..top_degree."""
        if 1 <= n <= self.top_degree:
            return self.differentials[n - 1]
        if n == 0:
            return IntMatrix.zeros(0, self.dims[0])
        if n == self.top_degree + 1:
            return IntMatrix.zeros(self.dims[self.top_degree], 0)
        return IntMatrix.zeros(0, 0)

    def dim(self, n: int) -> int:
        if 0 <= n <= self.top_degree:
            return self.dims[n]
        return 0

    def __eq__(self, other):
        return (isinstance(other, IntChainComplex)
                and self.dims == other.dims
                and self.differentials == other.differentials)

    def __repr__(self):
        return f"IntChainComplex(dims={self.dims})"

    @classmethod
    def two_term(cls, matrix: IntMatrix, bottom_degree: int = 0) -> "IntChainComplex":
        """Complex 0 -> Z^cols -> Z^rows -> 0 concentrated in two degrees."""
        dims = [0] * bottom_degree + [matrix.rows, matrix.cols]
        diffs = [IntMatrix.zeros(0, 0)] * bottom_degree + [matrix]
        if bottom_degree:
            diffs[bottom_degree - 1] = IntMatrix.zeros(0, matrix.rows)
        return cls(dims, diffs)


@dataclass
class HomologySummary:
    """Per-degree homology data of an IntChainComplex.

    ``invariant_factors[n]`` lists the torsion of H_n in chained form with
    units dropped; ``tors_order[n]`` is their exact product;
    ``betti_mod_p[p][n]`` is dim_{F_p} H_n(C; F_p).
    """
    betti_q: List[int]
    invariant_factors: List[tuple]
    tors_order: List[int]
    log_tors: List[float]
    d_hn: List[int]
    betti_mod_p: Dict[int, List[int]]


@dataclass
class AlphaData:
    """Logs and exact squares of det(alpha_n), one entry per degree."""
    log_det_alpha: List[float]
    square_exact: List[Fraction]


def d_of_abelian_group(invariant_factors: Sequence[int], free_rank: int) -> int:
    """Minimal number of generators of Z^free_rank + sum of Z/d_j.

    Expects chained factors; the count is free_rank plus the number of
    nontrivial factors.  Cross-checkable against the prime-wise form
    d = dim_Q + max_p s_p via `d_primewise`.
    """
    s = sum(1 for d in invariant_factors if d >= 2)
    return free_rank + s


def d_primewise(invariant_factors: Sequence[int], free_rank: int) -> int:
    """d(M) = dim_Q(Q tensor M) + max_p s_p(M); independent of chaining."""
    counts: Counter = Counter()
    for d in invariant_factors:
        d = abs(d)
        p = 2
        dd = d
        while p * p <= dd:
            if dd % p == 0:
                counts[p] += 1
                while dd % p == 0:
                    dd //= p
            p += 1
        if dd > 1:
            counts[dd] += 1
    return free_rank + (max(counts.values()) if counts else 0)


_MISSING = object()


def _per_degree(method):
    """Memoize ``method(obj, n)`` in ``obj._memo`` under the key (method
    name, n): one value per object and degree, dropped with the object."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(obj, n):
        value = obj._memo.get((name, n), _MISSING)
        if value is _MISSING:
            value = obj._memo[name, n] = method(obj, n)
        return value

    return memoized


class ChainAnalysis:
    """Exact invariants of a single complex, each computed once.

    Every per-degree method below (`smith`, `left_kernel`, `kernel`,
    `relations`, `free_lifts`, `harmonic`, `fk_differential` and
    `fk_laplacian`) keeps its result in the one dict `_memo`, keyed by
    (method name, n), and `lift` is a cached property.  Both live on the
    analysis and die with it; no cache outlives the analysis.

    Per degree n this derives: a saturated kernel basis K_n of c_n, the
    matrix X_n with K_n X_n = c_{n+1} (so H_n = coker(X_n)), integer cycle
    lifts of a basis of H_n(C)_f, and the harmonic lattice
    ker(c_n) cap ker(c_{n+1}^T).

    One Smith form is kept per degree, that of X_{n-1}.  K_{n-1} is a
    saturated basis of full column rank, so some unimodular U has
    U K_{n-1} = [I; 0], hence U c_n = [X_{n-1}; 0]: c_n and X_{n-1} have the
    same invariant factors and rank.  `smith(n)` therefore serves both:

      * the torsion and Betti number of H_{n-1};
      * rank c_n, which skips K_n when c_n has full column rank and the
        left kernel ker(c_n^T) when it has full row rank;
      * the FK structure route of c_n, which reuses it.

    When c_{n-1} = 0, K_{n-1} is the identity and X_{n-1} is c_n itself.
    The left kernel ker(c_n^T) is computed lazily, for the FK structure
    route of c_n and, when c_{n-1} = 0, for the harmonic lattice and free
    lifts in degree n - 1 (there ker(c_n^T) is exactly the lattice they
    need).  b_n = 0 gives an empty harmonic lattice without a lattice
    computation.

    `fk_differential` asks `_fk_route` once per degree and calls the route
    it names.  A complex base-changed from Z[Z^m] may carry `characters`,
    the `characters.CharacterSplit` of its Laurent source and quotient;
    then the rule also weighs the FK square of c_n over Galois orbits of
    characters, and that route checks the orbit ranks against rank c_n.

    Such a level also lifts its harmonic lattices from `lift`, the analysis
    of the augmented complex Z tensor_{ZG} C of that source, built on first
    use.  The norm map N_G, e_(i) -> the sum of e_(i, v) over the group
    elements v, is a chain map that scales inner products by |G| and splits
    over Z.  So when b_n equals the augmented b_n (`rationally_trivial`),
    every harmonic vector is G-invariant, and the harmonic lattice is N_G
    of the augmented one: each augmented row repeated |G| times in the
    block layout of base change, saturated and exactly ker(Delta_n), with
    no elimination.  Otherwise, and without characters, the kernel route
    runs.  `alpha_square` cannot see a wrong lattice scale, but the
    Laplacian identity can: the FK structure route of Delta_n reads
    det(W^T W).

    The Laplacians repeat diagonal blocks across degrees: a torus Delta_n
    is C(m, n) copies of Delta_0, and the circle's Delta_0 equals Delta_1
    because the circulant t - 1 is normal (so too for a mapping torus of a
    symmetric matrix A, as tA - I commutes with its adjoint t^-1 A - I).
    So the analysis keeps one dict of block Smith forms, made here and
    dropped with it, which `fk_laplacian` passes to `fk_determinant`: each
    distinct block is factored once per analysis, not once per degree.
    What the dict returns still meets the Laplacian identity check.
    """

    def __init__(self, complex_: IntChainComplex, characters=None):
        self.complex = complex_
        self.characters = characters
        self._memo: Dict[tuple, object] = {}
        self._smith_blocks: Dict[tuple, tuple] = {}

    # -- per-degree facts -----------------------------------------------------

    def _kernel_is_identity(self, n: int) -> bool:
        """True when c_n = 0 in a degree n of the complex: then K_n is the
        identity and X_n is c_{n+1} itself."""
        return (0 <= n <= self.complex.top_degree
                and self.complex.differential(n).is_zero())

    @_per_degree
    def smith(self, n: int) -> SmithForm:
        """Smith form of X_{n-1}, which is also that of c_n."""
        return smith_normal_form(self.relations(n - 1))

    def rank(self, n: int) -> int:
        """rank c_n."""
        return self.smith(n).rank

    @_per_degree
    def left_kernel(self, n: int) -> IntMatrix:
        """Saturated basis of ker(c_n^T); no columns when c_n has full row
        rank."""
        c = self.complex.differential(n)
        if self.rank(n) == c.rows:
            return IntMatrix.zeros(c.rows, 0)
        return kernel_lattice(c.transpose())

    # -- lattice layers -----------------------------------------------------

    @_per_degree
    def kernel(self, n: int) -> IntMatrix:
        """Saturated basis K_n of ker(c_n); no columns when c_n has full
        column rank."""
        c = self.complex.differential(n)
        if n >= 1 and self.rank(n) == c.cols:
            return IntMatrix.zeros(c.cols, 0)
        return kernel_lattice(c)

    @_per_degree
    def relations(self, n: int) -> IntMatrix:
        """X_n with kernel(n) @ X_n = c_{n+1}; presents H_n = coker(X_n)."""
        X = solve_in_lattice(self.kernel(n), self.complex.differential(n + 1))
        if X is None:
            raise IdentityViolation("boundaries do not lie in the cycle lattice")
        return X

    def torsion_factors(self, n: int) -> tuple:
        return tuple(d for d in self.smith(n + 1).invariant_factors if d != 1)

    def betti(self, n: int) -> int:
        if not (0 <= n <= self.complex.top_degree):
            return 0
        return self.kernel(n).cols - self.smith(n + 1).rank

    def tors_order(self, n: int) -> int:
        return math.prod(self.torsion_factors(n))

    @_per_degree
    def free_lifts(self, n: int) -> IntMatrix:
        """Integer cycles whose classes form a Z-basis of H_n(C)_f."""
        K = self.kernel(n)
        b = self.betti(n)
        if b == 0:
            return IntMatrix.zeros(self.complex.dim(n), 0)
        # D spans {y : X^T y = 0}; pairing with D embeds Z^k / sat(im X)
        # into Z^b, and the first b rows of the row Hermite transform of D
        # hand back preimages of the image-lattice basis.
        if self._kernel_is_identity(n):
            D = self.left_kernel(n + 1)
        else:
            D = kernel_lattice(self.relations(n).transpose())
        pivots, _, urows = _row_hnf_clean(D.data, transform=True)
        assert len(pivots) == b
        return K @ IntMatrix._raw(b, K.cols, urows[:b]).transpose()

    @functools.cached_property
    def lift(self) -> Optional["ChainAnalysis"]:
        """The analysis of the augmented complex of the characters' source,
        which the harmonic lattices lift from, built on first access; None
        without characters."""
        if self.characters is None:
            return None
        return ChainAnalysis(self.characters.source.augmented_complex())

    def rationally_trivial(self, n: int) -> bool:
        """Whether the deck group G acts trivially on Q tensor H_n: b_n
        equals the b_n of `lift`.  Coinvariants are exact over Q, so the
        augmented b_n is the dimension of the G-coinvariants of Q tensor
        H_n, which is b_n only for the trivial action.  True without
        characters, where there is no deck group."""
        src = self.lift
        return src is None or src.betti(n) == self.betti(n)

    @_per_degree
    def harmonic(self, n: int) -> IntMatrix:
        """Saturated basis of ker(c_n) cap ker(c_{n+1}^T) = ker(Delta_n)."""
        if self.betti(n) == 0:
            # b_n is its rank; a wrongly empty lattice still fails the rank
            # check of the Laplacian's Smith form
            return IntMatrix.zeros(self.complex.dim(n), 0)
        if self._kernel_is_identity(n):
            # K_n is the identity: the harmonic lattice is ker(c_{n+1}^T),
            # already in column Hermite form
            return self.left_kernel(n + 1)
        if self.characters is not None and self.rationally_trivial(n):
            # Every harmonic vector is invariant, so the lattice is the norm
            # map of the lift's: each of its rows repeated once per group
            # element, in the block layout of base change
            W = self.lift.harmonic(n)
            reps = self.complex.dim(n) // W.rows
            return IntMatrix._raw(W.rows * reps, W.cols,
                                  [r for r in W.data for _ in range(reps)])
        K = self.kernel(n)
        M = self.complex.differential(n + 1).transpose() @ K
        return column_hnf(K @ kernel_lattice(M))

    # -- determinants ---------------------------------------------------------

    @_per_degree
    def fk_differential(self, n: int) -> FKDet:
        """det_FK(c_n), by the route `_fk_route` names."""
        cn = self.complex.differential(n)
        if cn.is_zero():
            return _fk_det(1)
        cost = None if self.characters is None else self.characters.cost(n)
        route = _fk_route(cn, self.rank(n), cost)
        if route == "characters":
            return _fk_det(self._character_square(n))
        if route == "structure":
            return _fk_det(_fk_square_structure(
                cn, self.kernel(n), self.left_kernel(n), self.smith(n)))
        return _fk_det(_fk_square_image_lattice(cn))

    def _character_square(self, n: int) -> int:
        """Product of the orbit norms of c_n, once the orbit ranks add up,
        phi(d) times each, to the rank of the shared Smith form."""
        factors = self.characters.factors(n)
        r = sum(f * r_chi for f, r_chi, _ in factors)
        if r != self.rank(n):
            raise IdentityViolation(
                f"character ranks give rank c_{n} = {r}, "
                f"the Smith form {self.rank(n)}")
        if any(norm < 1 for _, _, norm in factors):
            raise IdentityViolation(f"an orbit norm of c_{n} is below 1")
        return math.prod(norm for _, _, norm in factors)

    @_per_degree
    def fk_laplacian(self, n: int) -> FKDet:
        """det_FK(Delta_n), its kernel the harmonic lattice."""
        delta = laplacian(self.complex, n)
        W = self.harmonic(n)
        if not (delta @ W).is_zero():
            raise IdentityViolation(
                "harmonic lattice is not annihilated by the Laplacian")
        return fk_determinant(delta, kernel=W, left_kernel=W,
                              blocks=self._smith_blocks)

    # -- alpha ---------------------------------------------------------------

    def alpha_square(self, n: int) -> Fraction:
        """Exact square of det(alpha_n): Gram determinant of the orthogonal
        projections of the H_n(C)_f basis lifts onto the harmonic subspace.

        With W the harmonic basis and Z the lifts, both b_n columns wide, that
        Gram matrix is (W^T Z)^T (W^T W)^{-1} (W^T Z), whose determinant is
        det(W^T Z)^2 / det(W^T W).
        """
        b = self.betti(n)
        if b == 0:
            return Fraction(1)
        W = self.harmonic(n)
        if W.cols != b:
            raise IdentityViolation(
                f"harmonic lattice has rank {W.cols}, b_{n} = {b}")
        Wt = W.transpose()
        cross = det_fraction((Wt @ self.free_lifts(n)).to_lists())
        sq = cross * cross / det_fraction((Wt @ W).to_lists())
        if sq <= 0:
            raise IdentityViolation("alpha determinant vanished")
        return sq


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

# Largest prime accepted for mod-p Betti numbers.
MAX_PRIME = 2 ** 40

# The first 12 primes: as Miller-Rabin bases they decide primality exactly
# below 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 2017), far above
# MAX_PRIME.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over `_MR_BASES`."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_primes(primes: Sequence[int]) -> None:
    """Refuse a value that is not an int (bools included), one above
    MAX_PRIME, a nonprime and a repeat, in that order for each value, with
    `DegenerateLevel`; s_p counts mean dimensions over F_p only for a prime
    p."""
    for k, p in enumerate(primes):
        if isinstance(p, bool) or not isinstance(p, int):
            raise DegenerateLevel(f"primes must be ints, got {p!r}")
        if p > MAX_PRIME:
            raise DegenerateLevel(f"prime {p} is above {MAX_PRIME}")
        if not _is_prime(p):
            raise DegenerateLevel(f"{p} is not prime")
        if p in primes[:k]:
            raise DegenerateLevel(f"primes repeat {p}")


def homology(C: IntChainComplex, primes: Sequence[int] = ()) -> HomologySummary:
    """Exact homology H_n = ker(c_n)/im(c_{n+1}) for all degrees.

    Betti numbers over F_p follow universal coefficients:
    dim H_n(C; F_p) = b_n + s_p(H_n) + s_p(H_{n-1}).
    """
    an = ChainAnalysis(C)
    return homology_from_analysis(an, primes)


def homology_from_analysis(an: ChainAnalysis,
                           primes: Sequence[int] = ()) -> HomologySummary:
    """`homology` on a shared analysis; the primes must pass
    `check_primes`."""
    check_primes(primes)
    C = an.complex
    top = C.top_degree
    betti = [an.betti(n) for n in range(top + 1)]
    facs = [an.torsion_factors(n) for n in range(top + 1)]
    tors = [an.tors_order(n) for n in range(top + 1)]
    log_tors = [math.log(t) if t > 1 else 0.0 for t in tors]
    d_hn = [d_of_abelian_group(facs[n], betti[n]) for n in range(top + 1)]
    betti_p: Dict[int, List[int]] = {}
    for p in primes:
        col = []
        for n in range(top + 1):
            sp_n = sum(1 for d in facs[n] if d % p == 0)
            sp_prev = sum(1 for d in facs[n - 1] if d % p == 0) if n else 0
            col.append(betti[n] + sp_n + sp_prev)
        betti_p[p] = col
    return HomologySummary(betti, facs, tors, log_tors, d_hn, betti_p)


def _alternating_product(values: Sequence) -> Fraction:
    """prod_k values[k]^((-1)^k), exactly."""
    out = Fraction(1)
    for k, v in enumerate(values):
        out = out * v if k % 2 == 0 else out / v
    return out


def laplacian(C: IntChainComplex, n: int) -> IntMatrix:
    """Combinatorial Laplacian c_n^T c_n + c_{n+1} c_{n+1}^T on C_n."""
    if not (0 <= n <= C.top_degree):
        raise DegreeOutOfRange(f"degree {n} outside 0..{C.top_degree}")
    cn = C.differential(n)
    cnext = C.differential(n + 1)
    if not cnext.cols:
        if not cn.rows:
            return IntMatrix.zeros(C.dim(n), C.dim(n))
        return cn.transpose() @ cn
    up = cnext @ cnext.transpose()
    return cn.transpose() @ cn + up if cn.rows else up


def verify_rho_identity(C: IntChainComplex) -> dict:
    """`rho_identity_from_analysis` on a fresh analysis of C."""
    return rho_identity_from_analysis(ChainAnalysis(C))


def rho_identity_from_analysis(an: ChainAnalysis) -> dict:
    """Check rho_Z - rho_2 = sum_n (-1)^n ln det(alpha_n), exactly.

    rho_Z = sum_n (-1)^n ln|tors H_n| is the integral torsion and
    rho_2 = -sum_{n>=1} (-1)^n ln det_FK(c_n) the combinatorial L2-torsion
    over the trivial group.  The Laplacian route
    -1/2 sum_n (-1)^n n ln det_FK(Delta_n) is recomputed and must agree with
    rho_2 within 1e-9, and the underlying exact identity
    det_FK(Delta_n)^2 = (det_FK(c_n)^2 det_FK(c_{n+1})^2)^2 is asserted on
    the exact squares in every degree.  The rho identity itself is asserted
    on the squared exponentials (exact rationals) and, redundantly, on the
    float values within 1e-9.
    """
    top = an.complex.top_degree
    squares = [an.alpha_square(n) for n in range(top + 1)]
    alpha = AlphaData([0.5 * ln_of_fraction(sq) if sq != 1 else 0.0
                       for sq in squares], squares)
    # exp(rho_Z) and exp(2 rho_2), exactly
    rz_ratio = _alternating_product([an.tors_order(n) for n in range(top + 1)])
    rz = ln_of_fraction(rz_ratio) if rz_ratio != 1 else 0.0
    r2_sq = _alternating_product([an.fk_differential(n).square_exact
                                  for n in range(1, top + 1)])
    r2 = 0.5 * ln_of_fraction(r2_sq) if r2_sq != 1 else 0.0
    exponent_sum = 0.0
    for n in range(top + 1):
        dn = an.fk_laplacian(n).square_exact
        cn = an.fk_differential(n).square_exact
        cn1 = an.fk_differential(n + 1).square_exact
        if dn != (cn * cn1) ** 2:
            raise IdentityViolation(
                f"Laplacian determinant identity fails in degree {n}")
        if n:
            exponent_sum += (-1) ** (n + 1) * 0.25 * n * ln_of_fraction(dn)
    if abs(exponent_sum - r2) > 1e-9 * max(1.0, abs(r2)):
        raise IdentityViolation(
            f"rho_2 routes disagree: {r2} vs {exponent_sum}")
    rhs = sum((-1) ** n * alpha.log_det_alpha[n]
              for n in range(len(alpha.log_det_alpha)))
    lhs = rz - r2
    # exact comparison: exp(2 lhs) = rz_ratio^2 / r2_sq vs prod alpha_sq^(+-1)
    lhs_sq = rz_ratio * rz_ratio / r2_sq
    rhs_sq = _alternating_product(alpha.square_exact)
    if lhs_sq != rhs_sq:
        raise IdentityViolation(
            f"rho identity fails exactly: {lhs_sq} != {rhs_sq}")
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
        raise IdentityViolation(f"rho identity fails in floats: {lhs} vs {rhs}")
    return {
        "rho_Z": rz,
        "rho_2": r2,
        "alpha_sum": rhs,
        "lhs_square": lhs_sq,
        "rhs_square": rhs_sq,
        "alpha": alpha,
    }


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def direct_sum(C: IntChainComplex, D: IntChainComplex) -> IntChainComplex:
    top = max(C.top_degree, D.top_degree)
    dims = [C.dim(n) + D.dim(n) for n in range(top + 1)]
    diffs = [IntMatrix.block_diag([C.differential(n), D.differential(n)])
             for n in range(1, top + 1)]
    return IntChainComplex(dims, diffs)
