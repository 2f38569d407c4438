"""Finite based free Z-chain complexes and their torsion invariants.

Homology is computed exactly: kernels are saturated lattices, torsion comes
from Smith forms, and minimal generator counts follow the invariant-factor
structure.  The module also evaluates the integral torsion rho_Z, the
combinatorial L2-torsion rho_2 over the trivial group, the comparison maps
alpha_n between lattice homology bases and harmonic kernels, and verifies the
identity rho_Z - rho_2 = sum_n (-1)^n ln det(alpha_n) with exact arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import DegreeOutOfRange, IdentityViolation, InvalidComplex
from .exact_linalg import (
    FKDet,
    IntMatrix,
    SmithForm,
    _fk_uses_structure,
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
        dims = list(int(d) for d in dims)
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


class ChainAnalysis:
    """Cached exact invariants of a single complex.

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
    """

    def __init__(self, complex_: IntChainComplex):
        self.complex = complex_
        self._kernel: Dict[int, IntMatrix] = {}
        self._left_kernel: Dict[int, IntMatrix] = {}
        self._smith: Dict[int, SmithForm] = {}
        self._X: Dict[int, IntMatrix] = {}
        self._free_lifts: Dict[int, IntMatrix] = {}
        self._harmonic: Dict[int, IntMatrix] = {}
        self._fk: Dict[int, FKDet] = {}
        self._fk_delta: Dict[int, FKDet] = {}

    # -- per-degree facts -----------------------------------------------------

    def _kernel_is_identity(self, n: int) -> bool:
        """True when c_n = 0 in a degree n of the complex: then K_n is the
        identity and X_n is c_{n+1} itself."""
        return (0 <= n <= self.complex.top_degree
                and self.complex.differential(n).is_zero())

    def smith(self, n: int) -> SmithForm:
        """Smith form of X_{n-1}, which is also that of c_n."""
        if n not in self._smith:
            self._smith[n] = smith_normal_form(self.relations(n - 1))
        return self._smith[n]

    def rank(self, n: int) -> int:
        """rank c_n."""
        return self.smith(n).rank

    def left_kernel(self, n: int) -> IntMatrix:
        """Saturated basis of ker(c_n^T); no columns when c_n has full row
        rank."""
        if n not in self._left_kernel:
            c = self.complex.differential(n)
            if self.rank(n) == c.rows:
                self._left_kernel[n] = IntMatrix.zeros(c.rows, 0)
            else:
                self._left_kernel[n] = kernel_lattice(c.transpose())
        return self._left_kernel[n]

    # -- lattice layers -----------------------------------------------------

    def kernel(self, n: int) -> IntMatrix:
        if n not in self._kernel:
            c = self.complex.differential(n)
            if n >= 1 and self.rank(n) == c.cols:
                self._kernel[n] = IntMatrix.zeros(c.cols, 0)
            else:
                self._kernel[n] = kernel_lattice(c)
        return self._kernel[n]

    def relations(self, n: int) -> IntMatrix:
        """X_n with kernel(n) @ X_n = c_{n+1}; presents H_n = coker(X_n)."""
        if n not in self._X:
            X = solve_in_lattice(self.kernel(n), self.complex.differential(n + 1))
            if X is None:
                raise IdentityViolation(
                    "boundaries do not lie in the cycle lattice")
            self._X[n] = X
        return self._X[n]

    def torsion_factors(self, n: int) -> tuple:
        return tuple(d for d in self.smith(n + 1).invariant_factors if d != 1)

    def betti(self, n: int) -> int:
        if not (0 <= n <= self.complex.top_degree):
            return 0
        return self.kernel(n).cols - self.smith(n + 1).rank

    def tors_order(self, n: int) -> int:
        return math.prod(self.torsion_factors(n))

    def free_lifts(self, n: int) -> IntMatrix:
        """Integer cycles whose classes form a Z-basis of H_n(C)_f."""
        if n not in self._free_lifts:
            K = self.kernel(n)
            b = self.betti(n)
            if b == 0:
                self._free_lifts[n] = IntMatrix.zeros(self.complex.dim(n), 0)
            else:
                # D spans {y : X^T y = 0}; pairing with D embeds
                # Z^k / sat(im X) into Z^b, and the first b rows of the row
                # Hermite transform of D hand back preimages of the
                # image-lattice basis.
                if self._kernel_is_identity(n):
                    D = self.left_kernel(n + 1)
                else:
                    D = kernel_lattice(self.relations(n).transpose())
                pivots, _, urows = _row_hnf_clean(D.data, transform=True)
                assert len(pivots) == b
                Zt = IntMatrix._raw(b, K.cols, urows[:b])
                self._free_lifts[n] = K @ Zt.transpose()
        return self._free_lifts[n]

    def harmonic(self, n: int) -> IntMatrix:
        """Saturated basis of ker(c_n) cap ker(c_{n+1}^T) = ker(Delta_n)."""
        if n not in self._harmonic:
            if self.betti(n) == 0:
                # b_n is its rank; a wrongly empty lattice still fails the
                # rank check of the Laplacian's Smith form
                self._harmonic[n] = IntMatrix.zeros(self.complex.dim(n), 0)
            elif self._kernel_is_identity(n):
                # K_n is the identity: the harmonic lattice is ker(c_{n+1}^T),
                # already in column Hermite form
                self._harmonic[n] = self.left_kernel(n + 1)
            else:
                K = self.kernel(n)
                M = self.complex.differential(n + 1).transpose() @ K
                self._harmonic[n] = column_hnf(K @ kernel_lattice(M))
        return self._harmonic[n]

    # -- determinants ---------------------------------------------------------

    def fk_differential(self, n: int) -> FKDet:
        if n not in self._fk:
            cn = self.complex.differential(n)
            if not 1 <= n <= self.complex.top_degree or cn.is_zero():
                self._fk[n] = fk_determinant(cn)
            elif _fk_uses_structure(cn, self.rank(n)):
                self._fk[n] = fk_determinant(
                    cn, kernel=self.kernel(n), left_kernel=self.left_kernel(n),
                    smith=self.smith(n))
            else:
                self._fk[n] = fk_determinant(cn, kernel=self.kernel(n))
        return self._fk[n]

    def fk_laplacian(self, n: int) -> FKDet:
        if n not in self._fk_delta:
            delta = laplacian(self.complex, n)
            W = self.harmonic(n)
            if not (delta @ W).is_zero():
                raise IdentityViolation(
                    "harmonic lattice is not annihilated by the Laplacian")
            self._fk_delta[n] = fk_determinant(delta, kernel=W, left_kernel=W)
        return self._fk_delta[n]

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

def homology(C: IntChainComplex, primes: Sequence[int] = ()) -> HomologySummary:
    """Exact homology H_n = ker(c_n)/im(c_{n+1}) for all degrees.

    Betti numbers over F_p follow universal coefficients:
    dim H_n(C; F_p) = b_n + s_p(H_n) + s_p(H_{n-1}).
    """
    an = ChainAnalysis(C)
    return homology_from_analysis(an, primes)


def homology_from_analysis(an: ChainAnalysis,
                           primes: Sequence[int] = ()) -> HomologySummary:
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
    diffs = []
    for n in range(1, top + 1):
        a = C.differential(n) if n <= C.top_degree else IntMatrix.zeros(C.dim(n - 1), 0)
        b = D.differential(n) if n <= D.top_degree else IntMatrix.zeros(D.dim(n - 1), 0)
        shifted = [{a.cols + j: v for j, v in r.items()} for r in b.data]
        diffs.append(IntMatrix._raw(a.rows + b.rows, a.cols + b.cols,
                                    a.data + shifted))
    return IntChainComplex(dims, diffs)
