"""Group homology of finite abelian groups and the mu/nu estimate suite.

Resolutions are tensor products of the periodic rank-one resolutions
... -> Z[Z/d] --N--> Z[Z/d] --(t-1)--> Z[Z/d] -> Z, so the rank in degree n
is the number of weak compositions of n into m parts.  A module on which
generator j of order d_j acts by A_j enters only through the per-generator
blocks T_j = A_j - 1 and N_j = 1 + A_j + ... + A_j^(d_j - 1); one builder
writes id_M tensor d_n from them.  With M = ZG and the regular
representation it gives the resolution matrices of `standard_resolution`;
with a presented module it gives the complex of presented abelian groups
whose homology is H_n(G; M).

Group homology, the resolution certificate and the kernels of mu and nu are
all one routine, `_kernel_structure`: ker(N : coker(S) -> coker(R)) =
{v : N v in im R} / im S for a map N of presented abelian groups.

The estimate machinery evaluates the explicit constants C_0, C_1 (and the
derived D_0, D_1) of the minimal-generator bound and checks the kernel and
cokernel inequalities for the comparison maps

    mu : M -> Z tensor_{ZG} M        (coinvariants)
    nu_n : Z tensor_{ZG} H_n(C) -> H_n(Z tensor_{ZG} C)

on tower levels with their deck actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .chain_complex import ChainAnalysis, _per_degree, d_of_abelian_group
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    IdentityViolation,
    IncompatibleAction,
)
from .exact_linalg import (
    IntMatrix,
    _chain_divisibility,
    _exact_int,
    cokernel_structure,
    column_hnf,
    kernel_lattice,
    solve_in_lattice,
)
from .group_ring import (
    ModuleWithAction,
    QuotientSpec,
    quotient_homology_module,
)

__all__ = [
    "FinAbGroup",
    "Resolution",
    "standard_resolution",
    "group_homology",
    "augmentation_filtration",
    "coinvariants",
    "nu_kernel_cokernel",
    "estimate_constants",
    "verify_estimate_bounds",
]


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group as a chained product of cyclic groups.

    factors = (d_1, ..., d_m) with d_1 | d_2 | ... | d_m, each >= 2; the
    empty tuple is the trivial group.  d(G) = m and |G| is the product.
    """
    factors: tuple

    def __post_init__(self):
        f = tuple(self.factors)
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 2
               for d in f):
            raise DimensionMismatch(f"factors must be ints >= 2, got {f}")
        for a, b in zip(f, f[1:]):
            if b % a:
                raise DimensionMismatch("factors must form a divisibility chain")
        object.__setattr__(self, "factors", f)

    @classmethod
    def from_orders(cls, orders: Sequence[int]) -> "FinAbGroup":
        """Chained normalization of an arbitrary cyclic decomposition;
        orders of 1 are dropped, `_exact_int` refuses non-ints and an order
        below 1 raises `DimensionMismatch`."""
        orders = list(map(_exact_int, orders))
        if any(o < 1 for o in orders):
            raise DimensionMismatch(f"orders must be at least 1, got {orders}")
        return cls(tuple(d for d in _chain_divisibility(orders) if d > 1))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def d(self) -> int:
        return len(self.factors)


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------

def _weak_compositions(n: int, m: int) -> list:
    """All m-tuples of nonnegative integers summing to n, lex sorted."""
    if m == 0:
        return [()] if n == 0 else []
    out = []
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, m - 1):
            out.append((first,) + rest)
    out.sort()
    return out


def _generator_blocks(acts: Sequence[IntMatrix],
                      orders: Sequence[int]) -> list:
    """(A - 1, 1 + A + ... + A^(d-1)) for each generator of order d acting
    by A: the images of t - 1 and of the norm element of Z[Z/d]."""
    blocks = []
    for A, d in zip(acts, orders):
        one = IntMatrix.identity(A.rows)
        norm = power = one
        for _ in range(d - 1):
            power = A @ power
            norm = norm + power
        blocks.append((A - one, norm))
    return blocks


def _resolution_differential(blocks: Sequence[tuple], n: int,
                             g: int) -> IntMatrix:
    """id_M tensor d_n of the tensor resolution, on generator level.

    F_n has one free ZG-generator per weak composition c of n into m parts,
    each carrying a copy of M = Z^g.  Coordinate j of c is lowered by
    T_j = A_j - 1 when c_j is odd and by the norm N_j when c_j is even, with
    the Koszul sign (-1)^(c_0 + ... + c_{j-1}); `blocks` holds (T_j, N_j).
    """
    m = len(blocks)
    src = _weak_compositions(n, m)
    dst_pos = {c: i for i, c in enumerate(_weak_compositions(n - 1, m))}
    rows: List[dict] = [{} for _ in range(len(dst_pos) * g)]
    for cj, comp in enumerate(src):
        sign = 1
        for j, (T, N) in enumerate(blocks):
            if comp[j]:
                ri = dst_pos[comp[:j] + (comp[j] - 1,) + comp[j + 1:]]
                B = T if comp[j] % 2 else N
                for a, brow in enumerate(B.data):
                    rows[ri * g + a].update(
                        (cj * g + b, sign * v) for b, v in brow.items())
            if comp[j] % 2:
                sign = -sign
    return IntMatrix._raw(len(rows), len(src) * g, rows)


@dataclass
class Resolution:
    """Free ZG-resolution data expanded to integer matrices.

    `ranks[n]` is the ZG-rank of F_n and `differentials_int[n-1]` the
    regular representation of F_n -> F_{n-1}.
    """
    group: FinAbGroup
    length: int
    ranks: List[int]
    differentials_int: List[IntMatrix]

    def verify_exactness(self) -> None:
        """Certify coker(d_1) = Z and H_n = ker d_n / im d_(n+1) = 0 for
        1 <= n < length; a d_(n+1) that d_n does not kill is refused too."""
        d = self.differentials_int
        if d and cokernel_structure(d[0]) != (1, ()):
            raise IdentityViolation("augmentation cokernel is not Z")
        for n in range(1, self.length):
            none = IntMatrix.zeros(d[n - 1].rows, 0)
            if _kernel_structure(d[n - 1], d[n], none) != (0, ()):
                raise IdentityViolation(f"resolution not exact in degree {n}")


def standard_resolution(G: FinAbGroup, up_to: int) -> Resolution:
    """Tensor resolution of Z over ZG, to the requested degree.

    dim_{ZG}(F_n) equals the number of weak compositions of n into d(G)
    parts, i.e. binom(n + d(G) - 1, d(G) - 1).  The differentials are those
    of `group_homology` with M = ZG, each generator acting by its regular
    representation.
    """
    if up_to < 0:
        raise DimensionMismatch("up_to must be >= 0")
    perms, = QuotientSpec(G.factors).deck_actions([1])   # on ZG itself
    blocks = _generator_blocks(perms, G.factors)
    res = Resolution(
        G, up_to, [len(_weak_compositions(n, G.d)) for n in range(up_to + 1)],
        [_resolution_differential(blocks, n, G.order)
         for n in range(1, up_to + 1)])
    res.verify_exactness()
    return res


# ---------------------------------------------------------------------------
# presented-module homology
# ---------------------------------------------------------------------------

def _quotient_structure(S: IntMatrix, R: IntMatrix) -> tuple:
    """Structure (free rank, factors) of (lattice S)/(sublattice R).

    S is a column-Hermite basis and R a generator matrix in the same ambient
    Z^g; a column of R outside the lattice of S raises IdentityViolation.
    """
    W = solve_in_lattice(S, R)
    if W is None:
        raise IdentityViolation("relations escape the subgroup lattice")
    return cokernel_structure(W)


def _kernel_structure(N: IntMatrix, src_relations: IntMatrix,
                      dst_relations: IntMatrix) -> tuple:
    """Structure of ker(N : coker(src_relations) -> coker(dst_relations)):
    the preimage lattice {v : N v in im(dst_relations)}, cut from
    ker [N | dst_relations], modulo im(src_relations)."""
    S = kernel_lattice(IntMatrix.hstack([N, dst_relations], N.rows))
    if dst_relations.cols:
        S = column_hnf(IntMatrix._raw(N.cols, S.cols, S.data[:N.cols]))
    return _quotient_structure(S, src_relations)


def _order_of(structure: tuple) -> Optional[int]:
    free, facs = structure
    if free:
        return None
    return math.prod(facs)


def group_homology(G: FinAbGroup, M: ModuleWithAction, n: int) -> tuple:
    """H_n(G; M) as (free_rank, invariant_factors).

    M's generator orders above 1, over which the resolution is taken, must
    chain to the factors of G.  It is the kernel of d_n tensor M from
    coker([d_(n+1) tensor M | P_n]) to coker(P_(n-1)), P_k the presentation
    of M repeated once per free generator of F_k.
    """
    orders, acts = M.acting()
    if orders != G.factors \
            and FinAbGroup.from_orders(orders).factors != G.factors:
        raise IncompatibleAction(
            f"module acted on by {M.generator_orders}, group is {G.factors}")
    blocks = _generator_blocks(acts, orders)
    g, P = M.num_generators, M.presentation
    m = len(orders)
    d_n = _resolution_differential(blocks, n, g)
    return _kernel_structure(
        d_n,
        IntMatrix.hstack(
            [_resolution_differential(blocks, n + 1, g),
             IntMatrix.block_diag([P] * len(_weak_compositions(n, m)))],
            d_n.cols),
        IntMatrix.block_diag([P] * len(_weak_compositions(n - 1, m))))


# ---------------------------------------------------------------------------
# filtration, coinvariants, nu
# ---------------------------------------------------------------------------

def augmentation_filtration(M: ModuleWithAction) -> tuple:
    """(is_nilpotent, filtration_length or None) via powers of the
    augmentation ideal: the least r <= 64 with I^r M = 0, if there is one.

    A filtration with trivial quotients of length r exists iff I^r M = 0, and
    the minimal such r is the filtration length.
    """
    g = M.num_generators
    rel = column_hnf(M.presentation)
    _, acts = M.acting()
    L = IntMatrix.identity(g)
    prev_hnf = None
    for step in range(65):
        # I^step M = 0 iff L + rel = rel; both sides are canonical column
        # Hermite forms, so the lattices are equal iff the matrices are
        cur = column_hnf(IntMatrix.hstack([L, rel], g))
        if cur == rel:
            return True, step
        if cur == prev_hnf:
            return False, None
        prev_hnf = cur
        # next power: spanned by (A_j - 1) L, the g x 0 lattice if no A_j
        L = column_hnf(IntMatrix.hstack([(A @ L) - L for A in acts], g))
    return False, None


def coinvariants(M: ModuleWithAction) -> dict:
    """Z tensor_{ZG} M = M / I.M together with ker(mu) = I.M.

    When M is nilpotent of filtration length r, the bounds
    |ker mu| <= |G|^{(r-1) d(G) d(M)} and
    d(M) <= r (d(G)+1)^{r-1} d(Z tensor M) are asserted.
    """
    R = M.coinvariant_relations()
    quot_structure = cokernel_structure(R)
    # ker(mu) = I.M = lattice(R) / lattice(P)
    ker_structure = _quotient_structure(column_hnf(R), M.presentation)
    ker_order = _order_of(ker_structure)

    nilpotent, length = augmentation_filtration(M)
    report = {
        "quotient": quot_structure,
        "ker_mu": ker_structure,
        "ker_mu_order": ker_order,
        "nilpotent": nilpotent,
        "filtration_length": length,
    }
    if nilpotent:
        r = max(1, length)
        group = FinAbGroup.from_orders(M.generator_orders)
        dG, orderG = group.d, group.order
        free_m, facs_m = M.structure()
        dM = d_of_abelian_group(facs_m, free_m)
        d_quot = d_of_abelian_group(quot_structure[1], quot_structure[0])
        if ker_order is None:
            raise IdentityViolation("nilpotent module with infinite ker(mu)")
        bound = orderG ** ((r - 1) * dG * dM)
        if ker_order > bound:
            raise IdentityViolation(
                f"|ker mu| = {ker_order} exceeds bound {bound}")
        if dM > r * (dG + 1) ** (r - 1) * d_quot:
            raise IdentityViolation("d(M) bound of the mu lemma fails")
        report["ker_mu_bound"] = bound
        report["d_bound"] = r * (dG + 1) ** (r - 1) * d_quot
    return report


def _augmentation_map(level: ChainAnalysis, n: int) -> IntMatrix:
    """The augmentation C[i]_n -> (Z tensor C)_n, the sum over group
    coordinates on each free block: epsilon = N_G^T."""
    r = level.source.dim(n)
    return level.quotient.norm_map(IntMatrix.identity(r)).transpose()


@_per_degree
def _homology_map_data(level: ChainAnalysis, n: int):
    """(X, N, X2) for nu / H_n(pr): the relations of H_n(C[i]) and of
    H_n(Z tensor C[i]), read from the level's `lift`, on their cycle
    bases, and the matrix N of the augmentation between those bases,
    checked also when a lattice is empty; built once per degree."""
    K = level.kernel(n)
    X = level.relations(n)
    lift = level.lift
    K2 = lift.kernel(n)
    X2 = lift.relations(n)
    N = solve_in_lattice(K2, _augmentation_map(level, n) @ K)
    if N is None:
        raise IdentityViolation("augmented cycle escapes the cycle lattice")
    return X, N, X2


def nu_kernel_cokernel(level: ChainAnalysis, n: int) -> dict:
    """Kernel and cokernel of nu_n : Z tensor H_n(C) -> H_n(Z tensor C).

    Orders are checked against the universal-coefficient bounds
    |ker| <= prod_p |H_{p+1}(G; H_{n-p}(C))| and
    |coker| <= prod_p |H_p(G; H_{n-p}(C))| whenever those are finite.
    """
    M = quotient_homology_module(level, n)
    _, N, X2 = _homology_map_data(level, n)
    ker_struct, coker_struct = _map_kernel_cokernel(
        N, M.coinvariant_relations(), X2)
    report = {
        "ker": ker_struct,
        "coker": coker_struct,
        "ker_order": _order_of(ker_struct),
        "coker_order": _order_of(coker_struct),
    }
    # bounds, checked only when every group homology order is finite
    ker_bound = coker_bound = 1
    group = FinAbGroup.from_orders(level.quotient.moduli)
    for p in range(1, n + 1):
        Mq = quotient_homology_module(level, n - p)
        op, op1 = (_order_of(group_homology(group, Mq, k)) for k in (p, p + 1))
        if op is None or op1 is None:
            return report
        ker_bound *= op1
        coker_bound *= op
    if report["ker_order"] is None or report["ker_order"] > ker_bound:
        raise IdentityViolation(
            f"|ker nu| = {report['ker_order']} above bound {ker_bound}")
    if report["coker_order"] is None or report["coker_order"] > coker_bound:
        raise IdentityViolation(
            f"|coker nu| = {report['coker_order']} above bound {coker_bound}")
    report["ker_bound"] = ker_bound
    report["coker_bound"] = coker_bound
    return report


def _map_kernel_cokernel(N: IntMatrix, src_relations: IntMatrix,
                         dst_relations: IntMatrix) -> tuple:
    """Kernel and cokernel structures of a map of presented abelian groups."""
    return (_kernel_structure(N, src_relations, dst_relations),
            cokernel_structure(IntMatrix.hstack([N, dst_relations], N.rows)))


# ---------------------------------------------------------------------------
# estimate constants and the bound verifier
# ---------------------------------------------------------------------------

def estimate_constants(r: int, n: int, p: int) -> tuple:
    """Exact (C0, C1, D0, D1) at (r, n, p) from the proof's recursions.

    Base case C_0(r,n,n) = r 2^{r-1}, C_1(r,n,n) = r-1; below the diagonal
    C_0(r,n,p) = sum_{i=p}^{n-1} r 2^r n^{n+1} C_0(r,i,p) and
    C_1(r,n,p) = n + r + max_i C_1(r,i,p).  D_0, D_1 dominate both displayed
    kernel/cokernel estimates:
    D_0 = (r-1) C_0(r,n,p) + sum_{i=1}^{n-p} n^{n+1} C_0(r,n-i,p),
    D_1 = max(1 + C_1(r,n,p), n + 1 + max_{i=1..n-p} C_1(r,n-i,p)).
    """
    if r < 1:
        raise DimensionMismatch("r must be >= 1")
    if not (0 <= p <= n):
        raise DimensionMismatch("need 0 <= p <= n")
    C0: Dict[tuple, int] = {}
    C1: Dict[tuple, int] = {}
    for nn in range(n + 1):
        for pp in range(nn, -1, -1):
            if pp == nn:
                C0[(nn, pp)] = r * 2 ** (r - 1)
                C1[(nn, pp)] = r - 1
            else:
                C0[(nn, pp)] = sum(r * 2 ** r * nn ** (nn + 1) * C0[(i, pp)]
                                   for i in range(pp, nn))
                C1[(nn, pp)] = nn + r + max(C1[(i, pp)]
                                            for i in range(pp, nn))
    c0, c1 = C0[(n, p)], C1[(n, p)]
    d0 = (r - 1) * c0 + sum(n ** (n + 1) * C0[(n - i, p)]
                            for i in range(1, n - p + 1))
    tail = [C1[(n - i, p)] for i in range(1, n - p + 1)]
    d1 = max([1 + c1] + ([n + 1 + max(tail)] if tail else []))
    return c0, c1, d0, d1


def verify_estimate_bounds(level: ChainAnalysis, r: int, d: int) -> dict:
    """Check the d(H_n) and ln|ker/coker H_n(pr)| estimates for n <= d.

    Requires every H_n(C[i]) for n <= d to be nilpotent of filtration length
    at most r over the deck action; raises HypothesisViolated otherwise.
    """
    group = FinAbGroup.from_orders(level.quotient.moduli)
    dG = group.d
    lnG = math.log(group.order) if group.order > 1 else 0.0
    aug_an = level.lift
    d_aug = [d_of_abelian_group(aug_an.torsion_factors(p), aug_an.betti(p))
             for p in range(d + 1)]
    rows = []
    for n in range(d + 1):
        M = quotient_homology_module(level, n)
        nil, length = augmentation_filtration(M)
        if not nil or (length or 0) > r:
            raise HypothesisViolated(
                f"H_{n} not nilpotent of length <= {r} (got {length})")
        free_m, facs_m = M.structure()
        d_hn = d_of_abelian_group(facs_m, free_m)
        consts = [estimate_constants(r, n, p) for p in range(n + 1)]
        bound_d = sum(c0 * dG ** c1 * d_aug[p]
                      for p, (c0, c1, _, _) in enumerate(consts))
        if d_hn > bound_d:
            raise IdentityViolation(
                f"d(H_{n}) = {d_hn} exceeds estimate {bound_d}")
        # kernel / cokernel of H_n(pr)
        X, N, X2 = _homology_map_data(level, n)
        ker_s, coker_s = _map_kernel_cokernel(N, X, X2)
        ker_o, coker_o = _order_of(ker_s), _order_of(coker_s)
        if ker_o is None or coker_o is None:
            raise IdentityViolation("H_n(pr) has infinite kernel or cokernel")
        bound_ln = sum(d0 * lnG * dG ** d1 * d_aug[p]
                       for p, (_, _, d0, d1) in enumerate(consts))
        tol = 1e-9
        if math.log(ker_o) > bound_ln + tol or math.log(coker_o) > bound_ln + tol:
            raise IdentityViolation(
                f"ln|ker/coker H_{n}(pr)| exceeds estimate {bound_ln}")
        rows.append({
            "degree": n,
            "d_hn": d_hn,
            "d_bound": bound_d,
            "ker_order": ker_o,
            "coker_order": coker_o,
            "ln_bound": bound_ln,
            "filtration_length": length,
        })
    return {"degrees": rows, "group": group}
