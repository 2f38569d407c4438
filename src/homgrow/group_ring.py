"""Chain complexes over Z[Z^m] and base change to finite quotients.

Laurent-polynomial matrices represent differentials over the group ring of
G = Z^m.  Base change to the finite quotient G / (N_1 Z x ... x N_m Z)
reduces every entry modulo (x_j^{N_j} - 1) and expands it through the regular
representation of the quotient group, producing an integer chain complex of
rank index * rank together with the permutation action of each generator on
every chain level.

The example library lives here as well: the circle, the Koszul-signed tensor
product of complexes, tori as tensor powers of the circle, and algebraic
mapping tori 0 -> Z[t^+-]^k --(tA-I)--> Z[t^+-]^k -> 0 whose quotient torsion
obeys |tors H_0(C[i])| = |det(A^i - I)|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence

from .chain_complex import ChainAnalysis, IntChainComplex
from .errors import (
    DimensionMismatch,
    IncompatibleAction,
    InvalidComplex,
    NonSquareMatrix,
)
from .exact_linalg import (
    IntMatrix,
    cokernel_structure,
    column_hnf,
    det_bareiss,
    solve_in_lattice,
)

__all__ = [
    "LaurentPoly",
    "LaurentChainComplex",
    "QuotientSpec",
    "QuotientComplex",
    "ModuleWithAction",
    "base_change",
    "homology_with_action",
    "operator_norm_bound",
    "circle_complex",
    "tensor",
    "torus_complex",
    "mapping_torus_complex",
]


class LaurentPoly:
    """Element of Z[x_1^{+-1}, ..., x_m^{+-1}]: exponent tuple -> coefficient.

    Zero coefficients are never stored; terms are kept in a dict and compared
    canonically.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Optional[Dict[tuple, int]] = None):
        self.m = m
        clean = {}
        if terms:
            for e, c in terms.items():
                c = int(c)
                if c:
                    e = tuple(int(x) for x in e)
                    if len(e) != m:
                        raise DimensionMismatch("exponent arity mismatch")
                    clean[e] = clean.get(e, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, m: int) -> "LaurentPoly":
        return cls(m, {})

    @classmethod
    def const(cls, m: int, c: int) -> "LaurentPoly":
        return cls(m, {(0,) * m: c})

    @classmethod
    def variable(cls, m: int, j: int) -> "LaurentPoly":
        e = [0] * m
        e[j] = 1
        return cls(m, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentPoly(self.m, t)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        t: Dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return LaurentPoly(self.m, t)

    def coeff_abs_sum(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.m == other.m
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{j}^{k}" for j, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class LaurentChainComplex:
    """Finite based free chain complex over Z[Z^m]."""

    __slots__ = ("m", "top_degree", "dims", "differentials")

    def __init__(self, m: int, dims: Sequence[int],
                 differentials: Sequence[Sequence[Sequence[LaurentPoly]]]):
        self.m = m
        self.dims = list(int(d) for d in dims)
        if len(differentials) != len(self.dims) - 1:
            raise InvalidComplex("wrong number of differentials")
        mats: List[List[List[LaurentPoly]]] = []
        for n, mat in enumerate(differentials, start=1):
            rows, cols = self.dims[n - 1], self.dims[n]
            mat = [list(r) for r in mat]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise InvalidComplex(f"differential {n} has wrong shape",
                                     degree=n)
            mats.append(mat)
        self.top_degree = len(self.dims) - 1
        self.differentials = mats
        for n in range(1, self.top_degree):
            prod = _poly_matmul(self.differentials[n - 1], self.differentials[n], m)
            if any(not p.is_zero() for row in prod for p in row):
                raise InvalidComplex(f"c_{n} c_{n+1} != 0 over the group ring",
                                     degree=n)

    def differential(self, n: int) -> List[List[LaurentPoly]]:
        return self.differentials[n - 1]

    def dim(self, n: int) -> int:
        if 0 <= n <= self.top_degree:
            return self.dims[n]
        return 0

    def __repr__(self):
        return f"LaurentChainComplex(m={self.m}, dims={self.dims})"


def _poly_matmul(A, B, m):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = [[LaurentPoly.zero(m) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            p = A[i][k]
            if p.is_zero():
                continue
            for j in range(cols):
                q = B[k][j]
                if not q.is_zero():
                    out[i][j] = out[i][j] + p * q
    return out


@dataclass(frozen=True)
class QuotientSpec:
    """Finite quotient of Z^m by N_1 Z x ... x N_m Z.

    m = 0 is allowed: `QuotientSpec(())` is the trivial group Z^0, of index
    1, and `base_change` reads an m = 0 complex through it unchanged.
    """
    moduli: tuple

    def __post_init__(self):
        if any(n < 1 for n in self.moduli):
            raise DimensionMismatch("moduli must be positive")
        object.__setattr__(self, "moduli", tuple(int(n) for n in self.moduli))

    @property
    def m(self) -> int:
        return len(self.moduli)

    @property
    def index(self) -> int:
        return math.prod(self.moduli)


@dataclass
class QuotientComplex:
    """Base-changed complex with the deck action of each group generator.

    `analysis`, `augmented` and `actions` are built on first access,
    `modules` by `quotient_homology_module` and `homology_maps` by the
    comparison maps of `finite_homology`; all are shared by every caller that
    reads the same quotient complex.
    """
    complex: IntChainComplex
    quotient: QuotientSpec
    source: LaurentChainComplex
    modules: Dict[int, ModuleWithAction] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    homology_maps: Dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def analysis(self) -> ChainAnalysis:
        """The `ChainAnalysis` of `complex`."""
        return ChainAnalysis(self.complex)

    @cached_property
    def augmented(self) -> ChainAnalysis:
        """The analysis of Z tensor_{Z[G/G_i]} C[i]: every Laurent entry
        evaluated at 1."""
        trivial = QuotientSpec((1,) * self.quotient.m)
        return ChainAnalysis(base_change(self.source, trivial).complex)

    @cached_property
    def actions(self) -> List[List[IntMatrix]]:
        """Per degree, the permutation matrix of each generator x_j of G/G_i:
        the regular representation of x_j times the identity.

        Built on first access: only homology with action reads them.  Each
        generator is expanded once at the largest rank; a degree of rank r
        takes the first r blocks of rows.
        """
        q, m, n_g = self.quotient, self.quotient.m, self.quotient.index
        dims = self.source.dims
        top = max(dims, default=0)
        zero = LaurentPoly.zero(m)
        out: List[List[IntMatrix]] = [[] for _ in dims]
        for j in range(m):
            x_j = [[LaurentPoly.variable(m, j) if a == b else zero
                    for b in range(top)] for a in range(top)]
            rows = _regular_rows(x_j, q)
            for level, r in zip(out, dims):
                level.append(IntMatrix._raw(
                    r * n_g, r * n_g, [dict(row) for row in rows[:r * n_g]]))
        return out


@dataclass
class ModuleWithAction:
    """Finitely generated abelian group with commuting finite-order actions.

    The group is coker(presentation); each action matrix acts on the
    generators and must descend to the quotient, commute pairwise, and have
    the order prescribed by `generator_orders`, all modulo the relations.
    """
    presentation: IntMatrix            # generators x relations
    generators_action: List[IntMatrix]
    generator_orders: List[int]

    def __post_init__(self):
        g = self.presentation.rows
        for A in self.generators_action:
            if A.shape != (g, g):
                raise IncompatibleAction("action matrix has wrong shape")
        if len(self.generator_orders) != len(self.generators_action):
            raise IncompatibleAction("one order per acting generator required")
        lat = self._relation_lattice()
        for A in self.generators_action:
            if not _maps_into(A @ self.presentation, lat):
                raise IncompatibleAction("action does not preserve relations")
        for A, B in itertools.combinations(self.generators_action, 2):
            if not _maps_into((A @ B) - (B @ A), lat):
                raise IncompatibleAction("actions do not commute mod relations")
        for A, order in zip(self.generators_action, self.generator_orders):
            P = IntMatrix.identity(g)
            for _ in range(order):
                P = A @ P
            if not _maps_into(P - IntMatrix.identity(g), lat):
                raise IncompatibleAction(
                    f"action does not have order dividing {order}")

    def _relation_lattice(self) -> Optional[IntMatrix]:
        if self.presentation.cols == 0:
            return None
        return column_hnf(self.presentation)

    @property
    def num_generators(self) -> int:
        return self.presentation.rows

    def structure(self) -> tuple:
        """(free_rank, chained nonunit invariant factors) of the group."""
        return cokernel_structure(self.presentation)

    def acting(self) -> tuple:
        """(orders, matrices) of the generators of order above 1; a
        generator of order 1 acts trivially and is left out."""
        pairs = [(o, A) for A, o in zip(self.generators_action,
                                         self.generator_orders) if o > 1]
        return tuple(o for o, _ in pairs), [A for _, A in pairs]

    def coinvariant_relations(self) -> IntMatrix:
        """[P | A_j - 1] over the acting generators: the relations of the
        coinvariants Z tensor_{ZG} M = M / I.M on M's generators."""
        g = self.num_generators
        one = IntMatrix.identity(g)
        return _hcat([self.presentation] + [A - one for A in self.acting()[1]],
                     g)


def _hcat(pieces: Sequence[IntMatrix], rows: int) -> IntMatrix:
    """The columns of all pieces side by side; rows x 0 if none has any.

    Pieces without columns are skipped and a single piece comes back as is.
    Chained `hstack` beats a one-pass copy here: most calls join two pieces
    of a few rows, where the per-call cost dominates.
    """
    pieces = [P for P in pieces if P.cols]
    if not pieces:
        return IntMatrix.zeros(rows, 0)
    out = pieces[0]
    for P in pieces[1:]:
        out = IntMatrix.hstack(out, P)
    return out


def _maps_into(M: IntMatrix, lattice_hnf: Optional[IntMatrix]) -> bool:
    """Whether every column of M lies in the given column-Hermite lattice."""
    if M.is_zero():
        return True
    if lattice_hnf is None or lattice_hnf.cols == 0:
        return False
    return solve_in_lattice(lattice_hnf, M) is not None


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------

def _regular_rows(mat: Sequence[Sequence[LaurentPoly]],
                  q: QuotientSpec) -> List[Dict[int, int]]:
    """Row dicts of the regular representation of a matrix over Z[Z^m].

    Entry (i, j) fills the block at rows i * index, columns j * index, with
    the group elements in lexicographic order; cancelled terms store no 0.
    A term x^e sends the element at position v to the one at position
    shift[v], read off per coordinate from the lexicographic strides.
    """
    mod = q.moduli
    n_g = q.index
    strides = [math.prod(mod[k + 1:]) for k in range(len(mod))]
    rows: List[Dict[int, int]] = [{} for _ in range(len(mat) * n_g)]
    for i, mrow in enumerate(mat):
        for j, poly in enumerate(mrow):
            for e, c in poly.terms.items():
                shift = map(sum, itertools.product(
                    *[[(x + a) % N * s for x in range(N)]
                      for a, N, s in zip(e, mod, strides)]))
                for vpos, t in enumerate(shift):
                    row = rows[i * n_g + t]
                    col = j * n_g + vpos
                    w = row.get(col, 0) + c
                    if w:
                        row[col] = w
                    else:
                        del row[col]
    return rows


def base_change(C: LaurentChainComplex, q: QuotientSpec) -> QuotientComplex:
    """C[i] = Z[G/G_i] tensor_{ZG} C via the regular representation.

    Output dims are index * input dims; the composite of consecutive
    differentials is re-verified; the action matrices of the group generators
    on every chain level are built on first access to `actions`.
    """
    if q.m != C.m:
        raise DimensionMismatch("quotient arity differs from complex arity")
    dims = [d * q.index for d in C.dims]
    diffs = [IntMatrix._raw(dims[n - 1], dims[n],
                            _regular_rows(C.differential(n), q))
             for n in range(1, C.top_degree + 1)]
    complex_ = IntChainComplex(dims, diffs)   # re-checks boundary composition
    return QuotientComplex(complex_, q, C)


def homology_with_action(C: LaurentChainComplex, q: QuotientSpec,
                         n: int) -> ModuleWithAction:
    """H_n(C[i]) with the induced action of each generator of G/G_i."""
    qc = base_change(C, q)
    return quotient_homology_module(qc, n)


def quotient_homology_module(qc: QuotientComplex, n: int) -> ModuleWithAction:
    """Homology of a quotient complex at degree n as a module with action,
    built once per degree and kept in `qc.modules`."""
    M = qc.modules.get(n)
    if M is not None:
        return M
    an = qc.analysis
    K = an.kernel(n)
    X = an.relations(n)
    acts = []
    for A in qc.actions[n]:
        AK = A @ K
        Y = solve_in_lattice(K, AK) if K.cols else IntMatrix.zeros(0, 0)
        if Y is None:
            raise IncompatibleAction("deck action does not preserve cycles")
        acts.append(Y)
    M = qc.modules[n] = ModuleWithAction(X, acts, list(qc.quotient.moduli))
    return M


def operator_norm_bound(D: Sequence[Sequence[LaurentPoly]]) -> float:
    """Uniform l2-operator-norm bound for every base change of D.

    Each group element acts unitarily, so the sum over all entries of the
    l1-norms of their coefficients dominates the operator norm.  This is an
    upper bound, not the norm itself.
    """
    total = 0
    for row in D:
        for p in row:
            total += p.coeff_abs_sum()
    return float(total)


# ---------------------------------------------------------------------------
# example library
# ---------------------------------------------------------------------------

def circle_complex() -> LaurentChainComplex:
    """0 -> ZG --(t-1)--> ZG -> 0 over G = Z."""
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.const(1, 1)
    return LaurentChainComplex(1, [1, 1], [[[t - one]]])


def tensor(C: LaurentChainComplex,
           D: LaurentChainComplex) -> LaurentChainComplex:
    """C tensor D over Z[Z^(m+k)] for C over Z[Z^m] and D over Z[Z^k], C's
    variables first, with Koszul signs: d(x@y) = dx@y + (-1)^|x| x@dy.

    Degree n lays out the blocks C_p @ D_(n-p) by descending p, with x @ y at
    x * dim D_(n-p) + y inside its block; so a right fold of circles gives
    the Koszul complex on its lexicographic subset basis.
    """
    mk = C.m + D.m
    pad_c, pad_d = (0,) * D.m, (0,) * C.m
    zero = LaurentPoly.zero(mk)
    top = C.top_degree + D.top_degree
    offsets: List[Dict[int, int]] = []   # per degree: p -> block offset
    dims = []
    for n in range(top + 1):
        ps = range(min(n, C.top_degree), max(0, n - D.top_degree) - 1, -1)
        sizes = [C.dim(p) * D.dim(n - p) for p in ps]
        offsets.append(dict(zip(ps, itertools.accumulate(sizes, initial=0))))
        dims.append(sum(sizes))
    diffs = []
    for n in range(1, top + 1):
        rows = [[zero] * dims[n] for _ in range(dims[n - 1])]
        for p, coff in offsets[n].items():
            q = n - p
            cp, dq = C.dim(p), D.dim(q)
            if p >= 1:                     # dx @ y lands in (p - 1, q)
                roff = offsets[n - 1][p - 1]
                for a, crow in enumerate(C.differential(p)):
                    for b, poly in enumerate(crow):
                        if poly.is_zero():
                            continue
                        lifted = LaurentPoly(mk, {e + pad_c: c for e, c
                                                  in poly.terms.items()})
                        for y in range(dq):
                            rows[roff + a * dq + y][coff + b * dq + y] = lifted
            if q >= 1:                     # (-1)^p x @ dy lands in (p, q - 1)
                roff = offsets[n - 1][p]
                dq1 = D.dim(q - 1)
                sgn = -1 if p % 2 else 1
                for a, drow in enumerate(D.differential(q)):
                    for b, poly in enumerate(drow):
                        if poly.is_zero():
                            continue
                        lifted = LaurentPoly(mk, {pad_d + e: sgn * c for e, c
                                                  in poly.terms.items()})
                        for x in range(cp):
                            rows[roff + x * dq1 + a][coff + x * dq + b] = lifted
        diffs.append(rows)
    return LaurentChainComplex(mk, dims, diffs)


def torus_complex(m: int) -> LaurentChainComplex:
    """Koszul complex on (x_1 - 1, ..., x_m - 1), the m-th tensor power of
    the circle; dims are binomials."""
    if m < 1:
        raise DimensionMismatch("torus_complex needs m >= 1")
    T = circle_complex()
    for _ in range(m - 1):
        T = tensor(circle_complex(), T)
    return T


def mapping_torus_complex(A: IntMatrix) -> LaurentChainComplex:
    """0 -> Z[t^+-]^k --(tA - I)--> Z[t^+-]^k -> 0 for square nonsingular A.

    Base change to Z/i gives |tors H_0| = |det(A^i - I)| whenever that
    determinant is nonzero.
    """
    if A.rows != A.cols:
        raise NonSquareMatrix("mapping torus needs a square matrix")
    if det_bareiss(A.to_lists()) == 0:
        raise NonSquareMatrix("mapping torus needs det(A) != 0")
    k = A.rows
    mat = [[LaurentPoly(1, {(1,): A[i, j], (0,): -(1 if i == j else 0)})
            for j in range(k)] for i in range(k)]
    return LaurentChainComplex(1, [k, k], [mat])
