"""Chain complexes over Z[Z^m] and base change to finite quotients.

Laurent-polynomial matrices represent differentials over the group ring of
G = Z^m.  Base change to the finite quotient G / (N_1 Z x ... x N_m Z)
reduces every entry modulo (x_j^{N_j} - 1) and expands it through the regular
representation of the quotient group, producing an integer chain complex of
rank index * rank.  `QuotientSpec` owns that block layout (free generator i
at rows i * index .. i * index + index - 1): the regular representation, the
norm map N_G, the factors of Laplacian blocks and the deck actions, which
the level builds on first use, through the quotient.

The example library lives here as well: the circle, the Koszul-signed tensor
product of complexes, tori as tensor powers of the circle, and algebraic
mapping tori 0 -> Z[t^+-]^k --(tA-I)--> Z[t^+-]^k -> 0 whose quotient torsion
obeys |tors H_0(C[i])| = |det(A^i - I)|.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import characters
from .chain_complex import ChainAnalysis, IntChainComplex, _per_degree
from .errors import (
    DimensionMismatch,
    IncompatibleAction,
    InvalidComplex,
    NonSquareMatrix,
)
from .exact_linalg import (
    IntMatrix,
    SmithForm,
    _exact_int,
    cokernel_structure,
    column_hnf,
    det_bareiss,
    smith_normal_form,
    solve_in_lattice,
)

__all__ = [
    "LaurentPoly",
    "LaurentChainComplex",
    "QuotientSpec",
    "ModuleWithAction",
    "base_change",
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
                c = _exact_int(c)
                if c:
                    e = tuple(map(_exact_int, e))
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

    def conjugate(self) -> "LaurentPoly":
        """The involution x^e -> x^-e."""
        return LaurentPoly(self.m, {tuple(-a for a in e): c
                                    for e, c in self.terms.items()})

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
    """Finite based free chain complex over Z[Z^m].

    Its level-independent work, `laplacian_components` and
    `gram_char_poly`, is kept per degree in the one dict `_memo`
    (`chain_complex._per_degree`), which every tower level of the complex
    reads and which dies with the complex.
    """

    __slots__ = ("m", "top_degree", "dims", "differentials", "_memo",
                 "__weakref__")

    def __init__(self, m: int, dims: Sequence[int],
                 differentials: Sequence[Sequence[Sequence[LaurentPoly]]]):
        self.m = m
        self.dims = list(map(_exact_int, dims))
        if len(differentials) != len(self.dims) - 1:
            raise InvalidComplex("wrong number of differentials")
        mats: List[List[List[LaurentPoly]]] = []
        for n, mat in enumerate(differentials, start=1):
            rows, cols = self.dims[n - 1], self.dims[n]
            mat = [list(r) for r in mat]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise InvalidComplex(f"differential {n} has wrong shape")
            if any(p.m != m for r in mat for p in r):
                raise InvalidComplex(f"differential {n}: entry arity is not {m}")
            mats.append(mat)
        self.top_degree = len(self.dims) - 1
        self.differentials = mats
        for n in range(1, self.top_degree):
            prod = _poly_matmul(self.differentials[n - 1], self.differentials[n], m)
            if any(not p.is_zero() for row in prod for p in row):
                raise InvalidComplex(f"c_{n} c_{n+1} != 0 over the group ring")
        self._memo: Dict[tuple, object] = {}

    def differential(self, n: int) -> List[List[LaurentPoly]]:
        """c_n : C_n -> C_{n-1}; the zero map outside 1..top_degree, as
        in `IntChainComplex.differential`: no rows at n = 0, dim(top)
        empty rows at top + 1."""
        if 1 <= n <= self.top_degree:
            return self.differentials[n - 1]
        return [[] for _ in range(self.dim(n - 1))]

    def dim(self, n: int) -> int:
        if 0 <= n <= self.top_degree:
            return self.dims[n]
        return 0

    def augmented_complex(self) -> IntChainComplex:
        """Z tensor_{ZG} C: every Laurent entry evaluated at 1."""
        return base_change(self, QuotientSpec((1,) * self.m)).complex

    @_per_degree
    def laplacian_components(self, n: int) -> List[Tuple[List[int], tuple]]:
        """The components of the Laurent Laplacian L_n = D_n* D_n +
        D_(n+1) D_(n+1)*, * the transpose with x -> x^-1, joining i and j
        when L_n[i, j] != 0: each as its sorted indices and its principal
        submatrix in row tuples.  L_n sums v* v over the rows v of D_n and
        the conjugated columns of D_(n+1)."""
        d = self.dim(n)
        D = self.differential(n + 1)
        vectors = list(self.differential(n)) + [
            [row[k].conjugate() for row in D] for k in range(self.dim(n + 1))]
        L = [[LaurentPoly.zero(self.m)] * d for _ in range(d)]
        for v in vectors:
            nonzero = [(i, p) for i, p in enumerate(v) if p.terms]
            for i, p in nonzero:
                for j, q in nonzero:
                    L[i][j] = L[i][j] + p.conjugate() * q
        components, rest = [], list(range(d))
        while rest:
            comp = [rest.pop(0)]
            for i in comp:                 # comp grows as it is walked
                comp += [j for j in rest if L[i][j].terms]
                rest = [j for j in rest if j not in comp]
            comp.sort()
            components.append(
                (comp, tuple(tuple(L[i][j] for j in comp) for i in comp)))
        return components

    @_per_degree
    def gram_char_poly(self, n: int) -> List[Dict[tuple, int]]:
        """The coefficients [1, c_1, ..., c_k] of det(lambda - H) over
        Z[Z^m], H = D_n* D_n or D_n D_n*, the smaller, as term dicts
        (`characters.gram_char_poly`): every character orbit of every
        level evaluates them."""
        return characters.gram_char_poly(self.differential(n), self.m)

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
        moduli = tuple(self.moduli)
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 1
               for n in moduli):
            raise DimensionMismatch(f"moduli must be positive ints, got {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @property
    def m(self) -> int:
        return len(self.moduli)

    @property
    def index(self) -> int:
        return math.prod(self.moduli)

    def regular_generator(self, j: int) -> IntMatrix:
        """The permutation matrix of x_j on Z[Z^m / this quotient], on the
        group elements in the lexicographic order of base change."""
        if not 0 <= j < self.m:
            raise DimensionMismatch(f"generator {j} outside 0..{self.m - 1}")
        return IntMatrix._raw(self.index, self.index, _regular_rows(
            [[LaurentPoly.variable(self.m, j)]], self))

    def deck_actions(self, ranks: Sequence[int]) -> List[List[IntMatrix]]:
        """Per rank r, each `regular_generator(j)` r times down the diagonal."""
        perms = [self.regular_generator(j) for j in range(self.m)]
        return [[IntMatrix.block_diag([P] * r) for P in perms]
                for r in ranks]

    def norm_map(self, M: IntMatrix) -> IntMatrix:
        """N_G M, N_G : e_i -> sum_v e_(i, v): each row of M repeated once
        per group element v, sharing M's row dicts."""
        reps = self.index
        return IntMatrix._raw(M.rows * reps, M.cols,
                              [r for r in M.data for _ in range(reps)])

    def block_factors(self, block: Sequence[Sequence[LaurentPoly]]) -> tuple:
        """The unchained invariant factors of a square Laurent block's base
        change: through the companion matrix (`_cyclic_smith`) where it
        applies, else by the Smith form of the base-changed block."""
        sf = _cyclic_smith(block, self)
        if sf is None:
            size = len(block) * self.index
            sf = smith_normal_form(IntMatrix._raw(
                size, size, _regular_rows(block, self)))
        return sf.invariant_factors


@dataclass
class ModuleWithAction:
    """Finitely generated abelian group with commuting finite-order actions.

    The group is coker(presentation); each action matrix acts on the
    generators and must descend to the quotient, commute pairwise, and have
    the order prescribed by `generator_orders`, all modulo the relations.
    An order that is not an int (bools included) or is below 1 is refused.
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
        if any(isinstance(o, bool) or not isinstance(o, int) or o < 1
               for o in self.generator_orders):
            raise IncompatibleAction(f"generator orders must be positive "
                                     f"ints, got {self.generator_orders}")
        lat = column_hnf(self.presentation)
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
        return IntMatrix.hstack(
            [self.presentation] + [A - one for A in self.acting()[1]], g)


def _maps_into(M: IntMatrix, lattice_hnf: IntMatrix) -> bool:
    """Whether every column of M lies in the given column-Hermite lattice."""
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


def _cyclic_smith(block: Sequence[Sequence[LaurentPoly]],
                  q: QuotientSpec) -> Optional[SmithForm]:
    """The Smith form of the base change to Z[Z/N] of a square block
    M = sum_{lo <= s <= hi} M_s t^s over Z[t^+-1], read off a kd x kd
    matrix, d = hi - lo; None unless m = 1, M != 0 and M_hi has determinant
    +-1.

    With |det M_hi| = 1, Z[t]^k / t^-lo M is Z^(kd), t acting by the block
    companion matrix T of M_hi^-1 t^-lo M (Gohberg, Lancaster and Rodman,
    Matrix Polynomials), and t is a unit of Z[Z/N].  So the base change
    has cokernel Z^(kd) / (T^N - I), and rank kN - (kd - rank(T^N - I)).
    Only M_hi is tested: a Laplacian block is self-adjoint, M_(-s) = M_s^T,
    so its M_lo is a unit exactly when its M_hi is."""
    if q.m != 1:
        return None
    k, N = len(block), q.index
    coeffs: Dict[int, List[List[int]]] = {}
    for i, row in enumerate(block):
        for j, p in enumerate(row):
            for (s,), c in p.terms.items():
                coeffs.setdefault(s, [[0] * k for _ in range(k)])[i][j] = c
    if not coeffs:
        return None
    P = [coeffs.get(s, [[0] * k] * k)
         for s in range(min(coeffs), max(coeffs) + 1)]
    lead, d = P[-1], len(P) - 1
    det = det_bareiss(lead)
    if abs(det) != 1:
        return None
    # lead^-1 = det * adj(lead), from the cofactors
    inv = [[det * (-1) ** (i + j) * det_bareiss(
        [r[:i] + r[i + 1:] for a, r in enumerate(lead) if a != j])
        for j in range(k)] for i in range(k)]
    kd = k * d
    # block s of T's last block column is -lead^-1 P_s; the other block
    # columns shift t^s to t^(s+1)
    T = IntMatrix.from_rows([
        [int(a == b + k) for b in range(kd - k)]
        + [-sum(inv[a % k][x] * P[a // k][x][c] for x in range(k))
           for c in range(k)] for a in range(kd)])
    power, square, e = IntMatrix.identity(kd), T, N
    while e:
        if e & 1:
            power = power @ square
        e >>= 1
        if e:
            square = square @ square
    sf = smith_normal_form(power - IntMatrix.identity(kd))
    tors = tuple(f for f in sf.invariant_factors if f != 1)
    r = k * N - kd + sf.rank
    return SmithForm((1,) * (r - len(tors)) + tors, r)


def base_change(C: LaurentChainComplex, q: QuotientSpec) -> ChainAnalysis:
    """The tower level C[i] = Z[G/G_i] tensor_{ZG} C via the regular
    representation: the `ChainAnalysis` of the base-changed complex, with
    C as its `source` and q as its `quotient`.

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
    return ChainAnalysis(complex_, source=C, quotient=q)


@_per_degree
def quotient_homology_module(level: ChainAnalysis, n: int) -> ModuleWithAction:
    """Homology of a tower level at degree n as a module with action,
    built once per degree."""
    K = level.kernel(n)
    X = level.relations(n)
    acts = []
    for A in level.actions[n]:
        AK = A @ K
        Y = solve_in_lattice(K, AK)
        if Y is None:
            raise IncompatibleAction("deck action does not preserve cycles")
        acts.append(Y)
    return ModuleWithAction(X, acts, list(level.quotient.moduli))


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
