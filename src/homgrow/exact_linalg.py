"""Exact integer and rational linear algebra kernels.

Everything here is arbitrary precision: Smith normal form, Hermite forms,
saturated kernel lattices, cokernel structure, Gram determinants, and exact
Fuglede-Kadison determinants over the trivial group.  Floating point appears
only when a natural logarithm of an exact value is finally requested.

`IntMatrix` has one storage: a dict per row, {column: nonzero int}.  A
base-changed differential has index x rank rows with only a few nonzeros
each, so memory, transposes, sums and products follow the nonzeros, and the
kernels work on the row dicts (or those of the transpose) directly.  No row
dict stores a 0, and row dicts may be shared between matrices but are never
mutated: a kernel copies a row before it works on it in place.  Dense lists
appear only at the list constructors and `to_lists`, in the determinants and
the minor-sum oracle.  There is one Smith form, the sparse heap-pivot
elimination; it returns invariant factors, not transforms.

The Fuglede-Kadison determinant of an integer matrix A is the product of its
nonzero singular values.  Its square is an integer: the sum of the squares of
all maximal-rank minors (Cauchy-Binet).  `fk_determinant` evaluates it by one
of two factorizations, whichever does less dense work for the rank r of A:

  * image lattice, det(J^T J) * det(S S^T) where A = J S with J a basis of the
    column lattice: two r x r Gram determinants;
  * structure, kernel Gram x |tors coker A|^2 x cokernel-projection Gram:
    Gram determinants whose sizes are the coranks cols - r and rows - r.

The literal Cauchy-Binet minor sum is kept as an independent oracle: the
test suite compares all three, and `fk_factorization_check` compares the
minor sum (or, past its work budget, the image-lattice route) with the
structure factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd
from typing import Optional, Sequence

from .errors import DimensionMismatch, IdentityViolation

__all__ = [
    "IntMatrix",
    "SmithForm",
    "FKDet",
    "smith_normal_form",
    "kernel_lattice",
    "cokernel_structure",
    "fk_determinant",
    "fk_factorization_check",
    "column_hnf",
    "solve_in_lattice",
    "det_bareiss",
    "ln_of_fraction",
]


# ---------------------------------------------------------------------------
# IntMatrix
# ---------------------------------------------------------------------------

class IntMatrix:
    """Sparse arbitrary-precision integer matrix, immutable.

    The only storage is `data`, one dict per row mapping a column index to
    a nonzero int, so memory and the O(nnz) operations (transpose, +, -, @,
    hstack) follow the nonzeros, not rows * cols.  Two rules hold:

      * no row dict ever stores a 0;
      * row dicts may be shared between matrices and are never mutated, so a
        kernel copies a row with dict(r) before it works on it in place.

    Empty matrices (0 rows and/or 0 columns) are legal and represent zero
    modules and empty maps.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        entries = [int(x) for x in entries]
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        dense = [entries[i * cols:(i + 1) * cols] for i in range(rows)]
        self.data = [{j: v for j, v in enumerate(r) if v} for r in dense]

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, rows: int, cols: int, data: list) -> "IntMatrix":
        """Wrap a list of row dicts that already obeys the storage rules."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat = []
        for r in data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(rows, cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        return cls._raw(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._raw(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: Optional[int] = None,
                 cols: Optional[int] = None) -> "IntMatrix":
        k = len(diag)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        e = [0] * (rows * cols)
        for i, d in enumerate(diag):
            e[i * cols + i] = int(d)
        return cls(rows, cols, e)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        ncols = len(columns)
        e = [0] * (nrows * ncols)
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise DimensionMismatch("column of wrong length")
            for i, v in enumerate(col):
                e[i * ncols + j] = int(v)
        return cls(nrows, ncols, e)

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range")
        return self.data[i].get(j, 0)

    def row(self, i: int) -> tuple:
        r = self.data[i]
        return tuple(r.get(j, 0) for j in range(self.cols))

    def column(self, j: int) -> tuple:
        return tuple(r.get(j, 0) for r in self.data)

    def to_lists(self) -> list:
        out = []
        for r in self.data:
            row = [0] * self.cols
            for j, v in r.items():
                row[j] = v
            out.append(row)
        return out

    def is_zero(self) -> bool:
        return not any(self.data)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def nnz(self) -> int:
        return sum(map(len, self.data))

    # -- arithmetic -----------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                out[j][i] = v
        return IntMatrix._raw(self.cols, self.rows, out)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def _combine(self, other: "IntMatrix", q: int) -> "IntMatrix":
        """self + q * other for q = +-1, sharing rows left unchanged."""
        if self.shape != other.shape:
            raise DimensionMismatch(
                "shape mismatch in " + ("+" if q > 0 else "-"))
        out = []
        for a, b in zip(self.data, other.data):
            if b:
                a = dict(a)
                _row_axpy(a, b, q)
            out.append(a)
        return IntMatrix._raw(self.rows, self.cols, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, -1)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        b = other.data
        out = []
        for r in self.data:
            acc: dict = {}
            for t, v in r.items():
                _row_axpy(acc, b[t], v)
            out.append(acc)
        return IntMatrix._raw(self.rows, other.cols, out)

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._raw(self.rows, self.cols,
                              [{j: c * v for j, v in r.items()}
                               for r in self.data])

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.data)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    # -- block helpers ---------------------------------------------------------

    @staticmethod
    def hstack(left: "IntMatrix", right: "IntMatrix") -> "IntMatrix":
        if left.rows != right.rows:
            raise DimensionMismatch("hstack row mismatch")
        off = left.cols
        out = []
        for a, b in zip(left.data, right.data):
            if b:
                a = dict(a)
                for j, v in b.items():
                    a[off + j] = v
            out.append(a)
        return IntMatrix._raw(left.rows, left.cols + right.cols, out)


# ---------------------------------------------------------------------------
# Sparse row machinery (private).  Kernels read IntMatrix.data, the only
# storage, or the .data of a transpose when they need columns.  Rows hold no
# 0 and may be shared, so a kernel copies a row with dict(r) before it
# changes it in place.
# ---------------------------------------------------------------------------

def _row_axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src, in place, dropping zeros."""
    if q == 0:
        return
    if q == 1:
        for j, v in src.items():
            w = dst.get(j, 0) + v
            if w:
                dst[j] = w
            else:
                del dst[j]
    elif q == -1:
        for j, v in src.items():
            w = dst.get(j, 0) - v
            if w:
                dst[j] = w
            else:
                del dst[j]
    else:
        for j, v in src.items():
            w = dst.get(j, 0) + q * v
            if w:
                dst[j] = w
            else:
                del dst[j]


def _symmetric_quotient(b: int, a: int) -> int:
    """Quotient q minimizing |b - q*a| for a > 0."""
    q, r = divmod(b, a)
    if 2 * r > a:
        q += 1
    return q


def _xgcd(a: int, b: int):
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _row_hnf_clean(rows: list, ncols: int, transform: bool = False,
                   reduce_off_pivots: bool = True):
    """Sparse row Hermite normal form.

    Returns (pivots, hrows, urows): `pivots` is the ordered list of
    (pivot_col, work_index), `hrows` the reduced nonzero rows in pivot order,
    and `urows` (when transform=True) the rows of a unimodular U with
    U @ input = output, the rows producing zero output rows (kernel rows)
    appended after the pivot rows.
    """
    work = [dict(r) for r in rows]
    n = len(work)
    urows = [{i: 1} for i in range(n)] if transform else None
    active = list(range(n))
    pivots = []
    for col in range(ncols):
        cand = [i for i in active if col in work[i]]
        if not cand:
            continue
        while len(cand) > 1:
            cand.sort(key=lambda i: (abs(work[i][col]), len(work[i]), i))
            i0 = cand[0]
            if work[i0][col] < 0:
                work[i0] = {j: -v for j, v in work[i0].items()}
                if transform:
                    urows[i0] = {j: -v for j, v in urows[i0].items()}
            a = work[i0][col]
            progressed = False
            nxt = [i0]
            for i in cand[1:]:
                b = work[i].get(col, 0)
                if not b:
                    progressed = True
                    continue
                q = _symmetric_quotient(b, a)
                if q:
                    _row_axpy(work[i], work[i0], -q)
                    if transform:
                        _row_axpy(urows[i], urows[i0], -q)
                if col in work[i]:
                    if abs(work[i][col]) < a:
                        progressed = True
                    nxt.append(i)
                else:
                    progressed = True
            cand = nxt
            if not progressed and len(cand) > 1:
                # b was an exact multiple everywhere yet entries remain: means
                # q == 0 cases with |b| < |a| cannot happen here; force Bezout.
                i1 = cand[1]
                a, b = work[i0][col], work[i1][col]
                g, u, v = _xgcd(a, b)
                r0, r1 = work[i0], work[i1]
                new0: dict = {}
                _row_axpy(new0, r0, u)
                _row_axpy(new0, r1, v)
                new1: dict = {}
                _row_axpy(new1, r1, a // g)
                _row_axpy(new1, r0, -(b // g))
                work[i0], work[i1] = new0, new1
                if transform:
                    u0, u1 = urows[i0], urows[i1]
                    nu0: dict = {}
                    _row_axpy(nu0, u0, u)
                    _row_axpy(nu0, u1, v)
                    nu1: dict = {}
                    _row_axpy(nu1, u1, a // g)
                    _row_axpy(nu1, u0, -(b // g))
                    urows[i0], urows[i1] = nu0, nu1
                cand = [i for i in cand if col in work[i]]
        piv = cand[0]
        if work[piv][col] < 0:
            work[piv] = {j: -v for j, v in work[piv].items()}
            if transform:
                urows[piv] = {j: -v for j, v in urows[piv].items()}
        pivots.append((col, piv))
        active.remove(piv)
    if reduce_off_pivots:
        for idx, (col, piv) in enumerate(pivots):
            p = work[piv][col]
            for col2, piv2 in pivots[:idx] + pivots[idx + 1:]:
                v = work[piv2].get(col, 0)
                if v:
                    q = v // p
                    if q:
                        _row_axpy(work[piv2], work[piv], -q)
                        if transform:
                            _row_axpy(urows[piv2], urows[piv], -q)
    hrows = [work[piv] for _, piv in pivots]
    if transform:
        ukeep = [urows[piv] for _, piv in pivots]
        ukeep += [urows[i] for i in active]
        return pivots, hrows, ukeep
    return pivots, hrows, None


def column_hnf(A: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of A, as columns in Hermite form.

    Columns are returned with strictly increasing pivot rows; the result has
    full column rank equal to rank(A).
    """
    _, hrows, _ = _row_hnf_clean(A.transpose().data, A.rows)
    return IntMatrix._raw(len(hrows), A.rows, hrows).transpose()


def _is_identity(M: IntMatrix) -> bool:
    return M.rows == M.cols and all(
        len(r) == 1 and r.get(i) == 1 for i, r in enumerate(M.data))


def kernel_lattice(A: IntMatrix) -> IntMatrix:
    """Z-basis of ker(A) as a saturated sublattice, columns in Hermite form."""
    if A.rows == 0 or A.is_zero():
        return IntMatrix.identity(A.cols)
    pivots, _, urows = _row_hnf_clean(A.transpose().data, A.rows,
                                      transform=True, reduce_off_pivots=False)
    nker = A.cols - len(pivots)
    kvecs = urows[len(pivots):]
    assert len(kvecs) == nker
    if nker == 0:
        return IntMatrix.zeros(A.cols, 0)
    K = IntMatrix._raw(nker, A.cols, kvecs)   # rows are kernel vectors
    # canonicalize: column HNF of the basis matrix (kernel vectors as columns)
    return column_hnf(K.transpose())


def solve_in_lattice(B: IntMatrix, C: IntMatrix) -> Optional[IntMatrix]:
    """Solve B @ X = C over the integers, for B a column-Hermite lattice basis.

    Returns X with shape (B.cols, C.cols) or None when some column of C lies
    outside the lattice spanned by the columns of B.
    """
    if B.rows != C.rows:
        raise DimensionMismatch("solve_in_lattice shape mismatch")
    if _is_identity(B):
        return C
    bcols = B.transpose().data
    piv = [min(col) for col in bcols]      # pivot row of each Hermite column
    out = []                               # rows of X^T
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
                _row_axpy(resid, bcol, -q)
        if resid:
            return None
        out.append(y)
    return IntMatrix._raw(C.cols, B.cols, out).transpose()


def _colhnf_with_transform(A: IntMatrix):
    """Column HNF with transform: returns (H, V) with A @ V = [H | 0].

    V is unimodular of size A.cols; H has rank(A) columns.
    """
    _, hrows, urows = _row_hnf_clean(A.transpose().data, A.rows,
                                     transform=True)
    H = IntMatrix._raw(len(hrows), A.rows, hrows).transpose()
    V = IntMatrix._raw(len(urows), A.cols, urows).transpose()
    return H, V


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d_1 | d_2 | ... | d_k (units included), rank k."""
    invariant_factors: tuple
    rank: int


def _chain_divisibility(diag: list) -> list:
    """Normalize a diagonal multiset into the divisibility chain.

    Units divide everything, so they are set aside before the pairwise
    gcd/lcm loop and lead the chain.
    """
    d = [abs(x) for x in diag if x]
    units = d.count(1)
    d = [x for x in d if x != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    l = d[i] // g * d[j]
                    d[i], d[j] = g, l
                    changed = True
        d.sort()
    return [1] * units + d


def _nearest_quotient(b: int, a: int) -> int:
    """Quotient q minimizing |b - q*a|, any sign of a != 0."""
    if a < 0:
        return -_symmetric_quotient(b, -a)
    return _symmetric_quotient(b, a)


def _snf_diagonal_sparse(A: IntMatrix) -> list:
    """Diagonal entries (no chain normalization) of a Smith form of A.

    Textbook alternating row/column reduction on a sparse row-dict store.
    Pivots come from one min-heap of candidate entries keyed by
    (|value|, Markowitz count, row, column), after Dumas, Saunders and
    Villard (JSC 2001), heapified once.  Each nonempty row has one live
    record, its best entry under that key.  A pivot step pushes a fresh
    record for every row it changed, superseding the older ones.  On pop,
    a superseded record is skipped, and a live one whose row's best key
    has since grown (a column count rose) is pushed again.  Candidates are
    per row, not per entry: a step with heavy fill changes nearly every
    entry of the rows it touches, and one push per changed entry then costs
    more than rescanning every nonzero did.  Only the order of pivots
    depends on the heap; the invariant factors do not.
    """
    rows = [dict(r) for r in A.data]
    colindex: dict = {}
    for i, r in enumerate(rows):
        for j in r:
            colindex.setdefault(j, set()).add(i)

    def best(i: int) -> tuple:
        """(|v|, Markowitz count, i, j) of the best entry of nonempty row i."""
        n = len(rows[i]) - 1
        ba = bm = bj = None
        for j, v in rows[i].items():
            a = v if v > 0 else -v
            if ba is None or a <= ba:
                m = n * (len(colindex[j]) - 1)
                if ba is None or a < ba or m < bm or (m == bm and j < bj):
                    ba, bm, bj = a, m, j
        return ba, bm, i, bj

    heap = [best(i) for i, r in enumerate(rows) if r]
    live = [None] * len(rows)
    for rec in heap:
        live[rec[2]] = rec
    heapify(heap)
    touched: set = set()

    def row_axpy_idx(dst: int, src: int, q: int) -> None:
        if not q:
            return
        touched.add(dst)
        drow = rows[dst]
        for j, v in rows[src].items():
            w = drow.get(j, 0) + q * v
            if w:
                if j not in drow:
                    colindex.setdefault(j, set()).add(dst)
                drow[j] = w
            elif j in drow:
                del drow[j]
                colindex[j].discard(dst)

    def col_axpy_idx(dst: int, src: int, q: int) -> None:
        if not q:
            return
        for i in list(colindex.get(src, ())):
            v = rows[i].get(src, 0)
            if v:
                touched.add(i)
                w = rows[i].get(dst, 0) + q * v
                if w:
                    if dst not in rows[i]:
                        colindex.setdefault(dst, set()).add(i)
                    rows[i][dst] = w
                elif dst in rows[i]:
                    del rows[i][dst]
                    colindex[dst].discard(i)

    # Each pivot step empties its row and column for good, so at most
    # min(rows, cols) pivots exist; stopping there skips draining the heap
    # of superseded records.
    diag = []
    limit = min(A.rows, A.cols)
    while heap and len(diag) < limit:
        rec = heappop(heap)
        i0 = rec[2]
        if live[i0] is not rec:
            continue
        cur = best(i0)
        if cur > rec:
            live[i0] = cur
            heappush(heap, cur)
            continue
        live[i0] = None
        pi, pj = i0, cur[3]
        while True:
            # Row ops until column pj holds only the pivot.
            while True:
                others = [i for i in colindex.get(pj, ())
                          if i != pi and pj in rows[i]]
                if not others:
                    break
                a = rows[pi][pj]
                next_pi = pi
                for i in others:
                    b = rows[i].get(pj, 0)
                    if not b:
                        continue
                    row_axpy_idx(i, pi, -_nearest_quotient(b, a))
                    rem = rows[i].get(pj, 0)
                    if rem and abs(rem) < abs(rows[next_pi][pj]):
                        next_pi = i
                pi = next_pi
            # Column ops until row pi holds only the pivot.  These touch only
            # row pi (column pj is clean), so the column stays clean unless
            # the pivot migrates to another column.
            pivot_moved = False
            while True:
                others = [j for j in rows[pi] if j != pj]
                if not others:
                    break
                a = rows[pi][pj]
                next_pj = pj
                for j in others:
                    b = rows[pi].get(j, 0)
                    if not b:
                        continue
                    col_axpy_idx(j, pj, -_nearest_quotient(b, a))
                    rem = rows[pi].get(j, 0)
                    if rem and abs(rem) < abs(rows[pi][next_pj]):
                        next_pj = j
                if next_pj != pj:
                    pj = next_pj
                    pivot_moved = True
                    break
            if not pivot_moved:
                break
        diag.append(abs(rows[pi][pj]))
        del rows[pi][pj]
        colindex[pj].discard(pi)
        for j in list(rows[pi]):
            colindex[j].discard(pi)
        rows[pi] = {}
        # Every nonempty row needs a live record, or its invariant factor is
        # lost.  Row i0 lost its record when popped.  If the pivot migrated
        # away from it, row ops have already touched it; adding it here
        # keeps the invariant without relying on that.
        touched.add(i0)
        for i in touched:
            if rows[i]:
                live[i] = best(i)
                heappush(heap, live[i])
            else:
                live[i] = None
        touched.clear()
    return diag


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Smith normal form of A; factors chained, units d_j = 1 kept.

    Runs the sparse heap-pivot elimination on the row dicts of A; no
    transforms are kept.
    """
    factors = _chain_divisibility(_snf_diagonal_sparse(A))
    return SmithForm(tuple(factors), len(factors))


def rank(A: IntMatrix) -> int:
    pivots, _, _ = _row_hnf_clean(A.transpose().data, A.rows,
                                  reduce_off_pivots=False)
    return len(pivots)


def cokernel_structure(A: IntMatrix) -> tuple:
    """Structure (free_rank, factors) of coker(A) for A: Z^cols -> Z^rows.

    Factors are chained with every unit dropped, so each d_j >= 2.
    """
    sf = smith_normal_form(A)
    free_rank = A.rows - sf.rank
    facs = tuple(d for d in sf.invariant_factors if d != 1)
    return free_rank, facs


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------

def det_bareiss(M: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pk = A[k][k]
        for i in range(k + 1, n):
            Ai, Ak = A[i], A[k]
            aik = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (pk * Ai[j] - aik * Ak[j]) // prev
            Ai[k] = 0
        prev = pk
    return sign * A[n - 1][n - 1]


def det_bareiss_psd(M: Sequence[Sequence[int]]) -> int:
    """Bareiss determinant specialized to symmetric PSD integer matrices.

    Pivots on the diagonal and updates only the upper triangle; a zero
    diagonal entry on a PSD matrix forces a zero row, hence det 0.
    """
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    order = list(range(n))
    prev = 1
    for step in range(n - 1):
        # choose remaining diagonal pivot of minimal nonzero magnitude
        best = None
        for t in range(step, n):
            v = A[order[t]][order[t]]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), t)
        if best is None:
            return 0
        order[step], order[best[1]] = order[best[1]], order[step]
        k = order[step]
        pk = A[k][k]
        rest = order[step + 1:]
        ak = A[k]
        for ii, i in enumerate(rest):
            aik = A[i][k]
            Ai = A[i]
            if aik:
                for j in rest[ii:]:
                    Ai[j] = (pk * Ai[j] - aik * ak[j]) // prev
            elif prev != 1 or pk != 1:
                for j in rest[ii:]:
                    if Ai[j]:
                        Ai[j] = (pk * Ai[j]) // prev
            for j in rest[ii:]:
                A[j][i] = Ai[j]
        prev = pk
    last = order[n - 1]
    return A[last][last]


def det_fraction(M: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of Fractions."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return Fraction(0)
            A[k], A[swap] = A[swap], A[k]
            det = -det
        det *= A[k][k]
        inv = 1 / A[k][k]
        for i in range(k + 1, n):
            f = A[i][k] * inv
            if f:
                Ai, Ak = A[i], A[k]
                for j in range(k, n):
                    Ai[j] -= f * Ak[j]
    return det


def _gram_int(B: IntMatrix) -> list:
    """B^T B as list-of-lists, using column sparsity."""
    cols = B.transpose().data
    n = B.cols
    G = [[0] * n for _ in range(n)]
    for a in range(n):
        ca = cols[a]
        for b in range(a, n):
            cb = cols[b]
            if len(cb) < len(ca):
                ca2, cb2 = cb, ca
            else:
                ca2, cb2 = ca, cb
            s = 0
            for i, v in ca2.items():
                w = cb2.get(i)
                if w is not None:
                    s += v * w
            G[a][b] = s
            G[b][a] = s
    return G


def ln_of_fraction(x) -> float:
    """Natural log of a positive int or Fraction, safe for huge values."""
    if isinstance(x, Fraction):
        return _ln_int(x.numerator) - _ln_int(x.denominator)
    return _ln_int(int(x))


def _ln_int(n: int) -> float:
    if n <= 0:
        raise ValueError("log of nonpositive value")
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 500
    return math.log(n >> shift) + shift * math.log(2)


# ---------------------------------------------------------------------------
# Fuglede-Kadison determinants (trivial group)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FKDet:
    """log_value = (1/2) ln(square_exact); square_exact is exact and >= 1."""
    log_value: float
    square_exact: Fraction

    def __post_init__(self):
        if self.square_exact < 1:
            raise IdentityViolation(
                f"FK determinant square {self.square_exact} < 1")


_MINOR_BUDGET = 2_000_000


def _fk_square_minor_sum(A: IntMatrix):
    """Cauchy-Binet: sum of squares of all rank x rank minors.

    The test oracle for the two production routes.  Returns None when the
    enumeration exceeds the work budget (the number of minors weighted by
    the cubed minor size).
    """
    r = rank(A)
    if r == 0:
        return 1
    nrow, ncol = A.rows, A.cols
    work = comb(nrow, r) * comb(ncol, r) * max(1, r ** 3)
    if work > _MINOR_BUDGET:
        return None
    rows = A.to_lists()
    total = 0
    for I in itertools.combinations(range(nrow), r):
        sub = [rows[i] for i in I]
        for J in itertools.combinations(range(ncol), r):
            m = [[row[j] for j in J] for row in sub]
            d = det_bareiss(m)
            total += d * d
    return total


def _fk_square_image_lattice(A: IntMatrix) -> int:
    """det(J^T J) * det(S S^T) where A = J @ S, J a column-lattice basis."""
    J = column_hnf(A)
    if J.cols == 0:
        return 1
    S = solve_in_lattice(J, A)
    assert S is not None, "columns of A must lie in their own column lattice"
    dj = det_bareiss_psd(_gram_int(J))
    ds = det_bareiss_psd(_gram_int(S.transpose()))
    return dj * ds


def _fk_structure_parts(A: IntMatrix, K: Optional[IntMatrix] = None,
                        D: Optional[IntMatrix] = None):
    """(kernel square, torsion order, cokernel-projection square, rank).

    The three values are the squared FK determinants of the kernel inclusion
    and torsion-free cokernel projection, and |tors(coker A)|; all exact.
    Precomputed saturated kernel bases of A and A^T may be passed in.
    """
    if K is None:
        K = kernel_lattice(A)
    r = A.cols - K.cols
    jk_sq = det_bareiss_psd(_gram_int(K)) if K.cols else 1
    sf = smith_normal_form(A)
    if sf.rank != r:
        raise IdentityViolation("rank mismatch between kernel and Smith form")
    tors = 1
    for d in sf.invariant_factors:
        tors *= d
    if D is None:
        D = kernel_lattice(A.transpose())
    if D.cols == 0:
        prc_sq: Fraction = Fraction(1)
    else:
        L = column_hnf(D.transpose())
        detL = 1
        for col in L.transpose().data:
            detL *= col[min(col)]          # pivot entry of a Hermite column
        gram_d = det_bareiss_psd(_gram_int(D))
        prc_sq = Fraction(gram_d, detL * detL)
    return jk_sq, tors, prc_sq, r


def _fk_square_structure(A: IntMatrix, K: Optional[IntMatrix] = None,
                         D: Optional[IntMatrix] = None) -> Fraction:
    jk_sq, tors, prc_sq, _ = _fk_structure_parts(A, K, D)
    sq = Fraction(jk_sq) * tors * tors * prc_sq
    if sq.denominator != 1:
        raise IdentityViolation("non-integer FK determinant square")
    return sq


def fk_determinant(A: IntMatrix, kernel: Optional[IntMatrix] = None,
                   left_kernel: Optional[IntMatrix] = None) -> FKDet:
    """Fuglede-Kadison determinant of A over the trivial group, exactly.

    square_exact equals the Cauchy-Binet sum of squared maximal-rank minors;
    rank 0 gives the empty product 1.  The image-lattice route runs when its
    two rank-sized Grams cost less than the two corank-sized ones of the
    structure route (2 r^3 < (cols - r)^3 + (rows - r)^3), else the
    structure route.  Saturated kernel bases of A and A^T may be supplied:
    the kernel gives r without a rank computation, and the structure route
    reuses both.
    """
    if A.rows == 0 or A.cols == 0 or A.is_zero():
        return FKDet(0.0, Fraction(1))
    r = A.cols - kernel.cols if kernel is not None else rank(A)
    if 2 * r ** 3 < (A.cols - r) ** 3 + (A.rows - r) ** 3:
        sq = Fraction(_fk_square_image_lattice(A))
    else:
        sq = _fk_square_structure(A, kernel, left_kernel)
    return FKDet(0.5 * ln_of_fraction(sq), sq)


def fk_factorization_check(A: IntMatrix) -> dict:
    """Verify det(u) = det(j_k) * |tors(coker u)| * det(pr_c) exactly.

    det(u) is evaluated by a route independent of the factorization (minor
    enumeration, falling back to the image-lattice split); the right-hand
    factors come from the kernel Gram, the Smith form, and the cokernel
    projection Gram.  The three sandwich inequalities are also asserted.
    Raises IdentityViolation on any failure; returns the four values.
    """
    sq_u = _fk_square_minor_sum(A)
    if sq_u is None:
        sq_u = _fk_square_image_lattice(A)
    sq_u = Fraction(sq_u)
    jk_sq, tors, prc_sq, _ = _fk_structure_parts(A)
    product = Fraction(jk_sq) * tors * tors * prc_sq
    if product != sq_u:
        raise IdentityViolation(
            f"FK factorization mismatch: det(u)^2 = {sq_u}, "
            f"factors give {product}")
    for name, val in (("j_k", Fraction(jk_sq)),
                      ("tors", Fraction(tors * tors)),
                      ("pr_c", prc_sq)):
        if not (1 <= val <= sq_u):
            raise IdentityViolation(
                f"sandwich violated for {name}: {val} vs det^2 {sq_u}")
    return {
        "det_u": FKDet(0.5 * ln_of_fraction(sq_u), sq_u),
        "det_jk": FKDet(0.5 * ln_of_fraction(Fraction(jk_sq)), Fraction(jk_sq)),
        "tors_coker": tors,
        "det_prc": FKDet(0.5 * ln_of_fraction(prc_sq), prc_sq),
    }
