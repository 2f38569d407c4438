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
elimination; it returns invariant factors, not transforms.  It shares one
column-clearing step, `_clear_column`, with the Hermite form, and its column
phase only reduces the pivot row to remainders mod the pivot.

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
from collections import defaultdict
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
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        k = len(diag)
        e = [0] * (k * k)
        for i, d in enumerate(diag):
            e[i * k + i] = int(d)
        return cls(k, k, e)

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
    """dst += q * src (q != 0), in place, dropping zeros."""
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


def _nearest_quotient(b: int, a: int) -> int:
    """Quotient q minimizing |b - q*a|, any sign of a != 0."""
    d = a if a > 0 else -a
    q, r = divmod(b, d)
    if 2 * r > d:
        q += 1
    return q if a > 0 else -q


def _negate(row: dict) -> None:
    for j in row:
        row[j] = -row[j]


def _indexed_axpy(rows: list, colindex, dst: int, src: int, q: int) -> None:
    """rows[dst] += q * rows[src] (q != 0), keeping colindex, which maps
    each column to the set of rows holding it, in step."""
    drow = rows[dst]
    for j, v in rows[src].items():
        w = drow.get(j)
        if w is None:
            drow[j] = q * v
            colindex[j].add(dst)
        else:
            w += q * v
            if w:
                drow[j] = w
            else:
                del drow[j]
                colindex[j].discard(dst)


def _clear_column(rows: list, colindex, col: int, cand: list, key,
                  urows: Optional[list] = None) -> int:
    """Reduce the rows `cand`, all holding col, until one holds it; return
    that row.  Each pass picks the candidate with the least key, whose
    first component is |entry in col|, and sets every other candidate's
    entry to its symmetric remainder mod that one.  The U rows, if given,
    follow every axpy."""
    while len(cand) > 1:
        # a is the least |entry| in col, so every other candidate b has
        # |b| >= |a|: q != 0 and |b - q*a| <= |a|/2.  Each pass shrinks
        # the least entry until one row is left holding col.
        i0 = min(cand, key=key)
        a = rows[i0][col]
        nxt = [i0]
        for i in cand:
            if i != i0:
                q = -_nearest_quotient(rows[i][col], a)
                _indexed_axpy(rows, colindex, i, i0, q)
                if urows is not None:
                    _row_axpy(urows[i], urows[i0], q)
                if col in rows[i]:
                    nxt.append(i)
        cand = nxt
    return cand[0]


def _row_hnf_clean(rows: list, transform: bool = False,
                   reduce_off_pivots: bool = True):
    """Sparse row Hermite normal form.

    Returns (pivots, hrows, urows): `pivots` is the ordered list of
    (pivot_col, work_index), `hrows` the reduced nonzero rows in pivot order,
    and `urows` (when transform=True) the rows of a unimodular U with
    U @ input = output, the rows producing zero output rows (kernel rows)
    appended after the pivot rows in input order.

    Columns holding an entry are eliminated left to right (no other column
    ever gains one).  A column index maps each column to the set of rows
    holding it and is updated by every row axpy, so a column reads its
    candidate rows (those not yet pivots) from the index, and the off-pivot
    reduction reads the pivot rows to reduce from it.  Each column is
    cleared by `_clear_column`, the column-clearing step the Smith form
    shares, with the key

        (|entry|, len(work row), row)                    without transform,
        (|entry|, len(U row), len(work row), row)        with transform.

    The U row of the chosen row is what every axpy of a pass copies, so
    ranking short U rows first keeps U output-sized: on a cyclic band, the
    row that carries the cycle gains one entry per column instead of being
    added back into the next row each time.  Rows are private copies, so the
    sign of a pivot is fixed in place.
    """
    work = [dict(r) for r in rows]
    n = len(work)
    urows = [{i: 1} for i in range(n)] if transform else None
    colindex = defaultdict(set)
    for i, r in enumerate(work):
        for j in r:
            colindex[j].add(i)

    if transform:
        def key(i):
            return abs(work[i][col]), len(urows[i]), len(work[i]), i
    else:
        def key(i):
            return abs(work[i][col]), len(work[i]), i

    is_pivot = [False] * n
    pivots = []
    for col in sorted(colindex):
        cand = [i for i in colindex[col] if not is_pivot[i]]
        if not cand:
            continue
        piv = _clear_column(work, colindex, col, cand, key, urows)
        if work[piv][col] < 0:
            _negate(work[piv])
            if transform:
                _negate(urows[piv])
        is_pivot[piv] = True
        pivots.append((col, piv))
    if reduce_off_pivots:
        # Only pivot rows are left nonzero, and each holds no column left of
        # its pivot, so colindex[col] is the pivot row of col and the earlier
        # pivot rows that still hold col; each is reduced into [0, p).
        for col, piv in pivots:
            p = work[piv][col]
            for piv2 in list(colindex[col]):
                if piv2 != piv:
                    q = work[piv2][col] // p
                    if q:
                        _indexed_axpy(work, colindex, piv2, piv, -q)
                        if transform:
                            _row_axpy(urows[piv2], urows[piv], -q)
    hrows = [work[piv] for _, piv in pivots]
    if transform:
        ukeep = [urows[piv] for _, piv in pivots]
        ukeep += [urows[i] for i in range(n) if not is_pivot[i]]
        return pivots, hrows, ukeep
    return pivots, hrows, None


def column_hnf(A: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of A, as columns in Hermite form.

    Columns are returned with strictly increasing pivot rows; the result has
    full column rank equal to rank(A).
    """
    _, hrows, _ = _row_hnf_clean(A.transpose().data)
    return IntMatrix._raw(len(hrows), A.rows, hrows).transpose()


def _is_identity(M: IntMatrix) -> bool:
    return M.rows == M.cols and all(
        len(r) == 1 and r.get(i) == 1 for i, r in enumerate(M.data))


def kernel_lattice(A: IntMatrix) -> IntMatrix:
    """Z-basis of ker(A) as a saturated sublattice, columns in Hermite form."""
    if A.rows == 0 or A.is_zero():
        return IntMatrix.identity(A.cols)
    pivots, _, urows = _row_hnf_clean(A.transpose().data, transform=True,
                                      reduce_off_pivots=False)
    nker = A.cols - len(pivots)
    kvecs = urows[len(pivots):]
    assert len(kvecs) == nker
    if nker == 0:
        return IntMatrix.zeros(A.cols, 0)
    # canonicalize: row HNF of the kernel vectors, returned as columns
    _, hrows, _ = _row_hnf_clean(kvecs)
    return IntMatrix._raw(len(hrows), A.cols, hrows).transpose()


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
    _, hrows, urows = _row_hnf_clean(A.transpose().data, transform=True)
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
    gcd/lcm pass and lead the chain.  One pass over the pairs i < j is
    enough: once the inner loop for i ends, d_i divides every later entry,
    and later steps only replace entries by gcds and lcms of multiples of
    d_i, which d_i still divides.  So d_0 | d_1 | ..., which is also sorted.
    """
    d = [abs(x) for x in diag if x]
    units = d.count(1)
    d = [x for x in d if x != 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] // g * d[j]
    return [1] * units + d


def _snf_diagonal_sparse(A: IntMatrix) -> list:
    """Diagonal entries (no chain normalization) of a Smith form of A.

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

    A pivot step clears the pivot column pj with `_clear_column`, the
    column-clearing step of the Hermite form, under its no-transform key.
    Column pj then holds only the pivot, so a column op changes the pivot
    row alone: the column phase sets each other entry of that row to its
    symmetric remainder mod the pivot.  The least nonzero remainder, if
    any, becomes the pivot and its column is cleared in turn; each round
    shrinks the pivot, so the step ends with it alone in row and column.
    """
    rows = [dict(r) for r in A.data]
    colindex = defaultdict(set)
    for i, r in enumerate(rows):
        for j in r:
            colindex[j].add(i)

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

    def key(i: int) -> tuple:
        return abs(rows[i][pj]), len(rows[i]), i

    heap = [best(i) for i, r in enumerate(rows) if r]
    live = [None] * len(rows)
    for rec in heap:
        live[rec[2]] = rec
    heapify(heap)
    touched: set = set()

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
        # Every row the step changes, row i0 among them, gets a fresh record
        # below, or its invariant factor is lost.
        live[i0] = None
        pj = cur[3]
        while True:
            cand = list(colindex[pj])
            touched.update(cand)
            pi = _clear_column(rows, colindex, pj, cand, key)
            row = rows[pi]
            a = row[pj]
            nxt = None
            for j in list(row):
                if j != pj:
                    rem = row[j] - _nearest_quotient(row[j], a) * a
                    if not rem:
                        del row[j]
                        colindex[j].discard(pi)
                    else:
                        row[j] = rem
                        if nxt is None or abs(rem) < abs(row[nxt]):
                            nxt = j
            if nxt is None:
                break
            pj = nxt
        diag.append(abs(a))
        colindex[pj].discard(pi)
        rows[pi] = {}
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
    pivots, _, _ = _row_hnf_clean(A.transpose().data,
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


def _fk_det(sq: int) -> FKDet:
    """The FKDet of an exact integer square."""
    sq = Fraction(sq)
    return FKDet(0.5 * ln_of_fraction(sq), sq)


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
                        D: Optional[IntMatrix] = None,
                        sf: Optional[SmithForm] = None):
    """(kernel square, torsion order, cokernel-projection square).

    The squared FK determinants of the kernel inclusion and torsion-free
    cokernel projection, and |tors(coker A)|; all exact integers.
    Precomputed saturated kernel bases of A and A^T, and the Smith form of
    A, may be passed in.  The basis D of ker(A^T) must be saturated, as
    `kernel_lattice` and the harmonic lattice are: then D^T maps onto
    Z^(rows - r), and the cokernel-projection square is det(D^T D) alone.
    """
    if K is None:
        K = kernel_lattice(A)
    r = A.cols - K.cols
    jk_sq = det_bareiss_psd(_gram_int(K)) if K.cols else 1
    if sf is None:
        sf = smith_normal_form(A)
    if sf.rank != r:
        raise IdentityViolation("rank mismatch between kernel and Smith form")
    tors = 1
    for d in sf.invariant_factors:
        tors *= d
    if D is None:
        D = kernel_lattice(A.transpose())
    prc_sq = det_bareiss_psd(_gram_int(D)) if D.cols else 1
    return jk_sq, tors, prc_sq


def _fk_square_structure(A: IntMatrix, K: Optional[IntMatrix] = None,
                         D: Optional[IntMatrix] = None,
                         sf: Optional[SmithForm] = None) -> int:
    jk_sq, tors, prc_sq = _fk_structure_parts(A, K, D, sf)
    return jk_sq * tors * tors * prc_sq


def _fk_uses_structure(A: IntMatrix, r: int) -> bool:
    """The FK route rule for A of rank r: True when the structure route's
    two corank-sized Grams cost no more than the image route's two
    rank-sized ones, 2 r^3 >= (cols - r)^3 + (rows - r)^3."""
    return 2 * r ** 3 >= (A.cols - r) ** 3 + (A.rows - r) ** 3


def fk_determinant(A: IntMatrix, kernel: Optional[IntMatrix] = None,
                   left_kernel: Optional[IntMatrix] = None,
                   smith: Optional[SmithForm] = None) -> FKDet:
    """Fuglede-Kadison determinant of A over the trivial group, exactly.

    square_exact equals the Cauchy-Binet sum of squared maximal-rank minors;
    rank 0 gives the empty product 1.  `_fk_uses_structure` picks the route.
    Saturated kernel bases of A and A^T and the Smith form of A may be
    supplied: the kernel gives r without a rank computation, and the
    structure route reuses all three.
    """
    if A.rows == 0 or A.cols == 0 or A.is_zero():
        return _fk_det(1)
    r = A.cols - kernel.cols if kernel is not None else rank(A)
    if _fk_uses_structure(A, r):
        return _fk_det(_fk_square_structure(A, kernel, left_kernel, smith))
    return _fk_det(_fk_square_image_lattice(A))


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
    jk_sq, tors, prc_sq = _fk_structure_parts(A)
    product = jk_sq * tors * tors * prc_sq
    if product != sq_u:
        raise IdentityViolation(
            f"FK factorization mismatch: det(u)^2 = {sq_u}, "
            f"factors give {product}")
    for name, val in (("j_k", jk_sq), ("tors", tors * tors),
                      ("pr_c", prc_sq)):
        if not (1 <= val <= sq_u):
            raise IdentityViolation(
                f"sandwich violated for {name}: {val} vs det^2 {sq_u}")
    return {
        "det_u": _fk_det(sq_u),
        "det_jk": _fk_det(jk_sq),
        "tors_coker": tors,
        "det_prc": _fk_det(prc_sq),
    }
