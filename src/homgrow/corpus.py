"""Seeded random corpora and independent oracles for the verification suites.

Random chain complexes are direct sums of shifted two-term multiplication
complexes and free summands, conjugated degreewise by random unimodular
matrices, so the boundary condition holds by construction while the matrices
look generic.  Module corpora assemble cyclic pieces with explicitly
finite-order unit actions and conjugate the presentation.

The oracles here are deliberately brute force: minimal generator counts by
exhaustive tuple search, filtration length by shortest-path search over the
full submodule lattice.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, prod
from typing import List, Optional, Sequence

from .chain_complex import IntChainComplex, direct_sum
from .errors import IdentityViolation
from .exact_linalg import (
    IntMatrix,
    _colhnf_with_transform,
    column_hnf,
    smith_normal_form,
)
from .group_ring import ModuleWithAction

__all__ = [
    "random_unimodular",
    "invert_unimodular",
    "random_complex",
    "random_int_matrix",
    "random_finite_group_factors",
    "random_module_with_action",
    "random_nilpotent_module",
    "d_bruteforce",
    "filtration_length_oracle",
]


def random_unimodular(n: int, rng: random.Random) -> IntMatrix:
    """Product of random elementary row operations, |det| = 1."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n) if n else 0, rng.randrange(n) if n else 0
        if n == 0:
            break
        if i != j:
            q = rng.randint(-2, 2)
            if q:
                for k in range(n):
                    U[i][k] += q * U[j][k]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
        if rng.random() < 0.3:
            U[i] = [-x for x in U[i]]
    return IntMatrix.from_rows(U) if n else IntMatrix.zeros(0, 0)


def invert_unimodular(U: IntMatrix) -> IntMatrix:
    """U^{-1}, the column Hermite transform V with U @ V = I."""
    H, V = _colhnf_with_transform(U)
    if H != IntMatrix.identity(U.cols):
        raise IdentityViolation("matrix is not unimodular")
    return V


def random_complex(rng: random.Random, max_top: int = 3, max_entry: int = 5,
                   max_free: int = 2) -> IntChainComplex:
    """Random based free complex with dims <= 8 per degree."""
    top = rng.randint(1, max_top)
    free = [rng.randint(0, max_free) for _ in range(top + 1)]
    C = IntChainComplex(
        free, [IntMatrix.zeros(free[k - 1], free[k]) for k in range(1, top + 1)])
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, top)
        l = rng.randint(1, max_entry)
        piece = IntChainComplex.two_term(IntMatrix.from_rows([[l]]),
                                         bottom_degree=n - 1)
        C = direct_sum(C, piece)
    Us = [random_unimodular(C.dim(n), rng) for n in range(C.top_degree + 1)]
    Uinv = [invert_unimodular(U) for U in Us]
    diffs = [Us[n - 1] @ C.differential(n) @ Uinv[n]
             for n in range(1, C.top_degree + 1)]
    return IntChainComplex(C.dims, diffs)


def random_int_matrix(rng: random.Random, max_dim: int = 6,
                      bound: int = 5, allow_empty: bool = True) -> IntMatrix:
    lo = 0 if allow_empty else 1
    n = rng.randint(lo, max_dim)
    m = rng.randint(lo, max_dim)
    return IntMatrix(n, m, [rng.randint(-bound, bound) for _ in range(n * m)])


def random_finite_group_factors(rng: random.Random, max_order: int = 200,
                                max_rank: int = 3) -> tuple:
    """Chained invariant factors of a random finite abelian group."""
    while True:
        k = rng.randint(1, max_rank)
        base = rng.choice([2, 2, 2, 3, 5])
        factors = []
        d = base ** rng.randint(0, 2) * rng.choice([1, 1, 3, 5])
        if d < 2:
            d = 2
        factors.append(d)
        for _ in range(k - 1):
            d = d * rng.choice([1, 1, 2, 3])
            factors.append(d)
        order = 1
        for f in factors:
            order *= f
        if order <= max_order:
            return tuple(factors)


def _unit_of_order_dividing(q: int, d: int, rng: random.Random) -> int:
    """Random unit u mod q with u^d = 1 mod q (u = 1 always works)."""
    candidates = [u for u in range(1, q) if gcd(u, q) == 1
                  and pow(u, d, q) == 1]
    return rng.choice(candidates) if candidates else 1


def random_module_with_action(rng: random.Random, orders: Sequence[int],
                              max_pieces: int = 3,
                              piece_bound: int = 9,
                              free_pieces: int = 1) -> ModuleWithAction:
    """Module over prod Z/orders: cyclic pieces with unit actions, conjugated.

    Each torsion piece Z/q carries the action of generator j by a unit of
    multiplicative order dividing orders[j]; free pieces carry the identity.
    The presentation is then rewritten in a random generator basis.
    """
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        if q <= piece_bound:
            units = [_unit_of_order_dividing(q, d, rng) for d in orders]
            pieces.append((q, units))
    nfree = rng.randint(0, free_pieces)
    g = len(pieces) + nfree
    if g == 0:
        pieces = [(2, [1 for _ in orders])]
        g = 1
    pres_cols = []
    for t, (q, _) in enumerate(pieces):
        col = [0] * g
        col[t] = q
        pres_cols.append(col)
    P = IntMatrix.from_columns(pres_cols, g) if pres_cols \
        else IntMatrix.zeros(g, 0)
    acts = []
    for j in range(len(orders)):
        diag = [units[j] for (_, units) in pieces] + [1] * nfree
        acts.append(IntMatrix.diagonal(diag))
    U = random_unimodular(g, rng)
    Ui = invert_unimodular(U)
    P2 = U @ P
    acts2 = [U @ A @ Ui for A in acts]
    return ModuleWithAction(P2, acts2, list(orders))


def random_nilpotent_module(rng: random.Random,
                            orders: Sequence[int]) -> ModuleWithAction:
    """Module with every action unipotent: units congruent to 1 mod p.

    Over Z/p^k the unit 1 + p*t has p-power order, so any generator order
    divisible by p admits it; the augmentation ideal then acts nilpotently.
    """
    p = 2 if any(o % 2 == 0 for o in orders) else 3
    pieces = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        q = p ** k
        units = []
        for d in orders:
            cands = [u for u in range(1, q) if u % p == 1
                     and pow(u, d, q) == 1]
            units.append(rng.choice(cands) if cands else 1)
        pieces.append((q, units))
    g = len(pieces)
    pres_cols = []
    for t, (q, _) in enumerate(pieces):
        col = [0] * g
        col[t] = q
        pres_cols.append(col)
    P = IntMatrix.from_columns(pres_cols, g)
    acts = [IntMatrix.diagonal([units[j] for (_, units) in pieces])
            for j in range(len(orders))]
    U = random_unimodular(g, rng)
    Ui = invert_unimodular(U)
    return ModuleWithAction(U @ P, [U @ A @ Ui for A in acts], list(orders))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _generates(vectors: List[tuple], diag: Sequence[int]) -> bool:
    """Do the vectors generate prod Z/diag?  Index-1 test on the lattice
    spanned by the vectors and the relation lattice."""
    s = len(diag)
    cols = [list(v) for v in vectors] + \
        [[diag[i] if r == i else 0 for r in range(s)] for i in range(s)]
    # integer column HNF pivots; generates iff all pivots are 1
    work = [list(c) for c in cols]
    pivots = []
    for row in range(s):
        cand = [c for c in work if c[row] != 0 and
                all(c[r] == 0 for r in range(row))]
        if not cand:
            return False
        while len(cand) > 1:
            cand.sort(key=lambda c: abs(c[row]))
            base = cand[0]
            rest = []
            for c in cand[1:]:
                q = c[row] // base[row]
                for r in range(s):
                    c[r] -= q * base[r]
                if c[row]:
                    rest.append(c)
            cand = [base] + rest
        piv = cand[0]
        if abs(piv[row]) != 1:
            return False
        # eliminate this row from the others
        for c in work:
            if c is not piv and c[row]:
                q = c[row] // piv[row]
                for r in range(s):
                    c[r] -= q * piv[r]
        pivots.append(piv)
        work = [c for c in work if any(c[r] for r in range(row + 1, s))]
    return True


def d_bruteforce(factors: Sequence[int], limit: int = 4) -> Optional[int]:
    """Minimal n with a surjection Z^n onto prod Z/factors, by tuple search.

    Searches n = 0, 1, ... up to `limit`; returns None when no generating
    tuple of size <= limit exists.
    """
    diag = [int(d) for d in factors if int(d) >= 2]
    if not diag:
        return 0
    s = len(diag)
    elements = list(itertools.product(*[range(d) for d in diag]))
    for n in range(1, limit + 1):
        for combo in itertools.combinations(elements, n):
            if _generates(list(combo), diag):
                return n
    return None


def _module_elements(M: ModuleWithAction):
    """Concrete model of a finite M = Z^g / im(P) in Hermite coordinates.

    With H = column_hnf(P) of rank g, column t has its pivot d_t at row t and
    nothing above it, so the tuples 0 <= x_t < d_t are one representative
    per element.  Returns (diag, elements, actions, reduce): `reduce` maps an
    integer vector to its representative, and each action maps a
    representative to the representative of its image.  Returns None when M
    is infinite.  Raises IdentityViolation unless prod d_t equals the product
    of the Smith invariant factors of P.
    """
    P = M.presentation
    H = column_hnf(P)
    if H.cols < P.rows:
        return None
    steps = [(t, col[t], tuple(col.items()))
             for t, col in enumerate(H.transpose().data)]
    diag = [d for _, d, _ in steps]
    order = prod(smith_normal_form(P).invariant_factors)
    if prod(diag) != order:
        raise IdentityViolation(
            f"Hermite pivots {diag} give order {prod(diag)}, the Smith "
            f"form gives {order}")

    def reduce(x):
        # Column t touches rows >= t only, so one upward pass suffices.
        x = list(x)
        for t, d, col in steps:
            if 0 <= x[t] < d:
                continue
            q = x[t] // d
            for i, v in col:
                x[i] -= q * v
        return tuple(x)

    def act(rows, x):
        return reduce([sum(v * x[j] for j, v in r.items()) for r in rows])

    elements = list(itertools.product(*[range(d) for d in diag]))
    return diag, elements, [lambda x, rows=A.data: act(rows, x)
                            for A in M.generators_action], reduce


def filtration_length_oracle(M: ModuleWithAction,
                             max_order: int = 64) -> Optional[int]:
    """Shortest filtration with trivial-action quotients, by explicit search.

    Enumerates every action-invariant subgroup of the finite module and runs
    a breadth-first search over chains 0 = M_0 <= ... <= M_r = M in which
    the induced action on each quotient is trivial.  Returns None when M is
    infinite, too large, or admits no such filtration.
    """
    model = _module_elements(M)
    if model is None:
        return None
    diag, elements, actions, reduce = model
    if len(elements) > max_order:
        return None
    zero = tuple(0 for _ in diag)

    def add(x, y):
        return reduce([a + b for a, b in zip(x, y)])

    def closure(gens):
        seen = {zero}
        frontier = [zero]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for gvec in gens:
                y = add(x, gvec)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    # all invariant subgroups: close subsets under elements + actions
    all_subs = set()
    pending = [frozenset({zero})]
    all_subs.add(frozenset({zero}))
    # generate by adding one element at a time to known invariant subgroups
    while pending:
        S = pending.pop()
        for x in elements:
            if x in S:
                continue
            gens = set(S) | {x}
            # invariant closure: include images under the actions
            changed = True
            cur = closure(gens)
            while changed:
                extra = set()
                for a in actions:
                    for y in cur:
                        z = a(y)
                        if z not in cur:
                            extra.add(z)
                if extra:
                    cur = closure(set(cur) | extra)
                else:
                    changed = False
            if cur not in all_subs:
                all_subs.add(cur)
                pending.append(cur)
    full = frozenset(elements)
    # BFS over chains: edge S -> T when S <= T and I.T <= S
    def ideal_image(T):
        out = set()
        for a in actions:
            for y in T:
                out.add(reduce([b - c for b, c in zip(a(y), y)]))
        return out

    from collections import deque
    dist = {frozenset({zero}): 0}
    queue = deque([frozenset({zero})])
    while queue:
        S = queue.popleft()
        if S == full:
            return dist[S]
        for T in all_subs:
            if T in dist or not S <= T:
                continue
            if all(v in S for v in ideal_image(T)):
                dist[T] = dist[S] + 1
                queue.append(T)
    return None
