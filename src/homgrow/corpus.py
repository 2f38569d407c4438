"""Seeded random corpora, independent oracles and the verification suites.

Random chain complexes are direct sums of shifted two-term multiplication
complexes and free summands, conjugated degreewise by random unimodular
matrices, so the boundary condition holds by construction while the matrices
look generic.  Module corpora assemble cyclic pieces with explicitly
finite-order unit actions and conjugate the presentation.

The oracles here are deliberately brute force: minimal generator counts by
exhaustive tuple search, filtration length by shortest-path search over the
full lattice of invariant subgroups.

The verification suites in `SUITES` draw their instances from these
generators and check the paper's lemma-level identities and bounds on them.
They are the one copy of those checks: `homgrow verify` and the acceptance
criteria both run them through `run_suite`.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import partial
from math import comb, gcd, prod
from typing import List, Optional, Sequence

from .chain_complex import (
    IntChainComplex,
    d_of_abelian_group,
    d_primewise,
    direct_sum,
    verify_rho_identity,
)
from .errors import HomgrowError, IdentityViolation
from .exact_linalg import (
    IntMatrix,
    column_hnf,
    fk_factorization_check,
    smith_normal_form,
)
from .finite_homology import (
    FinAbGroup,
    augmentation_filtration,
    coinvariants,
    group_homology,
    nu_kernel_cokernel,
    verify_estimate_bounds,
)
from .group_ring import (
    ModuleWithAction,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    torus_complex,
)

__all__ = [
    "random_unimodular",
    "random_complex",
    "random_int_matrix",
    "random_finite_group_factors",
    "random_module_with_action",
    "random_nilpotent_module",
    "d_bruteforce",
    "filtration_length_oracle",
    "SUITES",
    "run_suite",
]


def random_unimodular(n: int, rng: random.Random) -> tuple:
    """(U, U^{-1}) for U a product of random elementary row operations.

    U^{-1} is built alongside: each row operation's inverse is applied to
    it as the matching column operation, in the same order, so
    U^{-1} = E_1^{-1} ... E_k^{-1} for U = E_k ... E_1.
    """
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [list(row) for row in U]
    for _ in range(2 * n + 2 if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            if q:
                for k in range(n):
                    U[i][k] += q * U[j][k]
                    V[k][j] -= q * V[k][i]
        if rng.random() < 0.3:
            U[i], U[j] = U[j], U[i]
            for row in V:
                row[i], row[j] = row[j], row[i]
        if rng.random() < 0.3:
            U[i] = [-x for x in U[i]]
            for row in V:
                row[i] = -row[i]
    return IntMatrix.from_rows(U), IntMatrix.from_rows(V)


def random_complex(rng: random.Random) -> IntChainComplex:
    """Random based free complex with dims <= 8 per degree."""
    top = rng.randint(1, 3)
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    C = IntChainComplex(
        free, [IntMatrix.zeros(free[k - 1], free[k]) for k in range(1, top + 1)])
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, top)
        l = rng.randint(1, 5)
        piece = IntChainComplex.two_term(IntMatrix.from_rows([[l]]),
                                         bottom_degree=n - 1)
        C = direct_sum(C, piece)
    Us = [random_unimodular(C.dim(n), rng) for n in range(C.top_degree + 1)]
    diffs = [Us[n - 1][0] @ C.differential(n) @ Us[n][1]
             for n in range(1, C.top_degree + 1)]
    return IntChainComplex(C.dims, diffs)


def random_int_matrix(rng: random.Random, max_dim: int = 6,
                      bound: int = 5) -> IntMatrix:
    """Random n x m matrix, n, m <= max_dim, entries in [-bound, bound]."""
    n = rng.randint(0, max_dim)
    m = rng.randint(0, max_dim)
    return IntMatrix(n, m, [rng.randint(-bound, bound) for _ in range(n * m)])


def random_finite_group_factors(rng: random.Random) -> tuple:
    """Chained invariant factors of a random finite abelian group of rank at
    most 3 and order at most 200."""
    while True:
        k = rng.randint(1, 3)
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
        if order <= 200:
            return tuple(factors)


def _unit_of_order_dividing(q: int, d: int, rng: random.Random) -> int:
    """Random unit u mod q with u^d = 1 mod q (u = 1 always works)."""
    candidates = [u for u in range(1, q) if gcd(u, q) == 1
                  and pow(u, d, q) == 1]
    return rng.choice(candidates) if candidates else 1


def random_module_with_action(rng: random.Random,
                              orders: Sequence[int]) -> ModuleWithAction:
    """Module over prod Z/orders: cyclic pieces with unit actions, conjugated.

    One to three torsion pieces Z/q and at most one free piece.  Each torsion
    piece carries the action of generator j by a unit of multiplicative order
    dividing orders[j]; the free piece carries the identity.  The
    presentation is then rewritten in a random generator basis.
    """
    pieces = []
    for _ in range(rng.randint(1, 3)):
        q = rng.choice([2, 3, 4, 5, 7, 8, 9])
        units = [_unit_of_order_dividing(q, d, rng) for d in orders]
        pieces.append((q, units))
    return _conjugated_module(pieces, rng.randint(0, 1), orders, rng)


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
    return _conjugated_module(pieces, 0, orders, rng)


def _conjugated_module(pieces: Sequence[tuple], nfree: int,
                       orders: Sequence[int],
                       rng: random.Random) -> ModuleWithAction:
    """Pieces (q, units), each a Z/q on which generator j acts by units[j],
    plus `nfree` fixed free generators, in a random unimodular basis."""
    g = len(pieces) + nfree
    P = IntMatrix.from_columns(
        [[q if i == t else 0 for i in range(g)]
         for t, (q, _) in enumerate(pieces)], g)
    acts = [IntMatrix.diagonal([units[j] for _, units in pieces] + [1] * nfree)
            for j in range(len(orders))]
    U, Ui = random_unimodular(g, rng)
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


def d_bruteforce(factors: Sequence[int]) -> Optional[int]:
    """Minimal n with a surjection Z^n onto prod Z/factors, by tuple search.

    Searches n = 0, 1, ..., 4; returns None when no generating tuple of size
    <= 4 exists.
    """
    diag = [int(d) for d in factors if int(d) >= 2]
    if not diag:
        return 0
    elements = list(itertools.product(*[range(d) for d in diag]))
    for n in range(1, 5):
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


def filtration_length_oracle(M: ModuleWithAction) -> Optional[int]:
    """Shortest filtration with trivial-action quotients, by explicit search.

    Enumerates every action-invariant subgroup of the finite module and runs
    a breadth-first search over chains 0 = M_0 <= ... <= M_r = M in which
    the induced action on each quotient is trivial.  Returns None when M is
    infinite, has more than 64 elements, or admits no such filtration.
    """
    model = _module_elements(M)
    if model is None:
        return None
    diag, elements, actions, reduce = model
    if len(elements) > 64:
        return None
    zero = tuple(0 for _ in diag)

    def add(x, y):
        return reduce([a + b for a, b in zip(x, y)])

    def close(start, maps):
        # the least superset of start that every map sends into itself
        seen = set(start)
        stack = list(start)
        while stack:
            y = stack.pop()
            for f in maps:
                z = f(y)
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        return frozenset(seen)

    # all invariant subgroups: each is S + <orbit of x> for an invariant
    # subgroup S and an element x outside it, starting from S = 0
    all_subs = {frozenset({zero})}
    pending = [frozenset({zero})]
    while pending:
        S = pending.pop()
        for x in elements:
            if x in S:
                continue
            cur = close(S, [partial(add, y) for y in close({x}, actions)])
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


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------
#
# A suite is a generator (rng, count): it draws its instances from rng and
# yields one zero-argument check per instance.  A check raises HomgrowError
# when its instance fails.

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise IdentityViolation(message)


def _suite_rho_identity(rng, count):
    """rho_Z - rho_2 = sum (-1)^n ln det(alpha_n) on random complexes."""
    for _ in range(count):
        yield partial(verify_rho_identity, random_complex(rng))


def _suite_fk_factorization(rng, count):
    """det(u) = det(j_k) |tors coker u| det(pr_c) on random matrices."""
    for _ in range(count):
        yield partial(fk_factorization_check,
                      random_int_matrix(rng, max_dim=6, bound=5))


def _check_d_law(facs, formula):
    search = d_bruteforce(facs)
    _require(search == formula,
             f"d-law on {facs}: search {search}, formula {formula}")


def _suite_mg_laws(rng, count):
    """Minimal generator counts: tuple search against the prime-wise formula."""
    done = 0
    while done < count:
        facs = random_finite_group_factors(rng)
        formula = d_primewise(facs, 0)
        if formula > 3:
            continue
        yield partial(_check_d_law, facs, formula)
        done += 1


_GROUP_HOMOLOGY_ORDERS = ((2,), (3,), (4,), (2, 2), (8,), (2, 4), (16,), (9,),
                         (2, 2, 2))


def _check_group_homology(G, M, dM):
    m = G.d
    for n in range(1, 5):
        free_h, facs_h = group_homology(G, M, n)
        d_n = comb(n + m - 1, m - 1)
        where = f"H_{n}(G = {G.factors}; M) = Z^{free_h} + {facs_h}"
        _require(free_h == 0, f"{where} is not finite")
        _require(all(G.order % d == 0 for d in facs_h),
                 f"{where} is not killed by |G| = {G.order}")
        _require(prod(facs_h) <= G.order ** (d_n * dM),
                 f"{where} has order above |G|^{d_n * dM}")
        _require(d_of_abelian_group(facs_h, 0) <= d_n * dM,
                 f"{where} needs more than {d_n * dM} generators")


def _suite_group_homology(rng, count):
    """|G| kills H_n(G; M), |H_n| <= |G|^(d_n d(M)), d(H_n) <= d_n d(M)."""
    done = 0
    while done < count:
        G = FinAbGroup.from_orders(rng.choice(_GROUP_HOMOLOGY_ORDERS))
        M = random_module_with_action(rng, G.factors)
        free_m, facs_m = M.structure()
        dM = d_of_abelian_group(facs_m, free_m)
        if dM > 3:
            continue
        yield partial(_check_group_homology, G, M, dM)
        done += 1


_NILPOTENT_ORDERS = ((2,), (4,), (2, 2))


def _nu_complexes() -> list:
    """(complex, moduli, r, d): the small free ZG-complexes of the nu suite."""
    return [
        (circle_complex(), (2,), 1, 1),
        (circle_complex(), (4,), 1, 1),
        (torus_complex(2), (2, 2), 1, 2),
        (mapping_torus_complex(IntMatrix.from_rows([[3]])), (2,), 3, 1),
        (mapping_torus_complex(IntMatrix.from_rows([[1, 1], [0, 1]])),
         (2,), 2, 1),
    ]


def _check_mu(M):
    # coinvariants raises unless the mu lemma bounds hold
    _require(coinvariants(M)["nilpotent"],
             "unipotent module reported non-nilpotent")


def _check_nu_estimate(C, moduli, r, d):
    level = base_change(C, QuotientSpec(moduli))
    for n in range(d + 1):
        nu_kernel_cokernel(level, n)   # raises unless the nu bounds hold
    verify_estimate_bounds(level, r=r, d=d)


def _suite_mu_nu_estimate(rng, count):
    """mu bounds on `count` nilpotent modules, then the nu bounds and the
    estimate suite on the fixed `_nu_complexes`."""
    for _ in range(count):
        yield partial(_check_mu,
                      random_nilpotent_module(rng, rng.choice(_NILPOTENT_ORDERS)))
    for case in _nu_complexes():
        yield partial(_check_nu_estimate, *case)


def _check_filtration(M, oracle):
    nilpotent, length = augmentation_filtration(M)
    _require(nilpotent and length == oracle,
             f"augmentation index {length}, subgroup search {oracle}")


def _suite_filtration(rng, count):
    """Augmentation index against the brute-force filtration length."""
    done = 0
    while done < count:
        M = random_nilpotent_module(rng, rng.choice(_NILPOTENT_ORDERS))
        oracle = filtration_length_oracle(M)
        if oracle is None:
            continue
        yield partial(_check_filtration, M, oracle)
        done += 1


SUITES = {
    "rho-identity": (_suite_rho_identity, 200),
    "fk-factorization": (_suite_fk_factorization, 500),
    "mg-laws": (_suite_mg_laws, 100),
    "group-homology": (_suite_group_homology, 60),
    "mu-nu-estimate": (_suite_mu_nu_estimate, 40),
    "filtration": (_suite_filtration, 25),
}


def run_suite(name: str, rng: random.Random,
              count: Optional[int] = None) -> tuple:
    """Run suite `name` on `count` instances (its default count when None).

    Returns (checks run, failure messages); a message names the 1-based
    position of its check.  An error raised while an instance is drawn, such
    as a failing oracle, propagates.
    """
    suite, default_count = SUITES[name]
    ran = 0
    failures = []
    for check in suite(rng, default_count if count is None else count):
        ran += 1
        try:
            check()
        except HomgrowError as exc:
            failures.append(f"check {ran}: {exc}")
    return ran, failures
