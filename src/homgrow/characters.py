"""The Fuglede-Kadison squares of tower differentials over Galois orbits of
characters.

Over C, the regular representation of G = Z/N_1 x ... x Z/N_m splits
orthogonally into the characters chi of G.  A differential c over Z[Z^m],
base-changed to G, is therefore unitarily the direct sum of the matrices
c(chi), each variable t_j evaluated at chi(t_j), and

    det_FK(c[G])^2 = prod_chi det'(c(chi)^* c(chi)),
    rank c[G]      = sum_chi rank c(chi).

A character of order d sends t_j to zeta_d^(a_j d / N_j), so c(chi) is the
matrix over Z[x]/Phi_d obtained by t_j -> x^(a_j d / N_j).  Its Galois
conjugates are the generators of the cyclic subgroup it spans in the dual
group: one orbit of phi(d) characters per cyclic subgroup, all of the same
rank r.  Conjugation is x -> x^(d-1), so with H = c^* c (or c c^*, the
smaller) the product of the det' factors over the orbit is the norm
N_{Q(zeta_d)/Q}(e_r(H(chi))), where e_r, the sum of the principal r x r
minors, is the last nonzero coefficient of the characteristic polynomial
of H(chi).

Evaluation at chi is a ring homomorphism from Z[Z^m] that sends c^* to the
conjugate transpose, so that polynomial is the evaluation of the
characteristic polynomial of the Laurent matrix H = c^* c.  Berkowitz's
division-free recursion therefore runs once per differential, over Z[Z^m]
on term dicts (`gram_char_poly`), and each orbit costs one evaluation of
one coefficient and one norm (`_orbit_factor`): H(chi) is positive
semidefinite, so its rank is the index of its last nonzero coefficient.
The norm is the determinant of multiplication by e_r on the basis
1, x, ..., x^(phi(d)-1).  The same recursion over Z = Z[Z^0] gives the
integer characteristic polynomial `char_poly`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, mul
from typing import Dict, List, Sequence, Tuple

from .exact_linalg import det_bareiss

__all__ = [
    "char_poly",
    "cyclotomic",
    "gram_char_poly",
    "orbits",
    "orbit_cost",
    "orbit_factors",
]


def _totient(d: int) -> int:
    out, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple:
    """Coefficients of Phi_d, lowest degree first: x^d - 1 divided by
    Phi_e for every proper divisor e of d."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            q = cyclotomic(e)
            f = len(q) - 1
            quot = [0] * (len(p) - f)
            for t in range(len(p) - 1, f - 1, -1):
                c = p[t]
                if c:
                    quot[t - f] = c
                    for j in range(f + 1):
                        p[t - f + j] -= c * q[j]
            p = quot
    return tuple(p)


def _orbit_counts(moduli: Sequence[int]) -> Dict[int, int]:
    """{d: number of Galois orbits of characters of order d}.

    The dual group is isomorphic to G, whose elements of order dividing e
    number prod_j gcd(e, N_j); Moebius-style subtraction over the divisors
    leaves those of order exactly d, and an orbit holds phi(d) of them.
    """
    L = math.lcm(*moduli) if moduli else 1
    small = [e for e in range(1, math.isqrt(L) + 1) if L % e == 0]
    divisors = sorted(set(small + [L // e for e in small]))
    exact: Dict[int, int] = {}
    for d in divisors:
        exact[d] = math.prod(math.gcd(d, N) for N in moduli) - sum(
            exact[e] for e in divisors if e < d and d % e == 0)
    return {d: exact[d] // _totient(d) for d in divisors}


def orbit_cost(moduli: Sequence[int], k: int) -> int:
    """Estimated work of the character route for a differential whose
    smaller side has k generators over Z[Z^m]: sum over orbits of
    k^4 phi(d)^2 (a characteristic polynomial per orbit) + phi(d)^3 (the
    norm).  The polynomial is now computed once per differential over
    Z[Z^m], so the k^4 phi(d)^2 term overstates the work; it is kept so
    that no level changes route."""
    total = 0
    for d, count in _orbit_counts(moduli).items():
        f = _totient(d)
        total += count * (k ** 4 * f * f + f ** 3)
    return total


def orbits(moduli: Sequence[int]) -> List[Tuple[int, tuple]]:
    """One (d, s) per Galois orbit of characters of prod Z/N_j.

    d is the order of the orbit's characters and s the substitution
    t_j -> x^(s_j) of its first member a in lexicographic order, with
    s_j = a_j d / N_j (not a_j (d / N_j), which is 0 when N_j does not
    divide d).  The members u a, for u prime to d, are marked in a flag
    array over the lexicographic positions.
    """
    strides = [math.prod(moduli[j + 1:]) for j in range(len(moduli))]
    seen = bytearray(math.prod(moduli))
    out = []
    for pos, a in enumerate(itertools.product(*(range(N) for N in moduli))):
        if seen[pos]:
            continue
        d = math.lcm(*(N // math.gcd(x, N) for x, N in zip(a, moduli)))
        for u in range(1, d + 1):
            if math.gcd(u, d) == 1:
                seen[sum(u * x % N * s for x, N, s
                         in zip(a, moduli, strides))] = 1
        out.append((d, tuple(x * d // N for x, N in zip(a, moduli))))
    return out


class _Cyclotomic:
    """Z[x]/Phi_d on coefficient lists of length phi(d): evaluation of a
    Laurent polynomial and the norm to Q."""

    __slots__ = ("d", "f", "phi")

    def __init__(self, d: int):
        self.d = d
        self.phi = cyclotomic(d)
        self.f = len(self.phi) - 1

    def reduce(self, p: list) -> list:
        """p mod Phi_d, for p of any length; Phi_d is monic."""
        f, phi = self.f, self.phi
        for t in range(len(p) - 1, f - 1, -1):
            c = p[t]
            if c:
                for j in range(f):
                    if phi[j]:
                        p[t - f + j] -= c * phi[j]
        if len(p) < f:
            p.extend([0] * (f - len(p)))
        del p[f:]
        return p

    def evaluate(self, terms: Dict[tuple, int], s: Sequence[int]) -> list:
        """A Laurent polynomial, as its term dict, at t_j -> x^(s_j)."""
        p = [0] * self.d
        for e, c in terms.items():
            p[sum(map(mul, e, s)) % self.d] += c
        return self.reduce(p)

    def norm(self, a: list) -> int:
        """N_{Q(zeta_d)/Q}(a): the determinant of multiplication by a."""
        f, phi = self.f, self.phi
        if f == 1:
            return a[0]
        columns = []
        v = list(a)
        for _ in range(f):
            columns.append(v)
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                v = [x - top * c for x, c in zip(v, phi)]
        return det_bareiss(columns)


def _neg(a: Dict[tuple, int]) -> Dict[tuple, int]:
    return {e: -c for e, c in a.items()}


def _dot(u: Sequence[Dict[tuple, int]],
         v: Sequence[Dict[tuple, int]]) -> Dict[tuple, int]:
    """sum_i u_i v_i over Z[Z^m], on term dicts {exponent: coefficient}."""
    acc: Dict[tuple, int] = {}
    for a, b in zip(u, v):
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _charpoly(H: List[List[Dict[tuple, int]]], m: int
              ) -> List[Dict[tuple, int]]:
    """Coefficients [1, c_1, ..., c_k] of det(lambda - H) over Z[Z^m], as
    term dicts, by Berkowitz: the polynomial of the leading (s+1) x (s+1)
    block is a lower triangular Toeplitz matrix with first column
    [1, -a, -r C, -r A C, ..., -r A^(s-1) C] times that of the leading
    s x s block A, where C, r and a are the new column, row and corner."""
    one = {(0,) * m: 1}
    p = [one]
    for s in range(len(H)):
        row = H[s][:s]
        items = [one, _neg(H[s][s])]
        v = [H[i][s] for i in range(s)]
        for i in range(s):
            items.append(_neg(_dot(row, v)))
            if i < s - 1:
                v = [_dot(H[t][:s], v) for t in range(s)]
        p = [_dot([items[i - j] for j in range(min(i, s) + 1)],
                  p[:min(i, s) + 1]) for i in range(s + 2)]
    return p


def char_poly(A) -> List[int]:
    """Coefficients [1, c_1, ..., c_k] of det(lambda - A) for a square
    integer matrix A: the Berkowitz recursion over Z = Z[Z^0]."""
    H = [[{(): x} if x else {} for x in row] for row in A.to_lists()]
    return [c.get((), 0) for c in _charpoly(H, 0)]


def gram_char_poly(D, m: int) -> List[Dict[tuple, int]]:
    """Coefficients [1, c_1, ..., c_k] of det(lambda - H) over Z[Z^m] for a
    Laurent matrix D, as term dicts: H = D^* D, or D D^* when D has fewer
    rows than columns, * the transpose with x -> x^-1."""
    conj = [[p.conjugate().terms for p in row] for row in D]
    rows = [[p.terms for p in row] for row in D]
    if rows and len(rows[0]) <= len(rows):
        # H = D^* D: (D^*)_(a, i) = conj D_(i, a)
        left, right = list(zip(*conj)), list(zip(*rows))
    else:                       # H = D D^*
        left, right = rows, conj
    return _charpoly([[_dot(u, v) for v in right] for u in left], m)


def _orbit_factor(E: Sequence[Dict[tuple, int]], d: int, s: tuple
                  ) -> Tuple[int, int]:
    """(rank r, N(e_r(H(chi)))) at the orbit (d, s), from the Laurent
    coefficients E of `gram_char_poly`: evaluation is a ring homomorphism
    that sends D^* to the conjugate transpose, so E_i(chi) is the
    coefficient c_i of H(chi), and H(chi) is positive semidefinite, so r is
    the last i with E_i(chi) != 0 and e_r = (-1)^r c_r."""
    R = _Cyclotomic(d)
    for r in range(len(E) - 1, 0, -1):
        if E[r]:
            c_r = R.evaluate(E[r], s)
            if any(c_r):
                return r, R.norm(c_r if r % 2 == 0 else [-c for c in c_r])
    return 0, 1


def orbit_factors(E: Sequence[Dict[tuple, int]],
                  orbits: Sequence[Tuple[int, tuple]]
                  ) -> List[Tuple[int, int, int]]:
    """(phi(d), r, N(e_r)) per orbit (d, s) of `orbits` for the Laurent
    coefficients E of a differential c (`gram_char_poly`): the product of
    the norms is det_FK(c[G])^2 and sum phi(d) r is rank c[G]."""
    return [(_totient(d), *_orbit_factor(E, d, s)) for d, s in orbits]
