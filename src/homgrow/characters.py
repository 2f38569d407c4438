"""The Fuglede-Kadison squares of tower differentials over Galois orbits of
characters.

Over C, the regular representation of G = Z/N_1 x ... x Z/N_m splits
orthogonally into the characters chi of G.  A differential c over Z[Z^m],
base-changed to G, is therefore unitarily the direct sum of the matrices
c(chi), each variable t_j evaluated at chi(t_j), and

    det_FK(c[G])^2 = prod_chi det'(c(chi)^* c(chi)),
    rank c[G]      = sum_chi rank c(chi).

A character of order d sends t_j to zeta_d^(a_j d / N_j), so c(chi) is the
matrix M over Z[x]/Phi_d obtained by t_j -> x^(a_j d / N_j).  Its Galois
conjugates are the generators of the cyclic subgroup it spans in the dual
group: one orbit of phi(d) characters per cyclic subgroup, all of the same
rank r.  Conjugation is x -> x^(d-1), so with H = M^* M (or M M^*, the
smaller) the product of the det' factors over the orbit is the norm
N_{Q(zeta_d)/Q}(e_r(H)), where e_r, the sum of the principal r x r minors,
is the last nonzero coefficient of the characteristic polynomial of H.  The
polynomial comes from Berkowitz's division-free recursion, which costs
O(k^4) ring products for k x k; the norm is the determinant of
multiplication by e_r on the basis 1, x, ..., x^(phi(d)-1).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .exact_linalg import det_bareiss

__all__ = [
    "char_poly",
    "cyclotomic",
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
    k^4 phi(d)^2 (the characteristic polynomial) + phi(d)^3 (the norm)."""
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
    """Arithmetic in Z[x]/Phi_d on coefficient lists of length phi(d)."""

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

    def mul(self, a: list, b: list) -> list:
        if self.f == 1:
            return [a[0] * b[0]]
        out = [0] * (2 * self.f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self.reduce(out)

    def dot(self, u: Sequence[list], v: Sequence[list]) -> list:
        """sum_i u_i v_i, skipping zero terms."""
        acc = [0] * self.f
        for a, b in zip(u, v):
            if any(a) and any(b):
                for j, c in enumerate(self.mul(a, b)):
                    acc[j] += c
        return acc

    def evaluate(self, poly, s: Sequence[int]) -> list:
        """A Laurent polynomial at t_j -> x^(s_j)."""
        p = [0] * self.d
        for e, c in poly.terms.items():
            p[sum(x * y for x, y in zip(e, s)) % self.d] += c
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


def _neg(a: list) -> list:
    return [-c for c in a]


def _charpoly(H: List[List[list]], R: _Cyclotomic) -> List[list]:
    """Coefficients [1, c_1, ..., c_k] of det(lambda - H) over R, by
    Berkowitz: the polynomial of the leading (s+1) x (s+1) block is a lower
    triangular Toeplitz matrix with first column
    [1, -a, -r C, -r A C, ..., -r A^(s-1) C] times that of the leading
    s x s block A, where C, r and a are the new column, row and corner."""
    one = [1] + [0] * (R.f - 1)
    p = [one]
    for s in range(len(H)):
        row = H[s][:s]
        items = [one, _neg(H[s][s])]
        v = [H[i][s] for i in range(s)]
        for i in range(s):
            items.append(_neg(R.dot(row, v)))
            if i < s - 1:
                v = [R.dot(H[t][:s], v) for t in range(s)]
        p = [R.dot([items[i - j] for j in range(min(i, s) + 1)],
                   p[:min(i, s) + 1]) for i in range(s + 2)]
    return p


def char_poly(A) -> List[int]:
    """Coefficients [1, c_1, ..., c_k] of det(lambda - A) for a square
    integer matrix A: the Berkowitz recursion over Z = Z[x]/Phi_1."""
    H = [[[x] for x in row] for row in A.to_lists()]
    return [c for c, in _charpoly(H, _Cyclotomic(1))]


def _orbit_factor(matrix, d: int, s: tuple) -> Tuple[int, int]:
    """(rank r, N(e_r(H))) of the Laurent matrix at the orbit (d, s)."""
    R = _Cyclotomic(d)
    M = [[R.evaluate(p, s) for p in row] for row in matrix]
    conj = tuple(-x for x in s)
    Mc = [[R.evaluate(p, conj) for p in row] for row in matrix]
    rows, cols = len(M), len(M[0])
    if cols <= rows:            # H = M^* M, (M^*)_(a, i) = conj M_(i, a)
        Mt = [list(c) for c in zip(*M)]
        Mct = [list(c) for c in zip(*Mc)]
        H = [[R.dot(Mct[a], Mt[b]) for b in range(cols)] for a in range(cols)]
    else:                       # H = M M^*
        H = [[R.dot(M[a], Mc[b]) for b in range(rows)] for a in range(rows)]
    coeffs = _charpoly(H, R)
    r = max(j for j, c in enumerate(coeffs) if any(c))
    e_r = coeffs[r] if r % 2 == 0 else _neg(coeffs[r])
    return r, R.norm(e_r)


def orbit_factors(matrix, orbits: Sequence[Tuple[int, tuple]]
                  ) -> List[Tuple[int, int, int]]:
    """(phi(d), r, N(e_r)) per orbit (d, s) of `orbits` for a Laurent
    matrix c: the product of the norms is det_FK(c[G])^2 and sum phi(d) r
    is rank c[G]."""
    return [(_totient(d), *_orbit_factor(matrix, d, s)) for d, s in orbits]
