"""The character-orbit route for the FK squares of tower differentials.

The oracle is the regular route: `ChainAnalysis` of the base-changed
integer complex without a character split, so `_fk_route` sends its FK
squares to the Gram routes.  Each orbit factor is also checked against the
per-orbit route it replaced, which evaluates the matrix entry by entry and
runs Berkowitz over Z[x]/Phi_d (`_per_orbit_factor`).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from homgrow import characters, chain_complex, exact_linalg, growth, serialize
from homgrow.chain_complex import ChainAnalysis, rho_identity_from_analysis
from homgrow.characters import (
    _Cyclotomic,
    char_poly,
    cyclotomic,
    orbit_cost,
    orbit_factors,
    orbits,
)
from homgrow.cli import builtin_complex
from homgrow.errors import IdentityViolation
from homgrow.exact_linalg import IntMatrix, _fk_route
from homgrow.group_ring import (
    LaurentChainComplex,
    LaurentPoly,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    torus_complex,
)

MAPPING_TORUS = mapping_torus_complex(IntMatrix.from_rows([[2, 1], [1, 1]]))

# Every tower level the tier-1 tests run, per complex.
TOWER_LEVELS = [
    ("circle", circle_complex(), [(i,) for i in range(1, 65)]),
    ("torus2", torus_complex(2),
     [(1, 1), (2, 2), (3, 5), (4, 4), (8, 8), (16, 16)]),
    ("torus3", torus_complex(3),
     [(2, 2, 2), (4, 4, 2), (4, 4, 4), (8, 8, 4)]),
    ("mapping_torus", MAPPING_TORUS, [(i,) for i in range(1, 51)]),
    ("s1_cross", builtin_complex("s1_cross"), [(i,) for i in range(1, 13)]),
]


@pytest.mark.parametrize("name, C, levels", TOWER_LEVELS,
                         ids=[t[0] for t in TOWER_LEVELS])
def test_orbit_factors_match_regular_route(name, C, levels):
    for moduli in levels:
        level = base_change(C, QuotientSpec(moduli))
        regular = ChainAnalysis(level.complex)
        top = C.top_degree
        phis = [len(cyclotomic(d)) - 1 for d, _ in level.orbits]
        ranks = {0: [0] * len(phis), top + 1: [0] * len(phis)}
        for n in range(1, top + 1):
            factors = orbit_factors(C.gram_char_poly(n), level.orbits)
            assert [f for f, _, _ in factors] == phis
            square = math.prod(norm for _, _, norm in factors)
            assert square == regular.fk_differential(n).square_exact, \
                (moduli, n)
            ranks[n] = [r for _, r, _ in factors]
            assert sum(f * r for f, r in zip(phis, ranks[n])) \
                == regular.rank(n)
        for n in range(top + 1):
            betti = sum(f * (C.dim(n) - r_n - r_up) for f, r_n, r_up
                        in zip(phis, ranks[n], ranks[n + 1]))
            assert betti == regular.betti(n), (moduli, n)


def _per_orbit_factor(D, d, s):
    """(r, N(e_r)) of a Laurent matrix D at the orbit (d, s) by the route
    the Laurent coefficients replaced: M = D(chi) and its conjugate entry
    by entry over Z[x]/Phi_d, H = M^* M (or M M^*, the smaller) by
    cyclotomic dot products, and Berkowitz over Z[x]/Phi_d."""
    R = _Cyclotomic(d)

    def dot(u, v):
        out = [0] * (2 * R.f - 1)
        for a, b in zip(u, v):
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return R.reduce(out)

    def neg(a):
        return [-c for c in a]

    M = [[R.evaluate(p.terms, s) for p in row] for row in D]
    conj = tuple(-x for x in s)
    Mc = [[R.evaluate(p.terms, conj) for p in row] for row in D]
    if len(M[0]) <= len(M):
        H = [[dot(a, b) for b in zip(*M)] for a in zip(*Mc)]
    else:
        H = [[dot(a, b) for b in Mc] for a in M]
    one = [1] + [0] * (R.f - 1)
    p = [one]
    for k in range(len(H)):
        row = H[k][:k]
        items = [one, neg(H[k][k])]
        v = [H[i][k] for i in range(k)]
        for i in range(k):
            items.append(neg(dot(row, v)))
            if i < k - 1:
                v = [dot(H[t][:k], v) for t in range(k)]
        p = [dot([items[i - j] for j in range(min(i, k) + 1)],
                 p[:min(i, k) + 1]) for i in range(k + 2)]
    r = max(j for j, c in enumerate(p) if any(c))
    return r, R.norm(p[r] if r % 2 == 0 else neg(p[r]))


@st.composite
def _laurent_entries(draw, m):
    """0, a random Laurent polynomial, or +-x^e (x_j^a -+ 1), which
    vanishes only at the characters with zeta^(a s_j) = +-1."""
    kind = draw(st.sampled_from(["zero", "random", "cyclotomic"]))
    exponent = st.tuples(*[st.integers(-2, 2)] * m)
    if kind == "zero":
        return LaurentPoly.zero(m)
    if kind == "random":
        return LaurentPoly(m, draw(st.dictionaries(
            exponent, st.integers(-3, 3), min_size=1, max_size=3)))
    j, a = draw(st.integers(0, m - 1)), draw(st.integers(1, 3))
    e, sign = draw(exponent), draw(st.sampled_from([1, -1]))
    shifted = tuple(x + a * (k == j) for k, x in enumerate(e))
    return LaurentPoly(m, {shifted: sign, e: sign * draw(
        st.sampled_from([1, -1]))})


@st.composite
def _orbit_cases(draw):
    """A Laurent matrix of up to 3 x 4 over Z[Z^m], m in 1..3, with a
    repeated row (or column, when it has more rows) when `repeated`, and
    the moduli of a quotient of index at most 32."""
    m = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    D = [[draw(_laurent_entries(m)) for _ in range(cols)]
         for _ in range(rows)]
    repeated = draw(st.booleans()) and min(rows, cols) >= 2
    if repeated and rows <= cols:
        D[-1] = list(D[0])
    elif repeated:
        for row in D:
            row[-1] = row[0]
    moduli = []
    for _ in range(m):
        moduli.append(draw(st.integers(1, 32 // math.prod(moduli))))
    return D, tuple(moduli), repeated


@settings(max_examples=150, deadline=None)
@given(_orbit_cases())
def test_orbit_factor_matches_the_per_orbit_route(case):
    D, moduli, repeated = case
    E = LaurentChainComplex(len(moduli), [len(D), len(D[0])],
                            [D]).gram_char_poly(1)
    assert len(E) == min(len(D), len(D[0])) + 1
    if repeated:
        # H is singular over Z[Z^m]: the top coefficient vanishes
        # identically, and the scan starts below it
        assert not E[-1]
    for d, s in orbits(moduli):
        assert characters._orbit_factor(E, d, s) \
            == _per_orbit_factor(D, d, s), (d, s)


@pytest.mark.parametrize("moduli", [(1,), (12,), (4, 6), (2, 2, 2), (8, 8, 4),
                                    (3, 5, 1, 2)])
def test_orbits_partition_the_dual_group(moduli):
    # sum phi(d) over the orbits is the index, and the counts the rule uses
    # are those of the enumeration
    found = orbits(moduli)
    phis = [len(cyclotomic(d)) - 1 for d, _ in found]
    assert sum(phis) == math.prod(moduli)
    assert orbit_cost(moduli, 2) == sum(16 * f * f + f ** 3 for f in phis)
    assert len(set(found)) == len(found)


def test_char_poly_matches_sympy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        expected = Matrix(rows).charpoly().all_coeffs()
        assert char_poly(IntMatrix.from_rows(rows)) == expected
    assert char_poly(IntMatrix.zeros(0, 0)) == [1]


def test_cyclotomic_values():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    # Phi_105 is the first with a coefficient -2
    assert min(cyclotomic(105)) == -2


def _rule(C, moduli):
    """The FK route of each nonzero differential of a level."""
    an = base_change(C, QuotientSpec(moduli))
    return [_fk_route(an.complex.differential(n), an.rank(n),
                      orbit_cost(moduli, min(C.dim(n - 1), C.dim(n))))
            for n in range(1, C.top_degree + 1)]


@pytest.mark.parametrize("C, moduli", [
    (circle_complex(), (2,)), (circle_complex(), (512,)),
    (circle_complex(), (4096,)), (MAPPING_TORUS, (200,))],
    ids=["circle-2", "circle-512", "circle-4096", "mapping-torus-200"])
def test_rule_keeps_low_corank_levels_regular(C, moduli):
    assert "characters" not in _rule(C, moduli)


@pytest.mark.parametrize("m, moduli", [
    (3, (2, 2, 2)), (3, (4, 4, 4)), (2, (16, 16))])
def test_rule_takes_characters_on_tori(m, moduli):
    assert _rule(torus_complex(m), moduli) == ["characters"] * m


def test_rule_tie_breaks():
    # 2 x 2 of rank 1: the image route's 2 r^3 and the structure route's
    # 1^3 + 1^3 are both 2, and an orbit cost of 2 ties with them
    tie = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert _fk_route(tie, 1) == "structure"
    assert _fk_route(tie, 1, orbit_cost=2) == "structure"
    assert _fk_route(tie, 1, orbit_cost=1) == "characters"
    # 3 x 3 of rank 1: image 2 against structure 2^3 + 2^3
    cheap_image = IntMatrix.from_rows([[1, 1, 1]] * 3)
    assert _fk_route(cheap_image, 1) == "image"
    assert _fk_route(cheap_image, 1, orbit_cost=2) == "image"
    assert _fk_route(cheap_image, 1, orbit_cost=1) == "characters"


def _csv(C, moduli):
    report = growth.run_tower(C, [QuotientSpec(moduli)], primes=(2, 3))
    return serialize.tower_rows_to_csv(*serialize.tower_report_rows(report))


def test_torus4_level_same_csv_as_regular_route(monkeypatch):
    C = torus_complex(4)
    calls = []
    real = characters._orbit_factor
    monkeypatch.setattr(characters, "_orbit_factor",
                        lambda *a: calls.append(1) or real(*a))
    via_characters = _csv(C, (4, 2, 2, 2))
    assert calls
    monkeypatch.setattr(chain_complex, "_fk_route",
                        lambda A, r, cost: exact_linalg._fk_route(A, r))
    assert _csv(C, (4, 2, 2, 2)) == via_characters


def _plant(monkeypatch, change):
    """Replace the first orbit factor of every differential by change(r,
    norm)."""
    real = characters._orbit_factor

    def planted(matrix, d, s):
        r, norm = real(matrix, d, s)
        return change(r, norm) if s == (0, 0, 0) else (r, norm)
    monkeypatch.setattr(characters, "_orbit_factor", planted)


def test_planted_square_fails_the_laplacian_check(monkeypatch):
    _plant(monkeypatch, lambda r, norm: (r, 2 * norm))
    an = base_change(torus_complex(3), QuotientSpec((2, 2, 2)))
    with pytest.raises(IdentityViolation, match="Laplacian determinant"):
        rho_identity_from_analysis(an)


def test_planted_rank_fails_the_rank_check(monkeypatch):
    _plant(monkeypatch, lambda r, norm: (r + 1, norm))
    an = base_change(torus_complex(3), QuotientSpec((2, 2, 2)))
    with pytest.raises(IdentityViolation, match="character ranks"):
        an.fk_differential(2)
