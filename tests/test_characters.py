"""The character-orbit route for the FK squares of tower differentials.

The oracle is the regular route: `ChainAnalysis` of the base-changed
integer complex without a character split, so `_fk_route` sends its FK
squares to the Gram routes.
"""

import math
import random

import pytest
from sympy import Matrix

from homgrow import characters, chain_complex, exact_linalg, growth, serialize
from homgrow.chain_complex import ChainAnalysis, rho_identity_from_analysis
from homgrow.characters import (
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
            factors = orbit_factors(C.differential(n), level.orbits)
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
