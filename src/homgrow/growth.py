"""Tower experiments: normalized invariants along finite quotient towers.

`run_tower` drives the full pipeline over a list of quotient levels and
collects, per level and degree, the normalized Betti numbers, minimal
generator counts, torsion logs, Fuglede-Kadison determinant logs and alpha
logs, plus the per-level integral and L2 torsion.  Every value the a-priori
boundedness lemma controls is checked against its explicit constant
Lambda = 4 * sum_n max(ln K_n, 1) * dim_ZG(C_n).

The probes evaluate the alpha-vanishing statement on towers with rationally
trivial deck action, mapping-torus torsion growth against the closed
determinant/Mahler-measure oracles, and the closed rank-gradient formulas of
the free-product example family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .chain_complex import (
    MAX_PRIME,
    check_primes,
    homology_from_analysis,
    rho_identity_from_analysis,
)
from .characters import char_poly
from .errors import (
    DegenerateLevel,
    HypothesisViolated,
    IdentityViolation,
    InconsistentProfile,
)
from .exact_linalg import (
    IntMatrix,
    _exact_int,
    det_bareiss,
    ln_of_fraction,
)
from .group_ring import (
    LaurentChainComplex,
    QuotientSpec,
    base_change,
    mapping_torus_complex,
    operator_norm_bound,
)

__all__ = [
    "TowerLevel",
    "TowerReport",
    "run_tower",
    "check_primes",
    "MAX_PRIME",
    "MAX_ROWS",
    "MAX_NONZEROS",
    "bound_lambda",
    "probe_alpha_vanishing",
    "probe_torsion_growth",
    "rank_gradient_example",
]


@dataclass
class TowerLevel:
    """All computed invariants of one quotient level."""
    moduli: tuple
    index: int
    betti_q: List[int]
    betti_mod_p: Dict[int, List[int]]
    d_hn: List[int]
    tors_order: List[int]
    invariant_factors: List[tuple]
    ln_tors: List[float]
    ln_det_c: List[float]
    ln_det_alpha: List[float]
    rho_z: float
    rho_2: float


# Most rows, index x largest rank, a quotient complex may have; checked
# before base change builds the row dicts.
# 16x the largest tower level measured (circle at index 65536: 6.4 s and
# 175 MiB RSS, CPython 3.11); time and memory grow about linearly in the
# index.
MAX_ROWS = 2 ** 20

# Most nonzeros, index x Laurent terms over all differentials, base change
# may store: every term of an entry puts one nonzero in each of its index
# rows.  8x the row cap is the least power-of-two multiple that admits every
# torus3 level the row cap admits (349525 x 24 terms).  Measured with one
# 64-term entry (m = 1, CPython 3.11): `homology` at index 4096 (2^18
# nonzeros) took 12.2 s and 141 MiB RSS, and base change alone at 2^20
# nonzeros 0.27 s and 84 MiB.  Both grow about linearly, so a document at the
# cap needs several minutes and about 4 GiB; the cap itself was not run.
MAX_NONZEROS = 8 * MAX_ROWS


# TowerLevel fields holding one value per degree, read by TowerReport.series.
_SERIES_FIELDS = ("betti_q", "d_hn", "ln_tors", "ln_det_c", "ln_det_alpha")


@dataclass
class TowerReport:
    levels: List[TowerLevel]
    max_degree: int
    primes: tuple
    lam: float
    tail_estimates: Dict[str, list] = field(default_factory=dict)
    cauchy_flags: Dict[str, list] = field(default_factory=dict)

    def series(self, key: str, degree: int) -> List[float]:
        """Normalized sequence of one invariant (a `_SERIES_FIELDS` name or
        `betti_p_<p>`) along the tower."""
        if key.startswith("betti_p_"):
            p = int(key.split("_")[-1])
            return [lv.betti_mod_p[p][degree] / lv.index for lv in self.levels]
        if key not in _SERIES_FIELDS:
            raise KeyError(key)
        return [getattr(lv, key)[degree] / lv.index for lv in self.levels]


def bound_lambda(C: LaurentChainComplex) -> float:
    """Explicit a-priori constant: 4 sum_n max(ln K_n, 1) dim_ZG(C_n).

    K_n is the l1 operator-norm bound of c_n; degrees without a differential
    contribute the floor value 1.
    """
    total = 0.0
    for n in range(C.top_degree + 1):
        if n >= 1:
            k_n = operator_norm_bound(C.differential(n))
            weight = max(math.log(k_n), 1.0) if k_n > 0 else 1.0
        else:
            weight = 1.0
        total += weight * C.dim(n)
    return 4.0 * total


def _check_level_bounds(level: TowerLevel, lam: float, max_degree: int) -> None:
    idx = level.index
    for n in range(max_degree + 1):
        if not (0 <= level.d_hn[n] / idx <= lam + 1e-9):
            raise IdentityViolation(
                f"d(H_{n})/index = {level.d_hn[n] / idx} outside [0, {lam}]")
        if not (-1e-12 <= level.ln_tors[n] / idx <= lam + 1e-9):
            raise IdentityViolation(
                f"ln|tors H_{n}|/index outside [0, {lam}]")
        if not (-1e-12 <= level.ln_det_c[n] / idx <= lam + 1e-9):
            raise IdentityViolation(
                f"ln det c_{n}/index outside [0, {lam}]")
        if abs(level.ln_det_alpha[n] / idx) > lam + 1e-9:
            raise IdentityViolation(
                f"|ln det alpha_{n}|/index exceeds {lam}")


def _analyze_level(C: LaurentChainComplex, spec: QuotientSpec,
                   primes: Sequence[int], max_degree: int) -> TowerLevel:
    qc = base_change(C, spec)
    an = qc.analysis
    top = qc.complex.top_degree
    d = min(max_degree, top)
    summary = homology_from_analysis(an, primes)
    # exact levelwise identity rho_Z - rho_2 = alternating alpha sum
    ident = rho_identity_from_analysis(an)
    rz, r2, alpha = ident["rho_Z"], ident["rho_2"], ident["alpha"]
    ln_det_c = [0.0]
    for n in range(1, d + 1):
        ln_det_c.append(an.fk_differential(n).log_value)
    return TowerLevel(
        moduli=spec.moduli,
        index=spec.index,
        betti_q=summary.betti_q[: d + 1],
        betti_mod_p={p: col[: d + 1] for p, col in summary.betti_mod_p.items()},
        d_hn=summary.d_hn[: d + 1],
        tors_order=summary.tors_order[: d + 1],
        invariant_factors=summary.invariant_factors[: d + 1],
        ln_tors=summary.log_tors[: d + 1],
        ln_det_c=ln_det_c,
        ln_det_alpha=alpha.log_det_alpha[: d + 1],
        rho_z=rz,
        rho_2=r2,
    )


def _aitken_tail(values: List[float]) -> float:
    """Final value plus an Aitken delta-squared tail correction."""
    if len(values) < 3:
        return values[-1]
    a0, a1, a2 = values[-3], values[-2], values[-1]
    denom = (a2 - a1) - (a1 - a0)
    if abs(denom) < 1e-15:
        return a2
    return a2 - (a2 - a1) ** 2 / denom


def run_tower(C: LaurentChainComplex, levels: Sequence[QuotientSpec],
              primes: Sequence[int] = (2,), max_degree: Optional[int] = None,
              jobs: int = 1) -> TowerReport:
    """Compute the full invariant table along a tower of quotients.

    Levels, at least one, must each have the arity m of C, at most
    `MAX_ROWS` rows and `MAX_NONZEROS` nonzeros, and together strictly
    increasing index, primes must pass `check_primes`, max_degree
    must be a nonnegative int and jobs a positive int (bools refused); else
    `DegenerateLevel` is raised before any level runs.  Levels are
    independent and may be computed concurrently; the report is merged in
    level order, so the output does not depend on scheduling.
    """
    levels = list(levels)
    if not levels:
        raise DegenerateLevel("a tower needs at least one level")
    terms = sum(len(p.terms) for D in C.differentials for row in D for p in row)
    for spec in levels:
        if spec.m != C.m:
            raise DegenerateLevel(f"level {spec.moduli} has arity {spec.m}, "
                                  f"the complex has m = {C.m}")
        if spec.index * max(C.dims, default=0) > MAX_ROWS:
            raise DegenerateLevel(
                f"quotient {spec.moduli} of index {spec.index} gives more "
                f"than {MAX_ROWS} rows")
        if spec.index * terms > MAX_NONZEROS:
            raise DegenerateLevel(
                f"quotient {spec.moduli} of index {spec.index} gives more "
                f"than {MAX_NONZEROS} nonzeros ({terms} Laurent terms)")
    for a, b in zip(levels, levels[1:]):
        if b.index <= a.index:
            raise DegenerateLevel("tower levels must have increasing index")
    check_primes(primes)
    if max_degree is None:
        max_degree = C.top_degree
    if isinstance(max_degree, bool) or not isinstance(max_degree, int) \
            or max_degree < 0:
        raise DegenerateLevel(
            f"max_degree must be a nonnegative int, got {max_degree!r}")
    max_degree = min(max_degree, C.top_degree)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise DegenerateLevel(f"jobs must be a positive int, got {jobs!r}")
    lam = bound_lambda(C)

    if jobs > 1 and len(levels) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(
                lambda s: _analyze_level(C, s, primes, max_degree), levels))
    else:
        results = [_analyze_level(C, s, primes, max_degree) for s in levels]

    report = TowerReport(results, max_degree, tuple(primes), lam)
    for lv in results:
        _check_level_bounds(lv, lam, max_degree)
    keys = list(_SERIES_FIELDS) + [f"betti_p_{p}" for p in primes]
    for key in keys:
        tails = []
        flags = []
        for n in range(max_degree + 1):
            seq = report.series(key, n)
            tails.append(_aitken_tail(seq))
            if len(seq) >= 3:
                flags.append(abs(seq[-1] - seq[-2]) <= abs(seq[-2] - seq[-3]) + 1e-12)
            else:
                flags.append(True)
        report.tail_estimates[key] = tails
        report.cauchy_flags[key] = flags
    return report


def probe_alpha_vanishing(C: LaurentChainComplex,
                          levels: Sequence[QuotientSpec], n: int,
                          tail_threshold: float = 5e-3) -> dict:
    """|ln det alpha_n| / index along the tower, with hypothesis checks.

    Requires the deck action on Q tensor H_n(C[i]) to be trivial at every
    level (`ChainAnalysis.rationally_trivial`); asserts that the tail of
    the sequence does not increase and that the final value is below the
    threshold.
    """
    rows = []
    for spec in levels:
        an = base_change(C, spec).analysis
        if not an.rationally_trivial(n):
            raise HypothesisViolated(
                f"deck action nontrivial on Q tensor H_{n} at level {spec.moduli}")
        sq = an.alpha_square(n)
        val = abs(0.5 * ln_of_fraction(sq)) / spec.index
        rows.append({"moduli": spec.moduli, "index": spec.index,
                     "normalized_abs_log": val})
    vals = [r["normalized_abs_log"] for r in rows]
    tail = vals[len(vals) // 2:]
    for a, b in zip(tail, tail[1:]):
        if b > a + 1e-12:
            raise IdentityViolation(
                f"alpha sequence tail increases: {a} -> {b}")
    if vals and vals[-1] > tail_threshold:
        raise IdentityViolation(
            f"final normalized alpha log {vals[-1]} above {tail_threshold}")
    return {"degree": n, "levels": rows, "final": vals[-1] if vals else 0.0}


def probe_torsion_growth(A: IntMatrix, levels: Sequence[int]) -> dict:
    """Mapping-torus torsion growth against the determinant oracle.

    Per level i: |tors H_0| of the base-changed mapping torus must equal
    |det(A^i - I)| exactly; the normalized logs are compared with the Mahler
    measure of the characteristic polynomial.  Levels with det(A^i - I) = 0
    are skipped and flagged.
    """
    C = mapping_torus_complex(A)
    mahler = _mahler_measure_log(A)
    rows = []
    for i in levels:
        det = _det_power_minus_identity(A, i)
        if det == 0:
            rows.append({"level": i, "degenerate": True})
            continue
        qc = base_change(C, QuotientSpec((i,)))
        t = qc.analysis.tors_order(0)
        if t != abs(det):
            raise IdentityViolation(
                f"|tors H_0| = {t} differs from |det(A^{i} - I)| = {abs(det)}")
        ln_t = ln_of_fraction(Fraction(t)) if t > 1 else 0.0
        rows.append({
            "level": i,
            "degenerate": False,
            "tors_order": t,
            "ln_tors_per_index": ln_t / i,
            "oracle_per_index": ln_of_fraction(Fraction(abs(det))) / i if det else 0.0,
            "mahler_gap": abs(ln_t / i - mahler),
        })
    return {"matrix": A.to_lists(), "mahler_log": mahler, "levels": rows}


def _det_power_minus_identity(A: IntMatrix, i: int) -> int:
    P = IntMatrix.identity(A.rows)
    for _ in range(i):
        P = A @ P
    return det_bareiss((P - IntMatrix.identity(A.rows)).to_lists())


def _mahler_measure_log(A: IntMatrix) -> float:
    """ln M(char poly A) = sum of max(ln|root|, 0) (monic integer poly)."""
    import numpy as np
    coeffs = char_poly(A)
    roots = np.roots([float(c) for c in coeffs])
    return float(sum(max(math.log(abs(r)), 0.0) for r in roots if abs(r) > 0))


def rank_gradient_example(profile: Sequence[int],
                          levels: Sequence[int]) -> dict:
    """Closed formulas for G = Z * H along the index-i preimage tower.

    `profile` is (b1_Q, b1_Fp, d_H1, d_H) for the free factor H.  Per level:
    b_1(G_i; K) = 1 + i b_1(H; K), d(H_1(G_i)) = 1 + i d(H_1(H)) and
    d(G_i) = 1 + i d(H); the limits are b_1(H;K), d(H_1(H)) and the rank
    gradient d(H).  A profile without four entries raises
    `InconsistentProfile`, `_exact_int` refuses a float, string or bool
    entry or level, and a level below 1 raises `DegenerateLevel`.
    """
    if len(profile) != 4:
        raise InconsistentProfile(
            f"profile must have four entries, got {tuple(profile)}")
    b1q, b1p, d_h1, d_h = map(_exact_int, profile)
    levels = [_exact_int(i) for i in levels]
    if any(i < 1 for i in levels):
        raise DegenerateLevel(f"levels must be at least 1, got {levels}")
    if not (0 <= b1q <= b1p <= d_h1 <= d_h):
        raise InconsistentProfile(
            f"profile must satisfy b1_Q <= b1_Fp <= d_H1 <= d_H, got {profile}")
    rows = []
    for i in levels:
        rows.append({
            "level": i,
            "b1_Q": 1 + i * b1q,
            "b1_Fp": 1 + i * b1p,
            "d_H1": 1 + i * d_h1,
            "d_G": 1 + i * d_h,
            "b1_Q_per_index": Fraction(1 + i * b1q, i),
            "b1_Fp_per_index": Fraction(1 + i * b1p, i),
            "d_H1_per_index": Fraction(1 + i * d_h1, i),
            "rank_gradient_term": Fraction((1 + i * d_h) - 1, i),
        })
    limits = {
        "b1_Q": b1q,
        "b1_Fp": b1p,
        "d_H1": d_h1,
        "rank_gradient": d_h,
    }
    strict = b1q < b1p < d_h1 < d_h
    return {"profile": tuple(profile), "levels": rows, "limits": limits,
            "strict_chain": strict}
