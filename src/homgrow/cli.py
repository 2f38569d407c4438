"""Command-line front end.

    homgrow homology --example circle --levels 3
    homgrow tower --example mapping_torus:[[2,1],[1,1]] --levels 1,2,...,50
    homgrow verify --suite rho-identity --count 200

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional, Sequence

from . import growth
from .chain_complex import (
    ChainAnalysis,
    alpha_from_analysis,
    homology_from_analysis,
    rho_2_exact,
    rho_Z_exact,
)
from .errors import (
    DimensionMismatch,
    HomgrowError,
    IdentityViolation,
    NonSquareMatrix,
    ParseError,
)
from .exact_linalg import IntMatrix, fk_factorization_check
from .group_ring import (
    LaurentChainComplex,
    QuotientSpec,
    base_change,
    circle_complex,
    mapping_torus_complex,
    product_with_circle,
    torus_complex,
)
from .serialize import (
    int_complex_from_laurent,
    load_complex,
    tower_report_json,
    tower_report_rows,
    tower_rows_to_csv,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _sphere_complex() -> LaurentChainComplex:
    """m = 0 model of S^2: Z in degrees 0 and 2."""
    return LaurentChainComplex(0, [1, 0, 1], [[[]], []])


def builtin_complex(name: str) -> LaurentChainComplex:
    if name == "circle":
        return circle_complex()
    if name == "torus2":
        return torus_complex(2)
    if name == "torus3":
        return torus_complex(3)
    if name == "s1_cross":
        return product_with_circle(_sphere_complex())
    if name.startswith("mapping_torus:"):
        try:
            data = json.loads(name.split(":", 1)[1])
            A = IntMatrix.from_rows([[int(x) for x in row] for row in data])
            return mapping_torus_complex(A)
        except (ValueError, TypeError, IndexError, DimensionMismatch,
                NonSquareMatrix) as exc:
            raise ParseError(f"bad mapping torus matrix: {exc}") from exc
    raise ParseError(
        f"unknown example {name!r}; choose circle, torus2, torus3, s1_cross "
        f"or mapping_torus:[[a,b],[c,d]]")


def _parse_levels(text: str) -> List[int]:
    out: List[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if ".." in tok:
                lo, hi = tok.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(tok))
        except ValueError as exc:
            raise ParseError(f"bad --levels token {tok!r}: {exc}") from exc
    if not out:
        raise ParseError("--levels must be nonempty")
    return out


def _parse_moduli_pattern(pattern: Optional[str], m: int,
                          level: int) -> QuotientSpec:
    if pattern is None:
        tokens = ["i"] * m
    else:
        tokens = [t.strip() for t in pattern.split(",")]
    if len(tokens) != m:
        raise ParseError(
            f"--moduli-pattern has {len(tokens)} entries, complex has m = {m}")
    moduli = []
    for t in tokens:
        if t == "i":
            moduli.append(level)
        else:
            try:
                moduli.append(int(t))
            except ValueError as exc:
                raise ParseError(f"bad moduli token {t!r}") from exc
    try:
        return QuotientSpec(tuple(moduli))
    except DimensionMismatch as exc:
        raise ParseError(f"bad quotient {tuple(moduli)}: {exc}") from exc


def _load_input(args) -> LaurentChainComplex:
    if args.example and args.input:
        raise ParseError("give either --input or --example, not both")
    if args.example:
        return builtin_complex(args.example)
    if args.input:
        return load_complex(args.input)
    raise ParseError("one of --input or --example is required")


def _primes(text: str) -> List[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            p = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad --primes token {tok!r}") from exc
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ParseError(f"{p} is not prime")
        out.append(p)
    if not out:
        raise ParseError("--primes must be nonempty")
    return out


def _write_out(payload: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_homology(args) -> int:
    C = _load_input(args)
    levels = _parse_levels(args.levels) if args.levels else [1]
    if len(levels) != 1:
        raise ParseError("homology takes a single quotient level")
    if C.m == 0:
        cx = int_complex_from_laurent(C)
        index = 1
        moduli = ()
    else:
        spec = _parse_moduli_pattern(args.moduli_pattern, C.m, levels[0])
        cx = base_change(C, spec).complex
        index = spec.index
        moduli = spec.moduli
    primes = _primes(args.primes)
    an = ChainAnalysis(cx)
    summary = homology_from_analysis(an, primes)
    alpha = alpha_from_analysis(an)
    rz, _ = rho_Z_exact(an)
    r2, _ = rho_2_exact(an)
    report = {
        "moduli": list(moduli),
        "index": index,
        "dims": cx.dims,
        "degrees": [
            {
                "degree": n,
                "betti_q": summary.betti_q[n],
                "invariant_factors": list(summary.invariant_factors[n]),
                "tors_order": str(summary.tors_order[n]),
                "ln_tors": repr(summary.log_tors[n]),
                "d_hn": summary.d_hn[n],
                "betti_mod_p": {str(p): summary.betti_mod_p[p][n]
                                for p in primes},
                "ln_det_alpha": repr(alpha.log_det_alpha[n]),
            }
            for n in range(cx.top_degree + 1)
        ],
        "rho_z": repr(rz),
        "rho_2": repr(r2),
    }
    _write_out(json.dumps(report, sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def cmd_tower(args) -> int:
    C = _load_input(args)
    if C.m == 0:
        raise ParseError("tower needs a group-ring complex (m >= 1)")
    levels = _parse_levels(args.levels) if args.levels else [1, 2, 4, 8]
    specs = [_parse_moduli_pattern(args.moduli_pattern, C.m, i)
             for i in levels]
    if any(b.index <= a.index for a, b in zip(specs, specs[1:])):
        raise ParseError("--levels must give quotients of increasing index")
    if args.max_degree is not None and args.max_degree < 0:
        raise ParseError(f"--max-degree must be nonnegative, got "
                         f"{args.max_degree}")
    if args.jobs < 1:
        raise ParseError(f"--jobs must be positive, got {args.jobs}")
    primes = _primes(args.primes)
    report = growth.run_tower(C, specs, primes=primes,
                              max_degree=args.max_degree, jobs=args.jobs)
    if args.format == "csv":
        header, rows = tower_report_rows(report)
        payload = tower_rows_to_csv(header, rows)
    else:
        payload = tower_report_json(report)
    _write_out(payload, args.out)
    return EXIT_OK


# -- verify suites -----------------------------------------------------------

def _suite_rho_identity(rng, count, log):
    from .chain_complex import verify_rho_identity
    from .corpus import random_complex
    fails = 0
    for _ in range(count):
        C = random_complex(rng)
        try:
            verify_rho_identity(C)
        except IdentityViolation as exc:
            fails += 1
            log(f"  rho identity FAILED: {exc}")
    return count, fails


def _suite_fk_factorization(rng, count, log):
    from .corpus import random_int_matrix
    fails = 0
    for _ in range(count):
        A = random_int_matrix(rng, max_dim=6, bound=5)
        try:
            fk_factorization_check(A)
        except IdentityViolation as exc:
            fails += 1
            log(f"  FK factorization FAILED on {A.to_lists()}: {exc}")
    return count, fails


def _suite_mg_laws(rng, count, log):
    from .chain_complex import d_of_abelian_group, d_primewise
    from .corpus import d_bruteforce, random_finite_group_factors
    fails = 0
    done = 0
    while done < count:
        facs = random_finite_group_factors(rng, max_order=200, max_rank=3)
        formula = d_primewise(facs, 0)
        if formula > 3:
            continue
        bf = d_bruteforce(facs, limit=4)
        if bf != formula:
            fails += 1
            log(f"  d-law FAILED on {facs}: search {bf}, formula {formula}")
        done += 1
    return count, fails


def _suite_group_homology(rng, count, log):
    from math import comb
    from .chain_complex import d_of_abelian_group
    from .corpus import random_module_with_action
    from .finite_homology import FinAbGroup, group_homology
    fails = 0
    done = 0
    while done < count:
        orders = rng.choice([(2,), (3,), (4,), (2, 2), (8,), (2, 4), (16,), (9,)])
        G = FinAbGroup.from_orders(orders)
        M = random_module_with_action(rng, G.factors)
        free_m, facs_m = M.structure()
        dM = d_of_abelian_group(facs_m, free_m)
        if dM > 3:
            continue
        m = G.d
        ok = True
        for n in range(0, 5):
            free_h, facs_h = group_homology(G, M, n)
            if n == 0:
                continue
            d_n = comb(n + m - 1, m - 1)
            order_h = 1
            for d in facs_h:
                order_h *= d
            if free_h != 0 or any(G.order % d for d in facs_h):
                ok = False
            if order_h > G.order ** (d_n * dM):
                ok = False
            if d_of_abelian_group(facs_h, 0) > d_n * dM:
                ok = False
        if not ok:
            fails += 1
            log(f"  group homology bounds FAILED for G={G.factors}")
        done += 1
    return count, fails


def _suite_mu_nu(rng, count, log):
    from .corpus import random_nilpotent_module
    from .finite_homology import (
        augmentation_filtration,
        coinvariants,
        nu_kernel_cokernel,
        verify_estimate_bounds,
    )
    fails = 0
    done = 0
    while done < count:
        orders = rng.choice([(2,), (4,), (2, 2)])
        M = random_nilpotent_module(rng, orders)
        try:
            coinvariants(M)
        except IdentityViolation as exc:
            fails += 1
            log(f"  mu bounds FAILED: {exc}")
        done += 1
    # nu + estimate bounds on the small quotient-complex corpus
    complexes = [
        (circle_complex(), (2,), 1, 1),
        (circle_complex(), (4,), 1, 1),
        (torus_complex(2), (2, 2), 1, 2),
        (mapping_torus_complex(IntMatrix.from_rows([[3]])), (2,), 3, 1),
    ]
    for C, moduli, r, d in complexes:
        qc = base_change(C, QuotientSpec(moduli))
        try:
            for n in range(d + 1):
                nu_kernel_cokernel(qc, n)
            verify_estimate_bounds(qc, r=r, d=d)
        except HomgrowError as exc:
            fails += 1
            log(f"  nu/estimate FAILED on {moduli}: {exc}")
    return count + len(complexes), fails


def _suite_filtration(rng, count, log):
    from .corpus import filtration_length_oracle, random_nilpotent_module
    from .finite_homology import augmentation_filtration
    fails = 0
    done = 0
    while done < count:
        orders = rng.choice([(2,), (4,), (2, 2)])
        M = random_nilpotent_module(rng, orders)
        nil, length = augmentation_filtration(M)
        oracle = filtration_length_oracle(M, max_order=64)
        if oracle is None:
            continue
        if not nil or length != oracle:
            fails += 1
            log(f"  filtration FAILED: index {length}, search {oracle}")
        done += 1
    return count, fails


_SUITES = {
    "rho-identity": (_suite_rho_identity, 200),
    "fk-factorization": (_suite_fk_factorization, 500),
    "mg-laws": (_suite_mg_laws, 100),
    "group-homology": (_suite_group_homology, 60),
    "mu-nu-estimate": (_suite_mu_nu, 40),
    "filtration": (_suite_filtration, 25),
}


def cmd_verify(args) -> int:
    if args.count is not None and args.count < 1:
        raise ParseError(f"--count must be positive, got {args.count}")
    rng = random.Random(args.seed)
    names = [args.suite] if args.suite else list(_SUITES)
    for name in names:
        if name not in _SUITES:
            raise ParseError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(_SUITES)}")
    total_fails = 0
    for name in names:
        fn, default_count = _SUITES[name]
        count = args.count if args.count else default_count
        ran, fails = fn(rng, count, lambda msg: print(msg))
        total_fails += fails
        status = "ok" if fails == 0 else "FAILED"
        print(f"{name}: {ran - fails}/{ran} passed [{status}]")
    return EXIT_OK if total_fails == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homgrow",
        description="Homological growth invariants along finite quotient towers")
    sub = ap.add_subparsers(dest="command", required=True)

    def complex_args(p):
        p.add_argument("--input", help="chain complex JSON document")
        p.add_argument("--example", help="builtin example name")
        p.add_argument("--levels", help="comma-separated level scales")
        p.add_argument("--moduli-pattern", dest="moduli_pattern",
                       help="per-variable moduli, 'i' for the level scale")
        p.add_argument("--primes", default="2,3,5",
                       help="primes for mod-p Betti numbers")
        p.add_argument("--out", help="output path (default stdout)")

    p_hom = sub.add_parser("homology", help="single complex or quotient level")
    complex_args(p_hom)
    p_tow = sub.add_parser("tower", help="full tower experiment")
    complex_args(p_tow)
    p_tow.add_argument("--max-degree", dest="max_degree", type=int,
                       default=None)
    p_tow.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tow.add_argument("--jobs", type=int, default=1)
    p_ver = sub.add_parser("verify", help="run the lemma verification suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--suite", help="run a single suite")
    p_ver.add_argument("--count", type=int, default=None,
                       help="override instance count")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "homology":
            return cmd_homology(args)
        if args.command == "tower":
            return cmd_tower(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise ParseError(f"unknown command {args.command}")
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HomgrowError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
