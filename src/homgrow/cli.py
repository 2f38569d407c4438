"""Command-line front end.

    homgrow homology --example circle --levels 3
    homgrow tower --example mapping_torus:[[2,1],[1,1]] --levels 1,2,...,50
    homgrow verify --suite rho-identity --count 200

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import List, Optional, Sequence

from . import growth
from .corpus import SUITES, run_suite
from .errors import (
    DimensionMismatch,
    HomgrowError,
    NonSquareMatrix,
    ParseError,
)
from .exact_linalg import IntMatrix
from .group_ring import (
    LaurentChainComplex,
    QuotientSpec,
    circle_complex,
    mapping_torus_complex,
    tensor,
    torus_complex,
)
from .serialize import (
    load_complex,
    strict_int,
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
        return tensor(_sphere_complex(), circle_complex())
    if name.startswith("mapping_torus:"):
        try:
            data = json.loads(name.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad mapping torus matrix: {exc}") from exc
        if not (isinstance(data, list) and data
                and all(isinstance(row, list) for row in data)):
            raise ParseError("a mapping torus matrix is a nonempty list of "
                             f"integer rows, got {data!r}")
        rows = [[strict_int(x, "mapping torus entry") for x in row]
                for row in data]
        try:
            return mapping_torus_complex(IntMatrix.from_rows(rows))
        except (DimensionMismatch, NonSquareMatrix) as exc:
            raise ParseError(f"bad mapping torus matrix: {exc}") from exc
    raise ParseError(
        f"unknown example {name!r}; choose circle, torus2, torus3, s1_cross "
        f"or mapping_torus:[[a,b],[c,d]]")


# More levels than any tower could compute; checked before a range expands.
MAX_LEVELS = 10_000

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

# Largest --primes value, refused before the primality test: trial division
# of the prime 2^40 - 87 takes 0.085 s (CPython 3.11), of 10^18 + 3 over a
# minute.
MAX_PRIME = 2 ** 40


def _parse_levels(text: str) -> List[int]:
    out: List[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if ".." in tok:
                lo, hi = (int(x) for x in tok.split(".."))
            else:
                lo = hi = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad --levels token {tok!r}: {exc}") from exc
        if len(out) + max(0, hi - lo + 1) > MAX_LEVELS:
            raise ParseError(f"--levels gives more than {MAX_LEVELS} levels")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ParseError("--levels must be nonempty")
    return out


def _laurent_terms(C: LaurentChainComplex) -> int:
    """Laurent terms over all differentials of C."""
    return sum(len(p.terms) for D in C.differentials for row in D for p in row)


def _parse_moduli_pattern(pattern: Optional[str], C: LaurentChainComplex,
                          level: int, terms: int) -> QuotientSpec:
    """The quotient of one level; `terms` is `_laurent_terms(C)`."""
    m = C.m
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
        spec = QuotientSpec(tuple(moduli))
    except DimensionMismatch as exc:
        raise ParseError(f"bad quotient {tuple(moduli)}: {exc}") from exc
    if spec.index * max(C.dims, default=0) > MAX_ROWS:
        raise ParseError(
            f"quotient {spec.moduli} of index {spec.index} gives more than "
            f"{MAX_ROWS} rows")
    if spec.index * terms > MAX_NONZEROS:
        raise ParseError(
            f"quotient {spec.moduli} of index {spec.index} gives more than "
            f"{MAX_NONZEROS} nonzeros ({terms} Laurent terms)")
    return spec


def _check_levels_used(args, tower: bool = False) -> None:
    """Refuse a --moduli-pattern with no i token to read the level: when
    --levels is given, and for a tower always, since its levels would all
    give the same quotient."""
    pattern = args.moduli_pattern
    if pattern is None or "i" in (t.strip() for t in pattern.split(",")):
        return
    if args.levels is not None:
        raise ParseError(f"--levels is unused: --moduli-pattern "
                         f"{pattern!r} has no i token")
    if tower:
        raise ParseError(f"--moduli-pattern {pattern!r} has no i token, so "
                         f"every tower level gives the same quotient")


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
        if p > MAX_PRIME:
            raise ParseError(f"--primes value {p} is above {MAX_PRIME}")
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ParseError(f"{p} is not prime")
        if p in out:
            raise ParseError(f"--primes repeats {p}")
        out.append(p)
    if not out:
        raise ParseError("--primes must be nonempty")
    return out


def _check_out(path: Optional[str]) -> None:
    """Refuse an --out path that cannot be written before any computation
    starts.  Nothing is opened here, so an existing file keeps its contents
    until the result exists."""
    if not path:
        return
    if os.path.isdir(path):
        raise ParseError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ParseError(f"cannot write {path}: no directory {parent}")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ParseError(f"cannot write {path}: permission denied")


def _write_out(payload: str, path: Optional[str]) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_homology(args) -> int:
    _check_out(args.out)
    C = _load_input(args)
    levels = _parse_levels(args.levels) if args.levels else [1]
    if len(levels) != 1:
        raise ParseError("homology takes a single quotient level")
    if C.m == 0 and (args.levels is not None
                     or args.moduli_pattern is not None):
        raise ParseError("--levels and --moduli-pattern need a "
                         "group-ring complex (m >= 1)")
    spec = _parse_moduli_pattern(args.moduli_pattern, C, levels[0],
                                 _laurent_terms(C))
    _check_levels_used(args)
    primes = _primes(args.primes)
    # one tower level: raises unless the rho identity holds exactly and
    # every Lambda bound holds
    lv = growth.run_tower(C, [spec], primes=primes).levels[0]
    report = {
        "moduli": list(lv.moduli),
        "index": lv.index,
        "dims": [d * lv.index for d in C.dims],
        "degrees": [
            {
                "degree": n,
                "betti_q": lv.betti_q[n],
                "invariant_factors": list(lv.invariant_factors[n]),
                "tors_order": str(lv.tors_order[n]),
                "ln_tors": repr(lv.ln_tors[n]),
                "d_hn": lv.d_hn[n],
                "betti_mod_p": {str(p): lv.betti_mod_p[p][n] for p in primes},
                "ln_det_alpha": repr(lv.ln_det_alpha[n]),
            }
            for n in range(C.top_degree + 1)
        ],
        "rho_z": repr(lv.rho_z),
        "rho_2": repr(lv.rho_2),
    }
    _write_out(json.dumps(report, sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def cmd_tower(args) -> int:
    _check_out(args.out)
    C = _load_input(args)
    if C.m == 0:
        raise ParseError("tower needs a group-ring complex (m >= 1)")
    levels = _parse_levels(args.levels) if args.levels else [1, 2, 4, 8]
    terms = _laurent_terms(C)
    specs = [_parse_moduli_pattern(args.moduli_pattern, C, i, terms)
             for i in levels]
    _check_levels_used(args, tower=True)
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


def suite_rng(seed: int, name: str) -> random.Random:
    """The generator suite `name` draws from under --seed `seed`.  Each suite
    has its own, so a suite draws the same instances whether it runs alone
    (--suite) or after the others."""
    return random.Random(f"{seed}:{name}")


def cmd_verify(args) -> int:
    if args.count is not None and args.count < 1:
        raise ParseError(f"--count must be positive, got {args.count}")
    if args.suite is not None and args.suite not in SUITES:
        raise ParseError(f"unknown suite {args.suite!r}; choose from "
                         f"{', '.join(SUITES)}")
    failed = False
    for name in [args.suite] if args.suite else list(SUITES):
        ran, failures = run_suite(name, suite_rng(args.seed, name), args.count)
        for msg in failures:
            print(f"  {name} FAILED: {msg}")
        failed = failed or bool(failures)
        status = "FAILED" if failures else "ok"
        print(f"{name}: {ran - len(failures)}/{ran} passed [{status}]")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


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
