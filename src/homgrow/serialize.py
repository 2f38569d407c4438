"""JSON document schema for chain complexes and report serialization.

The shared complex document is

    {"m": int, "top_degree": int, "dims": [int, ...],
     "differentials": [matrix, ...]}

with one matrix per differential c_n (n = 1..top), each matrix a list of
rows, each row a list of entries, and each entry a list of terms
{"exp": [e_1, ..., e_m], "coef": "<decimal integer string>"}.  Coefficients
travel as strings so arbitrary precision survives the round trip.  m = 0
encodes a plain integer chain complex (every exponent list empty).
"""

from __future__ import annotations

import json
import re

from .errors import InvalidComplex, ParseError
from .group_ring import LaurentChainComplex, LaurentPoly

__all__ = [
    "complex_to_document",
    "complex_from_document",
    "load_complex",
    "dump_complex",
    "strict_int",
    "tower_report_rows",
    "tower_rows_to_csv",
]


def complex_to_document(C: LaurentChainComplex) -> dict:
    diffs = []
    for n in range(1, C.top_degree + 1):
        mat = C.differential(n)
        rows = []
        for row in mat:
            out_row = []
            for p in row:
                out_row.append([
                    {"exp": list(e), "coef": str(c)}
                    for e, c in sorted(p.terms.items())
                ])
            rows.append(out_row)
        diffs.append(rows)
    return {
        "m": C.m,
        "top_degree": C.top_degree,
        "dims": list(C.dims),
        "differentials": diffs,
    }


_DECIMAL_INTEGER = re.compile(r"[+-]?[0-9]+")


def strict_int(value, what: str, allow_str: bool = False) -> int:
    """`value` if it is an int (not a bool); with `allow_str`, also a
    decimal-integer string.  Anything else, such as 1.9 or true, raises
    ParseError instead of being truncated or coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if allow_str and isinstance(value, str) and _DECIMAL_INTEGER.fullmatch(value):
        try:
            return int(value)
        except ValueError as exc:       # beyond the str -> int digit limit
            raise ParseError(f"{what}: {exc}") from exc
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _require_list(value, length, what: str, items: str) -> None:
    """ParseError unless `value` is a list, of `length` items if given."""
    if not isinstance(value, list):
        raise ParseError(f"{what}: expected a list of {items}, got {value!r}")
    if length is not None and len(value) != length:
        raise ParseError(
            f"{what}: {len(value)} {items}, expected {length}")


def _int_list(value, what: str) -> list:
    _require_list(value, None, what, "integers")
    return [strict_int(x, what) for x in value]


def complex_from_document(doc: dict) -> LaurentChainComplex:
    if not isinstance(doc, dict):
        raise ParseError(f"a complex document is a JSON object, got {doc!r}")
    try:
        m = strict_int(doc["m"], "m")
        top = strict_int(doc["top_degree"], "top_degree")
        dims = _int_list(doc["dims"], "dims")
        raw_diffs = doc["differentials"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if m < 0 or any(d < 0 for d in dims):
        raise ParseError(f"m and dims must be nonnegative: m = {m}, "
                         f"dims = {dims}")
    if top < 0:
        raise ParseError(f"top_degree must be nonnegative, got {top}")
    if len(dims) != top + 1:
        raise ParseError(f"dims has {len(dims)} entries for top_degree {top}")
    _require_list(raw_diffs, top, "differentials", "matrices")
    diffs = []
    for n, mat in enumerate(raw_diffs, start=1):
        _require_list(mat, dims[n - 1], f"differential {n}", "rows")
        rows = []
        for i, row in enumerate(mat):
            _require_list(row, dims[n], f"differential {n}, row {i}",
                          "entries")
            out_row = []
            for j, entry in enumerate(row):
                where = f"differential {n}, entry ({i},{j})"
                _require_list(entry, None, where, "terms")
                terms = {}
                for t in entry:
                    try:
                        exp = tuple(_int_list(t["exp"], f"{where} exponent"))
                        coef = strict_int(t["coef"], f"{where} coefficient",
                                          allow_str=True)
                    except (KeyError, TypeError) as exc:
                        raise ParseError(f"{where}: bad term {t!r}") from exc
                    if len(exp) != m:
                        raise ParseError(
                            f"{where}: exponent arity {len(exp)} != m = {m}")
                    terms[exp] = terms.get(exp, 0) + coef
                out_row.append(LaurentPoly(m, terms))
            rows.append(out_row)
        diffs.append(rows)
    try:
        return LaurentChainComplex(m, dims, diffs)
    except InvalidComplex as exc:
        raise ParseError(f"invalid complex: {exc}") from exc


def load_complex(path: str) -> LaurentChainComplex:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    return complex_from_document(doc)


def dump_complex(C: LaurentChainComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_document(C), fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# tower report tables
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def tower_report_rows(report) -> tuple:
    """(header, rows) of the flat per-level x per-degree table.

    One list of value columns drives the header, the values and the values
    per index: an integer column is written with str, a float column with
    repr(float), and every per-index value is a float.
    """
    columns = [("betti_q", str, lambda lv, n: lv.betti_q[n])]
    columns += [(f"betti_p_{p}", str, lambda lv, n, p=p: lv.betti_mod_p[p][n])
                for p in report.primes]
    columns += [("d_hn", str, lambda lv, n: lv.d_hn[n])]
    columns += [(a, _fmt, lambda lv, n, a=a: getattr(lv, a)[n])
                for a in ("ln_tors", "ln_det_c", "ln_det_alpha")]
    columns += [(a, _fmt, lambda lv, n, a=a: getattr(lv, a))
                for a in ("rho_z", "rho_2")]
    header = ["level_index", "index", "degree"]
    header += [name for name, _, _ in columns]
    header += [f"{name}_per_index" for name, _, _ in columns]
    rows = []
    for li, lv in enumerate(report.levels):
        for n in range(report.max_degree + 1):
            vals = [(fmt, get(lv, n)) for _, fmt, get in columns]
            rows.append([str(li), str(lv.index), str(n)]
                        + [fmt(v) for fmt, v in vals]
                        + [_fmt(v / lv.index) for _, v in vals])
    return header, rows


def tower_rows_to_csv(header, rows) -> str:
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(r))
    return "\n".join(lines) + "\n"


def tower_report_json(report) -> str:
    header, rows = tower_report_rows(report)
    payload = {
        "columns": header,
        "rows": rows,
        "lambda": repr(report.lam),
        "tail_estimates": {k: [repr(float(x)) for x in v]
                           for k, v in report.tail_estimates.items()},
        "cauchy_flags": report.cauchy_flags,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"
