"""Layer tracing from outside the program: wrap entry points, record spans.

The traced run rebinds each listed entry point of homgrow to a wrapper that
records one span per call (entry, start, end, parent span, operation id) in
memory, plus the exact per-call counts named in COUNT_METRICS.  Spans are
written out only after the run.  Nothing under src/ is edited: a function
imported by name into several modules (``from .exact_linalg import ...``) is
rebound in every homgrow module that holds the same object, and a method is
patched on its class.

Self time of a span is its duration minus the part of it covered by its
children; ``total_s`` counts only the outermost span of an entry point, so a
recursive entry is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref

# (module, qualified name) of every traced entry point, in report order.
ENTRY_POINTS = (
    ("exact_linalg", "IntMatrix.__init__"),
    ("exact_linalg", "IntMatrix.__matmul__"),
    ("exact_linalg", "IntMatrix.transpose"),
    ("exact_linalg", "kernel_lattice"),
    ("exact_linalg", "column_hnf"),
    ("exact_linalg", "solve_in_lattice"),
    ("exact_linalg", "smith_normal_form"),
    ("exact_linalg", "rank"),
    ("exact_linalg", "cokernel_structure"),
    ("exact_linalg", "fk_determinant"),
    ("exact_linalg", "fk_factorization_check"),
    ("exact_linalg", "det_bareiss"),
    ("exact_linalg", "det_bareiss_psd"),
    ("exact_linalg", "det_fraction"),
    ("exact_linalg", "_fk_square_minor_sum"),
    ("exact_linalg", "_fk_square_image_lattice"),
    ("exact_linalg", "_fk_square_structure"),
    ("chain_complex", "laplacian"),
    ("chain_complex", "ChainAnalysis.kernel"),
    ("chain_complex", "ChainAnalysis.relations"),
    ("chain_complex", "ChainAnalysis.harmonic"),
    ("chain_complex", "ChainAnalysis.free_lifts"),
    ("chain_complex", "ChainAnalysis.fk_differential"),
    ("chain_complex", "ChainAnalysis.fk_laplacian"),
    ("chain_complex", "ChainAnalysis.alpha_square"),
    ("chain_complex", "homology_from_analysis"),
    ("chain_complex", "rho_identity_from_analysis"),
    ("chain_complex", "verify_rho_identity"),
    ("group_ring", "base_change"),
    ("group_ring", "quotient_homology_module"),
    ("finite_homology", "group_homology"),
    ("finite_homology", "coinvariants"),
    ("finite_homology", "nu_kernel_cokernel"),
    ("finite_homology", "verify_estimate_bounds"),
    ("finite_homology", "augmentation_filtration"),
    ("growth", "run_tower"),
    ("serialize", "tower_report_rows"),
    ("serialize", "tower_rows_to_csv"),
)

# name -> (unit, kind); "sum" adds per call, "max" keeps the largest value,
# "frac" divides a numerator count by the entry point's number of calls.
COUNT_METRICS = {
    "exact_linalg.kernel_lattice.in_nnz": ("count", "sum"),
    "exact_linalg.smith_normal_form.in_nnz": ("count", "sum"),
    "exact_linalg.smith_normal_form.in_max_bits": ("bits", "max"),
    "exact_linalg.fk_determinant.in_cells": ("count", "sum"),
    "exact_linalg.det_bareiss_psd.in_dim_sum": ("count", "sum"),
    "exact_linalg._fk_square_minor_sum.budget_exceeded_frac": ("ratio", "frac"),
    "chain_complex.ChainAnalysis.alpha_square.repeat_frac": ("ratio", "frac"),
    "group_ring.base_change.out_cells": ("count", "sum"),
    "group_ring.base_change.out_nnz": ("count", "sum"),
}

RUN_METRICS = {
    "trace.overhead_frac": "ratio",
    "trace.residual_s": "s",
}


def entry_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def per_layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, qual in ENTRY_POINTS:
        base = entry_name(module, qual)
        out[f"{base}.calls"] = "count"
        out[f"{base}.total_s"] = "s"
        out[f"{base}.self_s"] = "s"
    for name, (unit, _) in COUNT_METRICS.items():
        out[name] = unit
    out.update(RUN_METRICS)
    return out


def _max_bits(A) -> int:
    return max((abs(x).bit_length() for row in A.to_lists() for x in row),
               default=0)


class Tracer:
    """Spans and counts of one traced pass; install() patches, restore() undoes."""

    def __init__(self):
        self.names = [entry_name(m, q) for m, q in ENTRY_POINTS]
        self.spans = []          # (entry index, start ns, end ns, parent, op, outermost)
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.op = None
        self._stack = []
        self._active = [0] * len(ENTRY_POINTS)
        self._undo = []
        self._alpha_seen = weakref.WeakKeyDictionary()

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for module, _ in ENTRY_POINTS:
            importlib.import_module(f"homgrow.{module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "homgrow"
                                         or name.startswith("homgrow."))]
        for idx, (module, qual) in enumerate(ENTRY_POINTS):
            owner = sys.modules[f"homgrow.{module}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(idx, orig))
                continue
            orig = getattr(owner, qual)
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def _wrap(self, idx: int, fn):
        pre, post = self._count_hooks(self.names[idx])
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[idx] == 0
            active[idx] += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[idx] -= 1
                spans[sid] = (idx, start, end, parent, self.op, outermost)
            if post is not None:
                post(result)
            return result

        return traced

    def _count_hooks(self, name: str):
        c = self.counts
        if name == "exact_linalg.kernel_lattice":
            def pre(args):
                c["exact_linalg.kernel_lattice.in_nnz"] += args[0].nnz()
            return pre, None
        if name == "exact_linalg.smith_normal_form":
            def pre(args):
                A = args[0]
                c["exact_linalg.smith_normal_form.in_nnz"] += A.nnz()
                key = "exact_linalg.smith_normal_form.in_max_bits"
                c[key] = max(c[key], _max_bits(A))
            return pre, None
        if name == "exact_linalg.fk_determinant":
            def pre(args):
                c["exact_linalg.fk_determinant.in_cells"] += \
                    args[0].rows * args[0].cols
            return pre, None
        if name == "exact_linalg.det_bareiss_psd":
            def pre(args):
                c["exact_linalg.det_bareiss_psd.in_dim_sum"] += len(args[0])
            return pre, None
        if name == "exact_linalg._fk_square_minor_sum":
            def post(result):
                if result is None:
                    c["exact_linalg._fk_square_minor_sum.budget_exceeded_frac"] += 1
            return None, post
        if name == "chain_complex.ChainAnalysis.alpha_square":
            seen = self._alpha_seen

            def pre(args):
                degrees = seen.setdefault(args[0], set())
                if args[1] in degrees:
                    c["chain_complex.ChainAnalysis.alpha_square.repeat_frac"] += 1
                degrees.add(args[1])
            return pre, None
        if name == "group_ring.base_change":
            def post(qc):
                cx = qc.complex
                for n in range(1, cx.top_degree + 1):
                    D = cx.differential(n)
                    c["group_ring.base_change.out_cells"] += D.rows * D.cols
                    c["group_ring.base_change.out_nnz"] += D.nnz()
            return None, post
        return None, None

    # -- results ----------------------------------------------------------------

    def metrics(self, pass_wall_ns: int, untraced_wall_ns: float) -> dict:
        """Per-layer metrics {name: (value, unit)} of the recorded pass."""
        selfs = self_times(self.spans)
        n = len(ENTRY_POINTS)
        calls = [0] * n
        total = [0] * n
        self_ns = [0] * n
        for sid, (idx, start, end, _, _, outermost) in enumerate(self.spans):
            calls[idx] += 1
            self_ns[idx] += selfs[sid]
            if outermost:
                total[idx] += end - start
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[idx], "count")
            out[f"{name}.total_s"] = (total[idx] / 1e9, "s")
            out[f"{name}.self_s"] = (self_ns[idx] / 1e9, "s")
        for name, (unit, kind) in COUNT_METRICS.items():
            value = self.counts[name]
            if kind == "frac":
                entry = name.rsplit(".", 1)[0]
                denom = calls[self.names.index(entry)]
                value = value / denom if denom else 0.0
            out[name] = (value, unit)
        out["trace.overhead_frac"] = (pass_wall_ns / untraced_wall_ns - 1.0,
                                      "ratio")
        roots = [(s[1], s[2]) for s in self.spans if s[3] == -1]
        out["trace.residual_s"] = ((pass_wall_ns - covered_ns(roots)) / 1e9,
                                   "s")
        return out

    def write_spans(self, path, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (idx, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": self.names[idx], "start_ns": start,
                    "end_ns": end, "parent": parent, "workload": workload,
                    "op": op}) + "\n")


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children, clipped to it."""
    children = {}
    for sid, span in enumerate(spans):
        children.setdefault(span[3], []).append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [(max(spans[k][1], start), min(spans[k][2], end))
                for k in children.get(sid, ())]
        out.append(end - start - covered_ns([iv for iv in kids
                                             if iv[0] < iv[1]]))
    return out
