"""homgrow benchmark runner.

    python3 perfbench/run.py --workload circle_tower --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the run reports the
end-to-end metrics of one workload; with ``--trace 1`` it runs untraced
passes for half the time, then exactly one traced pass, and reports the
per-layer metrics of that pass (see tracer.py).  The last line of standard
output is the result object; the line before it holds the run metadata.

Timing is in-process only (``perf_counter_ns``, ``monotonic_ns``,
``getrusage``): no machine-wide profiler and no cache dropping.  Set-up
(interpreter start, ``import homgrow``, building complexes and quotient
specs, generating the seeded corpus) is timed in separate fresh interpreters
and never counted in ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5

sys.path.insert(0, str(BENCH_DIR))
import calibrate  # noqa: E402  (the benchmark's own modules)
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

LIMITATION = ("in-process perf_counter_ns, monotonic_ns and getrusage only; "
              "no machine-wide profiler, no cache dropping")


class HarnessError(Exception):
    """The benchmark cannot run here (for example, no program to run)."""


def import_homgrow():
    """Import homgrow from this checkout's src/ only."""
    if not (SRC / "homgrow" / "__init__.py").is_file():
        raise HarnessError(f"no homgrow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import homgrow
    origin = Path(homgrow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise HarnessError(f"homgrow imported from {origin}, not from {SRC}")


def load_reference(workload: str, smoke: bool):
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return refs["smoke" if smoke else "full"].get(workload)


# ---------------------------------------------------------------------------
# set-up timing
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Child side: build the inputs, print the monotonic clock when ready."""
    import_homgrow()
    workloads.make_workload(workload, seed, smoke)
    print(time.monotonic_ns(), flush=True)


def measure_setup(workload: str, seed: int, smoke: bool, sampler) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being ready.

    The parent and child read the same system-wide monotonic clock, so the
    interval includes interpreter start and ``import homgrow``.  The host's
    speed is sampled before each probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        sampler.tick(force=True)
        spawned = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()}")
        ready = int(proc.stdout.strip().splitlines()[-1])
        samples.append((ready - spawned) / 1e9)
    return samples


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_passes(wl, ref, seconds: float, mark_op) -> list:
    """Passes until the next one would end after `seconds`; the first also
    checks the whole tower table."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(ref, mark_op=mark_op,
                                  whole_table=not passes))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return passes


def tally(passes) -> tuple:
    """(attempted, failed, errors); a pass whose digests differ from the
    first pass's counts those operations as failed."""
    attempted = failed = 0
    errors = []
    first = passes[0].digests
    for res in passes:
        bad = set(res.failed)
        bad.update(op for op, d in res.digests.items() if d != first.get(op))
        attempted += res.attempted
        failed += len(bad)
        errors.extend(res.errors)
    return attempted, failed, errors


def percentile(samples, q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def median_op_s(passes) -> list:
    """Each operation's median time over the run's passes, in seconds."""
    return [statistics.median(times) / 1e9
            for times in zip(*(res.op_ns for res in passes))]


def end_to_end(passes, setup_samples, speed: float) -> dict:
    """End-to-end metrics, times in reference-host seconds (calibrate.py).

    Every operation runs once per pass and is summarised by its median over
    the passes.  ``wall_s`` sums the medians: the time of the complete
    result, every tower level or every corpus instance.
    """
    ops = [t / speed for t in median_op_s(passes)]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": sum(ops),
        "setup_s": statistics.median(setup_samples) / speed,
        "peak_rss_mib": rss_kib / 1024,
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p99_ms": percentile(ops, 99) * 1e3,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def run_traced(wl, ref, seconds: float, workload: str, seed: int):
    """Untraced passes for half the time, then one traced pass."""
    passes = run_passes(wl, ref, seconds / 2, mark_op=workloads._noop)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = wl.run_pass(ref, mark_op=lambda op: setattr(tr, "op", op))
    finally:
        tr.restore()
    wall = traced.total_ns
    # the first pass also computed the whole tower table
    untraced = statistics.median(res.total_ns for res in passes[1:] or passes)
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in tr.metrics(wall, untraced).items()}
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tr.write_spans(spans_path, workload)
    mismatch = [op for op, d in traced.digests.items()
                if d != passes[0].digests.get(op)]
    return passes + [traced], metrics, {
        "traced_pass_s": wall / 1e9,
        "untraced_pass_median_s": untraced / 1e9,
        "spans": len(tr.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_digest_mismatches": mismatch,
    }


def source_digest() -> str:
    files = sorted((SRC / "homgrow").glob("*.py"))
    return workloads.sha256("".join(
        f"{p.name}\n{p.read_text(encoding='utf-8')}" for p in files))


def git_commit() -> str:
    """HEAD commit read from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, passes, extra) -> dict:
    ops = len(passes[0].op_ns)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(passes),
        "operations_per_pass": ops,
        "op_samples_beyond_p99": ops - int(0.99 * (ops - 1)) - 1 if ops else 0,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "homgrow_commit": git_commit(),
        "homgrow_source_sha256": source_digest(),
        "limitation": LIMITATION,
    }
    meta.update(extra)
    return meta


def run_one(args) -> dict:
    sampler = calibrate.Sampler()
    setup_samples = []
    if not args.trace:
        setup_samples = measure_setup(args.workload, args.seed, args.smoke,
                                      sampler)
    import_homgrow()
    wl = workloads.make_workload(args.workload, args.seed, args.smoke)
    ref = load_reference(args.workload, args.smoke)
    extra = {}
    if args.trace:
        passes, metrics, extra = run_traced(wl, ref, args.seconds,
                                            args.workload, args.seed)
    else:
        passes = run_passes(wl, ref, args.seconds, mark_op=sampler.tick)
        speed = sampler.speed_factor()
        metrics = end_to_end(passes, setup_samples, speed)
        extra["setup_samples_s"] = setup_samples
        extra["host_speed_factor"] = speed
        extra["calibration_samples"] = len(sampler.samples_ns)
        extra["raw_wall_s"] = sum(median_op_s(passes))
    attempted, failed, errors = tally(passes)
    extra["errors"] = errors[:20]
    print(json.dumps({"meta": metadata(args, passes, extra)}), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter; metrics keyed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900, cwd=str(ROOT))
        if proc.returncode != 0:
            raise HarnessError(f"{name} failed: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print(lines[-2], flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
            if not args.trace:
                print(f"{name:20s} {metric:14s} {val['value']:.6g} "
                      f"{val['unit']}", file=sys.stderr)
    return combined


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke)
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
