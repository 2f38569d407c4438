"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

Smoke runs use tiny inputs (circle to 16, torus3 (2,2,2), mapping torus at
5, 20 corpus instances) and check the output schema against BENCHMARK.json;
the coverage test runs one traced pass of each full-size workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
META_KEYS = {"nproc", "python", "cpu_model", "homgrow_commit", "seed",
             "limitation"}
COUNT_SUFFIXES = (".calls", ".in_nnz", ".in_max_bits", ".in_cells",
                  ".in_dim_sum", ".out_cells", ".out_nnz",
                  ".budget_exceeded_frac", ".repeat_frac")


def bench(workload, trace, cwd=ROOT, seconds="0.2"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=str(cwd))


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"}
        assert isinstance(v["value"], (int, float))


def test_spec_matches_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracer.per_layer_metric_units()
    assert len(tracer.ENTRY_POINTS) * 3 + len(tracer.COUNT_METRICS) == 123


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    meta, result = parse(bench(workload, 0))
    check_result(result, SPEC["end_to_end"])
    assert META_KEYS <= set(meta)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(meta["setup_samples_s"]) == run.SETUP_PROBES


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_counts_repeat(workload):
    runs = [parse(bench(workload, 1)) for _ in range(2)]
    for meta, result in runs:
        check_result(result, SPEC["per_layer"])
        assert meta["traced_digest_mismatches"] == []
        assert (ROOT / meta["spans_file"]).is_file()
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if k.endswith(COUNT_SUFFIXES)} for _, result in runs]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_reference_is_reported_as_failures(workload):
    run.import_homgrow()
    wl = workloads.make_workload(workload, 0, smoke=True)
    ref = run.load_reference(workload, smoke=True)
    good = wl.run_pass(ref)
    assert not good.failed and good.attempted >= 1
    bad = json.loads(json.dumps(ref))
    key = "levels" if workload in workloads.TOWERS else "instances"
    bad[key] = ["0" * len(d) for d in bad[key]]
    res = wl.run_pass(bad)
    assert res.failed == set(res.digests)
    assert res.errors


def test_self_time_on_synthetic_span_tree():
    # span = (entry, start, end, parent, op, outermost); entry 3 recurses
    spans = [
        (0, 0, 100, -1, "a", True),
        (3, 10, 40, 0, "a", True),
        (3, 20, 30, 1, "a", False),
        (4, 35, 60, 0, "a", True),      # overlaps its sibling from 35 to 40
        (4, 90, 120, 0, "a", True),     # runs past its parent's end
        (5, 130, 150, -1, "b", True),
    ]
    assert tracer.self_times(spans) == [40, 20, 10, 25, 30, 20]
    assert tracer.covered_ns([(0, 10), (5, 20), (30, 40)]) == 30
    tr = tracer.Tracer()
    tr.spans.extend(spans)
    m = tr.metrics(pass_wall_ns=200, untraced_wall_ns=160)
    name = tracer.entry_name(*tracer.ENTRY_POINTS[3])
    assert m[f"{name}.calls"][0] == 2
    assert m[f"{name}.total_s"][0] == 30 / 1e9     # outermost span only
    assert m[f"{name}.self_s"][0] == 30 / 1e9
    assert m["trace.residual_s"][0] == 80 / 1e9
    assert m["trace.overhead_frac"][0] == 0.25


def test_full_workloads_hit_every_entry_point():
    """One traced pass of each full workload; digests equal the untraced
    reference (seed 0) and every entry point is called somewhere."""
    run.import_homgrow()
    calls = {tracer.entry_name(*e): 0 for e in tracer.ENTRY_POINTS}
    for name in workloads.WORKLOADS:
        wl = workloads.make_workload(name, 0)
        ref = run.load_reference(name, smoke=False)
        tr = tracer.Tracer()
        tr.install()
        try:
            res = wl.run_pass(ref, mark_op=lambda op: setattr(tr, "op", op),
                              whole_table=True)
        finally:
            tr.restore()
        assert not res.failed, res.errors[:3]
        for k, v in tr.metrics(res.total_ns, res.total_ns).items():
            if k.endswith(".calls"):
                calls[k[:-len(".calls")]] += v[0]
    assert [k for k, v in calls.items() if v == 0] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("circle_tower", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
