"""Tests of the benchmark itself, on its smoke mode.

    python3 -m pytest bench

The smoke mode runs every workload's code path and checks in seconds:
an 8^3 box and a capped sweep budget.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 95.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "solve", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer(True)
    with tracer.span("op", op="r0/x"):
        with tracer.span("solver.smooth"):
            with tracer.span("frames.vertex_frames"):
                pass
    op, smooth, frames = tracer.spans
    assert smooth.parent == 0 and frames.parent == 1
    assert frames.op == "r0/x"
    self_times = tracer.self_times()
    assert self_times[1] == pytest.approx(smooth.duration - frames.duration)
    assert tracer.coverage({"op"}) == [smooth.duration / op.duration]
    metrics = spans.layer_metrics(tracer)
    assert set(metrics) == {"solver.smooth_s", "frames.vertex_frames_s"}


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer(False)
    with tracer.span("op", op="r0/x") as span:
        assert span is None
    assert tracer.spans == []


def test_budget_checks_are_skipped_only_in_smoke_mode():
    for smoke, failed, skipped in ((False, 2, 0), (True, 1, 1)):
        checks = workloads.Checks(smoke)
        checks.expect(False, "topology", budget=True)
        checks.expect(False, "charge")
        checks.expect(True, "fine")
        assert (len(checks.failed), len(checks.skipped)) == (failed, skipped)


def test_compare_names_every_drifted_counter():
    seen = {}
    assert run.compare(seen, "op", {"chains": 1, "frames": "ab"}) == []
    assert run.compare(seen, "op", {"chains": 2, "frames": "ab"}) == ["chains"]


def test_times_are_scaled_by_the_calibrations_around_them():
    cal_s = [run.CAL_REF_S, 3 * run.CAL_REF_S]
    assert run.reference(4.0, cal_s) == pytest.approx(2.0)
    rec = {"op_s": {"a": [4.0]}, "op_ref_s": {"a": [2.0]},
           "round_s": 2.0, "round_raw_s": 4.0,
           "setup_s": [0.5, 0.4, 0.6], "setup_ref_s": [0.25, 0.2, 0.3],
           "cal_s": [2 * run.CAL_REF_S] * 3, "failed": 0, "attempted": 1}
    metrics = run.workload_metrics("graph", rec)
    assert metrics["host_scale"] == pytest.approx(0.5)
    assert (metrics["round_s"], metrics["round_raw_s"]) == (2.0, 4.0)
    assert (metrics["setup_s"], metrics["setup_raw_s"]) == (0.25, 0.5)
