"""hexframe benchmark: one workload as a closed loop, one op at a time.

    python3 bench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; hexframe is imported from its src/.
The workload is set up SETUPS times, then its ops run in rounds until
--seconds have passed (at least one round); round_s sums the median time
of each op, scaled to the reference machine's speed.  The last line of
stdout is a JSON object with the metrics BENCHMARK.json names: end-to-end
metrics when --trace 0, per-layer metrics when --trace 1.  Each run also writes
its full record, spans included, under .bench_out/runs/.  See
bench/README.md for the workloads, metrics and their predicted links.
"""

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUPS = 3
# steps of the calibration loop, and its median time on the reference
# machine (see calibrate and bench/README.md)
CAL_STEPS = 20000
CAL_REF_S = 0.125


def load_program():
    """Import hexframe from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hexframe", "__init__.py")):
        raise SystemExit("bench: no hexframe sources under %s" % src)
    if not glob.glob(os.path.join(ROOT, "fixtures", "*.mesh")):
        raise SystemExit("bench: no fixtures under %s" % ROOT)
    sys.path.insert(0, src)
    import hexframe
    if os.path.dirname(os.path.dirname(os.path.abspath(hexframe.__file__))) != src:
        raise SystemExit("bench: hexframe imported from %s" % hexframe.__file__)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def program_digest():
    """Digest of everything that decides the counters of a run."""
    h = hashlib.sha256()
    for pattern in ("src/hexframe/*.py", "fixtures/*.mesh", "bench/*.py",
                    "bench/data/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "rb") as fh:
                h.update(path[len(ROOT):].encode() + fh.read())
    return h.hexdigest()[:16]


def compare(seen, key, counters):
    """Names of counters that differ from the ones recorded under ``key``."""
    old = seen.setdefault(key, counters)
    return sorted(k for k in set(old) | set(counters)
                  if old.get(k) != counters.get(k))


def check_history(records):
    """Compare this run's counters with earlier runs of the same program.

    Keyed by program digest, mode, workload, seed and op, so only runs of
    identical code and inputs are compared.  Returns the drifted names.
    """
    path = os.path.join(OUT, "counters.json")
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except FileNotFoundError:
        seen = {}
    # round-trip through JSON so floats and tuples compare as stored
    records = json.loads(json.dumps(records))
    drift = ["%s:%s" % (key, name) for key, counters in records.items()
             for name in compare(seen, key, counters)]
    tmp = path + ".%d" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return drift


def calibrate():
    """Seconds that a fixed loop of small numpy operations takes.

    The loop has the shape of hexframe's hot loops, a 3x3 product and a
    norm per step, but calls nothing of hexframe: the program cannot
    change its cost, and the host's speed of the moment does.  The garbage
    collector is off, so the objects the program keeps alive do not count.
    """
    import numpy as np
    a = np.array([[0.6, -0.8, 0.1], [0.8, 0.6, 0.2], [0.1, 0.2, 0.9]])
    v = np.ones(3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(CAL_STEPS):
            v = a @ v
            v = v / np.linalg.norm(v)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference(seconds, cal_s):
    """Measured seconds between the last two calibrations, in reference
    seconds: scaled by the reference calibration time over their mean."""
    return seconds * CAL_REF_S / ((cal_s[-2] + cal_s[-1]) / 2)


def run_workload(args, wl, tracer):
    import workloads

    # a calibration before the set-ups and after each set-up and op
    cal_s = [calibrate()]
    setup_s, setup_ref_s, inputs, described = [], [], [], []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        with tracer.span("setup", op="setup%d" % i):
            inputs.append(wl.setup())
        setup_s.append(time.perf_counter() - t0)
        described.append(wl.describe(inputs[-1]))
        cal_s.append(calibrate())
        setup_ref_s.append(reference(setup_s[-1], cal_s))

    op_s = {op: [] for op in wl.ops}
    op_ref_s = {op: [] for op in wl.ops}
    failures, skipped, drift, failed = [], set(), [], set()
    counters = {}
    attempted = 0
    start = time.perf_counter()
    r = 0
    # whole rounds, so every op has as many samples as every other
    while r == 0 or time.perf_counter() - start < args.seconds:
        for op in wl.ops:
            attempted += 1
            opid = "r%d/%s" % (r, op)
            t0 = time.perf_counter()
            try:
                with tracer.span("op", op=opid):
                    outputs = wl.run(op, inputs[r % SETUPS])
                op_s[op].append(time.perf_counter() - t0)
                checks = workloads.Checks(args.smoke)
                found = wl.inspect(op, outputs, checks)
            except Exception:
                traceback.print_exc()
                failures.append("%s: %r" % (opid, sys.exc_info()[1]))
                failed.add(opid)
                cal_s.append(calibrate())
                continue
            del outputs
            changed = compare(counters, op, found)
            drift.extend("%s:%s" % (opid, k) for k in changed)
            failures.extend("%s: %s" % (opid, what) for what in checks.failed)
            skipped.update(checks.skipped)
            if checks.failed or changed:
                failed.add(opid)
            cal_s.append(calibrate())
            op_ref_s[op].append(reference(op_s[op][-1], cal_s))
        r += 1
    # one round as the sum of each op's median, so that a slow or fast
    # spell of the host during a few ops does not move it
    round_s = sum(statistics.median(v) for v in op_ref_s.values() if v)
    round_raw_s = sum(statistics.median(v) for v in op_s.values() if v)
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
            "setups": described, "op_s": op_s, "op_ref_s": op_ref_s,
            "round_s": round_s, "round_raw_s": round_raw_s, "cal_s": cal_s,
            "rounds": r, "attempted": attempted,
            "failures": failures, "skipped_checks": sorted(skipped),
            "drift": drift, "failed": len(failed), "counters": counters}


def workload_metrics(name, rec):
    """End-to-end metrics plus each workload's own names and failed_frac.

    Times are in reference seconds (see reference); the host's speed
    swings by a third and more within minutes, and the calibrations around
    each set-up and op follow it.  host_scale is the reference calibration
    time over this run's median calibration.
    """
    med = {op: statistics.median(v)
           for op, v in rec["op_ref_s"].items() if v}
    out = {"setup_s": statistics.median(rec["setup_ref_s"]),
           "round_s": rec["round_s"],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "failed_frac": rec["failed"] / rec["attempted"],
           "host_scale": CAL_REF_S / statistics.median(rec["cal_s"]),
           "setup_raw_s": statistics.median(rec["setup_s"]),
           "round_raw_s": rec["round_raw_s"]}
    if name == "solve":
        out["solve_pass_s"] = out["round_s"]
    elif name == "correct":
        out.update({op + "_s": t for op, t in med.items()})
    else:
        out["graph_s"] = out["round_s"]
    return out


def trace_metrics(tracer, rec):
    import spans
    m = spans.layer_metrics(tracer)

    def ratio(a, b, scale=1.0):
        return scale * m.get(a, 0.0) / m[b] if m.get(b) else 0.0

    m["solver.sweep_s"] = ratio("solver.smooth_s", "solver.sweeps")
    m["frames.us_per_vertex"] = ratio("frames.vertex_frames_s",
                                      "frames.vertices", 1e6)
    m["singularities.us_per_face"] = ratio("singularities.extract_s",
                                           "singularities.faces", 1e6)
    m["tracing.points_per_s"] = ratio("tracing.points", "tracing.trace_s")
    cover = tracer.coverage({"op"})
    m["trace.coverage"] = 100.0 * min(cover) if cover else 0.0
    m["trace.spans"] = (sum(s.op is not None for s in tracer.spans)
                        / (rec["attempted"] + SETUPS))
    m["trace.round_s"] = rec["round_raw_s"]
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a capped sweep budget, for "
                             "the benchmark's own tests")
    args = parser.parse_args(argv)

    load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)

    tracer = spans.Tracer(bool(args.trace))
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](
            ROOT, args.seed, args.smoke, tmp, tracer)
        with spans.instrument(tracer) if args.trace else contextlib.nullcontext():
            rec = run_workload(args, wl, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    digest = program_digest()
    mode = "smoke" if args.smoke else "full"
    prefix = "%s/%s/%s/seed%d/" % (digest, mode, args.workload, args.seed)
    history = {prefix + op: c for op, c in rec["counters"].items()}
    history.update({prefix + "setup%d" % i: d
                    for i, d in enumerate(rec["setups"])})
    drifted = check_history(history)
    rec["drift"] += drifted
    # a drift from an earlier run fails the op in this run's last round
    rec["failed"] = min(rec["attempted"], rec["failed"] + len(
        {d.split(":")[0] for d in drifted}))
    metrics = workload_metrics(args.workload, rec)
    if args.trace:
        metrics.update(trace_metrics(tracer, rec))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = not rec["failures"] and not rec["drift"]

    record = dict(vars(args), digest=digest, env=environment(), ops=wl.ops,
                  correct=correct, metrics=metrics, **rec)
    if args.trace:
        record["spans"] = [s.as_dict() for s in tracer.spans]
    name = "%s-seed%d-trace%d%s-%d.json" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else "",
        time.time_ns())
    with open(os.path.join(OUT, "runs", name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for what in rec["failures"]:
        print("FAILED %s" % what)
    for what in rec["drift"]:
        print("DRIFT %s" % what)
    for what in rec["skipped_checks"]:
        print("skipped at the smoke sweep budget: %s" % what)
    print("%s seed=%d rounds=%d ops=%d %s" % (
        args.workload, args.seed, rec["rounds"], rec["attempted"],
        " ".join("%s=%.6g" % kv for kv in sorted(metrics.items()))))
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
