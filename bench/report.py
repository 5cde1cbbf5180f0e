"""Print every metric of the benchmark runs recorded under .bench_out/runs.

    python3 bench/report.py          # summarise the runs of the current code
    python3 bench/report.py --run    # first run each workload untraced and
                                     # traced with --seed 0, then summarise

For each workload and metric it prints the median, the quartiles, the unit
and the sample count (one sample per run; end-to-end metrics from untraced
runs, per-layer metrics from traced runs).  It then prints the tracing
overhead, traced minus untraced round_s of runs with the same seed, and
the lowest share of an op's wall time that the per-layer spans cover.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

import run

# workload-level names that BENCHMARK.json cannot list, because every run
# must report every end-to-end metric and these exist on one workload only
EXTRA_UNITS = {"round_raw_s": "s", "setup_raw_s": "s", "host_scale": "1",
               "failed_frac": "1", "solve_pass_s": "s", "snap_s": "s",
               "extrude_curve_s": "s", "extrude_node_s": "s", "graph_s": "s"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(digest):
    runs = []
    for path in sorted(glob.glob(os.path.join(run.OUT, "runs", "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("digest") == digest and not rec["smoke"]:
            runs.append(rec)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true",
                        help="run every workload with --seed 0 first")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.run:
        for name in workloads:
            for trace in ("0", "1"):
                subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                "--workload", name, "--seed", "0",
                                "--seconds", str(spec["run_seconds"]),
                                "--trace", trace],
                               check=True, stdout=subprocess.DEVNULL)

    units = dict(EXTRA_UNITS)
    units.update({m["name"]: m["unit"]
                  for m in spec["end_to_end"] + spec["per_layer"]})
    end_to_end = [m["name"] for m in spec["end_to_end"]] + list(EXTRA_UNITS)
    runs = load_runs(run.program_digest())
    if not runs:
        sys.exit("no recorded runs of the current code; try --run")
    row = "%-10s %-34s %12s %12s %12s %-6s %3s"
    print(row % ("workload", "metric", "median", "q1", "q3", "unit", "n"))
    for name in workloads:
        for trace, names in ((0, end_to_end),
                             (1, [m["name"] for m in spec["per_layer"]])):
            recs = [r for r in runs if r["workload"] == name
                    and r["trace"] == trace]
            for metric in names:
                vals = [r["metrics"][metric] for r in recs
                        if metric in r["metrics"]]
                if vals:
                    q1, q2, q3 = quartiles(vals)
                    print(row % (name, metric, "%.6g" % q2, "%.6g" % q1,
                                 "%.6g" % q3, units[metric], len(vals)))
        # pair each traced run with the untraced run of the same seed, so
        # that the machine's drift between far-apart runs cancels
        last = {}
        for r in runs:
            if r["workload"] == name:
                last[r["seed"], r["trace"]] = r["metrics"]["round_s"]
        pairs = [(last[s, 0], last[s, 1]) for s, t in sorted(last)
                 if t == 1 and (s, 0) in last]
        cover = [r["metrics"]["trace.coverage"] for r in runs
                 if r["workload"] == name and r["trace"] == 1]
        if pairs:
            diff = statistics.median(b - a for a, b in pairs)
            base = statistics.median(a for a, _ in pairs)
            print("%-10s tracing overhead %.4g s per round (%+.2f%% of %.4g s;"
                  " median of %d same-seed pairs)"
                  % (name, diff, 100.0 * diff / base, base, len(pairs)))
        if cover:
            print("%-10s span coverage of ops: lowest %.3f%%" % (name, min(cover)))
        bad = [r for r in runs if r["workload"] == name and not r["correct"]]
        if bad:
            print("%-10s %d of %d runs NOT correct" % (
                name, len(bad), len([r for r in runs if r["workload"] == name])))


if __name__ == "__main__":
    main()
