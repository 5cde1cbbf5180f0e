"""Command line pipeline: solve, inspect, correct and trace frame fields.

Artifacts are written with fixed names under ``--out``: ``field.txt``
(coefficients plus projected rotations), ``graph.vtk`` (singularity graph
polylines), ``report.txt`` (line-oriented ``key: value`` text).  Identical
inputs produce byte-identical artifacts; timings go to stderr only.

Exit codes: 0 success, 2 correction strategy not applicable or leaving
more 3-5 chains than it found, 3 solver failure, 64 usage error.
"""

import argparse
import os
import sys
import time

import numpy as np

from .correction import (
    apply_plan,
    extrude_feature_curves,
    extrude_singular_nodes,
    snap_until_clean,
)
from .errors import CGDiverged, HexFrameError, IoError, NonApplicable
from .mesh import FEATURE_ANGLE_DEFAULT
from .meshio import read_field, read_medit, write_field, write_vtk_graph
from .singularities import detect_35, extract_graph
from .solver import SolverConfig, compute_field
from .tracing import TracerConfig, trace

EXIT_OK = 0
EXIT_NOT_APPLICABLE = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hexframe",
        description="Octahedral frame fields and singularity graph correction.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--mesh", required=True, help="input MEDIT mesh")
        p.add_argument("--out", default=".", help="artifact directory")
        p.add_argument("--angle-threshold", default=FEATURE_ANGLE_DEFAULT,
                       type=_checked(float, lambda a: 0.0 <= a <= 180.0,
                                     "an angle in [0, 180]"),
                       help="feature detection dihedral threshold (degrees; "
                            "180: tagged features only)")
        p.add_argument("--lambda", dest="relaxation",
                       default=SolverConfig.projection_relaxation,
                       type=_checked(float, np.isfinite, "a finite number"),
                       help="projection relaxation of the smoothing sweeps")
        p.add_argument("--sweeps", default=SolverConfig.smoothing_sweeps,
                       type=_checked(int, lambda n: n >= 0, "a count >= 0"),
                       help="maximum nonlinear smoothing sweeps")
        p.add_argument("--field", default=None,
                       help="reuse a previously written field.txt")
        p.add_argument("--verbose", action="store_true")
        return p

    common(sub.add_parser("solve", help="compute the frame field"))
    common(sub.add_parser("graph", help="extract the singularity graph"))
    common(sub.add_parser("detect35", help="flag 3-5 singular chains"))

    p = common(sub.add_parser("correct", help="apply a correction strategy"))
    p.add_argument("--strategy", required=True,
                   choices=["extrude-curve", "extrude-node", "snap"])
    p.add_argument("--step", type=_step_size, default=0.0,
                   help="streamline step size (0: half mean edge length)")

    p = common(sub.add_parser("trace", help="trace one streamline"))
    p.add_argument("--seed", required=True, help="seed point x,y,z")
    p.add_argument("--dir", required=True, dest="direction",
                   help="initial direction dx,dy,dz")
    p.add_argument("--step", type=_step_size, default=0.0,
                   help="streamline step size (0: half mean edge length)")

    p = sub.add_parser("report", help="print the report of a previous run")
    p.add_argument("--out", default=".", help="artifact directory")
    p.add_argument("--verbose", action="store_true")
    return parser


def _checked(cast, ok, what):
    """An argparse type: ``cast(text)`` where ``ok`` holds for it."""
    def parse(text):
        if not ok(cast(text)):
            raise argparse.ArgumentTypeError("expects %s, got %r" % (what, text))
        return cast(text)
    parse.__name__ = cast.__name__
    return parse


_step_size = _checked(float, lambda h: 0.0 <= h < np.inf, "a finite step >= 0")


def _parse_triple(text, flag):
    try:
        triple = np.array([float(x) for x in text.split(",")])
    except ValueError:
        triple = None
    if triple is None or len(triple) != 3 or not np.isfinite(triple).all():
        raise SystemExit2("%s expects finite numbers x,y,z, got %r" % (flag, text))
    return triple


class SystemExit2(Exception):
    """Usage error carrying a message; mapped to exit code 64."""


def _write_report(path, pairs):
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write("%s: %s\n" % (key, value))


def _graph_counts(graph):
    by_valence = {}
    for chain in graph.chains:
        key = "%s-%s" % (chain.valence_start, chain.valence_end)
        by_valence[key] = by_valence.get(key, 0) + 1
    return by_valence


def _report_pairs(mesh, field, graph, extra=()):
    pairs = [
        ("vertices", len(mesh.vertices)),
        ("tets", len(mesh.tets)),
        ("feature_curves", len(mesh.feature_curves)),
        ("dirichlet_energy", "%.12g" % field.report.get("dirichlet_energy", 0.0)),
        ("cg_info", field.report.get("cg_info", 0)),
        ("cg_iterations", field.report.get("cg_iterations", 0)),
        ("cg_residual", "%.6g" % field.report.get("cg_residual", 0.0)),
        ("smoothing_sweeps", field.report.get("smoothing_sweeps", 0)),
        ("smoothing_steps", field.report.get("smoothing_steps", 0)),
        ("smoothing_converged", field.report.get("smoothing_converged", "")),
        ("smoothing_last_delta",
         "%.6g" % field.report.get("smoothing_last_delta", 0.0)),
        ("smoothing_deltas", " ".join(
            "%.6g" % d for d in field.report.get("smoothing_deltas", []))),
        ("chains", len(graph.chains)),
        ("chains_35", len(detect_35(graph))),
        ("junctions", len(graph.junction_tets)),
        ("boundary_nodes", len(graph.boundary_nodes)),
        ("defects", len(graph.defects)),
        ("hot_faces", sum(kind == "hot_face" for kind, _ in graph.defects)),
    ]
    for key, count in sorted(_graph_counts(graph).items()):
        pairs.append(("chains_valence_%s" % key, count))
    pairs.extend(extra)
    return pairs


def _plan_counts(diagnostics):
    """Deterministic counters of a correction plan for ``report.txt``: its
    streamlines and stacked trace calls, or its snap rounds and the one
    it kept ("none" when no round ran)."""
    if "rounds" in diagnostics:
        rounds = diagnostics["rounds"]
        best = diagnostics["best_round"]
        pairs = [("snap_rounds", len(rounds)),
                 ("snap_best_round", "none" if best is None else best)]
        for i, r in enumerate(rounds):
            pairs.append(("snap_round_%d" % i, "paths=%d rows=%d chains_35=%d"
                          % (r["paths"], r["rows"], r["chains_35"])))
        return pairs
    lines = diagnostics.get("streamlines", [])
    return [("streamlines", len(lines)),
            ("streamline_points", sum(len(sl.points) for sl in lines)),
            ("trace_batches", diagnostics.get("trace_batches", 0))]


def _load_or_solve(args, log):
    t0 = time.time()
    mesh = read_medit(args.mesh, feature_angle=args.angle_threshold)
    log("read: %.2fs" % (time.time() - t0))
    config = SolverConfig(smoothing_sweeps=args.sweeps,
                          projection_relaxation=args.relaxation)
    if args.field:
        field = read_field(args.field, mesh)
        log("field: read from %s" % args.field)
    else:
        t0 = time.time()
        field = compute_field(mesh, config)
        log("solve: %.1fs" % (time.time() - t0))
    return mesh, field, config


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError("cannot create --out %s: %s" % (path, exc)) from exc


def _emit(args, mesh, field, graph, extra=()):
    _make_out_dir(args.out)
    write_field(field, os.path.join(args.out, "field.txt"))
    write_vtk_graph(graph, os.path.join(args.out, "graph.vtk"))
    _write_report(os.path.join(args.out, "report.txt"),
                  _report_pairs(mesh, field, graph, extra))


def _cmd_solve(args, log):
    mesh, field, _ = _load_or_solve(args, log)
    graph = extract_graph(field)
    _emit(args, mesh, field, graph)
    print("chains: %d  3-5: %d" % (len(graph.chains), len(detect_35(graph))))
    return EXIT_OK


def _cmd_detect35(args, log):
    mesh, field, _ = _load_or_solve(args, log)
    graph = extract_graph(field)
    flagged = detect_35(graph)
    _emit(args, mesh, field, graph)
    for chain in flagged:
        print("chain %d: valences %s-%s, %d tets" % (
            chain.chain_id, chain.valence_start, chain.valence_end,
            len(chain.tets)))
    print("3-5 chains: %d" % len(flagged))
    return EXIT_OK


def _reject(args, mesh, field, graph, diagnostics, counts, message):
    """Write ``report.txt`` of a rejected correction, with the input field's
    counts, ``counts`` and the plan's counters and failures, and print
    ``message``."""
    _make_out_dir(args.out)
    pairs = _report_pairs(mesh, field, graph, [
        ("strategy", args.strategy),
        ("applicable", False),
    ] + counts + _plan_counts(diagnostics))
    for i, failure in enumerate(diagnostics.get("failures", [])):
        detail = ", ".join("%s=%s" % (k, failure[k]) for k in sorted(failure))
        pairs.append(("failure_%d" % i, detail))
    _write_report(os.path.join(args.out, "report.txt"), pairs)
    print("not applicable: %s" % message)
    return EXIT_NOT_APPLICABLE


def _cmd_correct(args, log):
    mesh, field, config = _load_or_solve(args, log)
    graph = extract_graph(field)
    before = len(detect_35(graph))
    tracer = TracerConfig(step_size=args.step)
    try:
        if args.strategy == "extrude-curve":
            plan = extrude_feature_curves(mesh, field, tracer_config=tracer)
            corrected = apply_plan(mesh, field, plan, config)
        elif args.strategy == "extrude-node":
            plan = extrude_singular_nodes(mesh, field, graph,
                                          tracer_config=tracer)
            corrected = apply_plan(mesh, field, plan, config)
        else:
            plan, corrected = snap_until_clean(mesh, field, graph, config)
    except NonApplicable as exc:
        return _reject(args, mesh, field, graph, exc.diagnostics,
                       [("chains_35_before", before)], exc)
    new_graph = plan.diagnostics["graph"]
    after = len(detect_35(new_graph))
    counts = [("chains_35_before", before), ("chains_35_after", after)]
    if after > before:
        # a correction that adds 3-5 chains has failed, whatever its plan
        plan.fail("chains_35_increased", before=before, after=after)
        return _reject(args, mesh, field, graph, plan.diagnostics, counts,
                       "3-5 chains rose from %d to %d" % (before, after))
    if not plan.applicable:
        return _reject(args, mesh, field, graph, plan.diagnostics, counts,
                       "%d 3-5 chains left unsnapped" % after)
    _emit(args, mesh, corrected, new_graph, [
        ("strategy", args.strategy),
        ("applicable", True),
    ] + counts + _plan_counts(plan.diagnostics))
    print("3-5 before: %d  after: %d" % (before, after))
    return EXIT_OK


def _cmd_trace(args, log):
    seed = _parse_triple(args.seed, "--seed")
    direction = _parse_triple(args.direction, "--dir")
    if not direction.any():
        raise SystemExit2("--dir must not be zero")
    mesh, field, _ = _load_or_solve(args, log)
    streamline = trace(field, seed, direction, TracerConfig(step_size=args.step))
    _make_out_dir(args.out)
    write_vtk_graph([streamline], os.path.join(args.out, "trace.vtk"))
    _write_report(os.path.join(args.out, "report.txt"), [
        ("termination", streamline.termination),
        ("points", len(streamline.points)),
        ("length", "%.12g" % streamline.length),
    ])
    print("%s after %.4g (%d points)" % (
        streamline.termination, streamline.length, len(streamline.points)))
    return EXIT_OK


def _cmd_report(args, log):
    path = os.path.join(args.out, "report.txt")
    if not os.path.exists(path):
        raise SystemExit2("no report.txt under %s" % args.out)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "graph": _cmd_solve,
    "detect35": _cmd_detect35,
    "correct": _cmd_correct,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    def log(message):
        if args.verbose:
            sys.stderr.write(message + "\n")

    try:
        return _COMMANDS[args.command](args, log)
    except SystemExit2 as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except CGDiverged as exc:
        sys.stderr.write("solver failure: %s\n" % exc)
        return EXIT_SOLVER_FAILURE
    except HexFrameError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
