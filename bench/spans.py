"""Spans around calls into hexframe's public functions.

A traced run wraps the public functions listed in LAYERS wherever the
hexframe modules bind them, so the benchmark's own calls and the calls the
library makes internally (the re-solve inside `apply_plan`, the tracing
inside `extrude_feature_curves`, ...) each get a span.  Spans are kept in
memory and written out when the run ends.  An untraced run makes the same
calls with nothing wrapped.
"""

import contextlib
import functools
import importlib
import statistics
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record a span; ``op`` starts a new op id for it and its children."""
        if not self.enabled:
            yield None
            return
        outer_op = self._op
        if op is not None:
            self._op = op
        s = Span(name, self._stack[-1] if self._stack else -1, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def coverage(self, names):
        """Share of each named span's time covered by its direct children."""
        child = {}
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return [child.get(i, 0.0) / s.duration
                for i, s in enumerate(self.spans)
                if s.name in names and s.duration > 0]


# -- counters read off the results of wrapped calls --------------------------

def _cg_counts(result, args):
    return {"solver.cg_info": result.report.get("cg_info", 0)}


def _smooth_counts(result, args):
    r = result.report
    return {"solver.sweeps": r["smoothing_sweeps"],
            "solver.converged": int(r["smoothing_converged"]),
            "solver.last_delta": r["smoothing_last_delta"],
            "solver.energy": r["dirichlet_energy"]}


def _frame_counts(result, args):
    _, quality = result
    return {"frames.vertices": len(quality),
            "frames.hot_vertices": int((quality < 0.5).sum()),
            "frames.min_quality": float(quality.min())}


def _graph_counts(graph, args):
    field = args[0]
    return {"singularities.faces": int(field.mesh.adjacency.interior_mask.sum()),
            "singularities.singular_faces": len(graph.singular_faces),
            "singularities.chains": len(graph.chains),
            "singularities.chains_35": sum(c.is_35 for c in graph.chains),
            "singularities.defects": len(graph.defects)}


def _trace_counts(line, args):
    return {"tracing.streamlines": 1, "tracing.points": len(line.points)}


def _plan_counts(plan, args):
    return {"correction.constraints": len(plan.internal_constraints),
            "correction.failures": len(plan.diagnostics["failures"])}


def _snap_counts(result, args):
    plan, _ = result
    return {"correction.snap.paths": len(plan.snapped),
            "correction.snap.path_vertices": sum(len(a.path) for a in plan.snapped)}


def _apply_name(args):
    return "correction.%s.apply" % args[2].strategy.replace("-", "_")


# (module, attribute, span name or function of the call's args, counters)
LAYERS = [
    ("hexframe.meshio", "read_medit", "meshio.read", None),
    ("hexframe.meshio", "write_field", "meshio.write", None),
    ("hexframe.meshio", "write_vtk_graph", "meshio.write", None),
    ("hexframe.boxgen", "generate_box", "boxgen.generate", None),
    ("hexframe.mesh", "TetMesh.detect_features", "mesh.detect_features", None),
    ("hexframe.solver", "build_boundary_conditions", "solver.bcs", None),
    ("hexframe.solver", "assemble_stiffness", "solver.stiffness", None),
    ("hexframe.solver", "solve_initial", "solver.cg", _cg_counts),
    ("hexframe.solver", "smooth_nonlinear", "solver.smooth", _smooth_counts),
    ("hexframe.solver", "FrameField.vertex_frames", "frames.vertex_frames",
     _frame_counts),
    ("hexframe.singularities", "extract_graph", "singularities.extract",
     _graph_counts),
    ("hexframe.singularities", "detect_35", "singularities.detect_35", None),
    ("hexframe.singularities", "surface_cross_indices", "singularities.surface",
     None),
    ("hexframe.tracing", "trace", "tracing.trace", _trace_counts),
    ("hexframe.correction", "snap_until_clean", "correction.snap", _snap_counts),
    ("hexframe.correction", "snap_35_curves", "correction.snap.plan", None),
    ("hexframe.correction", "extrude_feature_curves",
     "correction.extrude_curve.plan", _plan_counts),
    ("hexframe.correction", "extrude_singular_nodes",
     "correction.extrude_node.plan", _plan_counts),
    ("hexframe.correction", "apply_plan", _apply_name, None),
]

# how a counter combines over the spans of one op
COUNTER_AGG = {
    "solver.last_delta": max,
    "solver.cg_info": max,
    "frames.min_quality": min,
}


def _wrap(tracer, fn, name, counts, skip_cached=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # a cached vertex_frames() is a lookup, not projection work
        if skip_cached and args[0]._frames is not None:
            return fn(*args, **kwargs)
        label = name(args) if callable(name) else name
        with tracer.span(label) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span.counts.update(counts(result, args))
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every LAYERS function in every hexframe module that binds it."""
    for modname, _, _, _ in LAYERS:
        importlib.import_module(modname)
    modules = [m for n, m in sys.modules.items()
               if n == "hexframe" or n.startswith("hexframe.")]
    undo = []
    try:
        for modname, attr, name, counts in LAYERS:
            owner = sys.modules[modname]
            cls, _, method = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
                fn = owner.__dict__[method]
                undo.append((owner, method, fn))
                setattr(owner, method, _wrap(tracer, fn, name, counts,
                                             method == "vertex_frames"))
                continue
            fn = getattr(owner, attr)
            wrapped = _wrap(tracer, fn, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        yield
    finally:
        for obj, key, fn in reversed(undo):
            setattr(obj, key, fn)


STRUCTURE = ("setup", "op")


def layer_metrics(tracer):
    """Per-layer self times and counters of a traced run.

    Op ids are "setupN" for set-ups and "rN/<op>" for the ops of round N;
    the calls the untimed checks make have no op id and are left out.
    A layer's value is its median over the set-ups plus, for each op, its
    median over that op's runs, summed over the ops: the same sum of
    medians as round_s.
    """
    units = {}
    for s, st in zip(tracer.spans, tracer.self_times()):
        # spans outside set-ups and ops come from the untimed checks
        if s.name in STRUCTURE or s.op is None:
            continue
        times, counts = units.setdefault(s.op, ({}, {}))
        times[s.name + "_s"] = times.get(s.name + "_s", 0.0) + st
        for key, value in s.counts.items():
            agg = COUNTER_AGG.get(key)
            old = counts.get(key)
            counts[key] = value if old is None else (
                agg(old, value) if agg else old + value)
    kinds = {}
    for uid, unit in units.items():
        kind = "setup" if uid.startswith("setup") else uid.split("/", 1)[1]
        kinds.setdefault(kind, []).append(unit)
    out = {}
    for field in (0, 1):
        keys = sorted({k for u in units.values() for k in u[field]})
        for key in keys:
            parts = [statistics.median(vals) for vals in (
                [u[field][key] for u in us if key in u[field]]
                for us in kinds.values()) if vals]
            agg = COUNTER_AGG.get(key)
            out[key] = agg(parts) if agg else sum(parts)
    return out
