"""The benchmark's workloads.

A workload has a list of ops, run in a seed-shuffled order once per round.
``setup()`` builds one fresh set of inputs.  ``run(op, inputs)`` is the
timed work; it calls hexframe only through module attributes, so a traced
run sees every call.  ``inspect(op, outputs, checks)`` is not timed: it
applies the acceptance checks and returns the op's deterministic counters,
which must repeat exactly across rounds and runs.
"""

import hashlib
import os

import numpy as np

from hexframe import boxgen, correction, meshio, singularities, solver
from hexframe.mesh import TetMesh

import make_inputs

# Sweep budget of every solve and re-solve.  The default 50 sweeps take
# 15-25 s per fixture on a 2-core machine, which would leave one sample per
# run; every sweep costs the same, so a short budget times the same code.
# The acceptance checks of `solve` and `correct` hold at this budget.
SWEEPS = 5
# sweep budget of the smoke mode, which only exercises the code paths
SMOKE_SWEEPS = 2
BOX_CELLS = 12
SMOKE_BOX_CELLS = 8


class Checks:
    """Failed acceptance checks of one op.

    A check marked ``budget`` holds only at the benchmark's sweep budget; the
    smoke mode still evaluates it but records it as skipped.
    """

    def __init__(self, smoke):
        self.smoke = smoke
        self.failed = []
        self.skipped = []

    def expect(self, ok, what, budget=False):
        if ok:
            return
        (self.skipped if budget and self.smoke else self.failed).append(what)


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def file_digest(path):
    return make_inputs.file_sha256(path)[:16]


def random_rotation(rng):
    """Uniform rotation from a random unit quaternion."""
    w, x, y, z = rng.standard_normal(4)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def mesh_size(mesh):
    return {"vertices": len(mesh.vertices), "tets": len(mesh.tets),
            "interior_faces": int(mesh.adjacency.interior_mask.sum())}


def field_counters(field):
    r = field.report
    return {"sweeps": r.get("smoothing_sweeps"),
            "converged": r.get("smoothing_converged"),
            "last_delta": r.get("smoothing_last_delta"),
            "energy": r.get("dirichlet_energy"),
            "cg_info": r.get("cg_info"),
            "coeffs": digest(field.coeffs)}


def frame_counters(field):
    frames, quality = field.vertex_frames()
    return {"hot_vertices": int((quality < 0.5).sum()),
            "min_quality": float(quality.min()),
            "frames": digest(frames)}


def graph_counters(graph):
    return {"chains": len(graph.chains),
            "chains_35": sum(c.is_35 for c in graph.chains),
            "junctions": len(graph.junction_tets),
            "boundary_nodes": len(graph.boundary_nodes),
            "defects": len(graph.defects),
            "singular_faces": len(graph.singular_faces)}


class Workload:
    def __init__(self, root, seed, smoke, tmp, tracer):
        self.root = root
        self.smoke = smoke
        self.tmp = tmp
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.ops = [self.ops[i] for i in self.rng.permutation(len(self.ops))]
        self.config = solver.SolverConfig(
            smoothing_sweeps=SMOKE_SWEEPS if smoke else SWEEPS)

    def fixture(self, name):
        return make_inputs.fixture_path(self.root, name)


class Solve(Workload):
    """Cold solve of a fixture and its written field, as `hexframe solve`.

    The timed op ends with the written field.  The 3-5 detection that
    checks it runs untimed, once per distinct field: a field whose
    coefficients repeat exactly has the same graph.
    """

    ops = ["notch", "groove_box"]

    def __init__(self, *args):
        super().__init__(*args)
        self.verdicts = {}

    def setup(self):
        return {name: meshio.read_medit(self.fixture(name)) for name in self.ops}

    def describe(self, meshes):
        return {name: mesh_size(m) for name, m in sorted(meshes.items())}

    def run(self, op, meshes):
        mesh = meshes[op]
        bcs = solver.build_boundary_conditions(mesh)
        K = solver.assemble_stiffness(mesh)
        field = solver.solve_initial(mesh, bcs, self.config, K=K)
        field = solver.smooth_nonlinear(field, self.config, K=K)
        out = os.path.join(self.tmp, op)
        os.makedirs(out, exist_ok=True)
        meshio.write_field(field, os.path.join(out, "field.txt"))
        return field, out

    def detect(self, op, field, out):
        """Counters and failed checks of the field's 3-5 detection."""
        checks = Checks(self.smoke)
        graph = singularities.extract_graph(field)
        singularities.detect_35(graph)
        _, _, charge = singularities.surface_cross_indices(field)
        meshio.write_vtk_graph(graph, os.path.join(out, "graph.vtk"))
        checks.expect(charge == 2, "%s: total surface charge is 2" % op)
        flagged = [c for c in graph.chains if c.is_35]
        if op == "notch":
            checks.expect(
                len(graph.chains) == 1 and flagged == graph.chains
                and graph.chains[0].endpoint_start[0] == "boundary"
                and graph.chains[0].endpoint_end[0] == "boundary",
                "notch: one 3-5 chain with both ends on the boundary",
                budget=True)
        elif op == "groove_box":
            checks.expect(len(flagged) == 2, "groove_box: two 3-5 chains",
                          budget=True)
        counters = dict(frame_counters(field), **graph_counters(graph),
                        charge=str(charge),
                        graph_vtk=file_digest(os.path.join(out, "graph.vtk")))
        return counters, checks

    def inspect(self, op, outputs, checks):
        field, out = outputs
        key = (op, digest(field.coeffs))
        if key not in self.verdicts:
            self.verdicts[key] = self.detect(op, field, out)
        counters, verdict = self.verdicts[key]
        checks.failed.extend(verdict.failed)
        checks.skipped.extend(verdict.skipped)
        return dict(field_counters(field), **counters,
                    field_txt=file_digest(os.path.join(out, "field.txt")))


class Correct(Workload):
    """The three corrections, each from a solved field, re-solve included."""

    ops = ["snap", "extrude_curve", "extrude_node"]
    SOURCE = {"snap": "notch", "extrude_curve": "arc_box",
              "extrude_node": "arc_box"}

    def setup(self):
        with np.load(make_inputs.FIELDS) as data:
            stored = {k: data[k] for k in data.files}
        inputs = {}
        for name in make_inputs.NAMES:
            path = self.fixture(name)
            if str(stored[name + ".sha256"]) != make_inputs.file_sha256(path):
                raise RuntimeError("%s changed since bench/data/fields.npz was "
                                   "written; run bench/make_inputs.py" % path)
            mesh = meshio.read_medit(path)
            inputs[name] = (mesh, stored[name],
                            solver.build_boundary_conditions(mesh))
        return inputs

    def describe(self, inputs):
        return {name: dict(mesh_size(m), coeffs=digest(c))
                for name, (m, c, _) in sorted(inputs.items())}

    def run(self, op, inputs):
        mesh, coeffs, bcs = inputs[self.SOURCE[op]]
        field = solver.FrameField(mesh, coeffs.copy(), bcs, self.config)
        if op == "snap":
            return correction.snap_until_clean(mesh, field,
                                               solver_config=self.config)
        if op == "extrude_curve":
            plan = correction.extrude_feature_curves(mesh, field)
        else:
            graph = singularities.extract_graph(field)
            plan = correction.extrude_singular_nodes(mesh, field, graph)
        return plan, correction.apply_plan(mesh, field, plan, self.config)

    def inspect(self, op, outputs, checks):
        plan, corrected = outputs
        graph = plan.diagnostics["graph"]
        flagged = [c for c in graph.chains if c.is_35]
        if op == "snap":
            checks.expect(not flagged, "snap: no 3-5 chain left", budget=True)
        else:
            valences = [{"other" if f.index == "other" else 4 - 4 * f.index
                         for f in c.faces} for c in graph.chains]
            checks.expect(plan.applicable, "%s: plan applicable" % op)
            checks.expect(
                len(graph.chains) == 2 and not flagged
                and all(len(v) == 1 for v in valences)
                and set().union(*valences) == {3, 5},
                "%s: two chains of constant valence 3 and 5" % op, budget=True)
        lines = plan.diagnostics["streamlines"]
        return dict(field_counters(corrected), **graph_counters(graph),
                    applicable=plan.applicable,
                    constraints=len(plan.internal_constraints),
                    failures=len(plan.diagnostics["failures"]),
                    streamlines=len(lines),
                    points=sum(len(s.points) for s in lines),
                    paths=len(plan.snapped),
                    path_vertices=sum(len(a.path) for a in plan.snapped))


class Graph(Workload):
    """Frames, graph and surface indices of a rotated bulged box."""

    ops = ["extract"]

    def __init__(self, *args):
        super().__init__(*args)
        self.rotation = random_rotation(self.rng)
        self.cells = SMOKE_BOX_CELLS if self.smoke else BOX_CELLS

    def setup(self):
        n = self.cells
        box = boxgen.generate_box(n, n, n, bulge=0.3)
        with self.tracer.span("mesh.build"):
            mesh = TetMesh(box.vertices @ self.rotation.T, box.tets,
                           feature_edges=box.tagged_feature_edges,
                           corners=box.tagged_corners)
        mesh.detect_features(30.0)
        bcs = solver.build_boundary_conditions(mesh)
        K = solver.assemble_stiffness(mesh)
        field = solver.solve_initial(mesh, bcs, self.config, K=K)
        return mesh, field.coeffs, bcs

    def describe(self, inputs):
        mesh, coeffs, _ = inputs
        return {"box": dict(mesh_size(mesh), cells=self.cells,
                            coeffs=digest(coeffs))}

    def run(self, op, inputs):
        mesh, coeffs, bcs = inputs
        # a fresh field, so no projected frames are cached
        field = solver.FrameField(mesh, coeffs, bcs, self.config)
        field.vertex_frames()
        graph = singularities.extract_graph(field)
        singularities.detect_35(graph)
        _, _, charge = singularities.surface_cross_indices(field)
        return field, graph, charge

    def inspect(self, op, outputs, checks):
        field, graph, charge = outputs
        checks.expect(charge == 2, "box: total surface charge is 2")
        checks.expect(not graph.chains and not graph.defects,
                      "box: no chains and no defects")
        return dict(frame_counters(field), **graph_counters(graph),
                    charge=str(charge))


WORKLOADS = {"solve": Solve, "correct": Correct, "graph": Graph}
