"""End-to-end acceptance checks on the bundled fixture models.

Each test is one verifiable claim about the pipeline: frame algebra
invariants, solver behavior on canonical shapes, singular charge
bookkeeping, the 3-5 curve topology of every fixture, the three
correction strategies, streamline integration accuracy and bytewise
determinism of the command line artifacts.  Full solves are cached per
fixture, so the suite runs each model once.
"""

import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hexframe.frames as fr
from hexframe.boxgen import generate_box
from hexframe.cli import main as cli_main
from hexframe.correction import (
    apply_plan,
    extrude_feature_curves,
    extrude_singular_nodes,
    snap_35_curves,
    snap_until_clean,
)
from hexframe.meshio import read_medit, write_field
from hexframe.singularities import (
    detect_35,
    extract_graph,
    surface_cross_indices,
)
from hexframe.solver import TANGENCY, compute_field
from hexframe.tracing import TracerConfig, trace

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURE_NAMES = (
    "notch", "halfsphere_box", "groove_box", "arc_box", "curved_arc_box")

_cache = {}


def solved(name):
    """Mesh and solved field for a fixture, computed once per session."""
    if name not in _cache:
        mesh = read_medit(os.path.join(FIXTURES, name + ".mesh"))
        _cache[name] = (mesh, compute_field(mesh))
    return _cache[name]


def random_rotation(rng):
    w, x, y, z = rng.standard_normal(4)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class TestFrameAlgebra:
    def test_invariants_over_many_rotations(self):
        rng = np.random.default_rng(42)
        t0 = time.time()
        Ra = random_rotation(rng)
        Wa = fr.wigner4(Ra)
        g_elems = fr.OCTA_GROUP
        worst_norm = 0.0
        worst_equiv = 0.0
        worst_octa = 0.0
        worst_idem = 0.0
        for i in range(10000):
            R = random_rotation(rng)
            c = fr.coeffs_from_rotation(R)
            worst_norm = max(worst_norm, abs(np.linalg.norm(c) - 1.0))
            worst_equiv = max(worst_equiv, np.max(np.abs(
                fr.coeffs_from_rotation(Ra @ R) - Wa @ c)))
            g = g_elems[i % 24]
            worst_octa = max(worst_octa, np.max(np.abs(
                fr.coeffs_from_rotation(R @ g) - c)))
            _, pc = fr.project_to_octahedral(c)
            worst_idem = max(worst_idem, np.max(np.abs(pc - c)))
        elapsed = time.time() - t0
        assert worst_norm < 1e-10
        assert worst_equiv < 1e-9
        assert worst_octa < 1e-10
        assert worst_idem < 1e-6
        assert elapsed < 10.0


class TestCubeField:
    def test_constant_field_and_empty_graph(self):
        mesh = generate_box(6, 6, 6)
        mesh.detect_features(30.0)
        field = compute_field(mesh)
        dev = np.max(np.abs(field.coeffs - fr.REFERENCE_COEFFS))
        assert dev < 1e-7
        graph = extract_graph(field)
        assert len(graph.chains) == 0
        assert len(graph.defects) == 0


class TestChargeConservation:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_total_charge_is_two(self, name):
        _, field = solved(name)
        _, _, total = surface_cross_indices(field)
        assert total == Fraction(2)


class TestNotchTopology:
    def test_single_35_chain_ending_on_boundary(self):
        _, field = solved("notch")
        graph = extract_graph(field)
        assert len(graph.chains) == 1
        chain = graph.chains[0]
        assert chain.is_35
        assert detect_35(graph) == [chain]
        assert chain.endpoint_start[0] == "boundary"
        assert chain.endpoint_end[0] == "boundary"


class TestNotchSnap:
    def test_snap_removes_35_and_confines_violation(self):
        mesh, field = solved("notch")
        graph = extract_graph(field)
        plan, corrected = snap_until_clean(mesh, field, graph)
        final = plan.diagnostics["graph"]
        assert len(detect_35(final)) == 0

        # the snapped path runs along the curved step wall: one endpoint on
        # the concave floor arc, the other on the imprinted top arc
        first = plan.snapped[0]
        on_floor = 0
        for end in ("start", "end"):
            kind, v = first.targets[end]
            assert kind == "feature"
            x, y, z = mesh.vertices[v]
            r = np.hypot(x - 2.0, y)
            if abs(r - 0.396) < 0.08 and abs(z - 0.6) < 0.08:
                on_floor += 1
            else:
                assert abs(r - 0.55) < 0.08 and abs(z - 1.0) < 0.08
        assert on_floor >= 1

        # released tangency stays within the configured radius of the paths
        radius = 3.0 * mesh.mean_edge_length()
        path_pts = np.concatenate(
            [mesh.vertices[a.path] for a in plan.snapped])
        frames, _ = corrected.vertex_frames()
        for v in np.flatnonzero(field.bcs.kind == TANGENCY):
            n = field.bcs.normals[v]
            axis = fr.closest_direction(n, frames[v])
            violation = np.arccos(min(1.0, abs(float(axis @ n))))
            if violation > 1e-3:
                d = np.linalg.norm(path_pts - mesh.vertices[v], axis=1).min()
                assert d <= radius + 1e-9


class TestHalfSphere:
    def test_four_35_chains_then_none(self):
        mesh, field = solved("halfsphere_box")
        graph = extract_graph(field)
        assert len(detect_35(graph)) == 4
        plan, _ = snap_until_clean(mesh, field, graph)
        assert len(detect_35(plan.diagnostics["graph"])) == 0


class TestGroove:
    def test_two_35_chains(self):
        _, field = solved("groove_box")
        graph = extract_graph(field)
        assert len(detect_35(graph)) == 2


def chain_valences(chain):
    return {4 - 4 * f.index for f in chain.faces}


class TestExtrusionSuccess:
    @pytest.mark.parametrize("strategy", ["curve", "node"])
    def test_arc_box_corrected_to_two_clean_chains(self, strategy):
        mesh, field = solved("arc_box")
        graph = extract_graph(field)
        if strategy == "curve":
            plan = extrude_feature_curves(mesh, field)
        else:
            plan = extrude_singular_nodes(mesh, field, graph)
        assert plan.applicable
        apply_plan(mesh, field, plan)
        corrected = plan.diagnostics["graph"]
        assert len(corrected.chains) == 2
        assert len(detect_35(corrected)) == 0
        seen = set()
        for chain in corrected.chains:
            vals = chain_valences(chain)
            assert len(vals) == 1, "chain valence not constant"
            seen |= vals
        assert seen == {3, 5}


class TestExtrusionFailure:
    @pytest.mark.parametrize("strategy", ["extrude-curve", "extrude-node"])
    def test_curved_arc_box_rejected_via_cli(self, strategy, tmp_path):
        mesh, field = solved("curved_arc_box")
        field_path = str(tmp_path / "field.txt")
        write_field(field, field_path)
        before = Path(field_path).read_bytes()
        out = str(tmp_path / "out")
        code = cli_main([
            "correct", "--mesh",
            os.path.join(FIXTURES, "curved_arc_box.mesh"),
            "--field", field_path, "--out", out, "--strategy", strategy,
        ])
        assert code == 2
        report = Path(out, "report.txt").read_text()
        assert "applicable: False" in report
        assert "failure_0" in report
        assert ("sheared_sheet" in report
                or "streamline_hit_singularity" in report
                or "limit_cycle" in report)
        # the input field is untouched and no corrected field is written
        assert Path(field_path).read_bytes() == before
        assert not os.path.exists(os.path.join(out, "field.txt"))


class _RotatingField:
    """Analytic frame sampler: rotation about z grows linearly in x."""

    def __init__(self, k):
        self.k = k

    def sample(self, point, hint):
        a = self.k * point[0]
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]), 1.0, hint


class TestStreamlines:
    def test_constant_field_straightness(self):
        mesh = generate_box(6, 6, 6)
        mesh.detect_features(30.0)
        field = compute_field(mesh)
        line = trace(field, np.array([0.05, 0.37, 0.44]),
                     np.array([1.0, 0.0, 0.0]), TracerConfig(step_size=0.02))
        pts = np.asarray(line.points)
        assert np.max(np.abs(pts[:, 1:] - pts[0, 1:])) < 1e-12

    def test_reversal_closure(self):
        mesh, field = solved("notch")
        h = 0.05
        start = np.array([0.3, 0.4, 0.3])
        fwd = trace(field, start, [1.0, 0.0, 0.0],
                    TracerConfig(step_size=h, max_length=0.5))
        back = trace(field, fwd.points[-1], -fwd.directions[-1],
                     TracerConfig(step_size=h, max_length=fwd.length))
        assert np.linalg.norm(back.points[-1] - start) < h

    def test_rk4_convergence_order(self):
        k = 0.8
        field = _RotatingField(k)

        def endpoint_error(h):
            sl = trace(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                       TracerConfig(step_size=h, max_length=1.0))
            x, y = sl.points[-1][0], sl.points[-1][1]
            t = np.arctanh(np.sin(k * x))
            return abs(y - np.log(np.cosh(t)) / k)

        e1, e2, e3 = (endpoint_error(h) for h in (0.05, 0.025, 0.0125))
        assert np.log2(e1 / e2) >= 3.5
        assert np.log2(e2 / e3) >= 3.5


class TestDeterminism:
    def test_identical_runs_identical_artifacts(self, tmp_path):
        outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for out in outs:
            code = cli_main([
                "solve", "--mesh", os.path.join(FIXTURES, "notch.mesh"),
                "--out", out, "--sweeps", "12",
            ])
            assert code == 0
        for name in ("field.txt", "graph.vtk", "report.txt"):
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
            assert a == b, name
