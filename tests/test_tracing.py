import os
from types import SimpleNamespace

import numpy as np
import pytest

import hexframe.frames as fr
import hexframe.tracing as tracing
from hexframe.boxgen import generate_box
from hexframe.correction import extrude_feature_curves, extrude_singular_nodes
from hexframe.errors import SeedOutside, WalkFailed
from hexframe.meshio import read_medit
from hexframe.singularities import extract_graph
from hexframe.solver import BoundaryConditionSet, FrameField, SolverConfig, compute_field
from hexframe.tracing import (
    TOL,
    TracerConfig,
    _barycentric,
    _walk,
    interpolate_frame,
    locate,
    trace,
)

import tracing_oracle

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def box():
    mesh = generate_box(4, 4, 4)
    mesh.detect_features(30.0)
    return mesh


@pytest.fixture(scope="module")
def constant_field(box):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
    return FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))


class TestLocate:
    def test_center(self, box):
        tet = locate(box, [0.5, 0.5, 0.5])
        assert tet is not None
        v = box.vertices[box.tets[tet]]
        assert (v.min(axis=0) <= 0.5 + 1e-12).all()
        assert (v.max(axis=0) >= 0.5 - 1e-12).all()

    def test_outside(self, box):
        assert locate(box, [2.0, 0.5, 0.5]) is None

    def test_walk_matches_scan(self, box):
        rng = np.random.default_rng(3)
        start = box.vertices[box.tets[0]].mean(axis=0)
        for _ in range(25):
            p = rng.uniform(0.05, 0.95, size=3)
            t_walk, s = _walk(box, 0, start, p)
            t_scan = locate(box, p)
            assert s == 1.0 and t_walk is not None and t_scan is not None
            # both contain the point (possibly distinct tets on a face)
            for tet in (t_walk, t_scan):
                assert _barycentric(box, tet, p).min() >= -TOL

    def test_walk_exit_parameter_on_boundary(self, box):
        p = np.array([0.5, 0.5, 0.5])
        tet = locate(box, p)
        got, s = _walk(box, tet, p, np.array([2.0, 0.6, 0.4]))
        assert got is None
        assert abs(p[0] + s * 1.5 - 1.0) < 1e-9

    def test_walk_raises_instead_of_cycling(self, box):
        # every face leads back to tet 0: the walk must not return a tet
        adj = SimpleNamespace(tet_faces=box.adjacency.tet_faces,
                              face_tets=np.zeros_like(box.adjacency.face_tets))
        looped = SimpleNamespace(vertices=box.vertices, tets=box.tets,
                                 adjacency=adj)
        start = box.vertices[box.tets[0]].mean(axis=0)
        with pytest.raises(WalkFailed):
            _walk(looped, 0, start, np.array([0.9, 0.9, 0.9]))


class TestInterpolation:
    def test_constant_field(self, constant_field):
        R, q, tet = interpolate_frame(constant_field, [0.37, 0.52, 0.61])
        assert q > 1.0 - 1e-9
        c = fr.wigner4(R) @ fr.REFERENCE_COEFFS
        assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-8)

    def test_outside_raises(self, constant_field):
        from hexframe.errors import OutsideMesh

        with pytest.raises(OutsideMesh):
            interpolate_frame(constant_field, [5.0, 0.0, 0.0])


class TestStraightTraces:
    def test_axis_aligned_straight(self, constant_field):
        sl = trace(constant_field, [0.1, 0.52, 0.48], [1.0, 0.1, 0.05])
        assert sl.termination == "ExitedBoundary"
        dev = np.abs(sl.points[:, 1:] - np.array([0.52, 0.48])).max()
        assert dev < 1e-12
        assert sl.points[-1][0] > 1.0 - 1e-6

    def test_exit_point_on_boundary(self, constant_field):
        sl = trace(constant_field, [0.5, 0.5, 0.5], [0.0, 0.0, 1.0])
        assert sl.termination == "ExitedBoundary"
        assert abs(sl.points[-1][2] - 1.0) < 1e-9

    def test_max_length(self, constant_field):
        cfg = TracerConfig(step_size=0.05, max_length=0.2)
        sl = trace(constant_field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "MaxLength"
        assert 0.2 <= sl.length < 0.2 + 0.05 + 1e-12

    def test_seed_outside(self, constant_field):
        with pytest.raises(SeedOutside):
            trace(constant_field, [3.0, 0.5, 0.5], [1, 0, 0])

    def test_one_scan_per_trace(self, constant_field, monkeypatch):
        calls = []

        def counted(mesh, point):
            calls.append(point)
            return locate(mesh, point)

        monkeypatch.setattr(tracing, "locate", counted)
        sl = trace(constant_field, [0.1, 0.52, 0.48], [1.0, 0.1, 0.05],
                   TracerConfig(step_size=0.05))
        assert sl.termination == "ExitedBoundary" and len(sl.points) > 10
        assert len(calls) == 1

    def test_four_samples_per_step(self, constant_field, monkeypatch):
        # the seed's sample, then 3 RK4 stages and the end point per step:
        # stage 0 is the seed or the last end point, sampled already
        calls = []

        def counted(field, tet, point):
            calls.append(point)
            return frame_in_tet(field, tet, point)

        frame_in_tet = tracing._frame_in_tet
        monkeypatch.setattr(tracing, "_frame_in_tet", counted)
        cfg = TracerConfig(step_size=0.05, max_length=0.28)
        sl = trace(constant_field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "MaxLength" and len(sl.points) == 7
        assert len(calls) == 1 + 4 * 6

    def test_stops_at_near_wall_of_gap(self):
        # a step long enough to jump the groove: its end point lies in the
        # material beyond, but the segment to it leaves the mesh first
        mesh = read_medit(os.path.join(FIXTURES, "groove_box.mesh"))
        c = fr.coeffs_from_rotation(fr.axis_angle_rotation([0, 0, np.pi / 4]))
        field = FrameField(mesh, np.tile(c, (len(mesh.vertices), 1)),
                           BoundaryConditionSet(len(mesh.vertices)))
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        seed = np.array([1.0, 0.05, 0.8]) - 1.3 * u
        sl = trace(field, seed, u, TracerConfig(step_size=1.15))
        assert sl.termination == "ExitedBoundary"
        assert len(sl.points) == 2
        assert np.allclose(sl.points[-1], [0.5466, 0.5034, 0.8], atol=1e-3)
        assert abs(sl.length - 0.6588) < 1e-3
        assert locate(mesh, sl.points[-1]) is not None


class TestReversal:
    def test_forward_backward_returns(self, box):
        # mildly rotating field, interpolated on the mesh
        theta = 0.3 * np.sin(np.pi * box.vertices[:, 0])
        coeffs = np.stack([fr.coeffs_from_rotation(rot_z(t)) for t in theta])
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        h = 0.05
        cfg = TracerConfig(step_size=h, max_length=0.5)
        start = np.array([0.2, 0.35, 0.5])
        fwd = trace(field, start, [1, 0, 0], cfg)
        assert fwd.termination == "MaxLength"
        back_cfg = TracerConfig(step_size=h, max_length=fwd.length)
        back = trace(field, fwd.points[-1], -fwd.directions[-1], back_cfg)
        gap = np.linalg.norm(back.points[-1] - start)
        assert gap < h


class _AnalyticField:
    """Smooth synthetic field for convergence studies, no mesh attached."""

    def __init__(self, k):
        self.k = k

    def sample(self, point, hint):
        return rot_z(self.k * point[0]), 1.0, hint


class TestConvergenceOrder:
    def test_rk4_order(self):
        k = 0.8
        field = _AnalyticField(k)

        def curve_error(h):
            cfg = TracerConfig(step_size=h, max_length=1.0)
            sl = trace(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], cfg)
            x, y = sl.points[-1][0], sl.points[-1][1]
            # exact streamline: x = gd(ks)/k, y = ln(cosh(ks))/k
            t = np.arctanh(np.sin(k * x))  # inverse gudermannian of kx
            y_exact = np.log(np.cosh(t)) / k
            return abs(y - y_exact)

        e1 = curve_error(0.05)
        e2 = curve_error(0.025)
        e3 = curve_error(0.0125)
        assert np.log2(e1 / e2) > 3.5
        assert np.log2(e2 / e3) > 3.5


class TestSingularTermination:
    def test_low_quality_blob_stops_trace(self, box):
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
        blob = np.nonzero(
            np.linalg.norm(box.vertices - np.array([0.75, 0.5, 0.5]), axis=1) < 0.3
        )[0]
        coeffs[blob] = -fr.REFERENCE_COEFFS
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        cfg = TracerConfig(step_size=0.04)
        sl = trace(field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "HitSingularRegion"
        assert sl.points[-1][0] < 0.75


@pytest.fixture(scope="module", params=["notch", "arc_box"])
def solved5(request):
    mesh = read_medit(os.path.join(FIXTURES, request.param + ".mesh"))
    field = compute_field(mesh, SolverConfig(smoothing_sweeps=5))
    return mesh, field, extract_graph(field)


class TestOracleParity:
    """Plans traced with walks against ``tracing_oracle``: the greedy walk
    with a box-scan fallback and the exit bisection."""

    @pytest.mark.parametrize("strategy", ["curve", "node"])
    def test_plans_match_reference(self, solved5, strategy, monkeypatch):
        import hexframe.correction as correction

        mesh, field, graph = solved5

        def plan():
            if strategy == "curve":
                return extrude_feature_curves(mesh, field)
            return extrude_singular_nodes(mesh, field, graph)

        got = plan()
        monkeypatch.setattr(correction, "trace", tracing_oracle.trace)
        want = plan()
        assert got.applicable == want.applicable
        assert got.diagnostics["failures"] == want.diagnostics["failures"]
        lines = got.diagnostics["streamlines"]
        ref = want.diagnostics["streamlines"]
        assert [sl.termination for sl in lines] == [sl.termination for sl in ref]
        assert [len(sl.points) for sl in lines] == [len(sl.points) for sl in ref]
        for sl, rl in zip(lines, ref):
            assert np.abs(sl.points - rl.points).max() <= 1e-15
            assert abs(sl.length - rl.length) <= 1e-15
        rows, ref_rows = got.internal_constraints, want.internal_constraints
        assert rows.keys() == ref_rows.keys()
        for v, (kind, payload) in rows.items():
            assert kind == ref_rows[v][0]
            if strategy == "curve":
                assert np.asarray(payload).tobytes() == np.asarray(ref_rows[v][1]).tobytes()
