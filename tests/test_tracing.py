import os
from types import SimpleNamespace

import numpy as np
import pytest

import hexframe.frames as fr
import hexframe.tracing as tracing
from hexframe.boxgen import generate_box
from hexframe.correction import extrude_feature_curves, extrude_singular_nodes
from hexframe.errors import OutsideMesh, SeedOutside, WalkFailed
from hexframe.meshio import read_medit
from hexframe.singularities import extract_graph
from hexframe.solver import BoundaryConditionSet, FrameField, SolverConfig, compute_field
from hexframe.tracing import (
    TOL,
    TracerConfig,
    _barycentric,
    _frames_at,
    _MeshSampler,
    _walk,
    locate,
    trace,
    trace_lines,
)

import tracing_oracle

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def box():
    return generate_box(4, 4, 4)


@pytest.fixture(scope="module")
def constant_field(box):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
    return FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))


def walk_one(mesh, tet, p, q):
    """One walk of the batched ``_walk``: ``(tet or -1, s)``."""
    tets, s = _walk(mesh, [tet], np.asarray(p, dtype=float)[None],
                    np.asarray(q, dtype=float)[None])
    return int(tets[0]), s[0]


class TestLocate:
    def test_center(self, box):
        tet = int(locate(box, [0.5, 0.5, 0.5]))
        assert tet >= 0
        v = box.vertices[box.tets[tet]]
        assert (v.min(axis=0) <= 0.5 + 1e-12).all()
        assert (v.max(axis=0) >= 0.5 - 1e-12).all()

    def test_outside(self, box):
        assert locate(box, [2.0, 0.5, 0.5]) == -1

    def test_batch_matches_per_point_scan(self, box):
        # vertices and face centroids lie in several tets: the lowest wins
        rng = np.random.default_rng(5)
        faces = box.vertices[box.tets[:, :3]].mean(axis=1)
        points = np.concatenate([
            rng.uniform(-0.2, 1.2, size=(40, 3)), box.vertices[::7],
            faces[::11], [[2.0, 0.5, 0.5], [0.5, 0.5, 1.0 + 2e-10]]])
        got = locate(box, points)
        want = [tracing_oracle.locate(box, p) for p in points]
        assert got.tolist() == [-1 if t is None else t for t in want]
        assert (got == -1).any() and (got >= 0).any()
        assert locate(box, points[:0]).shape == (0,)

    def test_walk_matches_scan(self, box):
        rng = np.random.default_rng(3)
        start = box.vertices[box.tets[0]].mean(axis=0)
        for _ in range(25):
            p = rng.uniform(0.05, 0.95, size=3)
            t_walk, s = walk_one(box, 0, start, p)
            t_scan = int(locate(box, p))
            assert s == 1.0 and t_walk >= 0 and t_scan >= 0
            # both contain the point (possibly distinct tets on a face)
            for tet in (t_walk, t_scan):
                assert _barycentric(box, [tet], p[None]).min() >= -TOL

    def test_batched_walks_match_single_walks(self, box):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.05, 0.95, size=(30, 3))
        q = p + rng.normal(scale=0.6, size=(30, 3))
        tets = locate(box, p)
        got_t, got_s = _walk(box, tets, p, q)
        want = [walk_one(box, t, a, b) for t, a, b in zip(tets, p, q)]
        assert got_t.tolist() == [t for t, _ in want]
        assert got_s.tobytes() == np.array([s for _, s in want]).tobytes()
        assert (got_t == -1).any() and (got_t >= 0).any()

    def test_walk_exit_parameter_on_boundary(self, box):
        p = np.array([0.5, 0.5, 0.5])
        tet = int(locate(box, p))
        got, s = walk_one(box, tet, p, np.array([2.0, 0.6, 0.4]))
        assert got == -1
        assert abs(p[0] + s * 1.5 - 1.0) < 1e-9

    def test_walk_raises_instead_of_cycling(self, box):
        # every face leads back to tet 0: the walk must not return a tet
        adj = SimpleNamespace(tet_faces=box.adjacency.tet_faces,
                              face_tets=np.zeros_like(box.adjacency.face_tets))
        looped = SimpleNamespace(vertices=box.vertices, tets=box.tets,
                                 adjacency=adj)
        start = box.vertices[box.tets[0]].mean(axis=0)
        with pytest.raises(WalkFailed):
            walk_one(looped, 0, start, np.array([0.9, 0.9, 0.9]))


class TestInterpolation:
    def test_constant_field(self, constant_field):
        p = np.array([[0.37, 0.52, 0.61]])
        R, q = _frames_at(constant_field, locate(constant_field.mesh, p), p)
        assert q[0] > 1.0 - 1e-9
        c = fr.wigner4(R[0]) @ fr.REFERENCE_COEFFS
        assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-8)

    def test_outside_raises(self, constant_field):
        where, R, q = _MeshSampler(constant_field).sample(
            np.array([[5.0, 0.0, 0.0], [0.5, 0.5, 0.5]]), None)
        assert where[0] == -1 and where[1] >= 0
        assert q[0] == 0.0 and q[1] > 1.0 - 1e-9
        with pytest.raises(OutsideMesh):
            trace(constant_field, [5.0, 0.0, 0.0], [1, 0, 0])

    def test_stack_matches_rows(self, box):
        # a stack of samples gives the same bits as one-row samples
        theta = 0.7 * box.vertices[:, 0] + 0.4 * box.vertices[:, 2]
        coeffs = np.stack([fr.coeffs_from_rotation(rot_z(t)) for t in theta])
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        p = np.random.default_rng(6).uniform(0.02, 0.98, size=(40, 3))
        tets = locate(box, p)
        R, q = _frames_at(field, tets, p)
        for k in range(len(p)):
            Rk, qk = _frames_at(field, tets[k:k + 1], p[k:k + 1])
            assert Rk.tobytes() == R[k:k + 1].tobytes()
            assert qk.tobytes() == q[k:k + 1].tobytes()
            # the one-row sampler the tracer had
            Ro, qo, _ = tracing_oracle._frame_in_tet(field, int(tets[k]), p[k])
            assert Ro.tobytes() == R[k].tobytes() and qo == q[k]

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_zero_norm_or_non_finite_rows_get_identity(self, box, bad):
        # the rule of vertex_frames
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
        coeffs[box.vertices[:, 0] > 0.6] = bad
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        p = np.array([[0.9, 0.5, 0.5], [0.1, 0.5, 0.5]])
        R, q = _frames_at(field, locate(box, p), p)
        assert R[0].tobytes() == np.eye(3).tobytes() and q[0] == 0.0
        assert q[1] > 1.0 - 1e-9


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

    def test_one_scan_per_batch(self, constant_field, monkeypatch):
        calls = []

        def counted(mesh, points):
            calls.append(points)
            return locate(mesh, points)

        monkeypatch.setattr(tracing, "locate", counted)
        seeds = [[0.1, 0.52, 0.48], [0.5, 0.1, 0.5], [0.3, 0.3, 0.2]]
        lines, _ = trace_lines(constant_field, seeds, [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               TracerConfig(step_size=0.05))
        assert [sl.termination for sl in lines] == ["ExitedBoundary"] * 3
        assert len(calls) == 1 and len(calls[0]) == 3

    def test_four_samples_per_step(self, constant_field, monkeypatch):
        # the seed's sample, then 3 RK4 stages and the end point per step:
        # stage 0 is the seed or the last end point, sampled already
        calls = []

        def counted(field, tets, points):
            calls.append(points)
            return frames_at(field, tets, points)

        frames_at = tracing._frames_at
        monkeypatch.setattr(tracing, "_frames_at", counted)
        cfg = TracerConfig(step_size=0.05, max_length=0.28)
        sl = trace(constant_field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "MaxLength" and len(sl.points) == 7
        assert len(calls) == 1 + 4 * 6
        # lines in lockstep share each stage's call
        calls.clear()
        lines, batches = trace_lines(
            constant_field, [[0.1, 0.5, 0.5], [0.5, 0.1, 0.5], [0.5, 0.5, 0.88]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], cfg)
        # the third line leaves at the first stage of its third step, and
        # only the points inside the mesh are projected
        assert [len(sl.points) for sl in lines] == [7, 7, 4]
        assert lines[2].termination == "ExitedBoundary"
        assert len(calls) == batches == 1 + 4 * 6
        assert [len(c) for c in calls] == [3] * (1 + 4 * 2) + [2] * (4 * 4)

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

    def sample(self, points, starts):
        R = np.stack([rot_z(self.k * x) for x in points[:, 0]])
        return np.zeros(len(points), dtype=np.int64), R, np.ones(len(points))


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


class TestLockstep:
    """``trace_lines`` over k seeds against k ``trace`` calls."""

    @pytest.fixture(scope="class")
    def mixed_field(self, box):
        # a mild twist, a flipped blob (low quality) and a zero region
        theta = 0.3 * np.sin(np.pi * box.vertices[:, 0])
        coeffs = np.stack([fr.coeffs_from_rotation(rot_z(t)) for t in theta])
        blob = np.linalg.norm(box.vertices - [0.75, 0.5, 0.5], axis=1) < 0.3
        coeffs[blob] = -fr.REFERENCE_COEFFS
        coeffs[np.linalg.norm(box.vertices - [0.25, 0.25, 1.0], axis=1) < 0.3] = 0.0
        return FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))

    SEEDS = [
        ([0.1, 0.5, 0.5], [1, 0, 0]),      # into the blob
        ([0.5, 0.2, 0.3], [0, 0, 1]),      # out through the top
        ([3.0, 0.5, 0.5], [1, 0, 0]),      # outside the mesh
        ([0.3, 0.05, 0.1], [0, 1, 0]),     # to the length budget
        ([0.25, 0.25, 0.4], [0, 0, 1]),    # into the zero region
        ([0.75, 0.5, 0.5], [1, 0, 0]),     # seeded in the blob
        ([0.45, 0.5, 0.1], [-1, 0, 0]),    # out through x = 0
    ]

    def test_batch_equals_single_traces(self, mixed_field):
        cfg = TracerConfig(step_size=0.04, max_length=0.7)
        seeds, dirs = zip(*self.SEEDS)
        lines, batches = trace_lines(mixed_field, seeds, dirs, cfg)
        assert len(lines) == len(self.SEEDS)
        for sl, seed, d in zip(lines, seeds, dirs):
            try:
                one = trace(mixed_field, seed, d, cfg)
            except SeedOutside:
                assert sl is None
                continue
            assert sl.points.tobytes() == one.points.tobytes()
            assert sl.directions.tobytes() == one.directions.tobytes()
            assert sl.termination == one.termination
            assert sl.length == one.length
        ends = [None if sl is None else (sl.termination, len(sl.points)) for sl in lines]
        assert ends[2] is None
        assert ends[5] == ("HitSingularRegion", 1)
        assert {e[0] for e in ends if e} == {
            "ExitedBoundary", "HitSingularRegion", "MaxLength"}
        # the lines end at different steps
        assert len({e[1] for e in ends if e}) >= 4
        longest = max(e[1] for e in ends if e)
        assert batches <= 1 + 4 * (longest - 1)

    def test_zero_region_ends_in_singular_region(self, mixed_field):
        sl = trace(mixed_field, [0.25, 0.25, 0.4], [0, 0, 1],
                   TracerConfig(step_size=0.04, max_length=0.7))
        assert sl.termination == "HitSingularRegion"
        assert sl.points[-1][2] < 0.85

    def test_empty_batch(self, mixed_field):
        assert trace_lines(mixed_field, np.zeros((0, 3)), np.zeros((0, 3))) == ([], 0)


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

        def oracle_lines(field, seeds, directions, config=None):
            lines = []
            for seed, direction in zip(seeds, directions):
                try:
                    lines.append(tracing_oracle.trace(field, seed, direction, config))
                except SeedOutside:
                    lines.append(None)
            return lines, 0

        got = plan()
        monkeypatch.setattr(correction, "trace_lines", oracle_lines)
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

    def test_curve_plan_projects_once_per_stage(self, solved5, monkeypatch):
        # the lockstep bound: the seed batch, then 4 stacked calls per step
        mesh, field, _ = solved5
        field.vertex_frames()
        calls = []

        def counted(Q, warm_start=None):
            calls.append(len(Q))
            return project(Q, warm_start=warm_start)

        project = fr.project_to_octahedral
        monkeypatch.setattr(fr, "project_to_octahedral", counted)
        plan = extrude_feature_curves(mesh, field)
        lines = plan.diagnostics["streamlines"]
        steps = max(len(sl.points) for sl in lines) - 1
        assert len(calls) <= plan.diagnostics["trace_batches"] <= 1 + 4 * steps
        assert sum(calls) >= sum(len(sl.points) for sl in lines)
