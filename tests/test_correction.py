import os

import numpy as np
import pytest

import correction_oracle
import hexframe.correction
import hexframe.frames as fr
from hexframe.boxgen import generate_box
from hexframe.correction import (
    CorrectionPlan,
    SnapAssignment,
    _boundary_dijkstra,
    _boundary_graph,
    _merge_constraint,
    apply_plan,
    extrude_feature_curves,
    extrude_singular_nodes,
    extrusion_directions,
    snap_35_curves,
    snap_until_clean,
    snapped_rows,
)
from hexframe.errors import NonApplicable, WedgeMismatch
from hexframe.meshio import read_medit
from hexframe.singularities import (
    SingularChain,
    SingularityGraph,
    detect_35,
    extract_graph,
)
from hexframe.solver import (
    DIRICHLET,
    FREE,
    TANGENCY,
    BoundaryConditionSet,
    FrameField,
    SolverConfig,
    build_boundary_conditions,
    compute_field,
)
from hexframe.tracing import Streamline, TracerConfig, trace_lines
from solver_oracle import as_scipy

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def constant_field(mesh, bcs=None):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(mesh.vertices), 1))
    return FrameField(mesh, coeffs, bcs or BoundaryConditionSet(len(mesh.vertices)))


@pytest.fixture(scope="module")
def arc_box():
    return read_medit(os.path.join(FIXTURES, "arc_box.mesh"))


@pytest.fixture(scope="module")
def notch():
    return read_medit(os.path.join(FIXTURES, "notch.mesh"))


class TestExtrusionDirections:
    def test_flat_imprinted_curve_one_inward_normal(self, arc_box):
        # the imprinted arc separates two coplanar patches: valence 2,
        # single extrusion direction straight into the material
        field = constant_field(arc_box, build_boundary_conditions(arc_box))
        curve = next(c for c in arc_box.feature_curves if c.target_valence == 2)
        dirs = extrusion_directions(curve, field, len(curve.vertices) // 2)
        assert len(dirs) == 1
        assert np.allclose(dirs[0], [0, 0, -1], atol=1e-9)

    def test_directions_unit_and_orthogonal_to_tangent(self, notch):
        field = constant_field(notch, build_boundary_conditions(notch))
        for curve in notch.feature_curves:
            if curve.target_valence < 2:
                continue
            i = len(curve.vertices) // 2
            t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
            try:
                dirs = extrusion_directions(curve, field, i)
            except Exception:
                continue
            assert len(dirs) == curve.target_valence - 1
            for d in dirs:
                assert abs(np.linalg.norm(d) - 1.0) < 1e-9
                assert abs(d @ t) < 1e-6

    def test_planning_leaves_curve_tangents_unchanged(self):
        mesh = read_medit(os.path.join(FIXTURES, "arc_box.mesh"))
        field = constant_field(mesh, build_boundary_conditions(mesh))
        before = [c.tangents.copy() for c in mesh.feature_curves]
        curve = next(c for c in mesh.feature_curves if c.target_valence == 2)
        for i in range(len(curve.vertices)):
            try:
                extrusion_directions(curve, field, i)
            except WedgeMismatch:
                pass
        extrude_feature_curves(mesh, field)
        for b, c in zip(before, mesh.feature_curves):
            assert np.array_equal(b, c.tangents)


class TestConstraintMerging:
    def test_close_directions_merge(self):
        plan = CorrectionPlan("extrude-curve")
        d1 = np.array([1.0, 0.0, 0.0])
        d2 = np.array([np.cos(np.radians(3)), np.sin(np.radians(3)), 0.0])
        _merge_constraint(plan, 7, d1)
        _merge_constraint(plan, 7, d2)
        assert plan.applicable
        assert len(plan.internal_constraints) == 1
        kind, d = plan.internal_constraints[7]
        assert kind == TANGENCY and np.array_equal(d, d1)

    def test_opposite_directions_merge_as_lines(self):
        plan = CorrectionPlan("extrude-curve")
        d = np.array([0.0, 1.0, 0.0])
        _merge_constraint(plan, 7, d)
        _merge_constraint(plan, 7, -d)
        assert plan.applicable

    def test_shear_detected(self):
        plan = CorrectionPlan("extrude-curve")
        d1 = np.array([1.0, 0.0, 0.0])
        d2 = np.array([np.cos(np.radians(25)), np.sin(np.radians(25)), 0.0])
        _merge_constraint(plan, 7, d1)
        _merge_constraint(plan, 7, d2)
        assert not plan.applicable
        assert plan.diagnostics["failures"][0]["reason"] == "sheared_sheet"


class TestExtrusionRows:
    def test_sheet_rows_pin_surface_frames(self, arc_box):
        field = constant_field(arc_box, build_boundary_conditions(arc_box))
        plan = extrude_feature_curves(arc_box, field)
        assert plan.applicable
        boundary = set(arc_box.boundary_vertices.tolist())
        kinds = [k for k, _ in plan.internal_constraints.values()]
        assert DIRICHLET in kinds and TANGENCY in kinds
        for v, (kind, payload) in plan.internal_constraints.items():
            if kind == DIRICHLET:
                # the frame [n, d, n x d]: on the manifold, one axis along n
                assert v in boundary
                assert field.bcs.kind[v] == TANGENCY
                R, c = fr.project_to_octahedral(payload)
                assert np.abs(c - payload).max() < 1e-9
                assert np.abs(R.T @ field.bcs.normals[v]).max() > 1 - 1e-9
            else:
                assert kind == TANGENCY
                assert abs(np.linalg.norm(payload) - 1.0) < 1e-12


class TestLimitCycleDetection:
    def test_max_length_marks_plan_non_applicable(self, arc_box, monkeypatch):
        field = constant_field(arc_box, build_boundary_conditions(arc_box))
        cfg = TracerConfig(step_size=0.05, max_length=0.12)
        monkeypatch.setattr(hexframe.correction, "trace_lines",
                            lambda f, s, d: trace_lines(f, s, d, cfg))
        plan = extrude_feature_curves(arc_box, field)
        assert not plan.applicable
        failures = plan.diagnostics["failures"]
        assert "limit_cycle" in {f["reason"] for f in failures}
        # failures name the curve vertex in plain values, so the report
        # reads the same under every numpy version
        for f in failures:
            assert type(f["vertex"]) is int
            assert all(type(x) in (int, float, str) for x in f.values())


class TestNodeTube:
    def test_tube_rows_wind_about_the_columns(self, monkeypatch):
        # a 3-5 chain between two junctions whose ends trace to two straight
        # vertical columns along interior grid lines, of index 1/4 and -1/4
        mesh = generate_box(8, 8, 4, size=(2.0, 2.0, 1.0))
        # the solved field turned 0.3 rad about z, so the winding offset is
        # neither 0 nor an eighth turn
        turned = fr.coeffs_from_rotation(fr.axis_angle_rotation([0.0, 0.0, 0.3]))
        field = FrameField(mesh, np.tile(turned, (len(mesh.vertices), 1)),
                           build_boundary_conditions(mesh))
        centres = [(0.75, 1.0), (1.25, 1.0)]
        z = np.linspace(0.0, 1.0, 5)
        up = np.tile([0.0, 0.0, 1.0], (len(z), 1))

        def columns(field, seeds, directions):
            assert len(seeds) == 2
            return [Streamline(np.column_stack([np.full_like(z, x), np.full_like(z, y), z]),
                               up, "ExitedBoundary", 1.0) for x, y in centres], 1

        monkeypatch.setattr(hexframe.correction, "trace_lines", columns)
        chain = SingularChain(0, [0], [], [[0.75, 1.0, 0.5], [1.25, 1.0, 0.5]],
                              3, 5, ("junction", 0), ("junction", 1))
        graph = SingularityGraph([chain], [0, 1], [], [], {})
        plan = extrude_singular_nodes(mesh, field, graph)
        assert plan.applicable
        t = np.array([0.0, 0.0, 1.0])
        cols = plan.diagnostics["columns"]
        assert [c["index"] for c in cols] == [0.25, -0.25]
        assert all(np.array_equal(c["axis"], t) for c in cols)
        offset = plan.diagnostics["winding_offset"]
        assert 0.0 < abs(offset) < np.pi / 4 - 1e-3
        rows = plan.internal_constraints
        assert {kind for kind, _ in rows.values()} == {DIRICHLET}
        on_column = 0
        for v, (_, c) in rows.items():
            x, y, _ = mesh.vertices[v]
            if (x, y) in centres:
                # the azimuth degenerates on a column
                assert np.array_equal(c, fr.axisymmetric_coeffs(t))
                on_column += 1
                continue
            R, _ = fr.project_to_octahedral(c)
            gap = np.minimum(np.linalg.norm(R.T - t, axis=1),
                             np.linalg.norm(R.T + t, axis=1))
            assert gap.min() < 1e-6
            # an axis across t turns by a quarter of each column's azimuth,
            # modulo the frame's quarter-turn symmetry
            a = R[:, np.argmax(gap)]
            phase = offset + sum(index * np.arctan2(y - cy, x - cx) for index, (cx, cy)
                                 in zip((0.25, -0.25), centres))
            turn = np.arctan2(a[1], a[0]) - phase
            assert abs(turn - np.pi / 2 * np.round(turn / (np.pi / 2))) < 1e-6
        # both columns, with their end vertices on the faces they meet head-on
        assert on_column == 2 * len(z)


PARITY_SWEEPS = 5


@pytest.fixture(scope="module", params=["notch", "groove_box", "arc_box",
                                        "curved_arc_box", "halfsphere_box"])
def solved_fixture(request):
    mesh = read_medit(os.path.join(FIXTURES, request.param + ".mesh"))
    field = compute_field(mesh, SolverConfig(smoothing_sweeps=PARITY_SWEEPS))
    return mesh, field, extract_graph(field)


def assert_same_plan(got, want):
    assert want.internal_constraints
    assert list(got.internal_constraints) == list(want.internal_constraints)
    for v, (kind, payload) in want.internal_constraints.items():
        got_kind, got_payload = got.internal_constraints[v]
        assert got_kind == kind
        assert np.asarray(got_payload).tobytes() == np.asarray(payload).tobytes()
    assert got.diagnostics["failures"] == want.diagnostics["failures"]
    assert len(got.diagnostics["streamlines"]) == len(want.diagnostics["streamlines"])
    assert got.applicable == want.applicable


def assert_same_snaps(got, want):
    assert [(a.chain_id, a.targets, a.path) for a in got] == [
        (a.chain_id, a.targets, a.path) for a in want]


class TestOracleParity:
    """The whole-array planners make the plans of ``correction_oracle``,
    the loops they replaced, bit for bit: rows in the same insertion order,
    failures in the same order."""

    def test_extrude_curve(self, solved_fixture):
        mesh, field, _ = solved_fixture
        assert_same_plan(extrude_feature_curves(mesh, field),
                         correction_oracle.extrude_feature_curves(mesh, field))

    def test_extrude_node(self, solved_fixture):
        mesh, field, graph = solved_fixture
        got = extrude_singular_nodes(mesh, field, graph)
        want = correction_oracle.extrude_singular_nodes(mesh, field, graph)
        assert_same_plan(got, want)
        assert got.diagnostics["winding_offset"] == want.diagnostics["winding_offset"]

    def test_snap_rounds(self, solved_fixture):
        # the solved graph, then the graph after one snap round, plainly and
        # with the round's path vertices excluded
        mesh, field, graph = solved_fixture
        plan = CorrectionPlan("snap")
        plan.snapped = snap_35_curves(mesh, graph)
        assert_same_snaps(plan.snapped, correction_oracle.snap_35_curves(mesh, graph))
        if not plan.snapped:
            # closed 3-5 loops alone (curved_arc_box) snap nothing
            return
        plan.internal_constraints = snapped_rows(mesh, field.bcs, plan.snapped)
        apply_plan(mesh, field, plan)
        after = plan.diagnostics["graph"]
        covered = {v for a in plan.snapped for v in a.path}
        for exclude in ((), covered):
            assert_same_snaps(
                snap_35_curves(mesh, after, exclude=exclude),
                correction_oracle.snap_35_curves(mesh, after, exclude=exclude))


class TestSnapBestRound:
    def test_returns_round_with_fewest_35(self, solved_fixture, request):
        # halfsphere_box's 5-sweep field snaps for 8 rounds whose 3-5
        # counts rise and fall; the plan is the first round at the minimum
        mesh, field, graph = solved_fixture
        plan, corrected = snap_until_clean(mesh, field, graph)
        rounds = plan.diagnostics["rounds"]
        best = plan.diagnostics["best_round"]
        if not rounds:
            # closed 3-5 loops alone (curved_arc_box) snap nothing and fail
            assert best is None and corrected is field
            assert not plan.applicable
            assert plan.diagnostics["failures"] == [
                dict(reason="closed_chains_35", chains=len(detect_35(graph)))]
            return
        assert plan.applicable
        counts = [r["chains_35"] for r in rounds]
        if request.node.callspec.params["solved_fixture"] == "halfsphere_box":
            assert len(set(counts)) > 1
        assert best == counts.index(min(counts))
        assert len(detect_35(plan.diagnostics["graph"])) == min(counts)
        assert len(plan.snapped) == sum(r["paths"] for r in rounds[:best + 1])
        assert len(plan.internal_constraints) == rounds[best]["rows"]
        # the field is the re-solve under the kept rows
        again = CorrectionPlan("snap")
        again.internal_constraints = plan.internal_constraints
        assert np.array_equal(apply_plan(mesh, field, again).coeffs,
                              corrected.coeffs)


class TestBoundaryDijkstra:
    """The one boundary Dijkstra reaches what scipy's csgraph ``dijkstra``
    reaches; scipy is the reference here only."""

    @pytest.mark.parametrize("name", ["notch", "groove_box", "halfsphere_box"])
    @pytest.mark.parametrize("edges", [0.5, 3.0, 8.0])
    def test_reach_matches_scipy(self, name, edges):
        from scipy.sparse.csgraph import dijkstra

        mesh = read_medit(os.path.join(FIXTURES, name + ".mesh"))
        graph = _boundary_graph(mesh)
        sources = sorted(mesh.feature_vertex_set())[::7]
        limit = edges * mesh.mean_edge_length()
        dist, _ = _boundary_dijkstra(graph, sources, limit=limit)
        want = dijkstra(as_scipy(graph), indices=sources, min_only=True,
                        limit=limit)
        reached = np.flatnonzero(np.isfinite(want))
        assert sorted(dist) == reached.tolist()
        got = np.array([dist[v] for v in reached.tolist()])
        assert np.abs(got - want[reached]).max() <= 1e-12

    def test_released_rows_match_scipy(self, solved_fixture, monkeypatch):
        # every snap round's released rows are the tangency rows within
        # 3 mean edge lengths of its paths that keep no Dirichlet row
        from scipy.sparse.csgraph import dijkstra

        mesh, field, graph = solved_fixture
        calls = []

        def spy(mesh, bcs, snapped):
            rows = snapped_rows(mesh, bcs, snapped)
            calls.append((bcs, list(snapped), rows))
            return rows

        monkeypatch.setattr(hexframe.correction, "snapped_rows", spy)
        rounds = snap_until_clean(mesh, field, graph)[0].diagnostics["rounds"]
        assert len(calls) == len(rounds)
        for bcs, snapped, rows in calls:
            path = sorted({v for a in snapped for v in a.path})
            near = dijkstra(as_scipy(_boundary_graph(mesh)), indices=path,
                            min_only=True,
                            limit=3.0 * mesh.mean_edge_length())
            want = [v for v in np.flatnonzero(np.isfinite(near)).tolist()
                    if bcs.kind[v] == TANGENCY and rows[v][0] != DIRICHLET]
            assert [v for v, (kind, _) in rows.items() if kind == FREE] == want


def fake_35_graph(mesh, p_start, p_end):
    chain = SingularChain(
        0, [0], [], [p_start, p_end], 3, 5,
        ("boundary", np.asarray(p_start, float)),
        ("boundary", np.asarray(p_end, float)),
    )
    return SingularityGraph([chain], [], [(0, "start", chain.points[0]),
                                          (0, "end", chain.points[1])], [], {})


class TestSnapTargets:
    def test_endpoints_snap_to_distinct_vertices(self, notch):
        # both chain ends next to the same feature vertex
        fv = sorted(notch.feature_vertex_set())[0]
        p = notch.vertices[fv]
        graph = fake_35_graph(notch, p + 1e-3, p - 1e-3)
        snapped = snap_35_curves(notch, graph)
        assert len(snapped) == 1
        a = snapped[0].targets["start"][1]
        b = snapped[0].targets["end"][1]
        assert a != b
        assert len(snapped[0].path) >= 2
        assert snapped[0].path[0] == a
        assert snapped[0].path[-1] == b

    def test_no_35_chains_empty_plan(self, notch):
        graph = SingularityGraph([], [], [], [], {})
        assert snap_35_curves(notch, graph) == []

    def test_junctions_carry_snapping_along_open_chains(self):
        mesh = generate_box(4, 4, 4)
        J1, J2 = 101, 102
        p1, p2 = (0.3, 0.2, 0.45), (0.7, 0.3, 0.55)

        def chain(cid, valences, start, end, points):
            return SingularChain(cid, [], [], points, *valences, start, end)

        closed = ("closed", None)
        chains = [
            # A: the 3-5 chain, from the x = y = 0 box edge to J1
            chain(0, (3, 5), ("boundary", np.array([0.02, 0.02, 0.5])),
                  ("junction", J1), [(0.02, 0.02, 0.5), p1]),
            # D: a closed loop, never snapped even with 3-5 valences
            chain(1, (3, 5), closed, closed,
                  [(0.5, 0.5, 0.4), (0.6, 0.5, 0.5), (0.5, 0.5, 0.4)]),
            # B: from J1 to J2
            chain(2, (3, 3), ("junction", J1), ("junction", J2), [p1, p2]),
            # E: boundary to boundary, touching no due junction
            chain(3, (3, 3), ("boundary", np.array([0.5, 0.98, 0.1])),
                  ("boundary", np.array([0.5, 0.98, 0.9])),
                  [(0.5, 0.98, 0.1), (0.5, 0.98, 0.9)]),
            # C: from J2 to the x = 1, y = 0 box edge
            chain(4, (5, 5), ("junction", J2),
                  ("boundary", np.array([0.98, 0.02, 0.5])),
                  [p2, (0.98, 0.02, 0.5)]),
        ]
        graph = SingularityGraph(chains, [J1, J2], [], [], {})
        snapped = snap_35_curves(mesh, graph)
        assert [a.chain_id for a in snapped] == [0, 2, 4]
        assert [(a.targets["start"][0], a.targets["end"][0]) for a in snapped] == [
            ("feature", "surface"), ("surface", "surface"), ("surface", "feature")]
        assert_same_snaps(snapped, correction_oracle.snap_35_curves(mesh, graph))

    def test_excluded_target_takes_the_next_nearest(self, notch):
        fv = sorted(notch.feature_vertex_set() | set(notch.corners))
        p = notch.vertices[fv[0]] + [1e-3, 2e-3, 3e-3]
        graph = fake_35_graph(notch, p, notch.vertices[fv[-1]])
        d = np.linalg.norm(notch.vertices[fv] - p, axis=1)
        first, second, third = np.argsort(d)[:3]
        assert d[first] < d[second] < d[third]
        plain = snap_35_curves(notch, graph)[0]
        assert plain.targets["start"] == ("feature", fv[first])
        moved = snap_35_curves(notch, graph, exclude=[fv[first]])[0]
        assert moved.targets["start"] == ("feature", fv[second])
        assert moved.path[0] == fv[second]
        assert moved.targets["end"] == plain.targets["end"]


def top_face_row(mesh, lo, hi):
    """Top-face vertices on y = 0.5 with lo < x < hi, by increasing x."""
    row = [v for v in map(int, mesh.boundary_vertices)
           if abs(mesh.vertices[v][2] - 1.0) < 1e-12
           and abs(mesh.vertices[v][1] - 0.5) < 1e-12
           and lo < mesh.vertices[v][0] < hi]
    return sorted(row, key=lambda v: mesh.vertices[v][0])


def straight_snap(row):
    return [SnapAssignment(
        0, {"start": ("surface", row[0]), "end": ("surface", row[-1])}, row)]


class TestSnappedBoundaryConditions:
    def test_empty_plan_leaves_bcs_unchanged(self, notch):
        assert snapped_rows(notch, build_boundary_conditions(notch), []) == {}

    def test_straight_path_gets_45_degree_frames(self):
        mesh = generate_box(6, 6, 3)
        # interior straight line on the top face, tangent +x, normal +z
        row = top_face_row(mesh, 0.1, 0.9)
        assert len(row) >= 3
        rows = snapped_rows(mesh, build_boundary_conditions(mesh),
                            straight_snap(row))
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        Rx45 = np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)
        want = fr.coeffs_from_rotation(Rx45)
        for v in row[1:-1]:
            kind, got = rows[v]
            assert kind == DIRICHLET
            assert np.allclose(got, want, atol=1e-9)

    def test_release_radius_confines_freeing(self):
        mesh = generate_box(8, 8, 3)
        row = top_face_row(mesh, 0.2, 0.8)
        r = 3 * mesh.mean_edge_length()
        ref = build_boundary_conditions(mesh)
        rows = snapped_rows(mesh, ref, straight_snap(row))
        path_pts = mesh.vertices[row]
        ref_tangency = np.flatnonzero(ref.kind == TANGENCY)
        far = 0
        for v in ref_tangency:
            d = np.linalg.norm(path_pts - mesh.vertices[v], axis=1).min()
            if d > r:
                far += 1
                assert v not in rows
        assert far
        freed = [v for v, (kind, _) in rows.items() if kind == FREE]
        assert freed
        for v in freed:
            assert ref.kind[v] == TANGENCY
            d = np.linalg.norm(path_pts - mesh.vertices[v], axis=1).min()
            assert d <= r + 1e-9


class TestApplyPlan:
    def test_non_applicable_raises_with_diagnostics(self, notch):
        field = constant_field(notch, build_boundary_conditions(notch))
        plan = CorrectionPlan("extrude-curve")
        plan.fail("sheared_sheet", vertex=1, angle=42.0)
        before = field.coeffs.copy()
        with pytest.raises(NonApplicable) as err:
            apply_plan(notch, field, plan)
        assert err.value.diagnostics["failures"][0]["reason"] == "sheared_sheet"
        # the field is untouched on failure
        assert np.array_equal(field.coeffs, before)

    def test_snap_rows_written_onto_field_bcs(self):
        mesh = generate_box(6, 6, 3)
        bcs = build_boundary_conditions(mesh)
        # an extra Dirichlet row away from the path, on the bottom face
        extra = next(v for v in map(int, mesh.boundary_vertices)
                     if abs(mesh.vertices[v][2]) < 1e-12
                     and bcs.kind[v] == TANGENCY)
        bcs.set_dirichlet(extra, fr.REFERENCE_COEFFS)
        field = constant_field(mesh, bcs)
        plan = CorrectionPlan("snap")
        plan.snapped = straight_snap(top_face_row(mesh, 0.1, 0.9))
        plan.internal_constraints = snapped_rows(mesh, field.bcs, plan.snapped)
        assert extra not in plan.internal_constraints
        corrected = apply_plan(mesh, field, plan,
                               SolverConfig(smoothing_sweeps=1))
        want = field.bcs.copy()
        for v, (kind, payload) in plan.internal_constraints.items():
            if kind == DIRICHLET:
                want.set_dirichlet(v, payload)
            else:
                assert kind == FREE
                want.set_free(v)
        assert corrected.bcs.kind[extra] == DIRICHLET
        assert np.array_equal(corrected.bcs.kind, want.kind)
        assert np.array_equal(corrected.bcs.coeffs, want.coeffs)
        assert np.array_equal(corrected.bcs.normals, want.normals)

    def test_resolve_runs_under_the_field_config(self):
        # the default 50-sweep budget would take this field to 19 sweeps
        mesh = generate_box(4, 4, 4, bulge=0.3)
        field = compute_field(mesh, SolverConfig(smoothing_sweeps=2))
        out = apply_plan(mesh, field, CorrectionPlan("snap"))
        assert out.config is field.config
        assert out.report["smoothing_sweeps"] == 2

    def test_snap_until_clean_identity_without_35(self):
        mesh = generate_box(4, 4, 4)
        field = constant_field(mesh, build_boundary_conditions(mesh))
        plan, out = snap_until_clean(mesh, field)
        assert plan.snapped == []
        assert out is field
        assert plan.diagnostics["graph"].chains == []
