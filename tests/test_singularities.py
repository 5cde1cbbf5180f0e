import os
from fractions import Fraction

import numpy as np
import pytest

import hexframe.frames as fr
import hexframe.singularities as sing
import singularity_oracle as oracle
from hexframe.boxgen import generate_box
from hexframe.mesh import TetMesh
from hexframe.meshio import read_medit
from hexframe.singularities import (
    detect_35,
    extract_graph,
    stable_direction,
    surface_cross_indices,
)
from hexframe.solver import BoundaryConditionSet, FrameField, SolverConfig, compute_field


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def analytic_quarter_field(mesh, sign=1.0, center=(0.5, 0.5)):
    """Frames spinning by a quarter turn around a vertical axis."""
    theta = np.arctan2(
        mesh.vertices[:, 1] - center[1], mesh.vertices[:, 0] - center[0]
    )
    coeffs = np.stack(
        [fr.coeffs_from_rotation(rot_z(sign * t / 4.0)) for t in theta]
    )
    return FrameField(mesh, coeffs, BoundaryConditionSet(len(mesh.vertices)))


@pytest.fixture(scope="module")
def box():
    return generate_box(5, 5, 3)


@pytest.fixture(scope="module")
def valence3_field(box):
    return analytic_quarter_field(box, sign=1.0)


@pytest.fixture(scope="module")
def valence5_field(box):
    return analytic_quarter_field(box, sign=-1.0)


class TestFaceClassification:
    def test_constant_field_no_singular_faces(self, box):
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        graph = extract_graph(field)
        assert graph.singular_faces == {}
        assert graph.defects == []

    def test_quarter_turn_face(self, valence3_field, box):
        graph = extract_graph(valence3_field)
        face = graph.chains[0].faces[0]
        # holonomy is a quarter turn about the vertical axis
        W = face.world_rotation
        assert np.allclose(W @ W @ W @ W, np.eye(3), atol=1e-9)
        angle = np.arccos(np.clip((np.trace(W) - 1) / 2, -1, 1))
        assert abs(angle - np.pi / 2) < 1e-9
        axis = np.array([W[2, 1] - W[1, 2], W[0, 2] - W[2, 0], W[1, 0] - W[0, 1]])
        axis /= np.linalg.norm(axis)
        assert abs(abs(axis[2]) - 1.0) < 1e-9

    def test_index_intrinsic_positive_quarter(self, valence3_field, box):
        # the quarter index does not depend on the triangle orientation:
        # flipping the loop flips both the holonomy axis and the normal
        graph = extract_graph(valence3_field)
        for face in graph.chains[0].faces:
            assert face.index == Fraction(1, 4)


class TestGraphExtraction:
    def test_constant_field_empty(self, box):
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        graph = extract_graph(field)
        assert graph.chains == []
        assert graph.junction_tets == []
        assert graph.boundary_nodes == []

    def test_single_vertical_chain(self, valence3_field, box):
        graph = extract_graph(valence3_field)
        assert len(graph.chains) == 1
        ch = graph.chains[0]
        assert ch.endpoint_start[0] == "boundary"
        assert ch.endpoint_end[0] == "boundary"
        assert len(graph.boundary_nodes) == 2
        zs = ch.points[:, 2]
        assert zs.min() < 1e-9 and zs.max() > 1.0 - 1e-9
        # the chain hugs the vertical axis
        assert np.abs(ch.points[:, :2] - 0.5).max() < 0.35

    def test_valence_three(self, valence3_field):
        graph = extract_graph(valence3_field)
        ch = graph.chains[0]
        assert ch.valence_start == 3
        assert ch.valence_end == 3
        assert not ch.is_35

    def test_valence_five(self, valence5_field):
        graph = extract_graph(valence5_field)
        assert len(graph.chains) == 1
        ch = graph.chains[0]
        assert ch.valence_start == 5
        assert ch.valence_end == 5

    def test_no_35_chains(self, valence3_field, valence5_field):
        assert detect_35(extract_graph(valence3_field)) == []
        assert detect_35(extract_graph(valence5_field)) == []

    def test_determinism(self, valence3_field):
        g1 = extract_graph(valence3_field)
        g2 = extract_graph(valence3_field)
        a = [(c.tets, [f.face_id for f in c.faces]) for c in g1.chains]
        b = [(c.tets, [f.face_id for f in c.faces]) for c in g2.chains]
        assert a == b


class TestStableDirection:
    def test_vertical_chain_points_inward(self, valence3_field):
        graph = extract_graph(valence3_field)
        ch = graph.chains[0]
        for end in ("start", "end"):
            d = stable_direction(valence3_field, ch, end)
            assert abs(abs(d[2]) - 1.0) < 1e-9
            desc = ch.endpoint_start if end == "start" else ch.endpoint_end
            z = desc[1][2]
            if z < 0.5:
                assert d[2] > 0
            else:
                assert d[2] < 0


def quarter_pairs(per_tri):
    """The int quarter units of ``surface_cross_indices`` as the oracle's
    ``(triangle, Fraction)`` pairs."""
    assert per_tri.dtype.kind == "i"
    return [(t, Fraction(int(k), 4)) for t, k in enumerate(per_tri)]


class TestSurfaceCrossIndices:
    def test_cube_constant_field(self):
        mesh = generate_box(3, 3, 3)
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(mesh.vertices), 1))
        field = FrameField(mesh, coeffs, BoundaryConditionSet(len(mesh.vertices)))
        per_tri, per_vertex, total = surface_cross_indices(field)
        assert per_tri.dtype.kind == "i"
        assert np.array_equal(per_tri, np.zeros(len(mesh.boundary_tris)))
        assert total == Fraction(2)
        corners = {
            v
            for v in range(len(mesh.vertices))
            if all(abs(x) < 1e-12 or abs(x - 1) < 1e-12 for x in mesh.vertices[v])
        }
        assert set(per_vertex) == corners
        assert all(q == 1 for q in per_vertex.values())

    def test_total_with_interior_chain(self, valence3_field):
        _, _, total = surface_cross_indices(valence3_field)
        assert total == Fraction(2)

    def test_total_mirror_field(self, valence5_field):
        _, _, total = surface_cross_indices(valence5_field)
        assert total == Fraction(2)


def exact_quarter_field(mesh, sign):
    """The quarter field with its exact frames in place of projected ones."""
    field = analytic_quarter_field(mesh, sign)
    theta = np.arctan2(mesh.vertices[:, 1] - 0.5, mesh.vertices[:, 0] - 0.5)
    field._frames = np.array([rot_z(sign * t / 4.0) for t in theta])
    field._quality = np.ones(len(theta))
    return field


class TestQuarterFieldInvariance:
    """Results on the quarter fields do not depend on projection accidents
    or on how a quarter-turn tie rounds."""

    @pytest.mark.parametrize("name", ["valence3_field", "valence5_field"])
    def test_projection_recovers_exact_frames(self, name, request):
        _, quality = request.getfixturevalue(name).vertex_frames()
        assert quality.min() >= 1.0 - 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_total_with_exact_frames(self, box, sign):
        field = exact_quarter_field(box, sign)
        per_tri, per_vertex, total = surface_cross_indices(field)
        assert total == Fraction(2)
        ref_tri, ref_vertex, ref_total = oracle.surface_cross_indices(field)
        assert quarter_pairs(per_tri) == ref_tri
        assert list(per_vertex.items()) == list(ref_vertex.items())
        assert ref_total == total


@pytest.fixture(scope="module")
def rotated_box_field():
    """Short solve on a bulged box in general position, with 3-5 chains."""
    box = generate_box(6, 6, 6, bulge=0.3)
    R = fr.axis_angle_rotation(np.array([0.3, -0.7, 1.1]))
    mesh = TetMesh(box.vertices @ R.T, box.tets,
                   feature_edges=box.tagged_feature_edges,
                   corners=box.tagged_corners)
    return compute_field(mesh, SolverConfig(smoothing_sweeps=5))


@pytest.fixture(scope="module")
def rotated_box_hot_field(rotated_box_field):
    """The same field with interior vertices zeroed: their faces are hot."""
    mesh = rotated_box_field.mesh
    coeffs = rotated_box_field.coeffs.copy()
    interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_vertices)
    coeffs[interior[::40]] = 0.0
    return FrameField(mesh, coeffs, rotated_box_field.bcs)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def five_sweep_field(name):
    mesh = read_medit(os.path.join(FIXTURES, name + ".mesh"))
    return compute_field(mesh, SolverConfig(smoothing_sweeps=5))


@pytest.fixture(scope="module")
def notch_field():
    return five_sweep_field("notch")


@pytest.fixture(scope="module")
def groove_box_field():
    return five_sweep_field("groove_box")


def _graph_summary(graph):
    faces = sorted((int(fid), f.group_elem, f.index)
                   for fid, f in graph.singular_faces.items())
    chains = [(ch.tets, [int(f.face_id) for f in ch.faces], ch.valence_start,
               ch.valence_end, ch.endpoint_start[0], ch.endpoint_end[0])
              for ch in graph.chains]
    return faces, chains, graph.junction_tets, graph.defects


@pytest.mark.parametrize("name", ["valence3_field", "valence5_field",
                                  "rotated_box_field", "rotated_box_hot_field",
                                  "notch_field", "groove_box_field"])
class TestPerFaceParity:
    """The whole-array classification equals the per-face reference loops."""

    def test_graph(self, name, request, monkeypatch):
        field = request.getfixturevalue(name)
        graph = extract_graph(field)
        singular, hot = oracle.classify_faces(field)
        assert {int(fid): f.group_elem for fid, f in graph.singular_faces.items()} == singular
        assert [d for d in graph.defects if d[0] == "hot_face"] == hot
        # the same chain assembly fed by the per-face holonomy
        monkeypatch.setattr(sing, "_holonomy", oracle.holonomy_rows)
        assert _graph_summary(graph) == _graph_summary(extract_graph(field))

    def test_surface_cross_indices(self, name, request):
        field = request.getfixturevalue(name)
        per_tri, per_vertex, total = surface_cross_indices(field)
        ref_tri, ref_vertex, ref_total = oracle.surface_cross_indices(field)
        assert quarter_pairs(per_tri) == ref_tri
        assert list(per_vertex.items()) == list(ref_vertex.items())
        assert total == ref_total


def test_parity_fields_exercise_classification(rotated_box_field, rotated_box_hot_field,
                                               notch_field, groove_box_field):
    graph = extract_graph(rotated_box_field)
    assert detect_35(graph)
    assert any(d[0] == "hot_face" for d in extract_graph(rotated_box_hot_field).defects)
    assert detect_35(extract_graph(notch_field))
    assert detect_35(extract_graph(groove_box_field))


def test_holonomy_matches_each_directed_edge_once(rotated_box_field, monkeypatch):
    """The classification matches each distinct directed edge of the
    non-hot interior faces once, not each face's three edges."""
    adj = rotated_box_field.mesh.adjacency
    _, quality = rotated_box_field.vertex_frames()
    tris = adj.faces[adj.interior_mask]
    tris = tris[~(quality < sing.QUALITY_CUTOFF)[tris].any(axis=1)]
    edges = {(int(a), int(b)) for row in tris
             for a, b in zip(row, np.roll(row, -1))}
    matched = []
    match = fr.octa_matching

    def counting(Ra, Rb):
        matched.append(len(Ra))
        return match(Ra, Rb)

    monkeypatch.setattr(fr, "octa_matching", counting)
    extract_graph(rotated_box_field)
    assert sum(matched) == len(edges) < 3 * len(tris) / 2


def test_non_finite_vertices_get_quality_zero(box):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
    coeffs[0, 4], coeffs[1, 8] = np.nan, np.inf
    field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
    frames, quality = field.vertex_frames()
    assert np.array_equal(frames[:2], np.tile(np.eye(3), (2, 1, 1)))
    assert quality[:2].tolist() == [0.0, 0.0]
    assert quality[2:].min() >= 1.0 - 1e-9


def test_field_coefficients_are_read_only(box):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
    field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
    frames, _ = field.vertex_frames()
    # the field keeps its own copy, so its cached frames cannot go stale
    coeffs[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        field.coeffs[0] = 0.0
    assert np.array_equal(field.coeffs[0], fr.REFERENCE_COEFFS)
    assert field.vertex_frames()[0] is frames


def smooth_random_field(mesh, seed):
    """Frames ``axis_angle_rotation(w(x))`` with ``w`` a sum of four sines
    of seeded wave vectors; every fourth seed zeroes ten vertices."""
    rng = np.random.default_rng(seed)
    waves = rng.normal(scale=4.0, size=(4, 3))
    amplitudes = rng.normal(size=(4, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    w = np.sin(mesh.vertices @ waves.T + phases) @ amplitudes
    coeffs = fr.coeffs_from_rotation(fr.axis_angle_rotation(w))
    if seed % 4 == 1:
        coeffs[rng.choice(len(coeffs), 10, replace=False)] = 0.0
    return FrameField(mesh, coeffs, BoundaryConditionSet(len(coeffs)))


def _same_end(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 9])
def test_chain_assembly_matches_reference(seed):
    """``extract_graph`` assembles the chains, ends, boundary nodes and
    defects of the reference walk exactly."""
    field = smooth_random_field(generate_box(6, 6, 6), seed)
    graph = extract_graph(field)
    ref = oracle.assemble_chains(
        field.mesh, graph.singular_faces,
        [d for d in graph.defects if d[0] == "hot_face"])
    assert len(graph.chains) == len(ref.chains)
    for ch, rc in zip(graph.chains, ref.chains):
        assert ch.chain_id == rc.chain_id
        assert ch.tets == rc.tets
        assert [f.face_id for f in ch.faces] == [f.face_id for f in rc.faces]
        assert np.array_equal(ch.points, rc.points)
        assert _same_end(ch.endpoint_start, rc.endpoint_start)
        assert _same_end(ch.endpoint_end, rc.endpoint_end)
        assert (ch.valence_start, ch.valence_end) == (rc.valence_start, rc.valence_end)
    assert graph.junction_tets == ref.junction_tets
    assert len(graph.boundary_nodes) == len(ref.boundary_nodes)
    for a, b in zip(graph.boundary_nodes, ref.boundary_nodes):
        assert a[:2] == b[:2] and np.array_equal(a[2], b[2])
    assert graph.defects == ref.defects


def test_parity_seeds_reach_every_end_kind():
    kinds = set()
    for seed in (1, 3, 9):
        graph = extract_graph(smooth_random_field(generate_box(6, 6, 6), seed))
        kinds |= {ch.endpoint_start[0] for ch in graph.chains}
        kinds |= {ch.endpoint_end[0] for ch in graph.chains}
    assert kinds == {"closed", "junction", "defect", "boundary"}
