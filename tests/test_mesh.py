import os

import numpy as np
import pytest

import mesh_oracle as oracle

from hexframe import boxgen
from hexframe.boxgen import generate_box
from hexframe.errors import DegenerateDihedral, NonManifold
from hexframe.mesh import TetMesh, classify_feature_valence
from hexframe.meshio import read_medit, write_medit


SINGLE_TET = TetMesh(
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float),
    np.array([[0, 1, 2, 3]]),
)


class TestAdjacency:
    def test_single_tet(self):
        adj = SINGLE_TET.adjacency
        assert len(adj.boundary_face_ids) == 4
        assert adj.interior_mask.sum() == 0

    def test_two_tets_share_one_face(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        mesh = TetMesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
        adj = mesh.adjacency
        assert adj.interior_mask.sum() == 1
        assert (adj.face_tets[adj.face_id((1, 2, 3))] >= 0).sum() == 2

    def test_three_tets_on_one_face_nonmanifold(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -1, 1]],
            dtype=float,
        )
        with pytest.raises(NonManifold):
            TetMesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 5]]))

    def test_positive_volumes(self):
        mesh = generate_box(3, 3, 3)
        assert (mesh.tet_volumes() > 0).all()


class TestFeatureValence:
    def test_bins(self):
        assert classify_feature_valence(90.0) == 1
        assert classify_feature_valence(180.0) == 2
        assert classify_feature_valence(270.0) == 3
        assert classify_feature_valence(330.0) == 4

    def test_degenerate(self):
        with pytest.raises(DegenerateDihedral):
            classify_feature_valence(30.0)


class TestBoxFeatures:
    def test_cube_counts(self):
        mesh = generate_box(2, 2, 2)
        assert len(mesh.tets) == 48
        mesh.detect_features(30.0)
        assert len(mesh.feature_curves) == 12
        assert len(mesh.corners) == 8
        assert len(mesh.patches) == 6
        for c in mesh.feature_curves:
            assert c.target_valence == 1
            assert 85.0 < c.dihedral_angle < 95.0

    def test_euler_characteristic(self):
        for dims in [(2, 2, 2), (3, 4, 2), (5, 3, 4)]:
            mesh = generate_box(*dims)
            assert mesh.boundary_euler_characteristic() == 2

    def test_patch_area_sums(self):
        mesh = generate_box(3, 3, 3, size=(2.0, 1.0, 1.5))
        mesh.detect_features(30.0)
        total = mesh.boundary_area()
        expected = 2 * (2 * 1 + 2 * 1.5 + 1 * 1.5)
        assert abs(total - expected) < 1e-9 * expected

    def test_detect_idempotent(self):
        mesh = generate_box(3, 3, 3)
        mesh.detect_features(30.0)
        first = [(c.curve_id, tuple(c.vertices)) for c in mesh.feature_curves]
        mesh.detect_features(30.0)
        second = [(c.curve_id, tuple(c.vertices)) for c in mesh.feature_curves]
        assert first == second

    def test_bulge_zero_identity(self):
        a = generate_box(3, 3, 3, bulge=0.0)
        b = generate_box(3, 3, 3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.tets, b.tets)

    def test_dihedral_convention(self):
        mesh = generate_box(2, 2, 2)
        dih = mesh.boundary_edge_dihedrals()
        assert dih.shape == (len(mesh.boundary_edges),)
        feats = np.abs(dih - 90.0) < 1.0
        # all box edges are convex right angles
        assert feats.sum() == 24  # 12 box edges, 2 mesh edges each


class TestMedit:
    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "two.mesh"
        path.write_text(
            "MeshVersionFormatted 2\nDimension 3\n"
            "Vertices\n5\n"
            "0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 1 1 0\n"
            "Tetrahedra\n2\n"
            "1 2 3 4 1\n2 3 4 5 1\n"
            "End\n"
        )
        mesh = read_medit(path)
        assert len(mesh.tets) == 2
        assert len(mesh.boundary_tris) == 6

    def test_edges_section_preserved(self, tmp_path):
        mesh = generate_box(2, 2, 2)
        mesh.detect_features(30.0)
        path = tmp_path / "box.mesh"
        write_medit(mesh, path)
        back = read_medit(path)
        assert len(back.feature_curves) == 12
        tagged_ids = {cid for _, _, cid in back.tagged_feature_edges}
        assert len(tagged_ids) == 12

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("MeshVersionFormatted 2\nDimension 3\nVertices\n10\n0 0 0 0\n")
        from hexframe.errors import ParseError

        with pytest.raises(ParseError):
            read_medit(path)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURE_NAMES = ["notch", "arc_box", "groove_box", "halfsphere_box", "curved_arc_box"]


def _rotated_box():
    box = generate_box(12, 12, 12, bulge=0.3)
    R = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    mesh = TetMesh(box.vertices @ R.T, box.tets,
                   feature_edges=box.tagged_feature_edges, corners=box.tagged_corners)
    mesh.detect_features(30.0)
    return mesh


class TestOracleParity:
    """The array tables equal the loop-based reference in tests/mesh_oracle.py."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["rotated_box"])
    def test_tables_match_loops(self, name):
        if name == "rotated_box":
            mesh = _rotated_box()
        else:
            mesh = read_medit(os.path.join(FIXTURES, name + ".mesh"))
        p, adj = mesh.vertices, mesh.adjacency
        faces, tet_faces, face_tets, face_local = oracle.adjacency(mesh.tets)
        for got, want in ((adj.faces, faces), (adj.tet_faces, tet_faces),
                          (adj.face_tets, face_tets), (adj.face_local, face_local)):
            assert np.array_equal(got, want)
        tris = oracle.boundary_tris(p, mesh.tets, face_tets, face_local)
        assert np.array_equal(mesh.boundary_tris, tris)
        assert np.array_equal(mesh.boundary_vertices, np.unique(tris))
        edges = oracle.edge_dict(tris)
        assert [tuple(e) for e in mesh.boundary_edges.tolist()] == sorted(edges)
        dihedral = oracle.dihedrals(p, tris, edges)
        want = np.array([dihedral[k] for k in sorted(edges)])
        assert np.abs(mesh.boundary_edge_dihedrals() - want).max() < 1e-12

        curves, corners = oracle.feature_curves(mesh, dihedral, 30.0)
        assert mesh.corners == corners
        assert len(mesh.feature_curves) == len(curves)
        for got, ref in zip(mesh.feature_curves, curves):
            assert got.vertices == ref.vertices
            assert np.array_equal(got.tangents, ref.tangents)
            assert got.closed == ref.closed
            assert got.target_valence == ref.target_valence
        patch_of, vertex_normals = oracle.patches(p, tris, edges, curves)
        assert np.array_equal(mesh.boundary_patch_ids, patch_of)
        assert len(mesh.patches) == len(vertex_normals)
        for patch, ref in zip(mesh.patches, vertex_normals):
            assert np.array_equal(patch.tri_indices, np.nonzero(patch_of == patch.patch_id)[0])
            assert list(patch.vertex_normals) == list(ref)
            for v, n in ref.items():
                assert np.array_equal(patch.vertex_normals[v], n)

    @pytest.mark.parametrize("dims,size,bulge", [
        ((12, 12, 12), (1.0, 1.0, 1.0), 0.3),
        ((3, 4, 2), (2.0, 1.0, 1.5), 0.0),
        ((2, 5, 3), (1.0, 1.0, 1.0), -0.2),
    ])
    def test_generate_box_matches_loops(self, dims, size, bulge, monkeypatch):
        # the arrays as generate_box hands them over, before TetMesh orients them
        monkeypatch.setattr(boxgen, "TetMesh", lambda v, t, **tags: (v, t))
        verts, tets = boxgen.generate_box(*dims, size=size, bulge=bulge)
        want_verts, want_tets = oracle.generate_box(*dims, size=size, bulge=bulge)
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(tets, want_tets)
