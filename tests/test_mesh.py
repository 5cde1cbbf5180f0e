import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesh_oracle as oracle

from hexframe import boxgen
from hexframe.boxgen import generate_box
from hexframe.errors import DegenerateDihedral, NonManifold
from hexframe.mesh import (
    FACE_VERTICES,
    VALENCE_BINS,
    TetMesh,
    _components,
    _unique_rows,
    classify_feature_valence,
    walk_chains,
)
from hexframe.meshio import read_medit, write_medit
from hexframe.solver import build_boundary_conditions


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

    def test_each_bin_holds_its_lower_edge(self):
        for k, edge in enumerate(VALENCE_BINS, start=1):
            assert classify_feature_valence(edge) == k
        for k, edge in enumerate(VALENCE_BINS[1:], start=1):
            assert classify_feature_valence(np.nextafter(edge, 0.0)) == k
        with pytest.raises(DegenerateDihedral):
            classify_feature_valence(np.nextafter(VALENCE_BINS[0], 0.0))


class TestWalkChains:
    """``walk_chains`` on small graphs, node ids given by hand."""

    @staticmethod
    def _walk(links, terminal, n):
        mask = np.zeros(n, dtype=bool)
        mask[list(terminal)] = True
        return walk_chains(np.array(links, dtype=np.int64).reshape(-1, 2), mask)

    def test_path_runs_from_its_lower_end(self):
        assert self._walk([(2, 3), (0, 1), (1, 2)], {0, 3}, 4) == [
            ([0, 1, 2, 3], [1, 2, 0], False)]

    def test_loop_starts_at_its_lowest_row(self):
        # row 0 is walked from its first node, 1, to its second, 2
        assert self._walk([(1, 2), (0, 1), (2, 0)], set(), 3) == [
            ([1, 2, 0], [0, 2, 1], True)]

    def test_hub_leaves_along_its_rows_in_ascending_order(self):
        assert self._walk([(0, 4), (1, 2), (3, 0), (0, 1)], {0, 2, 3, 4}, 5) == [
            ([0, 4], [0], False), ([0, 3], [2], False), ([0, 1, 2], [3, 1], False)]

    def test_loop_cut_by_one_terminal_lists_it_twice(self):
        assert self._walk([(1, 2), (2, 0), (0, 1)], {0}, 3) == [
            ([0, 2, 1, 0], [1, 0, 2], False)]

    def test_chains_come_before_loops(self):
        links = [(3, 4), (4, 5), (5, 3), (1, 0), (2, 1)]
        assert self._walk(links, {0, 2}, 6) == [
            ([0, 1, 2], [3, 4], False), ([3, 4, 5], [0, 1, 2], True)]

    def test_linkless_terminals_and_no_links(self):
        assert self._walk([(4, 5)], range(6), 6) == [([4, 5], [0], False)]
        assert self._walk([], range(3), 3) == []
        assert self._walk([], set(), 0) == []


class TestBoxFeatures:
    def test_cube_counts(self):
        mesh = generate_box(2, 2, 2)
        assert len(mesh.tets) == 48
        mesh.detect_features(30.0)
        assert len(mesh.feature_curves) == 12
        assert len(mesh.corners) == 8
        assert len(np.unique(mesh.boundary_patch_ids)) == 6
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


def _looped_box():
    """generate_box(4, 4, 2) with a tagged triangle loop on its top face
    through a tagged corner, so that one curve lists the corner twice."""
    box = generate_box(4, 4, 2)
    a, b, c = (int(np.argmin(np.linalg.norm(box.vertices - q, axis=1)))
               for q in ([.25, .25, 1], [.5, .25, 1], [.5, .5, 1]))
    loop = [(a, b, 12), (b, c, 12), (c, a, 12)]
    mesh = TetMesh(box.vertices, box.tets,
                   feature_edges=box.tagged_feature_edges + loop,
                   corners=box.tagged_corners + [a])
    mesh.detect_features(30.0)
    assert [curve.vertices.count(a) for curve in mesh.feature_curves].count(2) == 1
    return mesh


def _parity_mesh(name):
    if name == "rotated_box":
        return _rotated_box()
    if name == "looped_box":
        return _looped_box()
    return read_medit(os.path.join(FIXTURES, name + ".mesh"))


class TestOracleParity:
    """The array tables equal the loop-based reference in tests/mesh_oracle.py."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["rotated_box", "looped_box"])
    def test_tables_match_loops(self, name):
        mesh = _parity_mesh(name)
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
            assert got.dihedral_angle == ref.dihedral_angle
            assert got.closed == ref.closed
            assert got.target_valence == ref.target_valence
        assert mesh.feature_edges == [
            (u, v, c.curve_id) for c in curves for u, v in c.edges()]
        patch_of, vertex_normals = oracle.patches(p, tris, edges, curves)
        assert np.array_equal(mesh.boundary_patch_ids, patch_of)
        # the patch-normal table holds the same rows, by vertex then patch
        rows = sorted((v, pid) for pid, ref in enumerate(vertex_normals) for v in ref)
        count = np.bincount([v for v, _ in rows], minlength=len(p))
        assert np.array_equal(np.diff(mesh.vertex_patch_ptr), count)
        assert mesh.vertex_patch_ids.tolist() == [pid for _, pid in rows]
        want = np.array([vertex_normals[pid][v] for v, pid in rows])
        assert np.array_equal(mesh.vertex_patch_normals, want)
        sums = np.zeros((len(p), 3))
        for (v, _), n in zip(rows, want):
            sums[v] += n
        assert np.array_equal(mesh.vertex_normal_sums, sums)
        for v in range(len(p)):
            assert np.array_equal(mesh.vertex_triangles(v),
                                  np.nonzero((tris == v).any(axis=1))[0])

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["rotated_box", "looped_box"])
    def test_boundary_conditions_match_loops(self, name):
        mesh = _parity_mesh(name)
        # a vertex on two curves is a corner, whose frame averages theirs
        on_curves = np.concatenate([np.unique(c.vertices) for c in mesh.feature_curves])
        values, counts = np.unique(on_curves, return_counts=True)
        assert set(values[counts > 1].tolist()) <= set(mesh.corners)
        tris = mesh.boundary_tris
        _, vertex_normals = oracle.patches(mesh.vertices, tris, oracle.edge_dict(tris),
                                           mesh.feature_curves)
        got = build_boundary_conditions(mesh)
        want = oracle.boundary_conditions(mesh, vertex_normals)
        for field in ("kind", "coeffs", "normals"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

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


def scipy_components(n, a, b):
    """scipy's csgraph ``connected_components``, the reference of the tests
    only."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    links = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(links, directed=False)


@st.composite
def triangle_graphs(draw):
    """(kind, n, a, b): links among n triangles, as isolated triangles
    ("isolated"), one chain through them all in a drawn order plus extra
    links ("one"), or drawn links forming any number of components
    ("many")."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["isolated", "one", "many"]))
    if kind == "isolated":
        return kind, n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if kind == "one":
        order = draw(st.permutations(range(n)))
        pairs += list(zip(order[:-1], order[1:]))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return kind, n, pairs[:, 0], pairs[:, 1]


class TestPatchLabels:
    """Patch ids equal scipy's ``connected_components`` labels, which
    follow each component's lowest node."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["rotated_box"])
    def test_patch_ids_match_scipy(self, name):
        mesh = _parity_mesh(name)
        feature = {(min(u, v), max(u, v)) for u, v, _ in mesh.feature_edges}
        smooth = [tuple(e) not in feature for e in mesh.boundary_edges.tolist()]
        t1, t2 = mesh.boundary_edge_tris[smooth].T
        count, want = scipy_components(len(mesh.boundary_tris), t1, t2)
        assert np.array_equal(mesh.boundary_patch_ids, want) and count > 1

    @settings(max_examples=200, deadline=None)
    @given(triangle_graphs())
    def test_labels_match_scipy(self, graph):
        kind, n, a, b = graph
        count, ids = _components(n, a, b)
        want = scipy_components(n, a, b)
        assert count == want[0] and np.array_equal(ids, want[1])
        if kind == "isolated":
            assert np.array_equal(ids, np.arange(n))
        elif kind == "one":
            assert count == 1


class TestSectionReader:
    """``read_medit`` converts whole sections; ``_unique_rows`` sorts rows once."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_match_token_reader(self, name):
        path = os.path.join(FIXTURES, name + ".mesh")
        got, want = read_medit(path), oracle.read_medit(path)
        for attr in ("vertices", "tets"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert got.tagged_feature_edges == want.tagged_feature_edges
        assert got.tagged_corners == want.tagged_corners
        assert got.tagged_feature_edges and got.tagged_corners

    @staticmethod
    def _check_unique_rows(keys):
        rows, inverse, counts, order = _unique_rows(keys)
        want = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        for got, ref in zip((rows, inverse, counts), want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref.reshape(got.shape))
        assert np.array_equal(order, np.argsort(inverse, kind="stable"))

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["rotated_box"])
    def test_unique_rows_matches_np_unique(self, name):
        mesh = _parity_mesh(name)
        self._check_unique_rows(
            np.sort(mesh.tets[:, FACE_VERTICES].reshape(-1, 3), axis=1))
        tris = mesh.boundary_tris
        half = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        self._check_unique_rows(np.sort(half, axis=1))

    def test_unique_rows_of_large_values(self):
        rng = np.random.default_rng(11)
        base = 2 ** 40 + rng.integers(-3, 3, size=(500, 3))
        keys = np.concatenate([base, base[rng.integers(0, 500, size=700)],
                               -base[:50], [[2 ** 62, -2 ** 62, 0]] * 3])
        self._check_unique_rows(keys[rng.permutation(len(keys))])
