"""Tetrahedral mesh container, adjacency, and CAD feature detection.

The mesh owns the domain: vertices, positively oriented tets, an outward
oriented watertight boundary triangulation grouped into smooth patches,
and feature curves (hard edges) chained from boundary edges whose interior
dihedral angle deviates from 180 degrees.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    DegenerateDihedral,
    DegenerateTet,
    IndexOutOfRange,
    NonManifold,
    OpenBoundary,
)

FEATURE_ANGLE_DEFAULT = 30.0

# local vertices of tet face i, the face opposite vertex i
FACE_VERTICES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def classify_feature_valence(dihedral_angle):
    """Hexahedral valence bin of an interior dihedral angle in degrees.

    Bins are centered at 90/180/270/360 with a 45 degree half-width:
    [45,135) -> 1, [135,225) -> 2, [225,315) -> 3, [315,360] -> 4.
    """
    a = float(dihedral_angle)
    if a < 45.0:
        raise DegenerateDihedral("dihedral angle %.2f below 45 degrees" % a)
    if a < 135.0:
        return 1
    if a < 225.0:
        return 2
    if a < 315.0:
        return 3
    return 4


class FeatureCurve:
    """Chain of feature edges with tangents and a valence classification."""

    def __init__(self, curve_id, vertices, tangents, dihedral_angle, closed=False):
        self.curve_id = curve_id
        self.vertices = list(vertices)
        self.tangents = np.asarray(tangents, dtype=float)
        self.dihedral_angle = float(dihedral_angle)
        self.closed = closed
        self.target_valence = classify_feature_valence(dihedral_angle)

    def edges(self):
        verts = self.vertices + ([self.vertices[0]] if self.closed else [])
        return [(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "FeatureCurve(id=%d, n=%d, dihedral=%.1f, valence=%d)" % (
            self.curve_id,
            len(self.vertices),
            self.dihedral_angle,
            self.target_valence,
        )


class SurfacePatch:
    """Edge-connected boundary region not crossing feature edges."""

    def __init__(self, patch_id, tri_indices, vertex_normals):
        self.patch_id = patch_id
        self.tri_indices = np.asarray(tri_indices, dtype=int)
        self.vertex_normals = vertex_normals  # dict vertex -> outward unit normal

    def __repr__(self):
        return "SurfacePatch(id=%d, tris=%d)" % (self.patch_id, len(self.tri_indices))


def row_dots(a, b):
    """Row-wise dot products of two (n, 3) arrays.

    A stacked matmul rounds each row as ``np.dot`` rounds one pair of
    vectors, so lengths and angles match the single-vector forms bit for bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class AdjacencyTables:
    """Face/tet incidence arrays.

    ``faces`` holds each face's sorted vertex triple once, in lexicographic
    order, and ``tet_faces[t, i]`` is the face opposite local vertex i of
    tet t.  ``face_tets``/``face_local`` hold a face's one or two (tet, local
    face) incidences in (tet, local face) order, -1 for none.
    """

    def __init__(self, tets):
        nt = len(tets)
        keys = np.sort(tets[:, FACE_VERTICES].reshape(-1, 3), axis=1)
        uniq, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        if counts.max() > 2:
            bad = uniq[np.argmax(counts)]
            raise NonManifold("face %s has %d incident tets" % (bad, counts.max()))
        inverse = inverse.reshape(-1)
        self.faces = uniq
        self.tet_faces = inverse.reshape(nt, 4)
        # incidences grouped by face, each group in (tet, local face) order
        incidence = np.argsort(inverse, kind="stable")
        start = np.cumsum(counts) - counts
        pair = counts == 2
        self.face_tets = -np.ones((len(uniq), 2), dtype=np.int64)
        self.face_local = -np.ones((len(uniq), 2), dtype=np.int64)
        self.face_tets[:, 0], self.face_local[:, 0] = np.divmod(incidence[start], 4)
        self.face_tets[pair, 1], self.face_local[pair, 1] = np.divmod(
            incidence[start[pair] + 1], 4
        )
        self.interior_mask = pair
        self.boundary_face_ids = np.nonzero(~pair)[0]

    def face_id(self, tri):
        """Row of ``faces`` holding the triangle ``tri``; None when absent."""
        hit = np.nonzero((self.faces == np.sort(tri)).all(axis=1))[0]
        return int(hit[0]) if len(hit) else None


class TetMesh:
    """Tetrahedral mesh with boundary patches, feature curves and corners."""

    def __init__(self, vertices, tets, feature_edges=None, corners=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.tets = np.ascontiguousarray(tets, dtype=np.int64)
        if self.tets.size == 0:
            raise DegenerateTet("mesh has no tets")
        outside = (self.tets < 0) | (self.tets >= len(self.vertices))
        if outside.any():
            raise IndexOutOfRange("tet vertex index %d outside [0, %d)"
                                  % (self.tets[outside][0], len(self.vertices)))
        self._fix_orientation()
        self.adjacency = AdjacencyTables(self.tets)
        self._extract_boundary()
        # tagged features from the input file; curve ids preserved
        self.tagged_feature_edges = (
            [(int(a), int(b), int(c)) for a, b, c in feature_edges]
            if feature_edges
            else []
        )
        self.tagged_corners = sorted(int(c) for c in corners) if corners else []
        self.feature_edges = []   # list of (u, v, curve_id), filled by detect_features
        self.feature_curves = []
        self.patches = []
        self.corners = []

    # -- geometry -----------------------------------------------------------

    def _fix_orientation(self):
        """Orient every tet positively; reject (near-)zero-volume tets."""
        v = self.vertices
        t = self.tets
        d = np.einsum(
            "ij,ij->i",
            np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]),
            v[t[:, 3]] - v[t[:, 0]],
        )
        vol = np.abs(d)
        if (vol < 1e-14 * vol.mean()).any():
            raise DegenerateTet("tet volume below 1e-14 of the mean")
        neg = d < 0
        if neg.any():
            self.tets[neg] = self.tets[neg][:, [0, 2, 1, 3]]

    def tet_volumes(self):
        v = self.vertices
        t = self.tets
        return (
            np.einsum(
                "ij,ij->i",
                np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]),
                v[t[:, 3]] - v[t[:, 0]],
            )
            / 6.0
        )

    def mean_edge_length(self):
        v = self.vertices
        t = self.tets
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        total = 0.0
        for a, b in pairs:
            total += np.linalg.norm(v[t[:, a]] - v[t[:, b]], axis=1).sum()
        return total / (6 * len(t))

    def edge_length_ratio(self):
        v = self.vertices
        t = self.tets
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        lens = np.concatenate(
            [np.linalg.norm(v[t[:, a]] - v[t[:, b]], axis=1) for a, b in pairs]
        )
        return lens.max() / lens.min()

    def bounding_box_diagonal(self):
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))

    # -- boundary -----------------------------------------------------------

    def _extract_boundary(self):
        """Outward boundary triangles and their edge table.

        ``boundary_edges`` (E, 2) lists each boundary edge once as a sorted
        vertex pair, in lexicographic order; ``boundary_edge_tris`` holds its
        two triangles in triangle order, and ``boundary_half_edges`` the edge
        as the first of them runs it.
        """
        adj = self.adjacency
        fids = adj.boundary_face_ids
        local = adj.face_local[fids, 0]
        tet = self.tets[adj.face_tets[fids, 0]]
        tris = np.take_along_axis(tet, np.asarray(FACE_VERTICES)[local], axis=1)
        # orient outward: the opposite vertex must be on the negative side
        p = self.vertices
        a = p[tris[:, 0]]
        d = row_dots(np.cross(p[tris[:, 1]] - a, p[tris[:, 2]] - a),
                     p[tet[np.arange(len(tet)), local]] - a)
        tris[d > 0] = tris[d > 0][:, [0, 2, 1]]
        self.boundary_tris = tris
        self.boundary_patch_ids = np.zeros(len(tris), dtype=np.int64)
        self.boundary_vertices = np.unique(tris)
        # half-edges (a, b), (b, c), (c, a) of every triangle, in triangle order
        half = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        edges, inverse, counts = np.unique(
            np.sort(half, axis=1), axis=0, return_inverse=True, return_counts=True
        )
        if (counts != 2).any():
            k = int(np.argmax(counts != 2))
            raise OpenBoundary("boundary edge %s has %d incident triangles"
                               % (tuple(edges[k].tolist()), counts[k]))
        pairs = np.argsort(inverse.reshape(-1), kind="stable").reshape(-1, 2)
        self.boundary_edges = edges
        self.boundary_edge_tris = pairs // 3
        self.boundary_half_edges = half[pairs[:, 0]]

    def _edge_rows(self, keys):
        """Rows of ``boundary_edges`` holding the sorted vertex pairs ``keys``."""
        scale = np.array([len(self.vertices), 1])
        codes = self.boundary_edges @ scale
        want = np.asarray(keys, dtype=np.int64).reshape(-1, 2) @ scale
        rows = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        missing = codes[rows] != want
        if missing.any():
            raise IndexOutOfRange("feature edge %s is not a boundary edge"
                                  % (tuple(keys[int(np.argmax(missing))]),))
        return rows

    def _boundary_cross(self):
        """Per boundary triangle: outward normal scaled by twice its area."""
        p = self.vertices
        t = self.boundary_tris
        return np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])

    def boundary_tri_normals(self):
        n = self._boundary_cross()
        return n / np.linalg.norm(n, axis=1)[:, None]

    def boundary_area(self):
        return 0.5 * np.linalg.norm(self._boundary_cross(), axis=1).sum()

    def boundary_euler_characteristic(self):
        nv = len(self.boundary_vertices)
        return nv - len(self.boundary_edges) + len(self.boundary_tris)

    def boundary_edge_dihedrals(self):
        """Interior dihedral angle (degrees, in (0, 360)) per ``boundary_edges`` row."""
        normals = self.boundary_tri_normals()
        n1 = normals[self.boundary_edge_tris[:, 0]]
        n2 = normals[self.boundary_edge_tris[:, 1]]
        p = self.vertices
        e = p[self.boundary_half_edges[:, 1]] - p[self.boundary_half_edges[:, 0]]
        e = e / np.sqrt(row_dots(e, e))[:, None]
        ang = np.pi - np.arctan2(row_dots(np.cross(n1, n2), e), row_dots(n1, n2))
        return np.degrees(ang) % 360.0

    # -- features -----------------------------------------------------------

    def detect_features(self, angle_threshold=FEATURE_ANGLE_DEFAULT):
        """Detect feature edges, chain curves, group the surface into patches.

        Input-file feature tags take precedence over dihedral detection.
        Populates ``feature_edges``, ``feature_curves``, ``patches`` and
        ``corners``; idempotent for a fixed threshold.
        """
        dihedrals = self.boundary_edge_dihedrals()
        all_edges = {}
        for u, v, cid in self.tagged_feature_edges:
            all_edges[(min(u, v), max(u, v))] = cid
        detected = np.abs(dihedrals - 180.0) > angle_threshold
        detected[self._edge_rows(list(all_edges))] = False
        for key in map(tuple, self.boundary_edges[detected].tolist()):
            all_edges[key] = None
        rows = self._edge_rows(list(all_edges))
        self.feature_curves, self.corners = self._chain_curves(
            all_edges, dict(zip(all_edges, dihedrals[rows].tolist()))
        )
        self.feature_edges = [
            (u, v, c.curve_id) for c in self.feature_curves for u, v in c.edges()
        ]
        self._build_patches(rows)
        return self.feature_curves

    def _chain_curves(self, all_edges, dihedrals):
        """Chain feature edges into curves; returns (curves, corners).

        ``all_edges`` maps each feature edge to its tag (None when detected)
        and ``dihedrals`` maps it to its dihedral angle.
        """
        graph = {}
        for u, v in all_edges:
            graph.setdefault(u, []).append(v)
            graph.setdefault(v, []).append(u)
        corners = set(self.tagged_corners)
        for v, nbrs in graph.items():
            if len(nbrs) != 2:
                corners.add(v)
        # also break chains where the tag or valence bin changes
        def edge_group(key):
            if all_edges[key] is not None:
                return ("tag", all_edges[key])
            try:
                return ("bin", classify_feature_valence(dihedrals[key]))
            except DegenerateDihedral:
                return ("bin", 0)
        for v, nbrs in graph.items():
            if len(nbrs) == 2:
                g1 = edge_group((min(v, nbrs[0]), max(v, nbrs[0])))
                g2 = edge_group((min(v, nbrs[1]), max(v, nbrs[1])))
                if g1 != g2:
                    corners.add(v)
        curves = []
        visited = set()
        next_id = 0

        def walk(start, first):
            chain = [start, first]
            visited.add((min(start, first), max(start, first)))
            while chain[-1] not in corners:
                here = chain[-1]
                nxt = None
                for nb in graph[here]:
                    key = (min(here, nb), max(here, nb))
                    if key in all_edges and key not in visited:
                        nxt = nb
                        visited.add(key)
                        break
                if nxt is None:
                    break
                chain.append(nxt)
                if nxt == chain[0]:
                    break
            return chain

        for start in sorted(corners):
            if start not in graph:
                continue
            for nb in sorted(graph[start]):
                key = (min(start, nb), max(start, nb))
                if key in visited:
                    continue
                chain = walk(start, nb)
                curves.append(self._make_curve(next_id, chain, dihedrals, closed=False))
                next_id += 1
        # remaining edges belong to closed loops without corners
        for key in sorted(all_edges):
            if key in visited:
                continue
            chain = walk(key[0], key[1])
            closed = chain[0] == chain[-1]
            if closed:
                chain = chain[:-1]
            curves.append(self._make_curve(next_id, chain, dihedrals, closed=closed))
            next_id += 1
        corners |= {c.vertices[0] for c in curves if not c.closed}
        corners |= {c.vertices[-1] for c in curves if not c.closed}
        return curves, sorted(corners)

    def _make_curve(self, cid, chain, dihedrals, closed):
        p = self.vertices
        verts = chain
        n = len(verts)
        tangents = np.zeros((n, 3))
        for i in range(n):
            if closed:
                a, b = verts[(i - 1) % n], verts[(i + 1) % n]
            else:
                a = verts[max(i - 1, 0)]
                b = verts[min(i + 1, n - 1)]
            d = p[b] - p[a]
            tangents[i] = d / np.linalg.norm(d)
        keys = [
            (min(u, v), max(u, v))
            for u, v in zip(verts, verts[1:] + ([verts[0]] if closed else []))
        ]
        mean_dih = float(np.mean([dihedrals[k] for k in keys]))
        return FeatureCurve(cid, verts, tangents, mean_dih, closed=closed)

    def _build_patches(self, feature_rows):
        """Patches: triangles connected across edges not in ``feature_rows``.

        Patch ids follow each patch's lowest triangle.  A patch's vertex
        normals are area-weighted sums of its triangle normals, keyed in
        the order the vertices first appear in its triangles.
        """
        tris = self.boundary_tris
        smooth = np.ones(len(self.boundary_edges), dtype=bool)
        smooth[feature_rows] = False
        t1, t2 = self.boundary_edge_tris[smooth].T
        links = coo_matrix((np.ones(len(t1)), (t1, t2)), shape=(len(tris),) * 2)
        n_patches, patch_of = connected_components(links, directed=False)
        self.boundary_patch_ids = patch_of.astype(np.int64)
        nv = len(self.vertices)
        areas = 0.5 * np.linalg.norm(self._boundary_cross(), axis=1)
        # one accumulator per (patch, vertex), summed in triangle order
        slots, first, slot = np.unique(
            np.repeat(self.boundary_patch_ids, 3) * nv + tris.ravel(),
            return_index=True, return_inverse=True,
        )
        acc = np.zeros((len(slots), 3))
        np.add.at(acc, slot.reshape(-1),
                  np.repeat(areas[:, None] * self.boundary_tri_normals(), 3, axis=0))
        length = np.sqrt(row_dots(acc, acc))
        order = np.argsort(first)
        order = order[length[order] > 0]
        self.patches = []
        for pid in range(n_patches):
            mine = order[slots[order] // nv == pid]
            normals = acc[mine] / length[mine, None]
            self.patches.append(SurfacePatch(
                pid, np.nonzero(patch_of == pid)[0],
                dict(zip((slots[mine] % nv).tolist(), normals)),
            ))

    # -- lookups used downstream -------------------------------------------

    def patch_normal(self, vertex):
        """Outward normals of the patches containing a boundary vertex."""
        out = []
        for patch in self.patches:
            if vertex in patch.vertex_normals:
                out.append((patch.patch_id, patch.vertex_normals[vertex]))
        return out

    def feature_vertex_set(self):
        return {w for u, v, _ in self.feature_edges for w in (u, v)}

    def __repr__(self):
        return "TetMesh(V=%d, T=%d, B=%d)" % (
            len(self.vertices),
            len(self.tets),
            len(self.boundary_tris),
        )
