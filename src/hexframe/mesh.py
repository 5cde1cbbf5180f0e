"""Tetrahedral mesh container, adjacency, and CAD feature detection.

The mesh owns the domain: vertices, positively oriented tets, an outward
oriented watertight boundary triangulation grouped into smooth patches,
and feature curves (hard edges) chained from boundary edges whose interior
dihedral angle deviates from 180 degrees.
"""

import numpy as np

from .errors import (
    DegenerateDihedral,
    DegenerateTangent,
    DegenerateTet,
    IndexOutOfRange,
    NonManifold,
    OpenBoundary,
)

FEATURE_ANGLE_DEFAULT = 30.0
# interior dihedral angles (degrees) bounding the hexahedral valence bins
VALENCE_BINS = (45.0, 135.0, 225.0, 315.0)

# local vertices of tet face i, the face opposite vertex i
FACE_VERTICES = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
# local vertex pairs of the six tet edges
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def classify_feature_valence(dihedral_angle):
    """Hexahedral valence bin of an interior dihedral angle in degrees.

    Bins are centered at 90/180/270/360 with a 45 degree half-width:
    [45,135) -> 1, [135,225) -> 2, [225,315) -> 3, [315,360] -> 4.
    """
    a = float(dihedral_angle)
    valence = int(np.digitize(a, VALENCE_BINS))
    if valence == 0:
        raise DegenerateDihedral("dihedral angle %.2f below 45 degrees" % a)
    return valence


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


def row_dots(a, b):
    """Row-wise dot products of two (n, k) arrays.

    A stacked matmul rounds each row as ``np.dot`` rounds one pair of
    vectors, so lengths and angles match the single-vector forms bit for bit.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unique_rows(keys):
    """``np.unique(keys, axis=0, return_inverse=True, return_counts=True)``
    of an (n, k) integer array from one stable ``np.lexsort``, plus that
    sort's order, which is ``np.argsort(inverse, kind="stable")``."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return ranked[starts], inverse, np.diff(np.r_[starts, len(keys)]), order


def walk_chains(links, terminal):
    """Chains of the graph whose rows are the node pairs of ``links`` (m, 2).

    ``terminal`` masks the nodes where a chain ends; every other node a
    link reaches lies on exactly two links.  Returns one ``(nodes, rows,
    closed)`` per chain, in walk order.  Chains leave each terminal node
    with links, in ascending node order, along its unwalked rows in
    ascending order, and run to the next terminal node.  The rows left over
    form loops; each is walked from its lowest row, from that row's first
    node to its second, and lists each of its nodes and rows once.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    # incidences grouped by node, each node's rows ascending
    order = np.argsort(links.ravel(), kind="stable")
    ptr = np.searchsorted(links.ravel()[order], np.arange(len(terminal) + 1))
    starts = np.flatnonzero(terminal & (np.diff(ptr) > 0)).tolist()
    inc, ptr, pairs = (order // 2).tolist(), ptr.tolist(), links.tolist()
    is_end, walked = terminal.tolist(), [False] * len(pairs)

    def walk(node, row):
        nodes, rows = [node], []
        while not walked[row]:
            walked[row] = True
            rows.append(row)
            a, b = pairs[row]
            node = b if a == node else a
            nodes.append(node)
            if is_end[node]:
                return nodes, rows, False
            first = inc[ptr[node]]
            row = inc[ptr[node] + 1] if first == row else first
        return nodes[:-1], rows, True

    chains = [walk(t, r) for t in starts for r in inc[ptr[t]:ptr[t + 1]]
              if not walked[r]]
    return chains + [walk(pairs[r][0], r) for r in range(len(pairs)) if not walked[r]]


def _components(n, a, b):
    """Connected components of nodes 0..n-1 under the undirected links
    (a[i], b[i]): their count and each node's component id, ids following
    each component's lowest node.

    Every node points at a lower or equal node of its component.  Each
    round hooks the higher of each link's two roots onto the lower one and
    then jumps pointers until every node points at a root; the rounds end
    when no link joins two roots, and each root is its component's lowest
    node.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    roots, ids = np.unique(root, return_inverse=True)
    return len(roots), ids


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
        # incidences grouped by face, each group in (tet, local face) order
        uniq, inverse, counts, incidence = _unique_rows(keys)
        if counts.max() > 2:
            bad = uniq[np.argmax(counts)]
            raise NonManifold("face %s has %d incident tets" % (bad, counts.max()))
        self.faces = uniq
        self.tet_faces = inverse.reshape(nt, 4)
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
    """Tetrahedral mesh with boundary patches (ids in ``boundary_patch_ids``),
    feature curves and corners."""

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
        # scales of the tracer's default step and length budget; the
        # vertices do not move after construction
        v, t = self.vertices, self.tets
        self._mean_edge_length = sum(
            np.linalg.norm(v[t[:, a]] - v[t[:, b]], axis=1).sum()
            for a, b in TET_EDGES) / (6 * len(t))
        self._bounding_box_diagonal = float(np.linalg.norm(v.max(0) - v.min(0)))
        self.adjacency = AdjacencyTables(self.tets)
        self._extract_boundary()
        # tagged features from the input file; curve ids preserved
        self.tagged_feature_edges = (
            [(int(a), int(b), int(c)) for a, b, c in feature_edges]
            if feature_edges
            else []
        )
        self.tagged_corners = sorted(int(c) for c in corners) if corners else []
        outside = [v for e in self.tagged_feature_edges for v in e[:2]
                   if not 0 <= v < len(self.vertices)]
        outside += [c for c in self.tagged_corners if not 0 <= c < len(self.vertices)]
        if outside:
            raise IndexOutOfRange("tagged vertex index %d outside [0, %d)"
                                  % (outside[0], len(self.vertices)))
        self.feature_edges = []   # list of (u, v, curve_id), filled by detect_features
        self.feature_curves = []
        self.corners = []
        # the (patch id, unit normal) table of _build_patches and each
        # vertex's sum of its normals, empty and zero until then
        self.vertex_patch_ptr = np.zeros(len(self.vertices) + 1, dtype=np.int64)
        self.vertex_patch_ids = np.zeros(0, dtype=np.int64)
        self.vertex_patch_normals = np.zeros((0, 3))
        self.vertex_normal_sums = np.zeros((len(self.vertices), 3))

    # -- geometry -----------------------------------------------------------

    def _fix_orientation(self):
        """Orient every tet positively; reject (near-)zero-volume tets."""
        d = self.tet_volumes()
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
        return self._mean_edge_length

    def bounding_box_diagonal(self):
        return self._bounding_box_diagonal

    # -- boundary -----------------------------------------------------------

    def _extract_boundary(self):
        """Outward boundary triangles, their unit normals and their tables.

        ``boundary_edges`` (E, 2) lists each boundary edge once as a sorted
        vertex pair, in lexicographic order; ``boundary_edge_tris`` holds its
        two triangles in triangle order, and ``boundary_half_edges`` the edge
        as the first of them runs it.  ``vertex_tris`` lists each vertex's
        triangles in ascending order, vertex ``v``'s from
        ``vertex_tri_ptr[v]`` to ``vertex_tri_ptr[v + 1]``.
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
        n = self._boundary_cross()
        self.boundary_normals = n / np.linalg.norm(n, axis=1)[:, None]
        self.boundary_patch_ids = np.zeros(len(tris), dtype=np.int64)
        self.boundary_vertices = np.unique(tris)
        # a triangle holds a vertex once, so a stable sort of the corners
        # groups them by vertex in ascending triangle order
        self.vertex_tris = np.argsort(tris.ravel(), kind="stable") // 3
        self.vertex_tri_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(tris.ravel(), minlength=len(p)))])
        # half-edges (a, b), (b, c), (c, a) of every triangle, in triangle order
        half = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        edges, _, counts, order = _unique_rows(np.sort(half, axis=1))
        if (counts != 2).any():
            k = int(np.argmax(counts != 2))
            raise OpenBoundary("boundary edge %s has %d incident triangles"
                               % (tuple(edges[k].tolist()), counts[k]))
        pairs = order.reshape(-1, 2)
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

    def boundary_area(self):
        return 0.5 * np.linalg.norm(self._boundary_cross(), axis=1).sum()

    def boundary_euler_characteristic(self):
        nv = len(self.boundary_vertices)
        return nv - len(self.boundary_edges) + len(self.boundary_tris)

    def boundary_edge_dihedrals(self):
        """Interior dihedral angle (degrees, in (0, 360)) per ``boundary_edges`` row."""
        n1 = self.boundary_normals[self.boundary_edge_tris[:, 0]]
        n2 = self.boundary_normals[self.boundary_edge_tris[:, 1]]
        p = self.vertices
        e = p[self.boundary_half_edges[:, 1]] - p[self.boundary_half_edges[:, 0]]
        e = e / np.sqrt(row_dots(e, e))[:, None]
        ang = np.pi - np.arctan2(row_dots(np.cross(n1, n2), e), row_dots(n1, n2))
        return np.degrees(ang) % 360.0

    # -- features -----------------------------------------------------------

    def detect_features(self, angle_threshold=FEATURE_ANGLE_DEFAULT):
        """Detect feature edges, chain curves, group the surface into patches.

        Input-file feature tags take precedence over dihedral detection.
        A curve runs between corners: the tagged corners, the vertices on
        one or on three or more feature edges, and the vertices at which the
        tag or the valence bin changes.  Populates ``feature_edges``, ``feature_curves``,
        ``corners``, ``boundary_patch_ids`` and the vertex patch-normal
        table; idempotent for a fixed threshold.
        """
        d = self.boundary_edge_dihedrals()
        tags = np.asarray(self.tagged_feature_edges, dtype=np.int64).reshape(-1, 3)
        # a row's group is its tag, or else its valence bin (0 below 45 degrees)
        group = np.digitize(d, VALENCE_BINS)
        tagged = np.zeros(len(d), dtype=bool)
        hit = self._edge_rows(np.sort(tags[:, :2], axis=1).tolist())
        group[hit], tagged[hit] = tags[:, 2], True
        rows = np.flatnonzero(tagged | (np.abs(d - 180.0) > angle_threshold))
        group = _unique_rows(np.c_[tagged, group][rows])[1]
        ends = self.boundary_edges[rows]
        nv = len(self.vertices)
        degree = np.bincount(ends.ravel(), minlength=nv)
        lo, hi = np.full(nv, len(rows)), np.full(nv, -1)
        np.minimum.at(lo, ends, group[:, None])
        np.maximum.at(hi, ends, group[:, None])
        corner = np.zeros(nv, dtype=bool)
        corner[self.tagged_corners] = True
        corner |= (degree > 0) & ((degree != 2) | (lo != hi))
        self.corners = np.flatnonzero(corner).tolist()
        self.feature_curves = [
            self._make_curve(cid, nodes, d[rows[links]], closed)
            for cid, (nodes, links, closed) in enumerate(walk_chains(ends, corner))]
        self.feature_edges = [
            (u, v, c.curve_id) for c in self.feature_curves for u, v in c.edges()
        ]
        self._build_patches(rows)
        return self.feature_curves

    def _make_curve(self, cid, verts, dihedrals, closed):
        """Curve ``cid`` through ``verts``, whose edges have ``dihedrals``."""
        n = len(verts)
        # each vertex's tangent is its chord between its neighbours
        i = np.arange(n)
        if closed:
            a, b = (i - 1) % n, (i + 1) % n
        else:
            a, b = np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)
        ids = np.asarray(verts, dtype=np.int64)
        d = self.vertices[ids[b]] - self.vertices[ids[a]]
        norm = np.sqrt(row_dots(d, d))
        if not (norm > 0.0).all():
            k = int(np.argmin(norm > 0.0))
            raise DegenerateTangent(
                "curve %d vertex %d: its chord from vertex %d to %d has zero "
                "length" % (cid, verts[k], verts[a[k]], verts[b[k]]))
        return FeatureCurve(cid, verts, d / norm[:, None], np.mean(dihedrals),
                            closed=closed)

    def _build_patches(self, feature_rows):
        """Patches: triangles connected across edges not in ``feature_rows``.

        Patch ids follow each patch's lowest triangle.  A vertex's normal in
        a patch is the area-weighted sum of the patch's triangle normals at
        it, summed in triangle order.  The rows of vertex ``v``, in patch-id
        order, run from ``vertex_patch_ptr[v]`` to ``vertex_patch_ptr[v + 1]``
        of ``vertex_patch_ids`` and ``vertex_patch_normals``;
        ``vertex_normal_sums[v]`` is their sum, added in that order.
        """
        tris = self.boundary_tris
        smooth = np.ones(len(self.boundary_edges), dtype=bool)
        smooth[feature_rows] = False
        n_patches, self.boundary_patch_ids = _components(
            len(tris), *self.boundary_edge_tris[smooth].T)
        areas = 0.5 * np.linalg.norm(self._boundary_cross(), axis=1)
        # one accumulator per (vertex, patch) row
        rows, slot = np.unique(
            tris.ravel() * n_patches + np.repeat(self.boundary_patch_ids, 3),
            return_inverse=True,
        )
        acc = np.zeros((len(rows), 3))
        np.add.at(acc, slot.reshape(-1),
                  np.repeat(areas[:, None] * self.boundary_normals, 3, axis=0))
        length = np.sqrt(row_dots(acc, acc))
        keep = length > 0
        vertex, self.vertex_patch_ids = np.divmod(rows[keep], n_patches)
        self.vertex_patch_normals = acc[keep] / length[keep, None]
        self.vertex_patch_ptr = np.searchsorted(
            vertex, np.arange(len(self.vertices) + 1))
        self.vertex_normal_sums = np.zeros((len(self.vertices), 3))
        np.add.at(self.vertex_normal_sums, vertex, self.vertex_patch_normals)

    # -- lookups used downstream -------------------------------------------

    def patch_normals(self, vertex):
        """Outward unit normals (k, 3) of the patches containing ``vertex``,
        in patch-id order."""
        lo, hi = self.vertex_patch_ptr[vertex:vertex + 2]
        return self.vertex_patch_normals[lo:hi]

    def vertex_triangles(self, vertex):
        """Boundary triangles containing ``vertex``, in ascending order."""
        lo, hi = self.vertex_tri_ptr[vertex:vertex + 2]
        return self.vertex_tris[lo:hi]

    def feature_vertex_set(self):
        return {w for u, v, _ in self.feature_edges for w in (u, v)}

    def __repr__(self):
        return "TetMesh(V=%d, T=%d, B=%d)" % (
            len(self.vertices),
            len(self.tets),
            len(self.boundary_tris),
        )
