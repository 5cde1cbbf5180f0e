"""Tetrahedral mesh container, adjacency, and CAD feature detection.

The constructor builds the whole domain: vertices, positively oriented tets,
an outward oriented watertight boundary triangulation grouped into smooth
patches, and feature curves (hard edges) chained from boundary edges whose
interior dihedral angle deviates from 180 degrees.
"""

import numpy as np

from ._csr import _index_dtype, row_offsets
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


def index_dtype(n_vertices, n_tets):
    """The integer type of a mesh's tables: the index type of its stiffness
    matrix, whose assembly lists 16 entries per tet, so int32 unless a
    count needs int64."""
    return _index_dtype(max(n_vertices, 16 * n_tets))


def pair_keys(a, b, n):
    """The keys ``a * n + b`` of id pairs below ``n``, formed in int64 so
    that no product wraps, whatever the ids' integer type."""
    return np.asarray(a, dtype=np.int64) * n + b


def _sort_rows(cols):
    """The stable sort order of the rows whose columns are the integer
    arrays ``cols``, and which rows of the sorted order differ from the row
    before them.

    Each run of columns whose value ranges (from the lower of 0 and the
    column minimum) multiply to below 2**63 packs into one int64 key; a
    column of a wider range is a key of its own.  One stable argsort per
    key, the last key first, sorts the rows.
    """
    packed, total = [], 0
    for col in cols:
        col = col.astype(np.int64)
        a, b = int(col.min(initial=0)), int(col.max(initial=0))
        width = b - a + 1
        if width < 2 ** 63:
            col -= a
        if packed and total * width < 2 ** 63:
            packed[-1] *= width
            packed[-1] += col
            total *= width
        else:
            packed.append(col)
            total = width
    order = np.argsort(packed[-1], kind="stable")
    for key in packed[-2::-1]:
        order = order[np.argsort(key[order], kind="stable")]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in packed:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    return order, first


def _unique_rows(cols):
    """``np.unique(keys, axis=0, return_inverse=True, return_counts=True)``
    of the (n, k) integer array ``keys`` whose columns are the arrays
    ``cols`` (``keys.T`` will do), from ``_sort_rows``, plus the order of
    that sort, which is ``np.argsort(inverse, kind="stable")``."""
    order, first = _sort_rows(cols)
    rank = np.cumsum(first)
    rank -= 1
    inverse = np.empty_like(order)
    inverse[order] = rank
    starts = np.flatnonzero(first)
    uniq = np.stack([col[order[starts]] for col in cols], axis=1)
    return uniq, inverse, np.diff(np.r_[starts, len(order)]), order


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
    """Face/tet incidence arrays, in the integer type of ``tets``.

    ``faces`` holds each face's sorted vertex triple once, in lexicographic
    order, and ``tet_faces[t, i]`` is the face opposite local vertex i of
    tet t.  ``face_tets``/``face_local`` hold a face's one or two (tet, local
    face) incidences in (tet, local face) order, -1 for none.
    """

    def __init__(self, tets):
        nt, idx = len(tets), tets.dtype
        # the vertex columns of the faces in (tet, local face) order, each
        # face's vertices put in ascending order by three compare-exchanges
        a, b, c = (tets[:, k].ravel() for k in np.transpose(FACE_VERTICES))
        a, b = np.minimum(a, b), np.maximum(a, b)
        b, c = np.minimum(b, c), np.maximum(b, c)
        a, b = np.minimum(a, b), np.maximum(a, b)
        # incidences grouped by face, each group in (tet, local face) order
        uniq, inverse, counts, incidence = _unique_rows((a, b, c))
        if counts.max() > 2:
            bad = uniq[np.argmax(counts)]
            raise NonManifold("face %s has %d incident tets" % (bad, counts.max()))
        self.faces = uniq
        self.tet_faces = inverse.reshape(nt, 4).astype(idx)
        start = np.cumsum(counts) - counts
        pair = counts == 2
        self.face_tets = np.full((len(uniq), 2), -1, dtype=idx)
        self.face_local = np.full((len(uniq), 2), -1, dtype=idx)
        self.face_tets[:, 0], self.face_local[:, 0] = np.divmod(incidence[start], 4)
        self.face_tets[pair, 1], self.face_local[pair, 1] = np.divmod(
            incidence[start[pair] + 1], 4
        )
        self.interior_mask = pair
        self.boundary_face_ids = np.flatnonzero(~pair).astype(idx)

    def face_id(self, tri):
        """Row of ``faces`` holding the triangle ``tri``; None when absent."""
        hit = np.nonzero((self.faces == np.sort(tri)).all(axis=1))[0]
        return int(hit[0]) if len(hit) else None


class TetMesh:
    """Tetrahedral mesh with boundary patches (ids in ``boundary_patch_ids``),
    feature curves and corners.

    The constructor detects the features at ``feature_angle`` degrees, the
    tags ``feature_edges`` (u, v, curve id) and ``corners`` taking
    precedence, so a mesh can be solved as soon as it exists.  Every
    integer table holds ``index_dtype(len(vertices), len(tets))``: int32
    unless the mesh is too large for it.
    """

    def __init__(self, vertices, tets, feature_edges=None, corners=None,
                 feature_angle=FEATURE_ANGLE_DEFAULT):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        tets = np.asarray(tets, dtype=np.int64)
        if tets.size == 0:
            raise DegenerateTet("mesh has no tets")
        # checked before narrowing, so no index can wrap into range
        outside = (tets < 0) | (tets >= len(self.vertices))
        if outside.any():
            raise IndexOutOfRange("tet vertex index %d outside [0, %d)"
                                  % (tets[outside][0], len(self.vertices)))
        idx = index_dtype(len(self.vertices), len(tets))
        self.tets = np.array(tets, dtype=idx, order="C")
        self._fix_orientation()
        # scales of the tracer's default step and length budget; the
        # vertices do not move after construction
        v, t = self.vertices, self.tets
        at = v[t.T]  # at[i]: the tets' local vertex i
        self._mean_edge_length = sum(
            np.linalg.norm(at[a] - at[b], axis=1).sum()
            for a, b in TET_EDGES) / (6 * len(t))
        del at
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
        self.feature_angle = None  # nothing detected yet
        self.detect_features(feature_angle)

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
        """Signed volumes of the tets, (e1 x e2) . e3 / 6 with e_k the edge
        from local vertex 0 to local vertex k."""
        p = self.vertices[self.tets.T]  # p[i]: the tets' local vertex i
        p[1:] -= p[0]  # now the edges e_k
        return np.einsum("ij,ij->i", np.cross(p[1], p[2]), p[3]) / 6.0

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
        adj, idx = self.adjacency, self.tets.dtype
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
        self.boundary_vertices = np.unique(tris)
        # a triangle holds a vertex once, so a stable sort of the corners
        # groups them by vertex in ascending triangle order
        self.vertex_tris = (np.argsort(tris.ravel(), kind="stable") // 3).astype(idx)
        self.vertex_tri_ptr = row_offsets(
            np.bincount(tris.ravel(), minlength=len(p)), idx)
        # half-edges (a, b), (b, c), (c, a) of every triangle, in triangle order
        half = np.stack([tris, np.roll(tris, -1, axis=1)], axis=2).reshape(-1, 2)
        u, w = half.T
        edges, _, counts, order = _unique_rows((np.minimum(u, w), np.maximum(u, w)))
        if (counts != 2).any():
            k = int(np.argmax(counts != 2))
            raise OpenBoundary("boundary edge %s has %d incident triangles"
                               % (tuple(edges[k].tolist()), counts[k]))
        pairs = order.reshape(-1, 2)
        self.boundary_edges = edges
        self.boundary_edge_tris = (pairs // 3).astype(idx)
        self.boundary_half_edges = half[pairs[:, 0]]

    def _edge_rows(self, keys):
        """Rows of ``boundary_edges`` holding the sorted vertex pairs ``keys``."""
        n = len(self.vertices)
        codes = pair_keys(*self.boundary_edges.T, n)
        want = pair_keys(*np.asarray(keys, dtype=np.int64).reshape(-1, 2).T, n)
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

        The constructor runs this; call it again to re-detect at another
        threshold (at the current ``feature_angle`` it returns at once, as
        vertices and tags never change).  Tags take precedence over dihedral
        detection.  A curve runs between corners: the tagged corners, the
        vertices on one or on three or more feature edges, and the vertices
        at which the tag or the valence bin changes.  Sets ``feature_edges``,
        ``feature_curves``, ``corners``, ``boundary_patch_ids``, the vertex
        patch-normal table and ``feature_angle``.
        """
        if angle_threshold == self.feature_angle:
            return self.feature_curves
        d = self.boundary_edge_dihedrals()
        tags = np.asarray(self.tagged_feature_edges, dtype=np.int64).reshape(-1, 3)
        # a row's group is its tag, or else its valence bin (0 below 45 degrees)
        group = np.digitize(d, VALENCE_BINS)
        tagged = np.zeros(len(d), dtype=bool)
        hit = self._edge_rows(np.sort(tags[:, :2], axis=1).tolist())
        group[hit], tagged[hit] = tags[:, 2], True
        rows = np.flatnonzero(tagged | (np.abs(d - 180.0) > angle_threshold))
        group = _unique_rows((tagged[rows], group[rows]))[1]
        ends = self.boundary_edges[rows]
        nv = len(self.vertices)
        degree = np.bincount(ends.ravel(), minlength=nv)
        lo, hi = np.full(nv, len(rows)), np.full(nv, -1)
        np.minimum.at(lo, ends, group[:, None])
        np.maximum.at(hi, ends, group[:, None])
        corner = np.zeros(nv, dtype=bool)
        corner[self.tagged_corners] = True
        corner |= (degree > 0) & ((degree != 2) | (lo != hi))
        self.feature_curves = [
            self._make_curve(cid, nodes, d[rows[links]], closed)
            for cid, (nodes, links, closed) in enumerate(walk_chains(ends, corner))]
        self.corners = np.flatnonzero(corner).tolist()
        self.feature_edges = [
            (u, v, c.curve_id) for c in self.feature_curves for u, v in c.edges()
        ]
        self._build_patches(rows)
        self.feature_angle = angle_threshold
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
        tris, idx = self.boundary_tris, self.tets.dtype
        smooth = np.ones(len(self.boundary_edges), dtype=bool)
        smooth[feature_rows] = False
        n_patches, ids = _components(len(tris), *self.boundary_edge_tris[smooth].T)
        self.boundary_patch_ids = ids.astype(idx)
        areas = 0.5 * np.linalg.norm(self._boundary_cross(), axis=1)
        # one accumulator per (vertex, patch) row
        rows, slot = np.unique(
            pair_keys(tris.ravel(), np.repeat(ids, 3), n_patches),
            return_inverse=True,
        )
        acc = np.zeros((len(rows), 3))
        np.add.at(acc, slot.reshape(-1),
                  np.repeat(areas[:, None] * self.boundary_normals, 3, axis=0))
        length = np.sqrt(row_dots(acc, acc))
        keep = length > 0
        vertex, ids = np.divmod(rows[keep], n_patches)
        self.vertex_patch_ids = ids.astype(idx)
        self.vertex_patch_normals = acc[keep] / length[keep, None]
        self.vertex_patch_ptr = row_offsets(
            np.bincount(vertex, minlength=len(self.vertices)), idx)
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
