"""Tetrahedral mesh container, adjacency, and CAD feature detection.

The mesh owns the domain: vertices, positively oriented tets, an outward
oriented watertight boundary triangulation grouped into smooth patches,
and feature curves (hard edges) chained from boundary edges whose interior
dihedral angle deviates from 180 degrees.
"""

import numpy as np

from .errors import DegenerateDihedral, DegenerateTet, NonManifold, OpenBoundary

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


class AdjacencyTables:
    """Face/tet/vertex incidence with O(1) lookups."""

    def __init__(self, mesh):
        tets = mesh.tets
        nt = len(tets)
        raw = np.empty((4 * nt, 3), dtype=np.int64)
        for li, (a, b, c) in enumerate(FACE_VERTICES):
            raw[li::4] = tets[:, [a, b, c]]
        keys = np.sort(raw, axis=1)
        uniq, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        if counts.max() > 2:
            bad = uniq[np.argmax(counts)]
            raise NonManifold("face %s has %d incident tets" % (bad, counts.max()))
        self.faces = uniq
        self.tet_faces = inverse.reshape(nt, 4)
        nf = len(uniq)
        self.face_tets = -np.ones((nf, 2), dtype=np.int64)
        self.face_local = -np.ones((nf, 2), dtype=np.int64)
        for t in range(nt):
            for li in range(4):
                f = self.tet_faces[t, li]
                slot = 0 if self.face_tets[f, 0] < 0 else 1
                self.face_tets[f, slot] = t
                self.face_local[f, slot] = li
        self.interior_mask = self.face_tets[:, 1] >= 0
        self.boundary_face_ids = np.nonzero(~self.interior_mask)[0]
        self.face_index = {tuple(f): i for i, f in enumerate(self.faces)}
        self.vertex_tets = [[] for _ in range(len(mesh.vertices))]
        for t, tet in enumerate(tets):
            for v in tet:
                self.vertex_tets[v].append(t)
        self.vertex_tets = [np.asarray(vt, dtype=np.int64) for vt in self.vertex_tets]

    def face_id(self, tri):
        return self.face_index.get(tuple(sorted(tri)))

    def tets_of_face(self, tri):
        fid = self.face_id(tri)
        if fid is None:
            return ()
        pair = self.face_tets[fid]
        return tuple(int(t) for t in pair if t >= 0)


def build_adjacency(mesh):
    """Face/tet incidence tables; raises on non-manifold configurations."""
    return AdjacencyTables(mesh)


class TetMesh:
    """Tetrahedral mesh with boundary patches, feature curves and corners."""

    def __init__(self, vertices, tets, feature_edges=None, corners=None,
                 boundary_patch_tags=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.tets = np.ascontiguousarray(tets, dtype=np.int64)
        if self.tets.size and self.tets.max() >= len(self.vertices):
            raise IndexError("tet vertex index out of range")
        self._fix_orientation()
        self.adjacency = build_adjacency(self)
        self._extract_boundary(boundary_patch_tags)
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

    def _extract_boundary(self, patch_tags):
        adj = self.adjacency
        tris = []
        for fid in adj.boundary_face_ids:
            t = adj.face_tets[fid, 0]
            li = adj.face_local[fid, 0]
            tet = self.tets[t]
            a, b, c = (tet[i] for i in FACE_VERTICES[li])
            # orient outward: opposite vertex must be on the negative side
            p = self.vertices
            d = np.dot(np.cross(p[b] - p[a], p[c] - p[a]), p[tet[li]] - p[a])
            tris.append((a, c, b) if d > 0 else (a, b, c))
        self.boundary_tris = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
        self.boundary_patch_ids = np.zeros(len(tris), dtype=np.int64)
        self._input_patch_tags = {}
        if patch_tags:
            for tri, ref in patch_tags:
                self._input_patch_tags[tuple(sorted(tri))] = int(ref)
        self._check_watertight()
        self.boundary_vertices = np.unique(self.boundary_tris)

    def _check_watertight(self):
        edges = {}
        for ti, (a, b, c) in enumerate(self.boundary_tris):
            for u, v in ((a, b), (b, c), (c, a)):
                edges.setdefault((min(u, v), max(u, v)), []).append((ti, u, v))
        for key, occ in edges.items():
            if len(occ) != 2:
                raise OpenBoundary(
                    "boundary edge %s has %d incident triangles" % (key, len(occ))
                )
        self._boundary_edge_tris = edges

    def boundary_tri_normals(self):
        p = self.vertices
        t = self.boundary_tris
        n = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        return n / np.linalg.norm(n, axis=1)[:, None]

    def boundary_area(self):
        p = self.vertices
        t = self.boundary_tris
        n = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
        return 0.5 * np.linalg.norm(n, axis=1).sum()

    def boundary_euler_characteristic(self):
        nv = len(np.unique(self.boundary_tris))
        ne = len(self._boundary_edge_tris)
        nf = len(self.boundary_tris)
        return nv - ne + nf

    def boundary_edge_dihedrals(self):
        """Interior dihedral angle (degrees, in (0, 360)) per boundary edge."""
        normals = self.boundary_tri_normals()
        p = self.vertices
        out = {}
        for key, occ in self._boundary_edge_tris.items():
            (t1, u1, v1), (t2, u2, v2) = occ
            e = p[v1] - p[u1]
            e = e / np.linalg.norm(e)
            n1, n2 = normals[t1], normals[t2]
            ang = np.pi - np.arctan2(np.dot(np.cross(n1, n2), e), np.dot(n1, n2))
            out[key] = np.degrees(ang) % 360.0
        return out

    # -- features -----------------------------------------------------------

    def detect_features(self, angle_threshold=FEATURE_ANGLE_DEFAULT):
        """Detect feature edges, chain curves, flood-fill patches.

        Input-file feature tags take precedence over dihedral detection.
        Populates ``feature_edges``, ``feature_curves``, ``patches`` and
        ``corners``; idempotent for a fixed threshold.
        """
        dihedrals = self.boundary_edge_dihedrals()
        tagged = {}
        for u, v, cid in self.tagged_feature_edges:
            tagged[(min(u, v), max(u, v))] = cid
        detected = set()
        for key, ang in dihedrals.items():
            if key in tagged:
                continue
            if abs(ang - 180.0) > angle_threshold:
                detected.add(key)
        self.feature_curves = self._chain_curves(tagged, detected, dihedrals)
        self.feature_edges = []
        for curve in self.feature_curves:
            for u, v in curve.edges():
                self.feature_edges.append((u, v, curve.curve_id))
        self._build_patches()
        return self.feature_curves

    def _feature_graph(self, edge_keys):
        graph = {}
        for u, v in edge_keys:
            graph.setdefault(u, []).append(v)
            graph.setdefault(v, []).append(u)
        return graph

    def _chain_curves(self, tagged, detected, dihedrals):
        all_edges = dict(tagged)
        for key in sorted(detected):
            all_edges.setdefault(key, None)
        graph = self._feature_graph(all_edges)
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
        self.corners = sorted(
            corners | {c.vertices[0] for c in curves if not c.closed}
            | {c.vertices[-1] for c in curves if not c.closed}
        )
        return curves

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

    def _build_patches(self):
        feature_keys = {
            (min(u, v), max(u, v)) for u, v, _ in self.feature_edges
        }
        nt = len(self.boundary_tris)
        tri_edges = [[] for _ in range(nt)]
        for key, occ in self._boundary_edge_tris.items():
            if key in feature_keys:
                continue
            (t1, _, _), (t2, _, _) = occ
            tri_edges[t1].append(t2)
            tri_edges[t2].append(t1)
        patch_of = -np.ones(nt, dtype=np.int64)
        next_patch = 0
        for seed in range(nt):
            if patch_of[seed] >= 0:
                continue
            stack = [seed]
            patch_of[seed] = next_patch
            while stack:
                t = stack.pop()
                for nb in tri_edges[t]:
                    if patch_of[nb] < 0:
                        patch_of[nb] = next_patch
                        stack.append(nb)
            next_patch += 1
        self.boundary_patch_ids = patch_of
        normals = self.boundary_tri_normals()
        p = self.vertices
        t = self.boundary_tris
        areas = 0.5 * np.linalg.norm(
            np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]), axis=1
        )
        self.patches = []
        for pid in range(next_patch):
            tris = np.nonzero(patch_of == pid)[0]
            acc = {}
            for ti in tris:
                for v in self.boundary_tris[ti]:
                    acc.setdefault(v, np.zeros(3))
                    acc[v] += areas[ti] * normals[ti]
            vnorm = {
                v: w / np.linalg.norm(w) for v, w in acc.items() if np.linalg.norm(w) > 0
            }
            self.patches.append(SurfacePatch(pid, tris, vnorm))

    # -- lookups used downstream -------------------------------------------

    def patch_normal(self, vertex):
        """Outward normals of the patches containing a boundary vertex."""
        out = []
        for patch in self.patches:
            if vertex in patch.vertex_normals:
                out.append((patch.patch_id, patch.vertex_normals[vertex]))
        return out

    def feature_vertex_set(self):
        s = set()
        for u, v, _ in self.feature_edges:
            s.add(u)
            s.add(v)
        return s

    def __repr__(self):
        return "TetMesh(V=%d, T=%d, B=%d)" % (
            len(self.vertices),
            len(self.tets),
            len(self.boundary_tris),
        )
