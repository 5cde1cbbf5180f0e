"""Loop-based reference for the mesh tables, kept to check the array forms.

Each function is the per-tet, per-face or per-edge loop that ``TetMesh``
and ``boxgen.generate_box`` once ran.  Only tests import this module.
"""

import numpy as np

from hexframe.mesh import FACE_VERTICES


def adjacency(tets):
    """``(faces, tet_faces, face_tets, face_local)`` of positively oriented tets."""
    nt = len(tets)
    raw = np.empty((4 * nt, 3), dtype=np.int64)
    for li, (a, b, c) in enumerate(FACE_VERTICES):
        raw[li::4] = tets[:, [a, b, c]]
    faces, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    tet_faces = inverse.reshape(nt, 4)
    face_tets = -np.ones((len(faces), 2), dtype=np.int64)
    face_local = -np.ones((len(faces), 2), dtype=np.int64)
    for t in range(nt):
        for li in range(4):
            f = tet_faces[t, li]
            slot = 0 if face_tets[f, 0] < 0 else 1
            face_tets[f, slot] = t
            face_local[f, slot] = li
    return faces, tet_faces, face_tets, face_local


def boundary_tris(vertices, tets, face_tets, face_local):
    """Outward oriented boundary triangles in face order."""
    p = vertices
    tris = []
    for fid in np.nonzero(face_tets[:, 1] < 0)[0]:
        tet = tets[face_tets[fid, 0]]
        li = face_local[fid, 0]
        a, b, c = (tet[i] for i in FACE_VERTICES[li])
        d = np.dot(np.cross(p[b] - p[a], p[c] - p[a]), p[tet[li]] - p[a])
        tris.append((a, c, b) if d > 0 else (a, b, c))
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def edge_dict(tris):
    """Sorted edge key -> [(triangle, u, v)] in triangle order."""
    edges = {}
    for ti, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((int(min(u, v)), int(max(u, v))), []).append((ti, u, v))
    return edges


def tri_normals(vertices, tris):
    p = vertices
    n = np.cross(p[tris[:, 1]] - p[tris[:, 0]], p[tris[:, 2]] - p[tris[:, 0]])
    return n / np.linalg.norm(n, axis=1)[:, None]


def dihedrals(vertices, tris, edges):
    """Edge key -> interior dihedral angle in degrees."""
    normals = tri_normals(vertices, tris)
    p = vertices
    out = {}
    for key, ((t1, u1, v1), (t2, _, _)) in edges.items():
        e = p[v1] - p[u1]
        e = e / np.linalg.norm(e)
        n1, n2 = normals[t1], normals[t2]
        ang = np.pi - np.arctan2(np.dot(np.cross(n1, n2), e), np.dot(n1, n2))
        out[key] = np.degrees(ang) % 360.0
    return out


def feature_curves(mesh, dihedral, angle_threshold):
    """``(curves, corners)``: tags first, then detected edges in key order."""
    all_edges = {}
    for u, v, cid in mesh.tagged_feature_edges:
        all_edges[(min(u, v), max(u, v))] = cid
    for key in sorted(dihedral):
        if key not in all_edges and abs(dihedral[key] - 180.0) > angle_threshold:
            all_edges[key] = None
    return mesh._chain_curves(all_edges, dihedral)


def patches(vertices, tris, edges, curves):
    """``(patch ids, [{vertex: unit normal}])`` by flood fill over triangles."""
    feature_keys = set()
    for curve in curves:
        for u, v in curve.edges():
            feature_keys.add((min(u, v), max(u, v)))
    nt = len(tris)
    tri_edges = [[] for _ in range(nt)]
    for key, ((t1, _, _), (t2, _, _)) in edges.items():
        if key not in feature_keys:
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
    normals = tri_normals(vertices, tris)
    p = vertices
    areas = 0.5 * np.linalg.norm(
        np.cross(p[tris[:, 1]] - p[tris[:, 0]], p[tris[:, 2]] - p[tris[:, 0]]), axis=1
    )
    vertex_normals = []
    for pid in range(next_patch):
        acc = {}
        for ti in np.nonzero(patch_of == pid)[0]:
            for v in tris[ti]:
                acc.setdefault(int(v), np.zeros(3))
                acc[int(v)] += areas[ti] * normals[ti]
        vertex_normals.append(
            {v: w / np.linalg.norm(w) for v, w in acc.items() if np.linalg.norm(w) > 0}
        )
    return patch_of, vertex_normals


_CUBE_TETS = [(0, 1, 3, 7), (0, 3, 2, 7), (0, 2, 6, 7), (0, 6, 4, 7), (0, 4, 5, 7), (0, 5, 1, 7)]


def generate_box(nx, ny, nz, size=(1.0, 1.0, 1.0), bulge=0.0):
    """``(vertices, tets)`` of the structured box, built cube by cube."""
    lx, ly, lz = size
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)

    def vid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    verts = np.empty(((nx + 1) * (ny + 1) * (nz + 1), 3))
    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                verts[vid(i, j, k)] = (xs[i], ys[j], zs[k])
    if bulge:
        x, y, z = verts.T
        verts[:, 2] = z * (1.0 + bulge * np.sin(np.pi * x / lx) * np.sin(np.pi * y / ly))
    tets = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                corner = [
                    vid(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
                    for c in range(8)
                ]
                for t in _CUBE_TETS:
                    tets.append([corner[c] for c in t])
    return verts, np.asarray(tets, dtype=np.int64)
