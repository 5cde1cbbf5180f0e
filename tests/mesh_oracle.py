"""Loop-based reference for the mesh tables, kept to check the array forms.

Each function is the per-tet, per-face or per-edge loop that ``TetMesh``,
``boxgen.generate_box`` and ``solver.build_boundary_conditions`` once ran,
the vertex-at-a-time feature-curve walk that ``TetMesh.detect_features``
once ran, or the token-at-a-time reader that ``meshio.read_medit`` once was.
Only tests import this module.
"""

import math

import numpy as np

from hexframe import frames as fr
from hexframe.errors import (
    DegenerateDihedral,
    DegenerateTangent,
    IndexOutOfRange,
    IoError,
    ParseError,
)
from hexframe.mesh import (
    FACE_VERTICES,
    FEATURE_ANGLE_DEFAULT,
    FeatureCurve,
    TetMesh,
    classify_feature_valence,
)
from hexframe.solver import DIRICHLET, BoundaryConditionSet


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
    return chain_curves(mesh, all_edges, dihedral)


def chain_curves(mesh, all_edges, dihedrals):
    """Chain feature edges into curves; returns (curves, corners).

    ``all_edges`` maps each feature edge to its tag (None when detected)
    and ``dihedrals`` maps it to its dihedral angle.
    """
    graph = {}
    for u, v in all_edges:
        graph.setdefault(u, []).append(v)
        graph.setdefault(v, []).append(u)
    corners = set(mesh.tagged_corners)
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
            curves.append(make_curve(mesh, next_id, chain, dihedrals, closed=False))
            next_id += 1
    # remaining edges belong to closed loops without corners
    for key in sorted(all_edges):
        if key in visited:
            continue
        chain = walk(key[0], key[1])
        closed = chain[0] == chain[-1]
        if closed:
            chain = chain[:-1]
        curves.append(make_curve(mesh, next_id, chain, dihedrals, closed=closed))
        next_id += 1
    corners |= {c.vertices[0] for c in curves if not c.closed}
    corners |= {c.vertices[-1] for c in curves if not c.closed}
    return curves, sorted(corners)


def make_curve(mesh, cid, chain, dihedrals, closed):
    """``FeatureCurve`` of a chain, tangents one vertex at a time."""
    p = mesh.vertices
    n = len(chain)
    tangents = []
    for i, v in enumerate(chain):
        if closed:
            a, b = chain[(i - 1) % n], chain[(i + 1) % n]
        else:
            a, b = chain[max(i - 1, 0)], chain[min(i + 1, n - 1)]
        d = p[b] - p[a]
        norm = math.sqrt(np.dot(d, d))
        if not norm > 0.0:
            raise DegenerateTangent(
                "curve %d vertex %d: its chord from vertex %d to %d has zero "
                "length" % (cid, v, a, b))
        tangents.append(d / norm)
    keys = [
        (min(u, v), max(u, v))
        for u, v in zip(chain, chain[1:] + ([chain[0]] if closed else []))
    ]
    mean_dih = float(np.mean([dihedrals[k] for k in keys]))
    return FeatureCurve(cid, chain, tangents, mean_dih, closed=closed)


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


def boundary_conditions(mesh, vertex_normals):
    """The standard boundary conditions from per-patch ``{vertex: normal}``
    dicts: curve frames from the patch normals in patch order, corner and
    junction frames averaged and projected, then tangency patch by patch."""
    def curve_frames(curve):
        out = {}
        for i, v in enumerate(curve.vertices):
            t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
            normals = [patch[v] for patch in vertex_normals if v in patch]
            if not normals:
                continue
            n = np.mean(normals, axis=0) if curve.target_valence == 2 else normals[0]
            a2 = n - (n @ t) * t
            ln = np.linalg.norm(a2)
            if ln < 1e-9:
                a2 = np.eye(3)[int(np.argmin(np.abs(t)))]
                a2 = a2 - (a2 @ t) * t
                ln = np.linalg.norm(a2)
            a2 /= ln
            out[v] = fr.coeffs_from_rotation(np.column_stack([a2, np.cross(t, a2), t]))
        return out

    bcs = BoundaryConditionSet(len(mesh.vertices))
    corner_acc = {}
    for curve in mesh.feature_curves:
        for v, c in curve_frames(curve).items():
            if v in mesh.corners:
                corner_acc.setdefault(v, []).append(c)
            elif bcs.kind[v] == DIRICHLET:
                corner_acc.setdefault(v, [bcs.coeffs[v].copy()]).append(c)
            else:
                bcs.set_dirichlet(v, c)
    for v, vals in corner_acc.items():
        bcs.set_dirichlet(v, fr.project_to_octahedral(np.mean(vals, axis=0))[1])
    feature_verts = mesh.feature_vertex_set() | set(mesh.corners)
    for patch in vertex_normals:
        for v, n in patch.items():
            if v not in feature_verts and bcs.kind[v] != DIRICHLET:
                bcs.set_tangency(v, n)
    return bcs


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


def read_medit(path, feature_angle=FEATURE_ANGLE_DEFAULT):
    """``meshio.read_medit`` one token at a time, each token's line kept."""
    try:
        with open(path) as fh:
            text_lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc
    tokens = []
    lines = []
    for ln, line in enumerate(text_lines, 1):
        for tok in line.split("#")[0].split():
            tokens.append(tok)
            lines.append(ln)

    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of file while reading %s" % what)
        tok = tokens[pos]
        pos += 1
        return tok, lines[pos - 1]

    def take_int(what):
        tok, ln = take(what)
        try:
            n = int(tok)
        except ValueError:
            raise ParseError("line %d: expected integer in %s, got %r" % (ln, what, tok))
        if not -2 ** 63 <= n < 2 ** 63:
            raise ParseError("line %d: integer %s in %s outside int64" % (ln, tok, what))
        return n

    def take_count(what):
        n = take_int(what)
        if n < 0:
            raise ParseError("line %d: negative %s %d" % (lines[pos - 1], what, n))
        # every entry takes at least one token
        if n > len(tokens) - pos:
            raise ParseError("line %d: %s %d exceeds the %d tokens left"
                             % (lines[pos - 1], what, n, len(tokens) - pos))
        return n

    def take_float(what):
        tok, ln = take(what)
        try:
            x = float(tok)
        except ValueError:
            raise ParseError("line %d: expected number in %s, got %r" % (ln, what, tok))
        if not math.isfinite(x):
            raise ParseError("line %d: non-finite number in %s, got %r"
                             % (ln, what, tok))
        return x

    vertices = None
    tets = None
    tris = []
    edges = []
    corners = []
    while pos < len(tokens):
        kw, ln = take("section keyword")
        key = kw.lower()
        if key == "meshversionformatted":
            take("version")
        elif key == "dimension":
            dim = take_int("Dimension")
            if dim != 3:
                raise ParseError("line %d: expected Dimension 3, got %d" % (ln, dim))
        elif key == "vertices":
            n = take_count("Vertices count")
            vertices = np.empty((n, 3))
            for i in range(n):
                vertices[i] = [take_float("Vertices") for _ in range(3)]
                take("vertex ref")
        elif key == "tetrahedra":
            n = take_count("Tetrahedra count")
            tets = np.empty((n, 4), dtype=np.int64)
            for i in range(n):
                tets[i] = [take_int("Tetrahedra") for _ in range(4)]
                take_int("tet ref")
        elif key == "triangles":
            n = take_count("Triangles count")
            for _ in range(n):
                a, b, c = (take_int("Triangles") for _ in range(3))
                take_int("triangle ref")
                tris.append((a - 1, b - 1, c - 1))
        elif key == "edges":
            n = take_count("Edges count")
            for _ in range(n):
                a, b = take_int("Edges"), take_int("Edges")
                ref = take_int("edge ref")
                edges.append((a - 1, b - 1, ref))
        elif key == "corners":
            n = take_count("Corners count")
            for _ in range(n):
                corners.append(take_int("Corners") - 1)
        elif key == "end":
            break
        else:
            raise ParseError("line %d: unknown section %r" % (ln, kw))
    if vertices is None or tets is None:
        raise ParseError("missing Vertices or Tetrahedra section")
    if len(tets) == 0:
        raise ParseError("Tetrahedra section is empty")
    for a, b, c in tris:
        if min(a, b, c) < 0 or max(a, b, c) >= len(vertices):
            raise IndexOutOfRange("triangle vertex index out of range")
    for a, b, _ in edges:
        if min(a, b) < 0 or max(a, b) >= len(vertices):
            raise IndexOutOfRange("edge vertex index out of range")
    for c in corners:
        if not 0 <= c < len(vertices):
            raise IndexOutOfRange("corner vertex index %d out of range" % (c + 1))
    return TetMesh(vertices, tets - 1, feature_edges=edges, corners=corners,
                   feature_angle=feature_angle)
