"""Singularity graph extraction and classification.

Faces whose three vertex frames compose to a non-identity octahedral
matching are singular; chains of tetrahedra connected through singular
faces form the singularity graph.  Chain valences follow from the quarter
turn holonomy: valence = 4 - 4*index with index +-1/4.
"""

from fractions import Fraction

import numpy as np

from . import frames as fr
from .errors import AmbiguousAxis, UnprojectableVertex

QUALITY_CUTOFF = 0.5


class SingularFace:
    """Interior triangle with non-trivial holonomy."""

    __slots__ = ("face_id", "tri", "tets", "group_elem", "index", "world_rotation")

    def __init__(self, face_id, tri, tets, group_elem, index, world_rotation):
        self.face_id = face_id
        self.tri = tri
        self.tets = tets
        self.group_elem = group_elem
        self.index = index            # Fraction(+-1, 4) or the string "other"
        self.world_rotation = world_rotation

    def __repr__(self):
        return "SingularFace(%s, g=%d, index=%s)" % (self.tri, self.group_elem, self.index)


class SingularChain:
    """Connected chain of tets traversed through singular faces."""

    def __init__(self, chain_id, tets, faces, points, valence_start, valence_end,
                 endpoint_start, endpoint_end):
        self.chain_id = chain_id
        self.tets = tets
        self.faces = faces            # SingularFace list along the traversal
        self.points = np.asarray(points, dtype=float)
        self.valence_start = valence_start
        self.valence_end = valence_end
        self.endpoint_start = endpoint_start  # ("boundary", point) | ("junction", tet) | ("closed", None)
        self.endpoint_end = endpoint_end
        self.is_35 = (
            isinstance(valence_start, int)
            and isinstance(valence_end, int)
            and {valence_start, valence_end} == {3, 5}
        )

    @property
    def closed(self):
        return self.endpoint_start[0] == "closed"

    def __repr__(self):
        return "SingularChain(id=%d, tets=%d, valences=(%s,%s), ends=(%s,%s))" % (
            self.chain_id,
            len(self.tets),
            self.valence_start,
            self.valence_end,
            self.endpoint_start[0],
            self.endpoint_end[0],
        )


class SingularityGraph:
    def __init__(self, chains, junction_tets, boundary_nodes, defects, singular_faces):
        self.chains = chains
        self.junction_tets = junction_tets
        self.boundary_nodes = boundary_nodes   # list of (chain_id, end, point)
        self.defects = defects
        self.singular_faces = singular_faces   # face_id -> SingularFace

    def __repr__(self):
        return "SingularityGraph(chains=%d, junctions=%d, boundary_nodes=%d)" % (
            len(self.chains),
            len(self.junction_tets),
            len(self.boundary_nodes),
        )


# faces per batch of holonomy matchings, bounding the transient arrays
_FACE_CHUNK = 4096


def _holonomy(frames, tris):
    """Octahedral element composing the matchings around each oriented
    row (a, b, c) of ``tris``."""
    Fa, Fb, Fc = frames[tris[:, 0]], frames[tris[:, 1]], frames[tris[:, 2]]
    g1 = fr.octa_matching(Fa, Fb)
    g2 = fr.octa_matching(Fb, Fc)
    g3 = fr.octa_matching(Fc, Fa)
    return fr.octa_compose(fr.octa_compose(g1, g2), g3)


def _check_projectable(coeffs, tris):
    """Raise on the first near-zero coefficient vertex of ``tris``, in row order."""
    bad = np.linalg.norm(coeffs[tris], axis=2) < 1e-9
    if bad.any():
        v = tris.ravel()[np.argmax(bad.ravel())]
        raise UnprojectableVertex("vertex %d has near-zero coefficients" % v)


def _rotation_angle_axis(W):
    cos = np.clip((np.trace(W) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos)
    axis = np.array([W[2, 1] - W[1, 2], W[0, 2] - W[2, 0], W[1, 0] - W[0, 1]])
    n = np.linalg.norm(axis)
    if n < 1e-12:
        return angle, None
    return angle, axis / n


def _singular_face(field, frames, triangle, h, face_id):
    """SingularFace of interior face ``face_id``, oriented as ``triangle``,
    with non-identity holonomy ``h``."""
    a, b, c = triangle
    # the matching holonomy is the inverse of the field's rotation around
    # the loop; report the field rotation in world coordinates
    G = fr.OCTA_GROUP[fr.octa_inverse(h)]
    Ra = frames[a]
    W = Ra @ G @ Ra.T
    angle, axis = _rotation_angle_axis(W)
    p = field.mesh.vertices
    n = np.cross(p[b] - p[a], p[c] - p[a])
    n /= np.linalg.norm(n)
    if axis is not None and abs(angle - np.pi / 2) < 1e-6:
        sign = 1.0 if axis @ n >= 0 else -1.0
        index = Fraction(1, 4) if sign > 0 else Fraction(-1, 4)
    else:
        index = "other"
    tets = tuple(int(t) for t in field.mesh.adjacency.face_tets[face_id])
    return SingularFace(face_id, (a, b, c), tets, h, index, W)


def _valence_from_index(index):
    if index == "other":
        return "other"
    return int(4 - 4 * index)


def extract_graph(field):
    """Chains, junctions, and boundary nodes of the field's singular set."""
    mesh = field.mesh
    adj = mesh.adjacency
    frames, quality = field.vertex_frames()
    fids = np.nonzero(adj.interior_mask)[0]
    tris = adj.faces[fids]
    hot = (quality < QUALITY_CUTOFF)[tris].any(axis=1)
    defects = [("hot_face", int(fid)) for fid in fids[hot]]
    fids, tris = fids[~hot], tris[~hot]
    singular = {}
    for s in range(0, len(fids), _FACE_CHUNK):
        chunk = tris[s:s + _FACE_CHUNK]
        _check_projectable(field.coeffs, chunk)
        h = _holonomy(frames, chunk)
        for k in np.nonzero(h)[0] + s:
            singular[fids[k]] = _singular_face(
                field, frames, tuple(tris[k]), int(h[k - s]), fids[k])
    tet_sing = {}
    for fid, sf in singular.items():
        for t in adj.face_tets[fid]:
            if t >= 0:
                tet_sing.setdefault(int(t), []).append(fid)
    junction_tets = sorted(t for t, fs in tet_sing.items() if len(fs) >= 3)
    centroids = mesh.vertices[mesh.tets].mean(axis=1)

    def boundary_point(tet, near):
        # centroid of the tet's boundary face closest to the chain end
        best = None
        for li in range(4):
            fid = adj.tet_faces[tet, li]
            if adj.interior_mask[fid]:
                continue
            pt = mesh.vertices[adj.faces[fid]].mean(axis=0)
            d = np.linalg.norm(pt - near)
            if best is None or d < best[0]:
                best = (d, pt, fid)
        return best

    visited = set()
    raw_chains = []
    junction_set = set(junction_tets)

    def face_centroid(fid):
        return mesh.vertices[adj.faces[fid]].mean(axis=0)

    def walk(start_fid, start_tet):
        """Walk a chain from a face into a tet until an endpoint."""
        tets = []
        faces = [start_fid]
        tet = start_tet
        fid = start_fid
        while True:
            tets.append(tet)
            if tet in junction_set:
                return tets, faces, ("junction", tet)
            sfs = tet_sing.get(tet, [])
            nxt = [f for f in sfs if f != fid]
            if len(nxt) == 0:
                bp = boundary_point(tet, face_centroid(fid))
                if bp is not None:
                    return tets, faces, ("boundary", bp[1])
                return tets, faces, ("defect", None)
            fid = nxt[0]
            faces.append(fid)
            if fid == faces[0] and len(faces) > 1:
                return tets, faces, ("closed", None)
            pair = adj.face_tets[fid]
            tet = int(pair[0]) if int(pair[1]) == tet else int(pair[1])

    chain_id = 0
    chains = []
    boundary_nodes = []
    # seed at chain terminals first (tets with exactly one or >=3 singular faces)
    seeds = []
    for t in sorted(tet_sing):
        k = len(tet_sing[t])
        if k == 1 or t in junction_set:
            for f in sorted(tet_sing[t]):
                seeds.append((t, f))
    for t, f in seeds:
        if f in visited:
            continue
        # start from terminal tet t through face f
        pair = adj.face_tets[f]
        other = int(pair[0]) if int(pair[1]) == t else int(pair[1])
        visited.add(f)
        tets_fwd, faces_fwd, end_fwd = walk(f, other)
        for ff in faces_fwd:
            visited.add(ff)
        if t in junction_set:
            start_pt = centroids[t]
            start_desc = ("junction", t)
        else:
            bp = boundary_point(t, face_centroid(f))
            if bp is not None:
                start_desc = ("boundary", bp[1])
                start_pt = bp[1]
            else:
                start_desc = ("defect", None)
                start_pt = centroids[t]
        raw_chains.append(([t] + tets_fwd, faces_fwd, start_desc, end_fwd, start_pt))
    # remaining faces belong to closed loops
    for fid in sorted(singular):
        if fid in visited:
            continue
        pair = adj.face_tets[fid]
        visited.add(fid)
        tets_fwd, faces_fwd, end = walk(fid, int(pair[0]))
        for ff in faces_fwd:
            visited.add(ff)
        raw_chains.append((tets_fwd, faces_fwd, ("closed", None), ("closed", None),
                           face_centroid(fid)))

    for tets, faces, start_desc, end_desc, start_pt in raw_chains:
        if start_desc[0] == "closed" and len(faces) > 1 and faces[-1] == faces[0]:
            faces = faces[:-1]
        sfaces = [singular[f] for f in faces]
        if start_desc[0] == "closed":
            pts = [face_centroid(f) for f in faces] + [face_centroid(faces[0])]
        else:
            pts = [start_pt] + [face_centroid(f) for f in faces]
        if end_desc[0] == "junction":
            pts.append(centroids[end_desc[1]])
        elif end_desc[0] == "boundary":
            pts.append(end_desc[1])
        # the face index is loop-orientation invariant, so the endpoint
        # valences read directly off the first and last faces
        v_start = _valence_from_index(sfaces[0].index)
        v_end = _valence_from_index(sfaces[-1].index)
        if start_desc[0] == "defect" or end_desc[0] == "defect":
            defects.append(("dangling_chain", tuple(tets)))
        ch = SingularChain(chain_id, tets, sfaces, pts, v_start, v_end,
                           start_desc, end_desc)
        chains.append(ch)
        if start_desc[0] == "boundary":
            boundary_nodes.append((chain_id, "start", start_desc[1]))
        if end_desc[0] == "boundary":
            boundary_nodes.append((chain_id, "end", end_desc[1]))
        chain_id += 1
    return SingularityGraph(chains, junction_tets, boundary_nodes, defects, singular)


def detect_35(graph):
    """Chains whose endpoint valences are exactly {3, 5}."""
    return [ch for ch in graph.chains if ch.is_35]


def _cross_angles(R, u, v):
    """Angle (mod pi/2) of each frame's dominant tangent axis in plane (u, v).

    ``R`` holds one rotation per row of ``u`` and ``v``; the dominant axis
    is the first column of largest in-plane length.
    """
    au = np.einsum("nij,ni->nj", R, u)
    av = np.einsum("nij,ni->nj", R, v)
    k = np.argmax(np.hypot(au, av), axis=1)[:, None]
    au = np.take_along_axis(au, k, axis=1)[:, 0]
    av = np.take_along_axis(av, k, axis=1)[:, 0]
    return np.arctan2(av, au) % (np.pi / 2)


def _unit(x):
    return x / np.linalg.norm(x, axis=1)[:, None]


def _wrap_quarter(x):
    # wrap to (-pi/4, pi/4]
    return x - np.pi / 2 * np.ceil((x - np.pi / 4) / (np.pi / 2) - 1e-12)


def surface_cross_indices(field):
    """Per-triangle tangent cross indices and per-vertex quarter charges.

    Returns (per_triangle, per_vertex_quarters, total) where ``total`` is the
    exact quarter-unit sum of the vertex charges; for a closed surface it
    equals 4 * Euler characteristic quarters, i.e. ``total == chi``.
    """
    mesh = field.mesh
    frames, _ = field.vertex_frames()
    p = mesh.vertices
    tris = mesh.boundary_tris

    # per-triangle index from in-plane matchings around the triangle
    pa, pb, pc = p[tris[:, 0]], p[tris[:, 1]], p[tris[:, 2]]
    n = _unit(np.cross(pb - pa, pc - pa))
    u = pb - pa
    u = _unit(u - np.einsum("ni,ni->n", u, n)[:, None] * n)
    v = np.cross(n, u)
    th = [_cross_angles(frames[tris[:, k]], u, v) for k in range(3)]
    s = (
        _wrap_quarter(th[1] - th[0])
        + _wrap_quarter(th[2] - th[1])
        + _wrap_quarter(th[0] - th[2])
    )
    ks = np.rint(s / (np.pi / 2)).astype(int)
    per_triangle = [(ti, Fraction(int(k), 4)) for ti, k in enumerate(ks)]

    # per-vertex quarter charges from unfolding holonomy (exact integers).
    # A triangle's corner at vtx spans the edges to a and b; its successor
    # in the fan around vtx is the corner at vtx whose a is this one's b.
    # Each fan term links a corner to its successor only, so the cyclic
    # sums need no walk order.
    vtx = tris.ravel()
    a = tris[:, [1, 2, 0]].ravel()
    b = tris[:, [2, 0, 1]].ravel()
    e1 = p[a] - p[vtx]
    e2 = p[b] - p[vtx]
    n = _unit(np.cross(e1, e2))
    u = _unit(e1)
    w = np.cross(n, u)
    alpha = np.arctan2(np.einsum("ni,ni->n", e2, w),
                       np.einsum("ni,ni->n", e2, u)) % (2 * np.pi)
    # one representative cross per triangle, so that edge mismatch terms
    # cancel pairwise across the closed surface
    th = _cross_angles(frames[np.repeat(tris[:, 0], 3)], u, w)
    nv = len(p)
    key = vtx * nv + a
    order = np.argsort(key, kind="stable")
    pos = np.minimum(np.searchsorted(key, vtx * nv + b, sorter=order), len(key) - 1)
    succ = order[pos]
    closed = key[succ] == vtx * nv + b
    # wrap each link as seen from its lower-numbered triangle, so that an
    # exact quarter-turn tie cancels between the two fans an edge links
    sign = np.where(np.arange(len(vtx)) // 3 < succ // 3, 1.0, -1.0)
    delta = sign * _wrap_quarter(sign * (th[succ] - (th - alpha)))
    # vertices in order of first appearance, compact ids per incidence
    verts, first, inv = np.unique(vtx, return_index=True, return_inverse=True)
    theta_sum = np.bincount(inv, alpha)
    delta_sum = np.bincount(inv, delta)
    # an open fan (not on a watertight surface) has no charge
    is_open = np.bincount(inv, ~closed) > 0
    q = np.rint((2 * np.pi - theta_sum + delta_sum) / (np.pi / 2)).astype(int)
    per_vertex = {int(verts[j]): int(q[j]) for j in np.argsort(first)
                  if q[j] and not is_open[j]}
    total = Fraction(sum(per_vertex.values()), 4)
    return per_triangle, per_vertex, total


def stable_direction(field, chain, endpoint):
    """Frame axis invariant under the chain's holonomy near an endpoint.

    ``endpoint`` is "start" or "end".  At boundary endpoints the returned
    vector points into the volume.
    """
    face = chain.faces[0] if endpoint == "start" else chain.faces[-1]
    angle, axis = _rotation_angle_axis(face.world_rotation)
    if axis is None or abs(angle - np.pi / 2) > 1e-6:
        raise AmbiguousAxis("holonomy is not a single-axis quarter turn")
    frames, quality = field.vertex_frames()
    best = max(face.tri, key=lambda v: quality[v])
    d = fr.closest_direction(axis, frames[best])
    desc = chain.endpoint_start if endpoint == "start" else chain.endpoint_end
    if desc[0] == "boundary":
        inward = _inward_normal_at(field.mesh, desc[1])
        if d @ inward < 0:
            d = -d
    return d


def _inward_normal_at(mesh, point):
    tris = mesh.boundary_tris
    p = mesh.vertices
    cents = p[tris].mean(axis=1)
    ti = int(np.argmin(np.linalg.norm(cents - point, axis=1)))
    a, b, c = tris[ti]
    n = np.cross(p[b] - p[a], p[c] - p[a])
    return -n / np.linalg.norm(n)
