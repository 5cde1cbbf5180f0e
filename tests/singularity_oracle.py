"""Reference loops for singularity classification and chain assembly.

One face or one surface corner at a time, as ``hexframe.singularities``
computed them before it classified whole arrays: the per-face holonomy from
three scalar octahedral matchings, the hot-face scan, and the surface cross
indices with the per-vertex fan walk.  ``assemble_chains`` is the chain
assembly as it was before its walk had one end rule: separate start and end
rules, and closed loops trimmed after the walk.  The tests require the
library code to reproduce these results exactly.
"""

from fractions import Fraction

import numpy as np

import hexframe.frames as fr
from hexframe.singularities import (
    QUALITY_CUTOFF,
    SingularChain,
    SingularityGraph,
    _valence_from_index,
)


def matching(Ra, Rb):
    """Group element minimizing the angle between Ra*g and Rb, first on ties."""
    M = Ra.T @ Rb
    traces = np.einsum("kij,ij->k", fr.OCTA_GROUP, M)
    return int(np.argmax(traces > traces.max() - 1e-10))


def face_holonomy(frames, a, b, c):
    g1 = matching(frames[a], frames[b])
    g2 = matching(frames[b], frames[c])
    g3 = matching(frames[c], frames[a])
    return fr.octa_compose(fr.octa_compose(g1, g2), g3)


def holonomy_rows(frames, tris):
    """``face_holonomy`` of every row of ``tris``."""
    return np.array([face_holonomy(frames, a, b, c) for a, b, c in tris], dtype=int)


def classify_faces(field):
    """``({face_id: group element}, hot-face defects)`` of the interior faces."""
    adj = field.mesh.adjacency
    frames, quality = field.vertex_frames()
    hot = set(np.nonzero(quality < QUALITY_CUTOFF)[0])
    singular, defects = {}, []
    for fid in np.nonzero(adj.interior_mask)[0]:
        a, b, c = adj.faces[fid]
        if a in hot or b in hot or c in hot:
            defects.append(("hot_face", int(fid)))
            continue
        h = face_holonomy(frames, a, b, c)
        if h:
            singular[int(fid)] = h
    return singular, defects


def _cross_angle_in_plane(R, u, v):
    best = None
    for a in R.T:
        ip = np.hypot(a @ u, a @ v)
        if best is None or ip > best[0]:
            best = (ip, a)
    a = best[1]
    return np.arctan2(a @ v, a @ u) % (np.pi / 2)


def _wrap_quarter(x):
    return x - np.pi / 2 * np.ceil((x - np.pi / 4) / (np.pi / 2) - 1e-12)


def _wrap_link(x, t_from, t_to):
    """``x`` wrapped as seen from the lower-numbered of the two triangles."""
    s = 1.0 if t_from < t_to else -1.0
    return s * _wrap_quarter(s * x)


def surface_cross_indices(field):
    """``(per_triangle, per_vertex, total)`` as ``surface_cross_indices``."""
    mesh = field.mesh
    frames, _ = field.vertex_frames()
    p = mesh.vertices
    tris = mesh.boundary_tris

    per_triangle = []
    for ti, (a, b, c) in enumerate(tris):
        n = np.cross(p[b] - p[a], p[c] - p[a])
        n /= np.linalg.norm(n)
        u = p[b] - p[a]
        u = u - (u @ n) * n
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        th = [_cross_angle_in_plane(frames[x], u, v) for x in (a, b, c)]
        s = (_wrap_quarter(th[1] - th[0]) + _wrap_quarter(th[2] - th[1])
             + _wrap_quarter(th[0] - th[2]))
        per_triangle.append((ti, Fraction(int(round(s / (np.pi / 2))), 4)))

    incident = {}
    for ti, tri in enumerate(tris):
        for k in range(3):
            incident.setdefault(int(tri[k]), []).append((ti, k))
    per_vertex = {}
    for vtx, occ in incident.items():
        # walk the fan around vtx by following shared edges
        nxt = {}
        for ti, k in occ:
            a = int(tris[ti][(k + 1) % 3])
            nxt[a] = (ti, a, int(tris[ti][(k + 2) % 3]))
        a0 = int(tris[occ[0][0]][(occ[0][1] + 1) % 3])
        order = []
        cur = a0
        for _ in range(len(occ)):
            ti, a, b = nxt[cur]
            order.append((ti, a, b))
            cur = b
        if cur != a0:
            continue
        theta_sum = delta_sum = 0.0
        prev_theta = first_theta = prev_alpha = prev_ti = None
        for ti, a, b in order:
            e1 = p[a] - p[vtx]
            e2 = p[b] - p[vtx]
            n = np.cross(e1, e2)
            n /= np.linalg.norm(n)
            u = e1 / np.linalg.norm(e1)
            w = np.cross(n, u)
            alpha = np.arctan2(e2 @ w, e2 @ u) % (2 * np.pi)
            th = _cross_angle_in_plane(frames[int(tris[ti][0])], u, w)
            theta_sum += alpha
            if prev_theta is not None:
                delta_sum += _wrap_link(th - (prev_theta - prev_alpha), prev_ti, ti)
            else:
                first_theta = th
            prev_theta, prev_alpha, prev_ti = th, alpha, ti
        delta_sum += _wrap_link(first_theta - (prev_theta - prev_alpha),
                                prev_ti, order[0][0])
        q = int(round((2 * np.pi - theta_sum + delta_sum) / (np.pi / 2)))
        if q:
            per_vertex[vtx] = q
    return per_triangle, per_vertex, Fraction(sum(per_vertex.values()), 4)


def assemble_chains(mesh, singular, defects):
    """``SingularityGraph`` of the ``{face_id: SingularFace}`` map
    ``singular``; dangling-chain defects follow a copy of ``defects``."""
    adj = mesh.adjacency
    defects = list(defects)
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
