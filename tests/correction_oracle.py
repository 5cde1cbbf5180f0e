"""Reference correction planners, one vertex and one row at a time.

The extrude-curve and extrude-node planners as they were before their
constraint rows were built whole-array: wedge directions screened one
signed axis at a time against the mean of the incident triangle normals,
a Python loop over every streamline point, one ``coeffs_from_rotation``
call per sheet-boundary and tube row, and the winding phase offset summed
one shell vertex at a time.  The snap planner as it was before its due
chains were found as one junction closure: it rescans every chain until
no junction adds one.  The tests require the library's plans to
reproduce these plans bit for bit.  Only tests import this module.
"""

import numpy as np

import hexframe.frames as fr
from hexframe.correction import (
    WEDGE_MARGIN,
    CorrectionPlan,
    SnapAssignment,
    _boundary_graph,
    _column_geometry,
    _dijkstra_path,
    _merge_constraint,
    _nearest_vertices,
    _take,
    _trace_all,
)
from hexframe.errors import WedgeMismatch
from hexframe.singularities import detect_35, stable_direction
from hexframe.solver import DIRICHLET, TANGENCY


def _patch_side_directions(mesh, v, t):
    """Unit directions into each adjacent surface patch, orthogonal to t."""
    out = []
    p = mesh.vertices[v]
    tris = mesh.vertex_triangles(v)
    pids = mesh.boundary_patch_ids[tris]
    for pid in np.unique(pids):
        cent = mesh.vertices[mesh.boundary_tris[tris[pids == pid]]].mean(axis=(0, 1))
        d = cent - p
        d = d - (d @ t) * t
        n = np.linalg.norm(d)
        if n > 1e-12:
            out.append(d / n)
    return out


def extrusion_directions(curve, field, i):
    """Frame axes pointing strictly into the material wedge at the curve's
    ``i``-th vertex, screened one signed axis at a time."""
    mesh = field.mesh
    v = curve.vertices[i]
    t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
    sides = _patch_side_directions(mesh, v, t)
    if len(sides) < 2:
        raise WedgeMismatch("curve %d vertex %d has %d adjacent patches"
                            % (curve.curve_id, v, len(sides)))
    e1 = sides[0]
    e2 = np.cross(t, e1)
    theta = np.radians(curve.dihedral_angle)
    # the material side faces away from the mean incident triangle normal
    n_out = mesh.boundary_normals[mesh.vertex_triangles(v)].mean(axis=0)
    half = 0.5 * theta
    if (np.cos(half) * e1 + np.sin(half) * e2) @ n_out <= 0:
        sweep = 1.0
    else:
        sweep = -1.0
    frames, _ = field.vertex_frames()
    axes = frames[v].T
    cands = []
    for a in axes:
        if abs(a @ t) < 0.5:
            for s in (1.0, -1.0):
                cands.append(s * a)
    dirs = []
    for u in cands:
        w = u - (u @ t) * t
        w /= np.linalg.norm(w)
        ang = (sweep * np.arctan2(w @ e2, w @ e1)) % (2 * np.pi)
        if WEDGE_MARGIN < ang < theta - WEDGE_MARGIN:
            dirs.append(w)
    expected = curve.target_valence - 1
    if len(dirs) != expected:
        raise WedgeMismatch(
            "curve %d at vertex %d: %d interior axes, expected %d"
            % (curve.curve_id, v, len(dirs), expected))
    order = np.argsort([(sweep * np.arctan2(d @ e2, d @ e1)) % (2 * np.pi)
                        for d in dirs])
    return [dirs[k] for k in order]


def extrude_feature_curves(mesh, field):
    """The extrude-curve plan, one streamline point at a time."""
    plan = CorrectionPlan("extrude-curve")
    sheet_boundary = {}
    boundary = set(mesh.boundary_vertices)
    edge = mesh.mean_edge_length()
    visits, seeds, directions = [], [], []
    for curve in mesh.feature_curves:
        if curve.target_valence < 2:
            continue
        for i, v in enumerate(curve.vertices):
            p = mesh.vertices[v]
            t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
            if len(_patch_side_directions(mesh, v, t)) != 2:
                continue
            try:
                dirs = extrusion_directions(curve, field, i)
            except WedgeMismatch as exc:
                visits.append(dict(detail=str(exc), vertex=int(v)))
                continue
            for d in dirs:
                visits.append((int(v), t))
                seeds.append(p + 1e-3 * edge * d)
                directions.append(d)
    lines = iter(_trace_all(plan, field, seeds, directions))
    for visit in visits:
        if isinstance(visit, dict):
            plan.fail("wedge_mismatch", **visit)
            continue
        v, t = visit
        sl = _take(plan, next(lines), vertex=v)
        if sl is None:
            continue
        for w, vk in zip(_nearest_vertices(mesh, sl.points[1:]),
                         sl.directions[1:]):
            u = np.cross(t, vk)
            un = np.linalg.norm(u)
            if un < 1e-9:
                continue
            u = u / un
            if w in boundary:
                if field.bcs.kind[w] != TANGENCY:
                    continue
                n = field.bcs.normals[w]
                u2 = u - (u @ n) * n
                nn = np.linalg.norm(u2)
                if nn < 0.5:
                    continue
                _merge_constraint(plan, w, u2 / nn)
                sheet_boundary[w] = n
            else:
                _merge_constraint(plan, w, u)
    for v, n in sheet_boundary.items():
        _, d = plan.internal_constraints[v]
        R = np.column_stack([n, d, np.cross(n, d)])
        plan.internal_constraints[v] = (DIRICHLET, fr.coeffs_from_rotation(R))
    return plan


def extrude_singular_nodes(mesh, field, graph):
    """The extrude-node plan, one tube row at a time."""
    plan = CorrectionPlan("extrude-node")
    columns = []
    plan.diagnostics["columns"] = columns
    edge = mesh.mean_edge_length()
    ends, seeds, directions = [], [], []
    for chain in detect_35(graph):
        for end in ("start", "end"):
            desc = chain.endpoint_start if end == "start" else chain.endpoint_end
            valence = chain.valence_start if end == "start" else chain.valence_end
            if desc[0] == "boundary":
                v0 = stable_direction(field, chain, end)
                seed = desc[1] + 1e-3 * edge * v0
            else:
                pts = chain.points
                tangent = (pts[-1] - pts[-2]) if end == "end" else (pts[0] - pts[1])
                seed = pts[-1] if end == "end" else pts[0]
                frames, _ = field.vertex_frames()
                w = _nearest_vertices(mesh, [seed])[0]
                v0 = fr.closest_direction(tangent, frames[w])
            ends.append((chain.chain_id, end, valence))
            seeds.append(seed)
            directions.append(v0)
    lines = _trace_all(plan, field, seeds, directions)
    for (chain_id, end, valence), sl in zip(ends, lines):
        sl = _take(plan, sl, chain=chain_id, end=end)
        if sl is None:
            continue
        axis = sl.points[-1] - sl.points[0]
        axis /= max(np.linalg.norm(axis), 1e-300)
        columns.append(dict(points=np.asarray(sl.points), axis=axis,
                            index=(4 - valence) / 4.0))
    if not plan.applicable or not columns:
        return plan
    boundary = set(mesh.boundary_vertices)
    t, Rt, near, theta = _column_geometry(mesh, columns)
    r_out = 2.0 * edge
    offset = _ambient_phase_offset(field, t, Rt, near, theta, r_out, edge)
    plan.diagnostics["winding_offset"] = offset
    for v in np.nonzero(near < r_out)[0]:
        v = int(v)
        if v in boundary:
            if field.bcs.kind[v] == TANGENCY:
                n = field.bcs.normals[v]
            else:
                n = mesh.vertex_normal_sums[v]
                n = n / max(np.linalg.norm(n), 1e-300)
            if abs(float(n @ t)) < 0.7:
                continue
        plan.internal_constraints[v] = (
            DIRICHLET, _winding_coeffs(t, Rt, theta[v], offset))
    return plan


def _ambient_phase_offset(field, t, Rt, near, theta, r_out, edge):
    """Azimuth offset of the solved field on the shell outside the tube,
    summed one shell vertex at a time."""
    frames_v, _ = field.vertex_frames()
    shell = np.nonzero((near >= r_out) & (near < r_out + edge)
                       & ~np.isnan(theta))[0]
    acc = 0.0 + 0.0j
    for v in shell:
        R = frames_v[v]
        for k in range(3):
            ap = R[:, k] - (R[:, k] @ t) * t
            if np.linalg.norm(ap) < 0.7:
                continue
            az = np.arctan2(ap @ Rt[:, 1], ap @ Rt[:, 0])
            acc += np.exp(4j * (az - theta[v]))
            break
    return float(np.angle(acc) / 4.0) if abs(acc) > 1e-12 else 0.0


def _winding_coeffs(t, Rt, theta, offset):
    """Frame coefficients of the quarter-index winding of phase ``theta``."""
    if np.isnan(theta):
        return fr.axisymmetric_coeffs(t)
    return fr.coeffs_from_rotation(
        fr.axis_angle_rotation(t * (theta + offset)) @ Rt)


def snap_35_curves(mesh, graph, exclude=()):
    """The snap assignments, rescanning the chains until no junction
    shared with a snapped chain adds one."""
    feature_verts = sorted(mesh.feature_vertex_set() | set(mesh.corners))
    if not feature_verts:
        feature_verts = mesh.boundary_vertices.tolist()
    fv = np.array(feature_verts)
    bv = mesh.boundary_vertices
    boundary_graph = _boundary_graph(mesh)
    exclude = set(int(v) for v in exclude)

    def endpoint_target(desc, point, taken=()):
        cand = fv if desc[0] == "boundary" else bv
        kind = "feature" if desc[0] == "boundary" else "surface"
        d = np.linalg.norm(mesh.vertices[cand] - point, axis=1)
        for k in np.argsort(d):
            v = int(cand[k])
            if v not in taken and v not in exclude:
                return (kind, v)
        return (kind, int(cand[int(np.argmin(d))]))

    to_snap = {c.chain_id: c for c in detect_35(graph)}
    snapped_junctions = set()
    done = {}
    changed = True
    while changed:
        changed = False
        for chain in graph.chains:
            if chain.chain_id in done or chain.closed:
                continue
            is_due = chain.chain_id in to_snap or any(
                desc[0] == "junction" and desc[1] in snapped_junctions
                for desc in (chain.endpoint_start, chain.endpoint_end))
            if not is_due:
                continue
            targets = {}
            for end, desc in (("start", chain.endpoint_start),
                              ("end", chain.endpoint_end)):
                point = chain.points[0] if end == "start" else chain.points[-1]
                taken = {t[1] for t in targets.values()}
                targets[end] = endpoint_target(desc, point, taken)
                if desc[0] == "junction":
                    snapped_junctions.add(desc[1])
            path = _dijkstra_path(boundary_graph, targets["start"][1],
                                  targets["end"][1])
            done[chain.chain_id] = SnapAssignment(chain.chain_id, targets, path)
            changed = True
    return [done[k] for k in sorted(done)]
