"""Automated frame field corrections.

Three strategies repair non-meshable singularity structure: extruding
concave feature curves along interior frame directions, extruding
boundary singular nodes along their stable direction, and snapping 3-5
curves onto the boundary as new feature curves.  Each strategy produces a
CorrectionPlan; applying a plan rebuilds the constraint set and recomputes
the field.  A plan that detects a failure mode is marked non-applicable
and leaves the field untouched.
"""

import heapq

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from . import frames as fr
from .errors import NoBoundaryPath, NonApplicable, SeedOutside, WedgeMismatch
from .mesh import row_dots
from .solver import (
    TANGENCY,
    SolverConfig,
    apply_internal_constraints,
    build_boundary_conditions,
    dirichlet_bc_on_curve,
    smooth_nonlinear,
    solve_initial,
)
from .singularities import extract_graph, detect_35, stable_direction
from .tracing import TracerConfig, trace

WEDGE_MARGIN = np.radians(15.0)
SHEAR_MERGE_ANGLE = np.radians(10.0)


class SnapAssignment:
    """Boundary relocation of one chain: snapped endpoint targets + path."""

    def __init__(self, chain_id, targets, path):
        self.chain_id = chain_id
        self.targets = targets      # {"start"/"end": ("feature"|"surface", vertex)}
        self.path = path            # boundary vertex ids, connected edge path

    def __repr__(self):
        return "SnapAssignment(chain=%d, path=%d verts)" % (
            self.chain_id, len(self.path))


class CorrectionPlan:
    def __init__(self, strategy):
        self.strategy = strategy
        self.internal_constraints = []   # (vertex, kind, payload)
        self.snapped = []                # SnapAssignment list
        self.diagnostics = {"streamlines": [], "failures": []}
        self.applicable = True

    def fail(self, reason, **info):
        self.applicable = False
        self.diagnostics["failures"].append(dict(reason=reason, **info))

    def __repr__(self):
        return "CorrectionPlan(%s, constraints=%d, snapped=%d, applicable=%s)" % (
            self.strategy, len(self.internal_constraints), len(self.snapped),
            self.applicable)


def _curve_vertex_near(curve, mesh, point):
    d = np.linalg.norm(mesh.vertices[curve.vertices] - point, axis=1)
    return int(np.argmin(d))


def _patch_side_directions(mesh, v, t):
    """Unit directions into each adjacent surface patch, orthogonal to t."""
    out = []
    p = mesh.vertices[v]
    tri_patches = {}
    for ti in np.nonzero((mesh.boundary_tris == v).any(axis=1))[0]:
        pid = mesh.boundary_patch_ids[ti]
        tri_patches.setdefault(pid, []).append(ti)
    for pid in sorted(tri_patches):
        cent = mesh.vertices[mesh.boundary_tris[tri_patches[pid]]].mean(axis=(0, 1))
        d = cent - p
        d = d - (d @ t) * t
        n = np.linalg.norm(d)
        if n > 1e-12:
            out.append((pid, d / n))
    return out


def extrusion_directions(curve, field, sample):
    """Frame axes pointing strictly into the material wedge at a curve point.

    Returns target_valence - 1 unit vectors; the axes are screened against
    the two adjacent surface tangent rays with a 15 degree angular margin.
    """
    mesh = field.mesh
    i = _curve_vertex_near(curve, mesh, np.asarray(sample, dtype=float))
    v = curve.vertices[i]
    t = np.asarray(curve.tangents[i], dtype=float)
    t /= np.linalg.norm(t)
    sides = _patch_side_directions(mesh, v, t)
    if len(sides) < 2:
        raise WedgeMismatch("curve %d vertex %d has %d adjacent patches"
                            % (curve.curve_id, v, len(sides)))
    r1, r2 = sides[0][1], sides[1][1]
    # angular frame in the plane orthogonal to t
    e1 = r1
    e2 = np.cross(t, e1)
    theta = np.radians(curve.dihedral_angle)
    # sweep from r1 through the material onto r2; the material side is the
    # one facing away from the outward surface normals (robust at 180 deg,
    # where ending on r2 does not fix the orientation)
    tri_ids = np.nonzero((mesh.boundary_tris == v).any(axis=1))[0]
    n_out = mesh.boundary_tri_normals()[tri_ids].mean(axis=0)
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


def _nearest_vertex(mesh, point):
    return int(np.argmin(np.linalg.norm(mesh.vertices - point, axis=1)))


def _merge_constraint(plan, table, vertex, kind, payload):
    """Register a constraint, merging near-duplicates.

    Directions within 10 degrees (as lines) merge; a larger disagreement on
    one vertex is the sheared-sheet failure mode.
    """
    if vertex in table:
        pk, pp = table[vertex]
        if pk != kind:
            plan.fail("constraint_kind_conflict", vertex=vertex)
            return
        if kind == "tangency_dir":
            ang = np.degrees(np.arccos(min(1.0, abs(float(pp @ payload)))))
        else:
            ang = np.degrees(np.arccos(np.clip(
                float(pp @ payload) / (np.linalg.norm(pp) * np.linalg.norm(payload)),
                -1.0, 1.0)))
        if ang > np.degrees(SHEAR_MERGE_ANGLE):
            plan.fail("sheared_sheet", vertex=vertex, angle=float(ang))
        return
    table[vertex] = (kind, np.asarray(payload, dtype=float))
    plan.internal_constraints.append((vertex, kind, np.asarray(payload, float)))


def extrude_feature_curves(mesh, field, curves=None, tracer_config=None):
    """Plan sheets swept from concave feature curves into the volume.

    One streamline per (curve vertex, interior direction); every streamline
    point constrains its nearest interior vertex to keep a frame axis along
    tangent x direction.
    """
    plan = CorrectionPlan("extrude-curve")
    tracer_config = tracer_config or TracerConfig()
    if curves is None:
        curves = [c for c in mesh.feature_curves if c.target_valence >= 2]
    table = {}
    sheet_boundary = {}      # boundary vertex -> its surface normal
    boundary = set(mesh.boundary_vertices)
    edge = mesh.mean_edge_length()
    for curve in curves:
        if curve.target_valence < 2:
            continue
        for i, v in enumerate(curve.vertices):
            p = mesh.vertices[v]
            t = np.asarray(curve.tangents[i], float)
            t /= np.linalg.norm(t)
            # terminal vertices sitting on other feature geometry do not see
            # this curve's wedge; they are junctions, not samples
            if len(_patch_side_directions(mesh, v, t)) != 2:
                continue
            try:
                dirs = extrusion_directions(curve, field, p)
            except WedgeMismatch as exc:
                plan.fail("wedge_mismatch", detail=str(exc), vertex=int(v))
                continue
            for d in dirs:
                seed = p + 1e-3 * edge * d
                try:
                    sl = trace(field, seed, d, tracer_config)
                except SeedOutside:
                    # a wedge direction grazing a curved surface steps out
                    plan.fail("streamline_left_surface", vertex=int(v))
                    continue
                plan.diagnostics["streamlines"].append(sl)
                if sl.termination == "HitSingularRegion":
                    plan.fail("streamline_hit_singularity", seed=tuple(p))
                    continue
                if sl.termination == "MaxLength":
                    plan.fail("limit_cycle", seed=tuple(p))
                    continue
                for pk, vk in zip(sl.points[1:], sl.directions[1:]):
                    u = np.cross(t, vk)
                    un = np.linalg.norm(u)
                    if un < 1e-9:
                        continue
                    u = u / un
                    w = _nearest_vertex(mesh, pk)
                    if w in boundary:
                        # pin the sheet where it meets the surface, else the
                        # singular legs reconnect through the last free layer
                        if field.bcs.kind[w] != TANGENCY:
                            continue
                        n = field.bcs.normals[w]
                        u2 = u - (u @ n) * n
                        nn = np.linalg.norm(u2)
                        if nn < 0.5:
                            continue
                        _merge_constraint(plan, table, w, "tangency_dir",
                                          u2 / nn)
                        sheet_boundary[w] = n
                    else:
                        _merge_constraint(plan, table, w, "tangency_dir", u)
    constraints = []
    for v, kind, payload in plan.internal_constraints:
        n = sheet_boundary.get(v)
        if n is None:
            constraints.append((v, kind, payload))
            continue
        R = np.column_stack([n, payload, np.cross(n, payload)])
        constraints.append((v, "dirichlet_coeffs", fr.coeffs_from_rotation(R)))
    plan.internal_constraints = constraints
    return plan


def extrude_singular_nodes(mesh, field, graph, tracer_config=None):
    """Plan replacement singular curves traced from 3-5 chain endpoints."""
    plan = CorrectionPlan("extrude-node")
    tracer_config = tracer_config or TracerConfig()
    columns = []
    plan.diagnostics["columns"] = columns
    edge = mesh.mean_edge_length()
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
                frames, _ = field.vertex_frames()
                w = _nearest_vertex(mesh, pts[-1] if end == "end" else pts[0])
                v0 = fr.closest_direction(tangent, frames[w])
                seed = (pts[-1] if end == "end" else pts[0])
            try:
                sl = trace(field, seed, v0, tracer_config)
            except SeedOutside:
                plan.fail("streamline_left_surface",
                          chain=chain.chain_id, end=end)
                continue
            plan.diagnostics["streamlines"].append(sl)
            if sl.termination == "HitSingularRegion":
                plan.fail("streamline_hit_singularity",
                          chain=chain.chain_id, end=end)
                continue
            if sl.termination == "MaxLength":
                plan.fail("limit_cycle", chain=chain.chain_id, end=end)
                continue
            axis = sl.points[-1] - sl.points[0]
            axis /= max(np.linalg.norm(axis), 1e-300)
            columns.append(dict(points=np.asarray(sl.points), axis=axis,
                                index=(4 - valence) / 4.0))
    if not plan.applicable or not columns:
        return plan
    # clamp a tube of wound frames around each traced curve: imposing the
    # quarter-turn winding (not just the axisymmetric value, which carries
    # no azimuth and cannot hold a winding against the smoother) pins a
    # singular line crossing tet interiors, where face holonomy sees it
    table = {}
    boundary = set(mesh.boundary_vertices)
    t, Rt, near = _column_geometry(mesh, columns)
    r_out = 2.0 * edge
    offset = _ambient_phase_offset(mesh, field, columns, t, Rt, near, r_out, edge)
    plan.diagnostics["winding_offset"] = offset
    for v in np.nonzero(near < r_out)[0]:
        v = int(v)
        if v in boundary:
            if field.bcs.kind[v] == TANGENCY:
                n = field.bcs.normals[v]
            else:
                # feature vertices puncture the tube unless re-imposed;
                # judge alignment by the averaged surface normal instead
                try:
                    n = _vertex_normal(mesh, v)
                except ValueError:
                    continue
            # pin the surface only where the curve meets it head-on
            if abs(float(n @ t)) < 0.7:
                continue
        _merge_constraint(plan, table, v, "dirichlet_coeffs",
                          _winding_coeffs(mesh, columns, t, Rt, v, offset))
    return plan


def _ambient_phase_offset(mesh, field, columns, t, Rt, near, r_out, edge):
    """Azimuth offset aligning the imposed winding with the solved field.

    Sampled on a one-edge shell just outside the clamped tube; without it
    the seam between clamped and free frames can exceed the 45 degree
    matching budget and shed spurious singular pairs.
    """
    frames_v, _ = field.vertex_frames()
    shell = np.nonzero((near >= r_out)
                       & (near < r_out + edge))[0]
    acc = 0.0 + 0.0j
    for v in shell:
        theta = _winding_phase(mesh, columns, t, Rt, int(v))
        if theta is None:
            continue
        R = frames_v[int(v)]
        for k in range(3):
            ap = R[:, k] - (R[:, k] @ t) * t
            if np.linalg.norm(ap) < 0.7:
                continue
            az = np.arctan2(ap @ Rt[:, 1], ap @ Rt[:, 0])
            # frame azimuths live modulo a quarter turn
            acc += np.exp(4j * (az - theta))
            break
    return float(np.angle(acc) / 4.0) if abs(acc) > 1e-12 else 0.0


def _column_geometry(mesh, columns):
    """Common axis, base frame and per-vertex distance to the column set."""
    t = np.zeros(3)
    for col in columns:
        t += np.asarray(col["axis"], dtype=float)
    t /= max(np.linalg.norm(t), 1e-300)
    Rt = fr.rotation_to_axis(t)
    near = np.full(len(mesh.vertices), np.inf)
    for col in columns:
        pts = np.asarray(col["points"])
        d = np.linalg.norm(
            mesh.vertices[:, None, :] - pts[None, :, :], axis=2).min(axis=1)
        near = np.minimum(near, d)
    return t, Rt, near


def _winding_phase(mesh, columns, t, Rt, v):
    """Superposed azimuthal angle of all columns at vertex ``v``.

    Nearby columns of opposite index overlap, so their angles are summed
    about the common axis; returns None on the axis itself, where the
    azimuth degenerates.
    """
    e1, e2 = Rt[:, 0], Rt[:, 1]
    theta = 0.0
    for col in columns:
        pts = np.asarray(col["points"])
        rv = mesh.vertices[v] - pts[np.argmin(
            np.linalg.norm(pts - mesh.vertices[v], axis=1))]
        rp = rv - (rv @ t) * t
        if np.linalg.norm(rp) < 1e-9:
            return None
        theta += float(col["index"]) * np.arctan2(rp @ e2, rp @ e1)
    return theta


def _winding_coeffs(mesh, columns, t, Rt, v, offset=0.0):
    """Frame coefficients of the quarter-index winding at vertex ``v``."""
    theta = _winding_phase(mesh, columns, t, Rt, v)
    if theta is None:
        return fr.axisymmetric_coeffs(t)
    return fr.coeffs_from_rotation(
        fr.axis_angle_rotation(t * (theta + offset)) @ Rt)


# -- snapping ----------------------------------------------------------------

def _boundary_graph(mesh):
    """Symmetric CSR graph of the boundary edges, weighted by length."""
    u, v = mesh.boundary_edges.T
    d = mesh.vertices[u] - mesh.vertices[v]
    w = np.sqrt(row_dots(d, d))
    n = len(mesh.vertices)
    return csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])), shape=(n, n))


def _dijkstra_path(graph, source, target):
    """Shortest boundary path; ties go to the lower neighbour id."""
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.data.tolist()
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        if u == target:
            break
        seen.add(u)
        for k in range(indptr[u], indptr[u + 1]):
            w = indices[k]
            nd = d + weights[k]
            if nd < dist.get(w, np.inf) - 1e-15:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    if target not in dist:
        raise NoBoundaryPath("no boundary path %d -> %d" % (source, target))
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1]


def snap_35_curves(mesh, field, graph, exclude=()):
    """Plan boundary relocations for every 3-5 chain.

    Boundary endpoints snap to the nearest feature-curve vertex, interior
    endpoints to the nearest boundary vertex; chains sharing a junction
    with a snapped chain are snapped as well (iterated to a fixed point).
    ``exclude`` removes vertices from target selection, which lets an
    outer loop push the snapped region outward when a chain survives on
    the edge of an already snapped band.
    """
    plan = CorrectionPlan("snap")
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
        # the two extremities must stay distinct vertices, else the snapped
        # path degenerates to a point with no tangent
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
    plan.snapped = [done[k] for k in sorted(done)]
    return plan


def snap_until_clean(mesh, field, graph=None, solver_config=None,
                     snap_radius=None, max_rounds=8):
    """Iterate boundary snapping until no 3-5 chain remains.

    Releasing constraints can spawn fresh 3-5 chains near the snapped
    region; those are snapped in turn, accumulating all paths in a single
    plan applied to the original field.  A surviving chain that keeps
    mapping onto already snapped vertices is re-targeted with those
    vertices excluded, widening the snapped band until the chain dies.
    Returns (plan, corrected field); the final graph sits in
    plan.diagnostics["graph"].
    """
    if graph is None:
        graph = extract_graph(field)
    combined = CorrectionPlan("snap")
    current_field, current_graph = field, graph
    corrected = field
    covered = set()
    for _ in range(max_rounds):
        plan = snap_35_curves(mesh, current_field, current_graph)
        new = {v for a in plan.snapped for v in a.path} - covered
        if plan.snapped and not new:
            plan = snap_35_curves(mesh, current_field, current_graph,
                                  exclude=covered)
            new = {v for a in plan.snapped for v in a.path} - covered
            if not new:
                break
        if not plan.snapped:
            break
        covered |= new
        combined.snapped.extend(plan.snapped)
        corrected = apply_plan(mesh, field, combined, solver_config,
                               snap_radius=snap_radius)
        current_field = corrected
        current_graph = combined.diagnostics["graph"]
        if not detect_35(current_graph):
            break
    combined.diagnostics.setdefault("graph", current_graph)
    return combined, corrected


def _vertex_normal(mesh, v):
    acc = np.zeros(3)
    for _, n in mesh.patch_normal(v):
        acc += n
    nn = np.linalg.norm(acc)
    if nn < 1e-12:
        raise ValueError("no surface normal at vertex %d" % v)
    return acc / nn


def _path_frames(mesh, path):
    """Dirichlet coefficients along a snapped path: 45-degree rotated frames."""
    p = mesh.vertices
    out = {}
    for i, v in enumerate(path):
        lo = path[max(i - 1, 0)]
        hi = path[min(i + 1, len(path) - 1)]
        t = p[hi] - p[lo]
        nt = np.linalg.norm(t)
        if nt < 1e-12:
            raise ValueError("degenerate snapped path at vertex %d" % v)
        t /= nt
        n = _vertex_normal(mesh, v)
        n = n - (n @ t) * t
        n /= np.linalg.norm(n)
        b = np.cross(t, n)
        R = np.column_stack([t, (n + b) / np.sqrt(2.0), (n - b) / np.sqrt(2.0)])
        if np.linalg.det(R) < 0:
            # axis signs are free within a frame; keep a proper rotation
            R[:, 2] = -R[:, 2]
        out[v] = fr.coeffs_from_rotation(R)
    return out


def build_snapped_bcs(mesh, plan, radius=None):
    """Boundary conditions realizing the snapped curves as features.

    Snapped paths get 45-degree rotated Dirichlet frames; feature curves
    receiving a snapped endpoint are split there with interpolated values;
    tangency constraints within ``radius`` (default 3 mean edge lengths)
    of a path are released.
    """
    bcs = build_boundary_conditions(mesh)
    if not plan.snapped:
        return bcs
    path_vertices = []
    split_points = {}            # curve_id -> set of split vertex positions
    for assign in plan.snapped:
        path_vertices.extend(assign.path)
        for end in ("start", "end"):
            kind, v = assign.targets[end]
            if kind != "feature":
                continue
            for curve in mesh.feature_curves:
                if v in curve.vertices:
                    split_points.setdefault(curve.curve_id, set()).add(v)
    path_set = set(path_vertices)
    path_coeffs = {}
    for assign in plan.snapped:
        path_coeffs.update(_path_frames(mesh, assign.path))

    # split feature curves at snapped endpoints; interpolate the sub-curves
    for curve in mesh.feature_curves:
        splits = split_points.get(curve.curve_id)
        if not splits:
            continue
        verts = list(curve.vertices)
        cuts = sorted(verts.index(v) for v in splits if v in verts)
        bounds = [0] + cuts + [len(verts) - 1]
        original = dirichlet_bc_on_curve(curve, mesh)
        p = mesh.vertices
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= lo:
                continue
            va, vb = verts[lo], verts[hi]
            ca = path_coeffs.get(va, original.get(va))
            cb = path_coeffs.get(vb, original.get(vb))
            if ca is None or cb is None:
                continue
            seg = verts[lo:hi + 1]
            arc = np.concatenate(
                [[0.0], np.cumsum(np.linalg.norm(np.diff(p[seg], axis=0), axis=1))])
            arc /= max(arc[-1], 1e-300)
            for s, v in zip(arc, seg):
                if v in path_set:
                    continue
                c = (1.0 - s) * ca + s * cb
                bcs.set_dirichlet(v, fr.project_to_octahedral(c)[1])

    for v, c in path_coeffs.items():
        bcs.set_dirichlet(v, c)

    # release boundary alignment near the snapped paths
    r = 3.0 * mesh.mean_edge_length() if radius is None else float(radius)
    dist = dijkstra(_boundary_graph(mesh), indices=sorted(path_set),
                    min_only=True, limit=r)
    # the paths themselves are Dirichlet by now
    for v in np.nonzero(np.isfinite(dist) & (bcs.kind == TANGENCY))[0]:
        bcs.set_free(v)
    return bcs


def apply_plan(mesh, field, plan, solver_config=None, snap_radius=None):
    """Re-solve the field under the plan's constraints.

    Raises NonApplicable for failed plans; otherwise returns the corrected
    field with its singularity graph in ``plan.diagnostics["graph"]``.
    """
    if not plan.applicable:
        raise NonApplicable("plan %s is not applicable" % plan.strategy,
                            diagnostics=plan.diagnostics)
    config = solver_config or SolverConfig()
    if plan.strategy == "snap":
        bcs = build_snapped_bcs(mesh, plan, radius=snap_radius)
    else:
        bcs = field.bcs
    bcs = apply_internal_constraints(bcs, plan.internal_constraints)
    out = smooth_nonlinear(solve_initial(mesh, bcs, config), config)
    plan.diagnostics["graph"] = extract_graph(out)
    return out
