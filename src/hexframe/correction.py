"""Automated frame field corrections.

Three strategies repair non-meshable singularity structure: extruding
concave feature curves along interior frame directions, extruding
boundary singular nodes along their stable direction, and snapping 3-5
curves onto the boundary as new feature curves.  Each strategy produces a
CorrectionPlan, whose internal constraints are boundary-condition rows
keyed by vertex; applying a plan writes them onto a copy of the field's
set and recomputes the field.  A plan that detects a failure mode is marked
non-applicable and leaves the field untouched.
"""

import heapq

import numpy as np

from . import frames as fr
from ._csr import CSR
from .errors import NoBoundaryPath, NonApplicable, WedgeMismatch
from .mesh import row_dots
from .solver import (
    DIRICHLET,
    FREE,
    TANGENCY,
    assemble_stiffness,
    dirichlet_bc_on_curve,
    smooth_nonlinear,
    solve_initial,
)
from .singularities import extract_graph, detect_35, stable_direction
from .tracing import trace_lines

WEDGE_MARGIN = np.radians(15.0)
SHEAR_MERGE_ANGLE = np.radians(10.0)
MAX_SNAP_ROUNDS = 8


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
        # vertex -> (TANGENCY, unit direction), (DIRICHLET, 9 coefficients)
        # or (FREE, None)
        self.internal_constraints = {}
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
    ``i``-th vertex.

    Returns target_valence - 1 unit vectors; the signed axes are screened
    together against the two adjacent surface tangent rays with a 15 degree
    angular margin.
    """
    mesh = field.mesh
    v = curve.vertices[i]
    t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
    sides = _patch_side_directions(mesh, v, t)
    if len(sides) < 2:
        raise WedgeMismatch("curve %d vertex %d has %d adjacent patches"
                            % (curve.curve_id, v, len(sides)))
    # angular frame in the plane orthogonal to t, from the side ray r1
    e1 = sides[0]
    e2 = np.cross(t, e1)
    theta = np.radians(curve.dihedral_angle)
    # sweep from r1 through the material onto the side ray r2; the material
    # side is the one facing away from the summed patch normals (robust at
    # 180 deg, where ending on r2 does not fix the orientation)
    half = 0.5 * theta
    mid = np.cos(half) * e1 + np.sin(half) * e2
    sweep = 1.0 if mid @ mesh.vertex_normal_sums[v] <= 0 else -1.0
    frames, _ = field.vertex_frames()
    axes = frames[v].T
    # each axis off the tangent, then its negative
    axes = axes[np.abs(row_dots(axes, t[None])) < 0.5]
    u = np.repeat(axes, 2, axis=0) * np.tile([1.0, -1.0], len(axes))[:, None]
    w = u - row_dots(u, t[None])[:, None] * t
    w /= np.sqrt(row_dots(w, w))[:, None]
    ang = (sweep * np.arctan2(row_dots(w, e2[None]), row_dots(w, e1[None]))
           ) % (2 * np.pi)
    inside = (WEDGE_MARGIN < ang) & (ang < theta - WEDGE_MARGIN)
    expected = curve.target_valence - 1
    if inside.sum() != expected:
        raise WedgeMismatch(
            "curve %d at vertex %d: %d interior axes, expected %d"
            % (curve.curve_id, v, inside.sum(), expected))
    return list(w[inside][np.argsort(ang[inside])])


def _nearest_vertices(mesh, points):
    """Index of the mesh vertex nearest to each of ``points`` (k, 3)."""
    d = np.linalg.norm(mesh.vertices - np.asarray(points)[:, None, :], axis=2)
    return d.argmin(axis=1).tolist()


def _merge_constraint(plan, vertex, direction):
    """Register a tangency line at ``vertex``, merging near-duplicates.

    Directions within 10 degrees (as lines) merge; a larger disagreement on
    one vertex is the sheared-sheet failure mode.
    """
    if vertex in plan.internal_constraints:
        _, first = plan.internal_constraints[vertex]
        ang = np.degrees(np.arccos(min(1.0, abs(float(first @ direction)))))
        if ang > np.degrees(SHEAR_MERGE_ANGLE):
            plan.fail("sheared_sheet", vertex=vertex, angle=float(ang))
        return
    plan.internal_constraints[vertex] = (TANGENCY, direction)


def _take(plan, sl, **where):
    """Record the streamline ``sl`` (None for a seed outside the mesh), or
    return None after failing ``plan`` at ``where`` when the line cannot
    place constraints."""
    if sl is None:
        # a direction grazing a curved surface steps out
        plan.fail("streamline_left_surface", **where)
        return None
    plan.diagnostics["streamlines"].append(sl)
    if sl.termination == "HitSingularRegion":
        plan.fail("streamline_hit_singularity", **where)
        return None
    if sl.termination == "MaxLength":
        plan.fail("limit_cycle", **where)
        return None
    return sl


def _trace_all(plan, field, seeds, directions):
    """The streamlines of all ``seeds`` from one lockstep batch."""
    lines, batches = trace_lines(field, seeds, directions)
    plan.diagnostics["trace_batches"] = batches
    return lines


def _sheet_rows(field, surface, sl, t):
    """Rows of one sheet streamline: per sample after the seed, its nearest
    vertex, the unit line t x direction there, and whether the row pins the
    surface.  On the surface the line is taken into the tangent plane of a
    tangency row, and dropped elsewhere or where less than half is left."""
    w = np.asarray(_nearest_vertices(field.mesh, sl.points[1:]), dtype=np.int64)
    u = np.cross(t, sl.directions[1:])
    un = np.sqrt(row_dots(u, u))
    live = ~(un < 1e-9)
    w, u = w[live], u[live] / un[live, None]
    on = surface[w]
    pin = on & (field.bcs.kind[w] == TANGENCY)
    n = field.bcs.normals[w[pin]]
    u2 = u[pin] - row_dots(u[pin], n)[:, None] * n
    nn = np.sqrt(row_dots(u2, u2))
    u[pin] = u2 / np.maximum(nn, 0.5)[:, None]
    pin[pin] = ~(nn < 0.5)
    keep = ~on | pin
    return w[keep], u[keep], pin[keep]


def extrude_feature_curves(mesh, field):
    """Plan sheets swept from concave feature curves into the volume.

    One streamline per (curve vertex, interior direction); every streamline
    point constrains its nearest interior vertex to keep a frame axis along
    tangent x direction; where the sheet meets the surface the frame is
    pinned to (surface normal, tangency line).
    """
    plan = CorrectionPlan("extrude-curve")
    edge = mesh.mean_edge_length()
    # terminal vertices sitting on other feature geometry do not see a
    # curve's wedge; they are junctions, not samples
    two_patches = np.diff(mesh.vertex_patch_ptr) == 2
    # in curve order: a wedge failure, or a (vertex, tangent) per seed
    visits, seeds, directions = [], [], []
    for curve in mesh.feature_curves:
        if curve.target_valence < 2:
            continue
        for i, v in enumerate(curve.vertices):
            if not two_patches[v]:
                continue
            try:
                dirs = extrusion_directions(curve, field, i)
            except WedgeMismatch as exc:
                visits.append(dict(detail=str(exc), vertex=int(v)))
                continue
            t = curve.tangents[i] / np.linalg.norm(curve.tangents[i])
            for d in dirs:
                visits.append((int(v), t))
                seeds.append(mesh.vertices[v] + 1e-3 * edge * d)
                directions.append(d)
    lines = iter(_trace_all(plan, field, seeds, directions))
    surface = np.zeros(len(mesh.vertices), dtype=bool)
    surface[mesh.boundary_vertices] = True
    pinned = set()
    for visit in visits:
        if isinstance(visit, dict):
            plan.fail("wedge_mismatch", **visit)
            continue
        v, t = visit
        sl = _take(plan, next(lines), vertex=v)
        if sl is None:
            continue
        w, u, on = _sheet_rows(field, surface, sl, t)
        for wk, uk in zip(w.tolist(), u):
            _merge_constraint(plan, wk, uk)
        pinned.update(w[on].tolist())
    # pin the sheet where it meets the surface to (normal, tangency line),
    # else the singular legs reconnect through the last free layer
    pinned = sorted(pinned)
    n = field.bcs.normals[pinned]
    d = np.reshape([plan.internal_constraints[v][1] for v in pinned], (-1, 3))
    R = np.stack([n, d, np.cross(n, d)], axis=2)
    plan.internal_constraints.update(
        (v, (DIRICHLET, c)) for v, c in zip(pinned, fr.coeffs_from_rotation(R)))
    return plan


def extrude_singular_nodes(mesh, field, graph):
    """Plan replacement singular curves traced from 3-5 chain endpoints."""
    plan = CorrectionPlan("extrude-node")
    columns = []
    plan.diagnostics["columns"] = columns
    edge = mesh.mean_edge_length()
    ends, seeds, directions = [], [], []
    for chain in detect_35(graph):
        pts = chain.points
        # per end: its name, descriptor, valence, tip and outward tangent
        for end, desc, valence, seed, tangent in (
                ("start", chain.endpoint_start, chain.valence_start, pts[0],
                 pts[0] - pts[1]),
                ("end", chain.endpoint_end, chain.valence_end, pts[-1],
                 pts[-1] - pts[-2])):
            if desc[0] == "boundary":
                v0 = stable_direction(field, chain, end)
                seed = desc[1] + 1e-3 * edge * v0
            else:
                w = _nearest_vertices(mesh, [seed])[0]
                v0 = fr.closest_direction(tangent, field.vertex_frames()[0][w])
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
    # clamp a tube of wound frames around each traced curve: imposing the
    # quarter-turn winding (not just the axisymmetric value, which carries
    # no azimuth and cannot hold a winding against the smoother) pins a
    # singular line crossing tet interiors, where face holonomy sees it
    t, Rt, near, theta = _column_geometry(mesh, columns)
    r_out = 2.0 * edge
    offset = _ambient_phase_offset(field, t, Rt, near, theta, r_out, edge)
    plan.diagnostics["winding_offset"] = offset
    tube = np.flatnonzero(near < r_out)
    b = tube[np.isin(tube, mesh.boundary_vertices)]
    # feature vertices puncture the tube unless re-imposed; judge their
    # alignment by the summed patch normals
    n = mesh.vertex_normal_sums[b]
    n = n / np.maximum(np.sqrt(row_dots(n, n)), 1e-300)[:, None]
    tangency = field.bcs.kind[b] == TANGENCY
    n[tangency] = field.bcs.normals[b[tangency]]
    # pin the surface only where the curve meets it head-on
    tube = np.setdiff1d(tube, b[np.abs(row_dots(n, t[None])) < 0.7])
    phase = theta[tube] + offset
    axial = np.isnan(phase)
    rows = np.empty((len(tube), 9))
    # the azimuth degenerates on a column, where the frame is axisymmetric
    rows[axial] = fr.axisymmetric_coeffs(t)
    rows[~axial] = fr.coeffs_from_rotation(
        fr.axis_angle_rotation(t * phase[~axial, None]) @ Rt)
    plan.internal_constraints.update(
        (v, (DIRICHLET, c)) for v, c in zip(tube.tolist(), rows))
    return plan


def _ambient_phase_offset(field, t, Rt, near, theta, r_out, edge):
    """Azimuth offset aligning the imposed winding with the solved field.

    Sampled on a one-edge shell just outside the clamped tube, from each
    shell vertex's first frame axis at least 0.7 off the tube axis; without
    it the seam between clamped and free frames can exceed the 45 degree
    matching budget and shed spurious singular pairs.
    """
    frames_v, _ = field.vertex_frames()
    shell = np.flatnonzero((near >= r_out) & (near < r_out + edge)
                           & ~np.isnan(theta))
    R = frames_v[shell]
    ap = np.stack([R[:, :, k] - row_dots(R[:, :, k], t[None])[:, None] * t
                   for k in range(3)], axis=1)
    flat = ap.reshape(-1, 3)
    off_axis = ~(np.sqrt(row_dots(flat, flat)) < 0.7).reshape(-1, 3)
    found = off_axis.any(axis=1)
    ap = ap[found, off_axis[found].argmax(axis=1)]
    az = np.arctan2(row_dots(ap, Rt[None, :, 1]), row_dots(ap, Rt[None, :, 0]))
    # frame azimuths live modulo a quarter turn; summed in shell order
    acc = np.cumsum(np.r_[0j, np.exp(4j * (az - theta[shell[found]]))])[-1]
    return float(np.angle(acc) / 4.0) if abs(acc) > 1e-12 else 0.0


def _column_geometry(mesh, columns):
    """Common axis, base frame, and per vertex the distance to the column
    set and the superposed winding phase.

    Nearby columns of opposite index overlap, so each column's azimuthal
    angle about the common axis, seen from the column's nearest point, is
    summed; the phase is NaN on an axis, where the azimuth degenerates.
    """
    t = np.zeros(3)
    for col in columns:
        t += np.asarray(col["axis"], dtype=float)
    t /= max(np.linalg.norm(t), 1e-300)
    Rt = fr.rotation_to_axis(t)
    p = mesh.vertices
    tb, e1, e2 = (np.broadcast_to(a, p.shape) for a in (t, Rt[:, 0], Rt[:, 1]))
    near = np.full(len(p), np.inf)
    theta = np.zeros(len(p))
    on_axis = np.zeros(len(p), dtype=bool)
    for col in columns:
        pts = np.asarray(col["points"])
        d = np.linalg.norm(p[:, None, :] - pts[None, :, :], axis=2)
        k = d.argmin(axis=1)
        near = np.minimum(near, d[np.arange(len(p)), k])
        rv = p - pts[k]
        rp = rv - row_dots(rv, tb)[:, None] * t
        on_axis |= np.sqrt(row_dots(rp, rp)) < 1e-9
        theta += float(col["index"]) * np.arctan2(row_dots(rp, e2), row_dots(rp, e1))
    theta[on_axis] = np.nan
    return t, Rt, near, theta


# -- snapping ----------------------------------------------------------------

def _boundary_graph(mesh):
    """Symmetric CSR graph of the boundary edges, weighted by length."""
    u, v = mesh.boundary_edges.T
    d = mesh.vertices[u] - mesh.vertices[v]
    w = np.sqrt(row_dots(d, d))
    n = len(mesh.vertices)
    return CSR.from_coo(np.r_[w, w], np.r_[u, v], np.r_[v, u], (n, n))


def _boundary_dijkstra(graph, sources, limit=np.inf, target=None):
    """Shortest distances along ``graph`` from the nearest of ``sources``.

    Returns ``(dist, prev)``: the distance of each vertex reached within
    ``limit`` and the vertex before it on its path.  Vertices leave the
    heap in (distance, id) order, and a distance changes only on a path
    shorter by more than 1e-15, so ties go to the lower neighbour id.  The
    search ends when ``target`` leaves the heap.
    """
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.data.tolist()
    dist = dict.fromkeys(sources, 0.0)
    prev = {}
    heap = [(0.0, s) for s in dist]
    heapq.heapify(heap)
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
            if nd <= limit and nd < dist.get(w, np.inf) - 1e-15:
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    return dist, prev


def _dijkstra_path(graph, source, target):
    """Shortest boundary path; ties go to the lower neighbour id."""
    dist, prev = _boundary_dijkstra(graph, [source], target=target)
    if target not in dist:
        raise NoBoundaryPath("no boundary path %d -> %d" % (source, target))
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1]


def snap_35_curves(mesh, graph, exclude=()):
    """Boundary relocations (SnapAssignment list) for every 3-5 chain.

    The chains due are the open 3-5 chains and, to a fixed point, every
    open chain sharing a junction with a due chain; they snap in chain
    order.  Boundary endpoints snap to the nearest feature-curve vertex,
    interior endpoints to the nearest boundary vertex, the end never onto
    the start's vertex.  ``exclude`` removes vertices from target
    selection, which lets an outer loop push the snapped region outward
    when a chain survives on the edge of an already snapped band.
    """
    hubs = {c.chain_id: {d[1] for d in (c.endpoint_start, c.endpoint_end)
                         if d[0] == "junction"}
            for c in graph.chains if not c.closed}
    due = {c.chain_id for c in detect_35(graph)} & hubs.keys()
    size = -1
    while size != len(due):
        size = len(due)
        joined = set().union(*(hubs[k] for k in due))
        due |= {k for k, js in hubs.items() if js & joined}
    fv = np.array(sorted(mesh.feature_vertex_set() | set(mesh.corners)))
    if not len(fv):
        fv = mesh.boundary_vertices
    bv = mesh.boundary_vertices
    boundary_graph = _boundary_graph(mesh)
    exclude = set(int(v) for v in exclude)

    def target(desc, point, taken=None):
        kind, cand = ("feature", fv) if desc[0] == "boundary" else ("surface", bv)
        d = np.linalg.norm(mesh.vertices[cand] - point, axis=1)
        # the two extremities must stay distinct vertices, else the snapped
        # path degenerates to a point with no tangent
        free = (v for v in cand[np.argsort(d)].tolist()
                if v != taken and v not in exclude)
        return (kind, next(free, int(cand[int(np.argmin(d))])))

    snapped = []
    for chain in graph.chains:
        if chain.chain_id in due:
            start = target(chain.endpoint_start, chain.points[0])
            end = target(chain.endpoint_end, chain.points[-1], start[1])
            snapped.append(SnapAssignment(
                chain.chain_id, {"start": start, "end": end},
                _dijkstra_path(boundary_graph, start[1], end[1])))
    return snapped


def snap_until_clean(mesh, field, graph=None, solver_config=None):
    """Iterate boundary snapping until no 3-5 chain remains.

    Releasing constraints can spawn fresh 3-5 chains near the snapped
    region; those are snapped in turn, accumulating all paths in a single
    plan applied to the original field.  Each round rewrites the plan's
    rows from every path so far, since curve splits and released
    tangency depend on all of them.  A round whose paths all lie on
    already snapped vertices re-targets once with those vertices
    excluded, widening the snapped band until the chain dies.  The loop
    ends on a round that adds no vertex, as a round with no 3-5 chain
    left does.  Every re-solve runs under ``solver_config``, by default
    the field's own.  Returns (plan, corrected field) as of the round
    with the fewest 3-5 chains, the earliest on ties, whose index is
    plan.diagnostics["best_round"] (None, and the input field, when no
    round ran); its graph sits in plan.diagnostics["graph"], and
    plan.diagnostics["rounds"] holds per round its new paths, the plan's
    rows and the 3-5 chains left.  When no round ran but 3-5 chains
    remain, the plan fails with reason "closed_chains_35".
    """
    combined = CorrectionPlan("snap")
    combined.diagnostics["graph"] = graph if graph is not None else extract_graph(field)
    rounds = combined.diagnostics["rounds"] = []
    best, kept = None, (field, combined.diagnostics["graph"], [], {})
    covered = set()
    for _ in range(MAX_SNAP_ROUNDS):
        graph = combined.diagnostics["graph"]
        snapped = snap_35_curves(mesh, graph)
        if snapped and {v for a in snapped for v in a.path} <= covered:
            snapped = snap_35_curves(mesh, graph, exclude=covered)
        new = {v for a in snapped for v in a.path} - covered
        if not new:
            break
        covered |= new
        combined.snapped.extend(snapped)
        combined.internal_constraints = snapped_rows(mesh, field.bcs, combined.snapped)
        corrected = apply_plan(mesh, field, combined, solver_config)
        left = len(detect_35(combined.diagnostics["graph"]))
        rounds.append(dict(paths=len(snapped), rows=len(combined.internal_constraints),
                           chains_35=left))
        if best is None or left < rounds[best]["chains_35"]:
            best = len(rounds) - 1
            kept = (corrected, combined.diagnostics["graph"],
                    list(combined.snapped), combined.internal_constraints)
    combined.diagnostics["best_round"] = best
    corrected, combined.diagnostics["graph"], combined.snapped, \
        combined.internal_constraints = kept
    closed = [] if rounds else detect_35(combined.diagnostics["graph"])
    if closed:
        # every 3-5 chain left is closed, with no ends to snap
        combined.fail("closed_chains_35", chains=len(closed))
    return combined, corrected


def _path_frames(mesh, path):
    """Dirichlet coefficients along a snapped path: the proper rotations
    (t, (n + b)/sqrt2, (b - n)/sqrt2), b = t x n, of the path tangent t and
    the summed patch normals n made orthogonal to it."""
    path = np.asarray(path, dtype=np.int64)
    p = mesh.vertices
    t = p[np.r_[path[1:], path[-1]]] - p[np.r_[path[0], path[:-1]]]
    nt = np.sqrt(row_dots(t, t))
    n = mesh.vertex_normal_sums[path]
    nn = np.sqrt(row_dots(n, n))
    for norm, what in ((nt, "degenerate snapped path"), (nn, "no surface normal")):
        if (norm < 1e-12).any():
            raise ValueError("%s at vertex %d"
                             % (what, path[np.argmax(norm < 1e-12)]))
    t /= nt[:, None]
    n = n / nn[:, None]
    n = n - row_dots(n, t)[:, None] * t
    n /= np.sqrt(row_dots(n, n))[:, None]
    b = np.cross(t, n)
    R = np.stack([t, (n + b) / np.sqrt(2.0), (b - n) / np.sqrt(2.0)], axis=2)
    return dict(zip(path.tolist(), fr.frame_coeffs(R)))


def snapped_rows(mesh, bcs, snapped):
    """Boundary-condition rows realizing snapped paths as feature curves.

    Snapped paths get 45-degree rotated Dirichlet frames; feature curves
    receiving a snapped endpoint are split there with interpolated values;
    tangency rows of the base set ``bcs`` within 3 mean edge lengths of a
    path, measured along the boundary, are released (FREE).
    """
    if not snapped:
        return {}
    path_set = {v for assign in snapped for v in assign.path}
    targets = {v for assign in snapped
               for kind, v in assign.targets.values() if kind == "feature"}
    path_coeffs = {}
    for assign in snapped:
        path_coeffs.update(_path_frames(mesh, assign.path))

    # split feature curves at snapped endpoints; interpolate the sub-curves
    split = {}
    for curve in mesh.feature_curves:
        verts = curve.vertices
        cuts = sorted(verts.index(v) for v in targets.intersection(verts))
        if not cuts:
            continue
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
                if v not in path_set:
                    split[v] = (1.0 - s) * ca + s * cb
    values = np.reshape(list(split.values()), (-1, 9))
    path_coeffs.update(zip(split, fr.project_to_octahedral(values)[1]))
    rows = {v: (DIRICHLET, c) for v, c in path_coeffs.items()}

    # release boundary alignment near the snapped paths
    near, _ = _boundary_dijkstra(_boundary_graph(mesh), sorted(path_set),
                                 limit=3.0 * mesh.mean_edge_length())
    for v in sorted(near):
        if bcs.kind[v] == TANGENCY:
            # a path vertex keeps its Dirichlet row
            rows.setdefault(v, (FREE, None))
    return rows


def apply_plan(mesh, field, plan, solver_config=None):
    """Re-solve the field under the plan's constraints.

    The plan's rows are written onto a copy of ``field.bcs``; the re-solve
    runs under ``solver_config``, by default the field's own.  Raises
    NonApplicable for failed plans; otherwise returns the corrected field
    with its singularity graph in ``plan.diagnostics["graph"]``.
    """
    if not plan.applicable:
        raise NonApplicable("plan %s is not applicable" % plan.strategy,
                            diagnostics=plan.diagnostics)
    config = solver_config or field.config
    bcs = field.bcs.copy()
    for v, (kind, payload) in plan.internal_constraints.items():
        if kind == TANGENCY:
            bcs.set_tangency(v, payload)
        elif kind == DIRICHLET:
            bcs.set_dirichlet(v, payload)
        else:
            bcs.set_free(v)
    K = assemble_stiffness(mesh)
    out = smooth_nonlinear(solve_initial(mesh, bcs, config, K=K), config, K=K)
    plan.diagnostics["graph"] = extract_graph(out)
    return out
