"""Boundary-aligned smooth frame field solver.

Minimizes the Dirichlet energy of the 9 coefficient channels with full
(Dirichlet) constraints on feature curves and corners, tangency constraints
on smooth patches, followed by projected nonlinear Gauss-Seidel smoothing
toward the frame manifold.
"""

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from ._csr import CSR, row_offsets
from .errors import CGDiverged, DegenerateTangent, Unconstrained
from .mesh import pair_keys, row_dots

TANGENCY_RADIUS = np.sqrt(5.0 / 12.0)
# relative CG residual; CG stops after 10 iterations per unknown
CG_TOLERANCE = 1e-8


@dataclass
class SolverConfig:
    smoothing_sweeps: int = 50
    projection_relaxation: float = 0.95
    convergence_delta: float = 1e-6


FREE, DIRICHLET, TANGENCY = 0, 1, 2


class BoundaryConditionSet:
    """Per-vertex constraint kind (FREE, DIRICHLET or TANGENCY) with the
    Dirichlet coefficients and tangency unit normals; rows of the other
    kinds are zero."""

    def __init__(self, n):
        self.kind = np.zeros(n, dtype=np.int8)
        self.coeffs = np.zeros((n, 9))
        self.normals = np.zeros((n, 3))

    def copy(self):
        out = BoundaryConditionSet(0)
        out.kind = self.kind.copy()
        out.coeffs = self.coeffs.copy()
        out.normals = self.normals.copy()
        return out

    def set_dirichlet(self, vertex, coeffs):
        self.set_free(vertex)
        self.kind[vertex] = DIRICHLET
        self.coeffs[vertex] = coeffs

    def set_tangency(self, vertex, normal):
        self.set_free(vertex)
        n = np.asarray(normal, dtype=float)
        self.kind[vertex] = TANGENCY
        self.normals[vertex] = n / np.linalg.norm(n)

    def set_free(self, vertex):
        self.kind[vertex] = FREE
        self.coeffs[vertex] = 0.0
        self.normals[vertex] = 0.0


def dirichlet_bc_on_curve(curve, mesh):
    """Frame coefficients along a feature curve.

    At each curve vertex the frame has one axis along the curve tangent and
    a second axis along the adjacent-patch normal direction (orthonormalized
    against the tangent): the mean of the vertex's patch normals on a
    valence-2 curve, its first patch normal on any other.  Returns
    {vertex: 9-vector}; a vertex the curve lists twice keeps its last frame.
    """
    verts, coeffs, _ = _curve_frames(mesh, [curve])
    return dict(zip(verts.tolist(), coeffs))


def _curve_frames(mesh, curves):
    """The frames ``dirichlet_bc_on_curve`` gives the vertices of
    ``curves``, one row per listed vertex in curve order: the vertices, their
    9 coefficients and the index of each row's curve in ``curves``.  A
    vertex on no patch has no row."""
    verts = np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [np.asarray(c.vertices, dtype=np.int64) for c in curves])
    t = np.concatenate([np.zeros((0, 3))] + [c.tangents for c in curves])
    curve = np.repeat(np.arange(len(curves)), [len(c.vertices) for c in curves])
    tn = np.sqrt(row_dots(t, t))
    # a NaN tangent fails the test too
    short = ~(tn >= 1e-9)
    if short.any():
        k = int(np.argmax(short))
        raise DegenerateTangent("curve %d vertex %d" % (curves[curve[k]].curve_id,
                                                         verts[k]))
    ptr = mesh.vertex_patch_ptr
    count = ptr[verts + 1] - ptr[verts]
    keep = count > 0
    verts, count, curve = verts[keep], count[keep], curve[keep]
    t = t[keep] / tn[keep, None]
    mean = np.array([c.target_valence == 2 for c in curves], dtype=bool)[curve]
    n = np.where(mean[:, None], mesh.vertex_normal_sums[verts] / count[:, None],
                 mesh.vertex_patch_normals[ptr[verts]])
    a2 = n - row_dots(n, t)[:, None] * t
    # where the tangent is parallel to the normal, any orthogonal axis
    e = np.eye(3)[np.argmin(np.abs(t), axis=1)]
    a2 = np.where((np.sqrt(row_dots(a2, a2)) < 1e-9)[:, None],
                  e - row_dots(e, t)[:, None] * t, a2)
    a2 /= np.sqrt(row_dots(a2, a2))[:, None]
    R = np.stack([a2, np.cross(t, a2), t], axis=2)
    return verts, fr.frame_coeffs(R), curve


def build_boundary_conditions(mesh):
    """Standard BC set: Dirichlet on feature curves and corners, tangency
    on smooth-patch vertices.  A corner takes the projected mean of its
    curves' frames; every vertex on two curves is a corner."""
    nv = len(mesh.vertices)
    bcs = BoundaryConditionSet(nv)
    corner = np.zeros(nv, dtype=bool)
    corner[mesh.corners] = True
    verts, coeffs, curve = _curve_frames(mesh, mesh.feature_curves)
    # each vertex's last row, and at a corner each curve's last row: a curve
    # keeps the last frame of a vertex it lists twice, and elsewhere a later
    # curve's frame replaces an earlier one
    at = corner[verts]
    key = pair_keys(np.where(at, curve + 1, 0), verts, nv)
    _, back = np.unique(key[::-1], return_index=True)
    rows = np.sort(len(key) - 1 - back)
    verts, coeffs, at = verts[rows], coeffs[rows], at[rows]
    bcs.kind[verts] = DIRICHLET
    bcs.coeffs[verts[~at]] = coeffs[~at]
    # a corner's frames added one after the other in curve order, as
    # np.mean adds them
    corners, slot, count = np.unique(verts[at], return_inverse=True,
                                     return_counts=True)
    total = np.zeros((len(corners), 9))
    np.add.at(total, slot, coeffs[at])
    bcs.coeffs[corners] = fr.project_to_octahedral(total / count[:, None])[1]
    # the other boundary vertices are tangent to their last patch's normal
    ptr = mesh.vertex_patch_ptr
    tang = (ptr[1:] > ptr[:-1]) & (bcs.kind != DIRICHLET) & ~corner
    n = mesh.vertex_patch_normals[ptr[1:][tang] - 1]
    bcs.kind[tang] = TANGENCY
    bcs.normals[tang] = n / np.sqrt(row_dots(n, n))[:, None]
    return bcs


def assemble_stiffness(mesh):
    """P1 FEM stiffness matrix of the scalar Laplacian (SPD, zero row sums).

    The entries' rows and columns are listed in the tets' integer type, and
    the element matrices' temporaries are freed before the CSR conversion.
    """
    t, n = mesh.tets, len(mesh.vertices)
    ke = _element_stiffness(mesh)
    return CSR.from_coo(ke.reshape(-1), np.repeat(t, 4, axis=1).reshape(-1),
                        np.tile(t, (1, 4)).reshape(-1), (n, n))


def _element_stiffness(mesh):
    """The (t, 4, 4) P1 stiffness matrices of the tets, computed in place
    where a step allows it."""
    v = mesh.vertices
    t = mesh.tets
    vols = mesh.tet_volumes()
    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    e3 = v[t[:, 3]] - v[t[:, 0]]
    # gradients of the four barycentric basis functions
    grads = np.empty((len(t), 4, 3))
    grads[:, 0] = np.cross(v[t[:, 3]] - v[t[:, 1]], v[t[:, 2]] - v[t[:, 1]])
    grads[:, 1] = np.cross(e2, e3)
    grads[:, 2] = np.cross(e3, e1)
    grads[:, 3] = np.cross(e1, e2)
    del e1, e2, e3
    grads /= (6.0 * vols)[:, None, None]
    ke = np.einsum("tif,tjf->tij", grads, grads)
    ke *= vols[:, None, None]
    return ke


class FrameField:
    """Per-vertex 9-coefficient field over a TetMesh with its BC set.

    The field keeps a read-only copy of ``coeffs``, so the frames that
    ``vertex_frames`` caches always belong to its coefficients.
    """

    def __init__(self, mesh, coeffs, bcs, config=None):
        self.mesh = mesh
        self.coeffs = np.array(coeffs, dtype=float)
        self.coeffs.flags.writeable = False
        self.bcs = bcs
        self.config = config or SolverConfig()
        self._frames = None
        self._quality = None
        self.report = {}

    def vertex_frames(self):
        """Projected frame and alignment quality at every vertex; a vertex
        whose coefficients have norm at most 1e-9, or not finite, keeps the
        identity frame and quality 0."""
        if self._frames is None:
            self._frames, self._quality = fr.project_rows(self.coeffs)
        return self._frames, self._quality

    def energy(self, K=None):
        if K is None:
            K = assemble_stiffness(self.mesh)
        return float((self.coeffs * (K @ self.coeffs)).sum())


def solve_initial(mesh, bcs, config=None, K=None):
    """Laplacian initialization of the 9 coefficient channels.

    Jacobi-preconditioned conjugate gradient on the reduced unknowns: the
    9 coefficients of each free vertex, then the (c, s) of each tangency
    vertex's ``h0 + c h1 + s h2`` (circle constraint relaxed, radius
    restored after the solve), each in vertex order; Dirichlet vertices
    have none.  The operator expands the unknowns to an (n, 9) block,
    applies K to it and gathers the unknowns' rows back, so no 9N matrix
    is built; its diagonal is K's, as h1 and h2 are unit vectors.
    """
    config = config or SolverConfig()
    if (bcs.kind == FREE).all():
        raise Unconstrained("no Dirichlet or tangency vertex among %d: "
                            "the field would be zero" % len(bcs.kind))
    if K is None:
        K = assemble_stiffness(mesh)
    free = np.flatnonzero(bcs.kind == FREE)
    tang = np.flatnonzero(bcs.kind == TANGENCY)
    H = np.stack(fr.tangency_basis(bcs.normals[tang]), axis=1)
    coeffs = np.where((bcs.kind == DIRICHLET)[:, None], bcs.coeffs, 0.0)
    coeffs[tang] = H[:, 0]
    nf = 9 * len(free)
    nu = nf + 2 * len(tang)
    if nu == 0:
        return FrameField(mesh, coeffs, bcs, config)

    def expand(u):
        X = np.zeros_like(coeffs)
        X[free] = u[:nf].reshape(-1, 9)
        X[tang] = np.einsum("tk,tkj->tj", u[nf:].reshape(-1, 2), H[:, 1:])
        return X

    def reduce(Y):
        return np.concatenate([Y[free].ravel(),
                               np.einsum("tkj,tj->tk", H[:, 1:], Y[tang]).ravel()])

    def matvec(u):
        return reduce(K @ expand(u))

    rhs = -reduce(K @ coeffs)
    d = K.diagonal()
    diag = np.concatenate([np.repeat(d[free], 9), np.repeat(d[tang], 2)])
    diag[diag <= 0] = 1.0
    maxiter = 10 * nu
    u, info, iterations = _cg(matvec, rhs, diag, maxiter)
    res = np.linalg.norm(rhs - matvec(u)) / max(np.linalg.norm(rhs), 1e-300)
    if info > 0 and res > np.sqrt(CG_TOLERANCE):
        raise CGDiverged("CG residual %.3e after %d iterations" % (res, maxiter))
    coeffs[free] = u[:nf].reshape(-1, 9)
    # restore the circle radius at tangency vertices
    coeffs[tang] = _on_circle(H, u[nf:].reshape(-1, 2))
    field = FrameField(mesh, coeffs, bcs, config)
    field.report["cg_info"] = int(info)
    field.report["cg_iterations"] = iterations
    field.report["cg_residual"] = float(res)
    return field


def _cg(matvec, b, diag, maxiter):
    """Jacobi-preconditioned conjugate gradient (Hestenes and Stiefel 1952)
    for ``matvec(x) = b`` from x = 0, stopping once the residual norm is
    below ``CG_TOLERANCE * |b|``.

    Returns ``(x, info, iterations)``: info is 0 on convergence and
    ``maxiter`` when the iterations ran out.  The recurrence is scipy's
    ``cg`` (scipy 1.12 on) operation for operation, so the bits are too.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        # x = 0 solves it; b's own zeros keep scipy's bits, -0.0 included
        return b.copy(), 0, 0
    atol = CG_TOLERANCE * bnorm
    x = np.zeros_like(b)
    r = b.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0, iteration
        z = r / diag
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _on_circle(H, cs):
    """The point of each tangency circle ``h0 + c h1 + s h2`` (c^2 + s^2 =
    5/12), for bases ``H`` (t, 3, 9), in the direction of the rows (c, s) of
    ``cs``; (1, 0) where that direction is undefined."""
    r = np.hypot(cs[:, :1], cs[:, 1:])
    ok = r > 1e-12
    cs = np.where(ok, TANGENCY_RADIUS * cs / np.where(ok, r, 1.0),
                  [TANGENCY_RADIUS, 0.0])
    return H[:, 0] + cs[:, :1] * H[:, 1] + cs[:, 1:] * H[:, 2]


def _smoothing_rows(K, kind):
    """The smoothing weights: the rows of ``W = diag(K) - K``, each over its
    sum, of the moving vertices (not Dirichlet, with a positive sum), and
    those vertices.

    W holds K's nonzeros off the diagonal as ``0.0 - K_ij``, and its row
    sums add in column order.  A moving row holds ``(1 / sum) * w_ij`` in
    descending column order, the entries and the order of scipy's
    ``diags(1 / wsum[move]) @ W[move]`` (``csr_matmat``), so each average
    adds what, and in the order, a scipy product would.
    """
    n = K.shape[0]
    row = np.repeat(np.arange(n), np.diff(K.indptr))
    keep = (K.indices != row) & (K.data != 0.0)
    w, cols = 0.0 - K.data[keep], K.indices[keep]
    ptr = row_offsets(np.bincount(row[keep], minlength=n))
    nonempty = np.flatnonzero(np.diff(ptr))
    wsum = np.zeros(n)
    wsum[nonempty] = np.add.reduceat(w, ptr[nonempty])
    move = np.flatnonzero((kind != DIRICHLET) & (wsum > 0))
    count = ptr[move + 1] - ptr[move]
    out = row_offsets(count)
    # entry q of moving row t is entry ptr[move[t] + 1] - 1 - (q - out[t])
    src = np.repeat(ptr[move + 1] - 1 + out[:-1], count) - np.arange(out[-1])
    data = np.repeat(1.0 / wsum[move], count) * w[src]
    return CSR(out, cols[src], data, (len(move), n)), move


def _sweep_steps(W, move):
    """The wavefront step of each moving vertex, sweep after sweep.

    Vertex v's update in sweep s runs one step after the latest of its own
    sweep-(s-1) update, its lower-numbered moving neighbours' sweep-s ones
    and its higher-numbered ones' sweep-(s-1) ones: Anderson and Saad's
    level scheduling (1989), continued across sweeps.  No two neighbours
    share a step, so a step's updates read what vertex-order sweeps read.
    """
    m = len(move)
    pos = np.full(W.shape[1], -1)
    pos[move] = np.arange(m)
    row = np.repeat(np.arange(m), np.diff(W.indptr))
    col = pos[W.indices]
    low, high = (col >= 0) & (col < row), col > row
    lower_row, lower_col = row[low], col[low]
    lower_ptr = row_offsets(np.bincount(lower_row, minlength=m))
    # a row's lower neighbours come before it, so one pass in row order
    # finds every level
    level = [0] * m
    cols, ptr = lower_col.tolist(), lower_ptr.tolist()
    for i in np.flatnonzero(np.diff(lower_ptr)).tolist():
        level[i] = max(map(level.__getitem__, cols[ptr[i]:ptr[i + 1]])) + 1
    level = np.array(level, dtype=np.int64)
    # a level's rows depend on lower levels only; in level order each
    # level's rows are one range of the rows of ``lower`` put in that order
    order = np.argsort(level, kind="stable")
    by_level = lower_col[np.argsort(level[lower_row], kind="stable")]
    ptr = row_offsets(np.diff(lower_ptr)[order])
    bounds = np.cumsum(np.bincount(level))
    groups = [(order[a:b], by_level[ptr[a]:ptr[b]], ptr[a:b] - ptr[a])
              for a, b in zip(bounds[:-1], bounds[1:])]
    upper_col = col[high]
    upper_ptr = row_offsets(np.bincount(row[high], minlength=m))
    up = np.flatnonzero(np.diff(upper_ptr))
    steps = level + 1
    while True:
        yield steps
        last = steps.copy()
        last[up] = np.maximum(last[up], np.maximum.reduceat(
            steps[upper_col], upper_ptr[up]))
        steps = last + 1
        for g, cols, starts in groups:
            steps[g] = np.maximum(last[g], np.maximum.reduceat(
                steps[cols], starts)) + 1


class _Sweep:
    """A sweep in flight: its moving rows in step order, its max change so
    far and what its rows held before it moved them."""

    def __init__(self, steps, now):
        self.order = np.argsort(steps, kind="stable")
        self.steps = steps[self.order]
        # a sweep without rows runs and ends at the current step
        self.first, self.last = self.steps[[0, -1]] if len(steps) else (now, now)
        self.delta, self.before = 0.0, np.empty((len(steps), 9))

    def rows(self, lo, hi):
        """The rows that run at steps lo to hi-1."""
        a, b = np.searchsorted(self.steps, (lo, hi))
        return self.order[a:b]


def smooth_nonlinear(field, config=None, K=None):
    """Projected nonlinear Gauss-Seidel smoothing toward the frame manifold.

    Each moving vertex (not Dirichlet, with a positive neighbour weight
    sum) moves to the stiffness-weighted neighbor average; a free vertex
    blends it with its manifold projection (relaxation lambda), and a
    tangency vertex takes the nearest point of its constraint circle.  The
    bits are those of sweeps in vertex order, run as one wavefront across
    sweeps (``_sweep_steps``): one sparse product, circle projection and
    ``project_to_octahedral`` call per step, warm-started from each
    vertex's last frame (NaN, so cold, in the first sweep).  The first
    sweep whose max change is below ``convergence_delta`` is the result.
    ``report["smoothing_deltas"]`` holds each finished sweep's max change.
    """
    config = config or field.config
    if K is None:
        K = assemble_stiffness(field.mesh)
    coeffs = field.coeffs.copy()
    lam = config.projection_relaxation
    bcs = field.bcs
    W, move = _smoothing_rows(K, bcs.kind)
    tang = bcs.kind[move] == TANGENCY
    H = np.zeros((len(move), 3, 9))
    H[tang] = np.stack(fr.tangency_basis(bcs.normals[move[tang]]), axis=1)
    frames = np.full((len(coeffs), 3, 3), np.nan)
    schedule = _sweep_steps(W, move)
    flight, started, step = [], 0, 0
    deltas, converged = [], False
    while len(deltas) < config.smoothing_sweeps and not converged:
        step += 1
        while started < config.smoothing_sweeps and (
                not flight or flight[-1].first <= step):
            flight.append(_Sweep(next(schedule), step))
            started += 1
        pieces = [(sweep, sweep.rows(step, step + 1)) for sweep in flight]
        rows = np.concatenate([p for _, p in pieces])
        v, tg = move[rows], tang[rows]
        new = W.rows(rows) @ coeffs
        h = H[rows[tg]]
        new[tg] = _on_circle(
            h, (h[:, 1:] @ (new[tg] - h[:, 0])[:, :, None])[..., 0])
        if lam != 0.0:
            free, avg = v[~tg], new[~tg]
            frames[free], pc = fr.project_to_octahedral(
                avg, warm_start=frames[free])
            new[~tg] = (1.0 - lam) * avg + lam * pc
        old, at = coeffs[v], 0
        change = np.abs(new - old).max(axis=1)
        for sweep, p in pieces:
            sweep.delta = change[at:at + len(p)].max(initial=sweep.delta)
            sweep.before[p] = old[at:at + len(p)]
            at += len(p)
        coeffs[v] = new
        while flight and flight[0].last <= step and not converged:
            sweep = flight.pop(0)
            deltas.append(float(sweep.delta))
            converged = sweep.delta < config.convergence_delta
            if flight and converged:
                # undo the rows of the next sweep that already ran
                ran = flight[0].rows(0, step + 1)
                coeffs[move[ran]] = flight[0].before[ran]
    out = FrameField(field.mesh, coeffs, bcs, config)
    out.report = dict(field.report)
    out.report["smoothing_sweeps"] = len(deltas)
    out.report["smoothing_steps"] = step
    out.report["smoothing_converged"] = bool(converged)
    out.report["smoothing_deltas"] = deltas
    out.report["smoothing_last_delta"] = deltas[-1] if deltas else np.inf
    out.report["dirichlet_energy"] = out.energy(K)
    return out


def compute_field(mesh, config=None):
    """Full solve: boundary conditions, linear init, projected smoothing."""
    config = config or SolverConfig()
    bcs = build_boundary_conditions(mesh)
    K = assemble_stiffness(mesh)
    field = solve_initial(mesh, bcs, config, K=K)
    return smooth_nonlinear(field, config, K=K)
