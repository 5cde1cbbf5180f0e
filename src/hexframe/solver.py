"""Boundary-aligned smooth frame field solver.

Minimizes the Dirichlet energy of the 9 coefficient channels with full
(Dirichlet) constraints on feature curves and corners, tangency constraints
on smooth patches, followed by projected nonlinear Gauss-Seidel smoothing
toward the frame manifold.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import frames as fr
from .errors import (
    CGDiverged,
    ConflictingConstraint,
    DegenerateTangent,
    DegenerateTet,
)

TANGENCY_RADIUS = np.sqrt(5.0 / 12.0)


@dataclass
class SolverConfig:
    cg_tolerance: float = 1e-8
    max_cg_iters: int = 0          # 0 means 10 * number of unknowns
    smoothing_sweeps: int = 50
    projection_relaxation: float = 0.95
    convergence_delta: float = 1e-6


class BoundaryConditionSet:
    """Disjoint vertex constraint sets: Dirichlet, tangency, free boundary."""

    def __init__(self):
        self.dirichlet = {}      # vertex -> 9-vector
        self.tangency = {}       # vertex -> unit normal
        self.free_boundary = set()

    def copy(self):
        out = BoundaryConditionSet()
        out.dirichlet = {v: np.array(c) for v, c in self.dirichlet.items()}
        out.tangency = {v: np.array(n) for v, n in self.tangency.items()}
        out.free_boundary = set(self.free_boundary)
        return out

    def set_dirichlet(self, vertex, coeffs):
        self.tangency.pop(vertex, None)
        self.free_boundary.discard(vertex)
        self.dirichlet[vertex] = np.asarray(coeffs, dtype=float)

    def set_tangency(self, vertex, normal):
        self.dirichlet.pop(vertex, None)
        self.free_boundary.discard(vertex)
        n = np.asarray(normal, dtype=float)
        self.tangency[vertex] = n / np.linalg.norm(n)

    def set_free(self, vertex):
        self.dirichlet.pop(vertex, None)
        self.tangency.pop(vertex, None)
        self.free_boundary.add(vertex)

    def kind(self, vertex):
        if vertex in self.dirichlet:
            return "dirichlet"
        if vertex in self.tangency:
            return "tangency"
        if vertex in self.free_boundary:
            return "free"
        return None


def dirichlet_bc_on_curve(curve, mesh):
    """Frame coefficients along a feature curve.

    At each curve vertex the frame has one axis along the curve tangent and
    a second axis along the adjacent-patch normal direction (orthonormalized
    against the tangent).  Returns {vertex: 9-vector}.
    """
    out = {}
    for i, v in enumerate(curve.vertices):
        t = curve.tangents[i]
        tn = np.linalg.norm(t)
        if tn < 1e-9:
            raise DegenerateTangent("curve %d vertex %d" % (curve.curve_id, v))
        t = t / tn
        normals = [n for _, n in mesh.patch_normal(v)]
        if not normals:
            continue
        if curve.target_valence == 2:
            n = np.mean(normals, axis=0)
        else:
            n = normals[0]
        a2 = n - (n @ t) * t
        ln = np.linalg.norm(a2)
        if ln < 1e-9:
            # tangent parallel to the normal; fall back to any orthogonal
            a2 = np.eye(3)[int(np.argmin(np.abs(t)))]
            a2 = a2 - (a2 @ t) * t
            ln = np.linalg.norm(a2)
        a2 /= ln
        R = np.column_stack([a2, np.cross(t, a2), t])
        out[v] = fr.coeffs_from_rotation(R)
    return out


def build_boundary_conditions(mesh):
    """Standard BC set: Dirichlet on feature curves and corners, tangency
    on smooth-patch vertices."""
    bcs = BoundaryConditionSet()
    corner_acc = {}
    for curve in mesh.feature_curves:
        values = dirichlet_bc_on_curve(curve, mesh)
        for v, c in values.items():
            if v in mesh.corners:
                corner_acc.setdefault(v, []).append(c)
            elif v in bcs.dirichlet:
                # junction of two curves that is not a flagged corner
                corner_acc.setdefault(v, [bcs.dirichlet[v]]).append(c)
            else:
                bcs.set_dirichlet(v, c)
    for v, vals in corner_acc.items():
        avg = np.mean(vals, axis=0)
        proj = fr.project_to_octahedral(avg)
        bcs.set_dirichlet(v, proj.coeffs)
    feature_verts = mesh.feature_vertex_set() | set(mesh.corners)
    for patch in mesh.patches:
        for v, n in patch.vertex_normals.items():
            if v in feature_verts or v in bcs.dirichlet:
                continue
            bcs.set_tangency(v, n)
    return bcs


def assemble_stiffness(mesh):
    """P1 FEM stiffness matrix of the scalar Laplacian (SPD, zero row sums)."""
    v = mesh.vertices
    t = mesh.tets
    vols = mesh.tet_volumes()
    if (vols < 1e-14 * vols.mean()).any():
        raise DegenerateTet("tet volume below 1e-14 of the mean")
    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    e3 = v[t[:, 3]] - v[t[:, 0]]
    # gradients of the four barycentric basis functions
    n0 = np.cross(v[t[:, 3]] - v[t[:, 1]], v[t[:, 2]] - v[t[:, 1]])
    n1 = np.cross(e2, e3)
    n2 = np.cross(e3, e1)
    n3 = np.cross(e1, e2)
    grads = np.stack([n0, n1, n2, n3], axis=1) / (6.0 * vols)[:, None, None]
    ke = np.einsum("tif,tjf->tij", grads, grads) * vols[:, None, None]
    rows = np.repeat(t, 4, axis=1).reshape(-1)
    cols = np.tile(t, (1, 4)).reshape(-1)
    K = sp.coo_matrix(
        (ke.reshape(-1), (rows, cols)), shape=(len(v), len(v))
    ).tocsr()
    K.sum_duplicates()
    return K


class FrameField:
    """Per-vertex 9-coefficient field over a TetMesh with its BC set."""

    def __init__(self, mesh, coeffs, bcs, config=None):
        self.mesh = mesh
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.bcs = bcs
        self.config = config or SolverConfig()
        self._frames = None
        self._quality = None
        self.report = {}

    def copy(self):
        out = FrameField(self.mesh, self.coeffs.copy(), self.bcs.copy(), self.config)
        if self._frames is not None:
            out._frames = self._frames.copy()
        if self._quality is not None:
            out._quality = self._quality.copy()
        return out

    def invalidate(self):
        self._frames = None
        self._quality = None

    def vertex_frames(self):
        """Projected frame and alignment quality at every vertex."""
        if self._frames is None:
            n = len(self.coeffs)
            R = np.empty((n, 3, 3))
            q = np.empty(n)
            warm = None
            for i in range(n):
                c = self.coeffs[i]
                nc = np.linalg.norm(c)
                if nc < 1e-9:
                    R[i] = np.eye(3)
                    q[i] = 0.0
                    continue
                proj = fr.project_to_octahedral(c, warm_start=warm)
                R[i] = proj.frame.R
                q[i] = float((c / nc) @ proj.coeffs)
                warm = proj.frame.R
            self._frames = R
            self._quality = q
        return self._frames, self._quality

    def quality(self):
        return self.vertex_frames()[1]

    def energy(self, K=None):
        if K is None:
            K = assemble_stiffness(self.mesh)
        return float(sum(self.coeffs[:, k] @ (K @ self.coeffs[:, k]) for k in range(9)))


def _build_reduced_system(mesh, bcs, K):
    """Affine map x = A u + b from reduced unknowns to the full 9N vector."""
    n = len(mesh.vertices)
    rows, cols, vals = [], [], []
    b = np.zeros(9 * n)
    offsets = {}
    nu = 0
    tang_basis = {}
    for v in range(n):
        kind = bcs.kind(v)
        if kind == "dirichlet":
            b[9 * v: 9 * v + 9] = bcs.dirichlet[v]
        elif kind == "tangency":
            h0, h1, h2 = fr.tangency_basis(bcs.tangency[v])
            tang_basis[v] = (h0, h1, h2)
            b[9 * v: 9 * v + 9] = h0
            for k in range(9):
                rows.append(9 * v + k)
                cols.append(nu)
                vals.append(h1[k])
                rows.append(9 * v + k)
                cols.append(nu + 1)
                vals.append(h2[k])
            offsets[v] = (nu, 2)
            nu += 2
        else:
            for k in range(9):
                rows.append(9 * v + k)
                cols.append(nu + k)
                vals.append(1.0)
            offsets[v] = (nu, 9)
            nu += 9
    A = sp.coo_matrix((vals, (rows, cols)), shape=(9 * n, nu)).tocsr()
    return A, b, offsets, tang_basis


def solve_initial(mesh, bcs, config=None, K=None, warm_coeffs=None):
    """Laplacian initialization of the 9 coefficient channels.

    Dirichlet vertices are eliminated, tangency vertices reduced to two
    unknowns via the tangency basis (circle constraint relaxed, radius
    restored after the solve); Jacobi-preconditioned conjugate gradient.
    """
    config = config or SolverConfig()
    if K is None:
        K = assemble_stiffness(mesh)
    n = len(mesh.vertices)
    K9 = sp.kron(K, sp.identity(9, format="csr"), format="csr")
    A, b, offsets, tang_basis = _build_reduced_system(mesh, bcs, K)
    nu = A.shape[1]
    if nu == 0:
        coeffs = b.reshape(n, 9)
        return FrameField(mesh, coeffs, bcs, config)
    M = (A.T @ (K9 @ A)).tocsr()
    rhs = -A.T @ (K9 @ b)
    diag = M.diagonal()
    diag[diag <= 0] = 1.0
    precond = spla.LinearOperator(M.shape, matvec=lambda x: x / diag)
    maxiter = config.max_cg_iters or 10 * nu
    x0 = None
    if warm_coeffs is not None:
        x0 = np.zeros(nu)
        for v, (off, width) in offsets.items():
            if width == 9:
                x0[off: off + 9] = warm_coeffs[v]
            else:
                h0, h1, h2 = tang_basis[v]
                d = warm_coeffs[v] - h0
                x0[off] = d @ h1
                x0[off + 1] = d @ h2
    u, info = spla.cg(M, rhs, x0=x0, rtol=config.cg_tolerance, atol=0.0,
                      maxiter=maxiter, M=precond)
    if info > 0:
        res = np.linalg.norm(M @ u - rhs) / max(np.linalg.norm(rhs), 1e-300)
        if res > np.sqrt(config.cg_tolerance):
            raise CGDiverged("CG residual %.3e after %d iterations" % (res, maxiter))
    x = A @ u + b
    coeffs = x.reshape(n, 9)
    # restore the circle radius at tangency vertices
    for v, (off, width) in offsets.items():
        if width != 2:
            continue
        h0, h1, h2 = tang_basis[v]
        c, s = u[off], u[off + 1]
        r = np.hypot(c, s)
        if r > 1e-12:
            c, s = TANGENCY_RADIUS * c / r, TANGENCY_RADIUS * s / r
        else:
            c, s = TANGENCY_RADIUS, 0.0
        coeffs[v] = h0 + c * h1 + s * h2
    field = FrameField(mesh, coeffs, bcs, config)
    field.report["cg_info"] = int(info)
    return field


def smooth_nonlinear(field, config=None, K=None):
    """Projected nonlinear Gauss-Seidel smoothing toward the frame manifold.

    Each free vertex moves to the stiffness-weighted neighbor average blended
    with its manifold projection (relaxation lambda); tangency vertices are
    re-projected onto their constraint circle.  Sweeps run in vertex order
    for determinism.
    """
    config = config or field.config
    if K is None:
        K = assemble_stiffness(field.mesh)
    K = K.tocsr()
    coeffs = field.coeffs.copy()
    n = len(coeffs)
    lam = config.projection_relaxation
    bcs = field.bcs
    kinds = np.zeros(n, dtype=np.int8)  # 0 free, 1 dirichlet, 2 tangency
    for v in bcs.dirichlet:
        kinds[v] = 1
    tang = {}
    for v, nrm in bcs.tangency.items():
        kinds[v] = 2
        tang[v] = fr.tangency_basis(nrm)
    warm = [None] * n
    indptr, indices, data = K.indptr, K.indices, K.data
    sweeps_done = 0
    max_delta = np.inf
    for sweep in range(config.smoothing_sweeps):
        max_delta = 0.0
        for v in range(n):
            if kinds[v] == 1:
                continue
            acc = np.zeros(9)
            wsum = 0.0
            for idx in range(indptr[v], indptr[v + 1]):
                j = indices[idx]
                if j == v:
                    continue
                w = -data[idx]
                acc += w * coeffs[j]
                wsum += w
            if wsum <= 0:
                continue
            avg = acc / wsum
            if kinds[v] == 2:
                h0, h1, h2 = tang[v]
                c, s = (avg - h0) @ h1, (avg - h0) @ h2
                r = np.hypot(c, s)
                if r > 1e-12:
                    c, s = TANGENCY_RADIUS * c / r, TANGENCY_RADIUS * s / r
                else:
                    c, s = TANGENCY_RADIUS, 0.0
                new = h0 + c * h1 + s * h2
            elif lam == 0.0:
                new = avg
            else:
                proj = fr.project_to_octahedral(avg, warm_start=warm[v])
                warm[v] = proj.frame.R
                new = (1.0 - lam) * avg + lam * proj.coeffs
            delta = np.max(np.abs(new - coeffs[v]))
            if delta > max_delta:
                max_delta = delta
            coeffs[v] = new
        sweeps_done = sweep + 1
        if max_delta < config.convergence_delta:
            break
    out = FrameField(field.mesh, coeffs, bcs, config)
    out.report = dict(field.report)
    out.report["smoothing_sweeps"] = sweeps_done
    out.report["smoothing_converged"] = bool(max_delta < config.convergence_delta)
    out.report["smoothing_last_delta"] = float(max_delta)
    out.report["dirichlet_energy"] = out.energy(K)
    return out


def apply_internal_constraints(field, constraints):
    """Attach internal constraints (interior vertices) to the BC set.

    ``constraints`` is a list of (vertex, kind, payload) where kind is
    ``tangency_dir`` (payload: direction) or ``dirichlet_coeffs`` (payload:
    9-vector).  Returns a field sharing coefficients with updated BCs.
    """
    bcs = field.bcs.copy()
    seen = {}
    for v, kind, payload in constraints:
        payload = np.asarray(payload, dtype=float)
        if v in seen:
            pk, pp = seen[v]
            if pk != kind or not np.allclose(pp, payload, atol=1e-12):
                raise ConflictingConstraint("vertex %d constrained twice" % v)
            continue
        seen[v] = (kind, payload)
        if kind == "tangency_dir":
            bcs.set_tangency(v, payload)
        elif kind == "dirichlet_coeffs":
            bcs.set_dirichlet(v, payload)
        else:
            raise ValueError("unknown constraint kind %r" % kind)
    return FrameField(field.mesh, field.coeffs.copy(), bcs, field.config)


def compute_field(mesh, config=None, bcs=None, K=None, warm_coeffs=None):
    """Full solve: boundary conditions, linear init, projected smoothing."""
    config = config or SolverConfig()
    if bcs is None:
        bcs = build_boundary_conditions(mesh)
    if K is None:
        K = assemble_stiffness(mesh)
    field = solve_initial(mesh, bcs, config, K=K, warm_coeffs=warm_coeffs)
    return smooth_nonlinear(field, config, K=K)
