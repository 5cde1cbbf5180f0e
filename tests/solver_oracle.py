"""References for the boundary conditions, the initial solve and the
pipelined smoother.

``build_boundary_conditions`` is the curve-at-a-time loop that
``solver.build_boundary_conditions`` once ran, a dict of frames per curve.
``reduced_system`` is the affine map from CG unknowns to coefficients that
``solver.solve_initial`` once assembled, one vertex at a time.
``smooth_coeffs`` is the per-vertex Gauss-Seidel loop that
``solver.smooth_nonlinear`` once ran, kept to check that a batched update
reads what the vertex-order sweep reads.  ``smooth_levels`` is the sweep
that ran one dependency level at a time, one projection call per level;
the cross-sweep wavefront must give its bits.  ``as_scipy`` hands
hexframe's CSR matrices to these references and to scipy.
``element_stiffness`` builds the P1 element matrices from a corner gather
per edge and the reference volumes.  Only tests import this module.
"""

import numpy as np
import scipy.sparse as sp

import mesh_oracle
from hexframe import frames as fr
from hexframe.mesh import row_dots
from hexframe.solver import (
    DIRICHLET,
    TANGENCY,
    TANGENCY_RADIUS,
    BoundaryConditionSet,
    _on_circle,
    dirichlet_bc_on_curve,
)


def as_scipy(A):
    """A scipy CSR matrix on the arrays of hexframe's CSR matrix ``A``."""
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def element_stiffness(mesh):
    """The (t, 4, 4) P1 stiffness matrices of the tets."""
    v, t = mesh.vertices, mesh.tets
    vols = mesh_oracle.tet_volumes(v, t)
    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    e3 = v[t[:, 3]] - v[t[:, 0]]
    grads = np.empty((len(t), 4, 3))
    grads[:, 0] = np.cross(v[t[:, 3]] - v[t[:, 1]], v[t[:, 2]] - v[t[:, 1]])
    grads[:, 1] = np.cross(e2, e3)
    grads[:, 2] = np.cross(e3, e1)
    grads[:, 3] = np.cross(e1, e2)
    grads /= (6.0 * vols)[:, None, None]
    ke = np.einsum("tif,tjf->tij", grads, grads)
    ke *= vols[:, None, None]
    return ke


def build_boundary_conditions(mesh):
    """The standard boundary conditions, one curve at a time: each curve's
    frames in curve order, a corner's averaged and projected."""
    bcs = BoundaryConditionSet(len(mesh.vertices))
    corner_set = set(mesh.corners)
    corner_acc = {}
    for curve in mesh.feature_curves:
        for v, c in dirichlet_bc_on_curve(curve, mesh).items():
            if v in corner_set:
                corner_acc.setdefault(v, []).append(c)
            else:
                bcs.set_dirichlet(v, c)
    corners = list(corner_acc)
    avgs = np.reshape([np.mean(v, axis=0) for v in corner_acc.values()], (-1, 9))
    bcs.kind[corners] = DIRICHLET
    bcs.coeffs[corners] = fr.project_to_octahedral(avgs)[1]
    # the other boundary vertices are tangent to their last patch's normal
    ptr = mesh.vertex_patch_ptr
    tang = (ptr[1:] > ptr[:-1]) & (bcs.kind != DIRICHLET)
    tang[list(mesh.feature_vertex_set() | corner_set)] = False
    n = mesh.vertex_patch_normals[ptr[1:][tang] - 1]
    bcs.kind[tang] = TANGENCY
    bcs.normals[tang] = n / np.sqrt(row_dots(n, n))[:, None]
    return bcs


def reduced_system(bcs):
    """The affine map x = A u + b from reduced unknowns to the full 9N
    coefficient vector: a free vertex owns 9 columns, a tangency vertex 2
    (its h1 and h2) and a Dirichlet vertex none, in vertex order."""
    n = len(bcs.kind)
    rows, cols, vals, b, nu = [], [], [], np.zeros(9 * n), 0
    for v, kind in enumerate(bcs.kind):
        span = slice(9 * v, 9 * v + 9)
        if kind == DIRICHLET:
            b[span] = bcs.coeffs[v]
        elif kind == TANGENCY:
            h0, h1, h2 = fr.tangency_basis(bcs.normals[v])
            b[span] = h0
            for k in range(9):
                rows += [9 * v + k, 9 * v + k]
                cols += [nu, nu + 1]
                vals += [h1[k], h2[k]]
            nu += 2
        else:
            rows += list(range(9 * v, 9 * v + 9))
            cols += list(range(nu, nu + 9))
            vals += [1.0] * 9
            nu += 9
    return sp.coo_matrix((vals, (rows, cols)), shape=(9 * n, nu)).tocsr(), b


def smooth_coeffs(field, K, sweeps, lam):
    """Coefficients after ``sweeps`` vertex-order sweeps with relaxation
    ``lam``, and the max coefficient change of the last sweep."""
    K = as_scipy(K)
    coeffs = field.coeffs.copy()
    n = len(coeffs)
    bcs = field.bcs
    kinds = bcs.kind
    tang = np.flatnonzero(kinds == TANGENCY)
    bases = np.zeros((n, 3, 9))
    bases[tang] = np.stack(fr.tangency_basis(bcs.normals[tang]), axis=1)
    warm = [None] * n
    indptr, indices, data = K.indptr, K.indices, K.data
    max_delta = np.inf
    for _ in range(sweeps):
        max_delta = 0.0
        for v in range(n):
            if kinds[v] == DIRICHLET:
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
            if kinds[v] == TANGENCY:
                h0, h1, h2 = bases[v]
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
                warm[v], pc = fr.project_to_octahedral(avg, warm_start=warm[v])
                new = (1.0 - lam) * avg + lam * pc
            max_delta = max(max_delta, np.max(np.abs(new - coeffs[v])))
            coeffs[v] = new
    return coeffs, max_delta


def moving_rows(K, bcs):
    """The normalised neighbour weights (CSR) of a sweep's moving vertices,
    and those vertices: the ones not Dirichlet whose neighbour weights
    ``-K`` have a positive sum."""
    K = as_scipy(K)
    W = (sp.diags(K.diagonal()) - K).tocsr()
    wsum = np.asarray(W.sum(axis=1)).ravel()
    move = np.flatnonzero((bcs.kind != DIRICHLET) & (wsum > 0))
    return (sp.diags(1.0 / wsum[move]) @ W[move]).tocsr(), move


def _sweep_levels(K, bcs):
    """The moving vertices of a Gauss-Seidel sweep, grouped by level.

    A vertex moves when it is not Dirichlet and its neighbour weights ``-K``
    have a positive sum.  Its level is one more than the highest level among
    its lower-numbered moving neighbours, so no two vertices of a level are
    neighbours, and updating a level at once reads what a vertex-order sweep
    reads.  Returns, per level, the vertices, their rows of the normalised
    weights (CSR), which of them are tangency vertices, and those vertices'
    (h0, h1, h2) bases.
    """
    W, move = moving_rows(K, bcs)
    lower = sp.tril(W[:, move], k=-1, format="csr")
    rows = np.flatnonzero(np.diff(lower.indptr))
    level = np.zeros(len(move), dtype=np.int64)
    while True:
        new = np.zeros_like(level)
        new[rows] = np.maximum.reduceat(level[lower.indices],
                                        lower.indptr[rows]) + 1
        if np.array_equal(new, level):
            break
        level = new
    order = np.argsort(level, kind="stable")
    out = []
    for group in np.split(order, np.cumsum(np.bincount(level)))[:-1]:
        v = move[group]
        tg = bcs.kind[v] == TANGENCY
        H = np.stack(fr.tangency_basis(bcs.normals[v[tg]]), axis=1)
        out.append((v, W[group], tg, H))
    return out


def smooth_levels(field, config, K):
    """The level-scheduled smoother: coefficients, sweeps run and the last
    sweep's max coefficient change, with ``config``'s sweep budget, stop
    test and relaxation."""
    coeffs = field.coeffs.copy()
    lam = config.projection_relaxation
    levels = _sweep_levels(K, field.bcs)
    frames = np.empty((len(coeffs), 3, 3))
    sweeps_done = 0
    max_delta = np.inf
    for sweep in range(config.smoothing_sweeps):
        max_delta = 0.0
        for v, W, tg, H in levels:
            new = W @ coeffs
            new[tg] = _on_circle(
                H, (H[:, 1:] @ (new[tg] - H[:, 0])[:, :, None])[..., 0])
            if lam != 0.0:
                free, avg = v[~tg], new[~tg]
                frames[free], pc = fr.project_to_octahedral(
                    avg, warm_start=frames[free] if sweep else None)
                new[~tg] = (1.0 - lam) * avg + lam * pc
            max_delta = max(max_delta, np.abs(new - coeffs[v]).max())
            coeffs[v] = new
        sweeps_done = sweep + 1
        if max_delta < config.convergence_delta:
            break
    return coeffs, sweeps_done, max_delta
