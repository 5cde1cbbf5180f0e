"""Vertex-order reference for the level-scheduled smoother.

``smooth_coeffs`` is the per-vertex Gauss-Seidel loop that
``solver.smooth_nonlinear`` once ran, kept to check that updating one
dependency level at a time reads what the vertex-order sweep reads.  Only
tests import this module.
"""

import numpy as np

from hexframe import frames as fr
from hexframe.solver import DIRICHLET, TANGENCY, TANGENCY_RADIUS


def smooth_coeffs(field, K, sweeps, lam):
    """Coefficients after ``sweeps`` vertex-order sweeps with relaxation
    ``lam``, and the max coefficient change of the last sweep."""
    K = K.tocsr()
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
