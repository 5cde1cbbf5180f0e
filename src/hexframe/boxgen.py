"""Structured box tet meshes for tests and synthetic models."""

import numpy as np

from .mesh import TetMesh

# Kuhn subdivision of the unit cube around the 0-6 diagonal.  Cube corners
# are numbered 0..7 as (i, j, k) bits: corner = i + 2*j + 4*k.
_CUBE_TETS = [
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
    (0, 5, 1, 7),
]


def generate_box(nx, ny, nz, size=(1.0, 1.0, 1.0), bulge=0.0):
    """Structured box mesh with each grid cube split into 6 tets.

    ``bulge`` adds a smooth vertical deformation z' = z*(1 + b*sin(pi x/Lx)
    *sin(pi y/Ly)) for curved-top tests; 0 keeps the box exact.  The 12 box
    edges are tagged as feature curves and its 8 corners as corners.
    """
    if min(nx, ny, nz) < 2:
        raise ValueError("need at least 2 cells per axis")
    lx, ly, lz = size
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    zs = np.linspace(0.0, lz, nz + 1)

    def vid(i, j, k):
        return (k * (ny + 1) + j) * (nx + 1) + i

    z, y, x = np.meshgrid(zs, ys, xs, indexing="ij")
    verts = np.column_stack([x.ravel(), y.ravel(), z.ravel()])
    if bulge:
        x, y, z = verts.T
        verts[:, 2] = z * (1.0 + bulge * np.sin(np.pi * x / lx) * np.sin(np.pi * y / ly))

    # cube (i, j, k) in k-major order; corner c sits at its bits (i, j, k)
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    bits = np.arange(8)
    corner = vid(i.reshape(-1, 1) + (bits & 1), j.reshape(-1, 1) + ((bits >> 1) & 1),
                 k.reshape(-1, 1) + ((bits >> 2) & 1))
    tets = corner[:, _CUBE_TETS].reshape(-1, 4)

    feature_edges = []
    cid = 0
    for axis, n in (("x", nx), ("y", ny), ("z", nz)):
        for b1 in (0, 1):
            for b2 in (0, 1):
                for s in range(n):
                    if axis == "x":
                        u = vid(s, b1 * ny, b2 * nz)
                        v = vid(s + 1, b1 * ny, b2 * nz)
                    elif axis == "y":
                        u = vid(b1 * nx, s, b2 * nz)
                        v = vid(b1 * nx, s + 1, b2 * nz)
                    else:
                        u = vid(b1 * nx, b2 * ny, s)
                        v = vid(b1 * nx, b2 * ny, s + 1)
                    feature_edges.append((u, v, cid))
                cid += 1
    corners = [vid(a * nx, b * ny, c * nz) for c in (0, 1) for b in (0, 1) for a in (0, 1)]
    return TetMesh(verts, tets, feature_edges=feature_edges, corners=corners)
