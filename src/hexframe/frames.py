"""Octahedral frame representation in the degree-4 rotation band.

A frame (an unordered triple of mutually orthogonal axes) is encoded by a
9-component coefficient vector ``c = D(R) h`` where ``D(R)`` is the 9x9
rotation matrix acting on the degree-4 band of real rotation-equivariant
functions and ``h`` is the reference vector with components sqrt(7/12) at
m=0 and sqrt(5/12) at m=+4.  Components are ordered m = -4..+4 (sine terms
for negative m, cosine terms for positive m).  A frame's representative
rotation ``R`` is a plain (3, 3) array whose columns are the frame's axes.

``D(R)`` is built from the closed-form diagonal z-rotation blocks
(cos k*alpha / sin k*alpha for k = 1..4) and the constant +-90 degree
x-rotation matrix, composed through a ZYZ Euler decomposition of ``R``.
"""

import math

import numpy as np

__all__ = [
    "REFERENCE_COEFFS",
    "NotARotation",
    "OCTA_GROUP",
    "wigner_z",
    "wigner4",
    "coeffs_from_rotation",
    "project_to_octahedral",
    "closest_direction",
    "octa_matching",
    "octa_compose",
    "octa_inverse",
    "tangency_basis",
    "axisymmetric_coeffs",
    "rotation_to_axis",
    "axis_angle_rotation",
]

SQ2 = np.sqrt(2.0)
SQ5 = np.sqrt(5.0)
SQ7 = np.sqrt(7.0)
SQ14 = np.sqrt(14.0)
SQ35 = np.sqrt(35.0)

#: Coefficients of the identity frame: sqrt(7/12) at m=0, sqrt(5/12) at m=+4.
REFERENCE_COEFFS = np.array(
    [0.0, 0.0, 0.0, 0.0, np.sqrt(7.0 / 12.0), 0.0, 0.0, 0.0, np.sqrt(5.0 / 12.0)]
)

# Constant degree-4 matrix of the +90 degree rotation about x
# (exact surd entries, derived once symbolically and frozen here).
X90 = np.array(
    [
        [0, 0, 0, 0, 0, SQ14 / 4, 0, -SQ2 / 4, 0],
        [0, -3.0 / 4, 0, SQ7 / 4, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, SQ2 / 4, 0, SQ14 / 4, 0],
        [0, SQ7 / 4, 0, 3.0 / 4, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 3.0 / 8, 0, SQ5 / 4, 0, SQ35 / 8],
        [-SQ14 / 4, 0, -SQ2 / 4, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, SQ5 / 4, 0, 1.0 / 2, 0, -SQ7 / 4],
        [SQ2 / 4, 0, -SQ14 / 4, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, SQ35 / 8, 0, -SQ7 / 4, 0, 1.0 / 8],
    ]
)
X90T = X90.T  # -90 degrees about x


class NotARotation(ValueError):
    """Input matrix is not orthogonal with determinant +1."""


def _check_rotation(R, tol=1e-8):
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise NotARotation("expected a 3x3 rotation matrix")
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = R.tolist()
    # row Gram matrix against the identity, entrywise
    if (abs(a0 * a0 + a1 * a1 + a2 * a2 - 1.0) > tol
            or abs(b0 * b0 + b1 * b1 + b2 * b2 - 1.0) > tol
            or abs(c0 * c0 + c1 * c1 + c2 * c2 - 1.0) > tol
            or abs(a0 * b0 + a1 * b1 + a2 * b2) > tol
            or abs(a0 * c0 + a1 * c1 + a2 * c2) > tol
            or abs(b0 * c0 + b1 * c1 + b2 * c2) > tol):
        raise NotARotation("expected a 3x3 rotation matrix")
    # orthogonal with unit rows: determinant is +-1, sign from the triple
    # product of the rows
    if ((a1 * b2 - a2 * b1) * c0 + (a2 * b0 - a0 * b2) * c1
            + (a0 * b1 - a1 * b0) * c2) < 0:
        raise NotARotation("expected a 3x3 rotation matrix")
    return R


def wigner_z(alpha):
    """Degree-4 matrix of the rotation by ``alpha`` about z (closed form)."""
    D = np.zeros((9, 9))
    D[4, 4] = 1.0
    for m in range(1, 5):
        c, s = np.cos(m * alpha), np.sin(m * alpha)
        D[4 - m, 4 - m] = c
        D[4 - m, 4 + m] = s
        D[4 + m, 4 - m] = -s
        D[4 + m, 4 + m] = c
    return D


def _euler_zyz(R):
    # R = Rz(a) Ry(b) Rz(g)
    (r00, _, r02), (r10, _, r12), (r20, r21, r22) = R.tolist()
    sb = math.hypot(r20, r21)
    if sb < 1e-12:
        if r22 > 0:
            return math.atan2(r10, r00), 0.0, 0.0
        return math.atan2(r10, -r00), math.pi, 0.0
    a = math.atan2(r12, r02)
    b = math.atan2(sb, r22)
    g = math.atan2(r21, -r20)
    return a, b, g


def wigner4(R):
    """9x9 degree-4 band matrix of a 3D rotation, via ZYZ Euler composition."""
    a, b, g = _euler_zyz(R)
    # D(Ry(b)) = D(Rx(-90)) D(Rz(b)) D(Rx(90))
    Dy = X90T @ wigner_z(b) @ X90
    return wigner_z(a) @ Dy @ wigner_z(g)


def _rotate_z_pairs(v, alpha):
    """Apply the z-rotation block matrix to a 9-vector in place-free form.

    Scalar double-angle recurrences instead of vector trig: this sits in
    the projection inner loop where small-array overhead dominates.
    """
    c1 = math.cos(alpha)
    s1 = math.sin(alpha)
    c2 = c1 * c1 - s1 * s1
    s2 = 2.0 * s1 * c1
    c3 = c1 * c2 - s1 * s2
    s3 = s1 * c2 + c1 * s2
    c4 = c2 * c2 - s2 * s2
    s4 = 2.0 * s2 * c2
    v0, v1, v2, v3, v4, v5, v6, v7, v8 = v.tolist()
    return np.array([
        c4 * v0 + s4 * v8,
        c3 * v1 + s3 * v7,
        c2 * v2 + s2 * v6,
        c1 * v3 + s1 * v5,
        v4,
        -s1 * v3 + c1 * v5,
        -s2 * v2 + c2 * v6,
        -s3 * v1 + c3 * v7,
        -s4 * v0 + c4 * v8,
    ])


_X90_048 = np.ascontiguousarray(X90[:, [0, 4, 8]])
_H0 = float(REFERENCE_COEFFS[4])
_H8 = float(REFERENCE_COEFFS[8])


def frame_coeffs(R):
    """Coefficient vector ``wigner4(R) @ REFERENCE_COEFFS`` without the
    full 9x9 product; used in projection inner loops."""
    a, b, g = _euler_zyz(R)
    # the reference vector is nonzero at m=0 and m=+4 only, so the first
    # z-rotation and X90 product reduce to three columns
    c4 = math.cos(4.0 * g)
    s4 = math.sin(4.0 * g)
    v = _X90_048 @ np.array([s4 * _H8, _H0, c4 * _H8])
    return _rotate_z_pairs(X90T @ _rotate_z_pairs(v, b), a)


def coeffs_from_rotation(R):
    """Coefficient vector of the frame represented by rotation ``R``."""
    R = _check_rotation(R)
    return frame_coeffs(R)


def axis_angle_rotation(w):
    """Rotation matrix of the axis-angle vector ``w`` (Rodrigues)."""
    w0, w1, w2 = float(w[0]), float(w[1]), float(w[2])
    theta = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if theta < 1e-300:
        return np.eye(3)
    k0, k1, k2 = w0 / theta, w1 / theta, w2 / theta
    s = math.sin(theta)
    v = 1.0 - math.cos(theta)
    return np.array([
        [1.0 - v * (k1 * k1 + k2 * k2), k0 * k1 * v - k2 * s, k0 * k2 * v + k1 * s],
        [k0 * k1 * v + k2 * s, 1.0 - v * (k0 * k0 + k2 * k2), k1 * k2 * v - k0 * s],
        [k0 * k2 * v - k1 * s, k1 * k2 * v + k0 * s, 1.0 - v * (k0 * k0 + k1 * k1)],
    ])


def rotation_to_axis(v):
    """A rotation mapping the z axis onto the unit vector ``v``."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    if v[2] > 1.0 - 1e-12:
        return np.eye(3)
    if v[2] < -1.0 + 1e-12:
        return np.diag([1.0, -1.0, -1.0])
    axis = np.cross([0.0, 0.0, 1.0], v)
    axis /= np.linalg.norm(axis)
    return axis_angle_rotation(axis * np.arccos(np.clip(v[2], -1, 1)))


# --- octahedral group -------------------------------------------------------

def _build_octa_group():
    gens = [
        np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),  # z 90
        np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),  # x 90
    ]
    elems = {tuple(np.eye(3, dtype=int).ravel())}
    frontier = [np.eye(3, dtype=int)]
    while frontier:
        nxt = []
        for E in frontier:
            for G in gens:
                P = G @ E
                key = tuple(P.ravel())
                if key not in elems:
                    elems.add(key)
                    nxt.append(P)
        frontier = nxt
    mats = [np.array(k, dtype=float).reshape(3, 3) for k in sorted(elems, reverse=True)]
    # identity first, remaining elements in a fixed lexicographic order
    mats.sort(key=lambda M: (np.trace(M) < 3 - 1e-9, tuple(-M.ravel())))
    return np.array(mats)


#: The 24 rotations of the cube; element 0 is the identity.  The order is
#: fixed (identity first, then descending lexicographic on the entries).
OCTA_GROUP = _build_octa_group()

_OCTA_MUL = None
_OCTA_INV = None


def _octa_tables():
    global _OCTA_MUL, _OCTA_INV
    if _OCTA_MUL is None:
        n = len(OCTA_GROUP)
        keys = {tuple(np.rint(G).astype(int).ravel()): i for i, G in enumerate(OCTA_GROUP)}
        mul = np.zeros((n, n), dtype=int)
        inv = np.zeros(n, dtype=int)
        for i in range(n):
            for j in range(n):
                mul[i, j] = keys[tuple(np.rint(OCTA_GROUP[i] @ OCTA_GROUP[j]).astype(int).ravel())]
            inv[i] = keys[tuple(np.rint(OCTA_GROUP[i].T).astype(int).ravel())]
        _OCTA_MUL, _OCTA_INV = mul, inv
    return _OCTA_MUL, _OCTA_INV


def octa_compose(i, j):
    """Index of the product OCTA_GROUP[i] @ OCTA_GROUP[j]; elementwise on
    index arrays."""
    mul, _ = _octa_tables()
    g = mul[i, j]
    return int(g) if np.ndim(g) == 0 else g


def octa_inverse(i):
    """Index of the inverse of OCTA_GROUP[i]."""
    _, inv = _octa_tables()
    return int(inv[i])


# --- infinitesimal generators ----------------------------------------------

def _build_generators():
    Lz = np.zeros((9, 9))
    for m in range(1, 5):
        Lz[4 - m, 4 + m] = m
        Lz[4 + m, 4 - m] = -m
    # conjugate by rotations that map z onto x and y
    Dy90 = X90T @ wigner_z(np.pi / 2) @ X90  # D(Ry(90)), maps z to x
    Lx = Dy90 @ Lz @ Dy90.T
    Ly = X90T @ Lz @ X90  # D(Rx(-90)), maps z to y
    return np.array([Lx, Ly, Lz])


_GENERATORS = _build_generators()

def _build_seed_rotations(count=20):
    # quasi-uniform cover of the rotation group; with this density the
    # best-scoring seed reliably sits in the Newton basin of the global
    # maximum, which makes cold projection idempotent on the manifold
    rng = np.random.default_rng(2471)
    seeds = [np.eye(3)]
    while len(seeds) < count:
        w, x, y, z = rng.standard_normal(4)
        n = np.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        seeds.append(np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]))
    return np.array(seeds)


_SEED_ROTATIONS = _build_seed_rotations()
_SEED_COEFFS = np.array([frame_coeffs(R) for R in _SEED_ROTATIONS])


def _solve3(H, b):
    """Cramer solve of a symmetric 3x3 system; None when singular."""
    (a, d, e), (_, bb, ff), (_, _, cc) = H
    det = (a * (bb * cc - ff * ff) - d * (d * cc - ff * e)
           + e * (d * ff - bb * e))
    if abs(det) < 1e-300:
        return None
    x0, x1, x2 = b
    i00 = bb * cc - ff * ff
    i01 = e * ff - d * cc
    i02 = d * ff - e * bb
    i11 = a * cc - e * e
    i12 = e * d - a * ff
    i22 = a * bb - d * d
    return np.array([
        (i00 * x0 + i01 * x1 + i02 * x2) / det,
        (i01 * x0 + i11 * x1 + i12 * x2) / det,
        (i02 * x0 + i12 * x1 + i22 * x2) / det,
    ])


# Newton/line-search step budget of one ascent
_MAX_STEPS = 200


def _ascend(q, R, grad_tol=1e-10):
    step = 0.1
    c = frame_coeffs(R)
    f = float(q @ c)
    Lq = _GENERATORS @ q
    for _ in range(_MAX_STEPS):
        Lc = _GENERATORS @ c
        g = Lc @ q
        gn = math.sqrt(g @ g)
        if gn < grad_tol:
            return R, c, f, True
        # Newton step in the 3-parameter Lie algebra; quadratic convergence
        # near the maximum, where the Hessian is negative definite
        H = -Lq @ Lc.T
        H = 0.5 * (H + H.T)
        w = _solve3(H, -g)
        if w is not None and w @ g > 0 and w @ w < 0.64:
            Rn = axis_angle_rotation(w) @ R
            cn = frame_coeffs(Rn)
            fn = float(q @ cn)
            if fn >= f:
                R, c, f = Rn, cn, fn
                continue
        # fall back to a line-searched gradient step
        while step > 1e-14:
            Rn = axis_angle_rotation(g * (step / max(gn, 1.0))) @ R
            cn = frame_coeffs(Rn)
            fn = float(q @ cn)
            if fn > f:
                R, c, f = Rn, cn, fn
                step = min(step * 1.5, 0.5)
                break
            step *= 0.5
        else:
            return R, c, f, gn < 1e-7
    return R, c, f, False


def project_to_octahedral(q, warm_start=None):
    """Closest frame to the 9-vector ``q``.

    Maximizes the inner product with exact-frame vectors by Newton-accelerated
    ascent in the Lie algebra, started from the best of a fixed seed cover of
    the rotation group (or from the rotation ``warm_start`` when it scores at
    least as well).  Returns ``(R, coeffs)``: the frame's rotation, whose
    columns are its axes, and its coefficient vector.
    """
    q = np.asarray(q, dtype=float)
    qn = np.linalg.norm(q)
    if qn <= 1e-12:
        raise ValueError("cannot project a (near-)zero vector")
    scores = _SEED_COEFFS @ q
    order = np.argsort(scores)[::-1]
    starts = [_SEED_ROTATIONS[k] for k in order[:2]]
    if warm_start is not None:
        Rw = np.asarray(warm_start, dtype=float)
        if float(q @ frame_coeffs(Rw)) >= scores.max():
            starts = [Rw]
        else:
            starts = starts[:1]
    best = None
    for R0 in starts:
        R, c, f, ok = _ascend(q, R0)
        if best is None or f > best[2]:
            best = (R, c, f)
        # the inner product is bounded by |q|; a tight first ascent cannot
        # be beaten from another basin, so skip the remaining starts
        if ok and best[2] >= qn * (1.0 - 1e-9):
            break
    return best[:2]


def closest_direction(v, R):
    """Signed column of the rotation ``R`` with maximal dot product against
    unit vector ``v``.

    Ties break toward the lowest axis index, then the positive sign.
    """
    v = np.asarray(v, dtype=float)
    axes = np.asarray(R, dtype=float).T
    dots = axes @ v
    best_i, best_s, best_d = 0, 1.0, -np.inf
    for i in range(3):
        for s in (1.0, -1.0):
            d = s * dots[i]
            if d > best_d + 1e-12:
                best_i, best_s, best_d = i, s, d
    return best_s * axes[best_i]


def octa_matching(Ra, Rb):
    """Group element index ``g`` minimizing the angle between Ra*g and Rb.

    Also takes stacks of rotations of shape (..., 3, 3) and then returns an
    index array.  Deterministic tie-break by element order.
    """
    M = np.swapaxes(np.asarray(Ra), -1, -2) @ np.asarray(Rb)
    traces = np.einsum("kij,...ij->...k", OCTA_GROUP, M)
    g = np.argmax(traces > traces.max(axis=-1, keepdims=True) - 1e-10, axis=-1)
    return int(g) if g.ndim == 0 else g


def tangency_basis(n):
    """Affine basis of the frame vectors with one axis along unit normal ``n``.

    Returns ``(h0, h1, h2)``: the constraint set is
    ``{h0 + c*h1 + s*h2 : c^2 + s^2 = 5/12}``.
    """
    D = wigner4(rotation_to_axis(n))
    h0 = np.sqrt(7.0 / 12.0) * D[:, 4]
    h1 = D[:, 8]
    h2 = D[:, 0]
    return h0, h1, h2


def axisymmetric_coeffs(v):
    """Spin-invariant singular prototype aligned with unit vector ``v``.

    Equals the average of the frame coefficients over all rotations about
    ``v``; its norm is sqrt(7/12).
    """
    D = wigner4(rotation_to_axis(v))
    return np.sqrt(7.0 / 12.0) * D[:, 4]
