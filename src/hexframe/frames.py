"""Octahedral frame representation in the degree-4 rotation band.

A frame (an unordered triple of mutually orthogonal axes) is encoded by a
9-component coefficient vector ``c = D(R) h`` where ``D(R)`` is the 9x9
rotation matrix acting on the degree-4 band of real rotation-equivariant
functions and ``h`` is the reference vector with components sqrt(7/12) at
m=0 and sqrt(5/12) at m=+4.  Components are ordered m = -4..+4 (sine terms
for negative m, cosine terms for positive m).  A frame's representative
rotation ``R`` is a plain (3, 3) array whose columns are the frame's axes.

Coefficients are linear in the frame's 4th-order moment tensor
``sum_k a_k (x) a_k (x) a_k (x) a_k`` over its axes ``a_k`` (the tensor
representation of Chemin, Henrotte, Remacle and Van Schaftingen), so one
(81, 9) moment map, fitted at import to ``wigner4``, gives the coefficients
of one frame or a whole stack, with no Euler angles and no gimbal branch.
"""

import itertools
import math

import numpy as np

from ._seed_normals import NORMALS
from .mesh import row_dots

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


def rotation_rows(R):
    """Which matrices of a (..., 3, 3) float stack are rotations: row Gram
    entries within 1e-8 of the identity and a positive determinant."""
    gram = R @ np.swapaxes(R, -1, -2)
    with np.errstate(invalid="ignore"):  # a NaN row fails the Gram test
        det = np.linalg.det(R)
    return (np.abs(gram - np.eye(3)) <= 1e-8).all(axis=(-2, -1)) & (det > 0)


def _check_rotation(R):
    """``R`` as a float array when it is a rotation or a stack of them, by
    the rule of ``rotation_rows``."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3) or not rotation_rows(R).all():
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
        # R = Rz(a) Ry(pi) = [[-cos a, -sin a, 0], [-sin a, cos a, 0], ...]
        return math.atan2(-r10, -r00), math.pi, 0.0
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


def _build_seed_rotations(count=100):
    # quasi-uniform cover of the rotation group, identity first; with this
    # density the best-scoring seed reliably sits in the Newton basin of the
    # global maximum, so one ascent from it suffices.  A smaller count (at
    # most 100) takes a prefix of the same cover.
    w, x, y, z = np.array(NORMALS[:4 * (count - 1)]).reshape(count - 1, 4).T
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return np.concatenate([np.eye(3)[None], R.transpose(2, 0, 1)])


_SEED_ROTATIONS = _build_seed_rotations()


def _moments(A):
    """Flattened 4th-order moment tensor ``sum_k a_k (x) a_k (x) a_k (x) a_k``
    of the columns ``a_k`` of ``A``: (..., 3, k) to (..., 81)."""
    B = (A[..., :, None, :] * A[..., None, :, :]).reshape(
        A.shape[:-2] + (9, A.shape[-1]))
    return (B @ B.swapaxes(-1, -2)).reshape(A.shape[:-2] + (81,))


def _fit_moment_map():
    """The (81, 9) map from moments to coefficients that vanishes off the
    span of the rotations' moments.

    The coefficient vector is linear in the moment tensor, and the moment
    tensors of rotations span 10 dimensions.  Gram-Schmidt over the first
    20 seeds' moments, each step taking the largest residual and carrying
    their ``wigner4`` coefficients along, fits the map to 3e-15 with no
    LAPACK call, whose first use would cost ~1 MB of resident memory.
    """
    X = _moments(_SEED_ROTATIONS[:20])
    C = np.array([wigner4(R) @ REFERENCE_COEFFS for R in _SEED_ROTATIONS[:20]])
    Q, D = [], []
    for _ in range(10):
        k = np.argmax((X * X).sum(axis=1))
        n = math.sqrt(X[k] @ X[k])
        q, d = X[k] / n, C[k] / n
        t = X @ q
        X, C = X - t[:, None] * q, C - t[:, None] * d
        Q.append(q)
        D.append(d)
    return np.transpose(Q) @ np.array(D)


_MOMENT_MAP = _fit_moment_map()


def frame_coeffs(R):
    """Coefficient vector ``wigner4(R) @ REFERENCE_COEFFS`` of a rotation or
    a stack of rotations (..., 3, 3), unchecked.  A stack of row products
    rounds each row as the row alone does."""
    return (_moments(R)[..., None, :] @ _MOMENT_MAP)[..., 0, :]


def coeffs_from_rotation(R):
    """Coefficient vector of the frame represented by rotation ``R``, or
    (..., 9) for a stack of rotations."""
    return frame_coeffs(_check_rotation(R))


_EYE3 = np.eye(3)
# maps an axis k to its flattened cross-product matrix [k]x
_CROSS = np.cross(_EYE3[:, None], _EYE3).swapaxes(1, 2).reshape(3, 9)


def axis_angle_rotation(w):
    """Rotation matrix of the axis-angle vector ``w`` (Rodrigues); (..., 3)
    to (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(w[..., None, :] @ w[..., :, None])
    K = (w[..., None, :] / np.maximum(theta, 1e-300) @ _CROSS).reshape(
        w.shape[:-1] + (3, 3))
    return _EYE3 + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def rotation_to_axis(v):
    """The rotation about ``z x v`` that maps the z axis onto the direction
    ``v``; (..., 3) to (..., 3, 3).  The antipode of z gets the half turn
    about x."""
    v = np.asarray(v, dtype=float)
    x, y, z = np.moveaxis(v / np.linalg.norm(v, axis=-1, keepdims=True), -1, 0)
    south = z < 0.0
    # k = 1 / (1 + z), as (1 - z) / (x^2 + y^2) below the equator where
    # 1 + z cancels
    den = np.where(south, x * x + y * y, 1.0 + z)
    pole = den < 1e-200
    k = np.where(south, 1.0 - z, 1.0) / np.where(pole, 1.0, den)
    R = np.moveaxis(np.array([[1.0 - k * x * x, -k * x * y, x],
                              [-k * x * y, 1.0 - k * y * y, y],
                              [-x, -y, z]]), (0, 1), (-2, -1))
    return np.where(pole[..., None, None], np.diag([1.0, -1.0, -1.0]), R)


# --- octahedral group -------------------------------------------------------

def _build_octa_group():
    # the signed permutation matrices of determinant +1
    mats = [np.diag(sign) @ np.array(P)
            for P in itertools.permutations(np.eye(3))
            for sign in itertools.product((1.0, -1.0), repeat=3)]
    mats = [M for M in mats if np.linalg.det(M) > 0]
    # identity first, remaining elements in a fixed lexicographic order
    mats.sort(key=lambda M: (np.trace(M) < 3 - 1e-9, tuple(-M.ravel())))
    return np.array(mats)


#: The 24 rotations of the cube; element 0 is the identity.  The order is
#: fixed (identity first, then descending lexicographic on the entries).
OCTA_GROUP = _build_octa_group()

# Cayley table and inverses; trace(G_k^T P) is 3 only where G_k = P
_OCTA_MUL = np.argmax(
    np.einsum("kij,aim,bmj->abk", OCTA_GROUP, OCTA_GROUP, OCTA_GROUP), axis=-1)
_OCTA_INV = np.argmax(_OCTA_MUL == 0, axis=1)


def octa_compose(i, j):
    """Index of the product OCTA_GROUP[i] @ OCTA_GROUP[j]; elementwise on
    index arrays."""
    g = _OCTA_MUL[i, j]
    return int(g) if np.ndim(g) == 0 else g


def octa_inverse(i):
    """Index of the inverse of OCTA_GROUP[i]."""
    return int(_OCTA_INV[i])


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

_SEED_COEFFS = frame_coeffs(_SEED_ROTATIONS)


def _gradient_map():
    """(9, 108) map X such that ``(q @ X).reshape(12, 9) @ c`` is the gradient
    ``q . L_a c`` and the symmetrized Hessian ``-(L_a q . L_b c + L_b q .
    L_a c) / 2`` of ``q . c`` in the Lie algebra, at the frame vector c."""
    L = _GENERATORS
    H = [-0.5 * (L[a].T @ L[b] + L[b].T @ L[a]) for a in range(3) for b in range(3)]
    return np.hstack([*L, *H])


_GRADIENT_MAP = _gradient_map()


def _cofactor_entries():
    """Flattened entry indices (2, 18) of the products that make each
    cofactor M[a, c] M[b, d] - M[a, d] M[b, c] of a 3x3 matrix M, with a, b =
    i+1, i+2 and c, d = j+1, j+2 (mod 3): the nine first products, then the
    nine second ones."""
    i, j = np.divmod(np.arange(9), 3)
    a, b, c, d = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return np.array([np.concatenate([3 * a + c, 3 * a + d]),
                     np.concatenate([3 * b + d, 3 * b + c])])


_COFACTOR_LEFT, _COFACTOR_RIGHT = _cofactor_entries()
# Newton/line-search step budget of one ascent
_MAX_STEPS = 200
# rows projected together, which bounds the line search's transient arrays
_CHUNK = 1024
# a line search's step factors: halvings 0-3, then every further halving
# that can stay above 1e-14 from the largest step, 0.5
_HALVINGS = (0.5 ** np.arange(4), 0.5 ** np.arange(4, 46))


def _cofactors(M):
    """Cofactor matrices, the transposed adjugates, and determinants of 3x3
    matrices (n, 3, 3).

    Each cofactor is one difference of two gathered products, with a zero
    difference as +0.  The cofactors come back C-contiguous: a stacked
    matmul rounds by its operands' layout, not only by their values.
    """
    m = M.reshape(-1, 9)
    p = m.take(_COFACTOR_LEFT, axis=1) * m.take(_COFACTOR_RIGHT, axis=1)
    cof = p[:, :9] - p[:, 9:]
    cof += 0.0  # -0 (a -0 product less a +0 one) becomes +0
    cof = cof.reshape(-1, 3, 3)
    return cof, row_dots(M[:, 0], cof[:, 0])


def _peaks(H, tol):
    """Where the symmetric 3x3 Hessians ``H`` have no eigenvalue reaching
    ``tol``: Sylvester's criterion on ``tol*I - H``."""
    M = tol[:, None, None] * _EYE3 - H
    cof, det = _cofactors(M)
    return (M[:, 0, 0] > 0) & (cof[:, 2, 2] > 0) & (det > 0)


def _step(Q, R, C, F, step, g, gn, H, flat, peak):
    """One ascent step of the rows that are not ``flat``, in place: a Newton
    step where it does not fall, else, off a ``peak``, a line-searched
    gradient step.  Returns the rows off a peak where no step rose."""
    # Newton; quadratic convergence near the maximum, where the Hessian is
    # negative definite
    cof, det = _cofactors(H)
    solvable = np.abs(det) >= 1e-300
    w = (-g[:, None] @ cof)[:, 0] / np.where(solvable, det, 1.0)[:, None]
    newton = ~flat & solvable & (row_dots(w, g) > 0) & (row_dots(w, w) < 0.64)
    count = np.count_nonzero(newton)
    if count:
        # whole arrays where every row steps, which keeps one row cheap
        r = slice(None) if count == len(F) else newton
        Rn = axis_angle_rotation(w[r]) @ R[r]
        Cn = frame_coeffs(Rn)
        Fn = row_dots(Q[r], Cn)
        up = Fn >= F[r]
        if np.count_nonzero(up) == len(F):
            R[:], C[:], F[:] = Rn, Cn, Fn
            return np.arange(0)
        newton[r] = up
        R[newton], C[newton], F[newton] = Rn[up], Cn[up], Fn[up]
    # the line search: the step size halved 0-3 times, then, where none
    # rose, every further halving above 1e-14; the first rise wins
    left = np.flatnonzero(~(flat | peak | newton))
    for factors in _HALVINGS:
        if not len(left):
            break
        s = step[left, None] * factors
        W = g[left, None] * (s / np.maximum(gn[left], 1.0)[:, None])[..., None]
        Rn = axis_angle_rotation(W) @ R[left, None]
        Cn = frame_coeffs(Rn)
        Fn = (Cn[..., None, :] @ Q[left, None, :, None])[..., 0, 0]
        rise = (s > 1e-14) & (Fn > F[left, None])
        rose = rise.any(axis=1)
        k = rise[rose].argmax(axis=1)
        r = left[rose]
        R[r], C[r], F[r] = Rn[rose, k], Cn[rose, k], Fn[rose, k]
        step[r] = np.minimum(s[rose, k] * 1.5, 0.5)
        left = left[~rose]
    return left


def _ascent(Q, R, C):
    """Ascent of each row's ``q @ frame_coeffs(R)`` from its rotation ``R``
    (n, 3, 3), whose coefficients ``frame_coeffs(R)`` are ``C``; returns
    ``(R, c, f, ok)`` where ``ok`` says that a row stopped at a maximum.
    A row leaves the working set, whose arrays are kept compact, once its
    gradient vanishes (norm below 1e-10), once no step rises, or at a
    resolved peak: gradient norm below 1e-7 and a negative definite
    Hessian, where it takes its Newton step if that does not fall and no
    line search.  Newton converges quadratically there, so one more
    iteration would only show the objective's last bits."""
    n = len(Q)
    out = np.empty((n, 3, 3)), np.empty((n, 9)), np.empty(n), np.zeros(n, dtype=bool)
    R, C = np.array(R, dtype=float), np.array(C, dtype=float)
    F = row_dots(Q, C)
    QB = (Q[:, None] @ _GRADIENT_MAP).reshape(-1, 12, 9)
    tol = 1e-9 * np.sqrt(row_dots(Q, Q))
    step = np.full(n, 0.1)
    idx = np.arange(n)
    for _ in range(_MAX_STEPS):
        # gradient and Hessian in the 3-parameter Lie algebra
        gH = (QB @ C[:, :, None])[..., 0]
        g, H = gH[:, :3], gH[:, 3:].reshape(-1, 3, 3)
        gn = np.sqrt(row_dots(g, g))
        stop = gn < 1e-10
        peak = gn < 1e-7
        if np.count_nonzero(peak):
            peak[peak] = _peaks(H[peak], tol[peak])
        if np.count_nonzero(stop) < len(idx):
            stop[_step(Q, R, C, F, step, g, gn, H, stop, peak)] = True
        stop |= peak
        if np.count_nonzero(stop):
            ok = peak[stop]
            if len(ok) == n:
                return R, C, F, ok
            i = idx[stop]
            out[0][i], out[1][i], out[2][i], out[3][i] = R[stop], C[stop], F[stop], ok
            keep = ~stop
            if not np.count_nonzero(keep):
                return out
            Q, QB, tol, step, idx, R, C, F = (
                a[keep] for a in (Q, QB, tol, step, idx, R, C, F))
    out[0][idx], out[1][idx], out[2][idx] = R, C, F
    return out


def _project(Q, warm):
    """``project_to_octahedral`` of the rows ``Q`` (n, 9), with warm starts
    ``warm`` (n, 3, 3) or None."""
    rows = np.arange(len(Q))
    scores = (_SEED_COEFFS @ Q[:, :, None])[..., 0]
    best = scores.argmax(axis=1)
    starts, coeffs = _SEED_ROTATIONS[best], _SEED_COEFFS[best]
    used = np.zeros(len(Q), dtype=bool)
    if warm is not None:
        # a NaN warm row scores NaN, is never used, and keeps the cold rule
        warm_coeffs = frame_coeffs(warm)
        used = row_dots(Q, warm_coeffs) >= scores[rows, best]
        starts[used], coeffs[used] = warm[used], warm_coeffs[used]
    # a cold row's next start is its 2nd best seed, a warm row's the best
    scores[rows[~used], best[~used]] = -np.inf
    R, C, F, ok = _ascent(Q, starts, coeffs)
    todo = np.flatnonzero(~ok)
    if len(todo):
        after = scores[todo].argmax(axis=1)
        Rj, Cj, Fj, _ = _ascent(Q[todo], _SEED_ROTATIONS[after], _SEED_COEFFS[after])
        up = Fj > F[todo]
        R[todo[up]], C[todo[up]], F[todo[up]] = Rj[up], Cj[up], Fj[up]
    return R, C


def project_to_octahedral(Q, warm_start=None):
    """Closest frame to the 9-vector ``Q``, or to each row of a stack (n, 9).

    Maximizes the inner product with exact-frame vectors by Newton-accelerated
    ascent in the Lie algebra.  Each row ascends once from its best start:
    its warm start (one rotation per row, (3, 3) or (n, 3, 3)) where that
    scores at least as well as the best of a fixed 100-rotation seed cover,
    else that best seed.  An ascent ends at a peak once the gradient norm is
    below 1e-7, with one last Newton step.  Only a row whose ascent does not
    end at a maximum ascends again, from its next start (the best seed after
    a warm start, else the 2nd best seed), and keeps the higher of the two.
    A warm row holding a NaN means no warm start there: that row is
    projected as a cold one.  Returns ``(R, coeffs)``: the frame's
    rotation, whose columns are its axes, and its coefficient vector, (n, 3,
    3) and (n, 9) for a stack.  A stack gives the same bits as its rows.
    Raises ``ValueError`` for a near-zero or non-finite row, and for a warm
    start of another shape.
    """
    Q = np.ascontiguousarray(Q, dtype=float)
    rows = Q.reshape(-1, 9)
    if not np.isfinite(rows).all() or (np.sqrt(row_dots(rows, rows)) <= 1e-12).any():
        raise ValueError("cannot project a (near-)zero or non-finite vector")
    warm = None
    if warm_start is not None:
        warm = np.asarray(warm_start, dtype=float)
        if warm.shape != Q.shape[:-1] + (3, 3):
            raise ValueError("warm_start of shape %s for vectors of shape %s"
                             % (warm.shape, Q.shape))
        warm = np.ascontiguousarray(warm).reshape(-1, 3, 3)
    R = np.empty((len(rows), 3, 3))
    C = np.empty((len(rows), 9))
    for s in range(0, len(rows), _CHUNK):
        part = slice(s, s + _CHUNK)
        R[part], C[part] = _project(rows[part], None if warm is None else warm[part])
    return R.reshape(Q.shape[:-1] + (3, 3)), C.reshape(Q.shape)


def project_rows(c, warm_start=None):
    """Frames (n, 3, 3) and alignment qualities (n,) of the rows (n, 9) of
    ``c``, each warm started from its row of ``warm_start``, if given; a row
    of norm at most 1e-9, or not finite, keeps the identity frame, quality 0."""
    nc = np.sqrt(row_dots(c, c))
    live = (nc > 1e-9) & (nc < np.inf)
    R = np.tile(np.eye(3), (len(c), 1, 1))
    q = np.zeros(len(c))
    R[live], pc = project_to_octahedral(
        c[live], warm_start=None if warm_start is None else warm_start[live])
    q[live] = row_dots(c[live] / nc[live, None], pc)
    return R, q


def closest_direction(v, R):
    """Signed column of the rotation ``R`` with maximal dot product against
    unit vector ``v``.

    Also takes stacks, (n, 3) vectors and (n, 3, 3) rotations, either one
    broadcast, and then returns (n, 3).  A candidate wins only by more than
    1e-12, scanned from the lowest axis index and the positive sign first,
    so ties break toward those.
    """
    v = np.asarray(v, dtype=float)
    axes = np.swapaxes(np.asarray(R, dtype=float), -1, -2)
    dots = (axes @ v[..., None])[..., 0]
    # candidates +axis 0, -axis 0, +axis 1, ...
    signed = np.stack([dots, -dots], axis=-1).reshape(dots.shape[:-1] + (6,))
    best = np.zeros(dots.shape[:-1], dtype=np.int64)
    best_d = np.full(dots.shape[:-1], -np.inf)
    for k in range(6):
        win = signed[..., k] > best_d + 1e-12
        best = np.where(win, k, best)
        best_d = np.where(win, signed[..., k], best_d)
    axes = np.broadcast_to(axes, dots.shape[:-1] + (3, 3))
    pick = np.take_along_axis(axes, best[..., None, None] // 2, axis=-2)[..., 0, :]
    return np.where((best % 2 == 1)[..., None], -pick, pick)


def octa_matching(Ra, Rb):
    """Group element index ``g`` minimizing the angle between Ra*g and Rb.

    Also takes stacks of rotations of shape (..., 3, 3) and then returns an
    index array.  Deterministic tie-break by element order.
    """
    M = np.swapaxes(np.asarray(Ra), -1, -2) @ np.asarray(Rb)
    traces = np.einsum("kij,...ij->...k", OCTA_GROUP, M)
    g = np.argmax(traces > traces.max(axis=-1, keepdims=True) - 1e-10, axis=-1)
    return int(g) if g.ndim == 0 else g


_EIGHTH_TURN_Z = axis_angle_rotation([0.0, 0.0, np.pi / 8.0])


def tangency_basis(n):
    """Affine basis of the frame vectors with one axis along unit normal ``n``.

    Returns ``(h0, h1, h2)``, each (..., 9) for normals (..., 3): the
    constraint set is ``{h0 + c*h1 + s*h2 : c^2 + s^2 = 5/12}``.  ``h1`` and
    ``h2`` are the unit spin parts (m = +4 and m = -4 about ``n``) of the
    frame ``rotation_to_axis(n)`` and of that frame turned by an eighth
    about ``n``.
    """
    Rn = rotation_to_axis(n)
    h0 = axisymmetric_coeffs(n)
    spin = REFERENCE_COEFFS[8]
    h1 = (frame_coeffs(Rn) - h0) / spin
    h2 = (frame_coeffs(Rn @ _EIGHTH_TURN_Z) - h0) / spin
    return h0, h1, h2


def axisymmetric_coeffs(v):
    """Spin-invariant singular prototype aligned with direction ``v``; (..., 3)
    to (..., 9).

    Equals the average of the frame coefficients over all rotations about
    ``v``, whose moment tensor is ``7/4 v(x)v(x)v(x)v`` up to terms the
    moment map drops; its norm is sqrt(7/12).
    """
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return 1.75 * frame_coeffs(v[..., None])
