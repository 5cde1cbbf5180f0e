"""Streamline tracing through frame fields.

Integrates curves tangent to one frame axis with a fourth order
Runge-Kutta scheme.  The traced axis is carried along the curve: each
sample picks the frame direction closest to the previous one, which keeps
the branch choice stable away from singularities.
"""

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from .errors import OutsideMesh, SeedOutside, WalkFailed


# a streamline stops at a sample below this projection quality, or where
# the carried axis turns by more than 60 degrees
SINGULAR_QUALITY_CUTOFF = 0.5
DIRECTION_DOT_MIN = 0.5
# barycentric slack of the inside test
TOL = 1e-10


@dataclass
class TracerConfig:
    step_size: float = 0.0            # 0 -> half the mean edge length
    max_length: float = 0.0           # 0 -> 20 bounding box diagonals


class Streamline:
    def __init__(self, points, directions, termination, length):
        self.points = np.asarray(points, dtype=float)
        self.directions = np.asarray(directions, dtype=float)
        self.termination = termination  # ExitedBoundary | MaxLength | HitSingularRegion
        self.length = length

    def __repr__(self):
        return "Streamline(points=%d, length=%.4g, %s)" % (
            len(self.points), self.length, self.termination)


def _barycentric(mesh, tet, p):
    v = mesh.vertices[mesh.tets[tet]]
    T = (v[1:] - v[0]).T
    lam = np.linalg.solve(T, p - v[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def locate(mesh, point):
    """Tet containing ``point`` by a scan of all tets; None outside."""
    point = np.asarray(point, dtype=float)
    verts = mesh.vertices[mesh.tets]
    near = (point >= verts.min(axis=1) - TOL) & (point <= verts.max(axis=1) + TOL)
    for tet in np.nonzero(near.all(axis=1))[0]:
        if _barycentric(mesh, int(tet), point).min() >= -TOL:
            return int(tet)
    return None


def _walk(mesh, tet, p, q):
    """Straight walk along the segment p -> q from ``tet``, a tet holding p
    (Devillers, Pion and Teillaud 2002).

    Each tet is left through the face the segment crosses first.  Returns
    ``(tet, 1.0)`` with ``tet`` holding q, or ``(None, s)`` when the segment
    leaves the mesh through a boundary face at ``p + s * (q - p)``.  Raises
    ``WalkFailed`` when ``len(mesh.tets)`` crossings do not end it.
    """
    adj = mesh.adjacency
    for _ in range(len(mesh.tets)):
        lq = _barycentric(mesh, tet, q)
        if lq.min() >= -TOL:
            return tet, 1.0
        lp = _barycentric(mesh, tet, p)
        # where the segment reaches -TOL on each face that q lies beyond
        drop = lp - lq
        s = np.divide(lp + TOL, drop, out=np.zeros(4), where=drop > 0)
        s[lq >= -TOL] = np.inf
        face = int(np.argmin(s))
        pair = adj.face_tets[adj.tet_faces[tet, face]]
        nxt = int(pair[0]) if int(pair[1]) == tet else int(pair[1])
        if nxt < 0:
            return None, max(float(s[face]), 0.0)
        tet = nxt
    raise WalkFailed("walk from %s to %s crossed %d tets" % (p, q, len(mesh.tets)))


def _frame_in_tet(field, tet, point):
    lam = np.clip(_barycentric(field.mesh, tet, np.asarray(point, dtype=float)),
                  0.0, 1.0)
    vids = field.mesh.tets[tet]
    c = lam @ field.coeffs[vids]
    nc = np.linalg.norm(c)
    if nc <= 1e-9:
        # as vertex_frames: the identity frame with quality 0
        return np.eye(3), 0.0, tet
    frames, _ = field.vertex_frames()
    warm = frames[vids[int(np.argmax(lam))]]
    R, pc = fr.project_to_octahedral(c, warm_start=warm)
    return R, float((c / nc) @ pc), tet


def interpolate_frame(field, point):
    """Projected frame at an interior point.

    Linearly interpolates the nine coefficients over the containing tet and
    projects the result.  Returns ``(rotation, quality, tet)``.
    """
    tet = locate(field.mesh, point)
    if tet is None:
        raise OutsideMesh("point %s is outside the mesh" % np.asarray(point))
    return _frame_in_tet(field, tet, point)


class _MeshSampler:
    """Frame sampler of a mesh field: ``sample`` is None outside the mesh.
    Its hint ``(tet, point)`` starts walks to later points; with no hint,
    the seed scan finds the point."""

    def __init__(self, field):
        self.field = field

    def sample(self, point, hint):
        mesh = self.field.mesh
        tet = locate(mesh, point) if hint is None else _walk(mesh, *hint, point)[0]
        if tet is None:
            return None
        R, q, tet = _frame_in_tet(self.field, tet, point)
        return R, q, (tet, point)


def _axis_at(sampler, point, hint, ref, check):
    """Frame axis at ``point`` closest to ``ref``, checked against ``check``.

    Returns ``(termination, axis, hint)``; ``termination`` is None when the
    axis is usable, "ExitedBoundary" outside the mesh, and
    "HitSingularRegion" at low projection quality or when the axis turns
    away from ``check``.
    """
    got = sampler.sample(point, hint)
    if got is None:
        return "ExitedBoundary", None, hint
    R, q, hint = got
    if q < SINGULAR_QUALITY_CUTOFF:
        return "HitSingularRegion", None, hint
    v = fr.closest_direction(ref, R)
    if v @ check < DIRECTION_DOT_MIN:
        return "HitSingularRegion", None, hint
    return None, v, hint


def trace(field, seed, direction, config=None):
    """Streamline through the frame field from ``seed`` along ``direction``.

    The initial direction snaps to the closest frame axis at the seed and
    is then carried by closest-direction chaining through every Runge-Kutta
    sample.  Terminates on boundary exit, on reaching the length budget, or
    when the field becomes unreliable (low projection quality or an abrupt
    direction flip near a singularity).
    """
    config = config or TracerConfig()
    sampler = field if hasattr(field, "sample") else _MeshSampler(field)
    mesh = field.mesh if hasattr(field, "mesh") else None
    h = config.step_size
    if h <= 0.0:
        h = 0.5 * mesh.mean_edge_length()
    max_len = config.max_length
    if max_len <= 0.0:
        max_len = 20.0 * mesh.bounding_box_diagonal()

    p = np.asarray(seed, dtype=float)
    got = sampler.sample(p, None)
    if got is None:
        raise SeedOutside("seed %s is outside the mesh" % p)
    R0, q0, start = got
    if q0 < SINGULAR_QUALITY_CUTOFF:
        return Streamline([p], np.zeros((0, 3)), "HitSingularRegion", 0.0)
    d = fr.closest_direction(np.asarray(direction, dtype=float), R0)

    points = [p.copy()]
    directions = [d.copy()]
    length = 0.0
    termination = "MaxLength"
    while length < max_len:
        # RK4 stages take the axis closest to the previous stage's; the end
        # point takes the axis closest to the last stage, checked against d.
        # Stage 0 is p, whose sample (the seed's or the last end point's)
        # gave d, so its axis closest to d is d itself.
        step = None
        vs = [d]
        for frac in (0.5, 0.5, 1.0):
            stop, v, _ = _axis_at(sampler, p + frac * h * vs[-1], start,
                                  vs[-1], vs[-1])
            if stop:
                break
            vs.append(v)
        else:
            step = (h / 6.0) * (vs[0] + 2.0 * vs[1] + 2.0 * vs[2] + vs[3])
            stop, v, hint = _axis_at(sampler, p + step, start, vs[3], d)
        if stop == "ExitedBoundary":
            # a mesh field: end where the step's segment leaves the mesh
            q = p + (h * d if step is None else step)
            p_end = p + _walk(mesh, *start, q)[1] * (q - p)
            if np.linalg.norm(p_end - p) > 1e-14:
                length += np.linalg.norm(p_end - p)
                points.append(p_end)
                directions.append(d.copy())
        if stop:
            termination = stop
            break
        length += np.linalg.norm(step)
        p, start = p + step, hint
        d = v
        points.append(p.copy())
        directions.append(d.copy())
    return Streamline(points, directions, termination, length)
