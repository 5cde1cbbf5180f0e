"""Streamline tracing through frame fields.

Integrates curves tangent to one frame axis with a fourth order
Runge-Kutta scheme.  The traced axis is carried along the curve: each
sample picks the frame direction closest to the previous one, which keeps
the branch choice stable away from singularities.
"""

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from .errors import OutsideMesh, SeedOutside


# a streamline stops at a sample below this projection quality, or where
# the carried axis turns by more than 60 degrees
SINGULAR_QUALITY_CUTOFF = 0.5
DIRECTION_DOT_MIN = 0.5


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


def tet_boxes(mesh, tol=1e-10):
    """Per-tet bounding boxes ``(lo, hi)`` padded by ``tol``, for ``locate``."""
    verts = mesh.vertices[mesh.tets]
    return verts.min(axis=1) - tol, verts.max(axis=1) + tol


def locate(mesh, point, hint=None, tol=1e-10, boxes=None):
    """Tet containing ``point`` by adjacency walk, scanning as fallback.

    ``boxes`` are the ``tet_boxes(mesh, tol)`` of the scan, for callers that
    locate many points.
    """
    point = np.asarray(point, dtype=float)
    adj = mesh.adjacency
    if hint is not None:
        tet = int(hint)
        for _ in range(4 * len(mesh.tets)):
            lam = _barycentric(mesh, tet, point)
            worst = int(np.argmin(lam))
            if lam[worst] >= -tol:
                return tet
            fid = adj.tet_faces[tet, worst]
            pair = adj.face_tets[fid]
            nxt = int(pair[0]) if int(pair[1]) == tet else int(pair[1])
            if nxt < 0:
                break
            tet = nxt
    # exhaustive fallback
    lo, hi = boxes if boxes is not None else tet_boxes(mesh, tol)
    cand = np.nonzero(((point >= lo) & (point <= hi)).all(axis=1))[0]
    for tet in cand:
        lam = _barycentric(mesh, int(tet), point)
        if lam.min() >= -tol:
            return int(tet)
    return None


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


def interpolate_frame(field, point, tet_hint=None, boxes=None):
    """Projected frame at an interior point.

    Linearly interpolates the nine coefficients over the containing tet and
    projects the result.  Returns ``(rotation, quality, tet)``; ``boxes``
    is passed on to ``locate``.
    """
    tet = locate(field.mesh, point, hint=tet_hint, boxes=boxes)
    if tet is None:
        raise OutsideMesh("point %s is outside the mesh" % np.asarray(point))
    return _frame_in_tet(field, tet, point)


class _MeshSampler:
    """Frame sampler of a mesh field: ``sample`` is None outside the mesh."""

    def __init__(self, field):
        self.field = field
        self.boxes = tet_boxes(field.mesh)

    def locate(self, point, hint=None):
        return locate(self.field.mesh, point, hint=hint, boxes=self.boxes)

    def sample(self, point, hint):
        tet = self.locate(point, hint)
        return None if tet is None else _frame_in_tet(self.field, tet, point)


def _clip_to_boundary(sampler, p, d, h, hint):
    """Last inside point along the segment p -> p + h*d (bisection); each
    point is located from the last inside tet, starting at ``hint``."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        tet = sampler.locate(p + mid * d, hint)
        if tet is None:
            hi = mid
        else:
            lo, hint = mid, tet
    return p + lo * d


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
    R, q, tet = got
    if tet is not None:
        hint = tet
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
    hint = None
    got = sampler.sample(p, hint)
    if got is None:
        raise SeedOutside("seed %s is outside the mesh" % p)
    R0, q0, hint = got
    if q0 < SINGULAR_QUALITY_CUTOFF:
        return Streamline([p], np.zeros((0, 3)), "HitSingularRegion", 0.0)
    d = fr.closest_direction(np.asarray(direction, dtype=float), R0)

    points = [p.copy()]
    directions = [d.copy()]
    length = 0.0
    termination = "MaxLength"
    while length < max_len:
        # RK4 stages take the axis closest to the previous stage's; the end
        # point takes the axis closest to the last stage, checked against d
        step = None
        vs = []
        for frac in (0.0, 0.5, 0.5, 1.0):
            base = vs[-1] if vs else d
            stop, v, hint = _axis_at(sampler, p + frac * h * base, hint,
                                     base, base)
            if stop:
                break
            vs.append(v)
        else:
            step = (h / 6.0) * (vs[0] + 2.0 * vs[1] + 2.0 * vs[2] + vs[3])
            stop, v, hint = _axis_at(sampler, p + step, hint, vs[3], d)
        if stop == "ExitedBoundary":
            p_end = _clip_to_boundary(sampler, p, d if step is None else step / h,
                                      h, hint)
            if np.linalg.norm(p_end - p) > 1e-14:
                length += np.linalg.norm(p_end - p)
                points.append(p_end)
                directions.append(d.copy())
        if stop:
            termination = stop
            break
        length += np.linalg.norm(step)
        p = p + step
        d = v
        points.append(p.copy())
        directions.append(d.copy())
    return Streamline(points, directions, termination, length)
