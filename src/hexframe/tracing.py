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


@dataclass
class TracerConfig:
    step_size: float = 0.0            # 0 -> half the mean edge length
    max_length: float = 0.0           # 0 -> 20 bounding box diagonals
    singular_quality_cutoff: float = 0.5
    direction_dot_min: float = 0.5


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


def interpolate_frame(field, point, tet_hint=None, boxes=None):
    """Projected frame at an interior point.

    Linearly interpolates the nine coefficients over the containing tet and
    projects the result.  Returns ``(rotation, quality, tet)``; ``boxes``
    is passed on to ``locate``.
    """
    mesh = field.mesh
    tet = locate(mesh, point, hint=tet_hint, boxes=boxes)
    if tet is None:
        raise OutsideMesh("point %s is outside the mesh" % np.asarray(point))
    lam = np.clip(_barycentric(mesh, tet, np.asarray(point, dtype=float)), 0.0, 1.0)
    vids = mesh.tets[tet]
    c = lam @ field.coeffs[vids]
    frames, _ = field.vertex_frames()
    warm = frames[vids[int(np.argmax(lam))]]
    proj = fr.project_to_octahedral(c, warm_start=warm)
    q = float((c / np.linalg.norm(c)) @ proj.coeffs)
    return proj.frame.R, q, tet


class _MeshSampler:
    def __init__(self, field):
        self.field = field
        self.boxes = tet_boxes(field.mesh)

    def sample(self, point, hint):
        try:
            R, q, tet = interpolate_frame(self.field, point, tet_hint=hint,
                                          boxes=self.boxes)
        except OutsideMesh:
            return None
        return R, q, tet


def _clip_to_boundary(sampler, p, d, h):
    """Last inside point along the segment p -> p + h*d (bisection)."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sampler.sample(p + mid * d, None) is None:
            hi = mid
        else:
            lo = mid
    return p + lo * d


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
    if q0 < config.singular_quality_cutoff:
        return Streamline([p], np.zeros((0, 3)), "HitSingularRegion", 0.0)
    d = fr.closest_direction(np.asarray(direction, dtype=float), fr.Frame(R0))

    points = [p.copy()]
    directions = [d.copy()]
    length = 0.0
    termination = "MaxLength"
    while length < max_len:
        exited = False
        bad = False
        prev = d
        vs = []
        for frac, ref in ((0.0, None), (0.5, None), (0.5, None), (1.0, None)):
            base = prev if not vs else vs[-1]
            q_pt = p + frac * h * base
            got = sampler.sample(q_pt, hint)
            if got is None:
                exited = True
                break
            Rk, qk, hint2 = got
            if hint2 is not None:
                hint = hint2
            if qk < config.singular_quality_cutoff:
                bad = True
                break
            v = fr.closest_direction(base, fr.Frame(Rk))
            if v @ base < config.direction_dot_min:
                bad = True
                break
            vs.append(v)
        if exited:
            p_end = _clip_to_boundary(sampler, p, prev, h)
            if np.linalg.norm(p_end - p) > 1e-14:
                length += np.linalg.norm(p_end - p)
                points.append(p_end)
                directions.append(prev.copy())
            termination = "ExitedBoundary"
            break
        if bad:
            termination = "HitSingularRegion"
            break
        v1, v2, v3, v4 = vs
        step = (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        p_new = p + step
        got = sampler.sample(p_new, hint)
        if got is None:
            p_end = _clip_to_boundary(sampler, p, step / h, h)
            if np.linalg.norm(p_end - p) > 1e-14:
                length += np.linalg.norm(p_end - p)
                points.append(p_end)
                directions.append(prev.copy())
            termination = "ExitedBoundary"
            break
        Rn, qn, hint2 = got
        if hint2 is not None:
            hint = hint2
        if qn < config.singular_quality_cutoff:
            termination = "HitSingularRegion"
            break
        d_new = fr.closest_direction(v4, fr.Frame(Rn))
        if d_new @ prev < config.direction_dot_min:
            termination = "HitSingularRegion"
            break
        length += np.linalg.norm(step)
        p = p_new
        d = d_new
        points.append(p.copy())
        directions.append(d.copy())
    return Streamline(points, directions, termination, length)
