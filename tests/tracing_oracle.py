"""Reference point location and exit search for streamline tracing.

The tracer as it was before every sample was reached by a straight walk: a
greedy walk from the last sampled tet with an all-tet box scan as its
fallback (``locate``), and a 60-step bisection for the exit point
(``_clip_to_boundary``).  ``trace`` runs the RK4 loop with them, one line
at a time and one one-row projection per sample.  The tests require the
library's lockstep plans to reproduce its results.
"""

import numpy as np

import hexframe.frames as fr
from hexframe.errors import SeedOutside
from hexframe.tracing import (
    DIRECTION_DOT_MIN,
    SINGULAR_QUALITY_CUTOFF,
    Streamline,
    TracerConfig,
)


def _barycentric(mesh, tet, p):
    v = mesh.vertices[mesh.tets[tet]]
    T = (v[1:] - v[0]).T
    lam = np.linalg.solve(T, p - v[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def _frame_in_tet(field, tet, point):
    """Projected frame at ``point`` in ``tet`` by one one-row projection:
    ``(rotation, quality, tet)``."""
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


def _axis_at(sampler, point, hint, ref, check):
    """Frame axis at ``point`` closest to ``ref``, checked against ``check``:
    ``(termination, axis, hint)``, the termination None where usable."""
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


def tet_boxes(mesh, tol=1e-10):
    """Per-tet bounding boxes ``(lo, hi)`` padded by ``tol``, for ``locate``."""
    verts = mesh.vertices[mesh.tets]
    return verts.min(axis=1) - tol, verts.max(axis=1) + tol


def locate(mesh, point, hint=None, tol=1e-10, boxes=None):
    """Tet containing ``point`` by adjacency walk, scanning as fallback."""
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


class _MeshSampler:
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


def trace(field, seed, direction, config=None):
    """``hexframe.tracing.trace`` with each sample located from the last
    sampled tet and the exit point found by bisection."""
    config = config or TracerConfig()
    sampler = _MeshSampler(field)
    mesh = field.mesh
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
