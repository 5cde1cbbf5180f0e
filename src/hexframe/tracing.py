"""Streamline tracing through frame fields.

Integrates curves tangent to one frame axis with a fourth order
Runge-Kutta scheme.  The traced axis is carried along the curve: each
sample picks the frame direction closest to the previous one, which keeps
the branch choice stable away from singularities.  All streamlines of a
batch advance in lockstep: each RK4 stage is one batched walk and one
stacked projection over the lines still running, and a stack gives the
same bits as its rows.
"""

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from .errors import SeedOutside, WalkFailed
from .mesh import row_dots


# a streamline stops at a sample below this projection quality, or where
# the carried axis turns by more than 60 degrees
SINGULAR_QUALITY_CUTOFF = 0.5
DIRECTION_DOT_MIN = 0.5
# barycentric slack of the inside test
TOL = 1e-10

# a line's state after a sample; the names are its terminations
RUNNING, EXITED, SINGULAR = 0, 1, 2
_TERMINATIONS = {EXITED: "ExitedBoundary", SINGULAR: "HitSingularRegion"}


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


def _barycentric(mesh, tets, p):
    """Barycentric coordinates (n, 4) of each point of ``p`` (n, 3) in its
    tet of ``tets`` (n,)."""
    v = mesh.vertices[mesh.tets[tets]]
    T = np.swapaxes(v[:, 1:] - v[:, :1], 1, 2)
    lam = np.linalg.solve(T, (p - v[:, 0])[..., None])[..., 0]
    return np.concatenate([1.0 - lam.sum(axis=1, keepdims=True), lam], axis=1)


def locate(mesh, points):
    """Tet holding each point of ``points`` (..., 3) by one scan of all
    tets: the lowest index that passes the inside test, -1 outside."""
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, 3)
    verts = mesh.vertices[mesh.tets]
    lo, hi = verts.min(axis=1) - TOL, verts.max(axis=1) + TOL
    near = ((flat[:, None] >= lo) & (flat[:, None] <= hi)).all(axis=2)
    row, tet = np.nonzero(near)
    inside = _barycentric(mesh, tet, flat[row]).min(axis=1) >= -TOL
    # each row's candidates come in ascending tet order
    rows, first = np.unique(row[inside], return_index=True)
    out = np.full(len(flat), -1, dtype=np.int64)
    out[rows] = tet[inside][first]
    return out.reshape(points.shape[:-1])


def _walk(mesh, tets, p, q):
    """Straight walks along the segments p -> q, (n, 3) each, from the
    tets ``tets`` (n,) holding p (Devillers, Pion and Teillaud 2002).

    Each tet is left through the face the segment crosses first; only the
    walks still crossing faces take the next round.  Returns ``(tets, s)``:
    per walk the tet holding q and 1.0, or -1 and the ``s`` where the
    segment leaves the mesh through a boundary face at ``p + s * (q - p)``.
    Raises ``WalkFailed`` when ``len(mesh.tets)`` crossings do not end a
    walk.
    """
    adj = mesh.adjacency
    tets = np.array(tets, dtype=np.int64)
    s = np.ones(len(tets))
    run = np.arange(len(tets))
    for _ in range(len(mesh.tets)):
        lq = _barycentric(mesh, tets[run], q[run])
        out = lq.min(axis=1) < -TOL
        run, lq = run[out], lq[out]
        if not len(run):
            return tets, s
        t = tets[run]
        lp = _barycentric(mesh, t, p[run])
        # where the segment reaches -TOL on each face that q lies beyond
        drop = lp - lq
        cut = np.divide(lp + TOL, drop, out=np.zeros_like(drop), where=drop > 0)
        cut[lq >= -TOL] = np.inf
        face = np.argmin(cut, axis=1)
        pair = adj.face_tets[adj.tet_faces[t, face]]
        tets[run] = np.where(pair[:, 1] == t, pair[:, 0], pair[:, 1])
        gone = tets[run] < 0
        s[run[gone]] = np.maximum(cut[np.arange(len(run)), face][gone], 0.0)
        run = run[~gone]
    if len(run):
        raise WalkFailed("walk from %s to %s crossed %d tets"
                         % (p[run[0]], q[run[0]], len(mesh.tets)))
    return tets, s


def _frames_at(field, tets, points):
    """Projected frames (n, 3, 3) and qualities (n,) at ``points`` (n, 3)
    in their tets ``tets`` (n,): the nine coefficients interpolated
    linearly over the tet, then one stacked projection, warm started from
    the frame of the vertex of largest weight.  Where the interpolated
    coefficients have norm at most 1e-9, or are not finite, as in
    ``vertex_frames``: the identity frame with quality 0."""
    lam = np.clip(_barycentric(field.mesh, tets, points), 0.0, 1.0)
    vids = field.mesh.tets[tets]
    with np.errstate(invalid="ignore"):  # 0 * inf: a NaN row, not projected
        c = (lam[:, None, :] @ field.coeffs[vids])[:, 0]
    nearest = np.take_along_axis(vids, np.argmax(lam, axis=1)[:, None], 1)[:, 0]
    return fr.project_rows(c, warm_start=field.vertex_frames()[0][nearest])


class _MeshSampler:
    """Frame sampler of a mesh field.  ``sample(points, starts)`` returns
    ``(where, R, q)``: each point's tet (-1 outside the mesh), frame and
    quality.  ``starts`` holds the tets and points the walks start from;
    with None, the seed scan finds the points."""

    def __init__(self, field):
        self.field = field

    def sample(self, points, starts):
        mesh = self.field.mesh
        where = locate(mesh, points) if starts is None else \
            _walk(mesh, *starts, points)[0]
        R = np.tile(np.eye(3), (len(points), 1, 1))
        q = np.zeros(len(points))
        inside = where >= 0
        if inside.any():
            R[inside], q[inside] = _frames_at(self.field, where[inside],
                                              points[inside])
        return where, R, q


def _axes_at(sample, points, starts, ref, check):
    """Frame axes at ``points`` closest to ``ref``, checked against
    ``check``, all (n, 3).

    Returns ``(state, axes, where)``: per row RUNNING where the axis is
    usable, EXITED outside the mesh, SINGULAR at low projection quality or
    where the axis turns away from ``check``.
    """
    where, R, q = sample(points, starts)
    v = fr.closest_direction(ref, R)
    state = np.where(where < 0, EXITED, np.where(
        (q < SINGULAR_QUALITY_CUTOFF) | (row_dots(v, check) < DIRECTION_DOT_MIN),
        SINGULAR, RUNNING))
    return state, v, where


def trace_lines(field, seeds, directions, config=None):
    """Streamlines from ``seeds`` (k, 3) along ``directions`` (k, 3), all
    advanced together.

    ``field`` is a mesh field, or a sampler whose ``sample(points,
    starts)`` answers as ``_MeshSampler.sample`` does.  Each line gives
    the same bits as ``trace`` from its seed and direction; a seed outside
    the mesh gives None in its place.  Returns ``(lines, batches)``, the
    list of k lines and the number of stacked sample calls made.
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

    seeds = np.asarray(seeds, dtype=float).reshape(-1, 3)
    directions = np.asarray(directions, dtype=float).reshape(-1, 3)
    lines = [None] * len(seeds)
    batches = 0

    def sample(points, starts):
        nonlocal batches
        batches += 1
        return sampler.sample(points, starts)

    if not len(seeds):
        return lines, batches
    where, R0, q0 = sample(seeds, None)
    for i in np.nonzero((where >= 0) & (q0 < SINGULAR_QUALITY_CUTOFF))[0]:
        lines[i] = Streamline([seeds[i]], np.zeros((0, 3)), "HitSingularRegion", 0.0)
    # the running lines: their ids, points, tets holding them, directions
    # and lengths
    ids = np.nonzero((where >= 0) & ~(q0 < SINGULAR_QUALITY_CUTOFF))[0]
    p, tet = seeds[ids], where[ids]
    d = fr.closest_direction(directions[ids], R0[ids])
    length = np.zeros(len(ids))
    points = {i: [seeds[i].copy()] for i in ids.tolist()}
    dirs = {i: [row.copy()] for i, row in zip(ids.tolist(), d)}

    def finish(rows, termination):
        for j in rows:
            i = int(ids[j])
            lines[i] = Streamline(points[i], dirs[i], termination, length[j])

    while len(ids):
        going = length < max_len
        finish(np.nonzero(~going)[0], "MaxLength")
        ids, p, tet, d, length = (a[going] for a in (ids, p, tet, d, length))
        if not len(ids):
            break
        # RK4 stages take the axis closest to the previous stage's; the end
        # point takes the axis closest to the last stage, checked against d.
        # Stage 0 is p, whose sample (the seed's or the last end point's)
        # gave d, so its axis closest to d is d itself.
        state = np.full(len(ids), RUNNING)
        vs = [d]
        for frac in (0.5, 0.5, 1.0):
            v = vs[-1].copy()
            a = np.nonzero(state == RUNNING)[0]
            if len(a):
                ref = vs[-1][a]
                state[a], v[a], _ = _axes_at(sample, p[a] + frac * h * ref,
                                             (tet[a], p[a]), ref, ref)
            vs.append(v)
        staged = state != RUNNING
        step = (h / 6.0) * (vs[0] + 2.0 * vs[1] + 2.0 * vs[2] + vs[3])
        v, end = d.copy(), tet.copy()
        a = np.nonzero(~staged)[0]
        if len(a):
            state[a], v[a], end[a] = _axes_at(sample, p[a] + step[a],
                                              (tet[a], p[a]), vs[3][a], d[a])
        # a mesh field: end where the step's segment leaves the mesh
        x = np.nonzero(state == EXITED)[0]
        if len(x):
            q = p[x] + np.where(staged[x, None], h * d[x], step[x])
            s = _walk(mesh, tet[x], p[x], q)[1]
            p_end = p[x] + s[:, None] * (q - p[x])
            seg = p_end - p[x]
            seg = np.sqrt(row_dots(seg, seg))
            for j, pe, sj in zip(x, p_end, seg):
                if sj > 1e-14:
                    length[j] += sj
                    points[int(ids[j])].append(pe)
                    dirs[int(ids[j])].append(d[j].copy())
        for code, termination in _TERMINATIONS.items():
            finish(np.nonzero(state == code)[0], termination)
        go = state == RUNNING
        ids, p, step, tet, d, v, end, length = (
            arr[go] for arr in (ids, p, step, tet, d, v, end, length))
        length += np.sqrt(row_dots(step, step))
        p, tet, d = p + step, end, v
        for i, pi, di in zip(ids.tolist(), p, d):
            points[i].append(pi.copy())
            dirs[i].append(di.copy())
    return lines, batches


def trace(field, seed, direction, config=None):
    """Streamline through the frame field from ``seed`` along ``direction``.

    The initial direction snaps to the closest frame axis at the seed and
    is then carried by closest-direction chaining through every Runge-Kutta
    sample.  Terminates on boundary exit, on reaching the length budget, or
    when the field becomes unreliable (low projection quality or an abrupt
    direction flip near a singularity).  Raises ``SeedOutside`` for a seed
    outside the mesh.
    """
    line = trace_lines(field, [seed], [direction], config)[0][0]
    if line is None:
        raise SeedOutside("seed %s is outside the mesh" % np.asarray(seed, dtype=float))
    return line
