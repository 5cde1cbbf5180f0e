"""Generate the bundled MEDIT test fixtures.

All fixtures are semi-structured: a conforming 2D triangulation of a
footprint (with constrained polylines for imprinted or trimmed arcs) is
extruded into per-vertex vertical columns.  Collapsed column segments
carve steps, pockets and domes out of the extrusion.

Run from the repository root:

    python3 tools/make_fixtures.py [outdir]
"""

import os
import sys

import numpy as np
from scipy.spatial import Delaunay

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hexframe.mesh import TetMesh  # noqa: E402
from hexframe.meshio import write_medit  # noqa: E402


def _rect_boundary_points(w, h, spacing):
    nx = max(2, int(round(w / spacing)))
    ny = max(2, int(round(h / spacing)))
    xs = np.linspace(0, w, nx + 1)
    ys = np.linspace(0, h, ny + 1)
    pts = []
    for x in xs:
        pts.append((x, 0.0))
        pts.append((x, h))
    for y in ys[1:-1]:
        pts.append((0.0, y))
        pts.append((w, y))
    return np.array(pts)


def _interior_grid(w, h, spacing):
    pts = []
    ny = int(round(h / (spacing * np.sqrt(3) / 2)))
    ys = np.linspace(0, h, max(ny, 2) + 1)[1:-1]
    for j, y in enumerate(ys):
        off = 0.5 * spacing if j % 2 else 0.0
        nx = int(round((w - off) / spacing))
        xs = off + np.linspace(0, w - off, max(nx, 2) + 1)
        for x in xs:
            if 0 < x < w:
                pts.append((x, y))
    return np.array(pts)


def conforming_triangulation(w, h, spacing, polylines=(), keep=None, clear=None):
    """Delaunay triangulation of [0,w]x[0,h] conforming to polylines.

    polylines: list of (k, 2) arrays of consecutive points; each consecutive
    pair must come out as a triangulation edge.  keep: predicate on triangle
    centroids selecting the retained region.  Returns (points, triangles,
    per-polyline vertex index lists).
    """
    fixed = [np.asarray(pl, dtype=float) for pl in polylines]
    anchor = np.vstack(fixed) if fixed else np.zeros((0, 2))
    corners = np.array([(0, 0), (w, 0), (0, h), (w, h)], dtype=float)
    background = np.vstack([_rect_boundary_points(w, h, spacing),
                            _interior_grid(w, h, spacing)])
    if len(anchor):
        d = np.linalg.norm(background[:, None] - anchor[None], axis=2).min(axis=1)
        background = background[d > 0.6 * spacing]
        dc = np.linalg.norm(corners[:, None] - anchor[None], axis=2).min(axis=1)
        corners = corners[dc > 1e-9]
    if clear is not None:
        background = background[~np.array([clear(p) for p in background])]
    pts = np.vstack([corners, background] + fixed)
    pts = np.unique(np.round(pts, 12), axis=0)
    tri = Delaunay(pts)
    tris = tri.simplices
    if keep is not None:
        cent = pts[tris].mean(axis=1)
        tris = tris[np.array([keep(c) for c in cent], dtype=bool)]
    edges = set()
    for t in tris:
        for i in range(3):
            a, b = int(t[i]), int(t[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))

    def index_of(p):
        d = np.linalg.norm(pts - p, axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-9:
            raise ValueError("constrained point lost")
        return i

    chains = []
    for pl in fixed:
        ids = [index_of(p) for p in pl]
        for a, b in zip(ids, ids[1:]):
            if (min(a, b), max(a, b)) not in edges:
                raise ValueError(
                    "polyline edge %d-%d missing; adjust spacing" % (a, b))
        chains.append(ids)
    return pts, tris, chains


_PRISM_ROTATIONS = [
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 4, 5, 3),
    (2, 0, 1, 5, 3, 4),
    (3, 5, 4, 0, 2, 1),
    (4, 3, 5, 1, 0, 2),
    (5, 4, 3, 2, 1, 0),
]


def _split_prism(ids):
    """3-tet prism split with quad diagonals through the smallest index."""
    k = min(range(6), key=lambda i: ids[i])
    rot = _PRISM_ROTATIONS[k]
    v = [ids[r] for r in rot]
    if min(v[1], v[5]) < min(v[2], v[4]):
        tets = [(v[0], v[1], v[2], v[5]), (v[0], v[1], v[5], v[4]),
                (v[0], v[4], v[5], v[3])]
    else:
        tets = [(v[0], v[1], v[2], v[4]), (v[0], v[4], v[2], v[5]),
                (v[0], v[4], v[5], v[3])]
    return [t for t in tets if len(set(t)) == 4]


def extrude_columns(pts2d, tris2d, columns, swap_yz=False):
    """Tet mesh from per-vertex z ladders; equal consecutive z's collapse.

    columns: (n_pts, n_levels) nondecreasing z values.  Returns (vertices,
    tets, node_id) with node_id[i, l] giving the 3D vertex of footprint
    point i at level l.
    """
    columns = np.asarray(columns, dtype=float)
    n, L = columns.shape
    node_id = -np.ones((n, L), dtype=np.int64)
    verts = []
    for i in range(n):
        for l in range(L):
            if l > 0 and abs(columns[i, l] - columns[i, l - 1]) < 1e-12:
                node_id[i, l] = node_id[i, l - 1]
                continue
            node_id[i, l] = len(verts)
            verts.append((pts2d[i, 0], pts2d[i, 1], columns[i, l]))
    verts = np.array(verts)
    tets = []
    for a, b, c in tris2d:
        for l in range(L - 1):
            ids = (node_id[a, l], node_id[b, l], node_id[c, l],
                   node_id[a, l + 1], node_id[b, l + 1], node_id[c, l + 1])
            for t in _split_prism(ids):
                p = verts[list(t)]
                vol = np.linalg.det(p[1:] - p[0]) / 6.0
                if abs(vol) > 1e-13:
                    tets.append(t)
    if swap_yz:
        verts = verts[:, [0, 2, 1]]
    return verts, np.array(tets, dtype=np.int64), node_id


def _arc(center, radius, a0, a1, n):
    ang = np.linspace(a0, a1, n)
    return np.column_stack([center[0] + radius * np.cos(ang),
                            center[1] + radius * np.sin(ang)])


def _tag_all_features(mesh):
    """The mesh with every detected feature curve and corner tagged, so the
    file ships with Edges."""
    return TetMesh(mesh.vertices, mesh.tets, feature_edges=mesh.feature_edges,
                   corners=mesh.corners)


def make_arc_box(bulge=0.0, spacing=0.11, levels=8):
    """Box with a quarter arc imprinted on the top face (flat or bulged).

    The arc joins two box edges around a corner, like the notch wall but
    without the step.  The bulge squares the cross profile so the surface
    curvature (and the singular lines it induces) concentrates along the
    mid-line that passes under the arc, where extrusion streamlines run.
    """
    w, h = 2.0, 1.0
    arc = _arc((2.0, 0.0), 0.55, np.pi / 2, np.pi, 9)
    pts, tris, (arc_ids,) = conforming_triangulation(w, h, spacing, [arc])
    z = np.linspace(0.0, 1.0, levels)
    columns = np.tile(z, (len(pts), 1))
    if bulge:
        f = np.sin(np.pi * pts[:, 0] / w) * np.sin(np.pi * pts[:, 1] / h) ** 2
        columns = columns * (1.0 + bulge * f)[:, None]
    verts, tets, node_id = extrude_columns(pts, tris, columns)
    top = levels - 1
    arc_edges = [
        (int(node_id[a, top]), int(node_id[b, top]), 100)
        for a, b in zip(arc_ids, arc_ids[1:])
    ]
    return _tag_all_features(TetMesh(verts, tets, feature_edges=arc_edges))


def make_notch(spacing=0.11, levels=8, floor=0.6):
    """Box with a step notch bounded by a curved wall.

    The wall arc is imprinted on the top face; its offset twin is the
    concave feature curve at the notch floor.
    """
    w, h = 2.0, 1.0
    center = np.array([2.0, 0.0])
    r_top = 0.55
    r_floor = r_top - 1.4 * spacing

    def arc_for(r):
        # quarter arcs around the corner; they meet both faces at 90 deg
        return _arc(center, r, np.pi / 2, np.pi, 9)

    top_arc = arc_for(r_top)
    floor_arc = arc_for(r_floor)

    def in_band(p):
        d = np.linalg.norm(p - center)
        return r_floor - 0.6 * spacing < d < r_top + 0.6 * spacing

    pts, tris, chains = conforming_triangulation(
        w, h, spacing, [top_arc, floor_arc], clear=in_band)
    dist = np.linalg.norm(pts - center, axis=1)
    z = np.linspace(0.0, 1.0, levels)
    columns = np.tile(z, (len(pts), 1))
    inside = dist < r_top - 1e-9
    columns[inside] = np.minimum(columns[inside], floor)
    verts, tets, node_id = extrude_columns(pts, tris, columns)
    return _tag_all_features(TetMesh(verts, tets))


def make_groove(spacing=0.1, levels=8, floor=0.6):
    """Box with a circular groove of rectangular section sunk into the top.

    The trench follows a semicircular path and is open where it meets the
    front face, so it carries two curved step walls (inner and outer).
    """
    w, h = 2.0, 1.0
    center = np.array([1.0, 0.0])
    r_in_top = 0.25
    r_out_top = 0.75
    off = 1.4 * spacing
    radii = [r_in_top, r_in_top + off, r_out_top - off, r_out_top]
    arcs = [_arc(center, r, np.pi, 0.0, 13 if r < 0.5 else 17) for r in radii]

    def in_band(p):
        d = np.linalg.norm(p - center)
        return (radii[0] - 0.6 * spacing < d < radii[1] + 0.6 * spacing
                or radii[2] - 0.6 * spacing < d < radii[3] + 0.6 * spacing)

    pts, tris, _ = conforming_triangulation(w, h, spacing, arcs, clear=in_band)
    dist = np.linalg.norm(pts - center, axis=1)
    z = np.linspace(0.0, 1.0, levels)
    columns = np.tile(z, (len(pts), 1))
    trench = (dist > radii[0] + 1e-9) & (dist < radii[3] - 1e-9)
    columns[trench] = np.minimum(columns[trench], floor)
    verts, tets, node_id = extrude_columns(pts, tris, columns)
    return _tag_all_features(TetMesh(verts, tets))


def make_halfsphere_box(spacing=0.11, box_levels=5, dome_levels=4):
    """Box carrying a spherical cap with a 60 degree contact angle."""
    w, h = 1.6, 1.6
    center = np.array([0.8, 0.8])
    r = 0.45
    contact = np.radians(60.0)
    rs = r / np.sin(contact)
    circle = _arc(center, r, 0.0, 2 * np.pi, 33)[:-1]
    circle = np.vstack([circle, circle[:1]])
    pts, tris, _ = conforming_triangulation(w, h, spacing, [circle])
    dist = np.linalg.norm(pts - center, axis=1)
    cap = np.zeros(len(pts))
    inside = dist < r - 1e-9
    cap[inside] = np.sqrt(rs ** 2 - dist[inside] ** 2) - rs * np.cos(contact)
    box_z = np.linspace(0.0, 0.5, box_levels)
    frac = np.linspace(0.0, 1.0, dome_levels + 1)[1:]
    columns = np.concatenate(
        [np.tile(box_z, (len(pts), 1)),
         0.5 + frac[None, :] * cap[:, None]], axis=1)
    verts, tets, _ = extrude_columns(pts, tris, columns)
    return _tag_all_features(TetMesh(verts, tets))


BUILDERS = {
    "notch.mesh": make_notch,
    "arc_box.mesh": lambda: make_arc_box(bulge=0.0),
    "curved_arc_box.mesh": lambda: make_arc_box(bulge=0.5),
    "halfsphere_box.mesh": make_halfsphere_box,
    "groove_box.mesh": make_groove,
}


def main(outdir="fixtures"):
    os.makedirs(outdir, exist_ok=True)
    for name, build in BUILDERS.items():
        mesh = build()
        path = os.path.join(outdir, name)
        write_medit(mesh, path)
        print("%-22s %6d vertices %7d tets %2d curves" % (
            name, len(mesh.vertices), len(mesh.tets), len(mesh.feature_curves)))


if __name__ == "__main__":
    main(*sys.argv[1:])
