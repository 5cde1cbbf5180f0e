"""File formats: MEDIT ASCII meshes, legacy VTK polylines, field text files."""

import math

import numpy as np

from . import frames as fr
from .errors import CountMismatch, IndexOutOfRange, IoError, ParseError
from .mesh import FEATURE_ANGLE_DEFAULT, TetMesh
from .solver import FrameField, build_boundary_conditions


def _read_lines(path):
    try:
        with open(path) as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc


def read_medit(path, feature_angle=FEATURE_ANGLE_DEFAULT, detect=True):
    """Parse an ASCII MEDIT ``.mesh`` file into a TetMesh.

    ``Edges``/``Corners`` sections become pre-tagged feature curves and
    corners; feature detection runs afterwards (tags take precedence).
    """
    tokens = []
    lines = []
    for ln, line in enumerate(_read_lines(path), 1):
        for tok in line.split("#")[0].split():
            tokens.append(tok)
            lines.append(ln)

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of file while reading %s" % what)
        tok = tokens[pos]
        pos += 1
        return tok, lines[pos - 1]

    def take_int(what):
        tok, ln = take(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError("line %d: expected integer in %s, got %r" % (ln, what, tok))

    def take_count(what):
        n = take_int(what)
        if n < 0:
            raise ParseError("line %d: negative %s %d" % (lines[pos - 1], what, n))
        return n

    def take_float(what):
        tok, ln = take(what)
        try:
            x = float(tok)
        except ValueError:
            raise ParseError("line %d: expected number in %s, got %r" % (ln, what, tok))
        if not math.isfinite(x):
            raise ParseError("line %d: non-finite number in %s, got %r"
                             % (ln, what, tok))
        return x

    vertices = None
    tets = None
    tris = []
    edges = []
    corners = []
    while pos < len(tokens):
        kw, ln = take("section keyword")
        key = kw.lower()
        if key == "meshversionformatted":
            take("version")
        elif key == "dimension":
            dim = take_int("Dimension")
            if dim != 3:
                raise ParseError("line %d: expected Dimension 3, got %d" % (ln, dim))
        elif key == "vertices":
            n = take_count("Vertices count")
            vertices = np.empty((n, 3))
            for i in range(n):
                vertices[i] = [take_float("Vertices") for _ in range(3)]
                take("vertex ref")
        elif key == "tetrahedra":
            n = take_count("Tetrahedra count")
            tets = np.empty((n, 4), dtype=np.int64)
            for i in range(n):
                tets[i] = [take_int("Tetrahedra") for _ in range(4)]
                take_int("tet ref")
        elif key == "triangles":
            n = take_count("Triangles count")
            for _ in range(n):
                a, b, c = (take_int("Triangles") for _ in range(3))
                take_int("triangle ref")
                tris.append((a - 1, b - 1, c - 1))
        elif key == "edges":
            n = take_count("Edges count")
            for _ in range(n):
                a, b = take_int("Edges"), take_int("Edges")
                ref = take_int("edge ref")
                edges.append((a - 1, b - 1, ref))
        elif key == "corners":
            n = take_count("Corners count")
            for _ in range(n):
                corners.append(take_int("Corners") - 1)
        elif key == "end":
            break
        else:
            raise ParseError("line %d: unknown section %r" % (ln, kw))
    if vertices is None or tets is None:
        raise ParseError("missing Vertices or Tetrahedra section")
    if len(tets) == 0:
        raise ParseError("Tetrahedra section is empty")
    for a, b, c in tris:
        if min(a, b, c) < 0 or max(a, b, c) >= len(vertices):
            raise IndexOutOfRange("triangle vertex index out of range")
    for a, b, _ in edges:
        if min(a, b) < 0 or max(a, b) >= len(vertices):
            raise IndexOutOfRange("edge vertex index out of range")
    for c in corners:
        if not 0 <= c < len(vertices):
            raise IndexOutOfRange("corner vertex index %d out of range" % (c + 1))
    mesh = TetMesh(vertices, tets - 1, feature_edges=edges, corners=corners)
    if detect:
        mesh.detect_features(feature_angle)
    return mesh


def write_medit(mesh, path):
    """Write a TetMesh (with tagged features) as ASCII MEDIT."""
    with open(path, "w") as fh:
        fh.write("MeshVersionFormatted 2\nDimension 3\n")
        fh.write("Vertices\n%d\n" % len(mesh.vertices))
        for p in mesh.vertices:
            fh.write("%.17g %.17g %.17g 0\n" % tuple(p))
        fh.write("Tetrahedra\n%d\n" % len(mesh.tets))
        for t in mesh.tets:
            fh.write("%d %d %d %d 1\n" % tuple(t + 1))
        fh.write("Triangles\n%d\n" % len(mesh.boundary_tris))
        for tri, pid in zip(mesh.boundary_tris, mesh.boundary_patch_ids):
            fh.write("%d %d %d %d\n" % (tri[0] + 1, tri[1] + 1, tri[2] + 1, pid + 1))
        feats = mesh.feature_edges or mesh.tagged_feature_edges
        if feats:
            fh.write("Edges\n%d\n" % len(feats))
            for u, v, cid in feats:
                fh.write("%d %d %d\n" % (u + 1, v + 1, cid + 1))
        corners = mesh.corners or mesh.tagged_corners
        if corners:
            fh.write("Corners\n%d\n" % len(corners))
            for c in corners:
                fh.write("%d\n" % (c + 1))
        fh.write("End\n")


def _write_vtk_polylines(path, polylines, cell_scalars):
    try:
        with open(path, "w") as fh:
            fh.write("# vtk DataFile Version 2.0\n")
            fh.write("hexframe polylines\nASCII\nDATASET POLYDATA\n")
            npts = sum(len(p) for p in polylines)
            fh.write("POINTS %d double\n" % npts)
            for line in polylines:
                for p in line:
                    fh.write("%.17g %.17g %.17g\n" % tuple(p))
            size = sum(len(p) + 1 for p in polylines)
            fh.write("LINES %d %d\n" % (len(polylines), size))
            off = 0
            for line in polylines:
                fh.write(" ".join([str(len(line))] + [str(off + i) for i in range(len(line))]))
                fh.write("\n")
                off += len(line)
            fh.write("CELL_DATA %d\n" % len(polylines))
            for name, values in cell_scalars:
                fh.write("SCALARS %s int 1\nLOOKUP_TABLE default\n" % name)
                for v in values:
                    fh.write("%d\n" % v)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def write_vtk_graph(obj, path):
    """Write a singularity graph or a list of streamlines as legacy VTK.

    One polyline per chain/streamline with cell scalars ``valence``
    (10*start + end) and ``is_35``.
    """
    chains = getattr(obj, "chains", None)
    if chains is not None:
        polylines = []
        valence = []
        is35 = []
        for ch in chains:
            polylines.append(ch.points)
            vs = ch.valence_start if isinstance(ch.valence_start, int) else 0
            ve = ch.valence_end if isinstance(ch.valence_end, int) else 0
            valence.append(10 * vs + ve)
            is35.append(1 if ch.is_35 else 0)
        _write_vtk_polylines(path, polylines, [("valence", valence), ("is_35", is35)])
    else:
        streamlines = obj if isinstance(obj, (list, tuple)) else [obj]
        polylines = [np.asarray(s.points) for s in streamlines]
        _write_vtk_polylines(
            path,
            polylines,
            [("valence", [0] * len(polylines)), ("is_35", [0] * len(polylines))],
        )


def read_vtk_polylines(path):
    """Parse back our own VTK output: (polylines, {name: values})."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    points = None
    lines = []
    scalars = {}
    rows = [r.split() for r in tokens]
    i = 0
    while i < len(rows):
        row = rows[i]
        if row and row[0] == "POINTS":
            n = int(row[1])
            flat = []
            i += 1
            while len(flat) < 3 * n:
                flat.extend(float(x) for x in rows[i])
                i += 1
            points = np.array(flat).reshape(n, 3)
            continue
        if row and row[0] == "LINES":
            nl = int(row[1])
            i += 1
            for _ in range(nl):
                vals = [int(x) for x in rows[i]]
                lines.append(vals[1:])
                i += 1
            continue
        if row and row[0] == "SCALARS":
            name = row[1]
            i += 2  # skip LOOKUP_TABLE
            vals = []
            while i < len(rows) and rows[i] and len(rows[i]) == 1 and rows[i][0].lstrip("-").isdigit():
                vals.append(int(rows[i][0]))
                i += 1
            scalars[name] = vals
            continue
        i += 1
    polylines = [points[idx] for idx in lines] if points is not None else []
    return polylines, scalars


def write_field(field, path):
    """ASCII field dump: 9 coefficients plus the projected rotation per vertex."""
    frames, _ = field.vertex_frames()
    try:
        with open(path, "w") as fh:
            fh.write("HexFrameField 1\n%d\n" % len(field.coeffs))
            for c, R in zip(field.coeffs, frames):
                fh.write(" ".join("%.17g" % x for x in c))
                fh.write("  ")
                fh.write(" ".join("%.17g" % x for x in R.ravel()))
                fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_field(path, mesh):
    """Read a field file back onto ``mesh`` with the mesh's standard
    boundary conditions; coefficients round-trip exactly."""
    rows = _read_lines(path)
    if not rows or rows[0].split()[:1] != ["HexFrameField"]:
        raise ParseError("line 1: not a hexframe field file")
    try:
        n = int(rows[1])
    except (IndexError, ValueError):
        raise ParseError("line 2: expected the vertex count")
    if n != len(mesh.vertices):
        raise CountMismatch(
            "field has %d vertices, mesh has %d" % (n, len(mesh.vertices))
        )
    if len(rows) < n + 2:
        raise ParseError("line %d: unexpected end of file" % (len(rows) + 1))
    values = np.empty((n, 18))
    for i in range(n):
        try:
            vals = [float(x) for x in rows[i + 2].split()]
        except ValueError:
            raise ParseError("line %d: non-numeric value" % (i + 3))
        if len(vals) != 18 or not all(map(math.isfinite, vals)):
            raise ParseError("line %d: expected 18 finite numbers" % (i + 3))
        values[i] = vals
    coeffs = values[:, :9].copy()
    frames = values[:, 9:].reshape(n, 3, 3).copy()
    field = FrameField(mesh, coeffs, build_boundary_conditions(mesh))
    norms = np.maximum(np.linalg.norm(coeffs, axis=1), 1e-300)
    quality = np.array(
        [c @ fr.frame_coeffs(R) for c, R in zip(coeffs / norms[:, None], frames)]
    )
    field._frames = frames
    field._quality = quality
    return field
