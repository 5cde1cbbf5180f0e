"""File formats: MEDIT ASCII meshes, legacy VTK polylines, field text files."""

import math
import re

import numpy as np

from . import frames as fr
from .errors import CountMismatch, IndexOutOfRange, IoError, ParseError
from .mesh import FEATURE_ANGLE_DEFAULT, TetMesh, row_dots
from .solver import FrameField, build_boundary_conditions


def _read(path, lines=False):
    """The text of ``path``, or its lines as ``readlines`` splits them."""
    try:
        with open(path) as fh:
            return fh.readlines() if lines else fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError("cannot read %s: %s" % (path, exc)) from exc


# section keyword -> each row's token names for errors, its type, and how
# many leading tokens are converted (a vertex ref is not)
_SECTIONS = {
    "vertices": (("Vertices",) * 3 + ("vertex ref",), float, 3),
    "tetrahedra": (("Tetrahedra",) * 4 + ("tet ref",), np.int64, 5),
    "triangles": (("Triangles",) * 3 + ("triangle ref",), np.int64, 4),
    "edges": (("Edges",) * 2 + ("edge ref",), np.int64, 3),
    "corners": (("Corners",), np.int64, 1),
}


def _token_error(tok, what, dtype):
    """Why ``tok`` is no finite float or int64 integer; None if it is one."""
    try:
        x = (float if dtype is float else int)(tok)
    except ValueError:
        return "expected %s in %s, got %r" % (
            "number" if dtype is float else "integer", what, tok)
    if dtype is float and not math.isfinite(x):
        return "non-finite number in %s, got %r" % (what, tok)
    if dtype is not float and not -2 ** 63 <= x < 2 ** 63:
        return "integer %s in %s outside int64" % (tok, what)
    return None


# bytes.translate tables: 0 for the ASCII characters str.split() splits
# at, 1 for any other byte; and for the integer pass, 0 for the whitespace
# numpy skips between numbers, 1 for a digit, 2 for a sign, 3 for any other
_TOKEN_BYTES = bytes(int(not (c < 128 and chr(c).isspace())) for c in range(256))
_INT_BYTES = bytes(0 if c in b" \t\n\v\f\r" else 1 if c in b"0123456789"
                   else 2 if c in b"+-" else 3 for c in range(256))


def _parse_ints(chunk, count):
    """The ``count`` integers of the ASCII bytes ``chunk`` in one C-level
    pass, or None unless each of its tokens is an optional sign and decimal
    digits, with a value strictly between -10**18 and 10**18.

    numpy clamps an integer that overflows, so a value that large is left
    to Python's ``int()``.
    """
    if not count:
        return np.zeros(0, dtype=np.int64)
    c = np.frombuffer((b" " + chunk + b" ").translate(_INT_BYTES), dtype=np.uint8)
    sign = np.flatnonzero(c == 2)
    # a sign starts its token and a digit follows it
    if (c == 3).any() or c[sign - 1].any() or (c[sign + 1] != 1).any():
        return None
    values = np.fromstring(chunk, dtype=np.int64, sep=" ")
    if len(values) != count or values.min() <= -10 ** 18 or values.max() >= 10 ** 18:
        return None
    return values


def read_medit(path, feature_angle=FEATURE_ANGLE_DEFAULT):
    """Parse an ASCII MEDIT ``.mesh`` file into a TetMesh.

    ``Edges``/``Corners`` sections become pre-tagged feature curves and
    corners, and the mesh detects its features at ``feature_angle`` when
    it is built (tags take precedence).
    Each section converts as one block.  Integers must fit in int64, and a
    section's count may not exceed the tokens left in the file.

    Token boundaries come from one whitespace mask over the file, so the
    numbers are never split into Python strings to find the section
    keywords.  An integer block (a count, ``Dimension``, ``Tetrahedra``,
    ``Triangles``, ``Edges``, ``Corners``) is parsed in one C-level pass
    when its tokens are ASCII decimal integers, each an optional sign and
    digits below 10**18 in magnitude, separated by spaces, tabs, newlines,
    vertical tabs, form feeds or carriage returns.  Any other block (one
    with an underscore, a Unicode digit or another separator, a larger
    integer, a non-numeric token, one cut short by the end of the file),
    and every ``Vertices`` block, is converted by Python's ``int()`` and
    ``float()``, which also finds the first bad token for the error.
    """
    text = re.sub("#[^\n]*", "", _read(path))
    # one ASCII byte per character, so offsets in text and data agree
    data = (text if text.isascii()
            else re.sub(r"\s", " ", text)).encode("ascii", "replace")
    solid = np.frombuffer(b"\0" + data.translate(_TOKEN_BYTES), dtype=bool)
    # the start of each token, then the end of the text
    bounds = np.append(np.flatnonzero(solid[1:] > solid[:-1]), len(data))
    ntok = len(bounds) - 1
    pos = 0

    def span(k, m):
        """Offsets of the text of tokens k to k + m - 1, fewer at the end."""
        return bounds[min(k, ntok)], bounds[min(k + m, ntok)]

    def line(k):
        """Line of token k, counted only for an error message."""
        return text.count("\n", 0, bounds[k]) + 1

    def read(n, names, dtype=np.int64, checked=1):
        """The first ``checked`` columns of the next n rows of tokens."""
        nonlocal pos
        width = len(names)
        lo, hi = span(pos, n * width)
        values = None if dtype is float else _parse_ints(data[lo:hi], n * width)
        if values is not None:
            pos += n * width
            return values.reshape(n, width)[:, :checked]
        cells = text[lo:hi].split()
        try:
            # object cells convert by Python's int() and float()
            values = np.array(cells, dtype=object).reshape(
                n, width)[:, :checked].astype(dtype)
        except (ValueError, OverflowError):
            values = None
        if values is not None and (dtype is not float or np.isfinite(values).all()):
            pos += n * width
            return values
        # the first bad token in file order, else the end of the file
        for i, tok in enumerate(cells):
            error = i % width < checked and _token_error(tok, names[i % width], dtype)
            if error:
                raise ParseError("line %d: %s" % (line(pos + i), error))
        raise ParseError("unexpected end of file while reading %s"
                         % names[len(cells) % width])

    blocks = {key: [] for key in _SECTIONS}
    while pos < ntok:
        lo, hi = span(pos, 1)
        kw = text[lo:hi].split()[0]
        key = kw.lower()
        pos += 1
        if key == "meshversionformatted":
            read(1, ("version",), checked=0)
        elif key == "dimension":
            dim = read(1, ("Dimension",))[0, 0]
            if dim != 3:
                raise ParseError("line %d: expected Dimension 3, got %d"
                                 % (line(pos - 2), dim))
        elif key in _SECTIONS:
            names, dtype, checked = _SECTIONS[key]
            what = names[0] + " count"
            n = int(read(1, (what,))[0, 0])
            if n < 0:
                raise ParseError("line %d: negative %s %d" % (line(pos - 1), what, n))
            # every entry takes at least one token
            if n > ntok - pos:
                raise ParseError("line %d: %s %d exceeds the %d tokens left"
                                 % (line(pos - 1), what, n, ntok - pos))
            blocks[key].append(read(n, names, dtype, checked))
        elif key == "end":
            break
        else:
            raise ParseError("line %d: unknown section %r" % (line(pos - 1), kw))
    if not blocks["vertices"] or not blocks["tetrahedra"]:
        raise ParseError("missing Vertices or Tetrahedra section")
    nv = len(blocks["vertices"][-1])
    tets = blocks["tetrahedra"][-1][:, :4]
    if len(tets) == 0:
        raise ParseError("Tetrahedra section is empty")
    tris, edges, corners = (np.concatenate(
        [np.zeros((0, _SECTIONS[key][2]), np.int64)] + blocks[key])
        for key in ("triangles", "edges", "corners"))
    if ((tris[:, :3] < 1) | (tris[:, :3] > nv)).any():
        raise IndexOutOfRange("triangle vertex index out of range")
    if ((edges[:, :2] < 1) | (edges[:, :2] > nv)).any():
        raise IndexOutOfRange("edge vertex index out of range")
    outside = (corners < 1) | (corners > nv)
    if outside.any():
        raise IndexOutOfRange("corner vertex index %d out of range" % corners[outside][0])
    return TetMesh(blocks["vertices"][-1], tets - 1, corners=(corners[:, 0] - 1).tolist(),
                   feature_edges=(edges - [1, 1, 0]).tolist(),
                   feature_angle=feature_angle)


def write_medit(mesh, path):
    """Write a TetMesh as ASCII MEDIT, its detected features as the tags."""
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
        if mesh.feature_edges:
            fh.write("Edges\n%d\n" % len(mesh.feature_edges))
            for u, v, cid in mesh.feature_edges:
                fh.write("%d %d %d\n" % (u + 1, v + 1, cid + 1))
        if mesh.corners:
            fh.write("Corners\n%d\n" % len(mesh.corners))
            for c in mesh.corners:
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
    """Write ``obj``, a singularity graph or a list of streamlines, as
    legacy VTK.

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
        polylines = [np.asarray(s.points) for s in obj]
        _write_vtk_polylines(
            path,
            polylines,
            [("valence", [0] * len(polylines)), ("is_35", [0] * len(polylines))],
        )


def read_vtk_polylines(path):
    """Parse back our own VTK output: (polylines, {name: values})."""
    tokens = _read(path).split()
    at, cells = tokens.index("LINES"), tokens.index("CELL_DATA")
    points = np.array(tokens[tokens.index("POINTS") + 3:at],
                      dtype=object).astype(float).reshape(-1, 3)
    # each polyline is its point count, then its point ids
    ids = np.array(tokens[at + 3:cells], dtype=object).astype(np.int64)
    polylines = []
    k = 0
    while k < len(ids):
        polylines.append(points[ids[k + 1:k + 1 + ids[k]]])
        k += 1 + ids[k]
    # "SCALARS name int 1 LOOKUP_TABLE default", then one value per cell
    n = int(tokens[cells + 1])
    scalars = {tokens[k + 1]: [int(x) for x in tokens[k + 6:k + 6 + n]]
               for k in range(cells + 2, len(tokens), n + 6)}
    return polylines, scalars


def write_field(field, path):
    """ASCII field dump: 9 coefficients plus the projected rotation per vertex."""
    frames, _ = field.vertex_frames()
    rows = np.hstack([field.coeffs, frames.reshape(-1, 9)]).tolist()
    line = " ".join(["%.17g"] * 9) + "  " + " ".join(["%.17g"] * 9) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write("HexFrameField 1\n%d\n" % len(rows))
            fh.writelines(line % tuple(row) for row in rows)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_field(path, mesh):
    """Read a field file back onto ``mesh`` with the mesh's standard
    boundary conditions; coefficients round-trip exactly."""
    rows = _read(path, lines=True)
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
    cells = [row.split() for row in rows[2:n + 2]]
    try:
        values = np.array(cells, dtype=object).astype(float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (n, 18) or not np.isfinite(values).all():
        # the first bad line
        for i, cell in enumerate(cells):
            try:
                vals = [float(x) for x in cell]
            except ValueError:
                raise ParseError("line %d: non-numeric value" % (i + 3))
            if len(vals) != 18 or not all(map(math.isfinite, vals)):
                raise ParseError("line %d: expected 18 finite numbers" % (i + 3))
    coeffs = values[:, :9]
    frames = values[:, 9:].reshape(n, 3, 3).copy()
    bad = ~fr.rotation_rows(frames)
    if bad.any():
        raise ParseError("line %d: frame is not a rotation" % (np.argmax(bad) + 3))
    field = FrameField(mesh, coeffs, build_boundary_conditions(mesh))
    # quality 0 where vertex_frames does not project (norm at most 1e-9)
    norms = np.linalg.norm(coeffs, axis=1)
    quality = row_dots(coeffs / np.maximum(norms, 1e-300)[:, None],
                       fr.frame_coeffs(frames))
    quality[norms <= 1e-9] = 0.0
    field._frames = frames
    field._quality = quality
    return field
