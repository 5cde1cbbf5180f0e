"""Malformed input files end in typed errors, never in tracebacks."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hexframe.frames as fr
import mesh_oracle
from hexframe.boxgen import generate_box
from hexframe.cli import main
from hexframe.errors import (
    DegenerateTangent,
    DegenerateTet,
    HexFrameError,
    IndexOutOfRange,
    IoError,
    ParseError,
)
from hexframe.mesh import TetMesh
from hexframe.meshio import read_field, read_medit, write_field, write_medit
from hexframe.singularities import extract_graph
from hexframe.solver import (
    FrameField,
    SolverConfig,
    build_boundary_conditions,
    compute_field,
)

SINGLE_TET_TEMPLATE = """MeshVersionFormatted 2
Dimension 3
Vertices
4
0 0 0 0
1 0 0 0
0 1 0 0
0 0 1 0
Tetrahedra
1
1 2 3 4 1
{extra}End
"""
SINGLE_TET = SINGLE_TET_TEMPLATE.format(extra="")

FUZZ_TOKENS = ["-1", "0", "nan", "inf", "abc", "99999"]


@pytest.fixture(scope="module")
def box_files(tmp_path_factory):
    """MEDIT text and 3-sweep field.txt of generate_box(2, 2, 2)."""
    root = tmp_path_factory.mktemp("box")
    mesh = generate_box(2, 2, 2)
    mesh.detect_features(30.0)
    mesh_path = str(root / "box.mesh")
    write_medit(mesh, mesh_path)
    mesh = read_medit(mesh_path)
    field_path = str(root / "field.txt")
    write_field(compute_field(mesh, SolverConfig(smoothing_sweeps=3)), field_path)
    return mesh_path, field_path, mesh


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestMeditErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_medit(str(tmp_path / "none.mesh"))
        assert main(["graph", "--mesh", str(tmp_path / "none.mesh"),
                     "--out", str(tmp_path)]) == 3

    def test_negative_vertex_count(self, tmp_path):
        text = SINGLE_TET.replace("Vertices\n4", "Vertices\n-1")
        path = _write(tmp_path / "m.mesh", text)
        with pytest.raises(ParseError, match="line 4"):
            read_medit(path)

    def test_empty_tetrahedra(self, tmp_path):
        text = SINGLE_TET.replace("Tetrahedra\n1\n1 2 3 4 1\n", "Tetrahedra\n0\n")
        with pytest.raises(ParseError, match="Tetrahedra"):
            read_medit(_write(tmp_path / "m.mesh", text))

    def test_nan_coordinate(self, tmp_path):
        path = _write(tmp_path / "m.mesh", SINGLE_TET.replace("1 0 0 0", "nan 0 0 0"))
        with pytest.raises(ParseError, match="line 6"):
            read_medit(path)
        assert main(["graph", "--mesh", path, "--out", str(tmp_path)]) == 3

    def test_zero_volume_tet(self, box_files, tmp_path, capsys):
        mesh_path, _, mesh = box_files
        centre = int(np.argmin(np.linalg.norm(mesh.vertices - 0.5, axis=1)))
        tet = mesh.tets[(mesh.tets == centre).any(axis=1)][0]
        neighbour = int(next(v for v in tet if v != centre))
        lines = Path(mesh_path).read_text().splitlines(True)
        first = lines.index("Vertices\n") + 2
        lines[first + centre] = lines[first + neighbour]
        path = _write(tmp_path / "m.mesh", "".join(lines))
        with pytest.raises(DegenerateTet):
            read_medit(path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["graph", "--mesh", path, "--out", str(tmp_path),
                         "--sweeps", "3"]) == 3
        err = capsys.readouterr().err
        assert "tet volume below" in err and "Warning" not in err

    def test_folded_mesh_zero_length_chord(self, box_files, tmp_path, capsys):
        # file vertex 25, (0, 1, 1), moved onto (0, 0, 1): the tets fold,
        # and a feature curve runs through two coinciding vertices
        mesh_path, _, _ = box_files
        lines = Path(mesh_path).read_text().splitlines(True)
        row = lines.index("Vertices\n") + 2 + 24
        assert lines[row].split()[:3] == ["0", "1", "1"]
        lines[row] = "0 0 1 0\n"
        path = _write(tmp_path / "m.mesh", "".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTangent, match="curve 11 vertex 21"):
                read_medit(path)
            capsys.readouterr()
            assert main(["solve", "--mesh", path, "--out", str(tmp_path / "out"),
                         "--sweeps", "3"]) == 3
        err = capsys.readouterr().err
        assert "zero length" in err and "Warning" not in err

    def test_corner_index_out_of_range(self, tmp_path):
        text = SINGLE_TET_TEMPLATE.format(extra="Corners\n1\n99\n")
        with pytest.raises(IndexOutOfRange, match="99"):
            read_medit(_write(tmp_path / "m.mesh", text))

    def test_index_outside_int64(self, tmp_path):
        text = SINGLE_TET.replace("1 2 3 4 1", "1 2 3 99999999999999999999 1")
        path = _write(tmp_path / "m.mesh", text)
        with pytest.raises(ParseError, match="line 11: .*outside int64"):
            read_medit(path)
        assert main(["graph", "--mesh", path, "--out", str(tmp_path)]) == 3

    def test_count_beyond_file(self, tmp_path):
        # 10^15 vertices would ask numpy for 21 PiB before reading one
        text = SINGLE_TET.replace("Vertices\n4", "Vertices\n%d" % 10 ** 15)
        path = _write(tmp_path / "m.mesh", text)
        with pytest.raises(ParseError, match="line 4: .*tokens left"):
            read_medit(path)
        assert main(["graph", "--mesh", path, "--out", str(tmp_path)]) == 3


class TestMeshErrors:
    def test_single_tet_solves(self, tmp_path):
        # every vertex is a corner, so no vertex has a tangency constraint
        path = _write(tmp_path / "m.mesh", SINGLE_TET)
        assert main(["solve", "--mesh", path, "--out", str(tmp_path),
                     "--sweeps", "3"]) == 0

    def test_bad_tets(self):
        box = generate_box(2, 2, 2)
        v, t = box.vertices, box.tets
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTet, match="no tets"):
                TetMesh(v, np.empty((0, 4), dtype=np.int64))
            for bad in (len(v), -1):
                tets = t.copy()
                tets[5, 2] = bad
                with pytest.raises(IndexOutOfRange, match="index %d" % bad):
                    TetMesh(v, tets)
                # so must the tagged feature edges and corners
                for tags in (dict(feature_edges=[(0, bad, 3)]), dict(corners=[bad])):
                    with pytest.raises(IndexOutOfRange, match="index %d" % bad):
                        TetMesh(v, t, **tags)
            # a tagged feature edge must lie on the boundary
            centre = int(np.argmin(np.linalg.norm(v - 0.5, axis=1)))
            mesh = TetMesh(v, t, feature_edges=[(0, centre, 0)])
            with pytest.raises(IndexOutOfRange, match="not a boundary edge"):
                mesh.detect_features(30.0)


class TestFieldErrors:
    def test_non_numeric_count(self, box_files, tmp_path):
        _, field_path, mesh = box_files
        lines = Path(field_path).read_text().splitlines(True)
        path = _write(tmp_path / "f.txt", "".join(lines[:1] + ["abc\n"] + lines[2:]))
        with pytest.raises(ParseError, match="line 2"):
            read_field(path, mesh)

    def test_non_numeric_value(self, box_files, tmp_path):
        _, field_path, mesh = box_files
        lines = Path(field_path).read_text().splitlines(True)
        lines[4] = "abc " + lines[4].split(" ", 1)[1]
        with pytest.raises(ParseError, match="line 5"):
            read_field(_write(tmp_path / "f.txt", "".join(lines)), mesh)

    def test_frame_not_a_rotation(self, box_files, tmp_path):
        mesh_path, field_path, mesh = box_files
        lines = Path(field_path).read_text().splitlines(True)
        two = ["2", "0", "0", "0", "2", "0", "0", "0", "2"]
        lines[2] = " ".join(lines[2].split()[:9] + two) + "\n"
        path = _write(tmp_path / "f.txt", "".join(lines))
        with pytest.raises(ParseError, match="line 3"):
            read_field(path, mesh)
        assert main(["graph", "--mesh", mesh_path, "--field", path,
                     "--out", str(tmp_path)]) == 3

    def test_round_trip_carries_boundary_conditions(self, box_files):
        _, field_path, mesh = box_files
        field = read_field(field_path, mesh)
        ref = build_boundary_conditions(mesh)
        for name in ("kind", "coeffs", "normals"):
            assert np.array_equal(getattr(field.bcs, name), getattr(ref, name))

    def test_round_trip_keeps_near_zero_rows_unprojected(self, tmp_path):
        mesh = generate_box(3, 3, 3)
        mesh.detect_features(30.0)
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(mesh.vertices), 1))
        v = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_vertices)[0]
        coeffs[v] *= 1e-10
        fresh = FrameField(mesh, coeffs, build_boundary_conditions(mesh))
        path = str(tmp_path / "field.txt")
        write_field(fresh, path)
        reloaded = read_field(path, mesh)
        assert reloaded.vertex_frames()[1][v] == fresh.vertex_frames()[1][v] == 0.0
        counters = []
        for field in (fresh, reloaded):
            graph = extract_graph(field)
            counters.append((len(graph.chains), len(graph.singular_faces),
                             sorted(graph.defects)))
        assert counters[0] == counters[1]
        assert counters[0][0] == 0 and counters[0][2]

    def test_field_bytes_match_per_value_writer(self, tmp_path):
        # reference: the writer that formatted and joined each value alone
        mesh = generate_box(3, 3, 3)
        mesh.detect_features(30.0)
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=(len(mesh.vertices), 9))
        coeffs *= 10.0 ** rng.integers(-20, 20, size=coeffs.shape)
        coeffs[0] = -0.0
        coeffs[1] = fr.REFERENCE_COEFFS
        coeffs[2, ::2] = [np.pi, -1e-310, 5e-324, 1.0 / 3.0, -2.0 ** 60]
        field = FrameField(mesh, coeffs, build_boundary_conditions(mesh))
        frames, _ = field.vertex_frames()
        want = "HexFrameField 1\n%d\n" % len(coeffs) + "".join(
            " ".join("%.17g" % x for x in c) + "  "
            + " ".join("%.17g" % x for x in R.ravel()) + "\n"
            for c, R in zip(field.coeffs, frames))
        path = tmp_path / "field.txt"
        write_field(field, str(path))
        assert path.read_bytes() == want.encode()


def _mutate(text, data):
    """Truncate ``text`` at a drawn token or replace that token."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    start, end = spans[data.draw(st.integers(0, len(spans) - 1), label="token")]
    sub = data.draw(st.sampled_from([None] + FUZZ_TOKENS), label="substitute")
    if sub is None:
        return text[:start]
    return text[:start] + sub + text[end:]


FUZZ = settings(derandomize=True, deadline=None, max_examples=50)


@FUZZ
@given(data=st.data())
def test_fuzz_read_medit(box_files, tmp_path_factory, data):
    mesh_path, _, _ = box_files
    path = _write(tmp_path_factory.getbasetemp() / "fuzz.mesh",
                  _mutate(Path(mesh_path).read_text(), data))
    try:
        read_medit(path)
    except HexFrameError:
        pass


def _read_outcome(reader, path):
    """The tagged arrays ``reader`` reads, or its exception's class and text."""
    try:
        mesh = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (mesh.vertices.tolist(), mesh.tets.tolist(),
            mesh.tagged_feature_edges, mesh.tagged_corners)


def _assert_readers_agree(path):
    got = _read_outcome(read_medit, path)
    want = _read_outcome(mesh_oracle.read_medit, path)
    assert got == want
    return got


SINGLE_TET_VARIANTS = [
    SINGLE_TET.replace("Vertices\n4\n", "# a comment\nvertices 4 # four\n"),
    SINGLE_TET.replace("\n", "\r\n"),
    SINGLE_TET.replace("End\n", ""),
    SINGLE_TET.replace("End\n", "End\nnot a section\n"),
    SINGLE_TET.replace("0 0 1 0\n", "0 0 1 ref#\n"),
    SINGLE_TET.replace("0 0 1 0\n", "0 0 1"),
    SINGLE_TET[:SINGLE_TET.index("0 0 1 0") + 5],
    SINGLE_TET.replace("Vertices\n4\n", "# c\n\n#\nVertices 4\n").replace(
        "0 1 0 0", "0 nan # x\n 0 0"),
    SINGLE_TET.replace("\n", "\r\n").replace("0 0 1 0", "0 0 x 0"),
    SINGLE_TET.replace("\n", "\r").replace("1 2 3 4 1", "1 2 3 4 -"),
    SINGLE_TET.replace("Vertices\n4", "Vertices\n-1"),
    SINGLE_TET.replace("Vertices\n4", "Vertices\n%d" % 10 ** 15),
    SINGLE_TET.replace("Tetrahedra", "Hexahedra"),
    SINGLE_TET.replace("1 2 3 4 1", "1 2 3 4 1.5"),
    SINGLE_TET.replace("1 2 3 4 1", "1 2 3 4 -99999999999999999999"),
    SINGLE_TET.replace("1 0 0 0", "1e400 0 0 0"),
    SINGLE_TET.replace("1 0 0 0", "1_0 0 0 0"),
    SINGLE_TET.replace("Dimension 3", "Dimension 2"),
    SINGLE_TET.replace("Dimension 3", "Dimension\n\n3.0"),
    SINGLE_TET.replace("Tetrahedra", "Tetrahedra\n1\n2 1 3 4 0\nTetrahedra"),
    SINGLE_TET.replace("Tetrahedra\n1", "Tetrahedra\n3"),
    SINGLE_TET.replace("Tetrahedra\n1", "Tetrahedra\n99999999999999999999"),
    SINGLE_TET.replace("1 2 3 4 1", "1 2 3 9223372036854775808 1"),
    SINGLE_TET.replace("1 2 3 4 1", "1 2 3 -9223372036854775808 1"),
    SINGLE_TET_TEMPLATE.format(extra="Triangles\n1\n1 2 3 7\nTriangles 1 1 2 5 7\n"),
    SINGLE_TET_TEMPLATE.format(extra="Edges\n2\n1 2 3\n2 3 -9223372036854775808\n"),
    SINGLE_TET_TEMPLATE.format(extra="Edges\n1\n1 0 3\n"),
    SINGLE_TET_TEMPLATE.format(extra="Corners\n2\n1\n-9223372036854775808\n"),
    SINGLE_TET_TEMPLATE.format(extra="Corners 1 1 Corners 1 4 Corners 0\n"),
    SINGLE_TET_TEMPLATE.format(extra="Corners\n2\n1\n"),
    "MeshVersionFormatted",
    "Dimension 3 Tetrahedra 1 1 2 3 4 1",
    "",
]


@pytest.mark.parametrize("text", SINGLE_TET_VARIANTS)
def test_readers_agree_on_variants(tmp_path, text):
    path = str(tmp_path / "m.mesh")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    _assert_readers_agree(path)


@FUZZ
@given(data=st.data())
def test_fuzz_readers_agree(box_files, tmp_path_factory, data):
    mesh_path, _, _ = box_files
    path = _write(tmp_path_factory.getbasetemp() / "fuzz_diff.mesh",
                  _mutate(Path(mesh_path).read_text(), data))
    outcome = _assert_readers_agree(path)
    if isinstance(outcome[0], type):
        assert issubclass(outcome[0], HexFrameError)


@FUZZ
@given(data=st.data())
def test_fuzz_read_field(box_files, tmp_path_factory, data):
    _, field_path, mesh = box_files
    path = _write(tmp_path_factory.getbasetemp() / "fuzz_field.txt",
                  _mutate(Path(field_path).read_text(), data))
    try:
        read_field(path, mesh)
    except HexFrameError:
        pass


@FUZZ
@given(data=st.data(), which=st.sampled_from(["mesh", "field"]))
def test_fuzz_cli_graph(box_files, tmp_path_factory, data, which):
    mesh_path, field_path, _ = box_files
    base = tmp_path_factory.getbasetemp()
    args = ["graph", "--mesh", mesh_path, "--out", str(base / "fuzz_out"),
            "--sweeps", "3"]
    if which == "mesh":
        args[2] = _write(base / "fuzz_cli.mesh",
                         _mutate(Path(mesh_path).read_text(), data))
    else:
        args += ["--field", _write(base / "fuzz_cli_field.txt",
                                   _mutate(Path(field_path).read_text(), data))]
    assert main(args) in (0, 2, 3, 64)
