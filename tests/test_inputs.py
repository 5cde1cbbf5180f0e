"""Malformed input files end in typed errors, never in tracebacks."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexframe.boxgen import generate_box
from hexframe.cli import main
from hexframe.errors import (
    DegenerateTet,
    HexFrameError,
    IndexOutOfRange,
    IoError,
    ParseError,
)
from hexframe.mesh import TetMesh
from hexframe.meshio import read_field, read_medit, write_field, write_medit
from hexframe.solver import SolverConfig, build_boundary_conditions, compute_field

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

    def test_corner_index_out_of_range(self, tmp_path):
        text = SINGLE_TET_TEMPLATE.format(extra="Corners\n1\n99\n")
        with pytest.raises(IndexOutOfRange, match="99"):
            read_medit(_write(tmp_path / "m.mesh", text), detect=False)


class TestMeshErrors:
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

    def test_round_trip_carries_boundary_conditions(self, box_files):
        _, field_path, mesh = box_files
        field = read_field(field_path, mesh)
        ref = build_boundary_conditions(mesh)
        for name in ("kind", "coeffs", "normals"):
            assert np.array_equal(getattr(field.bcs, name), getattr(ref, name))


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
