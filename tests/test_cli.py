import os
from pathlib import Path

import numpy as np
import pytest

from hexframe.boxgen import generate_box
from hexframe.cli import main
from hexframe.meshio import read_vtk_polylines, write_medit


@pytest.fixture(scope="module")
def cube_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mesh") / "cube.mesh")
    mesh = generate_box(3, 3, 3)
    mesh.detect_features(30.0)
    write_medit(mesh, path)
    return path


def run(args):
    return main(args)


class TestUsage:
    def test_no_command_exits_64(self, capsys):
        assert run([]) == 64

    def test_unknown_command_exits_64(self):
        assert run(["frobnicate"]) == 64

    def test_missing_mesh_flag_exits_64(self):
        assert run(["solve"]) == 64

    def test_bad_seed_triple_exits_64(self, cube_path, tmp_path):
        code = run(["trace", "--mesh", cube_path, "--out", str(tmp_path),
                    "--seed", "0.5,0.5", "--dir", "1,0,0", "--sweeps", "3"])
        assert code == 64


class TestSolve:
    def test_cube_solve_writes_artifacts(self, cube_path, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["solve", "--mesh", cube_path, "--out", out,
                    "--sweeps", "5"]) == 0
        for name in ("field.txt", "graph.vtk", "report.txt"):
            assert os.path.exists(os.path.join(out, name))
        report = dict(
            line.split(": ", 1)
            for line in Path(out, "report.txt").read_text().splitlines()
        )
        assert report["chains"] == "0"
        assert report["chains_35"] == "0"

    def test_report_counts_match_graph_vtk(self, cube_path, tmp_path):
        out = str(tmp_path / "run")
        run(["solve", "--mesh", cube_path, "--out", out, "--sweeps", "5"])
        polylines, scalars = read_vtk_polylines(os.path.join(out, "graph.vtk"))
        report = dict(
            line.split(": ", 1)
            for line in Path(out, "report.txt").read_text().splitlines()
        )
        assert int(report["chains"]) == len(polylines)

    @pytest.mark.parametrize("command", ["solve", "correct", "trace"])
    def test_out_is_a_file_exits_3(self, cube_path, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        args = [command, "--mesh", cube_path, "--out", str(out), "--sweeps", "3"]
        if command == "correct":
            args += ["--strategy", "snap"]
        if command == "trace":
            args += ["--seed", "0.2,0.5,0.5", "--dir", "1,0,0"]
        assert run(args) == 3
        assert "cannot create --out" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_reuse_field_artifact(self, cube_path, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        run(["solve", "--mesh", cube_path, "--out", out1, "--sweeps", "5"])
        assert run(["graph", "--mesh", cube_path, "--out", out2,
                    "--field", os.path.join(out1, "field.txt")]) == 0
        f1 = Path(out1, "field.txt").read_bytes()
        f2 = Path(out2, "field.txt").read_bytes()
        assert f1 == f2


class TestDeterminism:
    def test_two_runs_byte_identical(self, cube_path, tmp_path):
        outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for out in outs:
            assert run(["solve", "--mesh", cube_path, "--out", out,
                        "--sweeps", "5"]) == 0
        for name in ("field.txt", "graph.vtk", "report.txt"):
            a = Path(outs[0], name).read_bytes()
            b = Path(outs[1], name).read_bytes()
            assert a == b, name


class TestTrace:
    def test_trace_writes_polyline(self, cube_path, tmp_path):
        out = str(tmp_path / "tr")
        assert run(["trace", "--mesh", cube_path, "--out", out,
                    "--seed", "0.2,0.5,0.5", "--dir", "1,0,0",
                    "--sweeps", "3"]) == 0
        polylines, _ = read_vtk_polylines(os.path.join(out, "trace.vtk"))
        assert len(polylines) == 1
        pts = np.asarray(polylines[0])
        assert pts[-1][0] > 0.9

    def test_seed_outside_reports_failure(self, cube_path, tmp_path):
        code = run(["trace", "--mesh", cube_path, "--out", str(tmp_path),
                    "--seed", "5,5,5", "--dir", "1,0,0", "--sweeps", "3"])
        assert code == 3


class TestReport:
    def test_report_prints_previous_run(self, cube_path, tmp_path, capsys):
        out = str(tmp_path / "rep")
        run(["solve", "--mesh", cube_path, "--out", out, "--sweeps", "5"])
        capsys.readouterr()
        assert run(["report", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "chains: 0" in text

    def test_report_without_run_exits_64(self, tmp_path):
        assert run(["report", "--out", str(tmp_path / "nope")]) == 64
