import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hexframe
import hexframe.frames as fr
from hexframe.boxgen import generate_box
from hexframe.cli import main
from hexframe.meshio import (
    read_vtk_polylines,
    write_field,
    write_medit,
    write_vtk_graph,
)
from hexframe.solver import BoundaryConditionSet, FrameField


@pytest.fixture(scope="module")
def cube_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("mesh") / "cube.mesh")
    mesh = generate_box(3, 3, 3)
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

    @pytest.mark.parametrize("flag, value", [
        ("--dir", "0,0,0"), ("--dir", "nan,0,0"), ("--seed", "nan,0.5,0.5"),
        ("--seed", "0.5,inf,0.5")])
    def test_bad_trace_value_exits_64(self, cube_path, tmp_path, flag, value):
        values = {"--seed": "0.5,0.5,0.5", "--dir": "1,0,0"}
        values[flag] = value
        argv = ["trace", "--mesh", cube_path, "--out", str(tmp_path),
                "--sweeps", "3"] + ["%s=%s" % kv for kv in values.items()]
        assert run(argv) == 64
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("extra", [
        ["solve", "--lambda", "0.5"],
        ["correct", "--strategy", "extrude-curve", "--step", "0.1"],
        ["trace", "--seed", "0.5,0.5,0.5", "--dir", "1,0,0", "--step", "0.1"]])
    def test_removed_option_exits_64(self, cube_path, tmp_path, extra):
        # the relaxation and the streamline step are set from Python only
        argv = extra[:1] + ["--mesh", cube_path, "--out", str(tmp_path)] + extra[1:]
        assert run(argv) == 64
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--sweeps", "-3"), ("--sweeps", "2.5"),
        ("--angle-threshold", "nan"), ("--angle-threshold", "inf"),
        ("--angle-threshold", "-5"), ("--angle-threshold", "181")])
    def test_bad_solver_value_exits_64(self, cube_path, tmp_path, monkeypatch,
                                       flag, value):
        import hexframe.cli as cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the usage check")

        monkeypatch.setattr(cli, "compute_field", no_solve)
        assert run(["solve", "--mesh", cube_path, "--out", str(tmp_path),
                    "%s=%s" % (flag, value)]) == 64
        assert not (tmp_path / "report.txt").exists()


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
        assert report["cg_info"] == "0"
        assert int(report["smoothing_steps"]) > int(report["smoothing_sweeps"]) > 0
        keys = list(report)
        assert keys.index("smoothing_steps") == keys.index("smoothing_sweeps") + 1
        assert keys.index("cg_residual") == keys.index("cg_iterations") + 1 \
            == keys.index("cg_info") + 2
        assert int(report["cg_iterations"]) > 0
        residual = float(report["cg_residual"])
        assert 0.0 <= residual <= 1e-8
        assert report["cg_residual"] == "%.6g" % residual
        assert float(report["smoothing_last_delta"]) > 0.0
        assert report["smoothing_last_delta"] == "%.6g" % float(
            report["smoothing_last_delta"])

    def test_report_lists_every_sweep_delta(self, tmp_path):
        out = str(tmp_path / "run")
        assert run(["solve", "--mesh", os.path.join(FIXTURES, "notch.mesh"),
                    "--out", out, "--sweeps", "3"]) == 0
        report = read_report(out)
        keys = list(report)
        assert keys.index("smoothing_deltas") == keys.index("smoothing_last_delta") + 1
        deltas = report["smoothing_deltas"].split(" ")
        assert len(deltas) == int(report["smoothing_sweeps"]) == 3
        assert deltas == ["%.6g" % float(d) for d in deltas]
        assert deltas[-1] == report["smoothing_last_delta"]
        assert float(deltas[0]) > float(deltas[-1]) > 0.0

    def test_verbose_logs_read_and_solve_times(self, cube_path, tmp_path, capsys):
        assert run(["solve", "--mesh", cube_path, "--out", str(tmp_path),
                    "--sweeps", "2", "--verbose"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["read", "solve"]

    def test_defaults_are_the_library_defaults(self):
        from hexframe.cli import _build_parser
        from hexframe.mesh import FEATURE_ANGLE_DEFAULT
        from hexframe.solver import SolverConfig

        args = _build_parser().parse_args(["solve", "--mesh", "m.mesh"])
        assert args.sweeps == SolverConfig().smoothing_sweeps == 50
        assert args.angle_threshold == FEATURE_ANGLE_DEFAULT == 30.0

    def test_vtk_polylines_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = [SimpleNamespace(points=rng.normal(size=(k, 3)) * 10.0 ** e)
                 for k, e in ((5, -9), (0, 0), (1, 300), (12, 4))]
        path = str(tmp_path / "lines.vtk")
        write_vtk_graph(lines, path)
        polylines, scalars = read_vtk_polylines(path)
        assert len(polylines) == len(lines)
        for got, line in zip(polylines, lines):
            assert np.array_equal(got, line.points.reshape(-1, 3))
        assert scalars == {"valence": [0] * 4, "is_35": [0] * 4}

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

    @pytest.mark.parametrize("command", ["solve", "report"])
    def test_report_is_a_directory_exits_3(self, cube_path, tmp_path, capsys,
                                           command):
        (tmp_path / "report.txt").mkdir()
        args = ["report", "--out", str(tmp_path)] if command == "report" else \
            ["solve", "--mesh", cube_path, "--out", str(tmp_path), "--sweeps", "1"]
        assert run(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "report.txt" in err[0]

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

    def test_zero_field_ends_in_singular_region(self, tmp_path, capsys):
        # interior rows of norm 0 interpolate to a zero vector at the seed
        mesh = generate_box(4, 4, 4)
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(mesh.vertices), 1))
        interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_vertices)
        coeffs[interior] = 0.0
        mesh_path, field_path = str(tmp_path / "box.mesh"), str(tmp_path / "field.txt")
        write_medit(mesh, mesh_path)
        write_field(FrameField(mesh, coeffs, BoundaryConditionSet(len(coeffs))),
                    field_path)
        out = str(tmp_path / "tr")
        assert run(["trace", "--mesh", mesh_path, "--field", field_path,
                    "--out", out, "--seed", "0.5,0.5,0.5", "--dir", "1,0,0"]) == 0
        assert capsys.readouterr().out.startswith("HitSingularRegion")


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

    def test_report_counts_hot_faces(self, tmp_path):
        # zeroed interior rows project with quality 0, so every interior
        # face on one of them is a hot face
        mesh = generate_box(4, 4, 4)
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(mesh.vertices), 1))
        interior = np.setdiff1d(np.arange(len(mesh.vertices)), mesh.boundary_vertices)
        coeffs[interior[::5]] = 0.0
        adj = mesh.adjacency
        hot = np.isin(adj.faces[adj.interior_mask], interior[::5]).any(axis=1)
        mesh_path, field_path = str(tmp_path / "box.mesh"), str(tmp_path / "field.txt")
        write_medit(mesh, mesh_path)
        write_field(FrameField(mesh, coeffs, BoundaryConditionSet(len(coeffs))),
                    field_path)
        out = str(tmp_path / "graph")
        assert run(["graph", "--mesh", mesh_path, "--field", field_path,
                    "--out", out]) == 0
        report = read_report(out)
        keys = list(report)
        assert keys.index("hot_faces") == keys.index("defects") + 1
        assert int(report["hot_faces"]) == hot.sum() > 0
        assert int(report["defects"]) >= int(report["hot_faces"])


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def read_report(out):
    return dict(line.split(": ", 1)
                for line in Path(out, "report.txt").read_text().splitlines())


class TestCorrectionCounters:
    """Plan counters in report.txt, against the plan the command made."""

    def captured(self, monkeypatch, name):
        import hexframe.cli as cli

        plans = []

        def keep(*args, **kwargs):
            result = planner(*args, **kwargs)
            plans.append(result[0] if isinstance(result, tuple) else result)
            return result

        planner = getattr(cli, name)
        monkeypatch.setattr(cli, name, keep)
        return plans

    @pytest.mark.parametrize("strategy, planner", [
        ("extrude-curve", "extrude_feature_curves"),
        ("extrude-node", "extrude_singular_nodes")])
    def test_streamline_counters(self, tmp_path, monkeypatch, strategy, planner):
        plans = self.captured(monkeypatch, planner)
        out = str(tmp_path / "out")
        code = run(["correct", "--mesh", os.path.join(FIXTURES, "arc_box.mesh"),
                    "--sweeps", "5", "--out", out, "--strategy", strategy])
        plan, = plans
        assert code == (0 if plan.applicable else 2)
        report = read_report(out)
        lines = plan.diagnostics["streamlines"]
        assert len(lines) > 0
        assert int(report["streamlines"]) == len(lines)
        assert int(report["streamline_points"]) == sum(len(sl.points) for sl in lines)
        batches = int(report["trace_batches"])
        assert batches == plan.diagnostics["trace_batches"]
        # one seed batch, then at most four stacked calls per step
        assert 1 < batches <= 1 + 4 * max(len(sl.points) for sl in lines)
        assert not any(k.startswith("snap_") for k in report)

    def test_snap_round_counters(self, tmp_path, monkeypatch):
        plans = self.captured(monkeypatch, "snap_until_clean")
        out = str(tmp_path / "out")
        assert run(["correct", "--mesh", os.path.join(FIXTURES, "notch.mesh"),
                    "--sweeps", "5", "--out", out, "--strategy", "snap"]) == 0
        plan, = plans
        report = read_report(out)
        rounds = plan.diagnostics["rounds"]
        assert int(report["snap_rounds"]) == len(rounds) > 0
        best = plan.diagnostics["best_round"]
        assert int(report["snap_best_round"]) == best
        assert list(report).index("snap_best_round") == list(report).index(
            "snap_rounds") + 1
        for i, r in enumerate(rounds):
            assert report["snap_round_%d" % i] == "paths=%d rows=%d chains_35=%d" % (
                r["paths"], r["rows"], r["chains_35"])
        assert sum(r["paths"] for r in rounds[:best + 1]) == len(plan.snapped)
        assert rounds[best]["rows"] == len(plan.internal_constraints)
        assert rounds[best]["chains_35"] == int(report["chains_35_after"])
        assert "streamlines" not in report


class TestCorrectionVerdict:
    def test_closed_35_chains_reject_the_snap(self, tmp_path):
        # the 5-sweep field's four 3-5 chains are closed loops, which have
        # no ends to snap, so no round runs
        out = str(tmp_path / "out")
        assert run(["correct", "--mesh", os.path.join(FIXTURES, "curved_arc_box.mesh"),
                    "--sweeps", "5", "--out", out, "--strategy", "snap"]) == 2
        report = read_report(out)
        assert report["applicable"] == "False"
        assert report["chains_35_before"] == "4"
        assert report["chains_35_after"] == "4"
        assert report["snap_rounds"] == "0"
        assert report["failure_0"] == "chains=4, reason=closed_chains_35"
        assert "failure_1" not in report
        assert not os.path.exists(os.path.join(out, "field.txt"))

    def test_added_35_chains_reject_the_correction(self, tmp_path):
        # the extrude-node plan applies, but its re-solve leaves 35 3-5
        # chains where the 5-sweep field had 4
        out = str(tmp_path / "out")
        assert run(["correct", "--mesh", os.path.join(FIXTURES, "curved_arc_box.mesh"),
                    "--sweeps", "5", "--out", out, "--strategy", "extrude-node"]) == 2
        report = read_report(out)
        assert report["applicable"] == "False"
        assert report["chains_35_before"] == "4"
        assert report["chains_35_after"] == "35"
        assert int(report["streamlines"]) > 0
        assert report["failure_0"] == "after=35, before=4, reason=chains_35_increased"
        assert "failure_1" not in report
        assert not os.path.exists(os.path.join(out, "field.txt"))


CHECK_IMPORTS = os.path.join(os.path.dirname(__file__), "..", "tools",
                             "check_imports.py")


def check_imports(*modules):
    """Exit code and output of ``tools/check_imports.py`` on ``modules``,
    with this tree's hexframe importable."""
    src = os.path.dirname(os.path.dirname(hexframe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, CHECK_IMPORTS, *modules], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout.split()


def test_cli_loads_no_scipy_and_no_numpy_random():
    # scipy.sparse costs 21.7 MB of peak RSS, scipy.spatial 6.2 MB and
    # numpy.random 6.1 MB: each more than the benchmark's 5% peak_rss_mb
    # bound
    assert check_imports() == (0, [])


def test_import_guard_sees_scipy_spatial():
    code, extra = check_imports("hexframe.cli", "scipy.spatial")
    assert code == 1 and "scipy.spatial" in extra


def test_import_guard_sees_scipy_sparse():
    code, extra = check_imports("hexframe.cli", "scipy.sparse")
    assert code == 1 and "scipy.sparse" in extra


def test_import_guard_sees_numpy_random():
    code, extra = check_imports("hexframe.cli", "numpy.random")
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, check=True).stdout.strip()
    if bare == "True":
        # numpy 1.x loads numpy.random itself, so it is not hexframe's
        assert (code, extra) == (0, [])
    else:
        assert code == 1 and "numpy.random" in extra
