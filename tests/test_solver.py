import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import hexframe.frames as fr
import hexframe.solver as solver
import solver_oracle
from hexframe.boxgen import generate_box
from hexframe.correction import CorrectionPlan, apply_plan
from hexframe.errors import (
    CGDiverged,
    DegenerateTangent,
    HexFrameError,
    Unconstrained,
)
from hexframe.mesh import TetMesh
from hexframe.meshio import read_medit
from hexframe.singularities import detect_35, extract_graph, surface_cross_indices
from hexframe.solver import (
    DIRICHLET,
    FREE,
    TANGENCY,
    BoundaryConditionSet,
    FrameField,
    SolverConfig,
    assemble_stiffness,
    build_boundary_conditions,
    dirichlet_bc_on_curve,
    smooth_nonlinear,
    solve_initial,
)


FIXTURES = ["notch", "groove_box", "arc_box", "curved_arc_box", "halfsphere_box"]
FIXTURES_AND_BOXES = FIXTURES + [(n, b) for n in (4, 6, 8) for b in (0.0, 0.1, 0.2)]


def bulged_box():
    return generate_box(4, 4, 4, bulge=0.3)


def captured_cg(monkeypatch):
    """Each CG call's operator, right-hand side and Jacobi diagonal, from
    the calls after this one; the calls still solve."""
    calls = []
    cg = solver._cg

    def spy(matvec, b, diag, maxiter):
        calls.append((matvec, b, diag))
        return cg(matvec, b, diag, maxiter)

    monkeypatch.setattr(solver, "_cg", spy)
    return calls


@pytest.fixture(scope="module")
def cube():
    return generate_box(3, 3, 3)


class TestStiffness:
    def test_zero_row_sums(self, cube):
        K = assemble_stiffness(cube)
        assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-12

    def test_linear_field_energy_equals_volume(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        mesh = TetMesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
        K = assemble_stiffness(mesh)
        u = mesh.vertices[:, 0]  # u = x, |grad u|^2 = 1
        vol = mesh.tet_volumes().sum()
        assert abs(u @ (K @ u) - vol) < 1e-12

    def test_symmetry(self):
        mesh = generate_box(2, 2, 2)
        K = solver_oracle.as_scipy(assemble_stiffness(mesh))
        assert abs(K - K.T).max() < 1e-12


class TestCurveBCs:
    def test_axis_aligned_box_edge(self, cube):
        # vertical box edges get the reference frame coefficients
        for curve in cube.feature_curves:
            vals = dirichlet_bc_on_curve(curve, cube)
            for v, c in vals.items():
                assert np.allclose(np.abs(c), np.abs(fr.REFERENCE_COEFFS), atol=1e-9)
                assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-9)

    def test_consistency_with_rotation(self, cube):
        curve = cube.feature_curves[0]
        vals = dirichlet_bc_on_curve(curve, cube)
        for i, v in enumerate(curve.vertices):
            if v not in vals:
                continue
            t = curve.tangents[i]
            n = cube.patch_normals(v)[0]
            a2 = n - (n @ t) * t
            a2 /= np.linalg.norm(a2)
            R = np.column_stack([a2, np.cross(t, a2), t])
            assert np.allclose(vals[v], fr.coeffs_from_rotation(R), atol=1e-9)


    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_short_or_nan_tangent_raises(self, cube, bad):
        curve = cube.feature_curves[0]
        broken = SimpleNamespace(curve_id=curve.curve_id, vertices=curve.vertices,
                                 tangents=curve.tangents.copy(),
                                 target_valence=curve.target_valence)
        broken.tangents[1] = bad
        with pytest.raises(DegenerateTangent, match="vertex %d" % curve.vertices[1]):
            dirichlet_bc_on_curve(broken, cube)


class TestStandardBoundaryConditions:
    """The whole-array boundary conditions give the bytes of the loop over
    curves in ``solver_oracle``."""

    @pytest.mark.parametrize("name", FIXTURES_AND_BOXES, ids=str)
    def test_matches_curve_loop(self, name):
        if name in FIXTURES:
            mesh = fixture_mesh(name)
        else:
            n, bulge = name
            mesh = generate_box(n, n, n, bulge=bulge)
        got = build_boundary_conditions(mesh)
        want = solver_oracle.build_boundary_conditions(mesh)
        for field in ("kind", "coeffs", "normals"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_corner_mean_adds_in_curve_order(self):
        # three curves meet at each box corner; with their tangents tilted
        # apart, the sum of their frames depends on the order of addition
        mesh = generate_box(3, 3, 3)
        rng = np.random.default_rng(2)
        for curve in mesh.feature_curves:
            curve.tangents = curve.tangents + 0.1 * rng.normal(size=curve.tangents.shape)
        got = build_boundary_conditions(mesh)
        want = solver_oracle.build_boundary_conditions(mesh)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


class TestInitialSolve:
    def test_cube_constant_field(self, cube):
        bcs = build_boundary_conditions(cube)
        field = solve_initial(cube, bcs)
        dev = np.abs(field.coeffs - fr.REFERENCE_COEFFS).max()
        assert dev < 1e-7

    def test_constraints_satisfied_exactly(self, cube):
        bcs = build_boundary_conditions(cube)
        field = solve_initial(cube, bcs)
        for v in np.flatnonzero(bcs.kind == DIRICHLET):
            assert np.array_equal(field.coeffs[v], bcs.coeffs[v])
        for v in np.flatnonzero(bcs.kind == TANGENCY):
            h0, h1, h2 = fr.tangency_basis(bcs.normals[v])
            d = field.coeffs[v] - h0
            res = d - (d @ h1) * h1 - (d @ h2) * h2
            assert np.linalg.norm(res) < 1e-9

    def test_energy_optimal_among_feasible(self, cube):
        bcs = build_boundary_conditions(cube)
        K = assemble_stiffness(cube)
        field = solve_initial(cube, bcs, K=K)
        base = field.energy(K)
        rng = np.random.default_rng(4)
        free = np.flatnonzero(bcs.kind == FREE)
        for _ in range(100):
            pert = field.coeffs.copy()
            for v in rng.choice(free, size=min(5, len(free)), replace=False):
                pert[v] += 0.1 * rng.normal(size=9)
            energy = sum(pert[:, k] @ (K @ pert[:, k]) for k in range(9))
            assert energy >= base - 1e-9


    def test_operator_matches_reduced_system(self, monkeypatch):
        # the matrix-free operator, right-hand side and Jacobi diagonal are
        # those of the assembled system A^T (K x I9) A of the vertex loop
        mesh = bulged_box()
        bcs = build_boundary_conditions(mesh)
        for v in np.flatnonzero(bcs.kind == TANGENCY)[::5]:
            bcs.set_free(v)
        K = assemble_stiffness(mesh)
        calls = captured_cg(monkeypatch)
        solve_initial(mesh, bcs, K=K)
        (matvec, rhs, diag), = calls
        A, b = solver_oracle.reduced_system(bcs)
        # the solver's unknowns are the free vertices' 9 coefficients, then
        # the tangency vertices' (c, s), each in vertex order
        widths = np.array([9, 0, 2])[bcs.kind]
        offsets = np.cumsum(widths) - widths
        free = offsets[bcs.kind == FREE][:, None] + np.arange(9)
        tang = offsets[bcs.kind == TANGENCY][:, None] + np.arange(2)
        A = A[:, np.concatenate([free.ravel(), tang.ravel()])]
        K9 = sp.kron(solver_oracle.as_scipy(K), sp.identity(9), format="csr")
        M = (A.T @ (K9 @ A)).tocsr()
        assert len(rhs) == len(diag) == M.shape[0] == M.shape[1]

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.normal(size=M.shape[1])
            assert close(matvec(u), M @ u)
        assert close(rhs, -A.T @ (K9 @ b))
        assert close(diag, M.diagonal())

    def test_tangency_basis_orthonormal(self):
        bcs = build_boundary_conditions(bulged_box())
        _, h1, h2 = fr.tangency_basis(bcs.normals[bcs.kind == TANGENCY])
        assert len(h1) > 0
        for a, b, want in ((h1, h1, 1.0), (h2, h2, 1.0), (h1, h2, 0.0)):
            assert np.abs(np.einsum("ij,ij->i", a, b) - want).max() < 1e-12

    def test_all_dirichlet_runs_no_cg(self, monkeypatch):
        mesh = generate_box(2, 2, 2)
        bcs = BoundaryConditionSet(len(mesh.vertices))
        rng = np.random.default_rng(3)
        for v in range(len(bcs.kind)):
            bcs.set_dirichlet(v, rng.normal(size=9))
        calls = captured_cg(monkeypatch)
        field = solve_initial(mesh, bcs)
        assert np.array_equal(field.coeffs, bcs.coeffs)
        assert calls == [] and "cg_iterations" not in field.report

    def test_unconstrained_raises_typed_error(self, monkeypatch):
        # with every row free the field would be zero
        mesh = bulged_box()
        bcs = build_boundary_conditions(mesh)
        bcs.kind[:] = FREE
        calls = captured_cg(monkeypatch)
        with pytest.raises(Unconstrained, match="no Dirichlet or tangency"):
            solve_initial(mesh, bcs)
        assert calls == [] and issubclass(Unconstrained, HexFrameError)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("bulge", [0.0, 0.1, 0.2])
    def test_generated_box_solves_as_built(self, n, bulge):
        # the mesh detects the tagged box edges when it is built
        field = solver.compute_field(generate_box(n, n, n, bulge=bulge),
                                     SolverConfig(smoothing_sweeps=5))
        assert np.isfinite(field.coeffs).all()
        assert surface_cross_indices(field)[2] == 2

    def test_cg_failure_raises(self, cube, monkeypatch):
        monkeypatch.setattr(solver, "_cg", lambda matvec, b, diag, maxiter:
                            (np.zeros_like(b), maxiter, maxiter))
        with pytest.raises(CGDiverged):
            solve_initial(cube, build_boundary_conditions(cube))


class TestBoundaryConditionSet:
    def test_setters_keep_one_kind_per_vertex(self):
        bcs = BoundaryConditionSet(3)
        bcs.set_dirichlet(1, fr.REFERENCE_COEFFS)
        bcs.set_tangency(1, [0.0, 3.0, 0.0])
        assert list(bcs.kind) == [FREE, TANGENCY, FREE]
        assert not bcs.coeffs.any()
        assert np.array_equal(bcs.normals[1], [0.0, 1.0, 0.0])
        bcs.set_free(1)
        assert not bcs.kind.any() and not bcs.normals.any()

    def test_copy_is_independent(self, cube):
        bcs = build_boundary_conditions(cube)
        out = bcs.copy()
        out.set_free(int(np.flatnonzero(bcs.kind == DIRICHLET)[0]))
        assert (out.kind == DIRICHLET).sum() == (bcs.kind == DIRICHLET).sum() - 1


class TestSmoothing:
    def test_constant_field_fixed_point(self, cube):
        bcs = build_boundary_conditions(cube)
        field = solve_initial(cube, bcs)
        out = smooth_nonlinear(field)
        assert np.abs(out.coeffs - fr.REFERENCE_COEFFS).max() < 1e-6

    def test_lambda_zero_energy_monotone(self, cube):
        bcs = build_boundary_conditions(cube)
        K = assemble_stiffness(cube)
        field = solve_initial(cube, bcs, K=K)
        rng = np.random.default_rng(5)
        coeffs = field.coeffs + 0.05 * rng.normal(size=field.coeffs.shape)
        # re-pin constrained vertices
        dirichlet = bcs.kind == DIRICHLET
        coeffs[dirichlet] = bcs.coeffs[dirichlet]
        field = FrameField(cube, coeffs, bcs)
        cfg = SolverConfig(projection_relaxation=0.0, smoothing_sweeps=1,
                          convergence_delta=0.0)
        energies = [field.energy(K)]
        current = field
        for _ in range(5):
            current = smooth_nonlinear(current, cfg, K=K)
            energies.append(current.energy(K))
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_determinism(self, cube):
        bcs = build_boundary_conditions(cube)
        cfg = SolverConfig(smoothing_sweeps=3, convergence_delta=0.0)
        a = smooth_nonlinear(solve_initial(cube, bcs, cfg), cfg)
        b = smooth_nonlinear(solve_initial(cube, bcs, cfg), cfg)
        assert np.array_equal(a.coeffs, b.coeffs)


def graph_counters(field):
    graph = extract_graph(field)
    detect_35(graph)
    return ([c.is_35 for c in graph.chains], len(graph.singular_faces),
            len(graph.defects), len(graph.boundary_nodes),
            len(graph.junction_tets))




def fixture_mesh(name):
    """A fixture or, for "box", a 4^3 box or, for "rotated_box", the bulged
    6^3 box in general position of the singularity tests."""
    if name == "box":
        return generate_box(4, 4, 4)
    if name == "rotated_box":
        box = generate_box(6, 6, 6, bulge=0.3)
        R = fr.axis_angle_rotation(np.array([0.3, -0.7, 1.1]))
        return TetMesh(box.vertices @ R.T, box.tets,
                       feature_edges=box.tagged_feature_edges,
                       corners=box.tagged_corners)
    return read_medit(os.path.join(os.path.dirname(__file__), "..",
                                   "fixtures", name + ".mesh"))


def cg_field(name):
    """CG field and stiffness of ``fixture_mesh(name)``."""
    mesh = fixture_mesh(name)
    K = assemble_stiffness(mesh)
    return solve_initial(mesh, build_boundary_conditions(mesh), K=K), K


class TestOwnCG:
    """``solver._cg`` makes the bits of scipy's Jacobi-preconditioned
    ``cg``, on the reduced systems ``solve_initial`` solves."""

    @staticmethod
    def scipy_cg(matvec, b, diag, maxiter):
        import scipy.sparse.linalg as spla

        n = len(b)
        steps = []
        x, info = spla.cg(
            spla.LinearOperator((n, n), matvec=matvec, dtype=float), b,
            rtol=solver.CG_TOLERANCE, atol=0.0, maxiter=maxiter,
            M=spla.LinearOperator((n, n), matvec=lambda r: r / diag, dtype=float),
            callback=lambda xk: steps.append(None))
        return x, info, len(steps)

    @staticmethod
    def assert_same(got, want):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("name", FIXTURES + ["bulged_box"])
    def test_matches_scipy(self, name, monkeypatch):
        mesh = bulged_box() if name == "bulged_box" else fixture_mesh(name)
        calls = captured_cg(monkeypatch)
        field = solve_initial(mesh, build_boundary_conditions(mesh))
        (matvec, b, diag), = calls
        maxiter = 10 * len(b)
        got = solver._cg(matvec, b, diag, maxiter)
        self.assert_same(got, self.scipy_cg(matvec, b, diag, maxiter))
        assert got[1] == field.report["cg_info"] == 0
        assert got[2] == field.report["cg_iterations"] > 0

    def test_cut_short_by_maxiter(self, monkeypatch):
        calls = captured_cg(monkeypatch)
        solve_initial(bulged_box(), build_boundary_conditions(bulged_box()))
        (matvec, b, diag), = calls
        got = solver._cg(matvec, b, diag, 5)
        assert got[1:] == (5, 5)
        self.assert_same(got, self.scipy_cg(matvec, b, diag, 5))

    def test_zero_rhs(self):
        b = np.array([0.0, -0.0, 0.0])
        got = solver._cg(lambda u: u, b, np.ones(3), 30)
        assert got[1:] == (0, 0)
        self.assert_same(got, self.scipy_cg(lambda u: u, b, np.ones(3), 30))


class TestLevelSchedule:
    """A sweep run one dependency level at a time is the vertex-order sweep
    of ``solver_oracle``."""

    @pytest.mark.parametrize("name", FIXTURES + ["rotated_box"])
    def test_one_pass_levels_match_fixpoint(self, name):
        mesh = fixture_mesh(name)
        K = assemble_stiffness(mesh)
        bcs = build_boundary_conditions(mesh)
        W, move = solver_oracle.moving_rows(K, bcs)
        level = next(solver._sweep_steps(W, move)) - 1
        want = [v for v, _, _, _ in solver_oracle._sweep_levels(K, bcs)]
        assert level.max() + 1 == len(want)
        for k, v in enumerate(want):
            assert np.array_equal(move[level == k], v)

    @pytest.mark.parametrize("name", ["notch", "box"])
    @pytest.mark.parametrize("sweeps", [1, 3])
    def test_lambda_zero_matches_vertex_loop(self, name, sweeps):
        field, K = cg_field(name)
        cfg = SolverConfig(projection_relaxation=0.0, smoothing_sweeps=sweeps,
                           convergence_delta=0.0)
        out = smooth_nonlinear(field, cfg, K=K)
        want, delta = solver_oracle.smooth_coeffs(field, K, sweeps, 0.0)
        assert np.abs(out.coeffs - want).max() < 1e-13
        assert abs(out.report["smoothing_last_delta"] - delta) < 1e-13

    def test_default_lambda_matches_vertex_loop(self):
        field, K = cg_field("notch")
        cfg = SolverConfig(smoothing_sweeps=5, convergence_delta=0.0)
        out = smooth_nonlinear(field, cfg, K=K)
        want, _ = solver_oracle.smooth_coeffs(field, K, 5,
                                              cfg.projection_relaxation)
        assert np.abs(out.coeffs - want).max() < 1e-6
        loop = FrameField(field.mesh, want, field.bcs, cfg)
        assert graph_counters(out) == graph_counters(loop)


class TestWavefront:
    """The cross-sweep wavefront gives the bits of the level-by-level sweeps
    of ``solver_oracle.smooth_levels``, and stops at the same sweep."""

    @pytest.mark.parametrize("name, lam, sweeps, delta, steps", [
        ("notch", 0.95, 5, 0.0, 90),
        ("groove_box", 0.95, 5, 0.0, 102),
        ("box", 0.0, 5, 0.0, None),
        # stops at sweep 6 of 50 with later sweeps' rows already run
        ("arc_box", 0.95, 50, 3e-3, None),
    ])
    def test_matches_level_schedule(self, name, lam, sweeps, delta, steps):
        field, K = cg_field(name)
        cfg = SolverConfig(smoothing_sweeps=sweeps, projection_relaxation=lam,
                           convergence_delta=delta)
        out = smooth_nonlinear(field, cfg, K=K)
        want, done, last = solver_oracle.smooth_levels(field, cfg, K)
        assert np.array_equal(out.coeffs, want)
        assert out.report["smoothing_sweeps"] == done
        assert out.report["smoothing_last_delta"] == last
        assert out.report["smoothing_converged"] == (last < delta)
        if steps is not None:
            assert out.report["smoothing_steps"] == steps
        if delta:
            assert done == 6

    def test_reports_every_sweep_delta(self):
        # a sweep's max change does not depend on the sweeps after it
        field, K = cg_field("notch")
        report = smooth_nonlinear(field, SolverConfig(
            smoothing_sweeps=3, convergence_delta=0.0), K=K).report
        want = [smooth_nonlinear(field, SolverConfig(
            smoothing_sweeps=k, convergence_delta=0.0), K=K).report[
                "smoothing_last_delta"] for k in (1, 2, 3)]
        assert report["smoothing_deltas"] == want
        assert report["smoothing_last_delta"] == want[-1]

    def test_few_sweeps_in_flight(self, monkeypatch):
        # each sweep's steps come when the sweep before it starts, so rows
        # and snapshots are held for the sweeps in flight, never for all
        made = []

        class Counted(solver._Sweep):
            def __init__(self, steps, now):
                super().__init__(steps, now)
                made.append((now, self.last))

        monkeypatch.setattr(solver, "_Sweep", Counted)
        field, K = cg_field("box")
        cfg = SolverConfig(smoothing_sweeps=30, projection_relaxation=0.0,
                           convergence_delta=0.0)
        steps = smooth_nonlinear(field, cfg, K=K).report["smoothing_steps"]
        assert len(made) == 30
        assert max(sum(now <= t <= last for now, last in made)
                   for t in range(1, steps + 1)) == 6

    def test_no_moving_vertex(self, cube):
        field = solve_initial(cube, build_boundary_conditions(cube))
        bcs = field.bcs.copy()
        bcs.kind[:] = DIRICHLET
        bcs.coeffs[:] = field.coeffs
        field = FrameField(cube, field.coeffs, bcs)
        out = smooth_nonlinear(field)
        want, done, last = solver_oracle.smooth_levels(
            field, field.config, assemble_stiffness(cube))
        assert np.array_equal(out.coeffs, want)
        assert (out.report["smoothing_sweeps"], out.report["smoothing_last_delta"],
                out.report["smoothing_converged"]) == (done, last, True) == (1, 0.0, True)


def constrained(mesh, rows, config=None):
    """``apply_plan`` of a plan holding ``rows`` on a constant field that
    carries the mesh's standard boundary conditions."""
    bcs = build_boundary_conditions(mesh)
    field = FrameField(mesh, np.tile(fr.REFERENCE_COEFFS, (len(bcs.kind), 1)),
                       bcs)
    plan = CorrectionPlan("extrude-node")
    plan.internal_constraints.update(rows)
    return field, apply_plan(mesh, field, plan, config)


class TestInternalConstraints:
    def test_empty_noop(self, cube):
        field, out = constrained(cube, {})
        assert out.bcs is not field.bcs
        assert np.array_equal(out.bcs.kind, field.bcs.kind)
        assert np.array_equal(out.bcs.coeffs, field.bcs.coeffs)
        assert np.array_equal(out.bcs.normals, field.bcs.normals)

    def test_input_set_unchanged(self, cube):
        before = build_boundary_conditions(cube)
        interior = np.flatnonzero(before.kind == FREE)
        field, out = constrained(cube, {
            interior[0]: (DIRICHLET, fr.REFERENCE_COEFFS),
            interior[1]: (TANGENCY, np.array([0.0, 0.0, 2.0])),
        })
        assert out.bcs.kind[interior[0]] == DIRICHLET
        assert out.bcs.kind[interior[1]] == TANGENCY
        assert np.array_equal(out.bcs.normals[interior[1]], [0.0, 0.0, 1.0])
        for name in ("kind", "coeffs", "normals"):
            assert np.array_equal(getattr(field.bcs, name), getattr(before, name))

    def test_consistent_constraint_keeps_constant(self, cube):
        interior = [
            v for v in range(len(cube.vertices))
            if v not in set(cube.boundary_vertices)
        ]
        _, out = constrained(cube, {interior[0]: (DIRICHLET, fr.REFERENCE_COEFFS)})
        assert np.abs(out.coeffs - fr.REFERENCE_COEFFS).max() < 1e-7

    def test_forced_singular_line_locality(self):
        mesh = generate_box(4, 4, 4)
        boundary = set(mesh.boundary_vertices)
        line = [
            v
            for v in range(len(mesh.vertices))
            if v not in boundary
            and abs(mesh.vertices[v][0] - 0.5) < 1e-9
            and abs(mesh.vertices[v][1] - 0.5) < 1e-9
        ]
        assert line
        sing = fr.axisymmetric_coeffs([0, 0, 1])
        _, resolved = constrained(mesh, {v: (DIRICHLET, sing) for v in line})
        _, q = resolved.vertex_frames()
        center = np.array([0.5, 0.5, 0.5])
        dist = np.linalg.norm(
            mesh.vertices[:, :2] - center[:2], axis=1
        )
        far = q[dist > 0.45]
        near = q[dist < 0.3]
        assert far.min() > 0.97
        assert near.min() < 0.9
