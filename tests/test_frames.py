import os

import numpy as np
import pytest

import hexframe.frames as fr
from hexframe import solver
from hexframe._seed_normals import NORMALS
from hexframe.boxgen import generate_box
from hexframe.mesh import TetMesh
import sh_oracle
import singularity_oracle
from sh_oracle import coeffs_oracle, random_rotation, wigner4_oracle

FIELDS = os.path.join(os.path.dirname(__file__), "..", "bench", "data",
                      "fields.npz")


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


class TestWigner:
    def test_identity_reference(self):
        c = fr.coeffs_from_rotation(np.eye(3))
        ref = np.zeros(9)
        ref[4] = np.sqrt(7.0 / 12.0)
        ref[8] = np.sqrt(5.0 / 12.0)
        assert np.allclose(c, ref, atol=1e-12)

    def test_z90_octa_symmetry(self):
        c = fr.coeffs_from_rotation(rot_z(np.pi / 2))
        assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-12)

    def test_z45_flips_sectoral(self):
        # z-rotation acts on the m=+-4 pair by angle 4*alpha = 180 degrees
        c = fr.coeffs_from_rotation(rot_z(np.pi / 4))
        expected = np.zeros(9)
        expected[4] = np.sqrt(7.0 / 12.0)
        expected[8] = -np.sqrt(5.0 / 12.0)
        assert np.allclose(c, expected, atol=1e-12)

    def test_against_polynomial_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            R = random_rotation(rng)
            assert np.allclose(fr.wigner4(R), wigner4_oracle(R), atol=1e-10)
            assert np.allclose(
                fr.coeffs_from_rotation(R), coeffs_oracle(R), atol=1e-10
            )

    def test_not_a_rotation(self):
        with pytest.raises(fr.NotARotation):
            fr.coeffs_from_rotation(np.diag([1.0, 1.0, 2.0]))

    def test_gimbal_cases(self):
        for R in (np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])):
            assert np.allclose(fr.wigner4(R), wigner4_oracle(R), atol=1e-10)


class TestMomentMap:
    """The moment map is the only coefficient map; it agrees with the
    Wigner form and takes stacks."""

    def test_matches_wigner4_on_many_rotations(self):
        rng = np.random.default_rng(29)
        Rs = np.array([random_rotation(rng) for _ in range(10000)])
        want = np.array([fr.wigner4(R) @ fr.REFERENCE_COEFFS for R in Rs])
        assert np.abs(fr.coeffs_from_rotation(Rs) - want).max() < 1e-14

    @pytest.mark.parametrize("b", [0.0, np.pi])
    def test_gimbal_cases(self, b):
        # R = Rz(a) Ry(b) has no unique ZYZ decomposition at b = 0 and pi
        flip = np.diag([1.0, 1.0, 1.0] if b == 0.0 else [-1.0, 1.0, -1.0])
        for a in np.linspace(-np.pi, np.pi, 13):
            R = rot_z(a) @ flip
            assert np.allclose(fr.wigner4(R), wigner4_oracle(R), atol=1e-10)
            want = fr.wigner4(R) @ fr.REFERENCE_COEFFS
            assert np.abs(fr.coeffs_from_rotation(R) - want).max() < 1e-14

    def test_rotation_stack_matches_rows(self):
        rng = np.random.default_rng(31)
        Rs = np.array([random_rotation(rng) for _ in range(30)]).reshape(3, 10, 3, 3)
        C = fr.coeffs_from_rotation(Rs)
        assert C.shape == (3, 10, 9)
        for idx in np.ndindex(3, 10):
            assert np.array_equal(C[idx], fr.coeffs_from_rotation(Rs[idx]))

    def test_normal_stacks_match_rows(self):
        rng = np.random.default_rng(37)
        ns = np.vstack([rng.normal(size=(30, 3)),
                        [[0, 0, 1], [0, 0, -1], [1, 0, 0], [1e-9, 0, -1]]])
        H = fr.tangency_basis(ns)
        A = fr.axisymmetric_coeffs(ns)
        assert [h.shape for h in H] == [(34, 9)] * 3 and A.shape == (34, 9)
        for i, n in enumerate(ns):
            for stacked, row in zip(H, fr.tangency_basis(n)):
                assert np.array_equal(stacked[i], row)
            assert np.array_equal(A[i], fr.axisymmetric_coeffs(n))

    def test_empty_stacks(self):
        # a mesh with no tangency vertex builds its reduced system from these
        rotations, normals = np.zeros((0, 3, 3)), np.zeros((0, 3))
        assert fr.frame_coeffs(rotations).shape == (0, 9)
        assert fr.coeffs_from_rotation(rotations).shape == (0, 9)
        assert fr.axisymmetric_coeffs(normals).shape == (0, 9)
        assert [h.shape for h in fr.tangency_basis(normals)] == [(0, 9)] * 3

    def test_tangency_basis_is_wigner_columns(self):
        # h0, h1, h2 are sqrt(7/12) D[:, 4], D[:, 8] and D[:, 0] of the
        # rotation taking z onto the normal
        rng = np.random.default_rng(41)
        for n in rng.normal(size=(100, 3)):
            D = fr.wigner4(fr.rotation_to_axis(n))
            h0, h1, h2 = fr.tangency_basis(n)
            assert np.abs(h0 - np.sqrt(7.0 / 12.0) * D[:, 4]).max() < 1e-14
            assert np.abs(h1 - D[:, 8]).max() < 1e-14
            assert np.abs(h2 - D[:, 0]).max() < 1e-14

    def test_rotation_to_axis_stack(self):
        rng = np.random.default_rng(43)
        ns = np.vstack([rng.normal(size=(20, 3)), [[0, 0, 2], [0, 0, -1],
                                                    [3e-9, -1e-9, -1]]])
        R = fr.rotation_to_axis(ns)
        units = ns / np.linalg.norm(ns, axis=1)[:, None]
        assert np.allclose(R[:, :, 2], units, rtol=0, atol=1e-15)
        assert np.allclose(R @ np.swapaxes(R, 1, 2), np.eye(3), rtol=0, atol=1e-14)
        assert np.allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-14)
        for i, n in enumerate(ns):
            assert np.array_equal(R[i], fr.rotation_to_axis(n))

    def test_seed_cover_extends_the_fitted_seeds(self):
        # the map is fitted on the first 20 seeds; the denser cover that
        # projection starts from only appends rotations to them
        assert np.array_equal(fr._build_seed_rotations(100)[:20],
                              fr._build_seed_rotations(20))
        assert np.array_equal(fr._SEED_ROTATIONS, fr._build_seed_rotations(100))

    def test_seed_normals_are_the_generator_draws(self):
        # the fixed table stands in for numpy.random, which hexframe does
        # not load
        want = np.random.default_rng(2471).standard_normal((99, 4))
        assert np.array(NORMALS).tobytes() == want.tobytes()

    def test_stack_with_one_bad_row_raises(self):
        rng = np.random.default_rng(47)
        Rs = np.array([random_rotation(rng) for _ in range(6)])
        fr.coeffs_from_rotation(Rs)
        for bad in (np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 1.0, -1.0]),
                    np.full((3, 3), np.nan)):
            Rb = Rs.copy()
            Rb[3] = bad
            with pytest.raises(fr.NotARotation):
                fr.coeffs_from_rotation(Rb)
        for shape in ((3,), (3, 4), (6, 3, 4)):
            with pytest.raises(fr.NotARotation):
                fr.coeffs_from_rotation(np.zeros(shape))


class TestFrameAlgebraProperties:
    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = fr.coeffs_from_rotation(random_rotation(rng))
            assert abs(np.linalg.norm(c) - 1.0) < 1e-10

    def test_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            R1, R2 = random_rotation(rng), random_rotation(rng)
            lhs = fr.coeffs_from_rotation(R1 @ R2)
            rhs = fr.wigner4(R1) @ fr.coeffs_from_rotation(R2)
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_octahedral_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            R = random_rotation(rng)
            c = fr.coeffs_from_rotation(R)
            for G in fr.OCTA_GROUP:
                assert np.allclose(fr.coeffs_from_rotation(R @ G), c, atol=1e-10)


class TestOctaGroup:
    def test_group_structure(self):
        assert len(fr.OCTA_GROUP) == 24
        assert np.allclose(fr.OCTA_GROUP[0], np.eye(3))
        keys = {tuple(np.rint(G).astype(int).ravel()) for G in fr.OCTA_GROUP}
        for i in range(24):
            for j in range(24):
                P = fr.OCTA_GROUP[i] @ fr.OCTA_GROUP[j]
                assert tuple(np.rint(P).astype(int).ravel()) in keys

    def test_compose_inverse(self):
        for i in range(24):
            assert fr.octa_compose(i, fr.octa_inverse(i)) == 0

    def test_compose_is_matrix_product(self):
        G = fr.OCTA_GROUP
        idx = np.arange(24)
        table = fr.octa_compose(idx[:, None], idx[None, :])
        assert np.array_equal(G[table], np.einsum("aij,bjk->abik", G, G))
        assert np.array_equal(G[[fr.octa_inverse(i) for i in idx]],
                              np.swapaxes(G, 1, 2))


class TestProjection:
    def test_reference_projects_to_identity(self):
        _, c = fr.project_to_octahedral(fr.REFERENCE_COEFFS)
        assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-8)

    def test_scaled_frame_recovers_class(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            R = random_rotation(rng)
            q = 1.5 * fr.coeffs_from_rotation(R)
            _, c = fr.project_to_octahedral(q)
            assert np.allclose(c, q / 1.5, atol=1e-7)

    def test_monte_carlo_optimality(self):
        rng = np.random.default_rng(13)
        q = rng.normal(size=9)
        q /= np.linalg.norm(q)
        _, c = fr.project_to_octahedral(q)
        best = float(q @ c)
        for _ in range(10000):
            R = random_rotation(rng)
            assert best >= float(q @ fr.coeffs_from_rotation(R)) - 1e-6

    def test_idempotence(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            q = rng.normal(size=9)
            _, c1 = fr.project_to_octahedral(q)
            _, c2 = fr.project_to_octahedral(c1)
            assert np.allclose(c1, c2, atol=1e-6)

    def test_stationary_non_maximum_is_not_ok(self):
        # the eighth turn about z is stationary for the identity frame and
        # a minimum along z, so an ascent from it has not found a maximum
        q = np.tile(fr.REFERENCE_COEFFS, (2, 1))
        _, _, f, ok = ascend(q, np.array([rot_z(np.pi / 4), np.eye(3)]))
        assert abs(f[0] - 1.0 / 6.0) < 1e-12
        assert ok.tolist() == [False, True]

    def test_ascent_leaves_a_saddle_in_the_peak_band(self):
        # along z the objective is 7/12 + 5/12 cos 4t: 5e-9 past the eighth
        # turn its gradient, 20/3 * 5e-9, is in the band where a peak stops,
        # but this stationary point is not a peak
        t = np.pi / 4 + 5e-9
        assert 1e-10 < 5 / 3 * abs(np.sin(4 * t)) < 1e-7
        _, _, f, ok = ascend(fr.REFERENCE_COEFFS[None], rot_z(t)[None])
        assert abs(f[0] - 1.0) < 1e-12 and ok.tolist() == [True]

    def test_resolved_peak_ends_after_one_candidate(self, monkeypatch):
        start = fr.axis_angle_rotation(1e-8 * np.array([0.6, -0.8, 0.0]))
        counted = count_candidates(monkeypatch)
        _, _, f, ok = ascend(fr.REFERENCE_COEFFS[None], start[None])
        assert counted == [1]
        assert abs(f[0] - 1.0) < 1e-15 and ok.tolist() == [True]

    def test_warm_one_row_calls_are_cheap(self, monkeypatch):
        rng = np.random.default_rng(29)
        Rs = [random_rotation(rng) for _ in range(300)]
        Q = [fr.coeffs_from_rotation(R) + 1e-3 * rng.normal(size=9) for R in Rs]
        counted = count_candidates(monkeypatch)
        for q, R in zip(Q, Rs):
            fr.project_to_octahedral(q, warm_start=R)
        assert sum(counted) / 300 <= 4.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            fr.project_to_octahedral(np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        Q = np.tile(fr.REFERENCE_COEFFS, (3, 1))
        Q[1, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fr.project_to_octahedral(Q)
        with pytest.raises(ValueError, match="non-finite"):
            fr.project_to_octahedral(Q[1])

    @pytest.mark.parametrize("bad", [0.0, 1e-10, np.nan, np.inf])
    def test_project_rows_gives_dead_rows_the_identity(self, bad):
        rng = np.random.default_rng(37)
        c = rng.normal(size=(6, 9))
        warm = np.stack([random_rotation(rng) for _ in range(6)])
        dead, live = [1, 4], [0, 2, 3, 5]
        c[dead] = bad  # 1e-10 rows have norm 3e-10, under the 1e-9 cut
        R, q = fr.project_rows(c, warm_start=warm)
        want_R, want_C = fr.project_to_octahedral(c[live], warm_start=warm[live])
        unit = c[live] / np.linalg.norm(c[live], axis=1)[:, None]
        assert np.array_equal(R[live], want_R)
        np.testing.assert_allclose(q[live], np.sum(unit * want_C, axis=1),
                                   rtol=1e-12)
        assert np.array_equal(R[dead], np.tile(np.eye(3), (2, 1, 1)))
        assert np.array_equal(q[dead], [0.0, 0.0])

    @pytest.mark.parametrize("warm_shape", [(19, 3, 3), (1, 3, 3), (20, 9), (3, 3)])
    def test_mismatched_warm_start_rejected(self, warm_shape):
        Q = np.tile(fr.REFERENCE_COEFFS, (20, 1))
        with pytest.raises(ValueError) as err:
            fr.project_to_octahedral(Q, warm_start=np.zeros(warm_shape))
        assert str(warm_shape) in str(err.value) and "(20, 9)" in str(err.value)

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(19)
        Q = rng.normal(size=(200, 9))
        cold_R, cold_C = fr.project_to_octahedral(Q)
        # warm starts near the answer for half the rows, anywhere for the rest
        warm = np.array([random_rotation(rng) for _ in range(200)])
        warm[::2] = cold_R[::2] @ fr.axis_angle_rotation(
            0.05 * rng.normal(size=(100, 3)))
        warm_R, warm_C = fr.project_to_octahedral(Q, warm_start=warm)
        for i, q in enumerate(Q):
            R, c = fr.project_to_octahedral(q)
            assert np.array_equal(R, cold_R[i]) and np.array_equal(c, cold_C[i])
            R, c = fr.project_to_octahedral(q, warm_start=warm[i])
            assert np.array_equal(R, warm_R[i]) and np.array_equal(c, warm_C[i])

    def test_mixed_warm_stack_matches_rows(self):
        # one smoothing step projects first-sweep rows, with no warm frame
        # (NaN), next to later rows warm-started near or far from the answer
        rng = np.random.default_rng(23)
        Q = rng.normal(size=(90, 9))
        cold_R, cold_C = fr.project_to_octahedral(Q)
        warm = np.array([random_rotation(rng) for _ in range(90)])
        warm[1::3] = cold_R[1::3] @ fr.axis_angle_rotation(
            0.05 * rng.normal(size=(30, 3)))
        warm[::3] = np.nan
        R, C = fr.project_to_octahedral(Q, warm_start=warm)
        for i, q in enumerate(Q):
            want_R, want_C = fr.project_to_octahedral(q, warm_start=warm[i])
            assert np.array_equal(R[i], want_R) and np.array_equal(C[i], want_C)
        assert np.array_equal(R[::3], cold_R[::3])
        assert np.array_equal(C[::3], cold_C[::3])

    def test_stack_matches_rows_across_a_chunk_boundary(self):
        # 1,100 rows are projected in two chunks; the rows around the
        # boundary and a strided sample give their one-row bytes, cold and
        # warm, with NaN (cold) warm rows mixed in
        rng = np.random.default_rng(37)
        Q = rng.normal(size=(1100, 9))
        assert 1020 < fr._CHUNK <= 1030
        cold_R, cold_C = fr.project_to_octahedral(Q)
        warm = np.array([random_rotation(rng) for _ in range(1100)])
        warm[1::3] = cold_R[1::3] @ fr.axis_angle_rotation(
            0.05 * rng.normal(size=(len(warm[1::3]), 3)))
        warm[::3] = np.nan
        warm_R, warm_C = fr.project_to_octahedral(Q, warm_start=warm)
        for i in [*range(1020, 1031), *range(0, 1100, 37)]:
            R, c = fr.project_to_octahedral(Q[i])
            assert R.tobytes() == cold_R[i].tobytes()
            assert c.tobytes() == cold_C[i].tobytes()
            R, c = fr.project_to_octahedral(Q[i], warm_start=warm[i])
            assert R.tobytes() == warm_R[i].tobytes()
            assert c.tobytes() == warm_C[i].tobytes()


@pytest.mark.parametrize("n", [1, 4, 256])
@pytest.mark.parametrize("kind", ["random", "zero", "rank_deficient"])
def test_cofactors_match_the_81_term_reference(kind, n):
    # byte for byte, so signed zeros count, and C-contiguous: an F-ordered
    # array of the same bytes makes the stacked matmuls that read it round
    # otherwise
    M = np.random.default_rng(41).normal(size=(n, 3, 3))
    if kind == "zero":
        M[:] = 0.0
    elif kind == "rank_deficient":
        # rank 1 (a zero row; -0 products) and rank 2, alternately
        M[::2, 1] = 0.0
        M[::2, 2] = -2.0 * M[::2, 0]
        M[1::2, 2] = M[1::2, 0] - M[1::2, 1]
    cof, det = fr._cofactors(M)
    want_cof, want_det = sh_oracle.cofactors(M)
    assert cof.flags.c_contiguous
    assert cof.tobytes() == want_cof.tobytes()
    assert det.tobytes() == want_det.tobytes()


def ascend(Q, R):
    """``_ascent`` of the rows ``Q`` from the rotations ``R``."""
    return fr._ascent(Q, R, fr.frame_coeffs(R))


def count_candidates(monkeypatch):
    """A list that collects the number of candidate rotations of each
    ascent step, counted where ``axis_angle_rotation`` makes them."""
    counted = []
    make = fr.axis_angle_rotation

    def counting(w):
        counted.append(int(np.prod(np.shape(w)[:-1])))
        return make(w)

    monkeypatch.setattr(fr, "axis_angle_rotation", counting)
    return counted


def rotated_box_field(seed):
    """CG field of the bulged 12^3 box turned by the rotation that the
    benchmark's ``graph`` workload draws for ``seed``."""
    rng = np.random.default_rng(seed)
    rng.permutation(1)
    w, x, y, z = rng.standard_normal(4)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    box = generate_box(12, 12, 12, bulge=0.3)
    mesh = TetMesh(box.vertices @ R.T, box.tets,
                   feature_edges=box.tagged_feature_edges,
                   corners=box.tagged_corners)
    return solver.solve_initial(mesh, solver.build_boundary_conditions(mesh)).coeffs


def stored_field(name):
    with np.load(FIELDS) as data:
        return data[name]


@pytest.mark.parametrize("field", [
    lambda: stored_field("notch"),
    lambda: stored_field("arc_box"),
    lambda: rotated_box_field(2),
], ids=["notch", "arc_box", "graph_box_seed2"])
def test_projection_reaches_best_seed_ascent(field):
    # one ascent from the best of the 100 seeds reaches the best of the
    # first 20 seeds' ascents at every row; one ascent from the best of
    # those 20 alone falls short by up to 0.16 on 1-2 rows per box
    Q = field()
    Q = Q[np.sqrt((Q * Q).sum(axis=1)) > 1e-9]
    _, C = fr.project_to_octahedral(Q)
    assert ((Q * C).sum(axis=1) >= best_seed_ascent(Q) - 1e-9).all()


def best_seed_ascent(Q):
    """The best of the ascents of each row of ``Q`` from each of the first
    20 seed rotations."""
    best = np.full(len(Q), -np.inf)
    for S, c in zip(fr._SEED_ROTATIONS[:20], fr._SEED_COEFFS):
        f = fr._ascent(Q, np.broadcast_to(S, (len(Q), 3, 3)),
                       np.broadcast_to(c, (len(Q), 9)))[2]
        best = np.maximum(best, f)
    return best


def count_ascended_rows(monkeypatch):
    """A list that collects the number of rows of each ``_ascent`` call."""
    counted = []
    ascent = fr._ascent

    def counting(Q, R, C):
        counted.append(len(Q))
        return ascent(Q, R, C)

    monkeypatch.setattr(fr, "_ascent", counting)
    return counted


def test_cold_projection_ascends_each_row_once(monkeypatch):
    # a second ascent runs only where the first does not end at a maximum,
    # which is rare on a smooth field
    Q = rotated_box_field(2)
    Q = Q[np.sqrt((Q * Q).sum(axis=1)) > 1e-9]
    counted = count_ascended_rows(monkeypatch)
    fr.project_to_octahedral(Q)
    assert sum(counted) <= 1.05 * len(Q)


def test_random_stack_falls_short_rarely(monkeypatch):
    # rows far from the frame manifold have competing maxima: 6 of these
    # 2,000 rows end below the best 20-seed ascent, by up to 0.17; the
    # bound is half a percent
    Q = np.random.default_rng(5).normal(size=(2000, 9))
    best = best_seed_ascent(Q)
    counted = count_ascended_rows(monkeypatch)
    _, C = fr.project_to_octahedral(Q)
    assert sum(counted) <= 1.05 * len(Q)
    assert np.count_nonzero((Q * C).sum(axis=1) < best - 1e-9) <= 10


class TestClosestDirection:
    def test_axis_aligned(self):
        assert np.allclose(fr.closest_direction([1, 0, 0], np.eye(3)), [1, 0, 0])

    def test_dominant_axis(self):
        v = np.array([0.9, 0.1, 0.05])
        v /= np.linalg.norm(v)
        assert np.allclose(fr.closest_direction(v, np.eye(3)), [1, 0, 0])

    def test_tie_break(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        assert np.allclose(fr.closest_direction(v, np.eye(3)), [1, 0, 0])

    def test_returns_signed_column(self):
        # a 30 degree turn about z; its rows are other directions than its
        # columns, so reading rows would return (0.5, 0.866, 0) here
        R = rot_z(np.radians(30))
        v = np.array([0.85, 0.5, 0.1])
        v /= np.linalg.norm(v)
        assert np.allclose(fr.closest_direction(v, R), R[:, 0])
        assert np.allclose(fr.closest_direction(-v, R), -R[:, 0])
        rng = np.random.default_rng(21)
        for _ in range(20):
            R = random_rotation(rng)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            dots = R.T @ v
            i = int(np.argmax(np.abs(dots)))
            expect = np.sign(dots[i]) * R[:, i]
            assert np.allclose(fr.closest_direction(v, R), expect)


    def test_stack_keeps_tie_rule(self):
        # exact ties, ties inside the 1e-12 margin and clear winners, as a
        # stack and row by row: lowest axis first, then the positive sign
        v = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 0.0],
                      [0.0, -1.0, 1.0], [1.0, 1.0 + 5e-13, 0.0],
                      [1.0, 1.0 + 1e-11, 0.0], [-1.0, 1.0, 0.0],
                      [0.0, -1.0, 1.0 + 5e-13], [0.0, 0.0, -2.0]])
        want = [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [0, -1, 0], [1, 0, 0],
                [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]
        got = fr.closest_direction(v, np.eye(3))
        assert np.array_equal(got, want)
        rng = np.random.default_rng(22)
        R = np.stack([random_rotation(rng) for _ in range(len(v))])
        rows = np.array([fr.closest_direction(a, b) for a, b in zip(v @ R[0], R)])
        assert fr.closest_direction(v @ R[0], R).tobytes() == rows.tobytes()
        assert fr.closest_direction(v, R[0]).tobytes() == np.array(
            [fr.closest_direction(a, R[0]) for a in v]).tobytes()


class TestMatching:
    def test_same_frame_identity(self):
        R = random_rotation(np.random.default_rng(5))
        assert fr.octa_matching(R, R) == 0

    def test_small_rotation_identity(self):
        R = random_rotation(np.random.default_rng(6))
        assert fr.octa_matching(R, R @ rot_z(np.radians(10))) == 0

    def test_eighty_degrees_picks_quarter_turn(self):
        # brute force over the 24 elements confirms the quarter z-turn wins
        rng = np.random.default_rng(8)
        R = random_rotation(rng)
        Rb = R @ rot_z(np.radians(80))
        g = fr.octa_matching(R, Rb)
        best = min(
            range(24),
            key=lambda k: -np.trace((R @ fr.OCTA_GROUP[k]).T @ Rb),
        )
        assert g == best
        Gz = np.rint(rot_z(np.pi / 2)).astype(int)
        assert np.array_equal(np.rint(fr.OCTA_GROUP[g]).astype(int), Gz)

    def test_matching_inverse_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            Ra = random_rotation(rng)
            Rb = random_rotation(rng)
            g = fr.octa_matching(Ra, Rb)
            h = fr.octa_matching(Rb, Ra)
            assert fr.octa_compose(g, h) == 0

    # turns halfway between two group elements: 45 degrees about an axis,
    # 60 degrees about a body diagonal
    TIE_TURNS = [fr.axis_angle_rotation(w) for w in (
        [np.pi / 4, 0, 0], [0, np.pi / 4, 0], [0, 0, np.pi / 4],
        [0, 0, -np.pi / 4],
        np.pi / 3 * np.array([1, 1, 1]) / np.sqrt(3),
        np.pi / 3 * np.array([1, -1, 1]) / np.sqrt(3),
        -np.pi / 3 * np.array([-1, 1, 1]) / np.sqrt(3))]

    @pytest.mark.parametrize("turn", range(len(TIE_TURNS)))
    def test_exact_tie_picks_lowest_index(self, turn):
        """Ra and Ra @ G @ T, T halfway between two elements, match the
        lowest index within 1e-10 of the largest trace, as the reference
        does."""
        rng = np.random.default_rng(30 + turn)
        Ra = random_rotation(rng)
        Rb = Ra @ fr.OCTA_GROUP[5 + 2 * turn] @ self.TIE_TURNS[turn]
        traces = np.array([np.trace(G.T @ Ra.T @ Rb) for G in fr.OCTA_GROUP])
        tied = np.flatnonzero(traces > traces.max() - 1e-10)
        assert len(tied) >= 2
        g = fr.octa_matching(Ra, Rb)
        assert type(g) is int
        assert g == tied[0] == singularity_oracle.matching(Ra, Rb)

    def test_ties_in_a_stack_match_each_pair(self):
        """In a 1,000-pair stack of random pairs and exact ties, every row
        is its own pair's matching and the reference's."""
        rng = np.random.default_rng(31)
        Ra = np.stack([random_rotation(rng) for _ in range(1000)])
        Rb = np.stack([random_rotation(rng) for _ in range(1000)])
        tie = np.arange(1000) % 2 == 0
        T = np.stack([self.TIE_TURNS[k % len(self.TIE_TURNS)] for k in range(500)])
        Rb[tie] = Ra[tie] @ fr.OCTA_GROUP[np.arange(500) % 24] @ T
        g = fr.octa_matching(Ra, Rb)
        assert g.shape == (1000,)
        assert g.tolist() == [fr.octa_matching(a, b) for a, b in zip(Ra, Rb)]
        assert g.tolist() == [singularity_oracle.matching(a, b) for a, b in zip(Ra, Rb)]
        # the tied pairs pick many elements, not just the identity
        assert len(set(g[tie].tolist())) > 12
        # a stack keeps its leading shape
        grid = fr.octa_matching(Ra.reshape(10, 100, 3, 3), Rb.reshape(10, 100, 3, 3))
        assert grid.shape == (10, 100) and grid.ravel().tolist() == g.tolist()


class TestTangencyBasis:
    def test_z_normal(self):
        h0, h1, h2 = fr.tangency_basis([0, 0, 1])
        e = np.eye(9)
        assert np.allclose(h0, np.sqrt(7.0 / 12.0) * e[4], atol=1e-12)
        assert np.allclose(h1, e[8], atol=1e-12)
        assert np.allclose(h2, e[0], atol=1e-12)

    def test_flip_spans_same_set(self):
        h0a, h1a, h2a = fr.tangency_basis([0, 0, 1])
        h0b, h1b, h2b = fr.tangency_basis([0, 0, -1])
        # affine sets coincide: same h0 component along e0-axis, same plane
        span_a = np.linalg.svd(np.stack([h1a, h2a]))[2][:2]
        span_b = np.linalg.svd(np.stack([h1b, h2b]))[2][:2]
        assert np.allclose(h0a, h0b @ np.eye(9), atol=1e-9) or np.allclose(
            h0a, h0b, atol=1e-9
        )
        # projection of each span vector onto the other span is itself
        P = span_a.T @ span_a
        assert np.allclose(P @ h1b, h1b, atol=1e-9)
        assert np.allclose(P @ h2b, h2b, atol=1e-9)

    def test_x_normal_sampling_oracle(self):
        h0, h1, h2 = fr.tangency_basis([1, 0, 0])
        span = np.stack([h1, h2])
        P = span.T @ np.linalg.solve(span @ span.T, span)
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = rng.uniform(0, 2 * np.pi)
            # rotation fixing the x axis
            R = rot_x(a)
            c = fr.coeffs_from_rotation(R)
            d = c - h0
            assert np.allclose(P @ d, d, atol=1e-9)


class TestAxisymmetric:
    def test_z_prototype(self):
        c = fr.axisymmetric_coeffs([0, 0, 1])
        e = np.zeros(9)
        e[4] = np.sqrt(7.0 / 12.0)
        assert np.allclose(c, e, atol=1e-12)

    def test_equals_spin_average(self):
        angles = np.radians(np.arange(360))
        acc = np.zeros(9)
        for a in angles:
            acc += fr.coeffs_from_rotation(rot_z(a))
        acc /= len(angles)
        assert np.allclose(acc, fr.axisymmetric_coeffs([0, 0, 1]), atol=1e-9)

    def test_norm_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            assert abs(
                np.linalg.norm(fr.axisymmetric_coeffs(v)) - np.sqrt(7.0 / 12.0)
            ) < 1e-10
