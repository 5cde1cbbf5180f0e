import numpy as np
import pytest

import hexframe.frames as fr
from hexframe.boxgen import generate_box
from hexframe.errors import SeedOutside
from hexframe.solver import BoundaryConditionSet, FrameField
from hexframe.tracing import TracerConfig, interpolate_frame, locate, tet_boxes, trace


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def box():
    mesh = generate_box(4, 4, 4)
    mesh.detect_features(30.0)
    return mesh


@pytest.fixture(scope="module")
def constant_field(box):
    coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
    return FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))


class TestLocate:
    def test_center(self, box):
        tet = locate(box, [0.5, 0.5, 0.5])
        assert tet is not None
        v = box.vertices[box.tets[tet]]
        assert (v.min(axis=0) <= 0.5 + 1e-12).all()
        assert (v.max(axis=0) >= 0.5 - 1e-12).all()

    def test_outside(self, box):
        assert locate(box, [2.0, 0.5, 0.5]) is None

    def test_walk_matches_scan(self, box):
        rng = np.random.default_rng(3)
        boxes = tet_boxes(box)
        for _ in range(25):
            p = rng.uniform(0.05, 0.95, size=3)
            t_walk = locate(box, p, hint=0)
            t_scan = locate(box, p)
            assert locate(box, p, boxes=boxes) == t_scan
            lam = np.linalg.norm(
                box.vertices[box.tets[t_walk]].mean(axis=0)
                - box.vertices[box.tets[t_scan]].mean(axis=0)
            )
            # both must contain the point (possibly distinct tets on a face)
            assert t_walk is not None and t_scan is not None


class TestInterpolation:
    def test_constant_field(self, constant_field):
        R, q, tet = interpolate_frame(constant_field, [0.37, 0.52, 0.61])
        assert q > 1.0 - 1e-9
        c = fr.wigner4(R) @ fr.REFERENCE_COEFFS
        assert np.allclose(c, fr.REFERENCE_COEFFS, atol=1e-8)

    def test_outside_raises(self, constant_field):
        from hexframe.errors import OutsideMesh

        with pytest.raises(OutsideMesh):
            interpolate_frame(constant_field, [5.0, 0.0, 0.0])


class TestStraightTraces:
    def test_axis_aligned_straight(self, constant_field):
        sl = trace(constant_field, [0.1, 0.52, 0.48], [1.0, 0.1, 0.05])
        assert sl.termination == "ExitedBoundary"
        dev = np.abs(sl.points[:, 1:] - np.array([0.52, 0.48])).max()
        assert dev < 1e-12
        assert sl.points[-1][0] > 1.0 - 1e-6

    def test_exit_point_on_boundary(self, constant_field):
        sl = trace(constant_field, [0.5, 0.5, 0.5], [0.0, 0.0, 1.0])
        assert sl.termination == "ExitedBoundary"
        assert abs(sl.points[-1][2] - 1.0) < 1e-9

    def test_max_length(self, constant_field):
        cfg = TracerConfig(step_size=0.05, max_length=0.2)
        sl = trace(constant_field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "MaxLength"
        assert 0.2 <= sl.length < 0.2 + 0.05 + 1e-12

    def test_seed_outside(self, constant_field):
        with pytest.raises(SeedOutside):
            trace(constant_field, [3.0, 0.5, 0.5], [1, 0, 0])


class TestReversal:
    def test_forward_backward_returns(self, box):
        # mildly rotating field, interpolated on the mesh
        theta = 0.3 * np.sin(np.pi * box.vertices[:, 0])
        coeffs = np.stack([fr.coeffs_from_rotation(rot_z(t)) for t in theta])
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        h = 0.05
        cfg = TracerConfig(step_size=h, max_length=0.5)
        start = np.array([0.2, 0.35, 0.5])
        fwd = trace(field, start, [1, 0, 0], cfg)
        assert fwd.termination == "MaxLength"
        back_cfg = TracerConfig(step_size=h, max_length=fwd.length)
        back = trace(field, fwd.points[-1], -fwd.directions[-1], back_cfg)
        gap = np.linalg.norm(back.points[-1] - start)
        assert gap < h


class _AnalyticField:
    """Smooth synthetic field for convergence studies, no mesh attached."""

    def __init__(self, k):
        self.k = k

    def sample(self, point, hint):
        return rot_z(self.k * point[0]), 1.0, hint


class TestConvergenceOrder:
    def test_rk4_order(self):
        k = 0.8
        field = _AnalyticField(k)

        def curve_error(h):
            cfg = TracerConfig(step_size=h, max_length=1.0)
            sl = trace(field, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], cfg)
            x, y = sl.points[-1][0], sl.points[-1][1]
            # exact streamline: x = gd(ks)/k, y = ln(cosh(ks))/k
            t = np.arctanh(np.sin(k * x))  # inverse gudermannian of kx
            y_exact = np.log(np.cosh(t)) / k
            return abs(y - y_exact)

        e1 = curve_error(0.05)
        e2 = curve_error(0.025)
        e3 = curve_error(0.0125)
        assert np.log2(e1 / e2) > 3.5
        assert np.log2(e2 / e3) > 3.5


class TestSingularTermination:
    def test_low_quality_blob_stops_trace(self, box):
        coeffs = np.tile(fr.REFERENCE_COEFFS, (len(box.vertices), 1))
        blob = np.nonzero(
            np.linalg.norm(box.vertices - np.array([0.75, 0.5, 0.5]), axis=1) < 0.3
        )[0]
        coeffs[blob] = -fr.REFERENCE_COEFFS
        field = FrameField(box, coeffs, BoundaryConditionSet(len(box.vertices)))
        cfg = TracerConfig(step_size=0.04)
        sl = trace(field, [0.1, 0.5, 0.5], [1, 0, 0], cfg)
        assert sl.termination == "HitSingularRegion"
        assert sl.points[-1][0] < 0.75
