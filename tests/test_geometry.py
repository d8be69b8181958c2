import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget.errors import DegenerateGeometryError, InvalidArgumentError
from dexretarget.geometry import (
    CameraIntrinsics,
    DepthImage,
    RigidTransform,
    Rotation,
    SimilarityTransform,
    backproject_depth,
    huber,
    splat_depth,
    weighted_umeyama,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def random_rotation(rng):
    v = rng.normal(size=3)
    return Rotation.from_axis_angle(v, rng.uniform(0, np.pi))


class TestHuber:
    def test_zero_residual(self):
        assert huber(0.0, 1.0) == 0.0

    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert huber(2.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_invalid_delta(self):
        with pytest.raises(InvalidArgumentError):
            huber(1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            huber(1.0, -2.0)

    def test_nonfinite_residual(self):
        with pytest.raises(InvalidArgumentError):
            huber(np.nan, 1.0)

    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_even(self, r, delta):
        assert huber(r, delta) == huber(-r, delta)

    def test_derivative_matches_finite_difference(self, rng):
        delta = 0.37
        for r in rng.uniform(-3, 3, size=50):
            if abs(abs(r) - delta) < 1e-3:
                continue  # away from the kink
            h = 1e-6
            fd = (huber(r + h, delta) - huber(r - h, delta)) / (2 * h)
            analytic = r if abs(r) <= delta else delta * np.sign(r)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-9)

    def test_vectorized(self):
        out = huber(np.array([0.0, 0.5, 2.0]), 1.0)
        np.testing.assert_allclose(out, [0.0, 0.125, 1.5])


class TestRotation:
    def test_identity(self):
        r = Rotation.identity()
        np.testing.assert_allclose(r.as_matrix(), np.eye(3))

    def test_matrix_round_trip(self, rng):
        for _ in range(100):
            r = random_rotation(rng)
            m = r.as_matrix()
            r2 = Rotation.from_matrix(m)
            assert np.abs(r2.as_matrix() - m).max() < 1e-9

    def test_round_trip_against_scipy(self, rng):
        from scipy.spatial.transform import Rotation as SciRot
        for _ in range(50):
            q = rng.normal(size=4)
            r = Rotation(q)
            sci = SciRot.from_quat(np.roll(r.quat, -1))  # scipy uses (x, y, z, w)
            np.testing.assert_allclose(r.as_matrix(), sci.as_matrix(), atol=1e-12)

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            np.testing.assert_allclose(
                (a @ b).as_matrix(), a.as_matrix() @ b.as_matrix(), atol=1e-12
            )

    def test_inverse(self, rng):
        r = random_rotation(rng)
        assert (r @ r.inverse()).angle() < 1e-12

    def test_rotvec_round_trip(self, rng):
        for _ in range(50):
            v = rng.normal(size=3) * rng.uniform(0, 3)
            r = Rotation.from_rotvec(v)
            r2 = Rotation.from_rotvec(r.as_rotvec())
            assert r.angle_to(r2) < 1e-9

    def test_zero_quaternion_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Rotation((0.0, 0.0, 0.0, 0.0))


class TestRigidTransform:
    def test_compose_associative(self, rng):
        ts = [RigidTransform(random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
        p = rng.normal(size=3)
        left = (ts[0] @ ts[1]) @ ts[2]
        right = ts[0] @ (ts[1] @ ts[2])
        np.testing.assert_allclose(left.apply(p), right.apply(p), atol=1e-12)

    def test_inverse_is_identity(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        ident = t @ t.inverse()
        assert ident.rotation.angle() < 1e-9
        assert np.linalg.norm(ident.translation) < 1e-9

    def test_apply_matches_matrix(self, rng):
        t = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=(7, 3))
        hom = np.column_stack([p, np.ones(7)]) @ t.matrix().T
        np.testing.assert_allclose(t.apply(p), hom[:, :3], atol=1e-12)


class TestSimilarityTransform:
    def test_apply(self):
        s = SimilarityTransform(2.0, Rotation.identity(), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(s.apply([1.0, 2.0, 3.0]), [3.0, 4.0, 6.0])

    def test_scale_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            SimilarityTransform(-1.0, Rotation.identity(), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            SimilarityTransform(0.0, Rotation.identity(), np.zeros(3))

    def test_inverse(self, rng):
        s = SimilarityTransform(1.7, random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=(5, 3))
        np.testing.assert_allclose(s.inverse().apply(s.apply(p)), p, atol=1e-12)


def unit_cube_corners():
    return np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)


class TestWeightedUmeyama:
    def test_identity_case(self):
        src = unit_cube_corners()
        got = weighted_umeyama(src, src)
        assert got.scale == pytest.approx(1.0, abs=1e-12)
        assert got.rotation.angle() < 1e-12
        np.testing.assert_allclose(got.translation, 0.0, atol=1e-12)

    def test_pure_translation(self):
        src = unit_cube_corners()
        got = weighted_umeyama(src, src + np.array([0.0, 0.0, 1.0]))
        assert got.scale == pytest.approx(1.0, abs=1e-12)
        assert got.rotation.angle() < 1e-12
        np.testing.assert_allclose(got.translation, [0.0, 0.0, 1.0], atol=1e-12)

    def test_generator_round_trip(self, rng):
        src = rng.normal(size=(50, 3))
        gt = SimilarityTransform(
            2.0, Rotation.from_axis_angle([0, 0, 1], np.pi / 2), np.array([1.0, 2.0, 3.0])
        )
        got = weighted_umeyama(src, gt.apply(src))
        assert abs(got.scale - gt.scale) < 1e-9
        assert got.rotation.angle_to(gt.rotation) < 1e-9
        assert np.linalg.norm(got.translation - gt.translation) < 1e-9

    def test_random_round_trips(self, rng):
        for _ in range(20):
            src = rng.normal(size=(4, 3))
            gt = SimilarityTransform(rng.uniform(0.5, 2.0), random_rotation(rng),
                                     rng.normal(size=3))
            got = weighted_umeyama(src, gt.apply(src))
            assert abs(got.scale - gt.scale) < 1e-9
            assert got.rotation.angle_to(gt.rotation) < 1e-9
            assert np.linalg.norm(got.translation - gt.translation) < 1e-9

    def test_without_scale(self, rng):
        src = rng.normal(size=(20, 3))
        gt = SimilarityTransform(1.0, random_rotation(rng), rng.normal(size=3))
        got = weighted_umeyama(src, gt.apply(src), with_scale=False)
        assert got.scale == 1.0
        assert got.rotation.angle_to(gt.rotation) < 1e-9

    def test_collinear_source_rejected(self):
        t = np.linspace(0, 1, 5)
        src = np.column_stack([t, 2 * t, -t])
        with pytest.raises(DegenerateGeometryError):
            weighted_umeyama(src, src + 1.0)

    def test_coincident_source_rejected(self):
        src = np.ones((4, 3))
        with pytest.raises(DegenerateGeometryError):
            weighted_umeyama(src, src)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            weighted_umeyama(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_too_few_points(self):
        with pytest.raises(InvalidArgumentError):
            weighted_umeyama(np.eye(3)[:2], np.eye(3)[:2])

    def test_reflection_suppressed(self, rng):
        # a reflected destination must still yield det(R) = +1
        src = rng.normal(size=(12, 3))
        dst = src.copy()
        dst[:, 0] *= -1.0
        got = weighted_umeyama(src, dst)
        assert np.linalg.det(got.rotation.as_matrix()) == pytest.approx(1.0, abs=1e-9)


class TestProjectPoint:
    """The pinhole projection u = fx x / z + cx, v = fy y / z + cy that
    splat_depth and the alignment depth term use."""

    def test_round_trip_with_backprojection(self):
        img = DepthImage(values=np.full((480, 640), 2.0))
        pts = backproject_depth(img, K)
        x, y, z = pts[1000]
        u = K.fx * x / z + K.cx
        v = K.fy * y / z + K.cy
        vs, us = np.nonzero(img.valid)
        assert round(u) == us[1000] and round(v) == vs[1000] and z == 2.0


class TestSplatDepth:
    def test_single_point(self):
        img = splat_depth(np.array([[0.0, 0.0, 1.0]]), K, footprint=1)
        assert img.valid.sum() == 1
        assert img.values[240, 320] == 1.0

    def test_z_buffer_minimum(self):
        pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
        img = splat_depth(pts, K, footprint=1)
        assert img.values[240, 320] == 0.5

    def test_dense_plane(self):
        base = DepthImage(values=np.full((480, 640), 2.0))
        pts = backproject_depth(base, K)
        img = splat_depth(pts, K, footprint=3)
        assert np.abs(img.values[img.valid] - 2.0).max() < 1e-6
        assert img.valid.all()

    def test_empty_cloud(self):
        img = splat_depth(np.zeros((0, 3)), K)
        assert not img.valid.any()

    def test_permutation_invariance(self, rng):
        pts = rng.uniform(-0.2, 0.2, size=(300, 3)) + np.array([0.0, 0.0, 1.0])
        img_a = splat_depth(pts, K)
        img_b = splat_depth(pts[rng.permutation(300)], K)
        np.testing.assert_array_equal(img_a.values, img_b.values)
        np.testing.assert_array_equal(img_a.valid, img_b.valid)

    def test_even_footprint_rejected(self):
        with pytest.raises(InvalidArgumentError):
            splat_depth(np.zeros((1, 3)), K, footprint=2)

    def test_behind_camera_points_dropped(self):
        img = splat_depth(np.array([[0.0, 0.0, -1.0]]), K)
        assert not img.valid.any()


class TestCameraIntrinsics:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10)
        with pytest.raises(InvalidArgumentError):
            CameraIntrinsics(fx=1, fy=1, cx=20, cy=0, width=10, height=10)


class TestDepthImage:
    def test_nonfinite_valid_rejected(self):
        values = np.ones((2, 2))
        values[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            DepthImage(values=values, valid=np.ones((2, 2), dtype=bool))

    def test_default_mask(self):
        values = np.array([[1.0, 0.0], [-1.0, np.nan]])
        img = DepthImage(values=values)
        np.testing.assert_array_equal(img.valid, [[True, False], [False, False]])
