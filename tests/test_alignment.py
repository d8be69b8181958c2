import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget import alignment
from dexretarget.alignment import (
    AlignConfig,
    FrameObservation,
    HandAlignment,
    align_hand_frame,
    align_trajectory,
    alignment_objective_value,
    alignment_problem,
    calibrate_depth_sequence,
    depth_consistency_loss,
    params_decode,
    params_encode,
    smooth_depth_residuals,
)
from dexretarget.errors import AlignmentError, InvalidArgumentError, LossUndefinedError
from dexretarget.geometry import (
    DepthImage,
    RigidTransform,
    Rotation,
    SimilarityTransform,
    backproject_depth,
    splat_depth,
)
from dexretarget.hand_model import HandFrame, HandTrajectory
from dexretarget.pointcloud import PointCloud, build_index, estimate_normals
from dexretarget.solver import batch_objective, check_gradient, fd_gradient
from dexretarget.synthetic import (
    DEFAULT_INTRINSICS,
    canonical_hand_joints,
    sample_hand_surface,
)

K = DEFAULT_INTRINSICS


def hand_at(offset=(0.0, 0.0, 0.45), curl=0.4):
    joints = canonical_hand_joints(curl) + np.asarray(offset, dtype=float)
    return HandFrame(joints=joints,
                     wrist_pose=RigidTransform(Rotation.identity(), joints[0]))


def sampled_hand_for(hand, n=500, seed=0):
    return PointCloud(points=sample_hand_surface(
        hand.joints, n, seed=seed, visible_from=(0.0, 0.0, 0.0)))


def observe(points):
    cloud = estimate_normals(PointCloud(points=points), k=12)
    depth = splat_depth(points, K, 3)
    return FrameObservation(cloud=cloud, depth=depth, hand_mask=depth.valid)


def observation_of(depth, mask=None):
    """An observation of the depth map over the hand mask (all valid
    pixels by default); its cloud only carries the normals it needs."""
    cloud = PointCloud(points=np.zeros((1, 3)), normals=np.array([[0.0, 0.0, 1.0]]))
    return FrameObservation(cloud=cloud, depth=depth,
                            hand_mask=depth.valid if mask is None else mask)


def plane_points(z=0.4, half=0.06, step=0.002):
    g = np.arange(-half, half + step / 2, step)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])


def reference_depth_residuals(points, depth, support, intrinsics):
    """The depth kernel as it was before the padded support window: each of
    the 16 taps clips its pixel into the image and gathers from the full
    depth map and support. Kept as the oracle the kernel must equal bit for
    bit."""
    pts = np.asarray(points, dtype=float)
    near = pts[:, 2] < alignment._MIN_DEPTH
    far = pts[~near] if np.any(near) else pts
    z = far[:, 2]
    h, w = depth.shape
    u = intrinsics.fx * far[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * far[:, 1] / z + intrinsics.cy
    iu = np.floor(u).astype(int)
    iv = np.floor(v).astype(int)
    radius = 2.0
    taps = (-1, 0, 1, 2)

    def kernel(frac):
        t = np.clip((radius - np.abs(frac)) / radius, 0.0, 1.0)
        return t ** 3 * (t * (6.0 * t - 15.0) + 10.0)

    wu = [kernel(u - (iu + d)) for d in taps]
    wv = [kernel(v - (iv + d)) for d in taps]
    su = np.sum(wu, axis=0)
    sv = np.sum(wv, axis=0)
    r = np.zeros(len(far))
    for ku, du in enumerate(taps):
        cu = iu + du
        in_u = (cu >= 0) & (cu < w)
        cu_c = np.clip(cu, 0, w - 1)
        for kv, dv in enumerate(taps):
            cv = iv + dv
            inside = in_u & (cv >= 0) & (cv < h)
            cv_c = np.clip(cv, 0, h - 1)
            gate = inside & support[cv_c, cu_c]
            wk = np.where(gate, (wu[ku] / su) * (wv[kv] / sv), 0.0)
            r += wk * (z - depth[cv_c, cu_c])
    if far is pts:
        return r
    out = np.full(len(pts), np.inf)
    out[~near] = r
    return out


def points_at_pixels(uvz):
    """Camera-frame points that project to the given (u, v) pixel
    coordinates at depth z."""
    u, v, z = np.array(uvz, dtype=float).reshape(-1, 3).T
    return np.column_stack([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z])


class TestCalibrateDepthSequence:
    def make_object_depths(self, alpha):
        true_depth = DepthImage(values=np.full((K.height, K.width), 0.5))
        pred_depth = DepthImage(values=true_depth.values * alpha)
        obj_true = PointCloud(points=backproject_depth(true_depth, K))
        obj_pred = PointCloud(points=backproject_depth(pred_depth, K))
        return obj_true, obj_pred

    def test_identity_when_pred_equals_true(self):
        hand = hand_at()
        pts = sample_hand_surface(hand.joints, 300, seed=1, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        obj = PointCloud(points=plane_points())
        transform, frames = calibrate_depth_sequence(
            [(PointCloud(points=pts), depth)], obj, obj, K)
        assert abs(transform.scale - 1.0) < 1e-9
        assert transform.rotation.angle() < 1e-9
        assert np.linalg.norm(transform.translation) < 1e-9
        np.testing.assert_allclose(frames[0][0].points, pts, atol=1e-9)
        out_depth = frames[0][1]
        np.testing.assert_allclose(
            out_depth.values[out_depth.valid & depth.valid],
            depth.values[out_depth.valid & depth.valid], atol=1e-9)

    def test_half_depth_recovers_scale_two(self):
        obj_true, obj_pred = self.make_object_depths(0.5)
        pts = sample_hand_surface(hand_at().joints, 200, seed=2,
                                  visible_from=(0, 0, 0)) * 0.5
        depth = splat_depth(pts, K, 3)
        transform, frames = calibrate_depth_sequence(
            [(PointCloud(points=pts), depth)], obj_true, obj_pred, K)
        assert abs(transform.scale - 2.0) < 1e-9
        assert transform.rotation.angle() < 1e-9
        assert np.linalg.norm(transform.translation) < 1e-9
        np.testing.assert_allclose(frames[0][0].points, 2.0 * pts, atol=1e-9)
        out_depth = frames[0][1]
        both = out_depth.valid & depth.valid
        np.testing.assert_allclose(out_depth.values[both], 2.0 * depth.values[both],
                                   atol=1e-9)

    def test_similarity_generator_recovery(self, rng):
        obj_true = PointCloud(points=plane_points() + rng.normal(size=(1, 3)) * 0.01)
        gen = SimilarityTransform(
            1.3, Rotation.from_axis_angle(rng.normal(size=3), 0.05),
            rng.normal(size=3) * 0.02)
        obj_pred = PointCloud(points=gen.apply(obj_true.points))
        transform, _ = calibrate_depth_sequence([], obj_true, obj_pred, K)
        inv = gen.inverse()
        assert abs(transform.scale - inv.scale) < 1e-6
        assert transform.rotation.angle_to(inv.rotation) < 1e-6
        assert np.linalg.norm(transform.translation - inv.translation) < 1e-6

    def test_without_scale(self):
        obj_true, obj_pred = self.make_object_depths(1.0)
        transform, _ = calibrate_depth_sequence([], obj_true, obj_pred, K,
                                                with_scale=False)
        assert transform.scale == 1.0

    def test_correspondence_mismatch(self):
        a = PointCloud(points=plane_points())
        b = PointCloud(points=plane_points()[:10])
        with pytest.raises(InvalidArgumentError):
            calibrate_depth_sequence([], a, b, K)


class TestDepthConsistencyLoss:
    def test_zero_when_rendered_equals_observed(self):
        pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        sampled = PointCloud(points=pts)
        loss = depth_consistency_loss(sampled, 1.0, RigidTransform.identity(),
                                      observation_of(depth), K)
        assert loss == 0.0

    def test_constant_offset(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = DepthImage(values=np.where(depth.valid, depth.values + 0.02, 0.0))
        loss = depth_consistency_loss(PointCloud(points=pts), 1.0,
                                      RigidTransform.identity(), observation_of(shifted), K)
        assert loss == pytest.approx(0.02, abs=1e-12)

    def test_five_mm_axial_shift_on_flat_fixture(self):
        pts = plane_points()
        observed = splat_depth(pts, K, 3)
        shift = RigidTransform(Rotation.identity(), np.array([0.0, 0.0, 0.005]))
        loss = depth_consistency_loss(PointCloud(points=pts), 1.0, shift,
                                      observation_of(observed), K)
        assert loss == pytest.approx(0.005, abs=1e-4)

    def test_invariant_to_pixels_outside_mask(self):
        pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        # the mask leaves out the left half of the hand's pixels
        outside = np.zeros_like(depth.valid)
        outside[:, : int(np.median(np.nonzero(depth.valid)[1]))] = True
        mask = depth.valid & ~outside
        base = depth_consistency_loss(PointCloud(points=pts), 1.0,
                                      RigidTransform.identity(), observation_of(depth, mask), K)
        # tamper only pixels that stay valid, so validity is unchanged
        tampered_values = depth.values.copy()
        tampered_values[outside & depth.valid] += 123.0
        tampered = DepthImage(values=tampered_values)
        np.testing.assert_array_equal(tampered.valid, depth.valid)
        assert np.any(tampered.values != depth.values)
        after = depth_consistency_loss(PointCloud(points=pts), 1.0, RigidTransform.identity(),
                                       observation_of(tampered, mask), K)
        assert base == after

    def test_empty_overlap_raises(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        with pytest.raises(LossUndefinedError):
            depth_consistency_loss(PointCloud(points=pts), 1.0, RigidTransform.identity(),
                                   observation_of(depth, np.zeros_like(depth.valid)), K)


class TestFrameObservation:
    def test_mask_shape_mismatch(self):
        depth = splat_depth(plane_points(), K, 3)
        with pytest.raises(InvalidArgumentError):
            observation_of(depth, np.ones((2, 2), dtype=bool))

    def test_hand_mask_is_the_valid_part_of_the_mask(self):
        depth = splat_depth(plane_points(), K, 3)
        mask = np.zeros_like(depth.valid)
        mask[:, : K.width // 2] = True
        obs = observation_of(depth, mask)
        np.testing.assert_array_equal(obs.hand_mask, mask & depth.valid)
        assert np.any(obs.hand_mask) and np.any(mask & ~depth.valid)


class TestSmoothDepthResiduals:
    def test_on_surface_residuals_vanish(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        r = smooth_depth_residuals(pts, observation_of(depth), K)
        assert np.abs(r).max() < 1e-9

    def test_offset_residuals(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)  # gap-free support over the patch
        r = smooth_depth_residuals(pts + np.array([0.0, 0.0, 0.01]), observation_of(depth), K)
        interior = np.abs(r - 0.01) < 1e-9
        assert interior.mean() > 0.9  # all but mask-boundary points

    def test_unsupported_points_fade_to_zero(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        far = pts + np.array([10.0, 0.0, 0.0])  # projects far outside the image
        r = smooth_depth_residuals(far, observation_of(depth), K)
        np.testing.assert_array_equal(r, np.zeros(len(far)))

    def test_near_points_are_inf_and_leave_the_others_alone(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = pts + np.array([0.0, 0.0, 0.01])
        near = np.zeros(len(pts), dtype=bool)
        near[[0, 5, 9]] = True
        shifted[near, 2] = (0.5 * alignment._MIN_DEPTH, 0.0, -0.2)
        obs = observation_of(depth)
        r = smooth_depth_residuals(shifted, obs, K)
        assert np.all(r[near] == np.inf)
        without = smooth_depth_residuals(shifted[~near], obs, K)
        assert np.any(without != 0.0)
        assert r[~near].tobytes() == without.tobytes()

    def test_invalid_pixels_next_to_points_do_not_reach_residuals(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        nan_filled = np.where(depth.valid, depth.values, np.nan)
        shifted = pts + np.array([0.0, 0.0, 0.01])
        zero = smooth_depth_residuals(shifted, observation_of(depth), K)
        nan = smooth_depth_residuals(shifted, observation_of(DepthImage(values=nan_filled)), K)
        assert np.all(np.isfinite(zero)) and np.any(zero != 0.0)
        assert nan.tobytes() == zero.tobytes()

    # pixel coordinates a little beyond the image on every side, and depths
    # from behind the camera, through zero and the minimum depth, to past
    # the observed plane
    _pixel_points = st.lists(
        st.tuples(st.floats(-8.0, K.width + 8.0), st.floats(-8.0, K.height + 8.0),
                  st.floats(-0.2, 1.0)),
        min_size=1, max_size=30)

    @given(st.lists(_pixel_points, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_stacked_call_equals_per_set_calls(self, sets):
        plane = plane_points()
        depth = splat_depth(plane, K, 3)
        mask = depth.valid.copy()
        mask[:, : K.width // 2 - 20] = False  # a mask edge inside the supported patch
        clouds = [points_at_pixels(uvz) for uvz in sets]
        obs = observation_of(depth, mask)
        stacked = smooth_depth_residuals(np.concatenate(clouds), obs, K)
        separate = np.concatenate([smooth_depth_residuals(c, obs, K) for c in clouds])
        assert stacked.tobytes() == separate.tobytes()


    @staticmethod
    @st.composite
    def _masks(draw):
        """Supports that are empty, a single pixel, or a box with holes,
        possibly touching an image edge; returns (mask, box)."""
        h, w = K.height, K.width
        kind = draw(st.sampled_from(["empty", "pixel", "top", "bottom", "left", "right", "box"]))
        r0, r1 = sorted(draw(st.tuples(st.integers(0, h - 1), st.integers(0, h - 1))))
        c0, c1 = sorted(draw(st.tuples(st.integers(0, w - 1), st.integers(0, w - 1))))
        r0, r1 = (0 if kind == "top" else r0), (h - 1 if kind == "bottom" else r1)
        c0, c1 = (0 if kind == "left" else c0), (w - 1 if kind == "right" else c1)
        mask = np.zeros((h, w), dtype=bool)
        if kind == "pixel":
            mask[r0, c0] = True
            r1, c1 = r0, c0
        elif kind != "empty":
            holes = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            mask[r0:r1 + 1, c0:c1 + 1] = holes.random((r1 - r0 + 1, c1 - c0 + 1)) > 0.2
        return mask, (r0, r1, c0, c1)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_tap_reference(self, data):
        mask, (r0, r1, c0, c1) = data.draw(self._masks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (K.height, K.width)
        depth = DepthImage(values=np.where(rng.random(shape) < 0.1, np.nan,
                                           rng.uniform(0.2, 1.0, shape)))
        # pixels around the support, across and a little beyond the image,
        # and far beyond it; depths from behind the camera, through the
        # minimum depth, to past the observed depths
        pixel = st.one_of(
            st.tuples(st.floats(c0 - 8.0, c1 + 8.0), st.floats(r0 - 8.0, r1 + 8.0)),
            st.tuples(st.floats(-8.0, K.width + 8.0), st.floats(-8.0, K.height + 8.0)),
            st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
        uvz = data.draw(st.lists(st.tuples(pixel, st.floats(-0.2, 1.2)),
                                 min_size=1, max_size=40))
        pts = points_at_pixels([(u, v, z) for (u, v), z in uvz])
        obs = observation_of(depth, mask)
        r = smooth_depth_residuals(pts, obs, K)
        expected = reference_depth_residuals(pts, obs.depth.values, obs.hand_mask, K)
        assert r.tobytes() == expected.tobytes()

    def test_point_clipped_into_the_pad_reads_exactly_zero(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        mask = np.zeros_like(depth.valid)
        mask[200:280, 280:360] = True
        obs = observation_of(depth, mask)
        # inside the image, on valid depth, 10 px beyond the support on each
        # side: each projection is clipped into the pad
        uv = [(269.5, 240.5), (370.5, 240.5), (320.5, 189.5), (320.5, 290.5)]
        assert all(depth.valid[int(v), int(u)] for u, v in uv)
        clipped = points_at_pixels([(u, v, 0.41) for u, v in uv])
        r = smooth_depth_residuals(clipped, obs, K)
        assert r.tobytes() == np.zeros(len(uv)).tobytes()
        # the same points reach the support once it covers them
        assert np.all(smooth_depth_residuals(clipped, observation_of(depth), K) != 0.0)

class TestAlignHandFrame:
    def test_optimum_at_start(self):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sampled.points.copy())
        result = align_hand_frame(hand, sampled, obs, K)
        assert abs(result.sigma - 1.0) <= 1e-3
        assert result.correction.rotation.angle() <= 1e-3
        assert np.linalg.norm(result.correction.translation) <= 1e-3

    @pytest.mark.parametrize("sigma_star", [1.0 / 1.2, 0.85, 1.2, 1.4])
    def test_scale_recovery(self, sigma_star):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sigma_star * sampled.points)
        result = align_hand_frame(hand, sampled, obs, K)
        assert abs(result.sigma - sigma_star) / sigma_star < 0.02
        assert result.converged

    def test_noisy_fixture_residuals(self, rng):
        noise = 0.002
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sampled.points + rng.normal(size=sampled.points.shape) * noise)
        result = align_hand_frame(hand, sampled, obs, K)
        assert result.converged
        assert result.icp_residual <= 3 * noise
        assert result.depth_residual <= 3 * noise

    def test_monotone_improvement_over_init(self):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        cfg = AlignConfig()
        init = HandAlignment.initial(hand.frame_index)
        result = align_hand_frame(hand, sampled, obs, K, init=init, cfg=cfg)
        at_init = alignment_objective_value(sampled, obs, K, cfg, init.sigma,
                                            init.correction)
        at_result = alignment_objective_value(sampled, obs, K, cfg, result.sigma,
                                              result.correction)
        assert at_result <= at_init

    def test_regularizer_limit_forces_identity(self):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.1 * sampled.points + np.array([0.002, -0.001, 0.003]))
        cfg = AlignConfig(lambda_reg=1e6)
        result = align_hand_frame(hand, sampled, obs, K, cfg=cfg)
        twist = np.concatenate([result.correction.rotation.as_rotvec(),
                                result.correction.translation])
        assert np.linalg.norm(twist) < 1e-4

    def test_empty_overlap_fails(self):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sampled.points.copy())
        blocked = FrameObservation(cloud=obs.cloud, depth=obs.depth,
                                   hand_mask=np.zeros_like(obs.hand_mask))
        with pytest.raises(AlignmentError):
            align_hand_frame(hand, sampled, blocked, K)

    def test_gradient_audit(self, rng):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()
        errs = []
        for _ in range(5):
            x = np.concatenate([[rng.uniform(-0.3, 0.3)],
                                rng.uniform(-0.1, 0.1, size=6)])
            problem = alignment_problem(sampled, obs, K, cfg, at=x)
            errs.append(check_gradient(problem, x, fd_eps=3 * cfg.fd_eps))
        assert max(errs) < 1e-5


class TestAlignmentObjective:
    def random_params(self, rng):
        return np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])

    def test_frozen_equals_fresh_at_anchor(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()
        for _ in range(5):
            sigma, correction = params_decode(self.random_params(rng))
            x = params_encode(sigma, correction)  # the vector the fresh value encodes
            frozen = alignment_problem(sampled, obs, K, cfg, at=x).objective(x)
            fresh = alignment_objective_value(sampled, obs, K, cfg, sigma, correction)
            assert frozen == fresh

    def test_prebuilt_index_gives_same_values(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()
        index = build_index(obs.cloud)
        for _ in range(3):
            x = self.random_params(rng)
            own = alignment_problem(sampled, obs, K, cfg, at=x)
            shared = alignment_problem(sampled, obs, K, cfg, at=x, index=index)
            probe = x + rng.uniform(-0.02, 0.02, size=7)
            assert own.objective(probe) == shared.objective(probe)
            assert np.array_equal(own.gradient(x), shared.gradient(x))


class TestBatchedObjective:
    """Each row of a batched objective call is bit-identical to a one-row call."""

    def make_case(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        index = build_index(obs.cloud)
        x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])
        return sampled, obs, index, x

    def frozen_at(self, sampled, obs, index, x):
        sigma, correction = params_decode(x)
        moved = sigma * correction.apply(sampled.points)
        _, idx = index.query(moved)
        return obs.cloud.points[idx], obs.cloud.normals[idx]

    def batch(self, rng, x, size):
        if size == 14:  # a central-difference stencil
            h = AlignConfig().fd_eps * np.maximum(1.0, np.abs(x))
            xs = np.repeat(x[None, :], 14, axis=0)
            xs[2 * np.arange(7), np.arange(7)] += h
            xs[2 * np.arange(7) + 1, np.arange(7)] -= h
            return xs
        return x + rng.uniform(-0.05, 0.05, size=(size, 7))

    def assert_rows_match_one_row_calls(self, xs, values, *args):
        assert values.shape == (len(xs),)
        for x, v in zip(xs, values):
            one = alignment._alignment_objective(x.copy()[None, :], *args)
            assert one.shape == (1,)
            assert one.tobytes() == np.array([v]).tobytes()

    @pytest.mark.parametrize("size", [1, 14, 17])
    @pytest.mark.parametrize("correspondences", ["frozen", "refreshed"])
    def test_rows_equal_one_row_calls(self, rng, size, correspondences):
        sampled, obs, index, x = self.make_case(rng)
        frozen = self.frozen_at(sampled, obs, index, x) if correspondences == "frozen" else None
        args = (sampled, obs, K, AlignConfig(), index, frozen)
        xs = self.batch(rng, x, size)
        values = alignment._alignment_objective(xs, *args)
        assert np.all(np.isfinite(values))
        self.assert_rows_match_one_row_calls(xs, values, *args)

    @pytest.mark.parametrize("correspondences", ["frozen", "refreshed"])
    def test_near_row_is_inf_and_leaves_the_others_alone(self, rng, correspondences):
        sampled, obs, index, x = self.make_case(rng)
        frozen = self.frozen_at(sampled, obs, index, x) if correspondences == "frozen" else None
        args = (sampled, obs, K, AlignConfig(), index, frozen)
        xs = self.batch(rng, x, 5)
        xs[2, 6] = -0.5  # translates the hand, about 0.45 m deep, behind the camera plane
        values = alignment._alignment_objective(xs, *args)
        assert values[2] == np.inf
        assert np.all(np.isfinite(np.delete(values, 2)))
        self.assert_rows_match_one_row_calls(xs, values, *args)
        all_near = alignment._alignment_objective(xs[[2, 2]], *args)
        assert np.all(all_near == np.inf)

    def test_gradient_equals_row_by_row_fd(self, rng):
        sampled, obs, index, x = self.make_case(rng)
        cfg = AlignConfig()
        problem = alignment_problem(sampled, obs, K, cfg, at=x, index=index)
        for probe in (x, x + rng.uniform(-0.02, 0.02, size=7)):
            lifted = fd_gradient(batch_objective(problem.objective), probe, cfg.fd_eps)
            assert problem.gradient(probe).tobytes() == lifted.tobytes()

    def test_scale_grid_batch_equals_serial_scan(self, rng):
        # the log-scale column matches the scalar np.log of each grid point,
        # and each batched candidate scores what the serial scan scored
        assert len(alignment._LOG_SCALE_GRID) == len(alignment._SCALE_GRID) == 17
        for lg, g in zip(alignment._LOG_SCALE_GRID, alignment._SCALE_GRID):
            assert np.array([lg]).tobytes() == np.array([np.log(g)]).tobytes()
        sampled, obs, index, x = self.make_case(rng)
        args = (sampled, obs, K, AlignConfig(), index)
        cands = np.repeat(x[None, :], 17, axis=0)
        cands[:, 0] = alignment._LOG_SCALE_GRID
        values = alignment._alignment_objective(cands, *args)
        for g, v in zip(alignment._SCALE_GRID, values):
            cand = x.copy()
            cand[0] = np.log(g)
            serial = alignment._alignment_objective(cand[None, :], *args)
            assert serial.tobytes() == np.array([v]).tobytes()


class TestAlignTrajectory:
    def make_sequence(self, offsets, seed=0):
        frames = []
        observations = []
        for k, off in enumerate(offsets):
            joints = canonical_hand_joints(0.4) + np.asarray(off)
            frames.append(HandFrame(
                joints=joints,
                wrist_pose=RigidTransform(Rotation.identity(), joints[0]),
                frame_index=k,
            ))
            pts = sample_hand_surface(joints, 500, seed=seed + k,
                                      visible_from=(0, 0, 0))
            observations.append(observe(pts))
        return HandTrajectory(frames=frames), observations

    def test_static_hand_gives_near_identical_alignments(self):
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 5, seed=3)
        results = align_trajectory(traj, obs, K, seed=3)
        assert len(results) == 5
        sigmas = [r.sigma for r in results]
        assert max(sigmas) - min(sigmas) < 5e-3
        for r in results:
            assert abs(r.sigma - 1.0) < 5e-3
            assert r.correction.rotation.angle() < 5e-3

    def test_translating_hand_tracks_generator(self):
        # hand frames report a stale position; observations move laterally
        base = np.array([0.0, 0.0, 0.45])
        steps = [np.array([0.004, -0.002, 0.0]) * k for k in range(4)]
        frames = []
        observations = []
        for k, step in enumerate(steps):
            joints = canonical_hand_joints(0.4) + base
            frames.append(HandFrame(
                joints=joints,
                wrist_pose=RigidTransform(Rotation.identity(), joints[0]),
                frame_index=k,
            ))
            moved = canonical_hand_joints(0.4) + base + step
            pts = sample_hand_surface(moved, 500, seed=11 + k, visible_from=(0, 0, 0))
            observations.append(observe(pts))
        traj = HandTrajectory(frames=frames)
        # light regularization: the fixture asks for mm-accurate tracking
        cfg = AlignConfig(lambda_reg=0.001)
        results = align_trajectory(traj, observations, K, cfg=cfg, seed=11)
        for r, step, frame in zip(results, steps, frames):
            corrected = r.sigma * r.correction.apply(frame.joints)
            expected = frame.joints + step
            err = np.linalg.norm(corrected - expected, axis=1).max()
            assert err < 0.002

    def test_empty_frame_failure_names_frame(self):
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 4, seed=5)
        empty_mask = FrameObservation(cloud=obs[3].cloud, depth=obs[3].depth,
                                      hand_mask=np.zeros_like(obs[3].hand_mask))
        obs[3] = empty_mask
        with pytest.raises(AlignmentError) as err:
            align_trajectory(traj, obs, K, seed=5)
        assert err.value.frame_index == 3
        assert "frame 3" in str(err.value)

    def test_count_mismatch(self):
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 3, seed=7)
        with pytest.raises(InvalidArgumentError):
            align_trajectory(traj, obs[:2], K)
