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


def plane_points(z=0.4, half=0.06, step=0.002):
    g = np.arange(-half, half + step / 2, step)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)])


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
        loss = depth_consistency_loss(sampled, 1.0, RigidTransform.identity(), depth,
                                      depth.valid, K)
        assert loss == 0.0

    def test_constant_offset(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = DepthImage(values=np.where(depth.valid, depth.values + 0.02, 0.0),
                             valid=depth.valid.copy())
        loss = depth_consistency_loss(PointCloud(points=pts), 1.0,
                                      RigidTransform.identity(), shifted,
                                      depth.valid, K)
        assert loss == pytest.approx(0.02, abs=1e-12)

    def test_five_mm_axial_shift_on_flat_fixture(self):
        pts = plane_points()
        observed = splat_depth(pts, K, 3)
        shift = RigidTransform(Rotation.identity(), np.array([0.0, 0.0, 0.005]))
        loss = depth_consistency_loss(PointCloud(points=pts), 1.0, shift, observed,
                                      observed.valid, K)
        assert loss == pytest.approx(0.005, abs=1e-4)

    def test_invariant_to_pixels_outside_mask(self):
        pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        mask = depth.valid.copy()
        mask[:, :200] = False
        base = depth_consistency_loss(PointCloud(points=pts), 1.0,
                                      RigidTransform.identity(), depth, mask, K)
        tampered_values = depth.values.copy()
        tampered_values[:, :200] += 123.0
        tampered = DepthImage(values=tampered_values,
                              valid=depth.valid.copy())
        after = depth_consistency_loss(PointCloud(points=pts), 1.0,
                                       RigidTransform.identity(), tampered, mask, K)
        assert base == after

    def test_empty_overlap_raises(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        with pytest.raises(LossUndefinedError):
            depth_consistency_loss(PointCloud(points=pts), 1.0,
                                   RigidTransform.identity(), depth,
                                   np.zeros_like(depth.valid), K)

    def test_mask_shape_mismatch(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        with pytest.raises(InvalidArgumentError):
            depth_consistency_loss(PointCloud(points=pts), 1.0,
                                   RigidTransform.identity(), depth,
                                   np.ones((2, 2), dtype=bool), K)


class TestSmoothDepthResiduals:
    def test_on_surface_residuals_vanish(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        r = smooth_depth_residuals(pts, depth, depth.valid, K)
        assert np.abs(r).max() < 1e-9

    def test_offset_residuals(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)  # gap-free support over the patch
        r = smooth_depth_residuals(pts + np.array([0.0, 0.0, 0.01]), depth,
                                   depth.valid, K)
        interior = np.abs(r - 0.01) < 1e-9
        assert interior.mean() > 0.9  # all but mask-boundary points

    def test_unsupported_points_fade_to_zero(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        far = pts + np.array([10.0, 0.0, 0.0])  # projects far outside the image
        r = smooth_depth_residuals(far, depth, depth.valid, K)
        np.testing.assert_array_equal(r, np.zeros(len(far)))

    def test_near_points_are_inf_and_leave_the_others_alone(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = pts + np.array([0.0, 0.0, 0.01])
        near = np.zeros(len(pts), dtype=bool)
        near[[0, 5, 9]] = True
        shifted[near, 2] = (0.5 * alignment._MIN_DEPTH, 0.0, -0.2)
        r = smooth_depth_residuals(shifted, depth, depth.valid, K)
        assert np.all(r[near] == np.inf)
        without = smooth_depth_residuals(shifted[~near], depth, depth.valid, K)
        assert np.any(without != 0.0)
        assert r[~near].tobytes() == without.tobytes()

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
        clouds = []
        for uvz in sets:
            u, v, z = np.array(uvz, dtype=float).T
            clouds.append(np.column_stack([(u - K.cx) * z / K.fx, (v - K.cy) * z / K.fy, z]))
        stacked = smooth_depth_residuals(np.concatenate(clouds), depth, mask, K)
        separate = np.concatenate([smooth_depth_residuals(c, depth, mask, K) for c in clouds])
        assert stacked.tobytes() == separate.tobytes()


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
