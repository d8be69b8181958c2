import gc
import logging
import re
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dexretarget import alignment, solver
from dexretarget.alignment import (
    AlignConfig,
    FrameObservation,
    HandAlignment,
    align_hand_frame,
    align_trajectory,
    alignment_problem,
    calibrate_depth_sequence,
    depth_consistency_loss,
    params_encode,
    smooth_depth_residuals,
)
from dexretarget.errors import (
    AlignmentError,
    InvalidArgumentError,
    LossUndefinedError,
    SolverStartError,
)
from dexretarget.geometry import (
    DepthImage,
    RigidTransform,
    Rotation,
    SimilarityTransform,
    backproject_depth,
    pseudo_huber,
    pseudo_huber_derivative,
    splat_depth,
)
from dexretarget.hand_model import HandFrame, HandTrajectory
from dexretarget.pointcloud import PointCloud, build_index, estimate_normals
from dexretarget.solver import check_gradient, fd_gradient
from dexretarget.synthetic import (
    DEFAULT_INTRINSICS,
    SynthConfig,
    canonical_hand_joints,
    sample_hand_surface,
    synth_hand_trajectory,
)
from test_depth_window import dense_depth_loss, dense_splat, dense_windows

K = DEFAULT_INTRINSICS
# central-difference step of the gradient audits: small, since the depth
# term carries pixel-scale curvature
AUDIT_STEP = 1.5e-7


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


def reference_windows(obs, mask):
    """The hand support of the observation's depth map under ``mask`` and
    its depth there (zero elsewhere) over the padded window, found from the
    full-image arrays."""
    _, depth, _, _ = dense_windows(obs.depth.values, obs.depth.valid, mask)
    return depth > 0.0, depth


def record_continuations(monkeypatch):
    """Wrap ``_DepthPass.jacobian`` so that each pass it continues (on the
    pass's first call) is appended to the returned list."""
    continued, continue_pass = [], alignment._DepthPass.jacobian

    def counted(depth_pass):
        if depth_pass._jacobian is None:
            continued.append(depth_pass)
        return continue_pass(depth_pass)

    monkeypatch.setattr(alignment._DepthPass, "jacobian", counted)
    return continued


def unskipped_depth_kernel(points, obs, mask, intrinsics, jacobian=False):
    """The depth kernel as it was before the reach window: every point runs
    all 16 taps, gated by a gather from the support window. Kept as the
    oracle whose residuals and Jacobians the kernel must equal bit for bit.

    It sums each Jacobian tap sum over a (16, N) array, which numpy adds in
    tap order when N > 1 but pairwise when N == 1; the kernel adds them in
    tap order for every N. So the oracle runs on the cloud twice over,
    where N > 1 whenever one point is far enough, and returns the first
    copy's rows.
    """
    pts = np.asarray(points, dtype=float)
    pts = np.concatenate((pts, pts))
    near = pts[:, 2] < alignment._MIN_DEPTH
    far = pts[~near] if np.any(near) else pts
    z = far[:, 2]
    u = intrinsics.fx * far[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * far[:, 1] / z + intrinsics.cy
    iu = np.floor(u).astype(int)
    iv = np.floor(v).astype(int)
    taps = np.array([-1, 0, 1, 2])
    signs = np.array([1.0, 1.0, -1.0, -1.0])

    def weight_ratios(c, ic):
        t = np.clip((2.0 - np.abs(c - (ic + taps[:, None]))) / 2.0, 0.0, 1.0)
        wt = t ** 3 * (t * (6.0 * t - 15.0) + 10.0)
        total = np.sum(wt, axis=0)
        ratios = wt / total
        dwt = (-30.0 / 2.0) * signs[:, None] * (t * (1.0 - t)) ** 2
        return ratios, (dwt - ratios * np.sum(dwt, axis=0)) / total

    ou, ov = obs.window_origin
    support, depth = reference_windows(obs, mask)
    height, width = support.shape
    pu = np.clip(iu - ou, 1, width - 3)
    pv = np.clip(iv - ov, 1, height - 3)
    offsets = (taps[:, None] + width * taps[None, :]).ravel()
    flat = offsets[:, None] + (pv * width + pu)
    gate = np.take(support, flat)
    ru, dru = weight_ratios(u, iu)
    rv, drv = weight_ratios(v, iv)
    gated = (ru[:, None] * rv[None, :]).reshape(16, -1) * gate
    gaps = z - np.take(depth, flat)
    r = np.zeros(len(far))
    for term in gated * gaps:
        r += term
    gated_gaps = gate * gaps
    dr_du = np.sum((dru[:, None] * rv[None, :]).reshape(16, -1) * gated_gaps, axis=0)
    dr_dv = np.sum((ru[:, None] * drv[None, :]).reshape(16, -1) * gated_gaps, axis=0)
    jac = np.column_stack((
        dr_du * intrinsics.fx / z,
        dr_dv * intrinsics.fy / z,
        np.sum(gated, axis=0) - (dr_du * (u - intrinsics.cx)
                                 + dr_dv * (v - intrinsics.cy)) / z,
    ))
    half = len(pts) // 2
    out = np.full(len(pts), np.inf)
    out[~near] = r
    jac_out = np.full((len(pts), 3), np.nan)
    jac_out[~near] = jac
    return (out[:half], jac_out[:half]) if jacobian else out[:half]


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

    def test_in_place_update_equals_a_new_list(self):
        obj_true, obj_pred = self.make_object_depths(0.8)
        pairs = []
        for k in range(3):
            pts = 0.8 * sample_hand_surface(hand_at(offset=(0.01 * k, 0.0, 0.45)).joints, 300,
                                            seed=k, visible_from=(0, 0, 0))
            pairs.append((PointCloud(points=pts), splat_depth(pts, K, 3)))
        originals = list(pairs)
        transform, frames = calibrate_depth_sequence(pairs, obj_true, obj_pred, K)
        assert frames is pairs
        assert all(new is not old for new, old in zip(frames, originals))
        # the list-building version: every calibrated pair built afresh
        for (cloud, depth), (new_cloud, new_depth) in zip(originals, frames):
            expected_depth = splat_depth(transform.apply(backproject_depth(depth, K)), K,
                                         footprint=1)
            assert new_cloud.points.tobytes() == cloud.transformed(transform).points.tobytes()
            assert new_depth.values.tobytes() == expected_depth.values.tobytes()
            assert new_depth.valid.tobytes() == expected_depth.valid.tobytes()

    def test_frames_must_be_a_list(self):
        obj_true, obj_pred = self.make_object_depths(0.8)
        with pytest.raises(InvalidArgumentError, match="must be a list"):
            calibrate_depth_sequence((), obj_true, obj_pred, K)


class TestDepthConsistencyLoss:
    def test_zero_when_rendered_equals_observed(self):
        pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        loss = depth_consistency_loss(pts, observation_of(depth), K)
        assert loss == 0.0

    def test_constant_offset(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = DepthImage(values=np.where(depth.valid, depth.values + 0.02, 0.0))
        loss = depth_consistency_loss(pts, observation_of(shifted), K)
        assert loss == pytest.approx(0.02, abs=1e-12)

    def test_five_mm_axial_shift_on_flat_fixture(self):
        pts = plane_points()
        observed = splat_depth(pts, K, 3)
        shift = RigidTransform(Rotation.identity(), np.array([0.0, 0.0, 0.005]))
        loss = depth_consistency_loss(shift.apply(pts), observation_of(observed), K)
        assert loss == pytest.approx(0.005, abs=1e-4)

    def test_invariant_to_pixels_outside_mask(self):
        pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
        depth = splat_depth(pts, K, 3)
        # the mask leaves out the left half of the hand's pixels
        outside = np.zeros_like(depth.valid)
        outside[:, : int(np.median(np.nonzero(depth.valid)[1]))] = True
        mask = depth.valid & ~outside
        base = depth_consistency_loss(pts, observation_of(depth, mask), K)
        # tamper only pixels that stay valid, so validity is unchanged
        tampered_values = depth.values.copy()
        tampered_values[outside & depth.valid] += 123.0
        tampered = DepthImage(values=tampered_values)
        np.testing.assert_array_equal(tampered.valid, depth.valid)
        assert np.any(tampered.values != depth.values)
        after = depth_consistency_loss(pts, observation_of(tampered, mask), K)
        assert base == after

    def test_empty_overlap_raises(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        with pytest.raises(LossUndefinedError):
            depth_consistency_loss(pts, observation_of(depth, np.zeros_like(depth.valid)), K)


class TestSupportOverlap:
    """The start check's footprint test against the splat it replaces."""

    @given(seed=st.integers(0, 2**32 - 1), footprint=st.sampled_from([1, 3, 5]),
           support=st.sampled_from(["hand", "image-corner"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_splat_overlap(self, seed, footprint, support):
        rng = np.random.default_rng(seed)
        if support == "hand":
            pts = sample_hand_surface(hand_at().joints, 400, seed=3, visible_from=(0, 0, 0))
            depth = splat_depth(pts, K, 3)
        else:
            depth = DepthImage(values=np.full((K.height, K.width), 0.5))
        # a random box of the mask, which may reach the image's border
        mask = np.zeros_like(depth.valid)
        v0, u0 = rng.integers(0, (K.height, K.width))
        mask[v0:v0 + rng.integers(1, 200), u0:u0 + rng.integers(1, 200)] = True
        if rng.random() < 0.5:
            mask |= depth.valid
        obs = observation_of(depth, mask)
        rows, cols = DepthImage(values=np.where(mask, depth.values, 0.0)).box
        # the hand in a random pose, part of it behind the camera or off
        # the image, and points whose footprints straddle the support
        # window's edges, some behind the camera
        pose = RigidTransform(Rotation.from_rotvec(rng.uniform(-1.5, 1.5, 3)),
                              rng.uniform(-0.3, 0.3, 3))
        hand = 1.1 * pose.apply(sample_hand_surface(hand_at().joints, 300, seed=int(seed % 97),
                                                    visible_from=(0, 0, 0)))
        def near(box, edges_only):
            # 40 pixel coordinates within 4 px of the box, or of its edges
            span = np.r_[box.start - 4:box.stop + 4]
            if edges_only:
                span = np.r_[box.start - 4:box.start + 4, box.stop - 4:box.stop + 4]
            return rng.choice(span, 40)

        u = np.r_[near(cols, True), near(cols, False)]
        v = np.r_[near(rows, False), near(rows, True)]
        edges = points_at_pixels(np.column_stack([u, v, rng.uniform(0.2, 1.0, 80)]))
        edges[rng.random(80) < 0.2, 2] *= -1.0
        moved = np.vstack((hand, edges))[rng.random(380) < rng.uniform(0.0, 1.0)]
        overlap = alignment._support_overlap(moved, obs, K, footprint)
        # the distinct overlap pixels are the ones the depth loss compares:
        # the splat's valid pixels in the support
        _, rendered_valid = dense_splat(moved, K, footprint)
        compared = rendered_valid & mask & depth.valid
        ou, ov = obs.window_origin
        vs, us = np.divmod(np.unique(overlap), obs.depth_window.shape[1])
        pixels = np.zeros_like(compared)
        pixels[vs + ov, us + ou] = True
        assert np.array_equal(pixels, compared)
        expected = dense_depth_loss(moved, depth.values, mask & depth.valid, K, footprint)
        if expected is None:
            assert overlap.size == 0
            with pytest.raises(LossUndefinedError):
                depth_consistency_loss(moved, obs, K, footprint)
        else:
            loss = depth_consistency_loss(moved, obs, K, footprint)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()

    def test_non_finite_points_are_the_splats_error(self):
        depth = splat_depth(plane_points(), K, 3)
        pts = plane_points()
        pts[7, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            alignment._support_overlap(pts, observation_of(depth), K, 3)


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
        _, expected, _, hand_mask = dense_windows(depth.values, depth.valid, mask)
        assert obs.depth_window.tobytes() == expected.tobytes()
        assert np.any(hand_mask) and np.any(mask & ~depth.valid)


class TestSmoothDepthResiduals:
    def test_on_surface_residuals_vanish(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        r = smooth_depth_residuals(pts, observation_of(depth), K).residuals
        assert np.abs(r).max() < 1e-9

    def test_offset_residuals(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)  # gap-free support over the patch
        r = smooth_depth_residuals(pts + np.array([0.0, 0.0, 0.01]), observation_of(depth), K).residuals
        interior = np.abs(r - 0.01) < 1e-9
        assert interior.mean() > 0.9  # all but mask-boundary points

    def test_unsupported_points_fade_to_zero(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        far = pts + np.array([10.0, 0.0, 0.0])  # projects far outside the image
        r = smooth_depth_residuals(far, observation_of(depth), K).residuals
        np.testing.assert_array_equal(r, np.zeros(len(far)))

    def test_near_points_are_inf_and_leave_the_others_alone(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        shifted = pts + np.array([0.0, 0.0, 0.01])
        near = np.zeros(len(pts), dtype=bool)
        near[[0, 5, 9]] = True
        shifted[near, 2] = (0.5 * alignment._MIN_DEPTH, 0.0, -0.2)
        obs = observation_of(depth)
        r = smooth_depth_residuals(shifted, obs, K).residuals
        assert np.all(r[near] == np.inf)
        without = smooth_depth_residuals(shifted[~near], obs, K).residuals
        assert np.any(without != 0.0)
        assert r[~near].tobytes() == without.tobytes()

    def test_invalid_pixels_next_to_points_do_not_reach_residuals(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 1)
        nan_filled = np.where(depth.valid, depth.values, np.nan)
        shifted = pts + np.array([0.0, 0.0, 0.01])
        zero = smooth_depth_residuals(shifted, observation_of(depth), K).residuals
        nan = smooth_depth_residuals(shifted, observation_of(DepthImage(values=nan_filled)), K).residuals
        assert np.all(np.isfinite(zero)) and np.any(zero != 0.0)
        assert nan.tobytes() == zero.tobytes()

    # pixel coordinates a little beyond the image on every side, and depths
    # from behind the camera, through zero and the minimum depth, to past
    # the observed plane
    _pixel_points = st.lists(
        st.tuples(st.floats(-8.0, K.width + 8.0), st.floats(-8.0, K.height + 8.0),
                  st.floats(-0.2, 1.0)),
        min_size=1, max_size=30)

    @given(st.lists(_pixel_points, min_size=1, max_size=17))
    @settings(max_examples=60, deadline=None)
    def test_stacked_call_equals_per_set_calls(self, sets):
        plane = plane_points()
        depth = splat_depth(plane, K, 3)
        mask = depth.valid.copy()
        mask[:, : K.width // 2 - 20] = False  # a mask edge inside the supported patch
        clouds = [points_at_pixels(uvz) for uvz in sets]
        obs = observation_of(depth, mask)
        stacked = smooth_depth_residuals(np.concatenate(clouds), obs, K)
        separate = [smooth_depth_residuals(c, obs, K) for c in clouds]
        assert (stacked.residuals.tobytes()
                == np.concatenate([p.residuals for p in separate]).tobytes())
        assert (stacked.jacobian().tobytes()
                == np.concatenate([p.jacobian() for p in separate]).tobytes())


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

    @staticmethod
    @st.composite
    def _clouds(draw, box):
        """Points around the support box, across and a little beyond the
        image, and far beyond it (clipped into the window's pad), at depths
        from behind the camera, through the minimum depth, to past the
        observed depths."""
        r0, r1, c0, c1 = box
        pixel = st.one_of(
            st.tuples(st.floats(c0 - 8.0, c1 + 8.0), st.floats(r0 - 8.0, r1 + 8.0)),
            st.tuples(st.floats(-8.0, K.width + 8.0), st.floats(-8.0, K.height + 8.0)),
            st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
        depth = st.one_of(st.floats(-0.2, 1.2),
                          st.sampled_from([0.0, alignment._MIN_DEPTH, 1.5 * alignment._MIN_DEPTH]))
        uvz = draw(st.lists(st.tuples(pixel, depth), min_size=1, max_size=40))
        return points_at_pixels([(u, v, z) for (u, v), z in uvz])

    @staticmethod
    def _noisy_depth(rng):
        shape = (K.height, K.width)
        return DepthImage(values=np.where(rng.random(shape) < 0.1, np.nan,
                                          rng.uniform(0.2, 1.0, shape)))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_tap_reference(self, data):
        mask, box = data.draw(self._masks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = data.draw(self._clouds(box))
        obs = observation_of(self._noisy_depth(rng), mask)
        r = smooth_depth_residuals(pts, obs, K).residuals
        expected = reference_depth_residuals(pts, obs.depth.values, mask & obs.depth.valid, K)
        assert r.tobytes() == expected.tobytes()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_the_unskipped_kernel(self, data):
        # supports that are empty, a single pixel or touch an image edge;
        # points whose taps all miss the support, clipped into the pad, or
        # near: skipping the taps of unreached points changes no bit
        mask, box = data.draw(self._masks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = data.draw(self._clouds(box))
        obs = observation_of(self._noisy_depth(rng), mask)
        depth_pass = smooth_depth_residuals(pts, obs, K)
        r_ref, jac_ref = unskipped_depth_kernel(pts, obs, mask, K, jacobian=True)
        assert depth_pass.residuals.tobytes() == r_ref.tobytes()
        assert depth_pass.jacobian().tobytes() == jac_ref.tobytes()
        # continuing the pass leaves its residuals' bits
        assert depth_pass.residuals.tobytes() == r_ref.tobytes()

    def test_non_finite_points_keep_the_unskipped_results(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        obs = observation_of(depth)
        odd = points_at_pixels([(20.0, 20.0, 0.4)] * 6)  # far from the support
        odd[0, 0], odd[1, 1], odd[2, 2], odd[3, 2], odd[4, 0], odd[5, 1] = (
            np.nan, np.inf, np.inf, -np.inf, 1e306, -np.inf)
        cloud = np.concatenate((pts[:50], odd))
        with np.errstate(invalid="ignore", over="ignore"):
            depth_pass = smooth_depth_residuals(cloud, obs, K)
            r, jac = depth_pass.residuals, depth_pass.jacobian()
            r_ref, jac_ref = unskipped_depth_kernel(cloud, obs, depth.valid, K, jacobian=True)
        assert r.tobytes() == r_ref.tobytes() and jac.tobytes() == jac_ref.tobytes()
        assert not np.any(np.isfinite(r[50:]))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_reach_window_marks_anchors_with_a_supported_tap(self, data):
        # on a small image, so that random masks touch its edges
        shape = data.draw(st.sampled_from([(1, 1), (5, 3), (12, 16)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mask = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.02, 0.2, 0.9]))
        obs = observation_of(DepthImage(values=rng.uniform(0.2, 1.0, shape)), mask)
        support, depth = reference_windows(obs, mask)
        # each supported pixel marks every anchor one of whose taps is on it
        brute = np.zeros_like(support)
        rows, cols = np.nonzero(support)
        for dv in (-1, 0, 1, 2):
            for du in (-1, 0, 1, 2):
                inside = ((rows - dv >= 0) & (rows - dv < support.shape[0])
                          & (cols - du >= 0) & (cols - du < support.shape[1]))
                brute[rows[inside] - dv, cols[inside] - du] = True
        assert obs.reach_window.shape == support.shape
        assert np.array_equal(obs.reach_window, brute)
        # the kernel reads the support as the depth window's positive pixels
        assert np.array_equal(obs.depth_window > 0.0, support)
        assert obs.depth_window.tobytes() == depth.tobytes()

    def test_cloud_with_no_reached_point_reads_exact_zeros(self):
        pts = plane_points()
        depth = splat_depth(pts, K, 3)
        mask = np.zeros_like(depth.valid)
        mask[200:280, 280:360] = True
        obs = observation_of(depth, mask)
        # on valid depth, anchored 3 px before and 2 px after the support
        # (the taps reach 2 px after and 1 px before an anchor), and far
        # beyond the image
        uv = [(277.9, 240.5), (361.0, 240.5), (320.5, 197.9), (320.5, 281.0),
              (100.5, 100.5), (-5e4, 3e4)]
        cloud = points_at_pixels([(u, v, 0.41) for u, v in uv])
        depth_pass = smooth_depth_residuals(cloud, obs, K)
        r, jac = depth_pass.residuals, depth_pass.jacobian()
        assert r.tobytes() == np.zeros(len(uv)).tobytes()
        assert jac.tobytes() == np.zeros((len(uv), 3)).tobytes()
        r_ref, jac_ref = unskipped_depth_kernel(cloud, obs, mask, K, jacobian=True)
        assert r_ref.tobytes() == r.tobytes() and jac_ref.tobytes() == jac.tobytes()
        # anchored one pixel closer, a tap of positive weight lands on the support
        closer = points_at_pixels([(u, v, 0.41) for u, v in
                                   [(278.5, 240.5), (360.5, 240.5), (320.5, 198.5),
                                    (320.5, 280.5)]])
        assert np.all(smooth_depth_residuals(closer, obs, K).residuals != 0.0)

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
        r = smooth_depth_residuals(clipped, obs, K).residuals
        assert r.tobytes() == np.zeros(len(uv)).tobytes()
        # the same points reach the support once it covers them
        assert np.all(smooth_depth_residuals(clipped, observation_of(depth), K).residuals != 0.0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_jacobian_matches_finite_differences_and_keeps_the_residuals(self, data):
        mask, (r0, r1, c0, c1) = data.draw(self._masks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        depth = DepthImage(values=rng.uniform(0.3, 0.6, (K.height, K.width)))
        # projections around the support, so that many taps straddle its
        # edge and the window's pad, at depths in front of and past it
        uvz = data.draw(st.lists(st.tuples(st.floats(c0 - 6.0, c1 + 6.0),
                                           st.floats(r0 - 6.0, r1 + 6.0),
                                           st.floats(0.05, 1.0)), min_size=1, max_size=30))
        pts = points_at_pixels(uvz)
        obs = observation_of(depth, mask)
        depth_pass = smooth_depth_residuals(pts, obs, K)
        before = depth_pass.residuals.tobytes()
        jac = depth_pass.jacobian()
        assert depth_pass.residuals.tobytes() == before
        h = 1e-8
        fd = np.column_stack([
            (smooth_depth_residuals(pts + h * e, obs, K).residuals
             - smooth_depth_residuals(pts - h * e, obs, K).residuals) / (2 * h)
            for e in np.eye(3)])
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(fd).max()))

    def test_jacobian_of_a_near_point_is_nan(self):
        pts = plane_points()
        obs = observation_of(splat_depth(pts, K, 3))
        pts[7, 2] = 0.5 * alignment._MIN_DEPTH
        depth_pass = smooth_depth_residuals(pts, obs, K)
        r, jac = depth_pass.residuals, depth_pass.jacobian()
        assert r[7] == np.inf and np.all(np.isnan(jac[7]))
        assert np.all(np.isfinite(np.delete(jac, 7, axis=0)))

    def test_late_continuation_gives_the_bits_of_an_immediate_one(self):
        pts = plane_points()
        obs = observation_of(splat_depth(pts, K, 3))
        shifted = pts + np.array([0.0, 0.0, 0.01])
        shifted[3, 2] = 0.5 * alignment._MIN_DEPTH
        late = smooth_depth_residuals(shifted, obs, K)
        residual_bits = late.residuals.tobytes()
        # other passes run and are continued before the late one is
        for dz in (0.005, -0.003):
            smooth_depth_residuals(pts + np.array([0.0, 0.0, dz]), obs, K).jacobian()
        at_once = smooth_depth_residuals(shifted, obs, K).jacobian()
        jac = late.jacobian()
        assert jac.tobytes() == at_once.tobytes()
        assert late.jacobian() is jac
        assert late.residuals.tobytes() == residual_bits


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

        def fresh(fit):
            # the objective with correspondences refreshed at the parameters
            x = params_encode(fit.sigma, fit.correction)
            return alignment_problem(sampled, obs, K, cfg, at=x).objective(x)

        assert fresh(result) <= fresh(init)

    def test_one_problem_per_solve(self, monkeypatch):
        # each outer round builds one problem for one solve; a round's fresh
        # score is the next round's problem at its anchor, and the other
        # fresh scores build none, so counting problems counts outer rounds
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        calls = []
        for name in ("alignment_problem", "minimize_box"):
            def counted(*args, _name=name, _fn=getattr(alignment, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(alignment, name, counted)
        align_hand_frame(hand, sampled, obs, K)
        assert calls.count("minimize_box") > 1
        assert calls.count("alignment_problem") == calls.count("minimize_box")

    def test_lone_frame_starts_cold(self, monkeypatch):
        # without an init, and with a fresh one, the first solve has no pairs
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        solve, reports = alignment.minimize_box, []

        def recorded_solve(*args):
            reports.append(solve(*args))
            return reports[-1]

        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        for init in (None, HandAlignment.initial(hand.frame_index)):
            reports.clear()
            result = align_hand_frame(hand, sampled, obs, K, init=init)
            assert reports[0].warm_pairs == 0
            assert [r.warm_pairs for r in reports[1:]] == [len(r.pairs) for r in reports[:-1]]
            assert result.pairs is reports[-1].pairs

    @pytest.mark.parametrize("scale, noise, seed", [(1.0, 0.002, 0), (1.1, 0.001, 1)])
    def test_inner_tolerance_drift(self, monkeypatch, scale, noise, seed):
        # the outer rounds' solves stop at |pg|inf <= _INNER_GRAD_TOL; the
        # frame's parameters stay within 1e-6 of the same frame solved to
        # the solver's default 1e-8
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        noisy = scale * sampled.points + np.random.default_rng(seed).normal(
            size=sampled.points.shape) * noise
        obs = observe(noisy)

        def params():
            result = align_hand_frame(hand, sampled, obs, K)
            return params_encode(result.sigma, result.correction)

        loose = params()
        monkeypatch.setattr(alignment, "_INNER_GRAD_TOL", 1e-8)
        tight = params()
        assert np.abs(loose - tight).max() <= 1e-6

    def test_one_kernel_pass_per_distinct_point(self, monkeypatch):
        # the scale scan scores its candidates in one stacked pass; every
        # other score and gradient of a frame reads the frame's pass memo:
        # the depth kernel runs one value pass per distinct parameter
        # vector scored through _evaluate, every gradient continues the
        # pass of its point, and the memo goes with the frame
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        kernel, evaluate, memo_type = (alignment.smooth_depth_residuals, alignment._evaluate,
                                       alignment._PassMemo)
        passes, points, gradients, memos = [], set(), [], []

        def counted_kernel(pts, *args, **kwargs):
            depth_pass = kernel(pts, *args, **kwargs)
            passes.append(depth_pass)
            return depth_pass

        def recorded_evaluate(memo, cfg, correspondences, x, gradient=False, bound=np.inf):
            points.add(np.asarray(x, dtype=float).tobytes())
            gradients.append(gradient)
            return evaluate(memo, cfg, correspondences, x, gradient=gradient, bound=bound)

        class RecordedMemo(memo_type):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(weakref.ref(self))

        monkeypatch.setattr(alignment, "smooth_depth_residuals", counted_kernel)
        continued = record_continuations(monkeypatch)
        monkeypatch.setattr(alignment, "_evaluate", recorded_evaluate)
        monkeypatch.setattr(alignment, "_PassMemo", RecordedMemo)
        align_hand_frame(hand, sampled, obs, K)
        assert any(gradients) and len(gradients) > len(points)
        n = len(sampled)
        # the start's pass (the overlap check and its fresh score), the
        # scan's stacked pass, then the scan's pick and every later point
        assert ([len(p.residuals) for p in passes]
                == [n, len(alignment._SCALE_GRID) * n] + [n] * (len(points) - 1))
        # gradients continue value passes, each at most once, and never
        # the scan's
        assert continued and len(continued) <= sum(gradients)
        assert len({id(p) for p in continued}) == len(continued)
        assert all(any(p is q for q in passes) for p in continued)
        assert all(p is not passes[1] for p in continued)
        assert len(memos) == 1
        gc.collect()
        assert memos[0]() is None

    def test_one_query_per_outer_round(self, monkeypatch):
        # a frame queries the k-d tree once per distinct parameter vector,
        # through one memo: the start, the scan's candidates that need a
        # query, each problem's anchor (the scan's pick, then each kept
        # solution) and the last solve's solution, kept or dropped; neither
        # the first round's anchor nor the final residuals query again
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        indexes, anchors, scans, solved, queried = [], [], [], [], []
        build, problem, scan = build_index, alignment.alignment_problem, alignment._scan_scale
        solve, correspondences = alignment.minimize_box, alignment._PassMemo.correspondences

        def counted_index(cloud):
            indexes.append(CountingIndex(build(cloud)))
            return indexes[-1]

        def recorded_correspondences(memo, x, moved):
            # the parameters of each query the index counts
            before = memo.index.queries
            out = correspondences(memo, x, moved)
            queried.extend([x.tobytes()] * (memo.index.queries - before))
            return out

        def counted_problem(*args, **kwargs):
            anchors.append(kwargs["at"].tobytes())
            return problem(*args, **kwargs)

        def counted_scan(*args, **kwargs):
            before = len(queried)
            out = scan(*args, **kwargs)
            scans.append(queried[before:])
            return out

        def recorded_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            solved.append(report.x_star.tobytes())
            return report

        monkeypatch.setattr(alignment, "build_index", counted_index)
        monkeypatch.setattr(alignment._PassMemo, "correspondences", recorded_correspondences)
        monkeypatch.setattr(alignment, "alignment_problem", counted_problem)
        monkeypatch.setattr(alignment, "_scan_scale", counted_scan)
        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        align_hand_frame(hand, sampled, obs, K)
        assert len(indexes) == 1 and len(anchors) > 1
        start = np.zeros(7).tobytes()  # the identity initialization
        # the scan picks a queried candidate, which anchors the first round
        assert anchors[0] != start and anchors[0] in scans[0]
        assert indexes[0].queries == len(queried) == len(set(queried))
        assert set(queried) == {start, *scans[0], *anchors, solved[-1]}

    def record_solves(self, monkeypatch, sampled, obs, cfg):
        """Record each solve's fresh score and the scan's pick and score,
        and count problems and solves."""
        record = {"scores": [], "problems": 0}
        problem, scan, solve = (alignment.alignment_problem, alignment._scan_scale,
                                alignment.minimize_box)

        def counted_problem(*args, **kwargs):
            record["problems"] += 1
            return problem(*args, **kwargs)

        def recorded_scan(*args, **kwargs):
            record["pick"], record["pick_score"] = out = scan(*args, **kwargs)
            return out

        def recorded_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            x = report.x_star
            record["scores"].append(problem(sampled, obs, K, cfg, at=x).objective(x))
            return report

        monkeypatch.setattr(alignment, "alignment_problem", counted_problem)
        monkeypatch.setattr(alignment, "_scan_scale", recorded_scan)
        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        return record

    def test_stops_at_the_first_solve_that_does_not_improve(self, monkeypatch):
        # a noisy observation whose second solve iterates but does not beat
        # the first solve's fresh score: no solve follows it
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        noise = np.random.default_rng(2).normal(size=sampled.points.shape) * 0.002
        obs = observe(sampled.points + noise)
        cfg = AlignConfig()
        record = self.record_solves(monkeypatch, sampled, obs, cfg)
        result = align_hand_frame(hand, sampled, obs, K, cfg=cfg)
        scores = record["scores"]
        assert 1 < len(scores) < cfg.outer_iters
        assert record["problems"] == len(scores)
        best = record["pick_score"]
        for score in scores[:-1]:
            assert score < best
            best = score
        assert not scores[-1] < best
        # the result is the last kept solution: its fresh score is the best
        x = params_encode(result.sigma, result.correction)
        assert alignment_problem(sampled, obs, K, cfg, at=x).objective(x) == \
            pytest.approx(best, rel=1e-9)

    def test_first_solve_that_does_not_improve_returns_the_scan_pick(self, monkeypatch):
        # the hand observed where it is, with the depth term weighted down to
        # nothing: the identity start is optimal within the solver's
        # tolerance, so the one solve returns its start and is dropped
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sampled.points.copy())
        cfg = AlignConfig(lambda_rend=1e-6)
        record = self.record_solves(monkeypatch, sampled, obs, cfg)
        result = align_hand_frame(hand, sampled, obs, K, cfg=cfg)
        assert len(record["scores"]) == record["problems"] == 1
        assert not record["scores"][0] < record["pick_score"]
        assert params_encode(result.sigma, result.correction).tobytes() == \
            record["pick"].tobytes()

    def test_outer_iters_caps_the_solves(self, monkeypatch):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.25 * sampled.points)
        cfg = AlignConfig(outer_iters=1)
        record = self.record_solves(monkeypatch, sampled, obs, cfg)
        align_hand_frame(hand, sampled, obs, K, cfg=cfg)
        # the first solve improves, so only the cap stops the loop
        assert len(record["scores"]) == record["problems"] == 1
        assert record["scores"][0] < record["pick_score"]

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
                                   hand_mask=np.zeros_like(obs.depth.valid))
        with pytest.raises(AlignmentError) as exc:
            align_hand_frame(hand, sampled, blocked, K)
        assert exc.value.diagnostics == {"sigma": 1.0, "overlap_pixels": 0}

    def test_start_overlap_failure_reports_the_splat_overlap(self):
        # a support of one pixel the hand's splat covers: the overlap check
        # passes, the objective is undefined (a point nearer than the
        # minimum depth), and the diagnostics count the rendered overlap
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(sampled.points.copy())
        near = PointCloud(points=np.vstack((sampled.points, [[0.0, 0.0, 0.5 * alignment._MIN_DEPTH]])))
        rendered = splat_depth(near.points, K, 3)
        pixel = np.argwhere(rendered.valid & obs.depth.valid)[0]
        mask = np.zeros_like(obs.depth.valid)
        mask[tuple(pixel)] = True
        one = FrameObservation(cloud=obs.cloud, depth=obs.depth, hand_mask=mask)
        with pytest.raises(AlignmentError) as exc:
            align_hand_frame(hand, near, one, K)
        assert exc.value.diagnostics == {"sigma": 1.0, "overlap_pixels": 1}

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
            errs.append(check_gradient(problem, x, fd_eps=AUDIT_STEP))
        assert max(errs) < 1e-5


def fresh_score(sampled, obs, cfg, at):
    """The fresh score align_hand_frame takes at the parameters ``at``, in
    a memo of its own: correspondences queried at ``at``."""
    memo = alignment._PassMemo(sampled, obs, K)
    return alignment._evaluate(memo, cfg, memo.correspondences, at)


def moved_by(points, x):
    """The hand moved by x, sigma (R p + t), formed through a
    RigidTransform: the oracle of the memo's moved points."""
    sigma, correction = alignment.params_decode(x)
    return sigma * correction.apply(points)


def exhaustive_scan(sampled, obs, cfg, x):
    """The scale scan with every candidate scored by a full fresh
    evaluation, as it was before candidates were bounded; kept as the
    oracle the bounded scan must equal bit for bit."""
    fresh = partial(fresh_score, sampled, obs, cfg)

    f_best = fresh(x)
    for g in alignment._SCALE_GRID:
        cand = x.copy()
        cand[0] = np.log(g)
        fc = fresh(cand)
        if fc < f_best:
            f_best, x = fc, cand
    return x, f_best


class CountingIndex:
    """A k-d tree that counts its queries."""

    def __init__(self, index):
        self.index = index
        self.queries = 0

    def query(self, points):
        self.queries += 1
        return self.index.query(points)


class TestScaleScan:
    """The bounded scan skips the k-d query of a candidate that cannot win."""

    def c08_observation(self, sigma_star, noise):
        # criterion c08's hand and observation model
        joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
        hand = HandFrame(joints=joints,
                         wrist_pose=RigidTransform(Rotation.identity(), joints[0]))
        sampled = PointCloud(points=sample_hand_surface(joints, 500, seed=8,
                                                        visible_from=(0, 0, 0)))
        rng = np.random.default_rng(808)
        pts = sigma_star * sampled.points + rng.normal(size=sampled.points.shape) * noise
        depth = splat_depth(pts, K, 3)
        obs = FrameObservation(cloud=estimate_normals(PointCloud(points=pts), k=12),
                               depth=depth, hand_mask=depth.valid)
        return hand, sampled, obs

    def bounded_and_exhaustive(self, sampled, obs, x):
        cfg = AlignConfig()
        oracle = exhaustive_scan(sampled, obs, cfg, x)
        memo = alignment._PassMemo(sampled, obs, K)
        index = memo.index = CountingIndex(memo.index)
        f_start = alignment._evaluate(memo, cfg, memo.correspondences, x)
        index.queries = 0
        x_pick, f_pick = alignment._scan_scale(memo, cfg, x, f_start)
        return (x_pick, f_pick), oracle, index.queries

    @pytest.mark.parametrize("noise", [0.0, 0.001], ids=["clean", "noisy"])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_picks_what_the_exhaustive_scan_picks(self, start, noise):
        queried = []
        for sigma_star in (0.7, 0.85, 1.2, 1.4):
            hand, sampled, obs = self.c08_observation(sigma_star, noise)
            x = params_encode(1.0, RigidTransform.identity())
            if start == "warm":
                fit = align_hand_frame(hand, sampled, obs, K)
                x = params_encode(fit.sigma, fit.correction)
            (x_pick, f_pick), (x_oracle, f_oracle), queries = \
                self.bounded_and_exhaustive(sampled, obs, x)
            assert np.array_equal(x_pick, x_oracle)
            assert f_pick == f_oracle
            queried.append(queries)
        if start == "cold":
            # a cold start is in the wrong basin: the scan queries and wins
            # there, and still prunes the candidates past the best scale
            assert all(0 < q < len(alignment._SCALE_GRID) for q in queried)

    def stacked_scan_cases(self, sigma_star, noise, x, near_depth):
        """The stacked scan's and the exhaustive scan's picks and scores
        from x, and what the scan met: whether its pick left x, and how
        many candidates the bound skipped and how many scored +inf. With
        ``near_depth`` the hand gains a point on the optical axis at that
        depth, so the candidates of scale below _MIN_DEPTH / near_depth
        (about) bring it nearer than the minimum depth."""
        _, sampled, obs = self.c08_observation(sigma_star, noise)
        if near_depth is not None:
            sampled = PointCloud(points=np.vstack((sampled.points, [[0.0, 0.0, near_depth]])))
        picked, oracle, queries = self.bounded_and_exhaustive(sampled, obs, x)
        near = 0
        for g in alignment._SCALE_GRID:
            cand = x.copy()
            cand[0] = np.log(g)
            near += bool(moved_by(sampled.points, cand)[:, 2].min() < alignment._MIN_DEPTH)
        skipped = len(alignment._SCALE_GRID) - near - queries
        return picked, oracle, picked[0].tobytes() != x.tobytes(), skipped, near

    @given(sigma_star=st.floats(0.6, 1.6), noise=st.sampled_from([0.0, 0.001]),
           log_scale=st.floats(-0.4, 0.4),
           twist=st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
           near_depth=st.none() | st.floats(0.004, 0.03))
    @settings(max_examples=25, deadline=None)
    def test_stacked_scan_equals_exhaustive_scan(self, sigma_star, noise, log_scale, twist,
                                                 near_depth):
        # the stacked pass picks and scores the bits of a full fresh score
        # per candidate, through picks that leave the start, bound skips
        # and candidates that bring a point nearer than the minimum depth
        x = np.array([log_scale, *twist])
        (x_pick, f_pick), (x_oracle, f_oracle), *_ = self.stacked_scan_cases(
            sigma_star, noise, x, near_depth)
        assert x_pick.tobytes() == x_oracle.tobytes()
        assert np.float64(f_pick).tobytes() == np.float64(f_oracle).tobytes()

    def test_stacked_scan_oracle_reaches_every_case(self):
        # one case of the oracle above that meets all three at once: a pick
        # other than the start, a skipped candidate and a +inf candidate
        (x_pick, f_pick), (x_oracle, f_oracle), moved, skipped, near = \
            self.stacked_scan_cases(1.4, 0.001, np.zeros(7), 0.01)
        assert moved and skipped > 0 and near > 0
        assert x_pick.tobytes() == x_oracle.tobytes() and f_pick == f_oracle

    def test_warm_start_already_best_makes_no_query(self):
        hand = hand_at()
        sampled = sampled_hand_for(hand)
        obs = observe(1.1 * sampled.points)
        fit = align_hand_frame(hand, sampled, obs, K)
        x = params_encode(fit.sigma, fit.correction)
        (x_pick, f_pick), (x_oracle, f_oracle), queries = \
            self.bounded_and_exhaustive(sampled, obs, x)
        assert queries == 0
        assert np.array_equal(x_pick, x) and np.array_equal(x_oracle, x)
        assert f_pick == f_oracle

    def test_bound_is_the_depth_and_regularizer_sum(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()
        for _ in range(5):
            x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])
            d = smooth_depth_residuals(moved_by(sampled.points, x), obs, K).residuals
            lower = (cfg.lambda_rend * float(np.mean(pseudo_huber(d, cfg.huber_delta)))
                     + cfg.lambda_reg * float(x[1:] @ x[1:]))
            memo = alignment._PassMemo(sampled, obs, K)
            index = CountingIndex(memo.index)

            def corr(at, moved):
                # correspondences queried afresh at each call, which the index counts
                _, idx = index.query(moved)
                return obs.cloud.points[idx], obs.cloud.normals[idx]

            full = alignment._evaluate(memo, cfg, corr, x)
            assert index.queries == 1 and lower <= full
            # a bound the depth and regularizer sum reaches returns that sum
            # unqueried; one just above it queries and gives the full value
            assert alignment._evaluate(memo, cfg, corr, x, bound=lower) == lower
            assert index.queries == 1
            above = np.nextafter(lower, np.inf)
            assert alignment._evaluate(memo, cfg, corr, x, bound=above) == full
            assert index.queries == 2


class TestAlignmentObjective:
    def random_params(self, rng):
        return np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])

    def test_frozen_equals_fresh_at_anchor(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()

        def frozen_and_fresh(x):
            return (alignment_problem(sampled, obs, K, cfg, at=x).objective(x),
                    fresh_score(sampled, obs, cfg, x))

        for _ in range(5):
            frozen, fresh = frozen_and_fresh(self.random_params(rng))
            assert np.isfinite(fresh) and frozen == fresh
        near = self.random_params(rng)
        near[6] = -0.5  # the hand, about 0.45 m deep, moves behind the camera plane
        assert frozen_and_fresh(near) == (np.inf, np.inf)

    def test_prebuilt_index_gives_same_values(self, rng):
        # correspondences queried from the index of a memo the caller built
        # beforehand change no bit
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        cfg = AlignConfig()
        for _ in range(3):
            x = self.random_params(rng)
            memo = alignment._PassMemo(sampled, obs, K)
            own = alignment_problem(sampled, obs, K, cfg, at=x)
            given = alignment_problem(sampled, obs, K, cfg, at=x, memo=memo)
            probe = x + rng.uniform(-0.02, 0.02, size=7)
            assert own.objective(probe) == given.objective(probe)
            assert np.array_equal(own.gradient(x), given.gradient(x))


class TestAlignmentGradient:
    """The closed-form gradient of the frozen-correspondence objective."""

    @staticmethod
    def richardson_error(problem, x, eps):
        """check_gradient's error measure against a fourth-order reference:
        central differences at steps 2 eps and eps, Richardson-extrapolated,
        which cancels their O(eps^2) truncation term. At eps = 1.5e-7 that
        term alone reached 2.2e-5 of a component on a pixel-curved depth
        term, and fell as eps^2 with the step."""
        objective = lambda xs: np.array([problem.objective(r) for r in xs])
        fd = (4.0 * fd_gradient(objective, x, eps) - fd_gradient(objective, x, 2.0 * eps)) / 3.0
        denom = np.maximum(np.abs(fd), np.maximum(1e-3 * np.max(np.abs(fd)), 1e-12))
        return float(np.max(np.abs(problem.gradient(x) - fd) / denom))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(["low", "inside", "high"]),
           cut=st.booleans())
    # a central-difference reference's truncation error exceeded the bound here
    @example(seed=1146905, scale="high", cut=False)
    @settings(max_examples=25, deadline=None)
    def test_matches_finite_differences(self, seed, scale, cut):
        rng = np.random.default_rng(seed)
        hand = hand_at(offset=(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                               rng.uniform(0.35, 0.6)), curl=rng.uniform(0.1, 0.8))
        sampled = sampled_hand_for(hand, seed=int(rng.integers(1000)))
        observed = rng.uniform(0.85, 1.2) * sampled.points + rng.normal(size=3) * 0.005
        depth = splat_depth(observed, K, 3)
        mask = depth.valid.copy()
        if cut:
            # a support edge through the middle of the hand: many points
            # have taps on both sides of it and in the window's pad
            mask[:, : int(np.median(np.nonzero(depth.valid)[1]))] = False
        obs = FrameObservation(cloud=estimate_normals(PointCloud(points=observed), k=12),
                               depth=depth, hand_mask=mask)
        x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.2, 0.2, size=6)])
        if scale != "inside":
            x[0] = alignment.LOG_SCALE_BOUNDS[0 if scale == "low" else 1]
        cfg = AlignConfig()
        problem = alignment_problem(sampled, obs, K, cfg, at=x + rng.uniform(-0.01, 0.01, 7))
        assert self.richardson_error(problem, x, AUDIT_STEP) < 1e-5

    def make_problem(self, rng):
        sampled = sampled_hand_for(hand_at())
        obs = observe(1.1 * sampled.points)
        x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])
        return alignment_problem(sampled, obs, K, AlignConfig(), at=x), x

    def test_one_kernel_pass_and_no_finite_differences(self, rng, monkeypatch):
        problem, x = self.make_problem(rng)
        calls = []
        kernel = alignment.smooth_depth_residuals

        def counted(*args, **kwargs):
            calls.append(kernel(*args, **kwargs))
            return calls[-1]

        def forbidden(*args, **kwargs):
            raise AssertionError("the alignment gradient took finite differences")

        monkeypatch.setattr(alignment, "smooth_depth_residuals", counted)
        continued = record_continuations(monkeypatch)
        monkeypatch.setattr(solver, "fd_gradient", forbidden)
        # off the anchor, whose value pass the problem ran when it froze
        # the correspondences there
        grad = problem.gradient(x + 0.01)
        assert len(calls) == 1 and len(continued) == 1 and continued[0] is calls[0]
        assert grad.shape == (7,) and np.all(np.isfinite(grad))

    def test_near_point_gives_inf_objective_and_nan_gradient(self, rng):
        problem, x = self.make_problem(rng)
        near = x.copy()
        near[6] = -0.5  # the hand, about 0.45 m deep, moves behind the camera plane
        assert problem.objective(near) == np.inf
        grad = problem.gradient(near)
        assert grad.shape == (7,) and np.all(np.isnan(grad))
        # the solver refuses to start there
        with pytest.raises(SolverStartError):
            solver.minimize_box(problem, near)


def reference_moved(points, x):
    """R p and sigma (R p + t) at the parameter vector x, the rotation
    matrix built as it was before geometry's scalars moved to ``math``
    (np.linalg.norm, np.concatenate, numpy's sin and cos)."""
    v = x[1:4]
    angle = float(np.linalg.norm(v))
    if angle < 1e-12:
        q = np.concatenate(([1.0], 0.5 * v))
    else:
        half = 0.5 * angle
        q = np.concatenate(([np.cos(half)], np.sin(half) * v / angle))
    w, a, b, c = (q / float(np.linalg.norm(q))).tolist()
    matrix = np.array([
        [1 - 2 * (b * b + c * c), 2 * (a * b - w * c), 2 * (a * c + w * b)],
        [2 * (a * b + w * c), 1 - 2 * (a * a + c * c), 2 * (b * c - w * a)],
        [2 * (a * c - w * b), 2 * (b * c + w * a), 1 - 2 * (a * a + b * b)],
    ])
    rotated = points @ matrix.T
    return rotated, float(np.exp(x[0])) * (rotated + x[4:7])


def reference_correspondences(points, obs, x):
    """The nearest observed points and normals of the hand moved by x,
    gathered by fancy indexing."""
    _, idx = build_index(obs.cloud).query(reference_moved(points, x)[1])
    return obs.cloud.points[idx], obs.cloud.normals[idx]


def reference_so3_left_jacobian(w):
    """``so3_left_jacobian`` as written with np.linalg.norm and numpy's sin."""
    theta = float(np.linalg.norm(w))
    if theta < 1e-2:
        t2 = theta * theta
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = 2.0 * np.sin(0.5 * theta) ** 2 / theta ** 2
        b = (theta - np.sin(theta)) / theta ** 3
    k = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return np.eye(3) + a * k + b * (k @ k)


def reference_alignment_value(points, obs, mask, cfg, x, correspondences):
    """The alignment objective at x against the frozen (points, normals)
    ``correspondences``, as ``_value`` was written before its fixed numpy
    cost was cut, on the unskipped depth kernel: the oracle of its bits."""
    _, moved = reference_moved(points, x)
    d = unskipped_depth_kernel(moved, obs, mask, K)
    if not np.isfinite(d).all():
        return np.inf
    depth = cfg.lambda_rend * float(np.mean(pseudo_huber(d, cfg.huber_delta)))
    reg = cfg.lambda_reg * float(x[1:] @ x[1:])
    corr_pts, corr_nrm = correspondences
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    return (float(np.mean(pseudo_huber(r, cfg.huber_delta))) + depth) + reg


def reference_alignment_gradient(points, obs, mask, cfg, x, correspondences):
    """The objective's gradient, as ``_evaluate``'s chain rule was written
    with np.concatenate, np.stack-built kernel sums, np.cross and the left
    Jacobian in numpy's scalar functions: the oracle of its bits."""
    rotated, moved = reference_moved(points, x)
    d, jac = unskipped_depth_kernel(moved, obs, mask, K, jacobian=True)
    if not np.all(np.isfinite(d)):
        return np.full(len(x), np.nan)
    delta, sigma = cfg.huber_delta, float(np.exp(x[0]))
    corr_pts, corr_nrm = correspondences
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    g_moved = (pseudo_huber_derivative(r, delta)[:, None] * corr_nrm
               + cfg.lambda_rend * pseudo_huber_derivative(d, delta)[:, None]
               * jac) / len(moved)
    grad = np.concatenate((
        [np.sum(g_moved * moved)],
        sigma * (reference_so3_left_jacobian(x[1:4]).T
                 @ np.sum(np.cross(rotated, g_moved), axis=0)),
        sigma * np.sum(g_moved, axis=0),
    ))
    grad[1:] += 2.0 * cfg.lambda_reg * x[1:]
    return grad


class TestAlignmentBitOracle:
    """The objective and gradient give the bits of the code they replaced,
    value pass first or gradient first, on a near point too, and on passes
    that run no point or one point (the (16, 1) tap sums)."""

    @staticmethod
    def assert_reference_bits(sampled, obs, mask, x, at):
        cfg = AlignConfig()
        frozen = reference_correspondences(sampled.points, obs, at)
        want = (reference_alignment_value(sampled.points, obs, mask, cfg, x, frozen),
                reference_alignment_gradient(sampled.points, obs, mask, cfg, x, frozen))
        for gradient_first in (False, True):
            memo = alignment._PassMemo(sampled, obs, K)
            queried = memo.correspondences(at, memo.at(at).moved)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(queried, frozen))
            evaluate = partial(alignment._evaluate, memo, cfg, lambda *_: frozen, x)
            if gradient_first:
                grad = evaluate(gradient=True)
                value = evaluate()
            else:
                value = evaluate()
                grad = evaluate(gradient=True)
            assert np.float64(value).tobytes() == np.float64(want[0]).tobytes()
            assert grad.tobytes() == want[1].tobytes()
        return want

    @pytest.mark.parametrize("seed", [7, 20261017])
    def test_synth_frames_at_random_parameters(self, seed):
        fixture = synth_hand_trajectory(SynthConfig(n_frames=3, noise_sigma=0.001, seed=seed,
                                                    depth_scale=0.8))
        rng = np.random.default_rng(seed)
        for f, frame in enumerate(fixture.trajectory.frames):
            mask = fixture.masks[f]
            obs = FrameObservation(cloud=estimate_normals(fixture.clouds[f], k=16),
                                   depth=fixture.depths[f], hand_mask=mask)
            sampled = sampled_hand_for(frame, seed=seed + f)
            for _ in range(4):
                x = np.concatenate([[rng.uniform(-0.5, 0.1)], rng.uniform(-0.05, 0.05, 3),
                                    rng.uniform(-0.02, 0.02, 3)])
                value, grad = self.assert_reference_bits(
                    sampled, obs, mask, x, x + rng.uniform(-0.01, 0.01, 7))
                assert np.isfinite(value) and np.isfinite(grad).all()
            near = x.copy()
            near[6] = -0.5  # the hand, about 0.4 m deep, moves behind the camera plane
            value, grad = self.assert_reference_bits(sampled, obs, mask, near, x)
            assert value == np.inf and np.isnan(grad).all()

    @pytest.mark.parametrize("pixels, runs", [
        ([(320.4, 240.3, 0.41), (100.0, 100.0, 0.4), (500.2, 400.7, 0.42)], 1),
        ([(100.0, 100.0, 0.4), (500.2, 400.7, 0.42)], 0),
    ], ids=["one-point-runs", "no-point-runs"])
    def test_passes_that_run_one_point_or_none(self, rng, pixels, runs):
        depth = DepthImage(values=rng.uniform(0.35, 0.45, (K.height, K.width)))
        # a support that every tap of a point near (320, 240) reads, so that
        # its 16 tap terms differ and their order of addition shows
        mask = np.zeros((K.height, K.width), dtype=bool)
        mask[236:245, 316:325] = True
        obs = observation_of(depth, mask)
        sampled = PointCloud(points=points_at_pixels(pixels))
        for _ in range(3):
            x = np.concatenate([rng.uniform(-0.01, 0.01, 1), rng.uniform(-1e-4, 1e-4, 6)])
            memo = alignment._PassMemo(sampled, obs, K)
            assert memo.at(x).depth.run.size == runs
            self.assert_reference_bits(sampled, obs, mask, x, x)


class TestPassMemo:
    """A frame's pass memo changes no bit: a value or gradient read from a
    warm memo equals that of a cold problem."""

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(["low", "inside", "high"]),
           cut=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_warm_memo_matches_cold_problem(self, seed, scale, cut):
        rng = np.random.default_rng(seed)
        hand = hand_at(offset=(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                               rng.uniform(0.35, 0.6)), curl=rng.uniform(0.1, 0.8))
        sampled = sampled_hand_for(hand, seed=int(rng.integers(1000)))
        observed = rng.uniform(0.85, 1.2) * sampled.points + rng.normal(size=3) * 0.005
        depth = splat_depth(observed, K, 3)
        mask = depth.valid.copy()
        if cut:
            mask[:, : int(np.median(np.nonzero(depth.valid)[1]))] = False
        obs = FrameObservation(cloud=estimate_normals(PointCloud(points=observed), k=12),
                               depth=depth, hand_mask=mask)
        x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.2, 0.2, size=6)])
        if scale != "inside":
            x[0] = alignment.LOG_SCALE_BOUNDS[0 if scale == "low" else 1]
        near = x.copy()
        near[6] = -1.0  # the hand, at most 0.7 m deep, moves behind the camera plane
        aside = x.copy()
        aside[4] = 0.5  # the hand moves sideways out of the window: no point runs the taps
        y = np.clip(x + rng.uniform(-0.01, 0.01, 7), alignment._PARAM_LO, alignment._PARAM_HI)
        anchor = x + rng.uniform(-0.01, 0.01, 7)
        cfg = AlignConfig()
        memo = alignment._PassMemo(sampled, obs, K)
        warm = alignment_problem(sampled, obs, K, cfg, at=anchor, memo=memo)
        # hits on either entry, misses that evict, a value pass continued to
        # its Jacobian and a pass first run with it
        schedule = [(x, False), (x, True), (y, False), (x, True), (y, True), (near, False),
                    (near, True), (aside, True), (aside, False), (x, False), (x, True)]
        for point, gradient in schedule:
            cold = alignment_problem(sampled, obs, K, cfg, at=anchor)
            if gradient:
                got, want = warm.gradient(point), cold.gradient(point)
                assert got.tobytes() == want.tobytes()
                held = [a for _, state in memo.entries
                        for a in (*vars(state).values(), *vars(state.depth).values(),
                                  *(state.depth._kept or ()))
                        if isinstance(a, np.ndarray)]
                assert not any(np.shares_memory(got, a) for a in held)
                got[:] = 0.0  # what a caller does with its gradient reaches no entry
            else:
                assert warm.objective(point) == cold.objective(point)
            assert len(memo.entries) <= 2
            assert memo.entries[0][0] == point.tobytes()
        assert warm.objective(near) == np.inf and np.all(np.isnan(warm.gradient(near)))
        assert memo.at(aside).depth.run.size == 0
        assert warm.objective(aside) < np.inf

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 501])
    def test_cross_rows_sum_is_np_cross_sum(self, rng, n):
        a, b = rng.normal(size=(2, n, 3))
        # signed zeros and non-finite entries, in both operands
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        for arr in (a, b):
            hit = rng.random(arr.shape) < 0.2
            arr[hit] = rng.choice(specials, size=int(hit.sum()))
        a[0] = [-0.0, 0.0, -0.0]
        b[0] = [0.0, -0.0, 1.0]
        with np.errstate(invalid="ignore"):
            got, want = alignment._cross_rows(a, b), np.cross(a, b)
            sums = np.sum(got, axis=0), np.sum(want, axis=0)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        assert sums[0].tobytes() == sums[1].tobytes()


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

    @pytest.mark.parametrize("inner_iters", [25, 3])
    def test_every_solve_stops_at_the_inner_tolerance(self, monkeypatch, inner_iters):
        # each outer round's solve gets the module's gradient tolerance and
        # the config's iteration cap, and ends on one of the two
        traj, obs = self.make_sequence(
            [(0.0, 0.0, 0.45), (0.002, 0.0, 0.45), (0.004, -0.001, 0.45)], seed=3)
        solve, solves = alignment.minimize_box, []

        def recorded_solve(problem, x0, opts, pairs):
            solves.append((opts, solve(problem, x0, opts, pairs)))
            return solves[-1][1]

        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        align_trajectory(traj, obs, K, cfg=AlignConfig(inner_iters=inner_iters), seed=3)
        assert alignment._INNER_GRAD_TOL == 1e-7
        assert len(solves) >= 3
        for opts, report in solves:
            assert opts.grad_tol == alignment._INNER_GRAD_TOL
            assert opts.max_iters == inner_iters
            assert report.termination in ("gradient-tol", "max-iters")
        terminations = {report.termination for _, report in solves}
        assert terminations == ({"gradient-tol"} if inner_iters == 25 else
                                {"gradient-tol", "max-iters"})

    def test_debug_line_sums_the_frames_solve_reports(self, monkeypatch, caplog):
        traj, obs = self.make_sequence(
            [(0.0, 0.0, 0.45), (0.002, 0.0, 0.45), (0.004, -0.001, 0.45)], seed=3)
        solve, reports = alignment.minimize_box, []

        def recorded_solve(*args):
            reports.append(solve(*args))
            return reports[-1]

        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        with caplog.at_level(logging.DEBUG, logger="dexretarget.alignment"):
            align_trajectory(traj, obs, K, seed=3)
        lines = [re.fullmatch(r"frame (\d+): (\d+) iterations, (\d+) objective and (\d+) "
                              r"gradient evaluations in (\d+) outer solves, stopped on \S+", m)
                 for m in caplog.messages if "outer solves" in m]
        assert len(lines) == 3 and all(lines)
        logged = [tuple(int(v) for v in m.groups()) for m in lines]
        start = 0
        for k, (frame, iterations, objective, gradient, solves) in enumerate(logged):
            frame_reports = reports[start:start + solves]
            start += solves
            assert frame == k
            assert iterations == sum(r.iterations for r in frame_reports) > 0
            assert objective == sum(r.objective_evals for r in frame_reports)
            assert gradient == sum(r.gradient_evals for r in frame_reports)
        assert start == len(reports)

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

    def test_scale_jump_is_scanned_and_recovered(self, caplog):
        # the observed hand's scale jumps between frames 1 and 2: the warm
        # start of frame 2 is in the wrong basin, so its scan must query
        sigmas = [1.0, 1.0, 1.3, 1.3]
        frames = []
        observations = []
        for k, sigma_star in enumerate(sigmas):
            joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
            frames.append(HandFrame(
                joints=joints,
                wrist_pose=RigidTransform(Rotation.identity(), joints[0]),
                frame_index=k,
            ))
            pts = sample_hand_surface(joints, 500, seed=3 + k, visible_from=(0, 0, 0))
            observations.append(observe(sigma_star * pts))
        with caplog.at_level(logging.DEBUG, logger="dexretarget.alignment"):
            results = align_trajectory(HandTrajectory(frames=frames), observations, K, seed=3)
        # each frame's scan line: its pick and its k-d queries (memo misses)
        picks = [(float(m.group(1)), int(m.group(2))) for m in (
            re.search(r"scale scan picked sigma=(\S+); (\d+) of", line)
            for line in caplog.messages) if m]
        # only the frame after the jump needs a query
        assert [queries > 0 for _, queries in picks] == [False, False, True, False]
        assert abs(picks[2][0] - 1.3) < abs(results[1].sigma - 1.3)
        for r, sigma_star in zip(results, sigmas):
            assert abs(r.sigma - sigma_star) / sigma_star < 0.02

    def test_each_solve_starts_from_the_previous_solves_pairs(self, monkeypatch):
        # within a frame each outer round hands its pairs to the next, and a
        # frame's first solve starts from the previous frame's last pairs,
        # which its result carries
        offsets = [(0.0, 0.0, 0.45), (0.002, 0.0, 0.45), (0.004, -0.001, 0.45)]
        traj, obs = self.make_sequence(offsets, seed=3)
        solve, align = alignment.minimize_box, alignment.align_hand_frame
        solves, frames = [], []

        def recorded_solve(problem, x0, opts, pairs):
            report = solve(problem, x0, opts, pairs)
            solves.append((len(frames), pairs, report))
            return report

        def recorded_align(*args, **kwargs):
            frames.append(kwargs["init"])
            return align(*args, **kwargs)

        monkeypatch.setattr(alignment, "minimize_box", recorded_solve)
        monkeypatch.setattr(alignment, "align_hand_frame", recorded_align)
        results = align_trajectory(traj, obs, K, seed=3)
        assert frames[0] is None
        assert all(init is prev for init, prev in zip(frames[1:], results))
        assert solves[0][1] == () and solves[0][2].warm_pairs == 0
        for (k, _, before), (frame, pairs, report) in zip(solves, solves[1:]):
            assert pairs is before.pairs and report.warm_pairs == len(pairs) > 0
            if frame != k:
                assert pairs is results[k - 1].pairs
        assert results[-1].pairs is solves[-1][2].pairs

    def test_empty_frame_failure_names_frame(self):
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 4, seed=5)
        empty_mask = FrameObservation(cloud=obs[3].cloud, depth=obs[3].depth,
                                      hand_mask=np.zeros_like(obs[3].depth.valid))
        obs[3] = empty_mask
        with pytest.raises(AlignmentError) as err:
            align_trajectory(traj, obs, K, seed=5)
        assert err.value.frame_index == 3
        assert "frame 3" in str(err.value)

    @pytest.mark.parametrize("n_points", [0, 2])
    def test_cloud_below_three_points_is_input_error_naming_frame(self, n_points):
        # three points are the fewest that PCA normals can be taken over
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 2, seed=7)
        cloud = obs[1].cloud
        small = PointCloud(points=cloud.points[:n_points], normals=cloud.normals[:n_points])
        obs[1] = FrameObservation(cloud=small, depth=obs[1].depth,
                                  hand_mask=obs[1].depth.valid)
        with pytest.raises(InvalidArgumentError,
                           match=f"^frame 1: the observed cloud has {n_points} points"):
            align_trajectory(traj, obs, K, seed=7)

    def test_count_mismatch(self):
        traj, obs = self.make_sequence([(0.0, 0.0, 0.45)] * 3, seed=7)
        with pytest.raises(InvalidArgumentError):
            align_trajectory(traj, obs[:2], K)
