import numpy as np
import pytest

from dexretarget.errors import InvalidArgumentError
from dexretarget.geometry import splat_depth
from dexretarget.synthetic import (
    OBJECT_CENTER,
    SynthConfig,
    canonical_hand_joints,
    hand_bones,
    sample_hand_surface,
    synth_hand_trajectory,
)


class TestCanonicalHand:
    def test_wrist_at_origin(self):
        joints = canonical_hand_joints(0.0)
        np.testing.assert_array_equal(joints[0], np.zeros(3))

    def test_flat_hand_is_planar(self):
        joints = canonical_hand_joints(0.0)
        # only the thumb leaves the palm plane at zero curl
        fingers = np.concatenate([joints[5:21, 2]])
        np.testing.assert_allclose(fingers, 0.0, atol=1e-12)

    def test_curl_moves_tips_down(self):
        flat = canonical_hand_joints(0.0)
        curled = canonical_hand_joints(0.8)
        for tip in (8, 12, 16, 20):
            assert curled[tip, 2] < flat[tip, 2] - 0.01

    def test_bone_lengths_invariant_to_curl(self):
        flat = canonical_hand_joints(0.0)
        curled = canonical_hand_joints(1.0)
        for i, j, _ in hand_bones():
            if i == 0:
                continue  # palm bones are rigid anyway
            a = np.linalg.norm(flat[j] - flat[i])
            b = np.linalg.norm(curled[j] - curled[i])
            assert a == pytest.approx(b, abs=1e-12)

    def test_curl_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            canonical_hand_joints(1.5)


def reference_sample_hand_surface(joints, n_points, seed, visible_from):
    """The sampler as it was written bone by bone, every bone's arithmetic
    in its own numpy calls: the oracle whose bytes the sampler must give."""
    joints = np.asarray(joints, dtype=float)
    rng = np.random.default_rng(seed)
    vp = None if visible_from is None else np.asarray(visible_from, dtype=float)
    bones = hand_bones()
    lengths = np.array([np.linalg.norm(joints[j] - joints[i]) for i, j, _ in bones])
    weights = lengths / lengths.sum()
    counts = np.floor(weights * n_points).astype(int)
    remainder = n_points - int(counts.sum())
    order = np.argsort(-lengths, kind="stable")
    for k in range(remainder):
        counts[order[k % len(bones)]] += 1
    pts = []
    for (i, j, radius), count in zip(bones, counts):
        if count == 0:
            continue
        t = rng.random(count)[:, None]
        bone = joints[j] - joints[i]
        axis_pts = joints[i] + t * bone
        u = bone / np.linalg.norm(bone)
        offsets = rng.normal(size=(count, 3))
        offsets -= np.outer(offsets @ u, u)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        if vp is not None:
            toward = vp - axis_pts
            facing = np.einsum("ij,ij->i", offsets, toward)
            offsets[facing < 0.0] *= -1.0
        pts.append(axis_pts + radius * offsets)
    return np.vstack(pts)


class TestSampleHandSurface:
    @pytest.mark.parametrize("visible_from", [None, (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 20261017])
    def test_bytes_of_the_bone_by_bone_sampler(self, seed, visible_from):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            joints = (canonical_hand_joints(rng.uniform(0.0, 1.0))
                      + [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.3, 0.6)])
            # 1 and 7 points leave most bones without a point
            for n_points in (1, 7, 257, 500):
                draw = int(rng.integers(2**31))
                got = sample_hand_surface(joints, n_points, seed=draw, visible_from=visible_from)
                want = reference_sample_hand_surface(joints, n_points, draw, visible_from)
                assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        joints = canonical_hand_joints(0.3)
        a = sample_hand_surface(joints, 400, seed=9)
        b = sample_hand_surface(joints, 400, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_point_count(self):
        joints = canonical_hand_joints(0.3)
        assert sample_hand_surface(joints, 257, seed=1).shape == (257, 3)

    def test_points_near_skeleton(self):
        joints = canonical_hand_joints(0.0)
        pts = sample_hand_surface(joints, 500, seed=2)
        # every sample lies within the largest bone radius of some bone segment
        dmin = np.full(len(pts), np.inf)
        for i, j, radius in hand_bones():
            a, b = joints[i], joints[j]
            ab = b - a
            t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
            closest = a + t[:, None] * ab
            d = np.linalg.norm(pts - closest, axis=1)
            dmin = np.minimum(dmin, np.abs(d - radius))
        assert dmin.max() < 1e-9


class TestSynthHandTrajectory:
    def test_single_frame_static(self):
        fix = synth_hand_trajectory(SynthConfig(n_frames=1, noise_sigma=0.0, seed=4))
        assert len(fix.trajectory) == 1
        # fixture depth equals a fresh splat of the fixture cloud
        again = splat_depth(fix.clouds[0].points, fix.intrinsics, 3)
        np.testing.assert_array_equal(again.values, fix.depths[0].values)
        np.testing.assert_array_equal(again.valid, fix.depths[0].valid)

    def test_bit_identical_reruns(self):
        a = synth_hand_trajectory(SynthConfig(n_frames=3, noise_sigma=0.001, seed=7))
        b = synth_hand_trajectory(SynthConfig(n_frames=3, noise_sigma=0.001, seed=7))
        for fa, fb in zip(a.trajectory.frames, b.trajectory.frames):
            np.testing.assert_array_equal(fa.joints, fb.joints)
        for ca, cb in zip(a.clouds, b.clouds):
            np.testing.assert_array_equal(ca.points, cb.points)
        for da, db in zip(a.depths, b.depths):
            np.testing.assert_array_equal(da.values, db.values)

    def test_noise_statistics(self):
        clean = synth_hand_trajectory(SynthConfig(n_frames=2, noise_sigma=0.0, seed=11))
        noisy = synth_hand_trajectory(SynthConfig(n_frames=2, noise_sigma=0.002, seed=11))
        dev = noisy.clouds[0].points - clean.clouds[0].points
        rms = float(np.sqrt(np.mean(dev ** 2)))
        assert abs(rms - 0.002) < 0.002 * 0.2

    def test_hand_approaches_object(self):
        fix = synth_hand_trajectory(SynthConfig(n_frames=5, seed=0))
        d0 = np.linalg.norm(fix.trajectory.frames[0].wrist_pose.translation - OBJECT_CENTER)
        d4 = np.linalg.norm(fix.trajectory.frames[-1].wrist_pose.translation - OBJECT_CENTER)
        assert d4 < d0

    def test_contacts_on_final_frame_only(self):
        fix = synth_hand_trajectory(SynthConfig(n_frames=4, seed=0))
        assert fix.trajectory.frames[-1].contacts is not None
        for frame in fix.trajectory.frames[:-1]:
            assert frame.contacts is None
        for digit, p in fix.trajectory.frames[-1].contacts.items():
            np.testing.assert_array_equal(
                p, fix.trajectory.frames[-1].joints[
                    {"thumb": 4, "index": 8, "middle": 12, "ring": 16, "pinky": 20}[digit]]
            )

    def test_depth_scale_applies_to_observations_only(self):
        plain = synth_hand_trajectory(SynthConfig(n_frames=2, seed=3))
        scaled = synth_hand_trajectory(SynthConfig(n_frames=2, seed=3, depth_scale=0.5))
        np.testing.assert_array_equal(
            plain.trajectory.frames[0].joints, scaled.trajectory.frames[0].joints
        )
        np.testing.assert_allclose(
            scaled.clouds[0].points, 0.5 * plain.clouds[0].points, atol=1e-15
        )
        np.testing.assert_allclose(
            scaled.object_pred.points, 0.5 * scaled.object_true.points, atol=1e-15
        )

    def test_masks_match_depth_validity(self):
        fix = synth_hand_trajectory(SynthConfig(n_frames=2, seed=5))
        for mask, depth in zip(fix.masks, fix.depths):
            np.testing.assert_array_equal(mask, depth.valid)

    def test_invalid_frames(self):
        with pytest.raises(InvalidArgumentError):
            SynthConfig(n_frames=0)
