"""Deterministic synthetic hand-object fixtures.

Generates kinematically consistent 21-keypoint hand trajectories
approaching a synthetic object, with matching surface point clouds,
splatted depth maps, and hand masks. Every draw comes from one seeded
generator in a fixed order, so identical parameters reproduce identical
fixtures bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .geometry import CameraIntrinsics, RigidTransform, Rotation, splat_depth
from .hand_model import DIGITS, HandFrame, HandTrajectory, N_KEYPOINTS, digit_base_index, tip_index
from .pointcloud import PointCloud

# canonical skeleton: wrist at the origin, fingers along +x, palm normal +z,
# digits curl toward -z
_DIGIT_LAYOUT = {
    # digit: (base xyz, base direction, segment lengths, per-joint curl angles)
    "thumb": ((0.022, 0.042, 0.0), (0.38, 0.88, -0.25), (0.045, 0.035, 0.028), (0.30, 0.60, 0.50)),
    "index": ((0.080, 0.022, 0.0), (1.0, 0.0, 0.0), (0.040, 0.028, 0.022), (0.70, 0.90, 0.60)),
    "middle": ((0.080, 0.000, 0.0), (1.0, 0.0, 0.0), (0.045, 0.030, 0.024), (0.70, 0.90, 0.60)),
    "ring": ((0.080, -0.022, 0.0), (1.0, 0.0, 0.0), (0.040, 0.028, 0.022), (0.70, 0.90, 0.60)),
    "pinky": ((0.078, -0.042, 0.0), (1.0, 0.0, 0.0), (0.030, 0.022, 0.018), (0.70, 0.90, 0.60)),
}

_BONE_RADIUS_PALM = 0.014
_BONE_RADIUS_FINGER = 0.008

DEFAULT_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                                      width=640, height=480)

# the generated grasp approach: the wrist moves along the unit approach
# axis toward the object center while the digits close
APPROACH_AXIS = np.array([0.0, 0.0, 1.0])
OBJECT_CENTER = np.array([0.0, 0.0, 0.45])
CLOSING = (0.15, 0.75)          # start/end curl fraction
STANDOFF = (0.16, 0.05)         # start/end distance to the object
FPS = 30.0
SPLAT_FOOTPRINT = 3


def _rotate_about(axis: np.ndarray, angle: float, v: np.ndarray) -> np.ndarray:
    a = axis / np.linalg.norm(axis)
    return (np.cos(angle) * v
            + np.sin(angle) * np.cross(a, v)
            + (1.0 - np.cos(angle)) * a * float(a @ v))


def canonical_hand_joints(curl: float = 0.0) -> np.ndarray:
    """21 keypoints of the canonical hand at a given closing fraction.

    ``curl`` in [0, 1] flexes every digit from flat (0) toward a closed
    fist (1).
    """
    if not (0.0 <= curl <= 1.0):
        raise InvalidArgumentError(f"curl must lie in [0, 1], got {curl}")
    joints = np.zeros((N_KEYPOINTS, 3))
    down = np.array([0.0, 0.0, -1.0])
    for digit in DIGITS:
        base, d0, lengths, angles = _DIGIT_LAYOUT[digit]
        d0 = np.asarray(d0, dtype=float)
        d0 = d0 / np.linalg.norm(d0)
        axis = np.cross(d0, down)
        axis = axis / np.linalg.norm(axis)
        p = np.asarray(base, dtype=float)
        joints[digit_base_index(digit)] = p
        bend = 0.0
        for k, (length, ang) in enumerate(zip(lengths, angles)):
            bend += curl * ang
            direction = _rotate_about(axis, bend, d0)
            p = p + length * direction
            joints[digit_base_index(digit) + 1 + k] = p
    return joints


def hand_bones() -> list:
    """(start keypoint, end keypoint, radius) segments spanning the skeleton."""
    bones = []
    for digit in DIGITS:
        b = digit_base_index(digit)
        bones.append((0, b, _BONE_RADIUS_PALM))
        for k in range(3):
            bones.append((b + k, b + k + 1, _BONE_RADIUS_FINGER))
    return bones


def sample_hand_surface(joints: np.ndarray, n_points: int = 500,
                        seed: Optional[int] = None,
                        rng: Optional[np.random.Generator] = None,
                        visible_from=None) -> np.ndarray:
    """Sample points on tube surfaces along the skeleton bones.

    With ``visible_from`` set, samples only the tube half facing that
    viewpoint (what a depth camera there would observe). Deterministic
    for a fixed seed (or caller-supplied generator).
    """
    joints = np.asarray(joints, dtype=float)
    if joints.shape != (N_KEYPOINTS, 3):
        raise InvalidArgumentError("joints must have shape (21, 3)")
    if n_points < 1:
        raise InvalidArgumentError("n_points must be positive")
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    vp = None if visible_from is None else np.asarray(visible_from, dtype=float)
    bones = hand_bones()
    lengths = np.array([np.linalg.norm(joints[j] - joints[i]) for i, j, _ in bones])
    weights = lengths / lengths.sum()
    counts = np.floor(weights * n_points).astype(int)
    # distribute the remainder deterministically onto the longest bones
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
        offsets -= np.outer(offsets @ u, u)  # tube surface: offsets normal to the bone
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        if vp is not None:
            toward = vp - axis_pts
            facing = np.einsum("ij,ij->i", offsets, toward)
            offsets[facing < 0.0] *= -1.0
        pts.append(axis_pts + radius * offsets)
    return np.vstack(pts)


def sample_cylinder_surface(center, radius: float, height: float, n_points: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Lateral surface of an upright (y-axis) cylinder."""
    phi = rng.random(n_points) * 2.0 * np.pi
    y = (rng.random(n_points) - 0.5) * height
    pts = np.column_stack([radius * np.cos(phi), y, radius * np.sin(phi)])
    return pts + np.asarray(center, dtype=float)


@dataclass
class SynthConfig:
    n_frames: int = 10
    noise_sigma: float = 0.0               # per-coordinate std on observed points
    seed: int = 0
    n_surface_points: int = 600
    n_object_points: int = 700
    depth_scale: float = 1.0               # observation-space scaling (miscalibration)
    intrinsics: CameraIntrinsics = field(default_factory=lambda: DEFAULT_INTRINSICS)

    def __post_init__(self):
        if self.n_frames < 1:
            raise InvalidArgumentError("n_frames must be at least 1")
        if self.noise_sigma < 0:
            raise InvalidArgumentError("noise_sigma must be non-negative")
        if self.depth_scale <= 0:
            raise InvalidArgumentError("depth_scale must be positive")


@dataclass
class SynthFixture:
    """Everything a pipeline run ingests, in observation (predicted-depth) space."""

    trajectory: HandTrajectory
    clouds: list
    depths: list
    masks: list
    intrinsics: CameraIntrinsics
    object_true: PointCloud
    object_pred: PointCloud


def synth_hand_trajectory(cfg: SynthConfig) -> SynthFixture:
    """Generate a synthetic grasp approach fixture.

    The hand trajectory (estimator output) lives in true metric space;
    observed clouds and depth maps are scaled by ``depth_scale`` to mimic
    a miscalibrated depth predictor. Contacts for all digits are annotated
    on the final frame.
    """
    rng = np.random.default_rng(cfg.seed)

    frames = []
    clouds = []
    depths = []
    masks = []
    for t in range(cfg.n_frames):
        u = t / (cfg.n_frames - 1) if cfg.n_frames > 1 else 0.0
        curl = CLOSING[0] + u * (CLOSING[1] - CLOSING[0])
        standoff = STANDOFF[0] + u * (STANDOFF[1] - STANDOFF[0])
        wrist_t = OBJECT_CENTER - APPROACH_AXIS * standoff

        canon = canonical_hand_joints(curl)
        joints = canon + wrist_t
        contacts = None
        if t == cfg.n_frames - 1:
            contacts = {d: joints[tip_index(d)].copy() for d in DIGITS}
        frames.append(HandFrame(
            joints=joints,
            wrist_pose=RigidTransform(Rotation.identity(), wrist_t),
            confidence=1.0,
            frame_index=t,
            contacts=contacts,
        ))

        surface = sample_hand_surface(joints, cfg.n_surface_points, rng=rng,
                                      visible_from=(0.0, 0.0, 0.0))
        noise = rng.normal(size=surface.shape) * cfg.noise_sigma
        observed = (surface + noise) * cfg.depth_scale
        cloud = PointCloud(points=observed)
        depth = splat_depth(observed, cfg.intrinsics, SPLAT_FOOTPRINT)
        clouds.append(cloud)
        depths.append(depth)
        masks.append(depth.valid.copy())

    obj_true = sample_cylinder_surface(OBJECT_CENTER, 0.030, 0.12, cfg.n_object_points, rng)
    return SynthFixture(
        trajectory=HandTrajectory(frames=frames, fps=FPS),
        clouds=clouds,
        depths=depths,
        masks=masks,
        intrinsics=cfg.intrinsics,
        object_true=PointCloud(points=obj_true),
        object_pred=PointCloud(points=obj_true * cfg.depth_scale),
    )
