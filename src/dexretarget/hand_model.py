"""Human hand skeleton conventions, reference vectors, global hand scale,
grasp taxonomy, and retargeting vector specifications.

Keypoint convention: 21 joints ordered wrist first, then thumb through
pinky, each digit proximal to tip (wrist=0, thumb=1..4, index=5..8,
middle=9..12, ring=13..16, pinky=17..20).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .geometry import RigidTransform
from .robot_model import RobotModel, link_origins

N_KEYPOINTS = 21
WRIST = 0
DIGITS = ("thumb", "index", "middle", "ring", "pinky")
_DIGIT_BASE = {"thumb": 1, "index": 5, "middle": 9, "ring": 13, "pinky": 17}

GROUP_WRIST_TO_TIP = "wrist-to-tip"
GROUP_THUMB_PAIR = "thumb-pair"
GROUP_INTER_FINGER = "inter-finger"
GROUP_ENCLOSURE = "enclosure"
VECTOR_GROUPS = (GROUP_WRIST_TO_TIP, GROUP_THUMB_PAIR, GROUP_INTER_FINGER, GROUP_ENCLOSURE)


def digit_base_index(digit: str) -> int:
    if digit not in _DIGIT_BASE:
        raise InvalidArgumentError(f"unknown digit {digit!r}")
    return _DIGIT_BASE[digit]


def tip_index(digit: str) -> int:
    return digit_base_index(digit) + 3


def proximal_index(digit: str) -> int:
    return digit_base_index(digit) + 1


class TaxonomyClass(str, Enum):
    """Closed enumeration of the 12 supported grasp types."""

    LARGE_DIAMETER = "large-diameter"
    SMALL_DIAMETER = "small-diameter"
    MEDIUM_WRAP = "medium-wrap"
    ADDUCTED_THUMB = "adducted-thumb"
    LIGHT_TOOL = "light-tool"
    PRECISION_PINCH = "precision-pinch"
    TIP_PINCH = "tip-pinch"
    TRIPOD = "tripod"
    LATERAL = "lateral"
    LATERAL_TRIPOD = "lateral-tripod"
    POWER_SPHERE = "power-sphere"
    PRECISION_SPHERE = "precision-sphere"

    @classmethod
    def from_name(cls, name: str) -> "TaxonomyClass":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(sorted(c.value for c in cls))
            raise ConfigError(
                f"unknown taxonomy class {name!r}; valid classes: {valid}"
            ) from None


@dataclass
class HandFrame:
    """One observed hand state: 21 keypoints plus the wrist pose."""

    joints: np.ndarray
    wrist_pose: RigidTransform
    confidence: float = 1.0
    frame_index: int = 0
    contacts: Optional[Dict[str, np.ndarray]] = None

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=float)
        if self.joints.shape != (N_KEYPOINTS, 3):
            raise InvalidArgumentError(
                f"expected {N_KEYPOINTS} joints, got shape {self.joints.shape}"
            )
        if not np.isfinite(self.joints).all():
            raise InvalidArgumentError("hand joints must be finite")
        if not (0.0 <= self.confidence <= 1.0):
            raise InvalidArgumentError("confidence must lie in [0, 1]")
        if self.frame_index < 0:
            raise InvalidArgumentError(f"frame index must be non-negative, got {self.frame_index}")
        d = self.joints[WRIST] - self.wrist_pose.translation
        gap = math.sqrt(d.dot(d))  # np.linalg.norm's operations for a 1-D vector
        if gap > 1e-6:
            raise InvalidArgumentError(
                f"joint 0 must coincide with the wrist pose translation (gap {gap:.2e} m)"
            )
        if self.contacts is not None:
            if not isinstance(self.contacts, dict):
                raise InvalidArgumentError("contacts must map digit names to points")
            checked = {}
            for digit, p in self.contacts.items():
                if digit not in DIGITS:
                    raise InvalidArgumentError(f"unknown contact digit {digit!r}")
                arr = np.asarray(p, dtype=float)
                if arr.shape != (3,) or not np.isfinite(arr).all():
                    raise InvalidArgumentError(f"contact point for {digit!r} must be a finite 3-vector")
                checked[digit] = arr
            self.contacts = checked

    def transformed(self, sigma: float, correction: RigidTransform) -> "HandFrame":
        """Apply a scale + rigid correction: p -> sigma * (R p + t)."""
        if sigma <= 0 or not np.isfinite(sigma):
            raise InvalidArgumentError("sigma must be positive and finite")
        # correction.apply's arithmetic, R p + t, with one matrix for all
        m, t = correction.rotation.as_matrix(), correction.translation
        joints = sigma * (self.joints @ m.T + t)
        wrist = RigidTransform(
            correction.rotation @ self.wrist_pose.rotation,
            sigma * (m @ self.wrist_pose.translation + t),
        )
        contacts = None
        if self.contacts is not None:
            contacts = {d: sigma * (m @ p + t) for d, p in self.contacts.items()}
        return HandFrame(joints, wrist, self.confidence, self.frame_index, contacts)


@dataclass
class HandTrajectory:
    frames: list
    fps: float = 30.0

    def __post_init__(self):
        indices = [f.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise InvalidArgumentError("frame indices must be strictly increasing")
        if not 0 < self.fps < np.inf:
            raise InvalidArgumentError("fps must be positive and finite")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class FingerMapping:
    """Injective map from human digits to robot fingertip link names."""

    entries: Dict[str, str]

    def __post_init__(self):
        for digit in self.entries:
            if digit not in DIGITS:
                raise InvalidArgumentError(f"unknown digit {digit!r} in finger mapping")
        links = list(self.entries.values())
        if len(set(links)) != len(links):
            raise InvalidArgumentError("finger mapping must be injective")
        if not self.entries:
            raise InvalidArgumentError("finger mapping must map at least one digit")

    def validate_against(self, model: RobotModel) -> None:
        for digit, link in self.entries.items():
            if not model.has_link(link):
                raise InvalidArgumentError(
                    f"finger mapping: robot link {link!r} for digit {digit!r} not in model"
                )

    def mapped_digits(self) -> list:
        return [d for d in DIGITS if d in self.entries]


@dataclass(frozen=True)
class VectorPair:
    human: tuple            # (origin keypoint id, end keypoint id)
    robot: tuple            # (origin link name, end link name)
    group: str

    def __post_init__(self):
        for k in self.human:
            if not (0 <= k < N_KEYPOINTS):
                raise InvalidArgumentError(f"keypoint id {k} out of range")
        if self.group not in VECTOR_GROUPS:
            raise InvalidArgumentError(f"unknown vector group {self.group!r}")


@dataclass
class VectorSpec:
    """Paired human-keypoint / robot-link vectors used for retargeting."""

    pairs: list

    def __post_init__(self):
        if not self.pairs:
            raise InvalidArgumentError("vector spec must contain at least one pair")

    @property
    def n_vec(self) -> int:
        return len(self.pairs)

    def robot_links(self) -> list:
        """Unique robot links referenced, in first-use order."""
        seen = []
        for p in self.pairs:
            for name in p.robot:
                if name not in seen:
                    seen.append(name)
        return seen

    def robot_link_pairs(self):
        """robot_links() plus each pair's (start, end) index into it, as
        two integer arrays in spec order."""
        links = self.robot_links()
        pos = {name: i for i, name in enumerate(links)}
        starts = np.array([pos[p.robot[0]] for p in self.pairs])
        ends = np.array([pos[p.robot[1]] for p in self.pairs])
        return links, starts, ends

    def validate_against(self, model: RobotModel) -> None:
        for p in self.pairs:
            for name in p.robot:
                if not model.has_link(name):
                    raise InvalidArgumentError(f"vector spec references unknown link {name!r}")


@dataclass
class TaxonomyWeightTable:
    """Per-class, per-vector-group weights."""

    table: Dict[str, Dict[str, float]]

    def __post_init__(self):
        if not isinstance(self.table, dict):
            raise ConfigError("weight table must be a JSON object")
        normalized = {}
        for cls_name, groups in self.table.items():
            cls = TaxonomyClass.from_name(str(cls_name))
            if not isinstance(groups, dict):
                raise ConfigError(f"class {cls.value!r}: weights must be a JSON object")
            row = {}
            for g in VECTOR_GROUPS:
                if g not in groups:
                    raise ConfigError(f"class {cls.value!r} missing weight for group {g!r}")
                w = groups[g]
                # JSON numbers, not Python conversions: true is no weight, nor "2.5"
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ConfigError(
                        f"class {cls.value!r}, group {g!r}: weight must be a number, got {w!r}")
                try:
                    w = float(w)
                except OverflowError:
                    w = np.inf
                if w < 0 or not np.isfinite(w):
                    raise ConfigError(
                        f"class {cls.value!r}, group {g!r}: weight must be finite and >= 0")
                row[g] = w
            unknown = set(groups) - set(VECTOR_GROUPS)
            if unknown:
                raise ConfigError(f"class {cls.value!r}: unknown groups {sorted(unknown)}")
            if all(w == 0 for w in row.values()):
                raise ConfigError(f"class {cls.value!r}: at least one weight must be positive")
            normalized[cls] = row
        missing = set(TaxonomyClass) - set(normalized)
        if missing:
            raise ConfigError(
                "weight table missing classes: " + ", ".join(sorted(c.value for c in missing))
            )
        self.table = normalized

    def weight(self, cls: TaxonomyClass, group: str) -> float:
        return self.table[cls][group]

    @classmethod
    def from_json(cls, text: str) -> "TaxonomyWeightTable":
        return cls(json.loads(text))

    @classmethod
    def default(cls) -> "TaxonomyWeightTable":
        text = resources.files("dexretarget.assets").joinpath(
            "taxonomy_weights.json").read_text()
        return cls.from_json(text)


def default_vector_spec(
    mapping: FingerMapping,
    palm_link: str,
    proximal_links: Optional[Dict[str, str]] = None,
) -> VectorSpec:
    """Build the default vector pairing for a finger mapping.

    Wrist-to-tip per mapped digit, thumb-to-other-tip pairs, index-middle
    tip pair, and wrist-to-proximal enclosure vectors for digits with a
    known proximal robot link.
    """
    digits = mapping.mapped_digits()
    pairs = []
    for d in digits:
        pairs.append(VectorPair(
            human=(WRIST, tip_index(d)),
            robot=(palm_link, mapping.entries[d]),
            group=GROUP_WRIST_TO_TIP,
        ))
    if "thumb" in digits:
        for d in digits:
            if d == "thumb":
                continue
            pairs.append(VectorPair(
                human=(tip_index("thumb"), tip_index(d)),
                robot=(mapping.entries["thumb"], mapping.entries[d]),
                group=GROUP_THUMB_PAIR,
            ))
    if "index" in digits and "middle" in digits:
        pairs.append(VectorPair(
            human=(tip_index("index"), tip_index("middle")),
            robot=(mapping.entries["index"], mapping.entries["middle"]),
            group=GROUP_INTER_FINGER,
        ))
    if proximal_links:
        for d in digits:
            if d in proximal_links:
                pairs.append(VectorPair(
                    human=(WRIST, proximal_index(d)),
                    robot=(palm_link, proximal_links[d]),
                    group=GROUP_ENCLOSURE,
                ))
    return VectorSpec(pairs)


def reference_vectors(hand: HandFrame, spec: VectorSpec, scale: float = 1.0) -> np.ndarray:
    """Scaled human-side vectors scale * (end - origin), in spec order."""
    if scale <= 0 or not np.isfinite(scale):
        raise InvalidArgumentError("scale must be positive and finite")
    origins, ends = np.array([p.human for p in spec.pairs]).T
    return scale * (hand.joints.take(ends, axis=0) - hand.joints.take(origins, axis=0))


def compute_hand_scale(
    model: RobotModel,
    mapping: FingerMapping,
    hand: HandFrame,
) -> float:
    """Robot-to-human length ratio measured wrist to fingertip, with the
    robot at mid-limits.

    Uses the middle digit when mapped, otherwise the longest mapped digit
    (by human wrist-to-tip distance).
    """
    mapping.validate_against(model)
    digits = mapping.mapped_digits()
    if "middle" in digits:
        digit = "middle"
    else:
        digit = max(
            digits,
            key=lambda d: float(np.linalg.norm(hand.joints[tip_index(d)] - hand.joints[WRIST])),
        )
    human_dist = float(np.linalg.norm(hand.joints[tip_index(digit)] - hand.joints[WRIST]))
    if human_dist < 1e-12:
        raise InvalidArgumentError(f"human wrist-to-{digit}-tip distance is zero")
    tip = link_origins(model, model.mid_limits(), np.eye(3), np.zeros(3),
                       [mapping.entries[digit]])[0]
    robot_dist = float(np.linalg.norm(tip))
    return robot_dist / human_dist


def taxonomy_weights(
    cls: TaxonomyClass,
    spec: VectorSpec,
    table: TaxonomyWeightTable,
) -> np.ndarray:
    """Per-vector weights: the class weight of each pair's group."""
    if cls not in table.table:
        raise ConfigError(f"weight table does not cover class {cls.value!r}")
    return np.array([table.weight(cls, p.group) for p in spec.pairs])
