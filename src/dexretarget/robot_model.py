"""URDF kinematics subset: parse a kinematic tree with joint limits and
mimic coupling, evaluate forward kinematics and finite-difference
Jacobians.

Only the elements the retargeting pipeline needs are read (links, joints,
origins, axes, limits, mimics); visual/collision/inertial content is
ignored with a warning. Joint configurations q are plain float arrays
ordered by ``RobotModel.actuated_order``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DataParseError,
    InvalidArgumentError,
    UrdfStructureError,
    UrdfValidationError,
)
from .geometry import RigidTransform, Rotation
from .solver import central_differences

CONTINUOUS_BOX_SPAN = 2.0 * np.pi  # finite optimizer bounds for continuous joints

_IGNORED_TAGS = {"visual", "collision", "inertial", "transmission", "gazebo",
                 "material", "sensor"}
_SUPPORTED_JOINT_TYPES = {"revolute", "prismatic", "continuous", "fixed"}


@dataclass(frozen=True)
class Mimic:
    source: str
    multiplier: float = 1.0
    offset: float = 0.0


@dataclass
class Joint:
    name: str
    jtype: str
    parent: str
    child: str
    origin: RigidTransform
    axis: np.ndarray
    limits: Optional[tuple] = None            # (lower, upper) or None for continuous/fixed
    mimic: Optional[Mimic] = None
    # precomputed at parse time for fast axis-angle rotation
    _k: np.ndarray = field(default=None, repr=False)
    _k2: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        a = self.axis
        k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        self._k = k
        self._k2 = k @ k


class RobotModel:
    """Parsed kinematic tree. Immutable after construction."""

    def __init__(self, root_link: str, links, joints, warnings=None):
        self.root_link = root_link
        self.links = list(links)
        self.joints = list(joints)               # topological order, parent first
        self.warnings = list(warnings or [])
        self.actuated_order = [
            j.name for j in self.joints
            if j.jtype != "fixed" and j.mimic is None
        ]
        self._joint_by_name = {j.name: j for j in self.joints}
        self._q_index = {name: i for i, name in enumerate(self.actuated_order)}
        self._link_index = {name: i for i, name in enumerate(self.links)}
        # per-joint q lookup: (kind, index, multiplier, offset)
        self._joint_q = []
        for j in self.joints:
            if j.jtype == "fixed":
                self._joint_q.append(None)
            elif j.mimic is not None:
                src = self._q_index[j.mimic.source]
                self._joint_q.append((src, j.mimic.multiplier, j.mimic.offset))
            else:
                self._joint_q.append((self._q_index[j.name], 1.0, 0.0))
        # cache origin matrices
        self._origin_r = [j.origin.rotation.as_matrix() for j in self.joints]
        self._origin_t = [j.origin.translation for j in self.joints]

    @property
    def dof(self) -> int:
        return len(self.actuated_order)

    def joint(self, name: str) -> Joint:
        if name not in self._joint_by_name:
            raise InvalidArgumentError(f"unknown joint {name!r}")
        return self._joint_by_name[name]

    def has_link(self, name: str) -> bool:
        return name in self._link_index

    def limit_arrays(self) -> tuple:
        """Finite (lower, upper) bounds ordered by actuated_order.

        Continuous joints get a +/- one-turn box so solvers always see
        finite bounds.
        """
        lo = np.empty(self.dof)
        hi = np.empty(self.dof)
        for i, name in enumerate(self.actuated_order):
            j = self._joint_by_name[name]
            if j.jtype == "continuous":
                lo[i], hi[i] = -CONTINUOUS_BOX_SPAN, CONTINUOUS_BOX_SPAN
            else:
                lo[i], hi[i] = j.limits
        return lo, hi

    def mid_limits(self) -> np.ndarray:
        lo, hi = self.limit_arrays()
        return 0.5 * (lo + hi)

    def check_q(self, q) -> np.ndarray:
        arr = np.asarray(q, dtype=float)
        if arr.shape != (self.dof,):
            raise InvalidArgumentError(
                f"joint vector length {arr.shape} does not match DoF count {self.dof}"
            )
        return arr


class FrameSet(Mapping):
    """Link name -> pose map produced by forward kinematics.

    Stores raw rotation/translation arrays; RigidTransform views are built
    on access.
    """

    def __init__(self, names, rots, trans):
        self._names = list(names)
        self._index = {n: i for i, n in enumerate(self._names)}
        self._rots = rots
        self._trans = trans

    def origin(self, name: str) -> np.ndarray:
        if name not in self._index:
            raise InvalidArgumentError(f"unknown link {name!r}")
        return self._trans[self._index[name]]

    def rotation_matrix(self, name: str) -> np.ndarray:
        if name not in self._index:
            raise InvalidArgumentError(f"unknown link {name!r}")
        return self._rots[self._index[name]]

    def __getitem__(self, name: str) -> RigidTransform:
        if name not in self._index:
            raise KeyError(name)
        i = self._index[name]
        return RigidTransform(Rotation.from_matrix(self._rots[i]), self._trans[i])

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = np.array([float(t) for t in text.split()])
    except ValueError as exc:
        raise UrdfValidationError(f"cannot parse {what}: {text!r}") from exc
    if vals.shape != (n,):
        raise UrdfValidationError(f"{what} must have {n} components, got {text!r}")
    return vals


def _rpy_matrix(rpy: np.ndarray) -> np.ndarray:
    """URDF fixed-axis convention: R = Rz(yaw) Ry(pitch) Rx(roll)."""
    r, p, y = rpy
    cr, sr = np.cos(r), np.sin(r)
    cp, sp = np.cos(p), np.sin(p)
    cy, sy = np.cos(y), np.sin(y)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _parse_origin(elem) -> RigidTransform:
    origin = elem.find("origin")
    if origin is None:
        return RigidTransform.identity()
    xyz = _parse_floats(origin.get("xyz", "0 0 0"), 3, "origin xyz")
    rpy = _parse_floats(origin.get("rpy", "0 0 0"), 3, "origin rpy")
    return RigidTransform(Rotation.from_matrix(_rpy_matrix(rpy)), xyz)


def parse_urdf(text: str) -> RobotModel:
    """Parse a URDF document into a RobotModel.

    Raises DataParseError (with line/column) on malformed XML,
    UrdfStructureError on graph problems, UrdfValidationError on
    invalid elements.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise DataParseError(
            f"malformed XML at line {line}, column {col}: {exc.msg}",
            location=f"line {line}, column {col}",
        ) from exc
    if root.tag != "robot":
        raise UrdfValidationError(f"root element must be <robot>, got <{root.tag}>")

    warnings = []
    link_names = []
    for child in root:
        if child.tag == "link":
            name = child.get("name")
            if not name:
                raise UrdfValidationError("link without a name")
            if name in link_names:
                raise UrdfStructureError(f"duplicate link {name!r}")
            link_names.append(name)
            for sub in child:
                if sub.tag in _IGNORED_TAGS:
                    warnings.append(f"ignored <{sub.tag}> in link {name!r}")
        elif child.tag == "joint":
            pass
        elif child.tag in _IGNORED_TAGS:
            warnings.append(f"ignored <{child.tag}> element")
    if not link_names:
        raise UrdfStructureError("document defines no links")

    joints = []
    joint_names = set()
    for elem in root:
        if elem.tag != "joint":
            continue  # joints nested in transmissions etc. are never top level
        name = elem.get("name")
        jtype = elem.get("type")
        if not name:
            raise UrdfValidationError("joint without a name")
        if name in joint_names:
            raise UrdfStructureError(f"duplicate joint {name!r}")
        if jtype not in _SUPPORTED_JOINT_TYPES:
            raise UrdfValidationError(f"joint {name!r}: unsupported type {jtype!r}")
        parent_el = elem.find("parent")
        child_el = elem.find("child")
        if parent_el is None or child_el is None:
            raise UrdfValidationError(f"joint {name!r}: missing parent or child")
        parent = parent_el.get("link")
        child_link = child_el.get("link")
        if parent not in link_names:
            raise UrdfStructureError(f"joint {name!r}: parent link {parent!r} not defined")
        if child_link not in link_names:
            raise UrdfStructureError(f"joint {name!r}: child link {child_link!r} not defined")

        axis_el = elem.find("axis")
        axis = _parse_floats(axis_el.get("xyz"), 3, f"joint {name!r} axis") \
            if axis_el is not None else np.array([1.0, 0.0, 0.0])
        norm = float(np.linalg.norm(axis))
        if jtype in ("revolute", "prismatic", "continuous"):
            if norm < 1e-12:
                raise UrdfValidationError(f"joint {name!r}: axis has zero norm")
            axis = axis / norm

        limits = None
        limit_el = elem.find("limit")
        if jtype in ("revolute", "prismatic"):
            if limit_el is None or limit_el.get("lower") is None or limit_el.get("upper") is None:
                raise UrdfValidationError(
                    f"joint {name!r}: {jtype} joints require lower/upper limits"
                )
            lower = float(limit_el.get("lower"))
            upper = float(limit_el.get("upper"))
            if not (np.isfinite(lower) and np.isfinite(upper)) or lower > upper:
                raise UrdfValidationError(
                    f"joint {name!r}: limits must be finite with lower <= upper"
                )
            limits = (lower, upper)

        mimic = None
        mimic_el = elem.find("mimic")
        if mimic_el is not None:
            src = mimic_el.get("joint")
            if not src:
                raise UrdfValidationError(f"joint {name!r}: mimic without a source joint")
            mimic = Mimic(
                source=src,
                multiplier=float(mimic_el.get("multiplier", "1")),
                offset=float(mimic_el.get("offset", "0")),
            )

        joints.append(Joint(
            name=name, jtype=jtype, parent=parent, child=child_link,
            origin=_parse_origin(elem), axis=axis, limits=limits, mimic=mimic,
        ))
        joint_names.add(name)

    # tree structure: every link except the root is the child of exactly one joint
    child_count = {}
    for j in joints:
        child_count[j.child] = child_count.get(j.child, 0) + 1
        if child_count[j.child] > 1:
            raise UrdfStructureError(f"link {j.child!r} has multiple parent joints")
    roots = [l for l in link_names if l not in child_count]
    if len(roots) != 1:
        raise UrdfStructureError(
            f"expected exactly one root link, found {len(roots)}: {sorted(roots)}"
        )
    root_link = roots[0]

    # topological order by BFS from the root; anything unreached is an
    # orphan or part of a cycle
    by_parent = {}
    for j in joints:
        by_parent.setdefault(j.parent, []).append(j)
    ordered = []
    reached = {root_link}
    queue = [root_link]
    while queue:
        link = queue.pop(0)
        for j in by_parent.get(link, []):
            ordered.append(j)
            reached.add(j.child)
            queue.append(j.child)
    if len(ordered) != len(joints) or len(reached) != len(link_names):
        unreachable = sorted(set(link_names) - reached)
        raise UrdfStructureError(
            f"kinematic graph is not a tree; unreachable links: {unreachable}"
        )

    # mimic validation needs the full joint set
    jmap = {j.name: j for j in joints}
    for j in joints:
        if j.mimic is None:
            continue
        src = jmap.get(j.mimic.source)
        if src is None:
            raise UrdfValidationError(
                f"joint {j.name!r}: mimic source {j.mimic.source!r} does not exist"
            )
        if src.mimic is not None:
            raise UrdfValidationError(
                f"joint {j.name!r}: mimic source {src.name!r} is itself a mimic"
            )
        if src.jtype == "fixed":
            raise UrdfValidationError(
                f"joint {j.name!r}: mimic source {src.name!r} is fixed"
            )

    return RobotModel(root_link, link_names, ordered, warnings)


def serialize_urdf(model: RobotModel, name: str = "robot") -> str:
    """Emit the parsed subset back as URDF text (kinematics only)."""
    lines = [f'<robot name="{name}">']
    for link in model.links:
        lines.append(f'  <link name="{link}"/>')
    for j in model.joints:
        lines.append(f'  <joint name="{j.name}" type="{j.jtype}">')
        lines.append(f'    <parent link="{j.parent}"/>')
        lines.append(f'    <child link="{j.child}"/>')
        xyz = " ".join(f"{v:.12g}" for v in j.origin.translation)
        rv = j.origin.rotation
        m = rv.as_matrix()
        # recover fixed-axis rpy from the matrix
        pitch = np.arcsin(np.clip(-m[2, 0], -1.0, 1.0))
        if abs(m[2, 0]) < 1.0 - 1e-12:
            roll = np.arctan2(m[2, 1], m[2, 2])
            yaw = np.arctan2(m[1, 0], m[0, 0])
        else:
            roll = np.arctan2(-m[1, 2], m[1, 1])
            yaw = 0.0
        rpy = " ".join(f"{v:.12g}" for v in (roll, pitch, yaw))
        lines.append(f'    <origin xyz="{xyz}" rpy="{rpy}"/>')
        ax = " ".join(f"{v:.12g}" for v in j.axis)
        lines.append(f'    <axis xyz="{ax}"/>')
        if j.limits is not None:
            lines.append(
                f'    <limit lower="{j.limits[0]:.12g}" upper="{j.limits[1]:.12g}"'
                f' effort="1" velocity="1"/>'
            )
        if j.mimic is not None:
            lines.append(
                f'    <mimic joint="{j.mimic.source}" multiplier="{j.mimic.multiplier:.12g}"'
                f' offset="{j.mimic.offset:.12g}"/>'
            )
        lines.append("  </joint>")
    lines.append("</robot>")
    return "\n".join(lines) + "\n"


def _fk_batch(model: RobotModel, qs: np.ndarray, root_r: np.ndarray, root_t: np.ndarray):
    """FK over a batch of configurations; returns per-link (B, 3, 3) and
    (B, 3) arrays. The only joint loop: a single configuration is a batch
    of one, so every row is the same arithmetic whatever the batch shape.
    One pass of vectorized ops amortizes the per-joint overhead across the
    batch (finite-difference gradients evaluate 2n configurations at once)."""
    b = qs.shape[0]
    n_links = len(model.links)
    rots = [None] * n_links
    trans = [None] * n_links
    ridx = model._link_index[model.root_link]
    rots[ridx] = np.broadcast_to(root_r, (b, 3, 3))
    trans[ridx] = np.broadcast_to(root_t, (b, 3))
    eye = np.eye(3)
    for jidx, j in enumerate(model.joints):
        pi = model._link_index[j.parent]
        rp, tp = rots[pi], trans[pi]
        ro = model._origin_r[jidx]
        to = model._origin_t[jidx]
        rj = rp @ ro
        tj = rp @ to + tp
        qinfo = model._joint_q[jidx]
        if qinfo is None:
            rc, tc = rj, tj
        else:
            qi, mult, off = qinfo
            val = mult * qs[:, qi] + off
            if j.jtype == "prismatic":
                rc = rj
                tc = tj + (rj @ j.axis) * val[:, None]
            else:
                s = np.sin(val)[:, None, None]
                c = (1.0 - np.cos(val))[:, None, None]
                motion = eye + s * j._k + c * j._k2
                rc = rj @ motion
                tc = tj
        ci = model._link_index[j.child]
        rots[ci] = rc
        trans[ci] = tc
    return rots, trans


def forward_kinematics(model: RobotModel, q, root_pose: Optional[RigidTransform] = None) -> FrameSet:
    """Pose of every link: root_pose composed with the joint chain.

    Mimic joints evaluate as multiplier * q_source + offset; q is not
    required to satisfy the limits.
    """
    arr = model.check_q(q)
    if root_pose is None:
        root_r = np.eye(3)
        root_t = np.zeros(3)
    else:
        root_r = root_pose.rotation.as_matrix()
        root_t = root_pose.translation
    rots, trans = _fk_batch(model, arr[None, :], root_r, root_t)
    return FrameSet(model.links, [r[0] for r in rots], [t[0] for t in trans])


def link_origins(model: RobotModel, q: np.ndarray, root_r: np.ndarray,
                 root_t: np.ndarray, names) -> np.ndarray:
    """Origins of the named links for one configuration: (len(names), 3)."""
    return link_origins_batch(model, np.asarray(q)[None, :], root_r, root_t, names)[0]


def link_origins_batch(model: RobotModel, qs: np.ndarray, root_r: np.ndarray,
                       root_t: np.ndarray, names) -> np.ndarray:
    """Origins of the named links for a batch of configurations: (B, k, 3)."""
    rots, trans = _fk_batch(model, qs, root_r, root_t)
    idx = model._link_index
    return np.stack([trans[idx[n]] for n in names], axis=1)


def fingertip_positions(model: RobotModel, q, root_pose: Optional[RigidTransform],
                        tip_links) -> np.ndarray:
    """Origins of the named tip links, in tip_links order."""
    for name in tip_links:
        if not model.has_link(name):
            raise InvalidArgumentError(f"unknown link {name!r}")
    arr = model.check_q(q)
    if root_pose is None:
        root_pose = RigidTransform.identity()
    return link_origins(model, arr, root_pose.rotation.as_matrix(),
                        root_pose.translation, list(tip_links))


def clamp_to_limits(model: RobotModel, q) -> np.ndarray:
    """Componentwise clamp to the joint limits; continuous joints pass through."""
    arr = model.check_q(q).copy()
    for i, name in enumerate(model.actuated_order):
        j = model.joint(name)
        if j.limits is not None:
            arr[i] = min(max(arr[i], j.limits[0]), j.limits[1])
    return arr


def numeric_jacobian(model: RobotModel, q, target_link: str, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the target link origin w.r.t. q (3 x n)."""
    if eps <= 0:
        raise InvalidArgumentError("eps must be positive")
    if not model.has_link(target_link):
        raise InvalidArgumentError(f"unknown link {target_link!r}")
    arr = model.check_q(q)
    eye, zero = np.eye(3), np.zeros(3)
    return central_differences(
        lambda qs: link_origins_batch(model, qs, eye, zero, [target_link])[:, 0], arr, eps)
