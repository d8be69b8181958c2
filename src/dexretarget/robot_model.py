"""URDF kinematics subset: parse a kinematic tree with joint limits and
mimic coupling, evaluate forward kinematics and link-origin Jacobians.

FK results leave the module only as link origins: ``link_origins_batch``
for a batch of configurations, with their closed-form Jacobians on
request, and its one-row view ``link_origins``. The joint box
(``limit_arrays``, ``mid_limits``, ``clamp_to_limits``) is built once
per model.

Forward kinematics runs one pass over a joint table and then walks the
tree one depth at a time. The model stacks the constants of every moving
joint once, in one table: the coupling to q (mimics included), the axis
and its cross-product matrices, the child link, the links the joint
moves and the joint values' derivative in q. One pass evaluates every
joint value, sine, 1 - cosine and motion matrix for all configurations,
and the Jacobian reads the same table. The model also groups the joints
that share a depth and a motion kind (fixed, rotary, prismatic) once;
each group is one batched numpy step over all its joints and all
configurations, and a moving group reads its rows of the table. A group
whose parent links are the previous group's child links, in the same
order (a chain of finger segments), is marked chained once; it reads its
parents' poses from the previous step's result instead of gathering them
from the link arrays. Each group reads its parents and writes its
children through targets fixed once: a basic slice where the link indices
allow one (``_link_slice``), which costs a view where an index array costs
a gather or a scatter, and every pose keeps its bits.

A model keeps the results of its last two FK passes, keyed by the exact
bytes of the configurations and the root pose, and answers a repeat from
them with the same bits a new pass would give. A solver asks for the
gradient at the point it has just accepted, and that point is always one
of its last two evaluations (the line search's last trial, or the one
before it when a longer trial was rejected), so every gradient reuses its
point's pass; forward tracking's retry of a step the backtracking search
already scored reuses it too. Each tuple of link names is resolved once
per model into its link indices and its rows of the Jacobian's mask.
``link_origins_batch`` is the one entry that validates its arguments; it
hands the resolved rows to ``_link_origins``, the unchecked core.

Only the elements the retargeting pipeline needs are read (links, joints,
origins, axes, limits, mimics); visual/collision/inertial content is
ignored with a warning. Joint configurations q are plain float arrays
ordered by ``RobotModel.actuated_order``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DataParseError,
    InvalidArgumentError,
    UrdfStructureError,
    UrdfValidationError,
)
from .geometry import RigidTransform, Rotation

CONTINUOUS_BOX_SPAN = 2.0 * np.pi  # finite optimizer bounds for continuous joints
FK_MEMO_SIZE = 2  # FK passes a model keeps; see the module docstring
# the components of a 3-vector rolled by one and by two places
_ROLL1 = np.array([1, 2, 0])
_ROLL2 = np.array([2, 0, 1])

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

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)


@dataclass(frozen=True)
class _FkGroup:
    """Joints of one tree depth and one motion kind, stacked for one FK step.

    ``kind`` is "fixed", "rotary" (revolute or continuous) or "prismatic".
    A moving group's constants live in the model's ``_JointStack``, of which
    it holds the slice ``rows``; a fixed group holds an empty slice.
    ``chained`` is set when ``parents`` equals the previous group's
    ``children``, in the same order. ``read`` and ``write`` index the link
    axis of the FK arrays at ``parents`` and ``children`` (``_link_slice``);
    a chained group reads nothing."""
    kind: str
    parents: np.ndarray                   # (G,) link indices
    children: np.ndarray                  # (G,) link indices
    origin_r: np.ndarray                  # (G, 3, 3)
    origin_t: np.ndarray                  # (G, 3, 1)
    rows: slice
    chained: bool
    read: object                          # slice, (G,) indices or None
    write: object                         # slice or (G,) indices


@dataclass(frozen=True)
class _JointStack:
    """Every moving joint's constants, stacked once in FK-group order, so
    that one pass per FK call evaluates all joint values and motion
    matrices, and the Jacobian reads the same rows. A joint's value is
    mult * q[q_index] + off (1.0 and 0.0 unless it mimics another joint)."""
    q_index: np.ndarray       # (J,)
    mult: np.ndarray          # (J,)
    off: np.ndarray           # (J,)
    axis: np.ndarray          # (J, 3, 1)
    k: np.ndarray             # (J, 3, 3) cross-product matrix of the axis
    k2: np.ndarray            # (J, 3, 3) its square
    eye: np.ndarray           # (3, 3)
    child: np.ndarray         # (J,) link indices
    prismatic: np.ndarray     # (J, 1)
    any_prismatic: bool       # whether any row of prismatic is set
    moves: np.ndarray         # (L, J, 1) 1.0 where the joint moves the link
    dq: np.ndarray            # (J, dof) derivative of the joint values in q


class RobotModel:
    """Parsed kinematic tree. Its kinematics are immutable after
    construction; the only state that changes is the memo of its last FK
    passes and of the link-name tuples it has resolved, neither of which
    changes any result."""

    def __init__(self, root_link: str, links, joints, warnings=None):
        self.root_link = root_link
        self.links = list(links)
        self.joints = list(joints)               # topological order, parent first
        self.warnings = list(warnings or [])
        actuated = [j for j in self.joints if j.jtype != "fixed" and j.mimic is None]
        self.actuated_order = [j.name for j in actuated]
        # (dof, 2) limits by actuated_order, +/-inf for a continuous joint so
        # that the clamp lets it pass; the solver box gives it one turn
        # either way instead, so solvers always see finite bounds
        self._limits = np.array([j.limits or (-np.inf, np.inf)
                                 for j in actuated]).reshape(-1, 2)
        self._box = np.where(np.isfinite(self._limits), self._limits,
                             np.sign(self._limits) * CONTINUOUS_BOX_SPAN)
        self._q_index = {name: i for i, name in enumerate(self.actuated_order)}
        self._link_index = {name: i for i, name in enumerate(self.links)}
        # FK groups: one per (tree depth, motion kind), shallowest first
        depth = {root_link: 0}
        by_level = {}
        for j in self.joints:
            depth[j.child] = depth[j.parent] + 1
            kind = j.jtype if j.jtype in ("fixed", "prismatic") else "rotary"
            by_level.setdefault((depth[j.child], kind), []).append(j)
        # and every moving joint, stacked in group order; a moving group
        # holds its rows of that stack, a fixed group an empty slice
        self._fk_groups = []
        moving = []
        children = None
        for (_, kind), js in sorted(by_level.items()):
            start = len(moving)
            if kind != "fixed":
                moving += js
            parents = [self._link_index[j.parent] for j in js]
            chained = parents == children
            children = [self._link_index[j.child] for j in js]
            self._fk_groups.append(_FkGroup(
                kind=kind,
                parents=np.array(parents),
                children=np.array(children),
                origin_r=np.array([j.origin.rotation.as_matrix() for j in js]),
                origin_t=np.array([j.origin.translation for j in js])[:, :, None],
                rows=slice(start, len(moving)),
                chained=chained,
                read=None if chained else _link_slice(parents),
                write=_link_slice(children),
            ))
        coupling = [j.mimic or Mimic(j.name) for j in moving]
        q_index = np.array([self._q_index[m.source] for m in coupling], dtype=int)
        mult = np.array([m.multiplier for m in coupling], dtype=float)
        k = np.array([[[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
                      for a in (j.axis for j in moving)]).reshape(-1, 3, 3)
        dq = np.zeros((len(moving), self.dof))
        dq[np.arange(len(moving)), q_index] = mult
        moved_by = {root_link: np.zeros((len(moving), 1))}
        for j in self.joints:
            moved_by[j.child] = moved_by[j.parent] + np.array([m is j for m in moving])[:, None]
        prismatic = np.array([j.jtype == "prismatic" for j in moving])[:, None]
        self._stack = _JointStack(
            q_index=q_index, mult=mult,
            off=np.array([m.offset for m in coupling], dtype=float),
            axis=np.array([j.axis for j in moving]).reshape(-1, 3, 1),
            k=k, k2=k @ k, eye=np.eye(3),
            child=np.array([self._link_index[j.child] for j in moving], dtype=int),
            prismatic=prismatic, any_prismatic=bool(prismatic.any()),
            moves=np.array([moved_by[name] for name in self.links]),
            dq=dq,
        )
        # (key, (rots, trans)) of the last FK passes, most recently used first
        self._fk_memo = ()
        # link-name tuple -> (link indices, their rows of the moves mask)
        self._name_rows = {}

    @property
    def dof(self) -> int:
        return len(self.actuated_order)

    def has_link(self, name: str) -> bool:
        return name in self._link_index

    def limit_arrays(self) -> tuple:
        """Finite (lower, upper) solver bounds ordered by actuated_order;
        continuous joints get a +/- one-turn box."""
        return self._box[:, 0].copy(), self._box[:, 1].copy()

    def mid_limits(self) -> np.ndarray:
        return 0.5 * (self._box[:, 0] + self._box[:, 1])

    def check_q(self, q) -> np.ndarray:
        arr = np.asarray(q, dtype=float)
        if arr.shape != (self.dof,):
            raise InvalidArgumentError(
                f"joint vector length {arr.shape} does not match DoF count {self.dof}"
            )
        return arr


def _link_slice(links):
    """A basic slice that selects the link indices in order where they step
    by one positive stride, or one slot where they are all one index (a
    shared parent, which the slice's one row broadcasts over the group;
    a group's children are distinct, so never theirs unless it has one);
    otherwise the (G,) index array."""
    first = links[0]
    step = links[1] - first if len(links) > 1 else 0
    if any(b - a != step for a, b in zip(links, links[1:])) or step < 0:
        return np.array(links)
    return slice(first, links[-1] + 1, step) if step else slice(first, first + 1)


def _parse_floats(text: Optional[str], n: int, what: str) -> np.ndarray:
    """The n finite numbers of an attribute's text; ``what`` names the
    attribute (and its joint) in the UrdfValidationError raised when it is
    missing, malformed or not finite."""
    if text is None:
        raise UrdfValidationError(f"{what} is missing")
    try:
        vals = np.array([float(t) for t in text.split()])
    except ValueError as exc:
        raise UrdfValidationError(f"cannot parse {what}: {text!r}") from exc
    if vals.shape != (n,):
        raise UrdfValidationError(f"{what} must have {n} components, got {text!r}")
    if not np.all(np.isfinite(vals)):
        raise UrdfValidationError(f"{what} must be finite, got {text!r}")
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


def _parse_origin(elem, what: str) -> RigidTransform:
    origin = elem.find("origin")
    if origin is None:
        return RigidTransform.identity()
    xyz = _parse_floats(origin.get("xyz", "0 0 0"), 3, f"{what} origin xyz")
    rpy = _parse_floats(origin.get("rpy", "0 0 0"), 3, f"{what} origin rpy")
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
        axis = _parse_floats(axis_el.get("xyz"), 3, f"joint {name!r} axis xyz") \
            if axis_el is not None else np.array([1.0, 0.0, 0.0])
        norm = float(np.linalg.norm(axis))
        if jtype in ("revolute", "prismatic", "continuous"):
            if norm < 1e-12:
                raise UrdfValidationError(f"joint {name!r}: axis has zero norm")
            axis = axis / norm

        limits = None
        limit_el = elem.find("limit")
        if jtype in ("revolute", "prismatic"):
            if limit_el is None:
                raise UrdfValidationError(
                    f"joint {name!r}: {jtype} joints require lower/upper limits"
                )
            lower, upper = (float(_parse_floats(limit_el.get(key), 1,
                                                f"joint {name!r} limit {key}")[0])
                            for key in ("lower", "upper"))
            if lower > upper:
                raise UrdfValidationError(f"joint {name!r}: limits must have lower <= upper")
            limits = (lower, upper)

        mimic = None
        mimic_el = elem.find("mimic")
        if mimic_el is not None:
            src = mimic_el.get("joint")
            if not src:
                raise UrdfValidationError(f"joint {name!r}: mimic without a source joint")
            multiplier, offset = (float(_parse_floats(mimic_el.get(key, default), 1,
                                                      f"joint {name!r} mimic {key}")[0])
                                  for key, default in (("multiplier", "1"), ("offset", "0")))
            mimic = Mimic(source=src, multiplier=multiplier, offset=offset)

        joints.append(Joint(
            name=name, jtype=jtype, parent=parent, child=child_link,
            origin=_parse_origin(elem, f"joint {name!r}"), axis=axis, limits=limits, mimic=mimic,
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


def _fk_batch(model: RobotModel, qs: np.ndarray, root_r: np.ndarray, root_t: np.ndarray):
    """FK over a batch of configurations; returns (B, L, 3, 3) rotations and
    (B, L, 3) translations indexed like ``model.links``. The only FK loop:
    one pass over the joint table evaluates every moving joint's value,
    sine, 1 - cosine and motion matrix for all configurations at once,
    then one step per tree depth (and motion kind), parents before
    children, applies one group's joints to all configurations: a rotary
    group its rows' motion matrices, a prismatic group its rows' values
    along their axes. A group reads its parents' poses from the link
    arrays through its ``read`` target, unless it is chained: then they are
    the previous step's child poses, the same values in the same C-ordered
    layout. Every step writes its children's poses into the link arrays
    through its ``write`` target. Each matrix product multiplies the same
    C-ordered 3x3 operands whether a pose was gathered, sliced or
    broadcast, so it rounds the same. A single configuration is a batch of
    one, so every row is the same arithmetic whatever the batch shape."""
    b = qs.shape[0]
    n_links = len(model.links)
    rots = np.empty((b, n_links, 3, 3))
    trans = np.empty((b, n_links, 3))
    ridx = model._link_index[model.root_link]
    rots[:, ridx] = root_r
    trans[:, ridx] = root_t
    st = model._stack
    # take gives the gather's values in C order, for less than an index
    val = st.mult * qs.take(st.q_index, axis=1) + st.off  # (B, J)
    s = np.sin(val)[..., None, None]
    c = (1.0 - np.cos(val))[..., None, None]
    motion = st.eye + s * st.k + c * st.k2      # (B, J, 3, 3)
    rc = tc = None
    for g in model._fk_groups:
        if g.chained:
            rp, tp = rc, tc
        else:
            rp, tp = rots[:, g.read], trans[:, g.read]
        rj = rp @ g.origin_r
        tj = (rp @ g.origin_t)[..., 0] + tp
        if g.kind == "fixed":
            rc, tc = rj, tj
        elif g.kind == "prismatic":
            rc = rj
            tc = tj + (rj @ st.axis[g.rows])[..., 0] * val[:, g.rows, None]
        else:
            rc = rj @ motion[:, g.rows]
            tc = tj
        rots[:, g.write] = rc
        trans[:, g.write] = tc
    return rots, trans


def _memo_fk_batch(model: RobotModel, qs: np.ndarray, root_r: np.ndarray,
                   root_t: np.ndarray):
    """``_fk_batch``'s result, from the model's memo when the shapes and
    bytes of qs, root_r and root_t (float arrays) repeat one of its last
    FK_MEMO_SIZE passes. The memo's arrays are read-only and never leave
    this module. The memo is replaced whole, never edited, so threads
    sharing a model can at worst lose an entry to a race, which costs one
    more pass."""
    key = (qs.shape, root_r.shape, root_t.shape,
           qs.tobytes(), root_r.tobytes(), root_t.tobytes())
    memo = model._fk_memo
    for i, entry in enumerate(memo):
        if entry[0] == key:
            if i:
                model._fk_memo = (entry,) + memo[:i] + memo[i + 1:]
            return entry[1]
    rots, trans = _fk_batch(model, qs, root_r, root_t)
    rots.flags.writeable = trans.flags.writeable = False
    model._fk_memo = ((key, (rots, trans)),) + memo[:FK_MEMO_SIZE - 1]
    return rots, trans


def _name_rows(model: RobotModel, names):
    """The link indices of names and their rows of the Jacobian's moves
    mask, resolved once per model and tuple of names. An unknown name is
    never stored, so it raises on every call."""
    key = tuple(names)
    rows = model._name_rows.get(key)
    if rows is None:
        try:
            idx = np.array([model._link_index[n] for n in key], dtype=np.intp)
        except KeyError as exc:
            raise InvalidArgumentError(f"unknown link {exc.args[0]!r}") from None
        rows = model._name_rows[key] = (idx, model._stack.moves[idx])
    return rows


def link_origins(model: RobotModel, q: np.ndarray, root_r: np.ndarray,
                 root_t: np.ndarray, names) -> np.ndarray:
    """Origins of the named links for one configuration: (len(names), 3)."""
    return link_origins_batch(model, model.check_q(q)[None], root_r, root_t, names)[0]


def link_origins_batch(model: RobotModel, qs: np.ndarray, root_r: np.ndarray,
                       root_t: np.ndarray, names, jacobian: bool = False):
    """Origins of the named links for a batch of configurations, (B, k, 3),
    and with ``jacobian`` their (B, k, 3, dof) derivatives in q from the
    same FK pass: a joint with world axis a at o moves a point p by
    a x (p - o) per radian, or by a per unit if prismatic (Murray, Li &
    Sastry 1994), and a mimic joint's column lands on its source's q.
    The root pose is one (3, 3) rotation and (3,) translation for every
    row, or one per row, (B, 3, 3) and (B, 3)."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != model.dof:
        raise InvalidArgumentError(
            f"joint batch of shape {qs.shape} is not (B, {model.dof}) for DoF count {model.dof}")
    root_r = np.asarray(root_r, dtype=float)
    root_t = np.asarray(root_t, dtype=float)
    b = qs.shape[0]
    if root_r.shape not in ((3, 3), (b, 3, 3)) or root_t.shape not in ((3,), (b, 3)):
        raise InvalidArgumentError(
            f"root pose of shapes {root_r.shape} and {root_t.shape} is not (3, 3) and (3,)"
            f" or ({b}, 3, 3) and ({b}, 3) for a batch of {b}")
    idx, moves = _name_rows(model, names)
    return _link_origins(model, qs, root_r, root_t, idx, moves, jacobian)


def _link_origins(model: RobotModel, qs: np.ndarray, root_r: np.ndarray,
                  root_t: np.ndarray, idx: np.ndarray, moves: np.ndarray,
                  jacobian: bool):
    """``link_origins_batch`` without its checks: qs a (B, dof) float
    array, the root pose float arrays of the shapes it accepts, and the
    links' indices and moves-mask rows as ``_name_rows`` resolves them."""
    rots, trans = _memo_fk_batch(model, qs, root_r, root_t)
    # C-ordered, which trans[:, idx] would not be: einsum rounds by memory
    # layout, and refine's contact loss sums a row of this with einsum
    origins = trans.take(idx, axis=1)
    if not jacobian:
        return origins
    st = model._stack
    axes = (rots.take(st.child, axis=1) @ st.axis)[:, None, :, :, 0]  # (B, 1, J, 3)
    lever = origins[:, :, None] - trans.take(st.child, axis=1)[:, None]  # (B, k, J, 3)
    # a x lever as two products of the rolled components (a[i+1] l[i+2] -
    # a[i+2] l[i+1], np.cross's products), by take so that cols is C-ordered
    # like np.cross's: the matmul below rounds by its operands' memory layout
    cross = (axes.take(_ROLL1, axis=-1) * lever.take(_ROLL2, axis=-1)
             - axes.take(_ROLL2, axis=-1) * lever.take(_ROLL1, axis=-1))
    if st.any_prismatic:
        cross = np.where(st.prismatic, axes, cross)
    cols = cross * moves
    return origins, cols.swapaxes(2, 3) @ st.dq


def clamp_to_limits(model: RobotModel, q) -> np.ndarray:
    """Componentwise clamp to the joint limits; continuous joints pass through."""
    return np.clip(model.check_q(q), model._limits[:, 0], model._limits[:, 1])
