import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dexretarget import retarget, robot_model
from dexretarget.errors import (
    DataParseError,
    InvalidArgumentError,
    UrdfStructureError,
    UrdfValidationError,
)
from dexretarget.geometry import RigidTransform, Rotation
from dexretarget.hand_model import VECTOR_GROUPS, VectorPair, VectorSpec
from dexretarget.retarget import RetargetConfig, retarget_frame, retarget_problem
from dexretarget.robot_model import (
    _fk_batch,
    clamp_to_limits,
    link_origins,
    link_origins_batch,
    parse_urdf,
)
from dexretarget.solver import BoxProblem, check_gradient, fd_gradient

ONE_JOINT = """
<robot name="one">
  <link name="base"/>
  <link name="arm"/>
  <joint name="spin" type="revolute">
    <parent link="base"/>
    <child link="arm"/>
    <origin xyz="0 0 0"/>
    <axis xyz="0 0 1"/>
    <limit lower="-1" upper="1" effort="1" velocity="1"/>
  </joint>
  <joint name="tip_mount" type="fixed">
    <parent link="arm"/>
    <child link="tip"/>
    <origin xyz="1 0 0"/>
  </joint>
  <link name="tip"/>
</robot>
"""

# branching tree with prismatic, mimic (of both kinds) and continuous joints
PRISMATIC_MIMIC = """
<robot name="slider">
  <link name="base"/><link name="carriage"/><link name="arm"/><link name="fore"/>
  <link name="tip"/><link name="probe"/><link name="wheel"/>
  <joint name="slide" type="prismatic">
    <parent link="base"/><child link="carriage"/>
    <origin xyz="0.11 -0.07 0.23" rpy="0.3 -0.2 0.9"/>
    <axis xyz="0.3 0.5 0.81"/>
    <limit lower="-0.4" upper="0.6" effort="1" velocity="1"/>
  </joint>
  <joint name="spin" type="revolute">
    <parent link="carriage"/><child link="arm"/>
    <origin xyz="0.05 0.13 -0.02" rpy="-0.7 0.4 0.1"/>
    <axis xyz="0.2 -0.9 0.4"/>
    <limit lower="-2" upper="2" effort="1" velocity="1"/>
  </joint>
  <joint name="follow" type="revolute">
    <parent link="arm"/><child link="fore"/>
    <origin xyz="0.17 0.0 0.03" rpy="0.0 0.5 -0.3"/>
    <axis xyz="0 0.6 0.8"/>
    <limit lower="-3" upper="3" effort="1" velocity="1"/>
    <mimic joint="spin" multiplier="-0.7" offset="0.2"/>
  </joint>
  <joint name="tip_mount" type="fixed">
    <parent link="fore"/><child link="tip"/>
    <origin xyz="0.09 0.01 -0.04" rpy="0.2 0.1 0.0"/>
  </joint>
  <joint name="extend" type="prismatic">
    <parent link="carriage"/><child link="probe"/>
    <origin xyz="-0.03 0.08 0.19" rpy="1.1 0.0 -0.6"/>
    <axis xyz="-0.5 0.7 0.2"/>
    <limit lower="-1" upper="1" effort="1" velocity="1"/>
    <mimic joint="slide" multiplier="1.5" offset="-0.05"/>
  </joint>
  <joint name="wheel_axle" type="continuous">
    <parent link="base"/><child link="wheel"/>
    <origin xyz="0.0 -0.21 0.04" rpy="0.0 0.0 0.4"/>
    <axis xyz="1 1 0"/>
  </joint>
</robot>
"""

# one tree depth with fixed, revolute, continuous, prismatic and mimic joints
MIXED_DEPTH = """
<robot name="mixed">
  <link name="base"/><link name="a"/><link name="b"/><link name="c"/><link name="d"/>
  <link name="e"/><link name="f"/><link name="g"/>
  <joint name="mount" type="fixed">
    <parent link="base"/><child link="a"/>
    <origin xyz="0.02 0.1 -0.03" rpy="0.4 0.0 -0.2"/>
  </joint>
  <joint name="hinge" type="revolute">
    <parent link="base"/><child link="b"/>
    <origin xyz="-0.06 0.01 0.08" rpy="-0.3 0.6 0.1"/>
    <axis xyz="0.1 0.8 -0.3"/>
    <limit lower="-1.5" upper="1.2" effort="1" velocity="1"/>
  </joint>
  <joint name="slide" type="prismatic">
    <parent link="base"/><child link="c"/>
    <origin xyz="0.13 -0.04 0.0" rpy="0.0 -0.9 0.7"/>
    <axis xyz="0.6 0.0 0.8"/>
    <limit lower="-0.2" upper="0.3" effort="1" velocity="1"/>
  </joint>
  <joint name="roll" type="continuous">
    <parent link="base"/><child link="d"/>
    <origin xyz="0.0 0.0 0.05" rpy="1.2 0.2 0.0"/>
    <axis xyz="0 0 1"/>
  </joint>
  <joint name="hinge_copy" type="revolute">
    <parent link="base"/><child link="e"/>
    <origin xyz="0.07 0.07 0.07" rpy="0.1 0.2 0.3"/>
    <axis xyz="1 0 0"/>
    <limit lower="-3" upper="3" effort="1" velocity="1"/>
    <mimic joint="hinge" multiplier="-1.3" offset="0.25"/>
  </joint>
  <joint name="slide_copy" type="prismatic">
    <parent link="b"/><child link="f"/>
    <origin xyz="0.05 -0.02 0.11" rpy="0.0 0.3 0.0"/>
    <axis xyz="0 1 0"/>
    <limit lower="-1" upper="1" effort="1" velocity="1"/>
    <mimic joint="slide" multiplier="0.5" offset="-0.01"/>
  </joint>
  <joint name="tip" type="fixed">
    <parent link="c"/><child link="g"/>
    <origin xyz="0.0 0.04 0.0" rpy="0.0 0.0 0.5"/>
  </joint>
</robot>
"""

# no actuated joint at all
ZERO_DOF = """
<robot name="rigid">
  <link name="base"/><link name="left"/><link name="right"/><link name="tip"/>
  <joint name="to_left" type="fixed">
    <parent link="base"/><child link="left"/>
    <origin xyz="0.1 0.2 -0.05" rpy="0.3 -0.1 0.8"/>
  </joint>
  <joint name="to_right" type="fixed">
    <parent link="base"/><child link="right"/>
    <origin xyz="-0.1 0.0 0.02" rpy="0.0 0.7 -0.4"/>
  </joint>
  <joint name="to_tip" type="fixed">
    <parent link="left"/><child link="tip"/>
    <origin xyz="0.0 0.05 0.0" rpy="-0.2 0.0 0.1"/>
  </joint>
</robot>
"""

# a depth-2 mimic listed before depth-1 joints: its row of the joint stack
# (group order) is not its place in the URDF, and the zero rows between it
# and its source differ in number between the two orders
DEEP_MIMIC_FIRST = """
<robot name="tree">
  <link name="l0"/><link name="l1"/><link name="l2"/><link name="l3"/>
  <link name="l5"/><link name="l6"/><link name="l9"/>
  <joint name="j0" type="revolute">
    <parent link="l0"/><child link="l1"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <limit lower="0.0" upper="0.0" effort="1" velocity="1"/>
  </joint>
  <joint name="j1" type="revolute">
    <parent link="l0"/><child link="l2"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <limit lower="0.0" upper="0.0" effort="1" velocity="1"/>
    <mimic joint="j0" multiplier="0.0" offset="0.0"/>
  </joint>
  <joint name="j2" type="continuous">
    <parent link="l1"/><child link="l3"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 -0.1"/>
    <mimic joint="j0" multiplier="0.09" offset="0.0"/>
  </joint>
  <joint name="j4" type="revolute">
    <parent link="l0"/><child link="l5"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <limit lower="0.0" upper="0.0" effort="1" velocity="1"/>
    <mimic joint="j0" multiplier="0.0" offset="0.0"/>
  </joint>
  <joint name="j5" type="revolute">
    <parent link="l3"/><child link="l6"/>
    <origin xyz="0.0 -0.202 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <limit lower="0.0" upper="0.0" effort="1" velocity="1"/>
    <mimic joint="j0" multiplier="0.0" offset="0.0"/>
  </joint>
  <joint name="j8" type="prismatic">
    <parent link="l1"/><child link="l9"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <limit lower="0.0" upper="0.0" effort="1" velocity="1"/>
    <mimic joint="j0" multiplier="0.0" offset="0.0"/>
  </joint>
</robot>
"""

# a revolute-only chain whose joints share one source at fractional
# multipliers: its Jacobian contraction rounds by the columns' memory layout
FRACTIONAL_MIMIC_CHAIN = """
<robot name="tree">
  <link name="l0"/><link name="l1"/><link name="l2"/><link name="l3"/>
  <joint name="j0" type="continuous">
    <parent link="l0"/><child link="l1"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
  </joint>
  <joint name="j1" type="continuous">
    <parent link="l1"/><child link="l2"/>
    <origin xyz="0.0 0.0 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <mimic joint="j0" multiplier="0.05" offset="0.0"/>
  </joint>
  <joint name="j2" type="continuous">
    <parent link="l2"/><child link="l3"/>
    <origin xyz="0.0 0.001 0.0" rpy="0.0 0.0 0.0"/><axis xyz="0.0 0.0 0.1"/>
    <mimic joint="j0" multiplier="0.0" offset="0.0"/>
  </joint>
</robot>
"""


EYE, ZERO = np.eye(3), np.zeros(3)
# central-difference step of the retarget gradient audit
AUDIT_STEP = 3e-6


def fk_rotations(model, q, root_r=EYE, root_t=ZERO):
    """Link name -> rotation matrix at one configuration, from the FK loop."""
    rots, _ = _fk_batch(model, np.asarray(q, dtype=float)[None, :], root_r, root_t)
    return dict(zip(model.links, rots[0]))


def reference_fk_batch(model, qs, root_r, root_t):
    """The per-joint FK loop that the level-grouped ``_fk_batch`` replaced:
    one numpy step per joint, parent first. Its per-joint caches (link and
    q indices, origin matrices, mimic coupling, the axis cross-product
    matrix) are derived here from the public joint data."""
    link_index = {name: i for i, name in enumerate(model.links)}
    q_index = {name: i for i, name in enumerate(model.actuated_order)}
    b = qs.shape[0]
    n_links = len(model.links)
    rots = [None] * n_links
    trans = [None] * n_links
    ridx = link_index[model.root_link]
    rots[ridx] = np.broadcast_to(root_r, (b, 3, 3))
    trans[ridx] = np.broadcast_to(root_t, (b, 3))
    eye = np.eye(3)
    for j in model.joints:
        pi = link_index[j.parent]
        rp, tp = rots[pi], trans[pi]
        ro = j.origin.rotation.as_matrix()
        to = j.origin.translation
        rj = rp @ ro
        tj = rp @ to + tp
        if j.jtype == "fixed":
            qinfo = None
        elif j.mimic is not None:
            qinfo = (q_index[j.mimic.source], j.mimic.multiplier, j.mimic.offset)
        else:
            qinfo = (q_index[j.name], 1.0, 0.0)
        if qinfo is None:
            rc, tc = rj, tj
        else:
            qi, mult, off = qinfo
            val = mult * qs[:, qi] + off
            if j.jtype == "prismatic":
                rc = rj
                tc = tj + (rj @ j.axis) * val[:, None]
            else:
                a = j.axis
                k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
                s = np.sin(val)[:, None, None]
                c = (1.0 - np.cos(val))[:, None, None]
                motion = eye + s * k + c * (k @ k)
                rc = rj @ motion
                tc = tj
        ci = link_index[j.child]
        rots[ci] = rc
        trans[ci] = tc
    return rots, trans


def assert_fk_matches_reference(model, seed):
    """Level-grouped FK equals the per-joint reference bit for bit, for
    every link's rotation and translation, at batch sizes 1, 2·dof and an
    odd size, under a non-identity root pose."""
    lo, hi = model.limit_arrays()
    rng = np.random.default_rng(seed)
    root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
    root_t = np.array([0.1, -0.2, 0.45])
    for b in sorted({1, 2 * model.dof, 2 * model.dof + 3}):
        qs = rng.uniform(lo, hi, size=(b, model.dof))
        rots, trans = _fk_batch(model, qs, root_r, root_t)
        ref_rots, ref_trans = reference_fk_batch(model, qs, root_r, root_t)
        assert rots.shape == (b, len(model.links), 3, 3)
        assert trans.shape == (b, len(model.links), 3)
        for i, link in enumerate(model.links):
            assert rots[:, i].tobytes() == np.ascontiguousarray(ref_rots[i]).tobytes(), link
            assert trans[:, i].tobytes() == np.ascontiguousarray(ref_trans[i]).tobytes(), link


def reference_origins_jacobian(model, qs, root_r, root_t, names):
    """Link origins and their (B, k, 3, dof) Jacobian from ``_fk_batch``'s
    output, with the columns taken by ``np.cross`` as the closed form
    a x (p - o) reads; the joint constants (child link, axis, the links a
    joint moves, the mimic coupling) are derived here from the public
    joint data. The joints are contracted in the joint stack's order
    (``_fk_groups`` order): a matmul accumulates its inner axis in
    interleaved partial sums, so where the zero rows fall between two
    joints that move one link decides how their terms round."""
    link_index = {name: i for i, name in enumerate(model.links)}
    q_index = {name: i for i, name in enumerate(model.actuated_order)}
    parent_joint = {j.child: j for j in model.joints}
    moving = [parent_joint[model.links[c]]
              for g in model._fk_groups if g.kind != "fixed" for c in g.children]
    child = np.array([link_index[j.child] for j in moving], dtype=int)
    axis = np.array([j.axis for j in moving]).reshape(-1, 3, 1)
    prismatic = np.array([j.jtype == "prismatic" for j in moving])[:, None]

    def moved_by(link):
        path = set()
        while link in parent_joint:
            path.add(parent_joint[link].name)
            link = parent_joint[link].parent
        return [[float(j.name in path)] for j in moving]

    moves = np.array([moved_by(name) for name in model.links]).reshape(len(model.links), -1, 1)
    dq = np.zeros((len(moving), model.dof))
    for k, j in enumerate(moving):
        src, mult = (j.mimic.source, j.mimic.multiplier) if j.mimic else (j.name, 1.0)
        dq[k, q_index[src]] = mult
    idx = [link_index[n] for n in names]
    rots, trans = _fk_batch(model, qs, root_r, root_t)
    origins = np.take(trans, idx, axis=1)
    axes = (rots[:, child] @ axis)[:, None, :, :, 0]
    lever = origins[:, :, None] - trans[:, None, child]
    cols = np.where(prismatic, axes, np.cross(axes, lever)) * moves[idx]
    return origins, np.swapaxes(cols, 2, 3) @ dq


def assert_jacobian_matches_reference(model, seed):
    """``link_origins_batch(..., jacobian=True)`` equals the ``np.cross``
    reference bit for bit, at batch sizes 1, 2·dof and an odd size, under
    a non-identity root pose."""
    lo, hi = model.limit_arrays()
    rng = np.random.default_rng(seed)
    root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
    root_t = np.array([0.1, -0.2, 0.45])
    for b in sorted({1, 2 * model.dof, 2 * model.dof + 3}):
        qs = rng.uniform(lo, hi, size=(b, model.dof))
        origins, jac = link_origins_batch(model, qs, root_r, root_t, model.links,
                                          jacobian=True)
        ref_origins, ref_jac = reference_origins_jacobian(model, qs, root_r, root_t,
                                                          model.links)
        assert jac.shape == (b, len(model.links), 3, model.dof)
        assert origins.tobytes() == ref_origins.tobytes()
        assert jac.tobytes() == ref_jac.tobytes()


def random_chain_urdf(rng, n_joints=4):
    """Chain with random origins/axes for oracle comparison."""
    lines = ['<robot name="chain">', '  <link name="link0"/>']
    info = []
    for i in range(n_joints):
        xyz = rng.uniform(-0.3, 0.3, size=3)
        rpy = rng.uniform(-1.0, 1.0, size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        info.append((xyz, rpy, axis))
        lines += [
            f'  <link name="link{i+1}"/>',
            f'  <joint name="j{i}" type="revolute">',
            f'    <parent link="link{i}"/>',
            f'    <child link="link{i+1}"/>',
            f'    <origin xyz="{xyz[0]} {xyz[1]} {xyz[2]}" rpy="{rpy[0]} {rpy[1]} {rpy[2]}"/>',
            f'    <axis xyz="{axis[0]} {axis[1]} {axis[2]}"/>',
            '    <limit lower="-3" upper="3" effort="1" velocity="1"/>',
            '  </joint>',
        ]
    lines.append('</robot>')
    return "\n".join(lines), info


def homogeneous_chain_oracle(info, q):
    """Independent 4x4 matrix composition for the random chain."""

    def rot_z(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

    def rot_y(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

    def rot_x(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

    def axis_angle(axis, a):
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        return np.eye(3) + np.sin(a) * k + (1 - np.cos(a)) * (k @ k)

    t = np.eye(4)
    poses = [t.copy()]
    for (xyz, rpy, axis), angle in zip(info, q):
        m = np.eye(4)
        m[:3, :3] = rot_z(rpy[2]) @ rot_y(rpy[1]) @ rot_x(rpy[0]) @ axis_angle(axis, angle)
        m[:3, 3] = xyz
        # origin rotation and joint motion compose in the child frame
        m2 = np.eye(4)
        m2[:3, :3] = rot_z(rpy[2]) @ rot_y(rpy[1]) @ rot_x(rpy[0])
        m2[:3, 3] = xyz
        motion = np.eye(4)
        motion[:3, :3] = axis_angle(axis, angle)
        t = t @ m2 @ motion
        poses.append(t.copy())
    return poses


_decimal = st.integers(-300, 300).map(lambda k: k / 1000.0)
_angle = st.integers(-150, 150).map(lambda k: k / 100.0)
_axis = st.tuples(*[st.integers(-10, 10).map(lambda k: k / 10.0)] * 3).filter(any)


@st.composite
def urdf_trees(draw):
    """URDF text for a random kinematic tree: each joint hangs off any
    earlier link (so trees branch, and one depth can mix joint kinds) and
    is revolute, prismatic, continuous or fixed; an actuated joint may
    mimic an earlier actuated one."""
    n = draw(st.integers(1, 10))
    lines = ['<robot name="tree">', '  <link name="l0"/>']
    sources = []
    for i in range(n):
        jtype = draw(st.sampled_from(["revolute", "prismatic", "continuous", "fixed"]))
        xyz = " ".join(str(draw(_decimal)) for _ in range(3))
        rpy = " ".join(str(draw(_angle)) for _ in range(3))
        axis = " ".join(str(v) for v in draw(_axis))
        lines += [
            f'  <link name="l{i + 1}"/>',
            f'  <joint name="j{i}" type="{jtype}">',
            f'    <parent link="l{draw(st.integers(0, i))}"/><child link="l{i + 1}"/>',
            f'    <origin xyz="{xyz}" rpy="{rpy}"/>',
            f'    <axis xyz="{axis}"/>',
        ]
        if jtype in ("revolute", "prismatic"):
            lo = draw(st.integers(-150, 0)) / 100.0
            lines.append(f'    <limit lower="{lo}" upper="{lo + draw(st.integers(0, 200)) / 100.0}"'
                         ' effort="1" velocity="1"/>')
        if jtype != "fixed":
            if sources and draw(st.booleans()):
                lines.append(f'    <mimic joint="{draw(st.sampled_from(sources))}"'
                             f' multiplier="{draw(_angle)}" offset="{draw(_decimal)}"/>')
            else:
                sources.append(f"j{i}")
        lines.append("  </joint>")
    lines.append("</robot>")
    return "\n".join(lines)


@st.composite
def retarget_trees(draw):
    """(URDF text, VectorSpec): a random tree from ``urdf_trees`` and 1-6
    vectors between two distinct links of it."""
    text = draw(urdf_trees())
    link = st.integers(0, text.count("<link ") - 1)
    ends = draw(st.lists(st.tuples(link, link).filter(lambda ab: ab[0] != ab[1]),
                         min_size=1, max_size=6))
    return text, VectorSpec([
        VectorPair(human=(0, 1), robot=(f"l{a}", f"l{b}"),
                   group=draw(st.sampled_from(VECTOR_GROUPS)))
        for a, b in ends
    ])


class TestParseUrdf:
    def test_minimal(self):
        model = parse_urdf(ONE_JOINT)
        assert model.dof == 1
        assert model.root_link == "base"
        assert model.actuated_order == ["spin"]

    def test_sixteen_dof_hand(self, hand16):
        assert hand16.dof == 16
        assert hand16.root_link == "palm"

    def test_missing_child_link(self):
        bad = ONE_JOINT.replace('child link="arm"', 'child link="nothing"')
        with pytest.raises(UrdfStructureError):
            parse_urdf(bad)

    def test_malformed_xml_reports_position(self):
        with pytest.raises(DataParseError) as err:
            parse_urdf("<robot name='x'><link name='a'>")
        assert "line" in str(err.value)

    def test_revolute_requires_limits(self):
        bad = ONE_JOINT.replace('<limit lower="-1" upper="1" effort="1" velocity="1"/>', "")
        with pytest.raises(UrdfValidationError):
            parse_urdf(bad)

    def test_cycle_detected(self):
        cyclic = """
        <robot name="c">
          <link name="a"/><link name="b"/>
          <joint name="j1" type="fixed"><parent link="a"/><child link="b"/></joint>
          <joint name="j2" type="fixed"><parent link="b"/><child link="a"/></joint>
        </robot>
        """
        with pytest.raises(UrdfStructureError):
            parse_urdf(cyclic)

    def test_orphan_link_detected(self):
        orphan = ONE_JOINT.replace("</robot>", '<link name="floating"/></robot>')
        with pytest.raises(UrdfStructureError):
            parse_urdf(orphan)

    def test_ignored_elements_warn(self):
        with_visual = ONE_JOINT.replace(
            '<link name="arm"/>',
            '<link name="arm"><visual><geometry/></visual></link>',
        )
        model = parse_urdf(with_visual)
        assert any("visual" in w for w in model.warnings)

    def test_mimic_joints(self):
        text = """
        <robot name="m">
          <link name="base"/><link name="a"/><link name="b"/>
          <joint name="drive" type="revolute">
            <parent link="base"/><child link="a"/>
            <axis xyz="0 0 1"/>
            <limit lower="-1" upper="1" effort="1" velocity="1"/>
          </joint>
          <joint name="follow" type="revolute">
            <parent link="a"/><child link="b"/>
            <origin xyz="1 0 0"/>
            <axis xyz="0 0 1"/>
            <limit lower="-2" upper="2" effort="1" velocity="1"/>
            <mimic joint="drive" multiplier="0.5" offset="0.1"/>
          </joint>
        </robot>
        """
        model = parse_urdf(text)
        assert model.dof == 1  # mimic excluded from q
        # follower angle = 0.5 * 0.6 + 0.1 = 0.4
        expected_angle = 0.4
        m = fk_rotations(model, [0.6])["b"]
        total = 0.6 + expected_angle
        np.testing.assert_allclose(m[0, 0], np.cos(total), atol=1e-12)

    def test_mimic_source_must_exist(self):
        text = """
        <robot name="m">
          <link name="base"/><link name="a"/>
          <joint name="j" type="revolute">
            <parent link="base"/><child link="a"/>
            <axis xyz="0 0 1"/>
            <limit lower="-1" upper="1" effort="1" velocity="1"/>
            <mimic joint="ghost"/>
          </joint>
        </robot>
        """
        with pytest.raises(UrdfValidationError):
            parse_urdf(text)

    @pytest.mark.parametrize("text, old, new, message", [
        (ONE_JOINT, 'lower="-1"', 'lower="abc"', "cannot parse joint 'spin' limit lower"),
        (ONE_JOINT, 'lower="-1"', "", "joint 'spin' limit lower is missing"),
        (ONE_JOINT, 'upper="1"', 'upper="nan"', "joint 'spin' limit upper must be finite"),
        (ONE_JOINT, 'upper="1"', 'upper="inf"', "joint 'spin' limit upper must be finite"),
        (ONE_JOINT, 'lower="-1"', 'lower="2"', "joint 'spin': limits must have lower <= upper"),
        (ONE_JOINT, '<axis xyz="0 0 1"/>', "<axis/>", "joint 'spin' axis xyz is missing"),
        (ONE_JOINT, '<axis xyz="0 0 1"/>', '<axis xyz="0 -inf 1"/>',
         "joint 'spin' axis xyz must be finite"),
        (PRISMATIC_MIMIC, 'multiplier="-0.7"', 'multiplier="x"',
         "cannot parse joint 'follow' mimic multiplier"),
        (PRISMATIC_MIMIC, 'multiplier="-0.7"', 'multiplier="nan"',
         "joint 'follow' mimic multiplier must be finite"),
        (PRISMATIC_MIMIC, 'multiplier="1.5"', 'multiplier="inf"',
         "joint 'extend' mimic multiplier must be finite"),
        (PRISMATIC_MIMIC, 'offset="0.2"', 'offset="-inf"',
         "joint 'follow' mimic offset must be finite"),
        (PRISMATIC_MIMIC, 'offset="-0.05"', 'offset="1 2"',
         "joint 'extend' mimic offset must have 1 components"),
        (PRISMATIC_MIMIC, 'rpy="0.2 0.1 0.0"', 'rpy="0.2 nan 0.0"',
         "joint 'tip_mount' origin rpy must be finite"),
    ], ids=["lower-text", "lower-missing", "upper-nan", "upper-inf", "lower-above-upper",
            "axis-xyz-missing", "axis-xyz-inf", "multiplier-text", "multiplier-nan",
            "multiplier-inf", "offset-inf", "offset-two-numbers", "origin-rpy-nan"])
    def test_joint_numbers_are_present_and_finite(self, text, old, new, message):
        assert old in text
        with pytest.raises(UrdfValidationError, match=f"^{re.escape(message)}"):
            parse_urdf(text.replace(old, new))

    def test_unsupported_joint_type(self):
        bad = ONE_JOINT.replace('type="revolute"', 'type="floating"')
        with pytest.raises(UrdfValidationError):
            parse_urdf(bad)


class TestForwardKinematics:
    def test_zero_config(self):
        model = parse_urdf(ONE_JOINT)
        tip = link_origins(model, np.zeros(1), EYE, ZERO, ["tip"])[0]
        np.testing.assert_allclose(tip, [1.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        model = parse_urdf(ONE_JOINT)
        tip = link_origins(model, np.array([np.pi / 2]), EYE, ZERO, ["tip"])[0]
        np.testing.assert_allclose(tip, [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_matrix_oracle(self, rng):
        text, info = random_chain_urdf(rng, n_joints=3)
        model = parse_urdf(text)
        names = [f"link{i}" for i in range(4)]
        for _ in range(10):
            q = rng.uniform(-2, 2, size=3)
            origins = link_origins(model, q, EYE, ZERO, names)
            rots = fk_rotations(model, q)
            oracle = homogeneous_chain_oracle(info, q)
            for i, name in enumerate(names):
                np.testing.assert_allclose(origins[i], oracle[i][:3, 3], atol=1e-12)
                np.testing.assert_allclose(rots[name], oracle[i][:3, :3], atol=1e-12)

    def test_root_pose_equivariance(self, hand16, rng):
        q = rng.uniform(-0.2, 0.8, size=16)
        pose = RigidTransform(Rotation.from_axis_angle(rng.normal(size=3), 1.1),
                              rng.normal(size=3))
        root_r = pose.rotation.as_matrix()
        at_pose = link_origins(hand16, q, root_r, pose.translation, hand16.links)
        rots_at_pose = fk_rotations(hand16, q, root_r, pose.translation)
        at_identity = link_origins(hand16, q, EYE, ZERO, hand16.links)
        rots_at_identity = fk_rotations(hand16, q)
        for i, link in enumerate(hand16.links):
            expected = pose @ RigidTransform(Rotation.from_matrix(rots_at_identity[link]),
                                             at_identity[i])
            np.testing.assert_allclose(at_pose[i], expected.translation, atol=1e-12)
            np.testing.assert_allclose(
                rots_at_pose[link], expected.rotation.as_matrix(), atol=1e-12
            )

    def test_root_maps_to_identity(self, hand16):
        np.testing.assert_array_equal(
            link_origins(hand16, np.zeros(16), EYE, ZERO, ["palm"])[0], np.zeros(3))
        np.testing.assert_array_equal(fk_rotations(hand16, np.zeros(16))["palm"], np.eye(3))

    def test_length_mismatch(self, hand16):
        with pytest.raises(InvalidArgumentError):
            hand16.check_q(np.zeros(3))

    @pytest.mark.parametrize("n", [20, 3])
    def test_wrong_q_length_rejected(self, hand16, n):
        # a long q is not cut to its first 16 values, a short one is no IndexError
        with pytest.raises(InvalidArgumentError, match="DoF count 16"):
            link_origins(hand16, np.zeros(n), EYE, ZERO, ["palm"])
        with pytest.raises(InvalidArgumentError, match="DoF count 16"):
            link_origins_batch(hand16, np.zeros((2, n)), EYE, ZERO, ["palm"])

    @pytest.mark.parametrize("shape", [(16,), (), (1, 16, 1), (16, 1)],
                             ids=["one_d", "zero_d", "three_d", "column"])
    def test_batch_shape_error_names_the_shape(self, hand16, shape):
        with pytest.raises(InvalidArgumentError) as err:
            link_origins_batch(hand16, np.zeros(shape), EYE, ZERO, ["palm"])
        assert str(err.value) == \
            f"joint batch of shape {shape} is not (B, 16) for DoF count 16"

    @pytest.mark.parametrize("b, root_r, root_t", [
        (1, np.eye(4), ZERO),
        (1, EYE, np.zeros(2)),
        (2, np.zeros((3, 3, 3)), ZERO),
        (2, np.zeros((1, 3, 3)), ZERO),
        (2, EYE, np.zeros((3, 3))),
        (2, EYE, np.zeros((2, 3, 1))),
    ], ids=["matrix_4x4", "t_of_2", "r_rows_3", "r_rows_1", "t_rows_3", "t_columns"])
    def test_root_pose_shape_error_names_the_shapes(self, hand16, b, root_r, root_t):
        # each was a bare numpy broadcasting ValueError
        with pytest.raises(InvalidArgumentError) as err:
            link_origins_batch(hand16, np.zeros((b, 16)), root_r, root_t, ["palm"],
                               jacobian=True)
        assert str(err.value) == (
            f"root pose of shapes {root_r.shape} and {root_t.shape} is not (3, 3) and (3,)"
            f" or ({b}, 3, 3) and ({b}, 3) for a batch of {b}")
        if b == 1:
            with pytest.raises(InvalidArgumentError, match="root pose"):
                link_origins(hand16, np.zeros(16), root_r, root_t, ["palm"])

    def test_one_root_pose_per_row(self, hand16, rng):
        lo, hi = hand16.limit_arrays()
        qs = rng.uniform(lo, hi, size=(3, 16))
        root_r = np.array([Rotation.from_axis_angle([0.3, -1.0, 0.5], a).as_matrix()
                           for a in (0.2, 0.8, -1.1)])
        root_t = rng.normal(size=(3, 3))
        batched = link_origins_batch(hand16, qs, root_r, root_t, hand16.links)
        for row, q, r, t in zip(batched, qs, root_r, root_t):
            assert np.array_equal(row, link_origins(hand16, q, r, t, hand16.links))

    def test_one_row_error_keeps_its_message(self, hand16):
        with pytest.raises(InvalidArgumentError) as err:
            link_origins(hand16, np.zeros(20), EYE, ZERO, ["palm"])
        assert str(err.value) == "joint vector length (20,) does not match DoF count 16"

    def test_unknown_link_rejected(self, hand16):
        with pytest.raises(InvalidArgumentError, match="'ghost'"):
            link_origins(hand16, np.zeros(16), EYE, ZERO, ["palm", "ghost"])

    def test_prismatic(self):
        text = ONE_JOINT.replace('type="revolute"', 'type="prismatic"') \
                        .replace('<axis xyz="0 0 1"/>', '<axis xyz="1 0 0"/>')
        model = parse_urdf(text)
        tip = link_origins(model, np.array([0.25]), EYE, ZERO, ["tip"])[0]
        np.testing.assert_allclose(tip, [1.25, 0.0, 0.0], atol=1e-15)


class TestFingertipPositions:
    """Tip-link origins through link_origins, in the order asked for."""

    def test_one_joint_chain(self):
        model = parse_urdf(ONE_JOINT)
        tips = link_origins(model, np.zeros(1), np.eye(3), np.zeros(3), ["tip"])
        np.testing.assert_allclose(tips, [[1.0, 0.0, 0.0]])

    def test_hand_tips_distinct(self, hand16):
        tips = link_origins(
            hand16, np.zeros(16), np.eye(3), np.zeros(3),
            ["thumb_tip", "index_tip", "middle_tip", "ring_tip"],
        )
        assert tips.shape == (4, 3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(tips[i] - tips[j]) > 1e-3

    def test_tips_match_fk_batch(self, hand16, rng):
        q = rng.uniform(0, 0.5, size=16)
        _, trans = _fk_batch(hand16, q[None, :], EYE, ZERO)
        tips = link_origins(hand16, q, EYE, ZERO, ["index_tip"])
        assert np.array_equal(tips[0], trans[0, hand16.links.index("index_tip")])


class TestClampToLimits:
    def test_inside_unchanged(self, hand16):
        q = hand16.mid_limits()
        np.testing.assert_array_equal(clamp_to_limits(hand16, q), q)

    def test_random_in_limits_unchanged(self, hand16, rng):
        lo, hi = hand16.limit_arrays()
        for _ in range(20):
            q = rng.uniform(lo, hi)
            np.testing.assert_array_equal(clamp_to_limits(hand16, q), q)

    def test_above_upper(self, hand16):
        lo, hi = hand16.limit_arrays()
        q = hand16.mid_limits()
        q[3] = hi[3] + 0.5
        clamped = clamp_to_limits(hand16, q)
        assert clamped[3] == hi[3]

    def test_very_negative_hits_lower(self, hand16):
        lo, _ = hand16.limit_arrays()
        q = np.full(16, -1e9)
        np.testing.assert_array_equal(clamp_to_limits(hand16, q), lo)

    def test_projection_idempotent(self, hand16, rng):
        q = rng.uniform(-5, 5, size=16)
        once = clamp_to_limits(hand16, q)
        np.testing.assert_array_equal(clamp_to_limits(hand16, once), once)

    def test_continuous_unclamped(self):
        text = ONE_JOINT.replace('type="revolute"', 'type="continuous"') \
                        .replace('<limit lower="-1" upper="1" effort="1" velocity="1"/>', "")
        model = parse_urdf(text)
        q = np.array([100.0])
        np.testing.assert_array_equal(clamp_to_limits(model, q), q)
        # but the optimizer box is finite
        lo, hi = model.limit_arrays()
        assert np.isfinite(lo).all() and np.isfinite(hi).all()

    @pytest.mark.parametrize("which", ["hand16", "prismatic_mimic"])
    def test_matches_per_joint_clamp(self, which, hand16, rng):
        # the per-joint rule: clamp to the URDF limits, skip continuous joints
        model = hand16 if which == "hand16" else parse_urdf(PRISMATIC_MIMIC)
        by_name = {j.name: j for j in model.joints}
        for _ in range(20):
            q = rng.uniform(-8.0, 8.0, size=model.dof)
            expected = q.copy()
            for i, name in enumerate(model.actuated_order):
                limits = by_name[name].limits
                if limits is not None:
                    expected[i] = min(max(q[i], limits[0]), limits[1])
            assert np.array_equal(clamp_to_limits(model, q), expected)

    def test_limit_arrays_are_copies(self, hand16):
        lo, hi = hand16.limit_arrays()
        lo[:] = 0.0
        hi[:] = 0.0
        again_lo, again_hi = hand16.limit_arrays()
        assert np.all(again_lo < again_hi)
        np.testing.assert_array_equal(hand16.mid_limits(), 0.5 * (again_lo + again_hi))


def jacobian(model, q, names, root_r=EYE, root_t=ZERO):
    """The (k, 3, dof) link-origin Jacobian at one configuration."""
    return link_origins_batch(model, q[None], root_r, root_t, names, jacobian=True)[1][0]


class TestNumericJacobian:
    """The closed-form link-origin Jacobian against exact and numeric values."""

    def test_revolute_tangent(self):
        model = parse_urdf(ONE_JOINT)
        jac = jacobian(model, np.zeros(1), ["tip"])[0]
        np.testing.assert_allclose(jac[:, 0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_prismatic_exact(self):
        text = ONE_JOINT.replace('type="revolute"', 'type="prismatic"') \
                        .replace('<axis xyz="0 0 1"/>', '<axis xyz="1 0 0"/>')
        model = parse_urdf(text)
        jac = jacobian(model, np.zeros(1), ["tip"])[0]
        np.testing.assert_allclose(jac[:, 0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_richardson_extrapolation(self, hand16, rng):
        chain = parse_urdf(random_chain_urdf(rng, n_joints=4)[0])
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        for model in (chain, hand16, parse_urdf(PRISMATIC_MIMIC), parse_urdf(MIXED_DEPTH)):
            lo, hi = model.limit_arrays()
            q = rng.uniform(lo, hi)
            jac = jacobian(model, q, model.links, root_r)

            def origins(qs):
                return link_origins_batch(model, qs, root_r, ZERO,
                                          model.links).reshape(len(qs), -1)

            # Richardson: D(h) = (4 D_c(h/2) - D_c(h)) / 3 with h = 1e-4
            richardson = (4 * fd_gradient(origins, q, 5e-5) - fd_gradient(origins, q, 1e-4)) / 3
            np.testing.assert_allclose(jac.reshape(-1, model.dof), richardson, atol=1e-9)

    def test_unknown_link(self, hand16):
        with pytest.raises(InvalidArgumentError):
            jacobian(hand16, np.zeros(16), ["ghost"])


class TestBatchShape:
    """A batched evaluation is bit-identical whatever the batch shape."""

    @pytest.mark.parametrize("which", ["hand16", "prismatic_mimic"])
    @pytest.mark.parametrize("batch", ["one", "two_dof", "odd", "jacobian"])
    def test_rows_match_single_configuration(self, which, batch, hand16, rng):
        model = hand16 if which == "hand16" else parse_urdf(PRISMATIC_MIMIC)
        b = {"one": 1, "two_dof": 2 * model.dof, "odd": 37, "jacobian": 37}[batch]
        lo, hi = model.limit_arrays()
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        root_t = np.array([0.1, -0.2, 0.45])
        for _ in range(4):
            qs = rng.uniform(lo, hi, size=(b, model.dof))
            if batch == "jacobian":
                _, batched = link_origins_batch(model, qs, root_r, root_t, model.links,
                                                jacobian=True)
                for row, q in zip(batched, qs):
                    assert np.array_equal(row, jacobian(model, q, model.links, root_r, root_t))
                continue
            batched = link_origins_batch(model, qs, root_r, root_t, model.links)
            # einsum rounds by memory layout, and refine's contact loss sums
            # a row of this with einsum, so the layout is part of the contract
            assert batched.flags["C_CONTIGUOUS"]
            for row, q in zip(batched, qs):
                single = link_origins(model, q, root_r, root_t, model.links)
                assert np.array_equal(row, single)

    @given(case=st.none() | retarget_trees(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=None, seed=12345)
    # a zero-DoF tree, which random draws reach only in some runs
    @example(case=(ZERO_DOF, VectorSpec([
        VectorPair(human=(0, 1), robot=("base", "tip"), group=VECTOR_GROUPS[0]),
        VectorPair(human=(0, 1), robot=("right", "left"), group=VECTOR_GROUPS[-1])])),
        seed=12345)
    @settings(max_examples=30, deadline=None)
    def test_retarget_gradient_passes_check_gradient(self, hand16, spec16, case, seed):
        # case None is the 16-DoF hand with its default vector spec
        model, spec = (hand16, spec16) if case is None else (parse_urdf(case[0]), case[1])
        rng = np.random.default_rng(seed)
        lo, hi = model.limit_arrays()
        names = spec.robot_links()
        wrist = RigidTransform(Rotation.from_axis_angle([1.0, 0.2, -0.4], 0.6),
                               np.array([0.02, -0.05, 0.4]))
        origins = link_origins(model, rng.uniform(lo, hi), EYE, ZERO, names)
        pos = dict(zip(names, origins))
        ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec.pairs])
        cfg = RetargetConfig()
        problem = retarget_problem(model, ref, spec, wrist, model.mid_limits(), cfg)
        for _ in range(5):
            q = rng.uniform(lo, hi)
            assert check_gradient(problem, q, fd_eps=AUDIT_STEP) < 1e-5


class TestRandomTrees:
    """Random trees (property tests)."""

    @given(urdf_trees(), st.integers(0, 2 ** 32 - 1))
    @example(ZERO_DOF, 12345)
    @settings(max_examples=40, deadline=None)
    def test_batch_rows(self, text, seed):
        model = parse_urdf(text)
        lo, hi = model.limit_arrays()
        qs = np.random.default_rng(seed).uniform(lo, hi, size=(2 * model.dof + 3, model.dof))
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        root_t = np.array([0.1, -0.2, 0.45])
        batched = link_origins_batch(model, qs, root_r, root_t, model.links)
        for row, q in zip(batched, qs):
            assert np.array_equal(row, link_origins(model, q, root_r, root_t, model.links))


class TestLevelGroupedFk:
    """FK one tree depth at a time equals the per-joint loop bit for bit."""

    @given(urdf_trees(), st.integers(0, 2 ** 32 - 1))
    @example(ZERO_DOF, 12345)
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, text, seed):
        assert_fk_matches_reference(parse_urdf(text), seed)

    @pytest.mark.parametrize("text", [MIXED_DEPTH, ZERO_DOF, PRISMATIC_MIMIC],
                             ids=["mixed_depth", "zero_dof", "prismatic_mimic"])
    def test_fixed_trees(self, text):
        assert_fk_matches_reference(parse_urdf(text), 20261018)

    def test_hand16(self, hand16):
        assert_fk_matches_reference(hand16, 20261018)

    def test_one_step_per_depth_and_kind(self, hand16):
        # four revolute depths and one depth of fixed tip mounts
        assert [(g.kind, len(g.children)) for g in hand16._fk_groups] == \
            [("rotary", 4)] * 4 + [("fixed", 4)]
        # each finger segment hangs off the one before, in finger order
        assert [g.chained for g in hand16._fk_groups] == [False, True, True, True, True]
        mixed = parse_urdf(MIXED_DEPTH)
        assert [g.kind for g in mixed._fk_groups] == \
            ["fixed", "prismatic", "rotary", "fixed", "prismatic"]

    def test_zero_dof_frames(self):
        model = parse_urdf(ZERO_DOF)
        assert model.dof == 0
        right = link_origins(model, np.zeros(0), EYE, ZERO, ["right"])[0]
        np.testing.assert_allclose(right, [-0.1, 0.0, 0.02])


def two_level_tree(second_level):
    """A model with two revolute joints off the root (links a, b), the
    second-level revolute joints given as (parent, child) pairs in group
    order, and a fixed tip mount on each second-level child."""
    joints = [("base", "a"), ("base", "b")] + list(second_level)
    tips = [(child, child + "_tip") for _, child in second_level]
    lines = ['<robot name="levels">', '  <link name="base"/>']
    for i, (parent, child) in enumerate(joints + tips):
        jtype = "revolute" if i < len(joints) else "fixed"
        lines += [
            f'  <link name="{child}"/>',
            f'  <joint name="j{i}" type="{jtype}">',
            f'    <parent link="{parent}"/><child link="{child}"/>',
            f'    <origin xyz="0.0{i + 1} -0.03 0.05" rpy="0.{i + 1} -0.4 0.7"/>',
            f'    <axis xyz="0.{i + 2} 0.5 -0.6"/>',
            '    <limit lower="-2" upper="2" effort="1" velocity="1"/>',
            '  </joint>',
        ]
    model = parse_urdf("\n".join(lines + ["</robot>"]))
    # parse_urdf orders joints breadth first, so the second level's parents
    # follow the first level's order; the model takes any parent-first order
    order = {name: i for i, name in enumerate(
        ["a", "b"] + [c for _, c in second_level] + [c for _, c in tips])}
    joints = sorted(model.joints, key=lambda j: order[j.child])
    return robot_model.RobotModel(model.root_link, model.links, joints)


class TestChainedGroups:
    """A group whose parents are the previous group's children in the same
    order reads their poses from the previous step; any other gathers
    them. Both paths equal the per-joint references bit for bit."""

    # the second level's parents: a subset of the first level's children
    # (a twice), both of them in the other order (b before a), or both in
    # the same order; the tip mounts that follow are chained every time
    @pytest.mark.parametrize("second_level, chained", [
        ([("a", "c"), ("a", "d")], [False, False, True]),
        ([("b", "d"), ("a", "c")], [False, False, True]),
        ([("a", "c"), ("b", "d")], [False, True, True]),
    ], ids=["subset", "reordered", "same_order"])
    def test_gathered_and_chained_groups(self, second_level, chained):
        model = two_level_tree(second_level)
        assert [g.kind for g in model._fk_groups] == ["rotary", "rotary", "fixed"]
        assert [g.chained for g in model._fk_groups] == chained
        assert_fk_matches_reference(model, 20261020)
        assert_jacobian_matches_reference(model, 20261020)


def relinked(model, order):
    """The model with its link list (the FK arrays' link axis) permuted:
    link i of the result is link order[i] of the model."""
    return robot_model.RobotModel(model.root_link, [model.links[i] for i in order],
                                  model.joints)


def assert_targets_select_their_links(model):
    """Each group's write target picks its children from the link axis, in
    order, and its read target its parents: a one-row read broadcasts a
    shared parent. A chained group reads nothing."""
    links = np.arange(len(model.links))
    for g in model._fk_groups:
        assert links[g.write].tolist() == g.children.tolist()
        if g.chained:
            assert g.read is None
        else:
            assert np.broadcast_to(links[g.read], g.parents.shape).tolist() == g.parents.tolist()


class TestFkWriteTargets:
    """Each group reads its parents and writes its children through a
    basic slice where the link indices step evenly upward, else through the
    index array; both give the per-joint references' bits."""

    @staticmethod
    def target_kinds(model):
        def kind(target):
            return "none" if target is None else type(target).__name__
        return [(kind(g.read), kind(g.write)) for g in model._fk_groups]

    @pytest.mark.parametrize("case, kinds", [
        # fingers 1, 6, 11, 16 off the palm, then 2, 7, 12, 17 and so on
        ("progression", [("slice", "slice")] + [("none", "slice")] * 4),
        # the rotary group's children 2, 4, 5
        ("not_progression", [("slice", "slice"), ("slice", "slice"), ("slice", "ndarray"),
                             ("slice", "slice"), ("slice", "slice")]),
        # every group one joint
        ("single_child", [("slice", "slice")] * 4 + [("none", "slice")] * 2),
        # the hand's links listed in reverse: 19, 14, 9, 4 off link 20
        ("descending", [("slice", "ndarray")] + [("none", "ndarray")] * 4),
        # parents 2, 1: gathered
        ("gathered", [("slice", "slice"), ("ndarray", "slice"), ("none", "slice")]),
        # parents 1, 1: one shared row
        ("shared_parent", [("slice", "slice"), ("slice", "slice"), ("none", "slice")]),
        ("chained", [("slice", "slice"), ("none", "slice"), ("none", "slice")]),
    ])
    def test_targets_and_bits(self, hand16, case, kinds):
        model = {
            "progression": lambda: hand16,
            "not_progression": lambda: parse_urdf(MIXED_DEPTH),
            "single_child": lambda: parse_urdf(PRISMATIC_MIMIC),
            "descending": lambda: relinked(hand16, range(len(hand16.links) - 1, -1, -1)),
            "gathered": lambda: two_level_tree([("b", "d"), ("a", "c")]),
            "shared_parent": lambda: two_level_tree([("a", "c"), ("a", "d")]),
            "chained": lambda: two_level_tree([("a", "c"), ("b", "d")]),
        }[case]()
        assert self.target_kinds(model) == kinds
        assert_targets_select_their_links(model)
        assert_fk_matches_reference(model, 20261021)
        assert_jacobian_matches_reference(model, 20261021)

    def test_hand16_slices(self, hand16):
        assert [g.write for g in hand16._fk_groups] == \
            [slice(k, k + 16, 5) for k in range(1, 6)]
        assert hand16._fk_groups[0].read == slice(0, 1)

    @given(urdf_trees(), st.integers(0, 2 ** 32 - 1))
    @example(ZERO_DOF, 12345)
    @settings(max_examples=40, deadline=None)
    def test_random_trees_and_link_orders(self, text, seed):
        # a random link order mixes rising, falling and scattered indices
        model = parse_urdf(text)
        order = np.random.default_rng(seed).permutation(len(model.links))
        for m in (model, relinked(model, order)):
            assert_targets_select_their_links(m)
            assert_fk_matches_reference(m, seed)
            assert_jacobian_matches_reference(m, seed)


class TestUncheckedCore:
    """``_link_origins``, which the validating ``link_origins_batch`` calls
    with its resolved rows, gives its values and Jacobian bit for bit."""

    @pytest.mark.parametrize("text", [None, PRISMATIC_MIMIC], ids=["hand16", "prismatic_mimic"])
    @pytest.mark.parametrize("b", [1, 5])
    def test_core_matches_the_validating_entry(self, hand16_urdf_text, text, b, rng):
        model = parse_urdf(text or hand16_urdf_text)
        lo, hi = model.limit_arrays()
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        root_t = np.array([0.1, -0.2, 0.45])
        names = model.links[::-2]
        idx, moves = robot_model._name_rows(model, names)
        for _ in range(5):
            qs = rng.uniform(lo, hi, size=(b, model.dof))
            # the core on a fresh model, so that neither side reads the other's memo
            fresh = parse_urdf(text or hand16_urdf_text)
            want = (link_origins_batch(model, qs, root_r, root_t, names),
                    *link_origins_batch(model, qs, root_r, root_t, names, jacobian=True))
            got = (robot_model._link_origins(fresh, qs, root_r, root_t, idx, moves, False),
                   *robot_model._link_origins(fresh, qs, root_r, root_t, idx, moves, True))
            for w, g in zip(want, got):
                assert g.flags["C_CONTIGUOUS"]
                assert g.tobytes() == w.tobytes()


class TestJacobianBitOracle:
    """The closed-form Jacobian equals its ``np.cross`` reference bit for bit."""

    @given(urdf_trees(), st.integers(0, 2 ** 32 - 1))
    @example(ZERO_DOF, 12345)
    @example(DEEP_MIMIC_FIRST, 0)
    @example(FRACTIONAL_MIMIC_CHAIN, 0)
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, text, seed):
        assert_jacobian_matches_reference(parse_urdf(text), seed)

    @pytest.mark.parametrize("text", [MIXED_DEPTH, ZERO_DOF, PRISMATIC_MIMIC],
                             ids=["mixed_depth", "zero_dof", "prismatic_mimic"])
    def test_fixed_trees(self, text):
        assert_jacobian_matches_reference(parse_urdf(text), 20261019)

    def test_hand16(self, hand16):
        assert_jacobian_matches_reference(hand16, 20261019)


PRISMATIC_ONLY = ONE_JOINT.replace('type="revolute"', 'type="prismatic"')


class TestJointStack:
    """Every moving joint's constants are stacked once, in ``_fk_groups`` order."""

    @staticmethod
    def expected_columns(model):
        """Per moving joint in group order, derived from the public joint
        data as ``reference_origins_jacobian`` derives them: q index,
        multiplier, offset, axis, child link index, prismatic flag, its row
        of dq and its column of the moves mask."""
        q_index = {name: i for i, name in enumerate(model.actuated_order)}
        by_child = {j.child: j for j in model.joints}

        def path(link):
            # the joints between the root and the link: those that move it
            names = set()
            while link in by_child:
                names.add(by_child[link].name)
                link = by_child[link].parent
            return names

        paths = [path(name) for name in model.links]
        cols = {key: [] for key in ("q_index", "mult", "off", "axis", "child", "prismatic",
                                    "dq", "moves")}
        for g in model._fk_groups:
            if g.kind == "fixed":
                continue
            for c in g.children:
                j = by_child[model.links[c]]
                src, mult, off = (j.mimic.source, j.mimic.multiplier, j.mimic.offset) \
                    if j.mimic else (j.name, 1.0, 0.0)
                for key, value in (
                        ("q_index", q_index[src]), ("mult", mult), ("off", off),
                        ("axis", j.axis), ("child", c), ("prismatic", j.jtype == "prismatic"),
                        ("dq", [mult if i == q_index[src] else 0.0 for i in range(model.dof)]),
                        ("moves", [float(j.name in p) for p in paths])):
                    cols[key].append(value)
        return cols

    @pytest.mark.parametrize("text", [None, MIXED_DEPTH, PRISMATIC_MIMIC, ZERO_DOF,
                                      PRISMATIC_ONLY],
                             ids=["hand16", "mixed_depth", "prismatic_mimic", "zero_dof",
                                  "prismatic_only"])
    def test_stack_follows_group_order(self, hand16, text):
        model = hand16 if text is None else parse_urdf(text)
        stack = model._stack
        cols = self.expected_columns(model)
        n = len(cols["child"])
        for key in ("q_index", "mult", "off", "child"):
            assert getattr(stack, key).tolist() == cols[key], key
        assert stack.prismatic.reshape(-1).tolist() == cols["prismatic"]
        assert stack.axis.shape == (n, 3, 1)
        assert stack.k.shape == stack.k2.shape == (n, 3, 3)
        for axis, k, a in zip(stack.axis, stack.k, cols["axis"]):
            assert np.array_equal(axis[:, 0], a)
            # the cross-product matrix: k @ v == a x v
            assert np.array_equal(k, [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]],
                                      [-a[1], a[0], 0.0]])
        assert np.array_equal(stack.k2, stack.k @ stack.k)
        assert np.array_equal(stack.eye, np.eye(3))
        # the Jacobian's derivative in q and the links each joint moves
        assert stack.dq.shape == (n, model.dof)
        assert stack.dq.tolist() == cols["dq"]
        assert stack.moves.shape == (len(model.links), n, 1)
        assert stack.moves[..., 0].T.tolist() == cols["moves"]
        # each moving group holds its slice, a fixed group an empty one;
        # the slices tile the stack in group order
        start = 0
        for g in model._fk_groups:
            size = len(g.children) if g.kind != "fixed" else 0
            assert (g.rows.start, g.rows.stop) == (start, start + size)
            start += size
        assert start == n

    @pytest.mark.parametrize("text, joint, source, mult, off", [
        (PRISMATIC_MIMIC, "follow", "spin", -0.7, 0.2),
        (MIXED_DEPTH, "hinge_copy", "hinge", -1.3, 0.25),
        (PRISMATIC_MIMIC, "extend", "slide", 1.5, -0.05),
        (MIXED_DEPTH, "slide_copy", "slide", 0.5, -0.01),
    ], ids=["prismatic_mimic", "mixed_depth", "prismatic_mimic_slider", "mixed_depth_slider"])
    def test_mimic_lands_in_its_slot(self, text, joint, source, mult, off):
        model = parse_urdf(text)
        j = next(j for j in model.joints if j.name == joint)
        child = model.links.index(j.child)
        kind = "prismatic" if j.jtype == "prismatic" else "rotary"
        (g,) = [g for g in model._fk_groups if g.kind == kind and child in g.children]
        slot = g.rows.start + g.children.tolist().index(child)
        stack = model._stack
        src = model.actuated_order.index(source)
        assert (stack.q_index[slot], stack.mult[slot], stack.off[slot]) == (src, mult, off)
        assert stack.child[slot] == child
        assert stack.prismatic[slot, 0] == (kind == "prismatic")
        # its derivative lands on its source's q, with its multiplier
        assert stack.dq[slot].tolist() == [mult if i == src else 0.0 for i in range(model.dof)]

    @pytest.mark.parametrize("text", [ZERO_DOF, PRISMATIC_ONLY],
                             ids=["zero_dof", "prismatic_only"])
    def test_no_rotary_joint_builds_an_empty_or_prismatic_stack(self, text):
        model = parse_urdf(text)
        n = sum(j.jtype == "prismatic" for j in model.joints)
        assert model._stack.q_index.shape == (n,)
        assert model._stack.k.shape == (n, 3, 3)
        assert model._stack.prismatic.all()
        assert_fk_matches_reference(model, 20261019)
        assert_jacobian_matches_reference(model, 20261019)


class TestFkMemo:
    """A model keeps its last two FK passes, keyed by the exact bytes of
    the configurations and the root pose; a repeat gives the same bits a
    new pass would."""

    ROOT_R = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
    ROOT_T = np.array([0.1, -0.2, 0.45])

    @staticmethod
    def counted_passes(monkeypatch):
        """The configurations of every ``_fk_batch`` pass, as bytes."""
        passes = []
        fk = robot_model._fk_batch

        def counted(model, qs, root_r, root_t):
            passes.append(qs.tobytes())
            return fk(model, qs, root_r, root_t)

        monkeypatch.setattr(robot_model, "_fk_batch", counted)
        return passes

    @pytest.mark.parametrize("text", [None, PRISMATIC_MIMIC], ids=["hand16", "prismatic_mimic"])
    def test_hits_and_misses_match_a_direct_pass(self, hand16_urdf_text, text, rng,
                                                 monkeypatch):
        model = parse_urdf(text or hand16_urdf_text)
        lo, hi = model.limit_arrays()
        a, b, c = (rng.uniform(lo, hi, size=(3, model.dof)) for _ in range(3))
        passes = self.counted_passes(monkeypatch)
        names = model.links[::-1]
        # miss, miss, hit (the older entry), miss (evicts b), hit, hit
        for qs, hit in ((a, False), (b, False), (a, True), (c, False), (a, True), (c, True)):
            before = len(passes)
            origins, jac = link_origins_batch(model, qs, self.ROOT_R, self.ROOT_T, names,
                                              jacobian=True)
            assert len(passes) == before + (not hit)
            _, trans = _fk_batch(model, qs, self.ROOT_R, self.ROOT_T)
            ref_origins, ref_jac = reference_origins_jacobian(
                model, qs, self.ROOT_R, self.ROOT_T, names)
            assert origins.tobytes() == np.take(trans, [model.links.index(n) for n in names],
                                                axis=1).tobytes()
            assert origins.tobytes() == ref_origins.tobytes()
            assert jac.tobytes() == ref_jac.tobytes()
            # the layout TestBatchShape asserts holds on a hit too
            assert origins.flags["C_CONTIGUOUS"] and jac.flags["C_CONTIGUOUS"]
            assert len(model._fk_memo) <= 2

    def test_signed_zero_and_root_pose_are_part_of_the_key(self, hand16_urdf_text,
                                                           monkeypatch):
        model = parse_urdf(hand16_urdf_text)
        passes = self.counted_passes(monkeypatch)
        q = np.zeros(model.dof)
        negative = q.copy()
        negative[3] = -0.0
        root_r = self.ROOT_R.copy()
        root_r[0, 0] = np.nextafter(root_r[0, 0], 1.0)
        root_t = self.ROOT_T.copy()
        root_t[2] = np.nextafter(root_t[2], 1.0)
        calls = [(q, self.ROOT_R, self.ROOT_T), (negative, self.ROOT_R, self.ROOT_T),
                 (q, root_r, self.ROOT_T), (q, self.ROOT_R, root_t)]
        for i, (qi, r, t) in enumerate(calls):
            link_origins(model, qi, r, t, ["index_tip"])
            assert len(passes) == i + 1
            assert len(model._fk_memo) == min(i + 1, 2)
        # the same values again, as a list and a new array: a hit
        link_origins(model, q.copy(), self.ROOT_R, self.ROOT_T.tolist(), ["index_tip"])
        link_origins(model, q.copy(), self.ROOT_R, self.ROOT_T.tolist(), ["index_tip"])
        assert len(passes) == 5

    def test_changing_a_result_leaves_the_next_call_unchanged(self, hand16_urdf_text, rng):
        model = parse_urdf(hand16_urdf_text)
        qs = rng.uniform(*model.limit_arrays(), size=(2, model.dof))
        names = ["index_tip", "palm"]
        origins, jac = link_origins_batch(model, qs, EYE, ZERO, names, jacobian=True)
        kept = origins.copy(), jac.copy()
        origins[:] = 7.0
        jac[:] = 7.0
        again = link_origins_batch(model, qs, EYE, ZERO, names, jacobian=True)
        assert again[0].tobytes() == kept[0].tobytes()
        assert again[1].tobytes() == kept[1].tobytes()
        assert link_origins_batch(model, qs, EYE, ZERO, names).tobytes() == kept[0].tobytes()

    def test_one_frame_solve_runs_one_pass_per_distinct_point(self, hand16_urdf_text, spec16,
                                                              rng, monkeypatch):
        model = parse_urdf(hand16_urdf_text)
        lo, hi = model.limit_arrays()
        names = spec16.robot_links()
        origins = link_origins(model, 0.3 * model.mid_limits() + 0.7 * hi, EYE, ZERO, names)
        pos = dict(zip(names, origins))
        ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
        passes = self.counted_passes(monkeypatch)
        points, gradient_passes = [], []
        solve = retarget.minimize_box

        def recorded(problem, x0, opts, pairs=()):
            def objective(q):
                points.append(q.tobytes())
                return problem.objective(q)

            def gradient(q):
                points.append(q.tobytes())
                before = len(passes)
                g = problem.gradient(q)
                gradient_passes.append(len(passes) - before)
                return g

            return solve(BoxProblem(problem.lower, problem.upper, objective, gradient), x0, opts,
                         pairs)

        monkeypatch.setattr(retarget, "minimize_box", recorded)
        mid = model.mid_limits()
        _, report = retarget_frame(model, ref, spec16, RigidTransform.identity(), mid, mid,
                                   RetargetConfig())
        assert report.iterations > 0 and len(gradient_passes) == report.iterations + 1
        # every gradient reuses its point's pass, and no point runs twice
        assert gradient_passes == [0] * len(gradient_passes)
        assert len(passes) == len(set(passes)) == len(set(points)) < len(points)
        assert set(passes) == set(points)

    def test_unknown_link_raises_on_every_call(self, hand16):
        q = hand16.mid_limits()
        assert link_origins(hand16, q, EYE, ZERO, ["index_tip"]).shape == (1, 3)
        for _ in range(3):
            with pytest.raises(InvalidArgumentError, match="unknown link 'ghost'"):
                link_origins(hand16, q, EYE, ZERO, ["index_tip", "ghost"])
            with pytest.raises(InvalidArgumentError, match="unknown link 'ghost'"):
                link_origins_batch(hand16, q[None], EYE, ZERO, ("ghost",), jacobian=True)
        assert link_origins(hand16, q, EYE, ZERO, ("index_tip",)).shape == (1, 3)
