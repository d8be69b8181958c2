import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexretarget.errors import (
    DataParseError,
    InvalidArgumentError,
    UrdfStructureError,
    UrdfValidationError,
)
from dexretarget.geometry import RigidTransform, Rotation
from dexretarget.retarget import RetargetConfig, retarget_problem
from dexretarget.robot_model import (
    clamp_to_limits,
    forward_kinematics,
    link_origins,
    link_origins_batch,
    numeric_jacobian,
    parse_urdf,
    serialize_urdf,
)
from dexretarget.solver import batch_objective, fd_gradient

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
        frames = forward_kinematics(model, np.array([0.6]))
        # follower angle = 0.5 * 0.6 + 0.1 = 0.4
        expected_angle = 0.4
        m = frames.rotation_matrix("b")
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

    def test_serialize_round_trip(self, hand16, hand16_urdf_text):
        again = parse_urdf(serialize_urdf(hand16))
        assert again.links == hand16.links
        assert again.actuated_order == hand16.actuated_order
        for a, b in zip(again.joints, hand16.joints):
            assert a.name == b.name and a.jtype == b.jtype
            assert a.parent == b.parent and a.child == b.child
            np.testing.assert_allclose(a.axis, b.axis, atol=1e-10)
            np.testing.assert_allclose(a.origin.translation, b.origin.translation, atol=1e-10)
            assert a.origin.rotation.angle_to(b.origin.rotation) < 1e-10
            assert a.limits == b.limits

    def test_unsupported_joint_type(self):
        bad = ONE_JOINT.replace('type="revolute"', 'type="floating"')
        with pytest.raises(UrdfValidationError):
            parse_urdf(bad)


class TestForwardKinematics:
    def test_zero_config(self):
        model = parse_urdf(ONE_JOINT)
        frames = forward_kinematics(model, np.zeros(1))
        np.testing.assert_allclose(frames.origin("tip"), [1.0, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        model = parse_urdf(ONE_JOINT)
        frames = forward_kinematics(model, np.array([np.pi / 2]))
        np.testing.assert_allclose(frames.origin("tip"), [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_matrix_oracle(self, rng):
        text, info = random_chain_urdf(rng, n_joints=3)
        model = parse_urdf(text)
        for _ in range(10):
            q = rng.uniform(-2, 2, size=3)
            frames = forward_kinematics(model, q)
            oracle = homogeneous_chain_oracle(info, q)
            for i in range(4):
                np.testing.assert_allclose(
                    frames.origin(f"link{i}"), oracle[i][:3, 3], atol=1e-12
                )
                np.testing.assert_allclose(
                    frames.rotation_matrix(f"link{i}"), oracle[i][:3, :3], atol=1e-12
                )

    def test_root_pose_equivariance(self, hand16, rng):
        q = rng.uniform(-0.2, 0.8, size=16)
        pose = RigidTransform(Rotation.from_axis_angle(rng.normal(size=3), 1.1),
                              rng.normal(size=3))
        at_pose = forward_kinematics(hand16, q, pose)
        at_identity = forward_kinematics(hand16, q)
        for link in hand16.links:
            expected = pose @ at_identity[link]
            np.testing.assert_allclose(
                at_pose.origin(link), expected.translation, atol=1e-12
            )
            np.testing.assert_allclose(
                at_pose.rotation_matrix(link), expected.rotation.as_matrix(), atol=1e-12
            )

    def test_root_maps_to_identity(self, hand16):
        frames = forward_kinematics(hand16, np.zeros(16))
        np.testing.assert_array_equal(frames.origin("palm"), np.zeros(3))
        np.testing.assert_array_equal(frames.rotation_matrix("palm"), np.eye(3))

    def test_length_mismatch(self, hand16):
        with pytest.raises(InvalidArgumentError):
            forward_kinematics(hand16, np.zeros(3))

    def test_prismatic(self):
        text = ONE_JOINT.replace('type="revolute"', 'type="prismatic"') \
                        .replace('<axis xyz="0 0 1"/>', '<axis xyz="1 0 0"/>')
        model = parse_urdf(text)
        frames = forward_kinematics(model, np.array([0.25]))
        np.testing.assert_allclose(frames.origin("tip"), [1.25, 0.0, 0.0], atol=1e-15)


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

    def test_tips_match_frameset(self, hand16, rng):
        q = rng.uniform(0, 0.5, size=16)
        frames = forward_kinematics(hand16, q)
        tips = link_origins(hand16, q, np.eye(3), np.zeros(3), ["index_tip"])
        np.testing.assert_allclose(tips[0], frames.origin("index_tip"))


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


class TestNumericJacobian:
    def test_revolute_tangent(self):
        model = parse_urdf(ONE_JOINT)
        jac = numeric_jacobian(model, np.zeros(1), "tip")
        np.testing.assert_allclose(jac[:, 0], [0.0, 1.0, 0.0], atol=1e-9)

    def test_prismatic_exact(self):
        text = ONE_JOINT.replace('type="revolute"', 'type="prismatic"') \
                        .replace('<axis xyz="0 0 1"/>', '<axis xyz="1 0 0"/>')
        model = parse_urdf(text)
        jac = numeric_jacobian(model, np.zeros(1), "tip")
        np.testing.assert_allclose(jac[:, 0], [1.0, 0.0, 0.0], atol=1e-9)

    def test_matches_richardson_extrapolation(self, rng):
        text, _ = random_chain_urdf(rng, n_joints=4)
        model = parse_urdf(text)
        q = rng.uniform(-1, 1, size=4)
        jac = numeric_jacobian(model, q, "link4", eps=1e-6)

        def origin(qv):
            return link_origins(model, qv, np.eye(3), np.zeros(3), ["link4"])[0]

        # Richardson: D(h) = (4 D_c(h/2) - D_c(h)) / 3 with h = 1e-4
        h = 1e-4
        richardson = np.empty((3, 4))
        for i in range(4):
            def central(step):
                qp, qm = q.copy(), q.copy()
                qp[i] += step
                qm[i] -= step
                return (origin(qp) - origin(qm)) / (2 * step)
            richardson[:, i] = (4 * central(h / 2) - central(h)) / 3
        np.testing.assert_allclose(jac, richardson, atol=1e-5)

    def test_unknown_link(self, hand16):
        with pytest.raises(InvalidArgumentError):
            numeric_jacobian(hand16, np.zeros(16), "ghost")

    def test_invalid_eps(self, hand16):
        with pytest.raises(InvalidArgumentError):
            numeric_jacobian(hand16, np.zeros(16), "palm", eps=0.0)


class TestBatchShape:
    """A batched evaluation is bit-identical whatever the batch shape."""

    @pytest.mark.parametrize("which", ["hand16", "prismatic_mimic"])
    @pytest.mark.parametrize("batch", ["one", "two_dof", "odd"])
    def test_rows_match_single_configuration(self, which, batch, hand16, rng):
        model = hand16 if which == "hand16" else parse_urdf(PRISMATIC_MIMIC)
        b = {"one": 1, "two_dof": 2 * model.dof, "odd": 37}[batch]
        lo, hi = model.limit_arrays()
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        root_t = np.array([0.1, -0.2, 0.45])
        for _ in range(4):
            qs = rng.uniform(lo, hi, size=(b, model.dof))
            batched = link_origins_batch(model, qs, root_r, root_t, model.links)
            for row, q in zip(batched, qs):
                single = link_origins(model, q, root_r, root_t, model.links)
                assert np.array_equal(row, single)

    def test_retarget_fd_gradient_matches_row_by_row(self, hand16, spec16, rng):
        lo, hi = hand16.limit_arrays()
        names = spec16.robot_links()
        wrist = RigidTransform(Rotation.from_axis_angle([1.0, 0.2, -0.4], 0.6),
                               np.array([0.02, -0.05, 0.4]))
        origins = link_origins(hand16, rng.uniform(lo, hi), np.eye(3), np.zeros(3), names)
        pos = dict(zip(names, origins))
        ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
        cfg = RetargetConfig()
        problem = retarget_problem(hand16, ref, spec16, wrist, hand16.mid_limits(), cfg)
        lifted = batch_objective(problem.objective)
        for _ in range(5):
            q = rng.uniform(lo, hi)
            assert np.array_equal(problem.gradient(q),
                                  fd_gradient(lifted, q, cfg.solver.fd_eps))


_decimal = st.integers(-300, 300).map(lambda k: k / 1000.0)
_angle = st.integers(-150, 150).map(lambda k: k / 100.0)
_axis = st.tuples(*[st.integers(-10, 10).map(lambda k: k / 10.0)] * 3).filter(any)


@st.composite
def urdf_trees(draw):
    """URDF text for a random kinematic tree: each joint hangs off any
    earlier link (so trees branch) and is revolute, prismatic, continuous
    or fixed; an actuated joint may mimic an earlier actuated one."""
    n = draw(st.integers(1, 7))
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


class TestRandomTrees:
    """Random trees through serialize_urdf and back (property tests)."""

    @given(urdf_trees(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_and_round_trip(self, text, seed):
        model = parse_urdf(text)
        again = parse_urdf(serialize_urdf(model))
        assert again.links == model.links
        assert again.actuated_order == model.actuated_order
        lo, hi = model.limit_arrays()
        qs = np.random.default_rng(seed).uniform(lo, hi, size=(2 * model.dof + 3, model.dof))
        root_r = Rotation.from_axis_angle([0.3, -1.0, 0.5], 0.8).as_matrix()
        root_t = np.array([0.1, -0.2, 0.45])
        for m in (model, again):
            batched = link_origins_batch(m, qs, root_r, root_t, m.links)
            for row, q in zip(batched, qs):
                assert np.array_equal(row, link_origins(m, q, root_r, root_t, m.links))
        before = link_origins_batch(model, qs, root_r, root_t, model.links)
        after = link_origins_batch(again, qs, root_r, root_t, model.links)
        assert np.max(np.abs(after - before)) <= 1e-12
