import logging

import numpy as np
import pytest

from dexretarget.alignment import HandAlignment
from dexretarget.errors import InvalidArgumentError
from dexretarget.geometry import RigidTransform, Rotation
from dexretarget.hand_model import (
    FingerMapping,
    HandFrame,
    TaxonomyClass,
    TaxonomyWeightTable,
    VectorPair,
    VectorSpec,
    reference_vectors,
)
from dexretarget.retarget import (
    ContactTargets,
    RetargetConfig,
    RobotTrajectory,
    RobotTrajectoryFrame,
    assemble_grasp_plan,
    contact_loss,
    contacts_from_hand,
    refine_contact,
    retarget_frame,
    retarget_trajectory,
    vector_matching_loss,
    wrist_correction_step,
)
from dexretarget.robot_model import link_origins, parse_urdf
from dexretarget.solver import SolverOptions
from dexretarget.synthetic import canonical_hand_joints

ONE_JOINT = """
<robot name="one">
  <link name="base"/>
  <link name="arm"/>
  <link name="tip"/>
  <joint name="spin" type="revolute">
    <parent link="base"/>
    <child link="arm"/>
    <axis xyz="0 0 1"/>
    <limit lower="-1" upper="1" effort="1" velocity="1"/>
  </joint>
  <joint name="tip_mount" type="fixed">
    <parent link="arm"/>
    <child link="tip"/>
    <origin xyz="1 0 0"/>
  </joint>
</robot>
"""


def ref_from_q(model, spec, q, wrist=None):
    """FK oracle: reference vectors realizable exactly at q."""
    if wrist is None:
        root_r, root_t = np.eye(3), np.zeros(3)
    else:
        root_r, root_t = wrist.rotation.as_matrix(), wrist.translation
    names = spec.robot_links()
    origins = link_origins(model, q, root_r, root_t, names)
    pos = {n: origins[i] for i, n in enumerate(names)}
    return np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec.pairs])


def interior_q(model, rng, margin=0.05):
    lo, hi = model.limit_arrays()
    pad = margin * (hi - lo)
    return rng.uniform(lo + pad, hi - pad)


def hand_frame_at(offset=(0.0, 0.0, 0.45), curl=0.4, index=0, contacts=None):
    joints = canonical_hand_joints(curl) + np.asarray(offset)
    return HandFrame(joints=joints,
                     wrist_pose=RigidTransform(Rotation.identity(), joints[0]),
                     frame_index=index, contacts=contacts)


class TestVectorMatchingLoss:
    def test_zero_at_exact_match(self, hand16, spec16, rng):
        q = interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, q)
        cfg = RetargetConfig()
        assert vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                    spec16, cfg) == 0.0

    def test_single_pair_quadratic_branch(self):
        model = parse_urdf(ONE_JOINT)
        spec = VectorSpec([VectorPair(human=(0, 4), robot=("base", "tip"),
                                      group="wrist-to-tip")])
        cfg = RetargetConfig(huber_delta=0.02)
        ref = ref_from_q(model, spec, np.zeros(1))
        ref[0] += np.array([0.01, 0.0, 0.0])  # offset by 1 cm
        loss = vector_matching_loss(model, np.zeros(1), RigidTransform.identity(),
                                    ref, spec, cfg)
        assert loss == pytest.approx(0.5 * 0.01 ** 2, rel=1e-12)

    def test_zero_weight_annihilates_residual(self, hand16, spec16, rng):
        q = interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, q)
        ref[3] += 100.0  # corrupt one vector
        w = np.ones(spec16.n_vec)
        w[3] = 0.0
        cfg = RetargetConfig(weights=w)
        assert vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                    spec16, cfg) == 0.0

    def test_wrong_ref_count(self, hand16, spec16):
        cfg = RetargetConfig()
        with pytest.raises(InvalidArgumentError):
            vector_matching_loss(hand16, hand16.mid_limits(),
                                 RigidTransform.identity(),
                                 np.zeros((3, 3)), spec16, cfg)

    def test_uniform_taxonomy_table_matches_unweighted(self, hand16, spec16, rng):
        from dexretarget.hand_model import taxonomy_weights
        q = interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        plain = vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                     spec16, RetargetConfig())
        w = taxonomy_weights(TaxonomyClass.TRIPOD, spec16,
                             TaxonomyWeightTable.uniform())
        uniform = vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                       spec16, RetargetConfig(weights=w))
        assert plain == uniform


class TestRetargetFrame:
    def test_fk_round_trip(self, hand16, spec16, rng):
        cfg = RetargetConfig(lambda_smooth=0.0)
        mid = hand16.mid_limits()
        for _ in range(5):
            q_star = interior_q(hand16, rng)
            ref = ref_from_q(hand16, spec16, q_star)
            q, report = retarget_frame(hand16, ref, spec16,
                                       RigidTransform.identity(), mid, mid, cfg)
            loss = vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                        spec16, cfg)
            assert loss < 1e-6

    def test_dominant_smoothness_pins_previous(self, hand16, spec16, rng):
        q_prev = interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        cfg = RetargetConfig(lambda_smooth=1e9)
        q, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                              q_prev, q_prev, cfg)
        assert np.abs(q - q_prev).max() < 1e-4

    def test_unreachable_target_saturates_limit(self):
        model = parse_urdf(ONE_JOINT)
        spec = VectorSpec([VectorPair(human=(0, 4), robot=("base", "tip"),
                                      group="wrist-to-tip")])
        # demand the tip at an angle beyond the +1 rad limit
        ref = np.array([[np.cos(1.5), np.sin(1.5), 0.0]])
        cfg = RetargetConfig(lambda_smooth=0.0)
        q, _ = retarget_frame(model, ref, spec, RigidTransform.identity(),
                              np.zeros(1), np.zeros(1), cfg)
        assert q[0] == pytest.approx(1.0, abs=1e-9)

    def test_solution_feasible(self, hand16, spec16, rng):
        lo, hi = hand16.limit_arrays()
        cfg = RetargetConfig()
        for _ in range(5):
            ref = ref_from_q(hand16, spec16, interior_q(hand16, rng)) * 2.0
            q, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                                  hand16.mid_limits(), hand16.mid_limits(), cfg)
            assert np.all(q >= lo - 1e-9) and np.all(q <= hi + 1e-9)

    def test_zero_weight_bitwise_independence(self, hand16, spec16, rng):
        w = np.ones(spec16.n_vec)
        w[5] = 0.0
        cfg = RetargetConfig(lambda_smooth=0.0, weights=w)
        mid = hand16.mid_limits()
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        q_a, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                                mid, mid, cfg)
        ref_perturbed = ref.copy()
        ref_perturbed[5] = rng.normal(size=3) * 17.0
        q_b, _ = retarget_frame(hand16, ref_perturbed, spec16,
                                RigidTransform.identity(), mid, mid, cfg)
        np.testing.assert_array_equal(q_a, q_b)

    def test_smoothness_monotonicity(self, hand16, spec16, rng):
        q_prev = hand16.mid_limits()
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        steps = []
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
            cfg = RetargetConfig(lambda_smooth=lam)
            q, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                                  q_prev, q_prev, cfg)
            steps.append(float(np.linalg.norm(q - q_prev)))
        for a, b in zip(steps, steps[1:]):
            assert b <= a + 1e-9


class TestRetargetTrajectory:
    def identity_alignments(self, n):
        return [HandAlignment(k, 1.0, RigidTransform.identity(), 0.0, 0.0, True)
                for k in range(n)]

    def test_single_frame(self, hand16, mapping16, spec16):
        hands = [hand_frame_at()]
        cfg = RetargetConfig(scale=1.0)
        traj = retarget_trajectory(hand16, hands, self.identity_alignments(1),
                                   mapping16, spec16, TaxonomyClass.MEDIUM_WRAP,
                                   TaxonomyWeightTable.default(), cfg)
        assert len(traj) == 1

    def test_constant_hand_stationary(self, hand16, mapping16, spec16):
        hands = [hand_frame_at(index=k) for k in range(10)]
        cfg = RetargetConfig(scale=1.0)
        traj = retarget_trajectory(hand16, hands, self.identity_alignments(10),
                                   mapping16, spec16, TaxonomyClass.MEDIUM_WRAP,
                                   TaxonomyWeightTable.default(), cfg)
        q0 = traj.frames[0].q
        for frame in traj.frames[1:]:
            assert np.abs(frame.q - q0).max() < 1e-6

    def test_closing_sequence_tracks_generator(self, hand16, spec16):
        # generator oracle: robot-feasible reference vectors from FK along a
        # synthetic closing curve in joint space
        lo, hi = hand16.limit_arrays()
        open_q = lo + 0.3 * (hi - lo)
        closed_q = lo + 0.7 * (hi - lo)
        n = 6
        q_curve = [open_q + (closed_q - open_q) * k / (n - 1) for k in range(n)]
        gen_step = np.abs(q_curve[1] - q_curve[0]).max()
        # tiny smoothness: breaks redundancy ties without lagging the track
        cfg = RetargetConfig(lambda_smooth=1e-6)
        wrist = RigidTransform.identity()
        q_prev = hand16.mid_limits()
        solutions = []
        for k, q_star in enumerate(q_curve):
            ref = ref_from_q(hand16, spec16, q_star)
            frame_cfg = cfg if k > 0 else RetargetConfig(lambda_smooth=0.0)
            q, _ = retarget_frame(hand16, ref, spec16, wrist, q_prev, q_prev,
                                  frame_cfg)
            loss = vector_matching_loss(hand16, q, wrist, ref, spec16, cfg)
            assert loss < 1e-4
            solutions.append(q)
            q_prev = q
        steps = [np.abs(b - a).max() for a, b in zip(solutions, solutions[1:])]
        assert max(steps) <= gen_step * 1.5

    def test_human_closing_hand_bounded_loss(self, hand16, mapping16, spec16):
        # real human geometry: the residual floor is the embodiment gap
        curls = np.linspace(0.2, 0.7, 6)
        hands = [hand_frame_at(curl=c, index=k) for k, c in enumerate(curls)]
        cfg = RetargetConfig(scale=1.0, lambda_smooth=0.001)
        traj = retarget_trajectory(hand16, hands, self.identity_alignments(6),
                                   mapping16, spec16, TaxonomyClass.MEDIUM_WRAP,
                                   TaxonomyWeightTable.uniform(), cfg)
        for hand, frame in zip(hands, traj.frames):
            ref = reference_vectors(hand, spec16, cfg.scale)
            loss = vector_matching_loss(hand16, frame.q, frame.wrist_pose, ref,
                                        spec16, RetargetConfig(scale=1.0))
            assert loss < 1e-3
        steps = [np.abs(b.q - a.q).max()
                 for a, b in zip(traj.frames, traj.frames[1:])]
        assert max(steps) < 0.5  # bounded inter-frame motion

    def test_applies_alignment_correction(self, hand16, mapping16, spec16):
        hands = [hand_frame_at()]
        sigma = 1.2
        corr = RigidTransform(Rotation.from_axis_angle([0, 0, 1], 0.1),
                              np.array([0.01, 0.0, 0.0]))
        aligns = [HandAlignment(0, sigma, corr, 0.0, 0.0, True)]
        cfg = RetargetConfig(scale=1.0)
        traj = retarget_trajectory(hand16, hands, aligns, mapping16, spec16,
                                   TaxonomyClass.MEDIUM_WRAP,
                                   TaxonomyWeightTable.default(), cfg)
        expected = hands[0].transformed(sigma, corr).wrist_pose
        np.testing.assert_allclose(traj.frames[0].wrist_pose.translation,
                                   expected.translation, atol=1e-12)

    def test_unconverged_solve_is_logged_with_its_frame(self, hand16, mapping16, spec16,
                                                         caplog):
        hands = [hand_frame_at(index=k, curl=0.2 + 0.1 * k) for k in (3, 4)]
        cfg = RetargetConfig(scale=1.0, solver=SolverOptions(max_iters=1))
        with caplog.at_level(logging.DEBUG, logger="dexretarget.retarget"):
            retarget_trajectory(hand16, hands, self.identity_alignments(2), mapping16,
                                spec16, TaxonomyClass.MEDIUM_WRAP,
                                TaxonomyWeightTable.default(), cfg)
        lines = [r.getMessage() for r in caplog.records]
        for k in (3, 4):
            assert any(line.startswith(f"frame {k}: retarget") and
                       "termination=max-iters converged=False" in line for line in lines)

    def test_count_mismatch(self, hand16, mapping16, spec16):
        with pytest.raises(InvalidArgumentError):
            retarget_trajectory(hand16, [hand_frame_at()], [], mapping16, spec16,
                                TaxonomyClass.MEDIUM_WRAP,
                                TaxonomyWeightTable.default(), RetargetConfig())


class TestContactLoss:
    def digits(self):
        return ("thumb", "index", "middle", "ring")

    def tips_at(self, model, mapping, q, wrist):
        links = [mapping.entries[d] for d in self.digits()]
        return link_origins(model, q, wrist.rotation.as_matrix(),
                            wrist.translation, links)

    def test_zero_at_current_tips(self, hand16, mapping16):
        q = hand16.mid_limits()
        wrist = RigidTransform.identity()
        tips = self.tips_at(hand16, mapping16, q, wrist)
        contacts = ContactTargets(active=self.digits(),
                                  targets=dict(zip(self.digits(), tips)),
                                  lambda_init=0.1, alternations=3)
        assert contact_loss(hand16, q, wrist, mapping16, contacts) == 0.0

    def test_single_digit_offset(self, hand16, mapping16):
        q = hand16.mid_limits()
        wrist = RigidTransform.identity()
        tips = self.tips_at(hand16, mapping16, q, wrist)
        target = tips[0] + np.array([0.03, 0.0, 0.0])
        contacts = ContactTargets(active=("thumb",), targets={"thumb": target},
                                  lambda_init=0.1, alternations=3)
        assert contact_loss(hand16, q, wrist, mapping16, contacts) == \
            pytest.approx(9e-4, rel=1e-12)

    def test_two_digit_mean(self, hand16, mapping16):
        q = hand16.mid_limits()
        wrist = RigidTransform.identity()
        tips = self.tips_at(hand16, mapping16, q, wrist)
        contacts = ContactTargets(
            active=("thumb", "index"),
            targets={"thumb": tips[0] + [0.01, 0, 0],
                     "index": tips[1] + [0.03, 0, 0]},
            lambda_init=0.1, alternations=3,
        )
        assert contact_loss(hand16, q, wrist, mapping16, contacts) == \
            pytest.approx((1e-4 + 9e-4) / 2, rel=1e-12)

    def test_empty_active_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ContactTargets(active=(), targets={}, lambda_init=0.1, alternations=3)


class TestWristCorrectionStep:
    def test_recovers_rigid_displacement(self, hand16, mapping16, rng):
        digits = ("thumb", "index", "middle", "ring")
        q = hand16.mid_limits()
        wrist = RigidTransform.identity()
        links = [mapping16.entries[d] for d in digits]
        tips = link_origins(hand16, q, np.eye(3), np.zeros(3), links)
        gen = RigidTransform(Rotation.from_axis_angle(rng.normal(size=3), 0.2),
                             rng.normal(size=3) * 0.05)
        contacts = ContactTargets(active=digits,
                                  targets={d: gen.apply(t)
                                           for d, t in zip(digits, tips)},
                                  lambda_init=0.1, alternations=3)
        step = wrist_correction_step(hand16, q, wrist, mapping16, contacts)
        assert step.rotation.angle_to(gen.rotation) < 1e-6
        assert np.linalg.norm(step.translation - gen.translation) < 1e-6
        # one wrist step zeroes the loss
        after = contact_loss(hand16, q, step.compose(wrist), mapping16, contacts)
        assert after < 1e-10


class TestRefineContact:
    def digits(self):
        return ("thumb", "index", "middle", "ring")

    def make_reachable(self, model, mapping, rng, q0=None,
                       max_step_deg=15.0, lam=1e-5):
        lo, hi = model.limit_arrays()
        if q0 is None:
            q0 = np.clip(model.mid_limits() + rng.uniform(-0.2, 0.2, model.dof),
                         lo, hi)
        wrist = RigidTransform(
            Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(0, 0.4)),
            rng.normal(size=3) * 0.1,
        )
        dq = rng.uniform(-np.radians(max_step_deg), np.radians(max_step_deg),
                         model.dof)
        q_target = np.clip(q0 + dq, lo, hi)
        links = [mapping.entries[d] for d in self.digits()]
        tips = link_origins(model, q_target, wrist.rotation.as_matrix(),
                            wrist.translation, links)
        contacts = ContactTargets(active=self.digits(),
                                  targets=dict(zip(self.digits(), tips)),
                                  lambda_init=lam, alternations=3)
        return q0, wrist, contacts

    def test_zero_loss_start_unchanged(self, hand16, mapping16):
        q0 = hand16.mid_limits()
        wrist = RigidTransform.identity()
        links = [mapping16.entries[d] for d in self.digits()]
        tips = link_origins(hand16, q0, np.eye(3), np.zeros(3), links)
        contacts = ContactTargets(active=self.digits(),
                                  targets=dict(zip(self.digits(), tips)),
                                  lambda_init=0.1, alternations=3)
        q, w, report = refine_contact(hand16, q0, wrist, mapping16, contacts,
                                      RetargetConfig())
        assert np.abs(q - q0).max() < 1e-9
        assert w.rotation.angle_to(wrist.rotation) < 1e-9
        assert np.linalg.norm(w.translation - wrist.translation) < 1e-9

    def test_reachable_targets_reached(self, hand16, mapping16, rng):
        for _ in range(5):
            q0, wrist, contacts = self.make_reachable(hand16, mapping16, rng)
            q, w, report = refine_contact(hand16, q0, wrist, mapping16, contacts,
                                          RetargetConfig())
            assert report.mean_tip_error < 1e-3

    def test_loss_non_increasing(self, hand16, mapping16, rng):
        for _ in range(5):
            q0, wrist, contacts = self.make_reachable(hand16, mapping16, rng,
                                                      lam=0.01)
            _, _, report = refine_contact(hand16, q0, wrist, mapping16, contacts,
                                          RetargetConfig())
            for a, b in zip(report.loss_history, report.loss_history[1:]):
                assert b <= a + 1e-15

    def test_unconverged_round_is_logged(self, hand16, mapping16, rng, caplog):
        q0, wrist, contacts = self.make_reachable(hand16, mapping16, rng)
        cfg = RetargetConfig(solver=SolverOptions(max_iters=1))
        with caplog.at_level(logging.DEBUG, logger="dexretarget.retarget"):
            refine_contact(hand16, q0, wrist, mapping16, contacts, cfg)
        lines = [r.getMessage() for r in caplog.records]
        assert any(line.startswith("refine round 0: joint step") and
                   "termination=max-iters converged=False" in line for line in lines)

    def test_feasible_output(self, hand16, mapping16, rng):
        lo, hi = hand16.limit_arrays()
        q0, wrist, contacts = self.make_reachable(hand16, mapping16, rng)
        q, _, _ = refine_contact(hand16, q0, wrist, mapping16, contacts,
                                 RetargetConfig())
        assert np.all(q >= lo - 1e-9) and np.all(q <= hi + 1e-9)

    def test_two_digit_skips_wrist_step(self, hand16, rng):
        mapping = FingerMapping({"thumb": "thumb_tip", "index": "index_tip"})
        q0 = hand16.mid_limits()
        wrist = RigidTransform.identity()
        links = [mapping.entries[d] for d in ("thumb", "index")]
        tips = link_origins(hand16, q0, np.eye(3), np.zeros(3), links)
        contacts = ContactTargets(
            active=("thumb", "index"),
            targets={"thumb": tips[0] + [0.005, 0, 0],
                     "index": tips[1] + [0.005, 0, 0]},
            lambda_init=1e-5, alternations=3,
        )
        q, w, report = refine_contact(hand16, q0, wrist, mapping, contacts,
                                      RetargetConfig())
        assert any("wrist step skipped" in msg for msg in report.warnings)
        # wrist untouched
        assert np.array_equal(w.translation, wrist.translation)


class TestAssembleGraspPlan:
    def make_traj(self, model, n=5):
        mid = model.mid_limits()
        frames = [RobotTrajectoryFrame(k, RigidTransform.identity(), mid.copy())
                  for k in range(n)]
        return RobotTrajectory(frames=frames, model=model)

    def test_identity_replacement(self, hand16):
        traj = self.make_traj(hand16)
        refined = (traj.frames[2].q.copy(), traj.frames[2].wrist_pose)
        out = assemble_grasp_plan(traj, 2, refined)
        for a, b in zip(traj.frames, out.frames):
            np.testing.assert_array_equal(a.q, b.q)

    def test_blending_caps_steps(self, hand16):
        traj = self.make_traj(hand16)
        q_ref = traj.frames[2].q.copy()
        q_ref[0] += 0.2
        out = assemble_grasp_plan(traj, 2, (q_ref, traj.frames[2].wrist_pose))
        np.testing.assert_array_equal(out.frames[2].q, q_ref)
        for nb in (1, 3):
            step = np.abs(out.frames[2].q - out.frames[nb].q).max()
            assert step <= 0.12
        # midpoint arithmetic: neighbor moved halfway
        assert out.frames[1].q[0] == pytest.approx(traj.frames[1].q[0] + 0.1)

    def test_single_frame_no_blend(self, hand16):
        traj = self.make_traj(hand16, n=1)
        q_ref = traj.frames[0].q.copy()
        q_ref[3] += 0.3
        out = assemble_grasp_plan(traj, 0, (q_ref, traj.frames[0].wrist_pose))
        np.testing.assert_array_equal(out.frames[0].q, q_ref)

    def test_index_out_of_range(self, hand16):
        traj = self.make_traj(hand16)
        with pytest.raises(InvalidArgumentError):
            assemble_grasp_plan(traj, 7, (traj.frames[0].q,
                                          traj.frames[0].wrist_pose))


class TestRobotTrajectoryValidation:
    def test_limits_enforced(self, hand16):
        lo, hi = hand16.limit_arrays()
        bad = hi + 1.0
        with pytest.raises(InvalidArgumentError):
            RobotTrajectory(frames=[RobotTrajectoryFrame(0, RigidTransform.identity(), bad)],
                            model=hand16)

    def test_indices_strictly_increasing(self, hand16):
        mid = hand16.mid_limits()
        with pytest.raises(InvalidArgumentError):
            RobotTrajectory(frames=[
                RobotTrajectoryFrame(1, RigidTransform.identity(), mid),
                RobotTrajectoryFrame(1, RigidTransform.identity(), mid),
            ], model=hand16)


class TestContactsFromHand:
    def test_extracts_mapped_digits(self, mapping16):
        joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
        contacts_ann = {"thumb": joints[4], "index": joints[8], "pinky": joints[20]}
        hand = hand_frame_at(contacts=contacts_ann)
        targets = contacts_from_hand(hand, mapping16, lambda_init=0.1, alternations=3)
        assert set(targets.active) == {"thumb", "index"}  # pinky unmapped

    def test_none_without_annotations(self, mapping16):
        hand = hand_frame_at()
        assert contacts_from_hand(hand, mapping16, lambda_init=0.1, alternations=3) is None
