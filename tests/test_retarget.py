import json
import logging
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from dexretarget import retarget, solver
from dexretarget.alignment import HandAlignment
from dexretarget.cli import main
from dexretarget.dataio import load_config, read_hand_trajectory
from dexretarget.errors import InvalidArgumentError
from dexretarget.geometry import RigidTransform, Rotation
from dexretarget.hand_model import (
    FingerMapping,
    HandFrame,
    TaxonomyClass,
    TaxonomyWeightTable,
    VectorPair,
    VectorSpec,
    compute_hand_scale,
    default_vector_spec,
    reference_vectors,
    taxonomy_weights,
)
from dexretarget.pipeline import run_pipeline
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
from dexretarget.solver import SolverOptions, check_gradient
from dexretarget.synthetic import canonical_hand_joints
from test_robot_model import PRISMATIC_MIMIC

# central-difference step of the gradient audits
AUDIT_STEP = 3e-6

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


def reference_retarget_problem(model, ref_vectors, spec, wrist, q_prev, cfg):
    """Bit oracle: the frame objective with every part resolved at the call,
    as one frame alone builds it."""
    qp = model.check_q(q_prev)
    wrist_r, wrist_t = wrist.rotation.as_matrix(), wrist.translation
    w = cfg.weights if cfg.weights is not None else np.ones(spec.n_vec)
    active = np.array([i for i in range(spec.n_vec) if w[i] != 0.0], dtype=int)
    w_active = w[active]
    ref_active = np.asarray(ref_vectors, dtype=float)[active]
    links, starts, ends = spec.robot_link_pairs()
    starts, ends = starts[active], ends[active]
    dd = cfg.huber_delta * cfg.huber_delta

    def evaluate(q, gradient=False):
        origins, jac = retarget._fk(model, q, wrist_r, wrist_t, links, gradient)
        d = origins[ends] - origins[starts] - ref_active
        sq = np.einsum("mi,mi->m", d, d)
        dq = q - qp
        if not gradient:
            rho = dd * (np.sqrt(1.0 + sq / dd) - 1.0)
            return float(rho @ w_active) / spec.n_vec + cfg.lambda_smooth * float(dq @ dq)
        g_d = (w_active / (spec.n_vec * np.sqrt(1.0 + sq / dd)))[:, None] * d
        return np.einsum("mi,min->n", g_d, jac[ends] - jac[starts]) + \
            2.0 * cfg.lambda_smooth * dq

    return solver.BoxProblem(*model.limit_arrays(), objective=evaluate,
                             gradient=lambda q: evaluate(q, gradient=True))


def assert_same_problem_bits(problem, oracle, points):
    """Objective and gradient bytes of two problems agree at every point."""
    np.testing.assert_array_equal(problem.lower, oracle.lower)
    np.testing.assert_array_equal(problem.upper, oracle.upper)
    for q in points:
        assert np.float64(problem.objective(q)).tobytes() == \
            np.float64(oracle.objective(q)).tobytes()
        assert problem.gradient(q).tobytes() == oracle.gradient(q).tobytes()


def recorded_trajectory(monkeypatch, model, hands, mapping, spec, cfg, table=None):
    """Retarget hands with identity alignments; returns the plan and each
    solve's (problem, start point) in frame order."""
    solve, calls = retarget.minimize_box, []

    def recorded_solve(problem, x0, opts, pairs):
        calls.append((problem, x0.copy()))
        return solve(problem, x0, opts, pairs)

    monkeypatch.setattr(retarget, "minimize_box", recorded_solve)
    aligns = [HandAlignment(k, 1.0, RigidTransform.identity(), 0.0, 0.0, True)
              for k in range(len(hands))]
    traj = retarget_trajectory(model, hands, aligns, mapping, spec, TaxonomyClass.MEDIUM_WRAP,
                               table or TaxonomyWeightTable.default(), cfg)
    return traj, calls


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

    def test_uniform_taxonomy_table_matches_unweighted(self, hand16, spec16, rng,
                                                       uniform_table):
        from dexretarget.hand_model import taxonomy_weights
        q = interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        plain = vector_matching_loss(hand16, q, RigidTransform.identity(), ref,
                                     spec16, RetargetConfig())
        w = taxonomy_weights(TaxonomyClass.TRIPOD, spec16,
                             uniform_table)
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

    def test_lone_frame_starts_cold(self, hand16, spec16, rng):
        mid = hand16.mid_limits()
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        _, report = retarget_frame(hand16, ref, spec16, RigidTransform.identity(), mid, mid,
                                   RetargetConfig())
        assert report.warm_pairs == 0 and report.pairs

    def test_lone_frame_starts_at_q0_and_anchors_at_q_prev(self, hand16, spec16, rng,
                                                            monkeypatch):
        # a lone frame solves the problem that frame alone defines, from q0
        q_prev, q0 = interior_q(hand16, rng), interior_q(hand16, rng)
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        wrist = RigidTransform(Rotation.from_axis_angle([0.1, 1.0, 0.2], 0.4),
                               np.array([0.01, 0.02, 0.4]))
        w = np.linspace(0.0, 2.0, spec16.n_vec)
        cfg = RetargetConfig(lambda_smooth=0.3, weights=w)
        starts = []
        solve = retarget.minimize_box

        def recorded_solve(problem, x0, opts, pairs):
            starts.append(x0)
            return solve(problem, x0, opts, pairs)

        monkeypatch.setattr(retarget, "minimize_box", recorded_solve)
        q, report = retarget_frame(hand16, ref, spec16, wrist, q_prev, q0, cfg)
        assert len(starts) == 1 and starts[0].tobytes() == q0.tobytes()
        expected = solver.minimize_box(
            reference_retarget_problem(hand16, ref, spec16, wrist, q_prev, cfg), q0, cfg.solver)
        assert q.tobytes() == expected.x_star.tobytes()
        assert (report.f_star, report.iterations, report.objective_evals) == \
            (expected.f_star, expected.iterations, expected.objective_evals)

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


class TestRetargetProblemTerms:
    """The parts every frame shares are resolved once a trajectory; the
    objective and gradient keep the bits of a problem built for one frame."""

    @pytest.mark.parametrize("weights", [None, "zeros", "taxonomy"])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 0.037])
    def test_retarget_problem_matches_the_reference(self, hand16, spec16, rng, weights, lam):
        w = {None: None, "zeros": np.where(np.arange(spec16.n_vec) % 3 == 1, 0.0, 1.5),
             "taxonomy": taxonomy_weights(TaxonomyClass.PRECISION_PINCH, spec16,
                                          TaxonomyWeightTable.default())}[weights]
        cfg = RetargetConfig(lambda_smooth=lam, huber_delta=0.013, weights=w)
        wrist = RigidTransform(Rotation.from_axis_angle([1.0, -0.4, 0.3], 0.7),
                               np.array([0.05, -0.01, 0.38]))
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng), wrist) * 1.07
        q_prev = interior_q(hand16, rng)
        points = [interior_q(hand16, rng) for _ in range(4)] + [q_prev, hand16.limit_arrays()[1]]
        assert_same_problem_bits(
            retarget.retarget_problem(hand16, ref, spec16, wrist, q_prev, cfg),
            reference_retarget_problem(hand16, ref, spec16, wrist, q_prev, cfg), points)

    def test_terms_shared_by_frames_match_each_frames_own(self, hand16, spec16, rng):
        w = np.ones(spec16.n_vec)
        w[[2, 7]] = 0.0
        cfg = RetargetConfig(lambda_smooth=0.4, weights=w)
        terms = retarget._RetargetTerms(hand16, spec16, cfg)
        for _ in range(3):
            wrist = RigidTransform(Rotation.from_axis_angle(rng.normal(size=3), 0.5),
                                   rng.normal(scale=0.1, size=3))
            ref = ref_from_q(hand16, spec16, interior_q(hand16, rng), wrist)
            q_prev = interior_q(hand16, rng)
            points = [interior_q(hand16, rng) for _ in range(3)]
            assert_same_problem_bits(
                terms.problem(ref, wrist, q_prev, cfg.lambda_smooth),
                reference_retarget_problem(hand16, ref, spec16, wrist, q_prev, cfg), points)


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

    def test_human_closing_hand_bounded_loss(self, hand16, mapping16, spec16, uniform_table):
        # real human geometry: the residual floor is the embodiment gap
        curls = np.linspace(0.2, 0.7, 6)
        hands = [hand_frame_at(curl=c, index=k) for k, c in enumerate(curls)]
        cfg = RetargetConfig(scale=1.0, lambda_smooth=0.001)
        traj = retarget_trajectory(hand16, hands, self.identity_alignments(6),
                                   mapping16, spec16, TaxonomyClass.MEDIUM_WRAP,
                                   uniform_table, cfg)
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

    def test_frames_from_2_start_from_the_previous_frames_pairs(self, hand16, mapping16,
                                                                spec16, monkeypatch):
        # frame 0 solves without the smoothness term, so frame 1 starts cold
        hands = [hand_frame_at(curl=c, index=k) for k, c in enumerate((0.2, 0.3, 0.4, 0.5))]
        solve, calls = retarget.minimize_box, []

        def recorded_solve(problem, x0, opts, pairs):
            calls.append((pairs, solve(problem, x0, opts, pairs)))
            return calls[-1][1]

        monkeypatch.setattr(retarget, "minimize_box", recorded_solve)
        retarget_trajectory(hand16, hands, self.identity_alignments(4), mapping16, spec16,
                            TaxonomyClass.MEDIUM_WRAP, TaxonomyWeightTable.default(),
                            RetargetConfig(scale=1.0))
        assert [pairs for pairs, _ in calls[:2]] == [(), ()]
        for (_, before), (pairs, report) in zip(calls[1:], calls[2:]):
            assert pairs is before.pairs and report.warm_pairs == len(pairs) > 0

    def test_starts_extrapolate_from_frame_2(self, hand16, mapping16, spec16, monkeypatch):
        # frame 0 starts at mid-limits, frame 1 at q_0, frame k >= 2 at the
        # clipped 2 q_(k-1) - q_(k-2)
        hands = [hand_frame_at(curl=c, index=k)
                 for k, c in enumerate((0.2, 0.35, 0.45, 0.6, 0.62, 0.5))]
        traj, calls = recorded_trajectory(monkeypatch, hand16, hands, mapping16, spec16,
                                          RetargetConfig(scale=1.0))
        qs = [f.q for f in traj.frames]
        lo, hi = hand16.limit_arrays()
        starts = [x0 for _, x0 in calls]
        assert len(starts) == len(hands)
        assert starts[0].tobytes() == hand16.mid_limits().tobytes()
        assert starts[1].tobytes() == qs[0].tobytes()
        for k in range(2, len(hands)):
            predicted = np.clip(2.0 * qs[k - 1] - qs[k - 2], lo, hi)
            assert starts[k].tobytes() == predicted.tobytes()
            assert not np.array_equal(starts[k], qs[k - 1])

    def test_prediction_past_a_limit_is_clipped(self, monkeypatch, uniform_table):
        # one revolute joint limited to [-1, 1] rad: the tip direction turns
        # 0 -> 0.9 -> 1.5 rad, so frame 2's prediction 1.8 lies past the limit
        model = parse_urdf(ONE_JOINT)
        spec = VectorSpec([VectorPair(human=(0, 4), robot=("base", "tip"),
                                      group="wrist-to-tip")])
        hands = []
        for k, angle in enumerate((0.0, 0.9, 1.5, 1.5)):
            joints = canonical_hand_joints(0.4)
            joints[4] = joints[0] + [np.cos(angle), np.sin(angle), 0.0]
            hands.append(HandFrame(joints=joints, frame_index=k,
                                   wrist_pose=RigidTransform(Rotation.identity(), joints[0])))
        traj, calls = recorded_trajectory(monkeypatch, model, hands,
                                          FingerMapping({"index": "tip"}), spec,
                                          RetargetConfig(scale=1.0, lambda_smooth=1e-6),
                                          uniform_table)
        qs = [f.q for f in traj.frames]
        assert 2.0 * qs[1][0] - qs[0][0] > 1.5
        assert calls[2][1][0] == 1.0
        assert all(-1.0 <= q[0] <= 1.0 for q in qs)
        assert qs[2][0] == pytest.approx(1.0, abs=1e-9)

    def test_smoothness_anchors_at_the_previous_solution(self, hand16, mapping16, spec16,
                                                         monkeypatch, rng):
        # each frame's problem is, bit for bit, the lone-frame problem
        # anchored at q_(k-1), not at its extrapolated start
        hands = [hand_frame_at(curl=c, index=k) for k, c in enumerate((0.2, 0.35, 0.45, 0.6))]
        cfg = RetargetConfig(scale=1.0, lambda_smooth=0.5)
        traj, calls = recorded_trajectory(monkeypatch, hand16, hands, mapping16, spec16, cfg)
        weighted = replace(cfg, weights=taxonomy_weights(
            TaxonomyClass.MEDIUM_WRAP, spec16, TaxonomyWeightTable.default()))
        qs = [f.q for f in traj.frames]
        for k in range(2, len(hands)):
            corrected = hands[k].transformed(1.0, RigidTransform.identity())
            ref = reference_vectors(corrected, spec16, cfg.scale)
            problem, start = calls[k]
            points = [start, qs[k - 1], qs[k], interior_q(hand16, rng)]
            assert_same_problem_bits(problem, reference_retarget_problem(
                hand16, ref, spec16, traj.frames[k].wrist_pose, qs[k - 1], weighted), points)
            at_start = reference_retarget_problem(hand16, ref, spec16,
                                                  traj.frames[k].wrist_pose, start, weighted)
            assert problem.objective(start) != at_start.objective(start)

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

    @pytest.mark.parametrize("lambda_init, alternations", [
        (-5.0, 3), (float("nan"), 3), (float("inf"), 3), (0.1, 0), (0.1, 2.0), (0.1, True),
    ], ids=["lambda-negative", "lambda-nan", "lambda-inf", "alternations-zero",
            "alternations-float", "alternations-bool"])
    def test_bad_pull_or_alternations_rejected(self, lambda_init, alternations):
        # were a zero-round refinement, or a pull away from q_init
        with pytest.raises(InvalidArgumentError):
            ContactTargets(active=("thumb",), targets={"thumb": np.zeros(3)},
                           lambda_init=lambda_init, alternations=alternations)

    def test_zero_pull_accepted(self):
        contacts = ContactTargets(active=("thumb",), targets={"thumb": np.zeros(3)},
                                  lambda_init=0.0, alternations=1)
        assert contacts.lambda_init == 0.0 and contacts.alternations == 1


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

    def test_round_that_gives_back_contact_for_the_pull_is_rolled_back(
            self, hand16, mapping16, monkeypatch):
        # targets no wrist pose reaches from q_init: round 1 moves the
        # joints and the wrist, round 2's joint step pulls q back toward
        # q_init, and the contact loss it gives up is not won back
        q0 = hand16.mid_limits()
        links = [mapping16.entries[d] for d in self.digits()]
        tips = link_origins(hand16, q0, np.eye(3), np.zeros(3), links)
        offsets = np.array([[0.011, 0.018, -0.026], [-0.001, 0.010, 0.014],
                            [0.007, 0.015, 0.003], [0.006, 0.002, -0.011]])
        contacts = ContactTargets(active=self.digits(),
                                  targets=dict(zip(self.digits(), tips + offsets)),
                                  lambda_init=0.1, alternations=3)
        losses, solves = [], []
        loss, solve = retarget.contact_loss, retarget.minimize_box

        def recorded_loss(*args):
            losses.append(loss(*args))
            return losses[-1]

        def recorded_solve(problem, x0, opts):
            report = solve(problem, x0, opts)
            pull = [0.1 * float((q - q0) @ (q - q0)) for q in (x0, report.x_star)]
            solves.append((problem.objective(x0), report.f_star, *pull))
            return report

        monkeypatch.setattr(retarget, "contact_loss", recorded_loss)
        monkeypatch.setattr(retarget, "minimize_box", recorded_solve)
        q, wrist, report = refine_contact(hand16, q0, RigidTransform.identity(), mapping16,
                                          contacts, RetargetConfig())
        # start, round 1 and the rolled-back round 2
        assert len(losses) == 3 and len(solves) == 2
        f_start, f_end, pull_start, pull_end = solves[1]
        assert f_end < f_start and pull_end < 0.1 * pull_start
        assert losses[2] > losses[1]
        assert report.rounds == 1 and report.loss_history == losses[:2]
        # the returned state is round 1's, bit for bit
        assert loss(hand16, q, wrist, mapping16, contacts) == losses[1]

    def test_unmapped_active_digit_is_invalid_argument(self, hand16):
        # was a bare KeyError from the tip-link lookup
        mapping = FingerMapping({"thumb": "thumb_tip", "index": "index_tip"})
        contacts = ContactTargets(active=("thumb", "middle"),
                                  targets={"thumb": np.zeros(3), "middle": np.zeros(3)},
                                  lambda_init=0.1, alternations=3)
        with pytest.raises(InvalidArgumentError, match="'middle' is not mapped"):
            refine_contact(hand16, hand16.mid_limits(), RigidTransform.identity(), mapping,
                           contacts, RetargetConfig())

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
        assert report.warnings
        assert set(report.warnings) == {"wrist step skipped: fewer than 3 active digits"}
        # wrist untouched
        assert np.array_equal(w.translation, wrist.translation)


class TestClosedFormGradients:
    """Retarget and refine solves take closed-form gradients; finite
    differences are only the audit's oracle."""

    @pytest.mark.parametrize("which", ["hand16", "prismatic_mimic"])
    def test_refine_gradient_audit(self, which, hand16, mapping16, rng, monkeypatch):
        if which == "hand16":
            model, mapping = hand16, mapping16
        else:
            model = parse_urdf(PRISMATIC_MIMIC)
            mapping = FingerMapping({"thumb": "tip", "index": "probe", "middle": "wheel",
                                     "ring": "fore"})
        q0, wrist, contacts = TestRefineContact().make_reachable(model, mapping, rng, lam=0.01)
        solve = retarget.minimize_box
        audited = []

        def audit(problem, x0, opts):
            lo, hi = problem.lower, problem.upper
            for q in (x0, rng.uniform(lo, hi), rng.uniform(lo, hi)):
                audited.append(check_gradient(problem, q, fd_eps=AUDIT_STEP))
            return solve(problem, x0, opts)

        monkeypatch.setattr(retarget, "minimize_box", audit)
        refine_contact(model, q0, wrist, mapping, contacts, RetargetConfig())
        assert audited and max(audited) < 1e-5

    def test_no_solve_takes_finite_differences(self, hand16, spec16, mapping16, rng,
                                               monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a solve took finite differences")

        monkeypatch.setattr(solver, "fd_gradient", forbidden)
        mid = hand16.mid_limits()
        ref = ref_from_q(hand16, spec16, interior_q(hand16, rng))
        _, report = retarget_frame(hand16, ref, spec16, RigidTransform.identity(), mid, mid,
                                   RetargetConfig())
        assert report.iterations > 0
        q0, wrist, contacts = TestRefineContact().make_reachable(hand16, mapping16, rng)
        _, _, refined = refine_contact(hand16, q0, wrist, mapping16, contacts, RetargetConfig())
        assert refined.rounds > 0


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

    def test_non_finite_q_is_rejected(self, hand16):
        # NaN fails every comparison, so only a test that q lies inside the
        # limits catches it; the first bad frame is named, not the
        # out-of-limit frame after it
        mid = hand16.mid_limits()
        for value in (np.nan, np.inf, -np.inf):
            bad = mid.copy()
            bad[3] = value
            frames = [RobotTrajectoryFrame(k, RigidTransform.identity(), q)
                      for k, q in enumerate([mid, bad, mid, mid + 10.0])]
            with pytest.raises(InvalidArgumentError,
                               match="^frame 1: joint configuration violates limits$"):
                RobotTrajectory(frames=frames, model=hand16)

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


@pytest.fixture(scope="module")
def c11_aligned(tmp_path_factory):
    """The criterion-11 fixture aligned once: its config, hand frames and
    per-frame alignments."""
    root = tmp_path_factory.mktemp("c11")
    assert main(["synth", "--out-dir", str(root), "--seed", "7", "--frames", "10",
                 "--noise", "0.001", "--depth-scale", "0.8"]) == 0
    (root / "hand.urdf").write_text(resources.files("dexretarget.assets").joinpath(
        "four_finger_16dof.urdf").read_text())
    (root / "config.json").write_text(json.dumps({
        "urdf": "hand.urdf",
        "hand_trajectory": "hand_trajectory.json",
        "observations_dir": "observations",
        "output_dir": "out",
        "object_cloud_true": "object_true.ply",
        "object_cloud_pred": "object_pred.ply",
        "taxonomy": "medium-wrap",
        "finger_mapping": {"thumb": "thumb_tip", "index": "index_tip",
                           "middle": "middle_tip", "ring": "ring_tip"},
        "proximal_links": {"thumb": "thumb_medial", "index": "index_medial",
                           "middle": "middle_medial", "ring": "ring_medial"},
        "seed": 7,
    }))
    config, _ = load_config(root / "config.json")
    alignments = run_pipeline(config, stop_after="align").alignments
    return config, read_hand_trajectory(config.hand_trajectory).frames, alignments


class TestPlanSensitivity:
    def test_one_ulp_sigma_change_leaves_plan(self, c11_aligned):
        # retargeting must not amplify a last-bit change of an alignment
        config, hands, alignments = c11_aligned
        model = parse_urdf(config.urdf.read_text())
        spec = default_vector_spec(config.finger_mapping, config.palm_link or model.root_link,
                                   config.proximal_links)
        corrected0 = hands[0].transformed(alignments[0].sigma, alignments[0].correction)
        cfg = replace(config.retarget,
                      scale=compute_hand_scale(model, config.finger_mapping, corrected0))

        def plan_q(aligns):
            traj = retarget_trajectory(model, hands, aligns, config.finger_mapping, spec,
                                       config.taxonomy, config.weight_table, cfg)
            return np.array([f.q for f in traj.frames])

        base = plan_q(alignments)
        for k, align in enumerate(alignments):
            moved = list(alignments)
            moved[k] = replace(align, sigma=float(np.nextafter(align.sigma, np.inf)))
            shift = float(np.max(np.abs(plan_q(moved) - base)))
            assert shift <= 1e-8, f"frame {k}: plan moved {shift:.3g} rad"
