"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from dexretarget.alignment import (
    AlignConfig,
    FrameObservation,
    align_hand_frame,
    alignment_problem,
    calibrate_depth_sequence,
)
from dexretarget.cli import main
from dexretarget.geometry import (
    RigidTransform,
    Rotation,
    SimilarityTransform,
    backproject_depth,
    splat_depth,
    weighted_umeyama,
)
from dexretarget.hand_model import (
    FingerMapping,
    HandFrame,
    TaxonomyClass,
    TaxonomyWeightTable,
    default_vector_spec,
    taxonomy_weights,
    tip_index,
)
from dexretarget.pointcloud import PointCloud, estimate_normals, icp_point_to_plane
from dexretarget.retarget import (
    ContactTargets,
    RetargetConfig,
    refine_contact,
    retarget_frame,
    retarget_problem,
    vector_matching_loss,
)
from dexretarget.robot_model import link_origins, parse_urdf
from dexretarget.solver import SolverOptions, check_gradient
from dexretarget.synthetic import (
    DEFAULT_INTRINSICS,
    canonical_hand_joints,
    sample_hand_surface,
)

K = DEFAULT_INTRINSICS
# central-difference steps of criterion c03's gradient audits: small for
# alignment, since its depth term carries pixel-scale curvature
ALIGN_AUDIT_STEP = 1.5e-7
RETARGET_AUDIT_STEP = 3e-6

THREE_DOF = """
<robot name="three">
  <link name="base"/>
  <link name="l1"/>
  <link name="l2"/>
  <link name="l3"/>
  <link name="tip"/>
  <joint name="j1" type="revolute">
    <parent link="base"/><child link="l1"/>
    <axis xyz="0 0 1"/>
    <limit lower="-1.2" upper="1.2" effort="1" velocity="1"/>
  </joint>
  <joint name="j2" type="revolute">
    <parent link="l1"/><child link="l2"/>
    <origin xyz="0.1 0 0"/>
    <axis xyz="0 1 0"/>
    <limit lower="-1.5" upper="1.5" effort="1" velocity="1"/>
  </joint>
  <joint name="j3" type="revolute">
    <parent link="l2"/><child link="l3"/>
    <origin xyz="0.08 0 0"/>
    <axis xyz="0 1 0"/>
    <limit lower="-1.5" upper="1.5" effort="1" velocity="1"/>
  </joint>
  <joint name="tm" type="fixed">
    <parent link="l3"/><child link="tip"/>
    <origin xyz="0.06 0 0"/>
  </joint>
</robot>
"""


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def hand16():
    text = resources.files("dexretarget.assets").joinpath(
        "four_finger_16dof.urdf").read_text()
    return parse_urdf(text)


@pytest.fixture(scope="module")
def mapping16():
    return FingerMapping({"thumb": "thumb_tip", "index": "index_tip",
                          "middle": "middle_tip", "ring": "ring_tip"})


@pytest.fixture(scope="module")
def spec16(mapping16):
    return default_vector_spec(mapping16, "palm", {
        "thumb": "thumb_medial", "index": "index_medial",
        "middle": "middle_medial", "ring": "ring_medial"})


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    return Rotation.from_axis_angle(axis, rng.uniform(0, max_angle))


def test_c01_umeyama_recovery():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"s": 0.0, "ang": 0.0, "t": 0.0}
    worst_noisy = {"s": 0.0, "ang": 0.0, "t": 0.0}
    for _ in range(100):
        src = rng.normal(size=(50, 3)) * 0.15
        gen = SimilarityTransform(rng.uniform(0.5, 2.0), random_rotation(rng),
                                  rng.normal(size=3) * 0.3)
        dst = gen.apply(src)
        got = weighted_umeyama(src, dst)
        worst["s"] = max(worst["s"], abs(got.scale - gen.scale))
        worst["ang"] = max(worst["ang"], got.rotation.angle_to(gen.rotation))
        worst["t"] = max(worst["t"], float(np.linalg.norm(got.translation - gen.translation)))

        noisy = dst + rng.normal(size=dst.shape) * 0.001
        got_n = weighted_umeyama(src, noisy)
        worst_noisy["s"] = max(worst_noisy["s"], abs(got_n.scale - gen.scale) / gen.scale)
        worst_noisy["ang"] = max(worst_noisy["ang"], got_n.rotation.angle_to(gen.rotation))
        worst_noisy["t"] = max(worst_noisy["t"],
                               float(np.linalg.norm(got_n.translation - gen.translation)))
    elapsed = time.perf_counter() - t0
    ok = (worst["s"] < 1e-9 and worst["ang"] < 1e-9 and worst["t"] < 1e-9
          and worst_noisy["t"] < 5e-3 and worst_noisy["ang"] < np.radians(0.5)
          and worst_noisy["s"] < 0.02 and elapsed < 1.0)
    _report(1, ok,
            f"noiseless worst (s={worst['s']:.1e}, ang={worst['ang']:.1e}, "
            f"t={worst['t']:.1e}); noisy worst (s={worst_noisy['s']:.2e}, "
            f"ang={np.degrees(worst_noisy['ang']):.3f} deg, t={worst_noisy['t']*1e3:.2f} mm); "
            f"runtime {elapsed:.2f} s")


@pytest.mark.slow
def test_c02_icp_basin():
    rng = np.random.default_rng(202)
    joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.4])
    src = PointCloud(points=sample_hand_surface(joints, 2000, seed=11))
    dst = estimate_normals(PointCloud(points=src.points.copy()), k=12)
    hits = 0
    max_time = 0.0
    for _ in range(100):
        pert = RigidTransform(
            random_rotation(rng, max_angle=np.radians(10.0)),
            rng.normal(size=3) * (0.02 / np.sqrt(3)),
        )
        moved = PointCloud(points=pert.apply(src.points))
        t0 = time.perf_counter()
        try:
            report = icp_point_to_plane(moved, dst, max_iters=80)
        except Exception:
            continue
        max_time = max(max_time, time.perf_counter() - t0)
        residual = report.transform.rigid_part().compose(pert)
        if residual.rotation.angle() < np.radians(0.5) and \
                np.linalg.norm(residual.translation) < 1e-3:
            hits += 1
    ok = hits >= 95 and max_time < 1.0
    _report(2, ok, f"recovered {hits}/100 within 0.5 deg / 1 mm; "
                   f"slowest solve {max_time*1e3:.0f} ms")


def test_c03_gradient_audit(hand16, spec16):
    rng = np.random.default_rng(303)
    # total alignment objective
    joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
    sampled = PointCloud(points=sample_hand_surface(joints, 500, seed=4,
                                                 visible_from=(0, 0, 0)))
    obs_pts = 1.1 * sampled.points
    observed = estimate_normals(PointCloud(points=obs_pts), k=12)
    depth = splat_depth(obs_pts, K, 3)
    obs = FrameObservation(cloud=observed, depth=depth, hand_mask=depth.valid)
    cfg = AlignConfig()
    align_err = 0.0
    for _ in range(20):
        x = np.concatenate([[rng.uniform(-0.3, 0.3)], rng.uniform(-0.1, 0.1, size=6)])
        problem = alignment_problem(sampled, obs, K, cfg, at=x)
        align_err = max(align_err, check_gradient(problem, x, fd_eps=ALIGN_AUDIT_STEP))

    # retargeting objective
    lo, hi = hand16.limit_arrays()
    names = spec16.robot_links()
    rcfg = RetargetConfig()
    origins = link_origins(hand16, hand16.mid_limits(), np.eye(3), np.zeros(3), names)
    pos = {n: origins[i] for i, n in enumerate(names)}
    ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
    ret_err = 0.0
    for _ in range(20):
        q = rng.uniform(lo, hi)
        problem = retarget_problem(hand16, ref, spec16, RigidTransform.identity(),
                                   hand16.mid_limits(), rcfg)
        ret_err = max(ret_err, check_gradient(problem, q, fd_eps=RETARGET_AUDIT_STEP))
    ok = align_err < 1e-5 and ret_err < 1e-5
    _report(3, ok, f"max relative error: alignment {align_err:.2e}, "
                   f"retarget {ret_err:.2e}")


def test_c04_retarget_round_trip(hand16, spec16):
    rng = np.random.default_rng(404)
    lo, hi = hand16.limit_arrays()
    names = spec16.robot_links()
    cfg = RetargetConfig(lambda_smooth=0.0)
    mid = hand16.mid_limits()
    wrist = RigidTransform.identity()
    worst_loss = 0.0
    max_time = 0.0
    failures = 0
    for _ in range(50):
        margin = 0.05 * (hi - lo)
        q_star = rng.uniform(lo + margin, hi - margin)
        origins = link_origins(hand16, q_star, np.eye(3), np.zeros(3), names)
        pos = {n: origins[i] for i, n in enumerate(names)}
        ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
        t0 = time.perf_counter()
        q, _ = retarget_frame(hand16, ref, spec16, wrist, mid, mid, cfg)
        max_time = max(max_time, time.perf_counter() - t0)
        loss = vector_matching_loss(hand16, q, wrist, ref, spec16, cfg)
        worst_loss = max(worst_loss, loss)
        if loss >= 1e-6:
            failures += 1
    ok = failures == 0 and max_time < 0.5
    _report(4, ok, f"{50 - failures}/50 below 1e-6 (worst {worst_loss:.2e}); "
                   f"slowest solve {max_time*1e3:.0f} ms")


@pytest.mark.slow
def test_c05_joint_limit_fuzz():
    rng = np.random.default_rng(505)
    model = parse_urdf(THREE_DOF)
    lo, hi = model.limit_arrays()
    mapping = FingerMapping({"index": "tip"})
    spec = default_vector_spec(mapping, "base")
    fast = SolverOptions(max_iters=4)
    violations = 0
    emitted = 0
    t0 = time.perf_counter()
    for trial in range(6000):
        ref = rng.normal(size=(spec.n_vec, 3)) * 0.2
        cfg = RetargetConfig(lambda_smooth=rng.uniform(0, 2), solver=fast)
        q_prev = rng.uniform(lo, hi)
        q0 = rng.uniform(lo - 1.0, hi + 1.0)  # may start outside the box
        q, _ = retarget_frame(model, ref, spec, RigidTransform.identity(),
                              q_prev, q0, cfg)
        emitted += 1
        if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
            violations += 1
    for trial in range(4000):
        q0 = rng.uniform(lo, hi)
        target = rng.normal(size=3) * 0.3
        contacts = ContactTargets(active=("index",), targets={"index": target},
                                  lambda_init=rng.uniform(0, 0.2), alternations=2)
        cfg = RetargetConfig(solver=fast)
        q, _, _ = refine_contact(model, q0, RigidTransform.identity(), mapping,
                                 contacts, cfg)
        emitted += 1
        if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and emitted == 10000
    _report(5, ok, f"{emitted} solves, {violations} limit violations beyond 1e-9 "
                   f"({elapsed:.1f} s)")


def test_c06_smoothness_monotonicity(hand16, spec16):
    rng = np.random.default_rng(606)
    lo, hi = hand16.limit_arrays()
    names = spec16.robot_links()
    q_prev = hand16.mid_limits()
    margin = 0.1 * (hi - lo)
    q_star = rng.uniform(lo + margin, hi - margin)
    origins = link_origins(hand16, q_star, np.eye(3), np.zeros(3), names)
    pos = {n: origins[i] for i, n in enumerate(names)}
    ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
    steps = []
    for lam in (0.0, 0.1, 1.0, 10.0, 100.0, 1e9):
        cfg = RetargetConfig(lambda_smooth=lam)
        q, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                              q_prev, q_prev, cfg)
        steps.append(float(np.linalg.norm(q - q_prev)))
    monotone = all(b <= a + 1e-9 for a, b in zip(steps, steps[1:]))
    pinned = steps[-1] < 1e-4
    ok = monotone and pinned
    _report(6, ok, "steps over lambda grid: " +
            ", ".join(f"{s:.2e}" for s in steps))


@pytest.mark.slow
def test_c07_contact_refinement(hand16, mapping16):
    rng = np.random.default_rng(707)
    lo, hi = hand16.limit_arrays()
    digits = ("thumb", "index", "middle", "ring")
    links = [mapping16.entries[d] for d in digits]
    cfg = RetargetConfig()
    hits = 0
    mono_violations = 0
    for _ in range(100):
        q0 = np.clip(hand16.mid_limits() + rng.uniform(-0.2, 0.2, 16), lo, hi)
        wrist = RigidTransform(random_rotation(rng, 0.4), rng.normal(size=3) * 0.1)
        dq = rng.uniform(-np.radians(15), np.radians(15), 16)
        q_target = np.clip(q0 + dq, lo, hi)
        tips = link_origins(hand16, q_target, wrist.rotation.as_matrix(),
                            wrist.translation, links)
        contacts = ContactTargets(active=digits,
                                  targets=dict(zip(digits, tips)),
                                  lambda_init=1e-5, alternations=3)
        start_tips = link_origins(hand16, q0, wrist.rotation.as_matrix(),
                                  wrist.translation, links)
        e0 = float(np.mean(np.linalg.norm(start_tips - tips, axis=1)))
        q, w, report = refine_contact(hand16, q0, wrist, mapping16, contacts, cfg)
        for a, b in zip(report.loss_history, report.loss_history[1:]):
            if b > a + 1e-15:
                mono_violations += 1
        e1 = report.mean_tip_error
        if e1 < 1e-3 and e1 <= 0.1 * max(e0, 1e-12):
            hits += 1
    ok = hits >= 95 and mono_violations == 0
    _report(7, ok, f"{hits}/100 trials reached <1 mm with >=90% reduction; "
                   f"{mono_violations} monotonicity violations")


def test_c08_scale_recovery():
    rng = np.random.default_rng(808)
    joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
    hand = HandFrame(joints=joints,
                     wrist_pose=RigidTransform(Rotation.identity(), joints[0]))
    sampled = PointCloud(points=sample_hand_surface(joints, 500, seed=8,
                                                 visible_from=(0, 0, 0)))
    worst_clean = 0.0
    worst_noisy = 0.0
    for sigma_star in (0.7, 0.85, 1.2, 1.4):
        for noise, bucket in ((0.0, "clean"), (0.001, "noisy")):
            pts = sigma_star * sampled.points + rng.normal(size=sampled.points.shape) * noise
            observed = estimate_normals(PointCloud(points=pts), k=12)
            depth = splat_depth(pts, K, 3)
            obs = FrameObservation(cloud=observed, depth=depth, hand_mask=depth.valid)
            result = align_hand_frame(hand, sampled, obs, K)
            rel = abs(result.sigma - sigma_star) / sigma_star
            if bucket == "clean":
                worst_clean = max(worst_clean, rel)
            else:
                worst_noisy = max(worst_noisy, rel)
    ok = worst_clean < 0.02 and worst_noisy < 0.05
    _report(8, ok, f"worst relative scale error: noiseless {worst_clean:.4f} "
                   f"(tol 0.02), 1 mm noise {worst_noisy:.4f} (tol 0.05)")


def test_c09_depth_calibration_linearity():
    rng = np.random.default_rng(909)
    # a textured synthetic object depth image
    base = np.full((K.height, K.width), 0.0)
    vs, us = np.mgrid[180:300, 260:380]
    base[vs, us] = 0.5 + 0.05 * np.sin(us / 9.0) * np.cos(vs / 7.0)
    from dexretarget.geometry import DepthImage
    worst = 0.0
    for alpha in (0.5, 0.8, 1.25):
        true_img = DepthImage(values=base.copy())
        pred_img = DepthImage(values=base * alpha)
        obj_true = PointCloud(points=backproject_depth(true_img, K))
        obj_pred = PointCloud(points=backproject_depth(pred_img, K))
        transform, _ = calibrate_depth_sequence([], obj_true, obj_pred, K)
        worst = max(worst, abs(transform.scale - 1.0 / alpha))
    ok = worst < 1e-6
    _report(9, ok, f"worst |recovered - 1/alpha| = {worst:.2e} (tol 1e-6)")


def test_c10_taxonomy_semantics(hand16, mapping16, spec16):
    rng = np.random.default_rng(1010)
    table = TaxonomyWeightTable.default()

    # ordering assertions on the default configuration
    w_mw = taxonomy_weights(TaxonomyClass.MEDIUM_WRAP, spec16, table)
    enclosure = [w_mw[i] for i, p in enumerate(spec16.pairs) if p.group == "enclosure"]
    thumb_pair = [w_mw[i] for i, p in enumerate(spec16.pairs) if p.group == "thumb-pair"]
    order_mw = min(enclosure) > max(thumb_pair)

    w_lt = taxonomy_weights(TaxonomyClass.LATERAL_TRIPOD, spec16, table)
    thumb_im = [w_lt[i] for i, p in enumerate(spec16.pairs)
                if p.group == "thumb-pair" and p.human[1] in
                (tip_index("index"), tip_index("middle"))]
    ring_tips = [w_lt[i] for i, p in enumerate(spec16.pairs)
                 if p.group == "wrist-to-tip" and p.human[1] == tip_index("ring")]
    order_lt = min(thumb_im) > max(ring_tips)

    # zeroed weights: the solution is bitwise independent of those vectors
    weights = taxonomy_weights(TaxonomyClass.MEDIUM_WRAP, spec16, table).copy()
    zero_idx = [i for i, p in enumerate(spec16.pairs) if p.group == "thumb-pair"]
    weights[zero_idx] = 0.0
    cfg = RetargetConfig(lambda_smooth=0.0, weights=weights)
    mid = hand16.mid_limits()
    lo, hi = hand16.limit_arrays()
    names = spec16.robot_links()
    origins = link_origins(hand16, rng.uniform(lo, hi), np.eye(3), np.zeros(3), names)
    pos = {n: origins[i] for i, n in enumerate(names)}
    ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
    q_a, _ = retarget_frame(hand16, ref, spec16, RigidTransform.identity(),
                            mid, mid, cfg)
    ref_b = ref.copy()
    ref_b[zero_idx] = rng.normal(size=(len(zero_idx), 3)) * 1e6
    q_b, _ = retarget_frame(hand16, ref_b, spec16, RigidTransform.identity(),
                            mid, mid, cfg)
    bitwise = bool(np.array_equal(q_a, q_b))

    ok = order_mw and order_lt and bitwise
    _report(10, ok, f"medium-wrap enclosure>thumb-pair: {order_mw}; "
                    f"lateral-tripod thumb-index/middle>ring: {order_lt}; "
                    f"zero-weight bitwise independence: {bitwise}")


@pytest.mark.slow
def test_c11_end_to_end(tmp_path):
    fixture = tmp_path / "e2e"
    assert main(["synth", "--out-dir", str(fixture), "--seed", "7",
                 "--frames", "10", "--noise", "0.001", "--depth-scale", "0.8"]) == 0
    urdf_text = resources.files("dexretarget.assets").joinpath(
        "four_finger_16dof.urdf").read_text()
    (fixture / "hand.urdf").write_text(urdf_text)
    config = {
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
    }
    (fixture / "config.json").write_text(json.dumps(config))

    t0 = time.perf_counter()
    code = main(["pipeline", "--config", str(fixture / "config.json")])
    elapsed = time.perf_counter() - t0
    traj_path = fixture / "out" / "robot_trajectory.json"
    first = traj_path.read_bytes()

    code2 = main(["pipeline", "--config", str(fixture / "config.json")])
    identical = traj_path.read_bytes() == first

    model = parse_urdf(urdf_text)
    from dexretarget.dataio import read_robot_trajectory
    traj = read_robot_trajectory(traj_path, model)
    lo, hi = model.limit_arrays()
    feasible = all(
        np.all(f.q >= lo - 1e-9) and np.all(f.q <= hi + 1e-9) for f in traj.frames
    )
    ok = code == 0 and code2 == 0 and elapsed < 30.0 and identical and feasible
    _report(11, ok, f"exit codes ({code}, {code2}); {elapsed:.1f} s (< 30 s); "
                    f"byte-identical rerun: {identical}; all q feasible: {feasible}")
