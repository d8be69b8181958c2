"""The benchmark's traced run replaces package attributes by name; every
attribute it hooks must exist, so a rename fails here and not only in a
benchmark self-check. Its solver hook hands the solver a copy of the
problem with traced callables, so the problem must survive that copy."""

import dataclasses
import importlib
import importlib.util
import json
import logging
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dexretarget import alignment, cli, dataio, pipeline, retarget
from dexretarget.alignment import FrameObservation, HandAlignment, align_hand_frame
from dexretarget.geometry import RigidTransform, Rotation, splat_depth
from dexretarget.hand_model import HandFrame, HandTrajectory, TaxonomyClass, TaxonomyWeightTable
from dexretarget.pointcloud import PointCloud, estimate_normals
from dexretarget.retarget import ContactTargets, RetargetConfig, refine_contact, retarget_frame
from dexretarget.robot_model import link_origins
from dexretarget.solver import BoxProblem
from dexretarget.synthetic import DEFAULT_INTRINSICS, canonical_hand_joints, sample_hand_surface

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_hooked_attribute_exists():
    tracing = _tracing()
    missing = [f"dexretarget.{module}.{attr}" for module, attr, *_ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(f"dexretarget.{module}"),
                                       attr, None))]
    assert missing == []


def _align_one_frame():
    joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.45])
    hand = HandFrame(joints=joints, wrist_pose=RigidTransform(Rotation.identity(), joints[0]))
    sampled = PointCloud(points=sample_hand_surface(joints, 500, seed=0,
                                                    visible_from=(0.0, 0.0, 0.0)))
    observed = 1.1 * sampled.points
    depth = splat_depth(observed, DEFAULT_INTRINSICS, 3)
    obs = FrameObservation(cloud=estimate_normals(PointCloud(points=observed), k=12),
                           depth=depth, hand_mask=depth.valid)
    align_hand_frame(hand, sampled, obs, DEFAULT_INTRINSICS)


def _retarget_one_frame(hand16, spec16):
    q_star = 0.3 * hand16.mid_limits() + 0.7 * hand16.limit_arrays()[1]
    names = spec16.robot_links()
    origins = link_origins(hand16, q_star, np.eye(3), np.zeros(3), names)
    pos = {n: origins[i] for i, n in enumerate(names)}
    ref = np.array([pos[p.robot[1]] - pos[p.robot[0]] for p in spec16.pairs])
    mid = hand16.mid_limits()
    retarget_frame(hand16, ref, spec16, RigidTransform.identity(), mid, mid, RetargetConfig())


def _refine_one_frame(hand16, mapping16):
    q0 = hand16.mid_limits()
    digits = ("thumb", "index", "middle", "ring")
    wrist = RigidTransform(Rotation.from_axis_angle([0.2, 1.0, -0.3], 0.15),
                           np.array([0.01, -0.02, 0.03]))
    tips = link_origins(hand16, 0.8 * q0, wrist.rotation.as_matrix(), wrist.translation,
                        [mapping16.entries[d] for d in digits])
    contacts = ContactTargets(active=digits, targets=dict(zip(digits, tips)),
                              lambda_init=0.01, alternations=3)
    refine_contact(hand16, q0, RigidTransform.identity(), mapping16, contacts,
                   RetargetConfig())


def test_alignment_reaches_its_hooked_layers(monkeypatch):
    """One aligned frame calls the depth kernel, the problem builder, the
    solver and the k-d tree builder through the attributes the traced run
    hooks, so inlining one of them, or swapping the solver, fails here and
    not only in the traced run's self-check."""
    hits = Counter()
    for module, attr, *_ in _tracing().HOOKS:
        if module == "alignment":
            def counted(*args, _attr=attr, _fn=getattr(alignment, attr), **kwargs):
                hits[_attr] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(alignment, attr, counted)
    _align_one_frame()
    reached = {"smooth_depth_residuals", "alignment_problem", "minimize_box", "build_index"}
    assert reached <= {attr for attr, calls in hits.items() if calls}


def test_scale_scan_pass_reaches_the_hooked_kernel(monkeypatch):
    """The scale scan scores its 17 candidates in one stacked depth-kernel
    pass through the hooked ``alignment.smooth_depth_residuals``, so the
    traced kernel count takes in the scan; a scan pass that bypassed the
    attribute would make the count read low without failing a self-check."""
    sizes = []
    kernel = alignment.smooth_depth_residuals

    def counted(points, *args, **kwargs):
        sizes.append(len(points))
        return kernel(points, *args, **kwargs)

    monkeypatch.setattr(alignment, "smooth_depth_residuals", counted)
    _align_one_frame()
    assert len(alignment._SCALE_GRID) == 17
    assert sizes.count(17 * 500) == 1
    assert set(sizes) == {500, 17 * 500}


def _noisy_trajectory(n=3):
    """n frames of a slowly moving hand and their noisy observations."""
    frames, observations = [], []
    rng = np.random.default_rng(2)
    for k in range(n):
        joints = canonical_hand_joints(0.4) + np.array([0.002 * k, 0.0, 0.45])
        frames.append(HandFrame(joints=joints, frame_index=k,
                                wrist_pose=RigidTransform(Rotation.identity(), joints[0])))
        pts = sample_hand_surface(joints, 500, seed=k, visible_from=(0.0, 0.0, 0.0))
        observed = pts + rng.normal(size=pts.shape) * 0.002
        depth = splat_depth(observed, DEFAULT_INTRINSICS, 3)
        observations.append(FrameObservation(
            cloud=estimate_normals(PointCloud(points=observed), k=12), depth=depth,
            hand_mask=depth.valid))
    return frames, observations


def test_trajectory_builds_one_index_per_frame_and_no_final_pass(monkeypatch, caplog):
    """The traced run counts k-d tree builds and depth-kernel passes
    through the hooked ``alignment.build_index`` and
    ``alignment.smooth_depth_residuals``. Over n frames ``align_trajectory``
    builds exactly n trees, one per frame's alignment state, and a frame's
    final residuals run no kernel pass after its last score: they read the
    moved points the frame kept, also after a stop on no improvement,
    when the last scored solution is not the one returned."""
    hooked = {(module, attr) for module, attr, *_ in _tracing().HOOKS}
    assert {("alignment", "build_index"), ("alignment", "smooth_depth_residuals")} <= hooked
    events = []
    for attr, on_return in (("build_index", False), ("smooth_depth_residuals", False),
                            ("_evaluate", True), ("depth_consistency_loss", True)):
        def recorded(*args, _attr=attr, _after=on_return, _fn=getattr(alignment, attr),
                     **kwargs):
            if not _after:
                events.append(_attr)
            out = _fn(*args, **kwargs)
            if _after:
                events.append(_attr)
            return out
        monkeypatch.setattr(alignment, attr, recorded)
    frames, observations = _noisy_trajectory()
    with caplog.at_level(logging.DEBUG, logger="dexretarget.alignment"):
        alignment.align_trajectory(HandTrajectory(frames=frames), observations,
                                   DEFAULT_INTRINSICS)
    assert "stopped on no-improvement" in caplog.text
    assert events.count("build_index") == len(frames)
    starts = [i for i, event in enumerate(events) if event == "build_index"] + [len(events)]
    for start, end in zip(starts, starts[1:]):
        frame = events[start:end]
        last_score = len(frame) - 1 - frame[::-1].index("_evaluate")
        assert frame[last_score:] == ["_evaluate", "depth_consistency_loss"]


def test_trajectory_splats_once_per_frame_for_its_final_residual(monkeypatch):
    """The traced run counts splats through the hooked
    ``alignment.splat_depth``. Over n frames ``align_trajectory`` splats
    exactly n times, each for a frame's final depth residual: the start
    overlap test reads the footprints' pixels and splats no depth image."""
    assert ("alignment", "splat_depth") in {(m, a) for m, a, *_ in _tracing().HOOKS}
    events = []
    for attr in ("splat_depth", "depth_consistency_loss"):
        def recorded(*args, _attr=attr, _fn=getattr(alignment, attr), **kwargs):
            events.append(_attr)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(alignment, attr, recorded)
    frames, observations = _noisy_trajectory(4)
    alignment.align_trajectory(HandTrajectory(frames=frames), observations, DEFAULT_INTRINSICS)
    assert events == ["depth_consistency_loss", "splat_depth"] * len(frames)


def test_calibration_reaches_its_hooked_depth_layers(monkeypatch, tmp_path):
    """A calibrate run reads, backprojects and re-renders every frame's
    depth map through the attributes the traced run hooks, so a windowed
    path that bypasses one of them fails here and not only in the traced
    run's self-check."""
    depth_hooks = {("dataio", "read_pfm_depth"), ("pipeline", "calibrate_depth_sequence"),
                   ("alignment", "backproject_depth"), ("alignment", "splat_depth")}
    assert depth_hooks <= {(module, attr) for module, attr, *_ in _tracing().HOOKS}
    hits = Counter()
    for module_name, attr in depth_hooks:
        module = importlib.import_module(f"dexretarget.{module_name}")

        def counted(*args, _key=(module_name, attr), _fn=getattr(module, attr), **kwargs):
            hits[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    frames = 2
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "3",
                     "--frames", str(frames), "--depth-scale", "0.8"]) == 0
    (tmp_path / "hand.urdf").write_text(
        resources.files("dexretarget.assets").joinpath("four_finger_16dof.urdf").read_text())
    (tmp_path / "config.json").write_text(json.dumps({
        "urdf": "hand.urdf", "hand_trajectory": "hand_trajectory.json",
        "observations_dir": "observations", "output_dir": "out",
        "object_cloud_true": "object_true.ply", "object_cloud_pred": "object_pred.ply",
        "taxonomy": "medium-wrap",
        "finger_mapping": {"thumb": "thumb_tip", "index": "index_tip",
                           "middle": "middle_tip", "ring": "ring_tip"}}))
    hits.clear()
    assert cli.main(["calibrate", "--config", str(tmp_path / "config.json")]) == 0
    assert hits == {("dataio", "read_pfm_depth"): frames,
                    ("pipeline", "calibrate_depth_sequence"): 1,
                    ("alignment", "backproject_depth"): frames,
                    ("alignment", "splat_depth"): frames}


@pytest.mark.parametrize("stage", ["retarget", "refine"])
def test_retarget_reaches_its_hooked_fk(stage, monkeypatch, hand16, spec16, mapping16):
    """Retarget and refine take link origins, and their Jacobian for each
    gradient, through the FK attributes the traced run hooks on the
    retarget module, so moving the Jacobian call out of the hooked
    ``retarget.link_origins_batch`` fails here and not only in the traced
    run's self-check."""
    hits = Counter()
    for module, attr, _, kind, _ in _tracing().HOOKS:
        if module == "retarget" and kind == "fk":
            def counted(*args, _attr=attr, _fn=getattr(retarget, attr), **kwargs):
                hits[_attr, bool(kwargs.get("jacobian"))] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(retarget, attr, counted)
    if stage == "retarget":
        _retarget_one_frame(hand16, spec16)
    else:
        _refine_one_frame(hand16, mapping16)
    assert hits["link_origins_batch", True] > 0
    assert hits["link_origins", False] > 0


def test_trajectory_solves_each_frame_through_the_hooked_retarget_frame(
        monkeypatch, hand16, spec16, mapping16):
    """The traced run times each frame's solve through the hooked
    ``retarget.retarget_frame``, so a trajectory loop that solved its frames
    past that attribute fails here and not only in the traced run's
    self-check. Every frame takes the same problem terms, resolved once."""
    assert ("retarget", "retarget_frame") in {(m, a) for m, a, *_ in _tracing().HOOKS}
    frame, calls = retarget.retarget_frame, []

    def counted(*args, **kwargs):
        calls.append(kwargs["terms"])
        return frame(*args, **kwargs)

    monkeypatch.setattr(retarget, "retarget_frame", counted)
    hands = []
    for k, curl in enumerate((0.2, 0.3, 0.4)):
        joints = canonical_hand_joints(curl) + np.array([0.0, 0.0, 0.45])
        hands.append(HandFrame(joints=joints, frame_index=k,
                               wrist_pose=RigidTransform(Rotation.identity(), joints[0])))
    plan = retarget.retarget_trajectory(
        hand16, hands, [HandAlignment.initial(k) for k in range(3)], mapping16, spec16,
        TaxonomyClass.MEDIUM_WRAP, TaxonomyWeightTable.default(), RetargetConfig())
    assert len(calls) == len(plan) == 3
    assert calls[0] is not None and all(terms is calls[0] for terms in calls)


@pytest.mark.parametrize("stage", ["alignment", "retarget", "refine"])
def test_solver_problem_survives_replacing_its_callables(stage, monkeypatch, hand16, spec16,
                                                         mapping16):
    """Each problem a stage hands its solver is a BoxProblem whose objective
    and gradient can be swapped by dataclasses.replace, as the traced run
    does, without changing the solver's report. Refine's solves go through
    the same ``retarget.minimize_box`` as retarget's."""
    module = alignment if stage == "alignment" else retarget
    solve = module.minimize_box
    solves = []

    def hook(problem, *args, **kwargs):
        assert type(problem) is BoxProblem
        wrapped = dataclasses.replace(problem, objective=lambda x: problem.objective(x),
                                      gradient=lambda x: problem.gradient(x))
        report = solve(problem, *args, **kwargs)
        again = solve(wrapped, *args, **kwargs)
        assert again.x_star.tobytes() == report.x_star.tobytes()
        assert (again.f_star, again.iterations, again.termination) == \
            (report.f_star, report.iterations, report.termination)
        solves.append(report)
        return report

    monkeypatch.setattr(module, "minimize_box", hook)
    if stage == "alignment":
        _align_one_frame()
    elif stage == "retarget":
        _retarget_one_frame(hand16, spec16)
    else:
        _refine_one_frame(hand16, mapping16)
    assert solves


def test_timings_are_the_timed_stages_run(tmp_path):
    """The benchmark reports ``pipeline.<stage>_s`` from
    ``PipelineResult.timings`` and takes the load time as the wall time less
    their sum, so the keys are exactly the stages run so far, in order,
    with neither the config nor the output stage timed. A calibrate run
    without object clouds runs no calibration but still records it."""
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "3",
                     "--frames", "2"]) == 0
    (tmp_path / "hand.urdf").write_text(
        resources.files("dexretarget.assets").joinpath("four_finger_16dof.urdf").read_text())
    doc = {"urdf": "hand.urdf", "hand_trajectory": "hand_trajectory.json",
           "observations_dir": "observations", "output_dir": "out",
           "taxonomy": "medium-wrap",
           "finger_mapping": {"thumb": "thumb_tip", "index": "index_tip",
                              "middle": "middle_tip", "ring": "ring_tip"}}
    (tmp_path / "bare.json").write_text(json.dumps(doc))
    doc.update(object_cloud_true="object_true.ply", object_cloud_pred="object_pred.ply")
    (tmp_path / "config.json").write_text(json.dumps(doc))
    stages = ["calibrate", "align", "retarget", "refine"]
    config = dataio.load_config(tmp_path / "config.json")[0]
    for n, stop_after in enumerate(stages, start=1):
        timings = pipeline.run_pipeline(config, stop_after=stop_after).timings
        assert list(timings) == stages[:n]
        assert all(t >= 0.0 for t in timings.values())
    bare = pipeline.run_pipeline(dataio.load_config(tmp_path / "bare.json")[0],
                                 stop_after="calibrate")
    assert bare.calibration is None and list(bare.timings) == ["calibrate"]
