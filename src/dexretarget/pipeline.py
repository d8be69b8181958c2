"""End-to-end pipeline: calibrate the demonstration, align the hand per
frame, retarget to the robot, refine annotated contacts, and write the
grasp plan plus a stage report.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import dataio
from .alignment import (MIN_CLOUD_POINTS, FrameObservation, align_trajectory,
                        calibrate_depth_sequence)
from .dataio import PipelineConfig
from .errors import ConfigError, DexRetargetError
from .hand_model import compute_hand_scale, default_vector_spec
from .pointcloud import estimate_normals
from .retarget import (
    assemble_grasp_plan,
    contacts_from_hand,
    refine_contact,
    retarget_trajectory,
)
from .robot_model import parse_urdf

log = logging.getLogger(__name__)

NORMAL_NEIGHBORS = 16
STAGES = ("calibrate", "align", "retarget", "refine")


class StageFailure(DexRetargetError):
    """Wraps an error with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineResult:
    trajectory_path: Path
    report_path: Path
    trajectory: object
    alignments: list
    calibration: Optional[object]
    refine_report: Optional[object]
    timings: dict


def _load_observations(config: PipelineConfig, n_frames: int):
    """The intrinsics, each frame's (cloud, depth) pair and each frame's hand mask.

    Every depth map and mask must have the intrinsics' (height, width), and
    every cloud at least MIN_CLOUD_POINTS points."""
    obs_dir = config.observations_dir
    intrinsics = dataio.read_intrinsics(obs_dir / "intrinsics.json")
    size = (intrinsics.height, intrinsics.width)
    pairs, masks = [], []
    for k in range(n_frames):
        stem = f"frame_{k:04d}"
        cloud_path = obs_dir / f"{stem}.ply"
        depth_path = obs_dir / f"{stem}.pfm"
        mask_path = obs_dir / f"{stem}.pgm"
        for p in (cloud_path, depth_path, mask_path):
            if not p.is_file():
                raise ConfigError(f"missing observation file: {p}")
        cloud = dataio.read_ply(cloud_path)
        if len(cloud) < MIN_CLOUD_POINTS:
            raise ConfigError(f"frame {k}: {cloud_path} has {len(cloud)} points;"
                              f" the observed cloud needs at least {MIN_CLOUD_POINTS}")
        depth, mask = dataio.read_pfm_depth(depth_path), dataio.read_pgm_mask(mask_path)
        for path, shape in ((depth_path, depth.shape), (mask_path, mask.shape)):
            if shape != size:
                raise ConfigError(f"{path} is {shape[1]}x{shape[0]} pixels, but the"
                                  f" intrinsics are {size[1]}x{size[0]}")
        pairs.append((cloud, depth))
        masks.append(mask)
    return intrinsics, pairs, masks


@contextmanager
def stage(name: str, timings: Optional[dict] = None, key: Optional[str] = None):
    """Run one pipeline stage: an OSError or package error raised inside
    becomes StageFailure(name, cause), and with ``timings`` the stage's
    wall time is recorded under ``key`` (default ``name``)."""
    t0 = time.perf_counter()
    try:
        yield
    except (OSError, DexRetargetError) as exc:
        raise StageFailure(name, exc) from exc
    if timings is not None:
        timings[key or name] = time.perf_counter() - t0


def run_pipeline(config: PipelineConfig, stop_after: str = "refine") -> PipelineResult:
    """Run the pipeline; ``stop_after`` in STAGES truncates it for stage
    inspection. The outputs are written whatever stage it stops after.

    Raises StageFailure naming the failing stage.
    """
    if stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}; expected one of {list(STAGES)}")
    last = STAGES.index(stop_after)
    timings = {}
    calibration = robot_traj = refine_report = None
    alignments = []

    with stage("config"):
        config.output_dir.mkdir(parents=True, exist_ok=True)
        model = parse_urdf(dataio.read_text(config.urdf))
        for w in model.warnings:
            log.warning("%s: %s", config.urdf, w)
        trajectory = dataio.read_hand_trajectory(config.hand_trajectory)
        intrinsics, pairs, masks = _load_observations(config, len(trajectory))
        config.finger_mapping.validate_against(model)
        palm = config.palm_link or model.root_link
        if not model.has_link(palm):
            raise ConfigError(f"palm link {palm!r} not in model")
        for link in (config.proximal_links or {}).values():
            if not model.has_link(link):
                raise ConfigError(f"proximal link {link!r} not in model")

    with stage("calibrate", timings):
        if config.object_cloud_true is not None and config.object_cloud_pred is not None:
            obj_true = dataio.read_ply(config.object_cloud_true)
            obj_pred = dataio.read_ply(config.object_cloud_pred)
            # calibrates the pairs in place, so the uncalibrated and the
            # calibrated maps of all frames are never held at once
            calibration, _ = calibrate_depth_sequence(
                pairs, obj_true, obj_pred, intrinsics,
                with_scale=config.calibrate_scale,
            )
            log.info("calibration: scale=%.6f angle=%.5f rad",
                     calibration.scale, calibration.rotation.angle())

    if last >= STAGES.index("align"):
        with stage("align", timings):
            observations = [
                FrameObservation(
                    cloud=estimate_normals(cloud, k=min(NORMAL_NEIGHBORS, max(3, len(cloud) - 1))),
                    depth=depth, hand_mask=mask)
                for (cloud, depth), mask in zip(pairs, masks)
            ]
            alignments = align_trajectory(
                trajectory, observations, intrinsics, cfg=config.align, seed=config.seed
            )

    if last >= STAGES.index("retarget"):
        with stage("retarget", timings):
            spec = default_vector_spec(config.finger_mapping, palm, config.proximal_links)
            corrected0 = trajectory.frames[0].transformed(
                alignments[0].sigma, alignments[0].correction
            )
            scale = compute_hand_scale(model, config.finger_mapping, corrected0)
            rcfg = replace(config.retarget, scale=scale)
            robot_traj = retarget_trajectory(
                model, trajectory.frames, alignments, config.finger_mapping,
                spec, config.taxonomy, config.weight_table, rcfg,
            )

    if last >= STAGES.index("refine"):
        # contact refinement on the last annotated frame
        with stage("refine_contact", timings, key="refine"):
            for k in range(len(trajectory) - 1, -1, -1):
                align = alignments[k]
                contacts = contacts_from_hand(
                    trajectory.frames[k].transformed(align.sigma, align.correction),
                    config.finger_mapping, lambda_init=config.retarget.lambda_init,
                    alternations=config.retarget.alternations,
                )
                if contacts is None:
                    continue
                frame = robot_traj.frames[k]
                q_ref, wrist_ref, refine_report = refine_contact(
                    model, frame.q, frame.wrist_pose, config.finger_mapping, contacts, rcfg)
                robot_traj = assemble_grasp_plan(robot_traj, k, (q_ref, wrist_ref))
                log.info("refine: %d rounds, mean tip error %.5f m",
                         refine_report.rounds, refine_report.mean_tip_error)
                break

    traj_path = config.output_dir / "robot_trajectory.json"
    report_path = config.output_dir / "report.txt"
    with stage("output"):
        if robot_traj is not None:
            dataio.write_robot_trajectory(robot_traj, traj_path)
        report_path.write_text(render_report(alignments, calibration, refine_report, timings))
        if alignments:
            _write_alignment_report(alignments, config.output_dir / "alignments.txt")
    return PipelineResult(
        trajectory_path=traj_path,
        report_path=report_path,
        trajectory=robot_traj,
        alignments=alignments,
        calibration=calibration,
        refine_report=refine_report,
        timings=timings,
    )


def _write_alignment_report(alignments, path: Path) -> None:
    lines = ["# frame sigma  tx ty tz (m)  rot (rad)  icp_rms (m)  depth_mae (m)  converged"]
    for a in alignments:
        t = a.correction.translation
        lines.append(
            f"{a.frame_index:5d} {a.sigma:.6f}  {t[0]:+.6f} {t[1]:+.6f} {t[2]:+.6f}"
            f"  {a.correction.rotation.angle():.6f}  {a.icp_residual:.6f}"
            f"  {a.depth_residual:.6f}  {a.converged}"
        )
    path.write_text("\n".join(lines) + "\n")


def render_report(alignments, calibration, refine_report, timings) -> str:
    lines = ["pipeline stage report", "====================="]
    if calibration is not None:
        lines.append(
            f"calibration: scale={calibration.scale:.6f}"
            f" rotation={calibration.rotation.angle():.6f} rad"
            f" translation={np.array2string(calibration.translation, precision=5)}"
        )
    else:
        lines.append("calibration: skipped (no object clouds)")
    if alignments:
        sig = [a.sigma for a in alignments]
        icp = [a.icp_residual for a in alignments]
        n_conv = sum(1 for a in alignments if a.converged)
        lines.append(
            f"alignment: {len(alignments)} frames ({n_conv} converged),"
            f" sigma range [{min(sig):.4f}, {max(sig):.4f}],"
            f" icp rms mean {float(np.mean(icp)):.5f} m"
        )
    if refine_report is not None:
        lines.append(
            f"refinement: {refine_report.rounds} rounds,"
            f" contact loss {refine_report.loss_history[0]:.3e}"
            f" -> {refine_report.loss_history[-1]:.3e},"
            f" mean tip error {refine_report.mean_tip_error:.5f} m"
        )
        for w in refine_report.warnings:
            lines.append(f"  warning: {w}")
    lines.append("timings:")
    for stage, dt in timings.items():
        lines.append(f"  {stage}: {dt:.3f} s")
    return "\n".join(lines) + "\n"
