"""Command-line entry point.

Sub-commands expose the pipeline and its individual stages. Exit codes:
0 success, 1 input/config error, 2 convergence/registration failure.
Every non-zero exit prints a single line 'ERROR <stage>: ...' to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .errors import (
    AlignmentError,
    ConfigError,
    DataParseError,
    DexRetargetError,
    FormatError,
    InvalidArgumentError,
    LineSearchError,
    RefineError,
    RegistrationError,
    RetargetError,
    SolverStartError,
    UrdfStructureError,
    UrdfValidationError,
)
from .pipeline import StageFailure, run_pipeline
from .robot_model import forward_kinematics, parse_urdf
from .synthetic import SynthConfig, synth_hand_trajectory

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2

_INPUT_ERRORS = (ConfigError, DataParseError, FormatError, InvalidArgumentError,
                 UrdfStructureError, UrdfValidationError, OSError)
_CONVERGENCE_ERRORS = (AlignmentError, RegistrationError, RetargetError,
                       RefineError, SolverStartError, LineSearchError)


def _setup_logging(verbose: bool) -> None:
    level_name = os.environ.get("RETARGET_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    if verbose:
        level = min(level, logging.DEBUG)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fail(stage: str, exc: Exception, code: int) -> int:
    message = str(exc).replace("\n", " ")
    print(f"ERROR {stage}: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    stage = "synth"
    try:
        if args.frames < 1:
            raise InvalidArgumentError("--frames must be at least 1")
        cfg = SynthConfig(
            n_frames=args.frames,
            noise_sigma=args.noise,
            seed=args.seed,
            depth_scale=args.depth_scale,
        )
        fixture = synth_hand_trajectory(cfg)
        out = Path(args.out_dir)
        obs = out / "observations"
        obs.mkdir(parents=True, exist_ok=True)
        dataio.write_hand_trajectory(fixture.trajectory, out / "hand_trajectory.json")
        dataio.write_intrinsics(fixture.intrinsics, obs / "intrinsics.json")
        for k, (cloud, depth, mask) in enumerate(
                zip(fixture.clouds, fixture.depths, fixture.masks)):
            dataio.write_ply(cloud, obs / f"frame_{k:04d}.ply")
            dataio.write_pfm_depth(depth, obs / f"frame_{k:04d}.pfm")
            dataio.write_pgm_mask(mask, obs / f"frame_{k:04d}.pgm")
        dataio.write_ply(fixture.object_true, out / "object_true.ply")
        dataio.write_ply(fixture.object_pred, out / "object_pred.ply")
        print(f"wrote {args.frames}-frame fixture to {out}")
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        return _fail(stage, exc, EXIT_INPUT)


def _run_stages(args, stop_after: str) -> int:
    try:
        config, warnings = dataio.load_config(args.config, lenient=args.lenient)
        for w in warnings:
            logging.getLogger(__name__).warning(w)
    except _INPUT_ERRORS as exc:
        return _fail("config", exc, EXIT_INPUT)
    try:
        result = run_pipeline(config, stop_after=stop_after)
    except StageFailure as exc:
        if isinstance(exc.cause, _CONVERGENCE_ERRORS):
            return _fail(exc.stage, exc.cause, EXIT_CONVERGENCE)
        return _fail(exc.stage, exc.cause, EXIT_INPUT)
    if result.trajectory is not None:
        print(f"trajectory: {result.trajectory_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def cmd_fk(args) -> int:
    stage = "fk"
    try:
        model = parse_urdf(Path(args.urdf).read_text())
        q = np.array([float(t) for t in args.q.split(",")]) if args.q else model.mid_limits()
        frames = forward_kinematics(model, q)
        links = args.links.split(",") if args.links else list(frames)
        out = {}
        for name in links:
            if not model.has_link(name):
                raise InvalidArgumentError(f"unknown link {name!r}")
            out[name] = [float(v) for v in frames.origin(name)]
        print(json.dumps(out, indent=1, sort_keys=True))
        return EXIT_OK
    except (ValueError,) + _INPUT_ERRORS as exc:  # ValueError: a non-numeric --q
        return _fail(stage, exc, EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dexretarget",
        description="Convert human hand-object interaction trajectories into "
                    "robot-hand grasp trajectories.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="debug logging (never changes numerical output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic demonstration fixture")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--depth-scale", type=float, default=1.0,
                   help="observation-space scale factor (simulates miscalibrated depth)")
    p.set_defaults(func=cmd_synth)

    # stage commands: name, last stage run, help
    for name, stop_after, help_text in (
        ("pipeline", "refine", "run the full pipeline"),
        ("calibrate", "calibrate", "run depth calibration only"),
        ("align", "align", "run through per-frame hand alignment"),
        ("retarget", "retarget", "run through kinematic retargeting"),
        ("refine", "refine", "run through contact refinement"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--lenient", action="store_true",
                       help="warn on unknown config keys instead of failing")
        p.set_defaults(func=functools.partial(_run_stages, stop_after=stop_after))

    p = sub.add_parser("fk", help="print link origins at a joint configuration")
    p.add_argument("--urdf", required=True)
    p.add_argument("--q", default="", help="comma-separated joint values (default mid-limits)")
    p.add_argument("--links", default="", help="comma-separated link names (default all)")
    p.set_defaults(func=cmd_fk)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except DexRetargetError as exc:  # uncategorized package error
        return _fail(args.command, exc, EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
