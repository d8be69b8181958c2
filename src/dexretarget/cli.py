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
from .errors import ConvergenceError, DexRetargetError, InvalidArgumentError
from .pipeline import StageFailure, run_pipeline, stage
from .robot_model import link_origins, parse_urdf
from .synthetic import SynthConfig, synth_hand_trajectory

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2

log = logging.getLogger(__name__)


def _setup_logging(verbose: bool) -> None:
    level_name = os.environ.get("RETARGET_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    if verbose:
        level = min(level, logging.DEBUG)
    # basicConfig adds the handler once; the level is this call's
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def _fail(name: str, exc: Exception) -> int:
    """Print the one ERROR line for a failure of stage ``name``; exit 2 for
    a ConvergenceError, 1 for any other."""
    message = str(exc).replace("\n", " ")
    print(f"ERROR {name}: {message}", file=sys.stderr)
    return EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INPUT


def cmd_synth(args) -> int:
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


def _run_stages(args, stop_after: str) -> int:
    with stage("config"):
        config, warnings = dataio.load_config(args.config, lenient=args.lenient)
    for w in warnings:
        log.warning(w)
    result = run_pipeline(config, stop_after=stop_after)
    if result.trajectory is not None:
        print(f"trajectory: {result.trajectory_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def cmd_fk(args) -> int:
    model = parse_urdf(dataio.read_text(args.urdf))
    for w in model.warnings:
        log.warning("%s: %s", args.urdf, w)
    try:
        q = np.array([float(t) for t in args.q.split(",")]) if args.q else model.mid_limits()
    except ValueError as exc:
        raise InvalidArgumentError(f"--q must be comma-separated numbers: {exc}") from exc
    if not np.all(np.isfinite(q)):
        raise InvalidArgumentError(f"--q values must be finite, got {args.q!r}")
    links = args.links.split(",") if args.links else model.links
    origins = link_origins(model, q, np.eye(3), np.zeros(3), links)
    out = {name: [float(v) for v in o] for name, o in zip(links, origins)}
    print(json.dumps(out, indent=1, sort_keys=True))
    return EXIT_OK


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


def _bind_q_value(argv: list) -> list:
    """Rewrite ``--q -0.1,...`` as ``--q=-0.1,...``: argparse would read a
    joint list that starts with a minus sign as an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] == "--q" and token.startswith("-") and not token.startswith("--"):
            out[-1] = "--q=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_bind_q_value(sys.argv[1:] if argv is None else argv))
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except StageFailure as exc:
        return _fail(exc.stage, exc.cause)
    except (OSError, DexRetargetError) as exc:
        return _fail(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
