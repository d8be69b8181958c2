"""Build one workload's input files from a seed.

Runs in its own interpreter (``python3 perfbench/fixtures.py <workload>
<seed> <dir>`` with the package's ``src`` on PYTHONPATH), so generation
neither counts toward the benchmark process's peak RSS nor leaves state
the measured program could reuse. The program later receives only the
files written here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

# the criterion-11 generator settings; ingest60 only lengthens the run
SYNTH_ARGS = {"noise": 0.001, "depth_scale": 0.8}
FRAMES = {"traj10": 10, "ingest60": 60}
# the synth seed of criterion 11's fixture
CANONICAL_SEED = 7

# one demonstration per grasp type, each from its own seed
DEMO_TAXONOMIES = ("medium-wrap", "tip-pinch", "power-sphere", "lateral-tripod")
DEMO_FRAMES = 200
# per-keypoint jitter of a hand-pose estimator, metres; the seed draws it
DEMO_JITTER = 0.001

FINGER_MAPPING = {"thumb": "thumb_tip", "index": "index_tip",
                  "middle": "middle_tip", "ring": "ring_tip"}
PROXIMAL_LINKS = {"thumb": "thumb_medial", "index": "index_medial",
                  "middle": "middle_medial", "ring": "ring_medial"}


def demo_seeds(workload: str, seed: int) -> list:
    """Generator seed of each demonstration of a run.

    traj10 pairs the criterion-11 fixture with one from the run's seed:
    alignment work moves ~+-7% with the fixture seed, and holding one of
    the two fixed halves that swing in the run's time while every seed
    still brings new inputs. ingest60's reader work does not depend on the
    seed; retarget4x200 draws one seed per grasp type.
    """
    if workload == "traj10":
        return [CANONICAL_SEED, seed + 1000]
    if workload == "ingest60":
        return [seed]
    return [seed + 1000 * i for i in range(len(DEMO_TAXONOMIES))]


def pipeline_config(seed: int, taxonomy: str = "medium-wrap", **paths) -> dict:
    """The criterion-11 configuration with the fixture's own seed."""
    config = {
        "urdf": "../hand.urdf",
        "hand_trajectory": "hand_trajectory.json",
        "observations_dir": "observations",
        "output_dir": "out",
        "object_cloud_true": "object_true.ply",
        "object_cloud_pred": "object_pred.ply",
        "taxonomy": taxonomy,
        "finger_mapping": FINGER_MAPPING,
        "proximal_links": PROXIMAL_LINKS,
        "seed": seed,
    }
    config.update(paths)
    return config


def demo_trajectory(seed: int):
    """One retarget demonstration: the generator's default 200-frame grasp
    approach with seeded keypoint jitter on every joint but the wrist.
    Jitter over 200 frames keeps the solver work per demonstration nearly
    the same for every seed, while each seed still gives new inputs. Only
    the hand trajectory is kept, so the observations are made minimal."""
    from dexretarget.geometry import CameraIntrinsics
    from dexretarget.synthetic import SynthConfig, synth_hand_trajectory

    traj = synth_hand_trajectory(SynthConfig(
        n_frames=DEMO_FRAMES, seed=seed, n_surface_points=8, n_object_points=8,
        intrinsics=CameraIntrinsics(fx=50.0, fy=50.0, cx=16.0, cy=12.0, width=32, height=24),
    )).trajectory
    rng = np.random.default_rng(seed)
    frames = []
    for frame in traj.frames:
        joints = frame.joints.copy()
        joints[1:] += DEMO_JITTER * rng.standard_normal(joints[1:].shape)
        frames.append(replace(frame, joints=joints))
    return replace(traj, frames=frames)


def build(workload: str, seed: int, out: Path) -> None:
    from dexretarget import cli, dataio

    out.mkdir(parents=True, exist_ok=True)
    urdf = resources.files("dexretarget.assets").joinpath("four_finger_16dof.urdf")
    (out / "hand.urdf").write_text(urdf.read_text())
    if workload in FRAMES:
        for i, s in enumerate(demo_seeds(workload, seed)):
            demo = out / f"demo_{i}"
            code = cli.main(["synth", "--out-dir", str(demo), "--seed", str(s),
                             "--frames", str(FRAMES[workload]),
                             "--noise", str(SYNTH_ARGS["noise"]),
                             "--depth-scale", str(SYNTH_ARGS["depth_scale"])])
            if code != 0:
                raise SystemExit(f"synth exited with {code}")
            (demo / "config.json").write_text(json.dumps(pipeline_config(s)))
        return
    # retarget4x200: pre-aligned demonstrations, one config per grasp type
    demo = out / "demos"
    (demo / "observations").mkdir(parents=True)
    for i, (taxonomy, s) in enumerate(zip(DEMO_TAXONOMIES, demo_seeds(workload, seed))):
        dataio.write_hand_trajectory(demo_trajectory(s), demo / f"demo_{i}.json")
        config = pipeline_config(seed, taxonomy, hand_trajectory=f"demo_{i}.json",
                                 output_dir=f"out/demo_{i}")
        for key in ("object_cloud_true", "object_cloud_pred"):
            del config[key]
        (demo / f"config_{i}.json").write_text(json.dumps(config))


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
