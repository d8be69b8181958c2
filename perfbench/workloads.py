"""The three workloads: how one demonstration is run, checked and scored.

An operation is one demonstration through the package's public entry
points. ``execute`` is the timed part; ``check`` runs afterwards and
returns the output digest plus any problem that fails the operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from fixtures import DEMO_FRAMES, DEMO_TAXONOMIES, FRAMES, SYNTH_ARGS, demo_seeds


class _ResultCapture:
    """Keeps the PipelineResult that ``cli.main`` discards, for the output
    checks. Installed for every run, traced or not; it adds one Python
    call per operation."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.run_pipeline
        self.result = None

    def __enter__(self):
        def capture(*args, **kwargs):
            self.result = self.original(*args, **kwargs)
            return self.result

        self.cli.run_pipeline = capture
        return self

    def __exit__(self, *exc):
        self.cli.run_pipeline = self.original


def _within_limits(m, path: Path, model) -> list:
    """Read the plan back and check every q against the joint limits
    (with the tolerance criterion 11 uses)."""
    traj = m.dataio.read_robot_trajectory(path, model)
    lo, hi = model.limit_arrays()
    bad = [f.frame_index for f in traj.frames
           if np.any(f.q < lo - 1e-9) or np.any(f.q > hi + 1e-9)]
    return [f"frames {bad} violate joint limits"] if bad else []


def plan_vector_loss(m, model, config, hands, alignments, plan) -> list:
    """Exact vector_matching_loss of every plan frame against the aligned
    human reference vectors, mirroring how the pipeline builds them."""
    palm = config.palm_link or model.root_link
    spec = m.hand_model.default_vector_spec(config.finger_mapping, palm, config.proximal_links)
    corrected0 = hands[0].transformed(alignments[0].sigma, alignments[0].correction)
    scale = m.hand_model.compute_hand_scale(model, config.finger_mapping, corrected0)
    weights = m.hand_model.taxonomy_weights(config.taxonomy, spec, config.weight_table)
    cfg = replace(config.retarget, scale=scale, weights=weights)
    losses = []
    for hand, align, frame in zip(hands, alignments, plan.frames):
        corrected = hand.transformed(align.sigma, align.correction)
        ref = m.hand_model.reference_vectors(corrected, spec, scale)
        losses.append(m.retarget.vector_matching_loss(
            model, frame.q, frame.wrist_pose, ref, spec, cfg))
    return losses


class PipelineWorkload:
    """traj10 and ingest60: ``dexretarget <stage> --config`` in-process, one
    fixture per demonstration."""

    def __init__(self, name, fixture: Path, m):
        self.name = name
        self.stage = "pipeline" if name == "traj10" else "calibrate"
        self.frames = FRAMES[name]
        self.n_demos = len(demo_seeds(name, 0))
        self.fixture = fixture
        self.m = m
        self.config_paths = [fixture / f"demo_{i}" / "config.json" for i in range(self.n_demos)]
        self.results = [None] * self.n_demos
        self.code = self.out = self.err = None

    def setup(self):
        self.model = self.m.robot_model.parse_urdf((self.fixture / "hand.urdf").read_text())
        self.configs = [self.m.dataio.load_config(p)[0] for p in self.config_paths]

    def execute(self, demo):
        out, err = io.StringIO(), io.StringIO()
        with _ResultCapture(self.m.cli) as capture, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.code = self.m.cli.main([self.stage, "--config", str(self.config_paths[demo])])
        self.results[demo], self.out, self.err = capture.result, out.getvalue(), err.getvalue()

    def check(self, demo):
        problems = []
        if self.code != 0:
            problems.append(f"exit code {self.code}")
        problems += [ln for ln in (self.out + self.err).splitlines() if ln.startswith("ERROR")]
        result = self.results[demo]
        if problems or result is None:
            return None, problems or ["no pipeline result"]
        if self.stage == "pipeline":
            data = result.trajectory_path.read_bytes()
            problems += _within_limits(self.m, result.trajectory_path, self.model)
        else:
            # calibrate writes no plan: digest the report without its wall
            # times, plus the exact calibration it summarises
            report = result.report_path.read_text().split("timings:")[0]
            cal = result.calibration
            exact = [cal.scale, *cal.rotation.quat, *cal.translation]
            data = (report + " ".join(float(v).hex() for v in exact)).encode()
        return hashlib.sha256(data).hexdigest(), problems

    def timings(self, demo):
        return self.results[demo].timings

    def quality(self):
        """Quality of the last output of each demonstration, averaged."""
        rows = []
        for config, result in zip(self.configs, self.results):
            q = {"calib_scale_err":
                 abs(result.calibration.scale - 1.0 / SYNTH_ARGS["depth_scale"])}
            if self.stage == "pipeline":
                hands = self.m.dataio.read_hand_trajectory(config.hand_trajectory).frames
                q["align_icp_rms_mm"] = 1e3 * float(np.mean(
                    [a.icp_residual for a in result.alignments]))
                q["retarget_vec_loss"] = float(np.mean(plan_vector_loss(
                    self.m, self.model, config, hands, result.alignments, result.trajectory)))
                q["refine_tip_err_mm"] = 1e3 * result.refine_report.mean_tip_error
            rows.append(q)
        return {k: float(np.mean([q[k] for q in rows])) for k in rows[0]}


class RetargetWorkload:
    """retarget4x200: four pre-aligned demonstrations through the
    retarget and refine entry points, one grasp type each."""

    n_demos = len(DEMO_TAXONOMIES)
    frames = DEMO_FRAMES

    def __init__(self, name, fixture: Path, m):
        self.name = name
        self.fixture = fixture
        self.m = m
        self.config_paths = [fixture / "demos" / f"config_{i}.json" for i in range(self.n_demos)]
        self.plans = [None] * self.n_demos
        self.refine_reports = [None] * self.n_demos

    def setup(self):
        m = self.m
        self.model = m.robot_model.parse_urdf((self.fixture / "hand.urdf").read_text())
        self.configs = [m.dataio.load_config(p)[0] for p in self.config_paths]

    def execute(self, demo):
        m, model, config = self.m, self.model, self.configs[demo]
        hands = m.dataio.read_hand_trajectory(config.hand_trajectory).frames
        alignments = [m.alignment.HandAlignment.initial(h.frame_index) for h in hands]
        mapping = config.finger_mapping
        palm = config.palm_link or model.root_link
        spec = m.hand_model.default_vector_spec(mapping, palm, config.proximal_links)
        scale = m.hand_model.compute_hand_scale(model, mapping, hands[0])
        rcfg = replace(config.retarget, scale=scale)
        plan = m.retarget.retarget_trajectory(model, hands, alignments, mapping, spec,
                                              config.taxonomy, config.weight_table, rcfg)
        for k in range(len(hands) - 1, -1, -1):
            contacts = m.retarget.contacts_from_hand(
                hands[k], mapping, lambda_init=rcfg.lambda_init, alternations=rcfg.alternations)
            if contacts is not None:
                frame = plan.frames[k]
                q_ref, wrist_ref, report = m.retarget.refine_contact(
                    model, frame.q, frame.wrist_pose, mapping, contacts, rcfg)
                plan = m.retarget.assemble_grasp_plan(plan, k, (q_ref, wrist_ref))
                self.refine_reports[demo] = report
                break
        config.output_dir.mkdir(parents=True, exist_ok=True)
        m.dataio.write_robot_trajectory(plan, config.output_dir / "robot_trajectory.json")
        self.plans[demo] = plan

    def check(self, demo):
        path = self.configs[demo].output_dir / "robot_trajectory.json"
        problems = _within_limits(self.m, path, self.model)
        if self.refine_reports[demo] is None:
            problems.append("no contact frame was refined")
        return hashlib.sha256(path.read_bytes()).hexdigest(), problems

    def timings(self, demo):
        return None

    def quality(self):
        losses = []
        for config, plan in zip(self.configs, self.plans):
            hands = self.m.dataio.read_hand_trajectory(config.hand_trajectory).frames
            alignments = [self.m.alignment.HandAlignment.initial(h.frame_index) for h in hands]
            losses += plan_vector_loss(self.m, self.model, config, hands, alignments, plan)
        tips = [r.mean_tip_error for r in self.refine_reports]
        return {"retarget_vec_loss": float(np.mean(losses)),
                "refine_tip_err_mm": 1e3 * float(np.mean(tips))}


def make(name, fixture, m):
    cls = RetargetWorkload if name == "retarget4x200" else PipelineWorkload
    return cls(name, fixture, m)
