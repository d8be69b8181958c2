"""Taxonomy-weighted kinematic retargeting and hand-object contact
refinement, producing the robot grasp trajectory.

Per frame the joint configuration minimizes a weighted Huber vector
matching loss plus a temporal smoothness penalty over the joint-limit
box. Contact frames are then refined by alternating articulated joint
steps with rigid wrist corrections toward annotated contact points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    RefineError,
    RetargetError,
    SolverStartError,
)
from .geometry import RigidTransform, huber, weighted_umeyama
from .hand_model import (
    FingerMapping,
    HandFrame,
    TaxonomyClass,
    TaxonomyWeightTable,
    VectorSpec,
    reference_vectors,
    taxonomy_weights,
)
from .robot_model import RobotModel, clamp_to_limits, link_origins, link_origins_batch
from .solver import BoxProblem, SolverOptions, batch_problem, check_iteration_count, minimize_box

log = logging.getLogger(__name__)

BLEND_STEP_CAP = 0.12  # max per-joint step (rad) across the refined contact frame


@dataclass
class RetargetConfig:
    huber_delta: float = 0.02
    lambda_smooth: float = 1.0
    scale: float = 1.0                      # global human-to-robot scale
    weights: Optional[np.ndarray] = None    # per-vector, from taxonomy_weights
    lambda_init: float = 0.1                # contact refinement pull toward q_init
    alternations: int = 3
    max_tip_error: Optional[float] = None   # refine fails beyond this (meters)
    mount_offset: RigidTransform = field(default_factory=RigidTransform.identity)
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.huber_delta <= 0:
            raise InvalidArgumentError("huber_delta must be positive")
        if self.lambda_smooth < 0 or self.lambda_init < 0:
            raise InvalidArgumentError("penalty weights must be non-negative")
        if self.scale <= 0:
            raise InvalidArgumentError("scale must be positive")
        check_iteration_count("alternations", self.alternations)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)


@dataclass
class RobotTrajectoryFrame:
    frame_index: int
    wrist_pose: RigidTransform
    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)


@dataclass
class RobotTrajectory:
    """The grasp plan: a sequence of (wrist pose, joint configuration)."""

    frames: list
    model: RobotModel

    def __post_init__(self):
        indices = [f.frame_index for f in self.frames]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise InvalidArgumentError("frame indices must be strictly increasing")
        lo, hi = self.model.limit_arrays()
        for f in self.frames:
            q = self.model.check_q(f.q)
            if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
                raise InvalidArgumentError(
                    f"frame {f.frame_index}: joint configuration violates limits"
                )

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class ContactTargets:
    """Fingertip contact annotations for one frame."""

    active: tuple                       # mapped digits with targets
    targets: Dict[str, np.ndarray]      # digit -> 3D contact point
    lambda_init: float
    alternations: int

    def __post_init__(self):
        self.active = tuple(self.active)
        if not self.active:
            raise InvalidArgumentError("active digit set must be non-empty")
        for digit in self.active:
            if digit not in self.targets:
                raise InvalidArgumentError(f"active digit {digit!r} has no target")
        self.targets = {d: np.asarray(p, dtype=float) for d, p in self.targets.items()}


@dataclass
class RefineReport:
    rounds: int
    loss_history: list
    mean_tip_error: float
    warnings: list


def _vector_weights(spec: VectorSpec, cfg: RetargetConfig) -> np.ndarray:
    """The per-vector weights of cfg, all ones when it sets none."""
    w = cfg.weights if cfg.weights is not None else np.ones(spec.n_vec)
    if w.shape != (spec.n_vec,):
        raise InvalidArgumentError("weights length must match the vector spec")
    return w


def vector_matching_loss(
    model: RobotModel,
    q,
    wrist: RigidTransform,
    ref_vectors: np.ndarray,
    spec: VectorSpec,
    cfg: RetargetConfig,
) -> float:
    """Weighted mean Huber of robot-vs-reference vector discrepancies.

    ``ref_vectors`` must already carry the global scale. Vectors with a
    zero weight are skipped entirely, so their references cannot influence
    the value even at the bit level.
    """
    ref = np.asarray(ref_vectors, dtype=float)
    if ref.shape != (spec.n_vec, 3):
        raise InvalidArgumentError(
            f"expected {spec.n_vec} reference vectors, got shape {ref.shape}"
        )
    w = _vector_weights(spec, cfg)
    links, starts, ends = spec.robot_link_pairs()
    origins = link_origins(model, model.check_q(q), wrist.rotation.as_matrix(),
                           wrist.translation, links)
    robot = origins[ends] - origins[starts]
    total = 0.0
    for i in range(spec.n_vec):
        if w[i] == 0.0:
            continue
        d = float(np.linalg.norm(robot[i] - ref[i]))
        total += w[i] * huber(d, cfg.huber_delta)
    return total / spec.n_vec


def retarget_problem(
    model: RobotModel,
    ref_vectors: np.ndarray,
    spec: VectorSpec,
    wrist: RigidTransform,
    q_prev,
    cfg: RetargetConfig,
) -> BoxProblem:
    """The per-frame retargeting objective over the joint-limit box.

    Uses the smooth Huber surrogate so the finite-difference landscape is
    kink-free; vector_matching_loss reports the exact value at the result.
    """
    qp = model.check_q(q_prev)
    lo, hi = model.limit_arrays()
    wrist_r = wrist.rotation.as_matrix()
    wrist_t = wrist.translation
    ref = np.asarray(ref_vectors, dtype=float)
    w = _vector_weights(spec, cfg)
    active = np.array([i for i in range(spec.n_vec) if w[i] != 0.0], dtype=int)
    w_active = w[active]
    ref_active = ref[active]
    links, starts, ends = spec.robot_link_pairs()
    starts, ends = starts[active], ends[active]

    dd = cfg.huber_delta * cfg.huber_delta

    def objective_batch(qs):
        origins = link_origins_batch(model, qs, wrist_r, wrist_t, links)
        d = origins[:, ends] - origins[:, starts] - ref_active[None, :, :]
        sq = np.einsum("bmi,bmi->bm", d, d)
        rho = dd * (np.sqrt(1.0 + sq / dd) - 1.0)
        dq = qs - qp
        return (rho @ w_active) / spec.n_vec + cfg.lambda_smooth * np.einsum(
            "bi,bi->b", dq, dq)

    return batch_problem(lo, hi, objective_batch, cfg.solver.fd_eps)


def retarget_frame(
    model: RobotModel,
    ref_vectors: np.ndarray,
    spec: VectorSpec,
    wrist: RigidTransform,
    q_prev,
    q0,
    cfg: RetargetConfig,
):
    """Solve one frame's retargeting problem; returns (q, solve report)."""
    problem = retarget_problem(model, ref_vectors, spec, wrist, q_prev, cfg)
    try:
        report = minimize_box(problem, model.check_q(q0), cfg.solver)
    except SolverStartError as exc:
        raise RetargetError(f"retarget solve could not start: {exc}") from exc
    q = clamp_to_limits(model, report.x_star)
    return q, report


def retarget_trajectory(
    model: RobotModel,
    hands,
    alignments,
    mapping: FingerMapping,
    spec: VectorSpec,
    taxonomy: TaxonomyClass,
    table: TaxonomyWeightTable,
    cfg: RetargetConfig,
) -> RobotTrajectory:
    """Retarget an aligned hand trajectory frame by frame.

    Each frame applies its alignment correction to the human joints,
    extracts scaled reference vectors, and solves warm-started from the
    previous solution. Frame 0 starts at mid-limits with no smoothness
    coupling.
    """
    hands = list(hands)
    alignments = list(alignments)
    if len(hands) != len(alignments):
        raise InvalidArgumentError("hand frame and alignment counts differ")
    if not hands:
        raise InvalidArgumentError("trajectory must contain at least one frame")
    mapping.validate_against(model)
    spec.validate_against(model)
    weights = taxonomy_weights(taxonomy, spec, table)
    cfg = replace(cfg, weights=weights)

    q_prev = model.mid_limits()
    frames = []
    for k, (hand, align) in enumerate(zip(hands, alignments)):
        corrected = hand.transformed(align.sigma, align.correction)
        wrist = corrected.wrist_pose.compose(cfg.mount_offset)
        ref = reference_vectors(corrected, spec, cfg.scale)
        frame_cfg = cfg if k > 0 else replace(cfg, lambda_smooth=0.0)
        try:
            q, report = retarget_frame(model, ref, spec, wrist, q_prev, q_prev, frame_cfg)
        except RetargetError as exc:
            raise RetargetError(f"frame {hand.frame_index}: {exc}") from exc
        log.debug("frame %d: retarget f=%.3e iters=%d termination=%s converged=%s",
                  hand.frame_index, report.f_star, report.iterations,
                  report.termination, report.converged)
        frames.append(RobotTrajectoryFrame(hand.frame_index, wrist, q))
        q_prev = q
    return RobotTrajectory(frames=frames, model=model)


def _tips_and_targets(model, q, wrist, mapping, contacts):
    """Tip-link origins of the active digits, (m, 3) for one configuration
    or (B, m, 3) for a (B, n) batch, and their (m, 3) contact targets."""
    links = [mapping.entries[d] for d in contacts.active]
    fk = link_origins_batch if np.ndim(q) == 2 else link_origins
    tips = fk(model, q, wrist.rotation.as_matrix(), wrist.translation, links)
    return tips, np.array([contacts.targets[d] for d in contacts.active])


def contact_loss(
    model: RobotModel,
    q,
    wrist: RigidTransform,
    mapping: FingerMapping,
    contacts: ContactTargets,
) -> float:
    """Mean squared fingertip-to-target distance over the active digits."""
    for digit in contacts.active:
        if digit not in mapping.entries:
            raise InvalidArgumentError(f"active digit {digit!r} is not mapped")
    tips, targets = _tips_and_targets(model, model.check_q(q), wrist, mapping, contacts)
    diff = tips - targets
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


def _mean_tip_error(model, q, wrist, mapping, contacts) -> float:
    tips, targets = _tips_and_targets(model, q, wrist, mapping, contacts)
    return float(np.mean(np.linalg.norm(tips - targets, axis=1)))


def wrist_correction_step(
    model: RobotModel,
    q,
    wrist: RigidTransform,
    mapping: FingerMapping,
    contacts: ContactTargets,
) -> RigidTransform:
    """Rigid (scale-fixed) least-squares transform taking the current
    fingertips onto their targets. Requires at least 3 active digits."""
    if len(contacts.active) < 3:
        raise DegenerateGeometryError("wrist correction needs at least 3 active digits")
    tips, targets = _tips_and_targets(model, model.check_q(q), wrist, mapping, contacts)
    sim = weighted_umeyama(tips, targets, with_scale=False)
    return sim.rigid_part()


def refine_contact(
    model: RobotModel,
    q_init,
    wrist_init: RigidTransform,
    mapping: FingerMapping,
    contacts: ContactTargets,
    cfg: RetargetConfig,
):
    """Alternate articulated joint steps with rigid wrist corrections to
    pull the mapped fingertips onto their contact targets.

    Joint steps minimize contact loss plus lambda_init * ||q - q_init||^2
    within the limits; wrist steps apply the closed-form rigid alignment
    (skipped with a warning below 3 active digits). The recorded contact
    loss is non-increasing across rounds; a round that would increase it
    is rolled back and iteration stops.
    """
    mapping.validate_against(model)
    q_init = clamp_to_limits(model, q_init)
    q = q_init.copy()
    wrist = wrist_init
    lo, hi = model.limit_arrays()
    lam = contacts.lambda_init
    warnings = []

    loss = contact_loss(model, q, wrist, mapping, contacts)
    history = [loss]
    rounds_run = 0
    for round_index in range(contacts.alternations):
        q_snap, wrist_snap = q.copy(), wrist

        def objective_batch(qs, wrist=wrist):
            tips, targets = _tips_and_targets(model, qs, wrist, mapping, contacts)
            diff = tips - targets[None, :, :]
            dq = qs - q_init
            return np.einsum("bmi,bmi->b", diff, diff) / len(targets) + lam * np.einsum(
                "bi,bi->b", dq, dq)

        problem = batch_problem(lo, hi, objective_batch, cfg.solver.fd_eps)
        try:
            report = minimize_box(problem, q, cfg.solver)
        except SolverStartError as exc:
            raise RefineError(f"contact refinement solve could not start: {exc}") from exc
        log.debug("refine round %d: joint step f=%.3e iters=%d termination=%s converged=%s",
                  round_index, report.f_star, report.iterations, report.termination,
                  report.converged)
        q = clamp_to_limits(model, report.x_star)

        if len(contacts.active) >= 3:
            try:
                correction = wrist_correction_step(model, q, wrist, mapping, contacts)
                wrist = correction.compose(wrist)
            except DegenerateGeometryError as exc:
                warnings.append(f"wrist step skipped: {exc}")
                log.warning("wrist step skipped: %s", exc)
        else:
            warnings.append("wrist step skipped: fewer than 3 active digits")
            log.warning("wrist step skipped: fewer than 3 active digits")

        new_loss = contact_loss(model, q, wrist, mapping, contacts)
        if new_loss > history[-1] + 1e-15:
            q, wrist = q_snap, wrist_snap
            break
        history.append(new_loss)
        rounds_run += 1

    report = RefineReport(
        rounds=rounds_run,
        loss_history=history,
        mean_tip_error=_mean_tip_error(model, q, wrist, mapping, contacts),
        warnings=warnings,
    )
    if cfg.max_tip_error is not None and report.mean_tip_error > cfg.max_tip_error:
        raise RefineError(
            f"mean fingertip error {report.mean_tip_error:.4f} m exceeds the"
            f" {cfg.max_tip_error:.4f} m tolerance",
            report=report,
        )
    return q, wrist, report


def assemble_grasp_plan(
    trajectory: RobotTrajectory,
    contact_frame_index: int,
    refined,
) -> RobotTrajectory:
    """Swap the refined state into the contact frame and blend the two
    adjacent frames so no refined-frame joint step exceeds the cap.

    ``contact_frame_index`` indexes into ``trajectory.frames``. ``refined``
    is the (q, wrist_pose) pair from refine_contact.
    """
    n = len(trajectory.frames)
    if not (0 <= contact_frame_index < n):
        raise InvalidArgumentError(
            f"contact frame index {contact_frame_index} out of range for {n} frames"
        )
    q_ref, wrist_ref = refined
    q_ref = trajectory.model.check_q(q_ref)
    cap = BLEND_STEP_CAP

    frames = [replace(f, q=f.q.copy()) for f in trajectory.frames]
    frames[contact_frame_index] = replace(
        frames[contact_frame_index], wrist_pose=wrist_ref, q=q_ref.copy()
    )
    for nb in (contact_frame_index - 1, contact_frame_index + 1):
        if not (0 <= nb < n):
            continue
        q_nb = frames[nb].q
        guard = 0
        while float(np.max(np.abs(q_ref - q_nb))) > cap and guard < 60:
            q_nb = 0.5 * (q_nb + q_ref)
            guard += 1
        frames[nb] = replace(frames[nb], q=q_nb)
    return RobotTrajectory(frames=frames, model=trajectory.model)


def contacts_from_hand(
    hand: HandFrame,
    mapping: FingerMapping,
    *,
    lambda_init: float,
    alternations: int,
) -> Optional[ContactTargets]:
    """Build contact targets from a hand frame's annotations, restricted
    to mapped digits. Returns None when nothing usable is annotated."""
    if hand.contacts is None:
        return None
    active = [d for d in mapping.mapped_digits() if d in hand.contacts]
    if not active:
        return None
    return ContactTargets(
        active=tuple(active),
        targets={d: hand.contacts[d] for d in active},
        lambda_init=lambda_init,
        alternations=alternations,
    )
