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
from functools import partial
from typing import Dict, Optional

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    RefineError,
    RetargetError,
    SolverStartError,
)
from .geometry import RigidTransform, check_huber_delta, huber, weighted_umeyama
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
from .solver import BoxProblem, SolverOptions, check_iteration_count, minimize_box

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
        check_huber_delta(self.huber_delta)
        if not (0 <= self.lambda_smooth < np.inf and 0 <= self.lambda_init < np.inf):
            raise InvalidArgumentError("penalty weights must be non-negative and finite")
        if not 0 < self.scale < np.inf:
            raise InvalidArgumentError("scale must be positive and finite")
        if self.max_tip_error is not None and not 0 < self.max_tip_error < np.inf:
            raise InvalidArgumentError("max_tip_error must be positive and finite")
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
        q = np.array([self.model.check_q(f.q) for f in self.frames]).reshape(
            len(self.frames), self.model.dof)
        # a NaN fails both comparisons, so it is caught with the rest
        bad = ~np.all((q >= lo - 1e-9) & (q <= hi + 1e-9), axis=1)
        if bad.any():
            raise InvalidArgumentError(
                f"frame {self.frames[int(bad.argmax())].frame_index}: "
                "joint configuration violates limits"
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
        if not 0 <= self.lambda_init < np.inf:
            raise InvalidArgumentError("lambda_init must be non-negative and finite")
        check_iteration_count("alternations", self.alternations)
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
    terms = _RetargetTerms(model, spec, cfg)
    origins = link_origins(model, model.check_q(q), wrist.rotation.as_matrix(),
                           wrist.translation, terms.links)
    robot = origins[terms.ends] - origins[terms.starts]
    total = 0.0
    for w, r, h in zip(terms.w_active, robot, ref[terms.active]):
        total += w * huber(float(np.linalg.norm(r - h)), cfg.huber_delta)
    return total / spec.n_vec


def _fk(model, q, wrist_r, wrist_t, links, gradient):
    """Origins of the links at one configuration, (k, 3), and with
    ``gradient`` their (k, 3, dof) Jacobian from the same FK pass, else None."""
    if not gradient:
        return link_origins(model, q, wrist_r, wrist_t, links), None
    origins, jac = link_origins_batch(model, q[None], wrist_r, wrist_t, links, jacobian=True)
    return origins[0], jac[0]


class _RetargetTerms:
    """The parts of the retargeting objective that a trajectory's frames
    share, resolved once for a model, spec and config: the vectors with a
    nonzero weight and their weights (cfg's, all ones when it sets none),
    the links they join with each active vector's start and end index into
    them, the joint-limit box and delta^2. ``problem`` adds a frame's own
    parts."""

    def __init__(self, model: RobotModel, spec: VectorSpec, cfg: RetargetConfig):
        w = cfg.weights if cfg.weights is not None else np.ones(spec.n_vec)
        if w.shape != (spec.n_vec,):
            raise InvalidArgumentError("weights length must match the vector spec")
        self.model = model
        self.n_vec = spec.n_vec
        self.active = np.flatnonzero(w != 0.0)
        self.w_active = w[self.active]
        self.links, starts, ends = spec.robot_link_pairs()
        self.starts, self.ends = starts[self.active], ends[self.active]
        self.lower, self.upper = model.limit_arrays()
        self.dd = cfg.huber_delta * cfg.huber_delta

    def problem(self, ref_vectors, wrist: RigidTransform, q_prev,
                lambda_smooth: float) -> BoxProblem:
        """The frame's objective over the joint-limit box (retarget_problem)."""
        model, links, starts, ends = self.model, self.links, self.starts, self.ends
        w_active, n_vec, dd = self.w_active, self.n_vec, self.dd
        qp = model.check_q(q_prev)
        wrist_r, wrist_t = wrist.rotation.as_matrix(), wrist.translation
        ref_active = np.asarray(ref_vectors, dtype=float).take(self.active, axis=0)

        def evaluate(q, gradient=False):
            origins, jac = _fk(model, q, wrist_r, wrist_t, links, gradient)
            d = origins.take(ends, axis=0) - origins.take(starts, axis=0) - ref_active
            sq = np.einsum("mi,mi->m", d, d)
            dq = q - qp
            if not gradient:
                rho = dd * (np.sqrt(1.0 + sq / dd) - 1.0)
                return float(rho @ w_active) / n_vec + lambda_smooth * float(dq @ dq)
            g_d = (w_active / (n_vec * np.sqrt(1.0 + sq / dd)))[:, None] * d
            jac_d = jac.take(ends, axis=0) - jac.take(starts, axis=0)
            return np.einsum("mi,min->n", g_d, jac_d) + 2.0 * lambda_smooth * dq

        return BoxProblem(self.lower, self.upper, objective=evaluate,
                          gradient=partial(evaluate, gradient=True))


def retarget_problem(
    model: RobotModel,
    ref_vectors: np.ndarray,
    spec: VectorSpec,
    wrist: RigidTransform,
    q_prev,
    cfg: RetargetConfig,
) -> BoxProblem:
    """The per-frame retargeting objective over the joint-limit box.

    Each vector residual d costs the smooth Huber surrogate delta^2
    (sqrt(1 + |d|^2 / delta^2) - 1), so the closed-form gradient (d over
    sqrt(1 + |d|^2 / delta^2) against the vector's end-minus-start
    link-origin Jacobian) is continuous; vector_matching_loss reports the
    exact value at the result.
    """
    return _RetargetTerms(model, spec, cfg).problem(ref_vectors, wrist, q_prev,
                                                    cfg.lambda_smooth)


def retarget_frame(
    model: RobotModel,
    ref_vectors: np.ndarray,
    spec: VectorSpec,
    wrist: RigidTransform,
    q_prev,
    q0,
    cfg: RetargetConfig,
    pairs=(),
    *,
    terms: Optional[_RetargetTerms] = None,
):
    """Solve one frame's retargeting problem; returns (q, solve report).
    The solve starts from the L-BFGS curvature ``pairs`` of an earlier
    solve (a report's ``pairs``), cold when none are given. ``terms`` are
    the problem's shared parts already resolved for model, spec and cfg,
    as retarget_trajectory passes them; without them they are resolved
    here, as retarget_problem does."""
    if terms is None:
        terms = _RetargetTerms(model, spec, cfg)
    problem = terms.problem(ref_vectors, wrist, q_prev, cfg.lambda_smooth)
    try:
        report = minimize_box(problem, model.check_q(q0), cfg.solver, pairs)
    except SolverStartError as exc:
        raise RetargetError(f"retarget solve could not start: {exc}") from exc
    return report.x_star, report


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
    extracts scaled reference vectors and solves its problem, whose parts
    shared by every frame (weights, links, limits) are resolved once.
    Frame 0 starts at mid-limits with no smoothness coupling, and frame 1
    at frame 0's solution. Frame k >= 2 starts at the extrapolation
    2 q_(k-1) - q_(k-2) clipped to the joint limits, while its smoothness
    term still anchors at q_(k-1), and from frame k-1's final L-BFGS
    curvature pairs; frame 1 starts cold, since frame 0's pairs describe an
    objective without the smoothness term.
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
    terms = _RetargetTerms(model, spec, cfg)

    q_before = q_prev = model.mid_limits()
    pairs = ()
    frames = []
    for k, (hand, align) in enumerate(zip(hands, alignments)):
        corrected = hand.transformed(align.sigma, align.correction)
        wrist = corrected.wrist_pose.compose(cfg.mount_offset)
        ref = reference_vectors(corrected, spec, cfg.scale)
        frame_cfg = cfg if k > 0 else replace(cfg, lambda_smooth=0.0)
        q0 = q_prev if k < 2 else np.clip(2.0 * q_prev - q_before, terms.lower, terms.upper)
        try:
            q, report = retarget_frame(model, ref, spec, wrist, q_prev, q0, frame_cfg, pairs,
                                       terms=terms)
        except RetargetError as exc:
            raise RetargetError(f"frame {hand.frame_index}: {exc}") from exc
        pairs = report.pairs if k > 0 else ()
        log.debug("frame %d: retarget f=%.3e iters=%d termination=%s converged=%s",
                  hand.frame_index, report.f_star, report.iterations,
                  report.termination, report.converged)
        frames.append(RobotTrajectoryFrame(hand.frame_index, wrist, q))
        q_before, q_prev = q_prev, q
    return RobotTrajectory(frames=frames, model=model)


def _contact_set(mapping: FingerMapping, contacts: ContactTargets):
    """The active digits' tip links and their contact targets, (m, 3).
    Every active digit must be mapped."""
    for digit in contacts.active:
        if digit not in mapping.entries:
            raise InvalidArgumentError(f"active digit {digit!r} is not mapped")
    return ([mapping.entries[d] for d in contacts.active],
            np.array([contacts.targets[d] for d in contacts.active]))


def contact_loss(
    model: RobotModel,
    q,
    wrist: RigidTransform,
    mapping: FingerMapping,
    contacts: ContactTargets,
) -> float:
    """Mean squared fingertip-to-target distance over the active digits."""
    links, targets = _contact_set(mapping, contacts)
    diff = link_origins(model, model.check_q(q), wrist.rotation.as_matrix(),
                        wrist.translation, links) - targets
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


def wrist_correction_step(
    model: RobotModel,
    q,
    wrist: RigidTransform,
    mapping: FingerMapping,
    contacts: ContactTargets,
) -> RigidTransform:
    """Rigid (scale-fixed) least-squares transform taking the current
    fingertips onto their targets. Requires at least 3 active digits."""
    links, targets = _contact_set(mapping, contacts)
    if len(links) < 3:
        raise DegenerateGeometryError("fewer than 3 active digits")
    tips = link_origins(model, model.check_q(q), wrist.rotation.as_matrix(),
                        wrist.translation, links)
    return weighted_umeyama(tips, targets, with_scale=False).rigid_part()


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

    The pull anchors at q_init, not at the round's start, so this often
    stops after round 1. Round 1's joint step buys contact with a pull
    penalty, and its wrist step then removes most of the contact loss.
    Round 2's joint step starts with that penalty and lowers its own
    objective mostly by pulling q back toward q_init, giving back more
    contact loss than the next wrist step recovers. The contact-only test
    then rolls round 2 back. On retarget4x200 demonstration 0 at seed 7
    (lambda_init 0.1) round 2's objective goes 9.13e-5 -> 8.10e-5 while
    the contact loss goes 7.960e-5 -> 8.040e-5.
    """
    mapping.validate_against(model)
    links, targets = _contact_set(mapping, contacts)
    q_init = clamp_to_limits(model, q_init)
    q = q_init.copy()
    wrist = wrist_init
    lam = contacts.lambda_init
    warnings = []

    history = [contact_loss(model, q, wrist, mapping, contacts)]
    for round_index in range(contacts.alternations):
        q_snap, wrist_snap = q.copy(), wrist

        def evaluate(q, gradient=False, wrist_r=wrist.rotation.as_matrix(),
                     wrist_t=wrist.translation):
            tips, jac = _fk(model, q, wrist_r, wrist_t, links, gradient)
            diff = tips - targets
            dq = q - q_init
            if not gradient:
                return float(np.einsum("mi,mi->", diff, diff)) / len(targets) + \
                    lam * float(dq @ dq)
            return 2.0 * np.einsum("mi,min->n", diff, jac) / len(targets) + 2.0 * lam * dq

        problem = BoxProblem(*model.limit_arrays(), objective=evaluate,
                             gradient=partial(evaluate, gradient=True))
        try:
            report = minimize_box(problem, q, cfg.solver)
        except SolverStartError as exc:
            raise RefineError(f"contact refinement solve could not start: {exc}") from exc
        log.debug("refine round %d: joint step f=%.3e iters=%d termination=%s converged=%s",
                  round_index, report.f_star, report.iterations, report.termination,
                  report.converged)
        q = report.x_star

        try:
            wrist = wrist_correction_step(model, q, wrist, mapping, contacts).compose(wrist)
        except DegenerateGeometryError as exc:
            warnings.append(f"wrist step skipped: {exc}")
            log.warning("wrist step skipped: %s", exc)

        new_loss = contact_loss(model, q, wrist, mapping, contacts)
        if new_loss > history[-1] + 1e-15:
            q, wrist = q_snap, wrist_snap
            break
        history.append(new_loss)

    tips = link_origins(model, q, wrist.rotation.as_matrix(), wrist.translation, links)
    report = RefineReport(
        rounds=len(history) - 1,
        loss_history=history,
        mean_tip_error=float(np.mean(np.linalg.norm(tips - targets, axis=1))),
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
