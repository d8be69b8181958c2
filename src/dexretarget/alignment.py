"""Demonstration depth calibration and per-frame hand alignment.

Calibration fits one similarity transform from predicted-depth object
geometry to true-depth object geometry and applies it to every frame.
Per-frame alignment then estimates a scale factor and a small rigid
correction that register the skeleton-sampled hand cloud against the
observed cloud and depth map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AlignmentError,
    InvalidArgumentError,
    LossUndefinedError,
    SolverStartError,
)
from .geometry import (
    CameraIntrinsics,
    DepthImage,
    RigidTransform,
    Rotation,
    backproject_depth,
    pseudo_huber,
    splat_depth,
    weighted_umeyama,
)
from .hand_model import HandFrame, HandTrajectory
from .pointcloud import PointCloud, build_index
from .solver import BoxProblem, SolverOptions, batch_problem, check_iteration_count, minimize_box
from .synthetic import sample_hand_surface

log = logging.getLogger(__name__)

# box for the 7 alignment parameters: log-scale plus a 6-vector twist
# (rotation vector, translation) around the identity correction
LOG_SCALE_BOUNDS = (np.log(0.3), np.log(3.0))
TWIST_BOUND = 0.5
_PARAM_LO = np.concatenate(([LOG_SCALE_BOUNDS[0]], -TWIST_BOUND * np.ones(6)))
_PARAM_HI = np.concatenate(([LOG_SCALE_BOUNDS[1]], TWIST_BOUND * np.ones(6)))
# skeleton surface samples per frame registered against the observation
HAND_SURFACE_POINTS = 500


@dataclass
class AlignConfig:
    huber_delta: float = 0.01
    lambda_rend: float = 1.0
    lambda_reg: float = 0.1
    outer_iters: int = 10
    inner_iters: int = 25
    splat_footprint: int = 3
    # small step: the depth term carries pixel-scale curvature, and the
    # gradient audit compares finite differences at two separate steps
    fd_eps: float = 5e-8

    def __post_init__(self):
        for name in ("huber_delta", "lambda_rend", "lambda_reg", "fd_eps"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"{name} must be positive")
        check_iteration_count("outer_iters", self.outer_iters)
        check_iteration_count("inner_iters", self.inner_iters)
        check_iteration_count("splat_footprint", self.splat_footprint)
        if self.splat_footprint % 2 == 0:
            raise InvalidArgumentError(f"splat_footprint must be odd, got {self.splat_footprint}")


@dataclass
class HandAlignment:
    """Per-frame scale and rigid correction with residual diagnostics."""

    frame_index: int
    sigma: float
    correction: RigidTransform
    icp_residual: float
    depth_residual: float
    converged: bool

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidArgumentError("sigma must be positive")
        if self.icp_residual < 0 or self.depth_residual < 0:
            raise InvalidArgumentError("residuals must be non-negative")

    @classmethod
    def initial(cls, frame_index: int = 0) -> "HandAlignment":
        return cls(frame_index, 1.0, RigidTransform.identity(), 0.0, 0.0, False)


@dataclass
class FrameObservation:
    """One observed frame: hand cloud (with normals for alignment), depth
    map, and hand support: the given hand mask's pixels of valid depth."""

    cloud: PointCloud
    depth: DepthImage
    hand_mask: np.ndarray

    def __post_init__(self):
        if self.cloud.normals is None:
            raise InvalidArgumentError("observed cloud must carry normals")
        mask = np.asarray(self.hand_mask, dtype=bool)
        if mask.shape != self.depth.values.shape:
            raise InvalidArgumentError("hand mask dimensions must match the depth image")
        self.hand_mask = mask & self.depth.valid


def params_encode(sigma: float, correction: RigidTransform) -> np.ndarray:
    return np.concatenate((
        [np.log(sigma)],
        correction.rotation.as_rotvec(),
        correction.translation,
    ))


def params_decode(x: np.ndarray):
    sigma = float(np.exp(x[0]))
    correction = RigidTransform(Rotation.from_rotvec(x[1:4]), x[4:7])
    return sigma, correction


def apply_scaled_correction(points: np.ndarray, sigma: float,
                            correction: RigidTransform) -> np.ndarray:
    """The alignment action on points: sigma * (R p + t)."""
    return sigma * correction.apply(points)


def calibrate_depth_sequence(
    frames,
    obj_cloud_true: PointCloud,
    obj_cloud_pred: PointCloud,
    intrinsics: CameraIntrinsics,
    with_scale: bool = True,
):
    """Fit the similarity aligning predicted object points onto true
    object points and apply it to every frame's cloud and depth map.

    ``frames`` is a sequence of (PointCloud, DepthImage) pairs; the two
    object clouds must be in pointwise correspondence. Depth maps are
    re-rendered by transforming their backprojection (footprint 1), which
    is exact for ray-preserving corrections such as pure depth scaling.
    """
    if len(obj_cloud_true) != len(obj_cloud_pred):
        raise InvalidArgumentError("object clouds must be in pointwise correspondence")
    transform = weighted_umeyama(
        obj_cloud_pred.points, obj_cloud_true.points, with_scale=with_scale
    )
    calibrated = []
    for cloud, depth in frames:
        new_cloud = cloud.transformed(transform)
        pts = backproject_depth(depth, intrinsics)
        new_depth = splat_depth(transform.apply(pts), intrinsics, footprint=1)
        calibrated.append((new_cloud, new_depth))
    return transform, calibrated


def depth_consistency_loss(
    hand_cloud: PointCloud,
    sigma: float,
    correction: RigidTransform,
    observation: FrameObservation,
    intrinsics: CameraIntrinsics,
    footprint: int = 3,
) -> float:
    """Mean absolute depth difference between the splatted hand cloud and
    the observed depth over the hand support pixels the splat covers."""
    moved = apply_scaled_correction(hand_cloud.points, sigma, correction)
    rendered = splat_depth(moved, intrinsics, footprint)
    omega = rendered.valid & observation.hand_mask
    if not np.any(omega):
        raise LossUndefinedError("no overlapping valid hand pixels")
    return float(np.mean(np.abs(rendered.values[omega] - observation.depth.values[omega])))


_MIN_DEPTH = 0.01  # meters; reject configurations that push the hand to the camera


def smooth_depth_residuals(points: np.ndarray, observation: FrameObservation,
                           intrinsics: CameraIntrinsics) -> np.ndarray:
    """Differentiable per-point depth discrepancies against an observed map.

    Each point samples the observed depth at its continuous projection with
    a C2 separable kernel gated by the observation's hand support, giving a
    residual that is twice continuously differentiable in the point
    coordinates and fades to zero as the projection leaves the support;
    invalid pixels read 0, so a pixel outside the support moves no bit.
    Returns one residual per point (zero for unsupported points);
    a point nearer than the minimum depth gets +inf and the kernel runs on
    the other points only. Each point's residual depends on that point
    alone.
    """
    pts = np.asarray(points, dtype=float)
    near = pts[:, 2] < _MIN_DEPTH
    far = pts[~near] if np.any(near) else pts
    z = far[:, 2]
    depth, support = observation.depth.values, observation.hand_mask
    h, w = depth.shape
    u = intrinsics.fx * far[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * far[:, 1] / z + intrinsics.cy
    iu = np.floor(u).astype(int)
    iv = np.floor(v).astype(int)

    # separable C2 kernel of radius 2 px: wide and smooth enough that
    # finite-difference probes see a polynomial-like landscape
    radius = 2.0
    taps = (-1, 0, 1, 2)

    def kernel(frac):
        t = np.clip((radius - np.abs(frac)) / radius, 0.0, 1.0)
        return t ** 3 * (t * (6.0 * t - 15.0) + 10.0)

    wu = [kernel(u - (iu + d)) for d in taps]
    wv = [kernel(v - (iv + d)) for d in taps]
    su = np.sum(wu, axis=0)
    sv = np.sum(wv, axis=0)
    r = np.zeros(len(far))
    for ku, du in enumerate(taps):
        cu = iu + du
        in_u = (cu >= 0) & (cu < w)
        cu_c = np.clip(cu, 0, w - 1)
        for kv, dv in enumerate(taps):
            cv = iv + dv
            inside = in_u & (cv >= 0) & (cv < h)
            cv_c = np.clip(cv, 0, h - 1)
            gate = inside & support[cv_c, cu_c]
            wk = np.where(gate, (wu[ku] / su) * (wv[kv] / sv), 0.0)
            r += wk * (z - depth[cv_c, cu_c])
    if far is pts:
        return r
    out = np.full(len(pts), np.inf)
    out[~near] = r
    return out


def _correspondences(index, observed: PointCloud, moved: np.ndarray):
    """Nearest observed points and normals of the moved hand points."""
    _, idx = index.query(moved)
    return observed.points[idx], observed.normals[idx]


def _alignment_objective(xs, hand_cloud, observation, intrinsics, cfg, index, frozen=None):
    """The alignment objective at each row of the (B, 7) parameter batch xs.

    Correspondences are ``frozen`` (a (points, normals) pair) when given
    and otherwise refreshed at each row through ``index``. Smooth
    surrogate penalties keep the landscape kink-free for the
    finite-difference solver; the reported residuals still use the exact
    losses. The depth residuals of all rows come from one
    smooth_depth_residuals call; a row scores +inf when any of its
    residuals is non-finite (a point nearer than the minimum depth). Each
    row's value is bit-identical to a one-row call.
    """
    xs = np.asarray(xs, dtype=float)
    moved, icp = [], []
    for x in xs:
        sigma, correction = params_decode(x)
        m = apply_scaled_correction(hand_cloud.points, sigma, correction)
        corr_pts, corr_nrm = frozen if frozen is not None else _correspondences(
            index, observation.cloud, m)
        r = np.einsum("ij,ij->i", corr_nrm, m - corr_pts)
        moved.append(m)
        icp.append(float(np.mean(pseudo_huber(r, cfg.huber_delta))))
    dres = smooth_depth_residuals(np.concatenate(moved), observation, intrinsics)
    values = np.full(len(xs), np.inf)
    for b, d in enumerate(dres.reshape(len(xs), -1)):
        if not np.all(np.isfinite(d)):
            continue
        rend = float(np.mean(pseudo_huber(d, cfg.huber_delta)))
        reg = float(xs[b, 1:] @ xs[b, 1:])
        values[b] = icp[b] + cfg.lambda_rend * rend + cfg.lambda_reg * reg
    return values


def alignment_problem(
    hand_cloud: PointCloud,
    observation: FrameObservation,
    intrinsics: CameraIntrinsics,
    cfg: AlignConfig,
    at: Optional[np.ndarray] = None,
    index=None,
) -> BoxProblem:
    """Box problem over (log sigma, twist) with correspondences frozen at
    the given parameters (identity by default). Used both by the solver
    rounds and by the gradient audit. ``index`` is the observed cloud's
    k-d tree; it is built when not given."""
    if index is None:
        index = build_index(observation.cloud)
    x0 = params_encode(1.0, RigidTransform.identity()) if at is None else np.asarray(at, float)
    sigma, correction = params_decode(x0)
    moved = apply_scaled_correction(hand_cloud.points, sigma, correction)
    frozen = _correspondences(index, observation.cloud, moved)

    def batch(xs):
        return _alignment_objective(xs, hand_cloud, observation, intrinsics, cfg, index,
                                    frozen)

    return batch_problem(_PARAM_LO, _PARAM_HI, batch, cfg.fd_eps)


def alignment_objective_value(
    hand_cloud: PointCloud,
    observation: FrameObservation,
    intrinsics: CameraIntrinsics,
    cfg: AlignConfig,
    sigma: float,
    correction: RigidTransform,
) -> float:
    """The total alignment objective (fresh correspondences) at the given
    parameters; the quantity align_hand_frame minimizes."""
    x = params_encode(sigma, correction)
    return float(_alignment_objective(x[None, :], hand_cloud, observation, intrinsics, cfg,
                                      build_index(observation.cloud))[0])


# deterministic scale candidates scanned before the local solve; the
# scale/depth ambiguity of the objective creates basins the local solver
# cannot cross on its own
_SCALE_GRID = np.exp(np.linspace(LOG_SCALE_BOUNDS[0] + 0.05,
                                 LOG_SCALE_BOUNDS[1] - 0.05, 17))
# the scan's log-scale column, built from the scalar np.log of each grid
# point so no vectorized log can move a bit
_LOG_SCALE_GRID = np.array([np.log(g) for g in _SCALE_GRID])


def align_hand_frame(
    hand: HandFrame,
    hand_cloud: PointCloud,
    observation: FrameObservation,
    intrinsics: CameraIntrinsics,
    init: Optional[HandAlignment] = None,
    cfg: Optional[AlignConfig] = None,
) -> HandAlignment:
    """Estimate (sigma, rigid correction) registering the hand cloud to
    one observed frame.

    Minimizes a robust point-to-plane term plus a depth-consistency term
    plus a squared-twist regularizer over 7 box-constrained parameters,
    refreshing nearest-neighbor correspondences every outer round (the
    solver sees smooth surrogate penalties; reported residuals use the
    exact losses). The returned parameters never score worse, on the
    refreshed objective, than the initialization.
    """
    if cfg is None:
        cfg = AlignConfig()
    if init is None:
        init = HandAlignment.initial(hand.frame_index)

    obs_index = build_index(observation.cloud)
    x = np.clip(params_encode(init.sigma, init.correction), _PARAM_LO, _PARAM_HI)

    def fresh_batch(xs):
        return _alignment_objective(xs, hand_cloud, observation, intrinsics, cfg, obs_index)

    # the depth overlap must be non-empty at the starting parameters
    sigma0, corr0 = params_decode(x)
    moved0 = apply_scaled_correction(hand_cloud.points, sigma0, corr0)
    rendered0 = splat_depth(moved0, intrinsics, cfg.splat_footprint)
    omega0 = rendered0.valid & observation.hand_mask
    f_best = float(fresh_batch(x[None, :])[0])
    if not np.any(omega0) or not np.isfinite(f_best):
        raise AlignmentError(
            "alignment objective undefined at initialization (no overlapping hand pixels)",
            frame_index=hand.frame_index,
            diagnostics={"sigma": init.sigma, "overlap_pixels": int(omega0.sum())},
        )
    # coarse scan over the scale axis picks the starting basin; the
    # initialization remains a candidate so the result never regresses;
    # all candidates are scored in one batch and taken in grid order
    cands = np.repeat(x[None, :], len(_SCALE_GRID), axis=0)
    cands[:, 0] = _LOG_SCALE_GRID
    for cand, fc in zip(cands, fresh_batch(cands)):
        if np.isfinite(fc) and fc < f_best:
            f_best = float(fc)
            x = cand.copy()
    x_best = x.copy()
    solver_converged = False
    opts = SolverOptions(max_iters=cfg.inner_iters)

    for _ in range(cfg.outer_iters):
        problem = alignment_problem(hand_cloud, observation, intrinsics, cfg, at=x,
                                    index=obs_index)
        try:
            report = minimize_box(problem, x, opts)
        except SolverStartError as exc:
            raise AlignmentError(
                f"alignment solver could not start: {exc}",
                frame_index=hand.frame_index,
            ) from exc
        step = float(np.linalg.norm(report.x_star - x))
        x = report.x_star
        solver_converged = report.converged
        f_now = float(fresh_batch(x[None, :])[0])
        if np.isfinite(f_now) and f_now < f_best:
            f_best = f_now
            x_best = x.copy()
        if step < 1e-7:
            break

    sigma, correction = params_decode(x_best)
    moved = apply_scaled_correction(hand_cloud.points, sigma, correction)
    corr_pts, corr_nrm = _correspondences(obs_index, observation.cloud, moved)
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    icp_rms = float(np.sqrt(np.mean(r ** 2)))
    try:
        depth_res = depth_consistency_loss(hand_cloud, sigma, correction, observation,
                                           intrinsics, cfg.splat_footprint)
    except LossUndefinedError:
        depth_res = 0.0
    return HandAlignment(
        frame_index=hand.frame_index,
        sigma=sigma,
        correction=correction,
        icp_residual=icp_rms,
        depth_residual=depth_res,
        converged=solver_converged,
    )


def align_trajectory(
    trajectory: HandTrajectory,
    observations,
    intrinsics: CameraIntrinsics,
    cfg: Optional[AlignConfig] = None,
    seed: int = 0,
) -> list:
    """Align every frame, warm-starting each from the previous solution."""
    observations = list(observations)
    if len(observations) != len(trajectory):
        raise InvalidArgumentError(
            f"observation count {len(observations)} does not match frame count {len(trajectory)}"
        )
    results = []
    prev: Optional[HandAlignment] = None
    for frame, obs in zip(trajectory.frames, observations):
        if len(obs.cloud) == 0:
            raise AlignmentError(
                f"frame {frame.frame_index}: empty observation cloud",
                frame_index=frame.frame_index,
            )
        sampled = PointCloud(points=sample_hand_surface(
            frame.joints, HAND_SURFACE_POINTS, seed=seed + frame.frame_index,
            visible_from=(0.0, 0.0, 0.0)))
        try:
            result = align_hand_frame(frame, sampled, obs, intrinsics, init=prev, cfg=cfg)
        except AlignmentError as exc:
            raise AlignmentError(
                f"frame {frame.frame_index}: {exc}",
                frame_index=frame.frame_index,
                diagnostics=exc.diagnostics,
            ) from exc
        results.append(result)
        prev = result
        log.debug("frame %d: sigma=%.4f icp=%.5f depth=%.5f",
                  frame.frame_index, result.sigma, result.icp_residual,
                  result.depth_residual)
    return results
