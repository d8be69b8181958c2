"""Demonstration depth calibration and per-frame hand alignment.

Calibration fits one similarity transform from predicted-depth object
geometry to true-depth object geometry and applies it to every frame.
Per-frame alignment then estimates a scale factor and a small rigid
correction that register the skeleton-sampled hand cloud against the
observed cloud and depth map.
"""

from __future__ import annotations

import logging
from dataclasses import InitVar, dataclass, field
from functools import partial
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
    _bounding_box,
    _so3_left_jacobian,
    backproject_depth,
    check_huber_delta,
    footprint_pixels,
    pseudo_huber,
    pseudo_huber_derivative,
    rotvec_matrix,
    splat_depth,
    weighted_umeyama,
)
from .hand_model import HandFrame, HandTrajectory
from .pointcloud import PointCloud, build_index
from .solver import BoxProblem, SolverOptions, check_iteration_count, minimize_box
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
# observed points per frame: the fewest that PCA normals can be taken over
MIN_CLOUD_POINTS = 3
# pixels of zero support around the hand support's bounding box: the depth
# kernel's taps reach 1 px before and 2 px after a projection, so the taps
# of a projection clipped to the window's border all fall in the pad
_WINDOW_PAD = 4
# the depth kernel's tap offsets from a projection's pixel, on each axis
_TAPS = np.array([-1, 0, 1, 2])
# |pg|inf at which an outer round's solve stops. Each solve minimizes a
# surrogate whose correspondences the next round refreshes, so solving it
# to the solver's default 1e-8 buys digits that round discards. Measured
# on the 40 frames of perfbench's traj10 fixtures (seeds 7 and 20261017):
# no parameter moved more than 6.4e-7 from the 1e-8 solution, and no
# planned q more than 6.6e-9 rad; at 3e-7 the drift reached 4.2e-6.
_INNER_GRAD_TOL = 1e-7


@dataclass
class AlignConfig:
    huber_delta: float = 0.01
    lambda_rend: float = 1.0
    lambda_reg: float = 0.1
    outer_iters: int = 10
    inner_iters: int = 25
    splat_footprint: int = 3

    def __post_init__(self):
        check_huber_delta(self.huber_delta)
        for name in ("lambda_rend", "lambda_reg"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite")
        check_iteration_count("outer_iters", self.outer_iters)
        check_iteration_count("inner_iters", self.inner_iters)
        check_iteration_count("splat_footprint", self.splat_footprint)
        if self.splat_footprint % 2 == 0:
            raise InvalidArgumentError(f"splat_footprint must be odd, got {self.splat_footprint}")


@dataclass
class HandAlignment:
    """Per-frame scale and rigid correction with residual diagnostics.

    ``pairs`` are the L-BFGS curvature pairs of the frame's last solve,
    which the next frame's first solve starts from when this alignment is
    its ``init``.
    """

    frame_index: int
    sigma: float
    correction: RigidTransform
    icp_residual: float
    depth_residual: float
    converged: bool
    pairs: tuple = field(default=(), compare=False, repr=False)

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
    map, and hand support: the given hand mask's pixels of valid depth.

    The (height, width) ``hand_mask`` is read at construction, not kept.
    The support is kept only as a window: the bounding box of its pixels
    (empty at the image origin when there is none) padded by _WINDOW_PAD
    pixels on each side, whose top-left pixel is ``window_origin`` (u, v).
    ``depth_window`` is the depth there, zero outside the support, so the
    support is where it is positive. ``reach_window``, of the same shape,
    is true at a window pixel when some of the 16 taps anchored there
    (offsets -1..2 on each axis) is supported; a point whose anchor is not
    reached reads exactly zero. ``tap_offsets`` (16, 1) holds the flat
    offsets of those 16 taps in the window, the column tap outermost.
    """

    cloud: PointCloud
    depth: DepthImage
    hand_mask: InitVar[np.ndarray]
    window_origin: tuple = field(init=False, repr=False)
    depth_window: np.ndarray = field(init=False, repr=False)
    reach_window: np.ndarray = field(init=False, repr=False)
    tap_offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, hand_mask):
        if self.cloud.normals is None:
            raise InvalidArgumentError("observed cloud must carry normals")
        mask = np.asarray(hand_mask, dtype=bool)
        if mask.shape != self.depth.shape:
            raise InvalidArgumentError("hand mask dimensions must match the depth image")
        # the depth's window holds finite depths, positive exactly where valid
        supported = mask[self.depth.box] & (self.depth.window > 0)
        box = _bounding_box(supported)
        supported = supported[box]
        u0, v0 = self.depth.origin
        if supported.size:
            u0, v0 = u0 + box[1].start, v0 + box[0].start
        else:
            u0 = v0 = 0
        pad = _WINDOW_PAD
        self.window_origin = (u0 - pad, v0 - pad)
        height, width = supported.shape
        self.depth_window = np.zeros((height + 2 * pad, width + 2 * pad))
        np.copyto(self.depth_window[pad:pad + height, pad:pad + width],
                  self.depth.window[box], where=supported)
        # the support shifted by each tap offset, OR-ed one axis at a time:
        # taps[v, u] is the support at (v - 1, u - 1)
        taps = np.zeros((height + 2 * pad + 3, width + 2 * pad + 3), dtype=bool)
        taps[pad + 1:pad + 1 + height, pad + 1:pad + 1 + width] = supported
        cols = taps[:, :-3] | taps[:, 1:-2]
        cols |= taps[:, 2:-1]
        cols |= taps[:, 3:]
        self.reach_window = cols[:-3] | cols[1:-2]
        self.reach_window |= cols[2:-1]
        self.reach_window |= cols[3:]
        self.tap_offsets = (_TAPS[:, None] + (width + 2 * pad) * _TAPS[None, :]).reshape(16, 1)


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


def calibrate_depth_sequence(
    frames,
    obj_cloud_true: PointCloud,
    obj_cloud_pred: PointCloud,
    intrinsics: CameraIntrinsics,
    with_scale: bool = True,
):
    """Fit the similarity aligning predicted object points onto true
    object points and apply it to every frame's cloud and depth map.

    ``frames`` is a list of (PointCloud, DepthImage) pairs, updated in
    place: each pair is replaced by its calibrated pair as soon as that is
    built, so a frame's uncalibrated and calibrated maps are never both
    held by the list. Any other sequence is an InvalidArgumentError.
    Returns the transform and the same list. The two
    object clouds must be in pointwise correspondence. Depth maps are
    re-rendered by transforming their backprojection (footprint 1), which
    is exact for ray-preserving corrections such as pure depth scaling.
    """
    if not isinstance(frames, list):
        raise InvalidArgumentError(
            f"frames must be a list, calibrated in place; got {type(frames).__name__}")
    if len(obj_cloud_true) != len(obj_cloud_pred):
        raise InvalidArgumentError("object clouds must be in pointwise correspondence")
    transform = weighted_umeyama(
        obj_cloud_pred.points, obj_cloud_true.points, with_scale=with_scale
    )
    for k, (cloud, depth) in enumerate(frames):
        pts = backproject_depth(depth, intrinsics)
        frames[k] = (cloud.transformed(transform),
                     splat_depth(transform.apply(pts), intrinsics, footprint=1))
    return transform, frames


def _window_index(observation: FrameObservation, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """The flat index in the observation's padded window of each image
    pixel (rows, cols). A pixel beyond the window maps to index 0, a pixel
    of the zero pad, so every lookup reads it as unsupported."""
    ou, ov = observation.window_origin
    height, width = observation.depth_window.shape
    rows, cols = rows - ov, cols - ou
    inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    return np.where(inside, rows * width + cols, 0)


def depth_consistency_loss(moved: np.ndarray, observation: FrameObservation,
                           intrinsics: CameraIntrinsics, footprint: int = 3) -> float:
    """Mean absolute depth difference between the splatted moved hand
    points, sigma (R p + t), and the observed depth over the hand support
    pixels the splat covers, taken in row-major pixel order."""
    splat = splat_depth(moved, intrinsics, footprint)
    flat = np.flatnonzero(splat.window > 0)
    rows, cols = np.divmod(flat, splat.window.shape[1])
    u0, v0 = splat.origin
    observed = observation.depth_window.take(_window_index(observation, rows + v0, cols + u0))
    both = observed > 0
    if not np.any(both):
        raise LossUndefinedError("no overlapping valid hand pixels")
    return float(np.mean(np.abs(splat.window.ravel()[flat[both]] - observed[both])))


def _support_overlap(moved: np.ndarray, observation: FrameObservation,
                     intrinsics: CameraIntrinsics, footprint: int) -> np.ndarray:
    """The padded-window indices (flat) of the moved points' footprint
    pixels in the support, once per covering point. A splat pixel is valid
    exactly where some footprint covers it, whatever depth wins there, so
    the distinct entries are the pixels ``depth_consistency_loss`` compares,
    found without a z-buffer."""
    rows, cols, _ = footprint_pixels(moved, intrinsics, footprint)
    flat = _window_index(observation, rows, cols)
    return flat[observation.depth_window.take(flat) > 0]


_MIN_DEPTH = 0.01  # meters; reject configurations that push the hand to the camera
# separable C2 kernel of radius 2 px: wide and smooth enough for a
# continuous gradient that finite-difference audits can check
_KERNEL_RADIUS = 2.0
# the smoothstep's slope factor -30 / radius times the sign of
# c - (floor(c) + tap), the signed distance of a coordinate c to each of its
# taps (at distance 0 the kernel's slope is 0 either way), per (tap, axis, point)
_TAP_SLOPES = (-30.0 / _KERNEL_RADIUS) * np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]


class _DepthPass:
    """The depth kernel's value pass over one point set.

    ``residuals`` are the kernel's residuals and ``run`` the indices, among
    the points not near, of those that run the taps. Until its Jacobian is
    continued, the pass keeps the intermediates the continuation reads:
    the running points' depth and projection, the tap weights ``t``, the
    per-axis weight sums and ratios, the gate and the gaps; the
    continuation forms the gated weights again from the ratios and the
    gate, which spares the pass a third (16, n) array. ``jacobian()``
    continues from them on its first call, keeps the Jacobian and drops
    them.

    The pass is unchecked: it takes the points as a float (N, 3) array and
    trusts the observation's windows and tap offsets, so that its fixed
    cost is a few dozen whole-array numpy calls, with no stacking or
    concatenation of small arrays. ``smooth_depth_residuals`` is its one
    entry point.
    """

    def __init__(self, points, observation: FrameObservation, intrinsics: CameraIntrinsics):
        pts = np.asarray(points, dtype=float)
        near = pts[:, 2] < _MIN_DEPTH
        self.near = near if near.any() else None
        far = pts if self.near is None else pts[~near]
        self.intrinsics = intrinsics
        self.n_far = n = len(far)
        self._kept = self._jacobian = None
        z = far[:, 2]
        # the projections (u, v), each an axis's row: f x / z + c
        proj = np.empty((2, n))
        u, v = proj
        np.multiply(far[:, 0], intrinsics.fx, out=u)
        u /= z
        u += intrinsics.cx
        np.multiply(far[:, 1], intrinsics.fy, out=v)
        v /= z
        v += intrinsics.cy
        pixel = np.floor(proj).astype(int)
        iu, iv = pixel
        ou, ov = observation.window_origin
        height, width = observation.reach_window.shape
        # flat window pixel of each projection, clamped so that its taps stay inside
        anchor = (np.maximum(np.minimum(iv - ov, height - 3), 1) * width
                  + np.maximum(np.minimum(iu - ou, width - 3), 1))
        # the sum is not finite when u, v or z is not (or when it overflows)
        self.run = run = np.flatnonzero(
            observation.reach_window.take(anchor) | ~np.isfinite(u + v + z))
        r = np.zeros(n)
        if run.size:
            z, proj = z.take(run), proj.take(run, axis=1)
            # (4, 2, n) tap weights of both axes, each over its axis's weight
            # sum. Below, each array is written over one that is not read
            # again, so that a value pass over many points (the scale
            # scan's) holds few (16, n) arrays at its peak
            t = proj - (pixel.take(run, axis=1) + _TAPS[:, None, None])
            np.abs(t, out=t)
            np.subtract(_KERNEL_RADIUS, t, out=t)
            t /= _KERNEL_RADIUS
            # clip(t, 0, 1): t <= 1 already, and maximum keeps a NaN as clip does
            np.maximum(t, 0.0, out=t)
            ratios = t * (6.0 * t - 15.0)
            ratios += 10.0
            ratios *= t ** 3
            total = np.add.reduce(ratios, axis=0)
            ratios /= total
            # (16, n) flat window index; the column tap is the outer one
            observed = observation.depth_window.take(observation.tap_offsets + anchor.take(run))
            # the depth window is positive exactly on the support
            gate = observed > 0.0
            # the (16, n) gated tap weights, column tap outermost: the weights
            # are finite and non-negative, so a gated-off tap adds exactly +-0
            terms = (ratios[:, 0][:, None] * ratios[:, 1][None, :]).reshape(16, -1)
            terms *= gate
            # the window is float64, so its depths' buffer takes the gaps
            gaps = np.subtract(z, observed, out=observed)
            terms *= gaps
            # one add per tap, in order: a reduction over the tap axis may sum pairwise
            kept = np.zeros(run.size)
            for term in terms:
                kept += term
            r.put(run, kept)
            self._kept = (z, proj, t, total, ratios, gate, gaps)
        if self.near is not None:
            out = np.full(len(pts), np.inf)
            out[~near] = r
            r = out
        self.residuals = r

    def jacobian(self) -> np.ndarray:
        """The (N, 3) derivative of each residual in its point's
        coordinates (NaN for a near point)."""
        if self._jacobian is not None:
            return self._jacobian
        jac = np.zeros((self.n_far, 3))
        if self._kept is not None:
            z, (u, v), t, total, ratios, gate, gaps = self._kept
            self._kept = None
            # smoothstep slope 30 t^2 (1 - t)^2 times dt/dc = -sign / radius,
            # then the quotient rule through each axis's weight sum
            dwt = np.subtract(1.0, t)
            dwt *= t
            np.square(dwt, out=dwt)
            dwt *= _TAP_SLOPES
            dratios = ratios * np.add.reduce(dwt, axis=0)
            np.subtract(dwt, dratios, out=dratios)
            dratios /= total
            ru, rv = ratios[:, 0], ratios[:, 1]
            dru, drv = dratios[:, 0], dratios[:, 1]
            # the three tap sums in one reduction over the tap axis of a
            # (16, 3, n) array, which adds the taps in order for any n (a
            # (16, 1) array on its own would be summed pairwise): per tap,
            # the gated dr/du and dr/dv terms and the gated weight
            taps = np.empty((4, 4, 3, z.size))
            np.multiply(dru[:, None], rv[None, :], out=taps[:, :, 0])
            np.multiply(ru[:, None], drv[None, :], out=taps[:, :, 1])
            np.multiply(ru[:, None], rv[None, :], out=taps[:, :, 2])
            taps = taps.reshape(16, 3, -1)
            taps[:, :2] *= (gate * gaps)[:, None]
            taps[:, 2] *= gate
            sums = np.add.reduce(taps, axis=0)
            dr_du, dr_dv, weight = sums
            # the columns in place, z's first since it reads the other two:
            # du/dz = -(u - cx) / z and dv/dz = -(v - cy) / z
            K = self.intrinsics
            weight -= (dr_du * (u - K.cx) + dr_dv * (v - K.cy)) / z
            dr_du *= K.fx
            dr_du /= z
            dr_dv *= K.fy
            dr_dv /= z
            jac[self.run] = sums.T
        if self.near is not None:
            out = np.full((len(self.near), 3), np.nan)
            out[~self.near] = jac
            jac = out
        self._jacobian = jac
        return jac


def smooth_depth_residuals(points: np.ndarray, observation: FrameObservation,
                           intrinsics: CameraIntrinsics) -> _DepthPass:
    """Differentiable per-point depth discrepancies against an observed map.

    Each point samples the observed depth at its continuous projection with
    a C2 separable kernel gated by the observation's hand support, giving a
    residual that is twice continuously differentiable in the point
    coordinates and fades to zero as the projection leaves the support.
    The 16 taps of a point are anchored at its projection's pixel in the
    observation's padded window; a projection beyond the window is clipped
    into its zero pad, where every tap is gated off. Returns the pass,
    whose ``residuals`` hold one residual per point (zero for unsupported
    points); a point nearer than the minimum depth gets +inf and the
    kernel runs on the other points only.
    Each point's residual depends on that point alone: the sum of its gated
    taps, added one at a time with the column tap outermost; so does its
    Jacobian row, whose tap sums run in the same order.

    Only points whose anchor the observation's reach window marks (or whose
    projection is not finite) run the taps. Every other point has all 16
    taps gated off, and for it the taps would give exactly the residual
    +0.0 and the Jacobian row (+0, +0, +0), which it gets directly.

    The pass's ``jacobian()`` continues it to the (N, 3) derivative of each
    residual in its point's coordinates (NaN for a near point): the weight
    ratios differentiated through the smoothstep and the quotient rule,
    chained through the projection, plus the gated weight sum for the
    residual's own z. It reads only what the pass kept, so its bits do not
    depend on when it is called, and the residuals' bits do not depend on
    whether it is.
    """
    return _DepthPass(points, observation, intrinsics)


@dataclass
class _MovedHand:
    """The hand at one parameter vector: its scale, R p, the moved points
    sigma (R p + t) and their depth-kernel pass."""

    sigma: float
    rotated: np.ndarray
    moved: np.ndarray
    depth: _DepthPass


def _rotated(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R p for the rotation vector x[1:4]: the bits of
    ``params_decode(x)[1].rotation.apply(points)``."""
    return points @ rotvec_matrix(x[1:4]).T


class _PassMemo:
    """One frame's alignment state: the k-d index over its observed cloud,
    the correspondences queried at each parameter vector, and its moved
    hands at its last two parameter vectors, most recently used first;
    both keyed by the exact bytes of x.

    ``at`` forms the hand moved by x, sigma (R p + t), the one place the
    moved points are formed (the scale scan forms its candidates' by the
    same operations, stacked). Every ``_evaluate`` of the frame reads the
    hand at x from here, so the depth kernel runs only for an x that is not
    one of the last two. A gradient at the point the solver has just
    accepted, a solve's start at the point the last fresh score took, and
    the fresh score of a solve's solution continue the pass they find. The
    pass's Jacobian is continued when a gradient first needs it. The scale
    scan's candidates are scored in one stacked pass of their own and never
    enter ``entries``.

    ``correspondences`` queries the index once per x, the scan's
    candidates included, and keeps the result for the frame.
    """

    def __init__(self, hand_cloud: PointCloud, observation: FrameObservation,
                 intrinsics: CameraIntrinsics):
        self.hand_cloud = hand_cloud
        self.observation = observation
        self.intrinsics = intrinsics
        self.index = build_index(observation.cloud)
        self.queried = {}  # key -> (points, normals)
        self.entries = []  # (key, _MovedHand) pairs, most recently used first

    def correspondences(self, x: np.ndarray, moved: np.ndarray):
        """The nearest observed points and normals of ``moved``, the hand
        moved by x, queried once per x."""
        key = x.tobytes()
        if key not in self.queried:
            _, idx = self.index.query(moved)
            cloud = self.observation.cloud
            self.queried[key] = cloud.points.take(idx, axis=0), cloud.normals.take(idx, axis=0)
        return self.queried[key]

    def at(self, x: np.ndarray) -> _MovedHand:
        key = x.tobytes()
        for k, (held, state) in enumerate(self.entries):
            if held == key:
                if k:
                    self.entries.reverse()
                return state
        sigma = float(np.exp(x[0]))
        rotated = _rotated(self.hand_cloud.points, x)
        moved = rotated + x[4:7]
        moved *= sigma
        state = _MovedHand(sigma, rotated, moved,
                           smooth_depth_residuals(moved, self.observation, self.intrinsics))
        self.entries = [(key, state)] + self.entries[:1]
        return state


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (N, 3) arrays, row by row: the same component
    products and differences written into a C-ordered (N, 3) array, so
    that a reduction over it gives np.cross's bits."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    out = np.empty(a.shape)
    c0, c1, c2 = out.T
    np.multiply(a1, b2, out=c0)
    c0 -= a2 * b1
    np.multiply(a2, b0, out=c1)
    c1 -= a0 * b2
    np.multiply(a0, b1, out=c2)
    c2 -= a1 * b0
    return out


def _pseudo_huber_mean(r: np.ndarray, delta: float) -> float:
    """The mean pseudo-Huber penalty of the residuals r, unchecked (an
    AlignConfig validates its delta): np.mean's bits, the same sum over the
    same count, without its argument handling."""
    return float(np.add.reduce(pseudo_huber(r, delta))) / r.size


def _value(cfg, correspondences, x, moved, d, bound: float = np.inf) -> float:
    """The alignment objective's value at the parameter vector x, given
    the hand's moved points there and their depth-kernel residuals ``d``.
    ``correspondences`` maps x and its moved points to the (points,
    normals) pair the point-to-plane term measures against. Where a
    residual is not finite (a point nearer than the minimum depth) the
    value is +inf.

    The value is (point-to-plane + depth) + regularizer. The depth and
    regularizer terms need no correspondences and come first: when their
    sum already reaches ``bound``, that sum is returned and
    ``correspondences`` is never called. The full value could not be
    below ``bound`` either: the point-to-plane mean is a mean of
    pseudo-Huber penalties, so it is >= 0, and rounded addition is
    monotone, so fl(fl(A + B) + C) >= fl(B + C) for A, B, C >= 0.
    """
    if not np.isfinite(d).all():
        return np.inf
    depth = cfg.lambda_rend * _pseudo_huber_mean(d, cfg.huber_delta)
    reg = cfg.lambda_reg * float(x[1:] @ x[1:])
    if depth + reg >= bound:
        return depth + reg
    corr_pts, corr_nrm = correspondences(x, moved)
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    return (_pseudo_huber_mean(r, cfg.huber_delta) + depth) + reg


def _evaluate(memo: _PassMemo, cfg, correspondences, x, gradient: bool = False,
              bound: float = np.inf):
    """The alignment objective at the parameter vector x (``_value``, with
    ``bound``), or with ``gradient`` its closed-form gradient in x
    instead, for the hand, observation and intrinsics of ``memo``.
    ``correspondences`` is as in ``_value``.

    The solver minimizes smooth surrogates (pseudo-Huber penalties and the
    smooth depth kernel) so that the objective has a continuous
    closed-form gradient; the reported residuals still use the exact
    losses. Where a point is nearer than the minimum depth the value is
    +inf and the gradient all NaN.

    The moved points and the depth-kernel pass at x come from the pass
    memo, so a value and a gradient at the same x share one pass: the
    gradient continues the value pass to its Jacobian. With moved points
    m = sigma (R(w) p + t) and G_i the objective's derivative in m_i,
    d/d log sigma = sum G_i . m_i, d/dt = sigma sum G_i, and d/dw =
    sigma J_l(w)^T sum (R p_i) x G_i, J_l being the SO(3) left Jacobian.

    x is not validated: the solver keeps it finite inside the box, so the
    chain rule takes J_l from ``_so3_left_jacobian``, the unchecked path of
    ``so3_left_jacobian``.
    """
    x = np.asarray(x, dtype=float)
    state = memo.at(x)
    moved, d = state.moved, state.depth.residuals
    if not gradient:
        return _value(cfg, correspondences, x, moved, d, bound)
    delta = cfg.huber_delta
    if not np.isfinite(d).all():
        return np.full(len(x), np.nan)
    corr_pts, corr_nrm = correspondences(x, moved)
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    # G_i: derivative of the point-to-plane and depth means in m_i
    g_moved = pseudo_huber_derivative(r, delta)[:, None] * corr_nrm
    g_depth = pseudo_huber_derivative(d, delta)
    g_depth *= cfg.lambda_rend
    g_moved += g_depth[:, None] * state.depth.jacobian()
    g_moved /= len(moved)
    grad = np.empty(7)
    grad[0] = np.add.reduce(g_moved * moved, axis=None)
    grad[1:4] = _so3_left_jacobian(x[1:4]).T @ np.add.reduce(_cross_rows(state.rotated, g_moved),
                                                             axis=0)
    grad[4:] = np.add.reduce(g_moved, axis=0)
    grad[1:] *= state.sigma
    grad[1:] += 2.0 * cfg.lambda_reg * x[1:]
    return grad


def alignment_problem(
    hand_cloud: PointCloud,
    observation: FrameObservation,
    intrinsics: CameraIntrinsics,
    cfg: AlignConfig,
    at: np.ndarray,
    memo: Optional[_PassMemo] = None,
) -> BoxProblem:
    """Box problem over (log sigma, twist) with correspondences frozen at
    the parameters ``at``. Used both by the solver rounds and by the
    gradient audit. Everything comes from ``memo``: the frame's alignment
    state over the same hand cloud, observation and intrinsics when the
    caller has one, or else one of the problem's own. The frozen
    correspondences are the memo's at ``at``, and the objective and
    gradient are both ``_evaluate`` against them through the memo.
    """
    if memo is None:
        memo = _PassMemo(hand_cloud, observation, intrinsics)
    at = np.asarray(at, dtype=float)
    frozen = memo.correspondences(at, memo.at(at).moved)
    evaluate = partial(_evaluate, memo, cfg, lambda *_: frozen)
    return BoxProblem(lower=_PARAM_LO, upper=_PARAM_HI, objective=evaluate,
                      gradient=partial(evaluate, gradient=True))


# deterministic scale candidates scanned before the local solve; the
# scale/depth ambiguity of the objective creates basins the local solver
# cannot cross on its own
_SCALE_GRID = np.exp(np.linspace(LOG_SCALE_BOUNDS[0] + 0.05,
                                 LOG_SCALE_BOUNDS[1] - 0.05, 17))


def _scan_scale(memo, cfg, x, f_best):
    """Scan the grid scales from parameters x of fresh score f_best, with
    correspondences from the memo: in grid order, a candidate becomes the
    pick when its fresh score is below the best so far. Returns the pick
    and its score.

    The candidates differ from x in log-scale only, so R p + t is formed
    once and each candidate's moved points are sigma_c (R p + t), the
    operations ``_PassMemo.at`` runs. One depth-kernel call scores all
    the candidates' points stacked; a point's residual depends on that
    point alone, so each candidate's slice is the bits of its own pass.
    Each candidate's ``_value`` takes the best score so far as its bound,
    so the pick is the bits an exhaustive scan of full scores gives. The
    candidates' passes stay out of the pass memo: a pick other than x
    costs the first solve's start one value pass.
    """
    cands = []
    for g in _SCALE_GRID:
        cand = x.copy()
        cand[0] = np.log(g)
        cands.append(cand)
    shifted = _rotated(memo.hand_cloud.points, x) + x[4:7]
    moved = np.stack([float(np.exp(cand[0])) * shifted for cand in cands])
    residuals = smooth_depth_residuals(moved.reshape(-1, 3), memo.observation,
                                       memo.intrinsics).residuals.reshape(len(cands), -1)
    for cand, points, d in zip(cands, moved, residuals):
        fc = _value(cfg, memo.correspondences, cand, points, d, bound=f_best)
        if fc < f_best:
            f_best, x = fc, cand
    return x, f_best


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

    The start must overlap the support: some footprint pixel of the hand
    moved by the start must be in the observation's hand support, tested
    on the footprints' pixels without splatting a depth image. An empty
    overlap, or a start whose objective is not finite, is an
    AlignmentError whose ``overlap_pixels`` counts the distinct
    overlapping pixels.

    Before the local solve, a scan over 17 scales picks the starting
    basin. One depth-kernel call scores the 17 candidates' points stacked.
    A candidate whose depth and regularizer terms alone reach the best
    score so far makes no k-d tree query. The skip is exact: the
    point-to-plane mean is >= 0 and rounded addition is monotone, so that
    candidate's full score could not win, and the scan picks the bits that
    scoring every candidate in full gives.

    Each outer round freezes correspondences at the best parameters so
    far, solves from there, and scores the solution fresh. The loop stops
    at the first solution whose fresh score does not beat the best so far
    (that solution is dropped), after a kept solution that moved less than
    1e-7, or after ``cfg.outer_iters`` solves, which is a cap, not a fixed
    round count. Each round builds one problem for one solve, which stops
    at |pg|inf <= 1e-7 (``_INNER_GRAD_TOL``) or after ``cfg.inner_iters``
    iterations: an inexact solve of a surrogate that the next round
    refreshes (as in inexact Newton methods, Dembo, Eisenstat & Steihaug
    1982).

    The frame owns one alignment state, a ``_PassMemo``: it builds the
    frame's k-d tree, and every query, score and gradient reads it. The
    tree is queried once per distinct parameter vector: the start, each
    scan candidate that needs a query, and each solve's solution. The
    scan's pick and a kept solution serve again as the next round's
    anchor, and the last kept one in the final residuals, which read the
    moved points kept with it. The depth kernel runs the scan's stacked
    pass and one value pass per other distinct parameter vector: the first
    solve's start continues the start's pass when the scan keeps the start
    (a pick other than the start costs it one value pass), a later solve's
    start the pass of the kept solution, each gradient the pass of the
    point the solver has just accepted, and each fresh score the pass of
    the solution it scores. The passes go once the solves are done.

    Each solve starts from the L-BFGS curvature pairs the one before it
    returned, and the first from ``init.pairs``: those of the previous
    frame's last solve when ``align_trajectory`` passes its result, none
    when ``init`` is not given. The result carries the last solve's pairs,
    a dropped solve's included.

    ``converged`` on the result is the last solve's flag. After a stop on
    no improvement, that solve's solution is not the one returned. One
    debug line per frame gives its solve count and stop reason, and the
    iterations and objective and gradient evaluations of its solves.
    """
    if cfg is None:
        cfg = AlignConfig()
    if init is None:
        init = HandAlignment.initial(hand.frame_index)

    x = np.clip(params_encode(init.sigma, init.correction), _PARAM_LO, _PARAM_HI)
    # the frame's alignment state: every query, score and gradient below
    # reads it, and it goes with the frame
    memo = _PassMemo(hand_cloud, observation, intrinsics)
    # the objective with correspondences queried at the given parameters
    fresh = partial(_evaluate, memo, cfg, memo.correspondences)

    # the depth overlap must be non-empty at the starting parameters
    overlap = _support_overlap(memo.at(x).moved, observation, intrinsics, cfg.splat_footprint)
    f_best = fresh(x)
    if not overlap.size or not np.isfinite(f_best):
        raise AlignmentError(
            "alignment objective undefined at initialization (no overlapping hand pixels)",
            frame_index=hand.frame_index,
            diagnostics={"sigma": init.sigma, "overlap_pixels": np.unique(overlap).size},
        )
    # coarse scan over the scale axis picks the starting basin; the
    # initialization remains a candidate so the result never regresses
    before = len(memo.queried)
    x, f_best = _scan_scale(memo, cfg, x, f_best)
    log.debug("frame %d: scale scan picked sigma=%.4f; %d of %d candidates queried",
              hand.frame_index, np.exp(x[0]), len(memo.queried) - before, len(_SCALE_GRID))
    opts = SolverOptions(max_iters=cfg.inner_iters, grad_tol=_INNER_GRAD_TOL)
    pairs = init.pairs
    stop = "cap"
    iterations = objective_evals = gradient_evals = 0
    # x is always the best parameters so far, of fresh score f_best and
    # moved points ``moved``, kept for the final residuals: here the pass
    # the first solve's start runs anyway, later that of x's fresh score
    moved = memo.at(x).moved
    for solves in range(1, cfg.outer_iters + 1):
        problem = alignment_problem(hand_cloud, observation, intrinsics, cfg, at=x, memo=memo)
        try:
            report = minimize_box(problem, x, opts, pairs)
        except SolverStartError as exc:
            raise AlignmentError(
                f"alignment solver could not start: {exc}",
                frame_index=hand.frame_index,
            ) from exc
        solver_converged, pairs = report.converged, report.pairs
        iterations += report.iterations
        objective_evals += report.objective_evals
        gradient_evals += report.gradient_evals
        f_now = fresh(report.x_star)
        if not f_now < f_best:
            stop = "no-improvement"
            break
        step = float(np.linalg.norm(report.x_star - x))
        x, f_best = report.x_star, f_now
        moved = memo.at(x).moved
        if step < 1e-7:
            stop = "step"
            break
    log.debug("frame %d: %d iterations, %d objective and %d gradient evaluations "
              "in %d outer solves, stopped on %s", hand.frame_index, iterations,
              objective_evals, gradient_evals, solves, stop)
    # the scores are done: the passes go before the final residuals' splat,
    # so that the frame's peak memory does not hold them
    memo.entries.clear()

    sigma, correction = params_decode(x)
    corr_pts, corr_nrm = memo.correspondences(x, moved)
    r = np.einsum("ij,ij->i", corr_nrm, moved - corr_pts)
    icp_rms = float(np.sqrt(np.mean(r ** 2)))
    try:
        depth_res = depth_consistency_loss(moved, observation, intrinsics, cfg.splat_footprint)
    except LossUndefinedError:
        depth_res = 0.0
    return HandAlignment(
        frame_index=hand.frame_index,
        sigma=sigma,
        correction=correction,
        icp_residual=icp_rms,
        depth_residual=depth_res,
        converged=solver_converged,
        pairs=pairs,
    )


def align_trajectory(
    trajectory: HandTrajectory,
    observations,
    intrinsics: CameraIntrinsics,
    cfg: Optional[AlignConfig] = None,
    seed: int = 0,
) -> list:
    """Align every frame, warm-starting each from the previous solution:
    its parameters and its last solve's L-BFGS curvature pairs."""
    observations = list(observations)
    if len(observations) != len(trajectory):
        raise InvalidArgumentError(
            f"observation count {len(observations)} does not match frame count {len(trajectory)}"
        )
    results = []
    prev: Optional[HandAlignment] = None
    for frame, obs in zip(trajectory.frames, observations):
        if len(obs.cloud) < MIN_CLOUD_POINTS:
            raise InvalidArgumentError(
                f"frame {frame.frame_index}: the observed cloud has {len(obs.cloud)} points;"
                f" alignment needs at least {MIN_CLOUD_POINTS}")
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
