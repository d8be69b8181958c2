"""Core 3D math: rotations, rigid/similarity transforms, robust losses,
weighted Umeyama alignment, and depth splatting.

Conventions: points are float64 arrays of shape (3,) or (N, 3), in meters.
Quaternions are (w, x, y, z). Pixel (u, v) indexes column u, row v, with
pixel centers at integer coordinates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError


def as_vec3(p) -> np.ndarray:
    """Validate and return a finite (3,) float64 vector."""
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise InvalidArgumentError(f"expected a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidArgumentError("vector components must be finite")
    return v


def as_points(p) -> np.ndarray:
    """Validate and return a finite (N, 3) float64 array."""
    pts = np.asarray(p, dtype=float)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidArgumentError(f"expected (N, 3) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("point coordinates must be finite")
    return pts


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float64 vector, bit for bit, without numpy's
    overflow warning: a sum of squares past the float range gives inf."""
    if math.hypot(*v.tolist()) < 1e154:  # then v.dot(v) stays below 1.1e308
        return math.sqrt(v.dot(v))
    with np.errstate(over="ignore"):
        return math.sqrt(v.dot(v))


class Rotation:
    """3D rotation stored as a unit quaternion (w, x, y, z).

    The quaternion is the canonical internal form; matrices and
    rotation vectors are views computed on demand.
    """

    __slots__ = ("_q",)

    def __init__(self, quat_wxyz):
        q = np.asarray(quat_wxyz, dtype=float)
        if q.shape != (4,) or not np.isfinite(q).all():
            raise InvalidArgumentError("quaternion must be 4 finite scalars (w, x, y, z)")
        n = vector_norm(q)
        if not 1e-12 <= n < math.inf:  # an infinite one would give the zero quaternion
            raise InvalidArgumentError(f"quaternion norm {n:g} is zero or overflows")
        self._q = q / n

    @classmethod
    def _unit(cls, quat_wxyz) -> "Rotation":
        """A rotation from 4 floats that are a unit quaternion up to
        rounding, without __init__'s checks but with its normalizing divide:
        for such a quaternion vector_norm is sqrt(q.q), so the bits are
        those of cls(quat_wxyz)."""
        rot = object.__new__(cls)
        q = np.array(quat_wxyz)
        rot._q = q / math.sqrt(q.dot(q))
        return rot

    @classmethod
    def identity(cls) -> "Rotation":
        return cls._unit((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Build from a 3x3 rotation matrix (branch on the largest diagonal)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise InvalidArgumentError("rotation matrix must be 3x3")
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        if tr > 0.0:
            s = np.sqrt(tr + 1.0) * 2.0
            q = (0.25 * s,
                 (m[2, 1] - m[1, 2]) / s,
                 (m[0, 2] - m[2, 0]) / s,
                 (m[1, 0] - m[0, 1]) / s)
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = ((m[2, 1] - m[1, 2]) / s,
                 0.25 * s,
                 (m[0, 1] + m[1, 0]) / s,
                 (m[0, 2] + m[2, 0]) / s)
        elif m[1, 1] >= m[2, 2]:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = ((m[0, 2] - m[2, 0]) / s,
                 (m[0, 1] + m[1, 0]) / s,
                 0.25 * s,
                 (m[1, 2] + m[2, 1]) / s)
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = ((m[1, 0] - m[0, 1]) / s,
                 (m[0, 2] + m[2, 0]) / s,
                 (m[1, 2] + m[2, 1]) / s,
                 0.25 * s)
        return cls(q)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        a = as_vec3(axis)
        n = float(np.linalg.norm(a))
        if n < 1e-12:
            raise InvalidArgumentError("rotation axis has zero norm")
        half = 0.5 * float(angle)
        return cls(np.concatenate(([np.cos(half)], np.sin(half) * a / n)))

    @classmethod
    def from_rotvec(cls, rv) -> "Rotation":
        # the quaternion is finite with norm near 1 once rv is valid, so
        # __init__'s checks are skipped
        rot = object.__new__(cls)
        rot._q = _rotvec_quat(as_vec3(rv))
        return rot

    @property
    def quat(self) -> np.ndarray:
        return self._q.copy()

    def as_matrix(self) -> np.ndarray:
        return _quat_matrix(self._q)

    def as_rotvec(self) -> np.ndarray:
        q = self._q if self._q[0] >= 0.0 else -self._q
        s = float(np.linalg.norm(q[1:]))
        if s < 1e-12:
            return 2.0 * q[1:]
        return (2.0 * np.arctan2(s, q[0]) / s) * q[1:]

    def apply(self, points):
        """Rotate (3,) or (N, 3) points."""
        p = np.asarray(points, dtype=float)
        m = self.as_matrix()
        if p.ndim == 1:
            return m @ p
        return p @ m.T

    def compose(self, other: "Rotation") -> "Rotation":
        """Return self applied after other: (a.compose(b)).apply(p) == a.apply(b.apply(p))."""
        # Python floats round each product and sum as float64 scalars do
        w1, x1, y1, z1 = self._q.tolist()
        w2, x2, y2, z2 = other._q.tolist()
        return Rotation._unit((
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        w, x, y, z = self._q.tolist()
        return Rotation._unit((w, -x, -y, -z))

    def angle(self) -> float:
        """Rotation magnitude in radians, in [0, pi]."""
        return float(np.linalg.norm(self.as_rotvec()))

    def angle_to(self, other: "Rotation") -> float:
        return (self.inverse() @ other).angle()

    def __repr__(self) -> str:
        w, x, y, z = self._q
        return f"Rotation(w={w:.6g}, x={x:.6g}, y={y:.6g}, z={z:.6g})"


def _rotvec_quat(v: np.ndarray) -> np.ndarray:
    """The unit quaternion of a finite (3,) rotation vector, unchecked.
    Scalars go through ``math`` (whose sin and cos give numpy's float64
    bits) and each norm is np.linalg.norm's sqrt of a dot."""
    x, y, z = v.tolist()
    angle = math.sqrt(v.dot(v))
    if angle < 1e-12:
        # first-order expansion of exp; renormalized below
        q = np.array((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    else:
        half = 0.5 * angle
        s = math.sin(half)
        q = np.array((math.cos(half), s * x / angle, s * y / angle, s * z / angle))
    # the normalization Rotation.__init__ applies
    return q / math.sqrt(q.dot(q))


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    # Python floats round each product and sum as float64 scalars do
    w, x, y, z = q.tolist()
    # one flat tuple reshaped: numpy builds it faster than nested rows
    return np.array((
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )).reshape(3, 3)


def rotvec_matrix(rv: np.ndarray) -> np.ndarray:
    """The rotation matrix of a rotation vector, without validation: rv
    must be a finite (3,) float array. The bits of
    ``Rotation.from_rotvec(rv).as_matrix()``, without building the rotation."""
    return _quat_matrix(_rotvec_quat(rv))


def so3_left_jacobian(rotvec) -> np.ndarray:
    """Left Jacobian J_l of SO(3) at a rotation vector w: the first-order
    change of exp([w]x) under w -> w + dw is exp([J_l dw]x), so
    d(R(w) p)/dw = -[R(w) p]x J_l.

    This function validates w (``as_vec3``); ``_so3_left_jacobian`` is the
    unchecked path, which callers that hold a finite (3,) float64 vector
    call directly."""
    return _so3_left_jacobian(as_vec3(rotvec))


def _so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    """``so3_left_jacobian`` of a finite (3,) float64 vector, unchecked."""
    w0, w1, w2 = w.tolist()
    theta = math.sqrt(w.dot(w))  # np.linalg.norm's operations
    if theta < 1e-2:
        # Taylor series; the next terms are below 1e-16 relative
        t2 = theta * theta
        a = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    elif theta < math.inf:
        a = 2.0 * math.sin(0.5 * theta) ** 2 / theta ** 2
        b = (theta - math.sin(theta)) / theta ** 3
    else:  # |w| overflows: the NaN that numpy's sin of inf gave
        a = b = math.nan
    k = np.array([[0.0, -w2, w1], [w2, 0.0, -w0], [-w1, w0, 0.0]])
    return np.eye(3) + a * k + b * (k @ k)


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform: apply(p) = R p + t."""

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(Rotation.identity(), np.zeros(3))

    def apply(self, points):
        p = np.asarray(points, dtype=float)
        return self.rotation.apply(p) + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation.apply(other.translation) + self.translation,
        )

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return self.compose(other)

    def inverse(self) -> "RigidTransform":
        rinv = self.rotation.inverse()
        return RigidTransform(rinv, -rinv.apply(self.translation))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.as_matrix()
        m[:3, 3] = self.translation
        return m


@dataclass(frozen=True)
class SimilarityTransform:
    """Scaled rigid transform: apply(p) = s R p + t, with s > 0."""

    scale: float
    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        s = float(self.scale)
        if not np.isfinite(s) or s <= 0.0:
            raise InvalidArgumentError(f"scale must be positive and finite, got {s}")
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "translation", as_vec3(self.translation))

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, Rotation.identity(), np.zeros(3))

    def apply(self, points):
        p = np.asarray(points, dtype=float)
        return self.scale * self.rotation.apply(p) + self.translation

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        return SimilarityTransform(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * self.rotation.apply(other.translation) + self.translation,
        )

    def inverse(self) -> "SimilarityTransform":
        rinv = self.rotation.inverse()
        return SimilarityTransform(
            1.0 / self.scale, rinv, -rinv.apply(self.translation) / self.scale
        )

    def rigid_part(self) -> RigidTransform:
        return RigidTransform(self.rotation, self.translation)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise InvalidArgumentError("focal lengths must be positive and finite")
        if self.width <= 0 or self.height <= 0:
            raise InvalidArgumentError("image dimensions must be positive")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise InvalidArgumentError("principal point must lie inside the image")


def _bounding_box(mask):
    """The (rows, cols) slices of the smallest box holding every True pixel
    of a 2D boolean array: an empty box at the origin when there is none."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return slice(0, 0), slice(0, 0)
    cols = np.flatnonzero(mask[rows[0]:rows[-1] + 1].any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


class DepthImage:
    """Depth map in meters, held over the bounding window of its valid pixels.

    A pixel (u, v) is valid when its depth is finite and positive; every
    invalid pixel reads 0. ``shape`` is the full (height, width) and
    ``origin`` the window's top-left pixel (u0, v0). ``window`` holds the
    float64 depths of the window's pixels, so a window pixel is valid
    exactly where it is positive. The window is the smallest box holding
    every valid pixel, and empty at the image origin when no pixel is valid.

    ``DepthImage(values)`` takes a full grid, ``values[v, u]`` being the
    depth at pixel (u, v). The ``values`` and ``valid`` properties give the
    full grid and its validity, built read-only on each access.
    """

    __slots__ = ("shape", "origin", "window")

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InvalidArgumentError("depth values must be a 2D grid")
        self._crop(values.shape, (0, 0), values)

    @classmethod
    def from_window(cls, shape, origin, depths) -> "DepthImage":
        """The (height, width) image whose pixels inside the window of
        top-left pixel ``origin`` (u0, v0) have the given 2D float depths
        and whose pixels outside it are invalid. Only the valid pixels'
        window is converted to float64."""
        depths = np.asarray(depths)
        if depths.ndim != 2:
            raise InvalidArgumentError("depth window must be a 2D grid")
        (u0, v0), (h, w) = origin, depths.shape
        if not (0 <= v0 and v0 + h <= shape[0] and 0 <= u0 and u0 + w <= shape[1]):
            raise InvalidArgumentError("depth window must lie inside the image")
        img = cls.__new__(cls)
        img._crop(shape, origin, depths)
        return img

    def _crop(self, shape, origin, depths):
        # `> 0` is False for NaN, so the outer box holds every valid pixel
        # (and maybe +inf ones). A float wider than float64 is rounded first;
        # any other converts exactly, so validity is tested on the input
        # dtype and only the inner box's valid pixels are converted.
        if depths.dtype.kind == "f" and depths.dtype.itemsize > 8:
            depths = depths.astype(float)
        positive = depths > 0
        outer = _bounding_box(positive)
        part = depths[outer]
        valid = part < np.inf
        valid &= positive[outer]
        inner = _bounding_box(valid)
        window = np.zeros(valid[inner].shape)
        np.copyto(window, part[inner], where=valid[inner])
        origin = (origin[0] + outer[1].start + inner[1].start,
                  origin[1] + outer[0].start + inner[0].start) if window.size else (0, 0)
        self._set(shape, origin, window)

    def _set(self, shape, origin, window):
        """Assign the fields; ``window`` must be the tight float64 window."""
        self.shape = (int(shape[0]), int(shape[1]))
        self.origin = (int(origin[0]), int(origin[1]))
        self.window = window

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def box(self):
        """The (rows, cols) slices of the window in the full grid."""
        (u0, v0), (h, w) = self.origin, self.window.shape
        return slice(v0, v0 + h), slice(u0, u0 + w)

    def _full(self, part):
        grid = np.zeros(self.shape, dtype=part.dtype)
        grid[self.box] = part
        grid.flags.writeable = False
        return grid

    @property
    def values(self) -> np.ndarray:
        return self._full(self.window)

    @property
    def valid(self) -> np.ndarray:
        return self._full(self.window > 0)


def huber(r, delta: float):
    """Huber penalty: 0.5 r^2 for |r| <= delta, delta (|r| - delta/2) beyond.

    Accepts scalars or arrays; C1 at |r| = delta.
    """
    d = float(delta)
    if not np.isfinite(d) or d <= 0.0:
        raise InvalidArgumentError(f"delta must be positive and finite, got {delta}")
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("residual must be finite")
    a = np.abs(arr)
    out = np.where(a <= d, 0.5 * arr * arr, d * (a - 0.5 * d))
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def check_huber_delta(delta) -> None:
    """Reject a Huber delta that is not positive or whose square is not a
    normal finite float: the pseudo-Huber terms divide by delta and scale
    by its square, which would otherwise overflow or underflow."""
    if not (delta > 0 and sys.float_info.min <= delta * delta <= sys.float_info.max):
        raise InvalidArgumentError(
            f"huber_delta must be positive with a square in [{sys.float_info.min:.4g},"
            f" {sys.float_info.max:.4g}] (a normal finite float), got {delta!r}")


def pseudo_huber(r: np.ndarray, delta: float) -> np.ndarray:
    """Smooth (C-infinity) Huber surrogate of a float array:
    delta^2 (sqrt(1 + (r/delta)^2) - 1), unchecked: delta must be positive
    and finite.

    Quadratic near zero, linear in the tails; the alignment objective
    uses it so that its closed-form gradient (``pseudo_huber_derivative``)
    is continuous.
    """
    return delta * delta * (np.sqrt(1.0 + (r / delta) ** 2) - 1.0)


def pseudo_huber_derivative(r, delta: float) -> np.ndarray:
    """Derivative of ``pseudo_huber`` in r: r / sqrt(1 + (r/delta)^2)."""
    arr = np.asarray(r, dtype=float)
    return arr / np.sqrt(1.0 + (arr / float(delta)) ** 2)


def weighted_umeyama(src, dst, with_scale: bool = True) -> SimilarityTransform:
    """Least-squares similarity (s, R, t) minimizing sum ||s R src_i + t - dst_i||^2.

    Reflections are suppressed (det(R) = +1). With ``with_scale`` off the
    scale is fixed to 1. Raises DegenerateGeometryError when the source
    points are coincident or collinear.
    """
    s_pts = as_points(src)
    d_pts = as_points(dst)
    if s_pts.shape != d_pts.shape:
        raise InvalidArgumentError(
            f"source/destination length mismatch: {s_pts.shape[0]} vs {d_pts.shape[0]}"
        )
    n = s_pts.shape[0]
    if n < 3:
        raise InvalidArgumentError("at least 3 correspondences required")
    wn = np.ones(n) / n

    mu_s = wn @ s_pts
    mu_d = wn @ d_pts
    xs = s_pts - mu_s
    xd = d_pts - mu_d
    cov = (xd * wn[:, None]).T @ xs
    var_s = float(np.sum(wn * np.einsum("ij,ij->i", xs, xs)))
    if var_s < 1e-24:
        raise DegenerateGeometryError("source points are coincident")

    u, d, vt = np.linalg.svd(cov)
    if d[1] <= 1e-9 * max(d[0], 1e-300):
        raise DegenerateGeometryError("source points are collinear")
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2] = -1.0
    rot_m = (u * sign) @ vt

    if with_scale:
        scale = float(np.dot(d, sign)) / var_s
        if scale <= 0.0:
            raise DegenerateGeometryError("recovered scale is non-positive")
    else:
        scale = 1.0
    t = mu_d - scale * rot_m @ mu_s
    return SimilarityTransform(scale, Rotation.from_matrix(rot_m), t)


def footprint_pixels(points, intrinsics: CameraIntrinsics, footprint: int = 3):
    """The in-image pixels of each point's footprint x footprint block,
    centred on its rounded projection, as (rows, cols, depths): one entry
    per covered pixel of each point (a pixel covered twice appears twice),
    each carrying the depth of the point that covers it.

    Points behind the camera are dropped, and so is a point whose block
    cannot reach the image, such as one whose projection overflows;
    non-finite points are an InvalidArgumentError.
    """
    if footprint < 1 or footprint % 2 == 0:
        raise InvalidArgumentError(f"footprint must be odd and positive, got {footprint}")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("point coordinates must be finite")
    x, y, z = pts.T
    # a point behind the camera projects to a meaningless value or NaN, and
    # a projection that overflows reads inf: the mask below drops both
    with np.errstate(all="ignore"):
        u = np.rint(intrinsics.fx * x / z + intrinsics.cx)
        v = np.rint(intrinsics.fy * y / z + intrinsics.cy)
    # the points in front whose block reaches the image, kept before the
    # cast to int: at footprint 1 these are the in-image pixels
    half = footprint // 2
    keep = (z > 0.0) & (u >= -half) & (u < intrinsics.width + half)
    keep &= (v >= -half) & (v < intrinsics.height + half)
    u, v, z = u[keep].astype(int), v[keep].astype(int), z[keep]
    if not half:
        return v, u, z
    offsets = np.arange(-half, half + 1)
    # each footprint offset (row offset outer) of each point, kept where
    # the offset pixel is inside the image
    uu = u + np.tile(offsets, footprint)[:, None]
    vv = v + np.repeat(offsets, footprint)[:, None]
    ok = (uu >= 0) & (uu < intrinsics.width) & (vv >= 0) & (vv < intrinsics.height)
    return vv[ok], uu[ok], np.broadcast_to(z, ok.shape)[ok]


def splat_depth(points, intrinsics: CameraIntrinsics, footprint: int = 3) -> DepthImage:
    """Z-buffer point splat: each point writes its depth into its
    ``footprint_pixels``; the minimum depth per pixel wins.

    Points behind the camera or outside the image are dropped. An empty
    point list yields an all-invalid image. The z-buffer is the image's
    window: it spans exactly the written pixels' rows and columns, and an
    unwritten pixel reads 0, a written one the least (positive, finite)
    depth written to it.
    """
    h, w = intrinsics.height, intrinsics.width
    rows, cols, z = footprint_pixels(points, intrinsics, footprint)
    if not rows.size:
        return DepthImage.from_window((h, w), (0, 0), np.zeros((0, 0)))
    v0, u0 = rows.min(), cols.min()
    height, width = rows.max() - v0 + 1, cols.max() - u0 + 1
    buf = np.zeros(height * width)
    flat = (rows - v0) * width + (cols - u0)
    buf[flat] = np.inf
    np.minimum.at(buf, flat, z)  # a flat index takes ufunc.at's fast path
    img = DepthImage.__new__(DepthImage)
    img._set((h, w), (u0, v0), buf.reshape(height, width))
    return img


def backproject_depth(img: DepthImage, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Backproject valid pixels to camera-frame points.

    Points are returned in row-major pixel order, so two images sharing a
    validity mask backproject to pointwise-corresponding arrays. Only the
    image's window is scanned.
    """
    if img.shape != (intrinsics.height, intrinsics.width):
        raise InvalidArgumentError("depth image dimensions do not match intrinsics")
    # flatnonzero and divmod give np.nonzero's indices, but faster
    flat = np.flatnonzero(img.window > 0)
    height, width = img.window.shape
    rows, cols = np.divmod(flat, width)
    u0, v0 = img.origin
    # each column's (u - cx) / fx and each row's (v - cy) / fy, once
    ray_x = (np.arange(u0, u0 + width) - intrinsics.cx) / intrinsics.fx
    ray_y = (np.arange(v0, v0 + height) - intrinsics.cy) / intrinsics.fy
    out = np.empty((flat.size, 3))
    z = img.window.take(flat, out=out[:, 2])
    np.multiply(ray_x.take(cols), z, out=out[:, 0])
    np.multiply(ray_y.take(rows), z, out=out[:, 1])
    return out
