"""Core 3D math: rotations, rigid/similarity transforms, robust losses,
weighted Umeyama alignment, and depth splatting.

Conventions: points are float64 arrays of shape (3,) or (N, 3), in meters.
Quaternions are (w, x, y, z). Pixel (u, v) indexes column u, row v, with
pixel centers at integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError

_UNIT_TOL = 1e-9


def as_vec3(p) -> np.ndarray:
    """Validate and return a finite (3,) float64 vector."""
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise InvalidArgumentError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
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


class Rotation:
    """3D rotation stored as a unit quaternion (w, x, y, z).

    The quaternion is the canonical internal form; matrices and
    rotation vectors are views computed on demand.
    """

    __slots__ = ("_q",)

    def __init__(self, quat_wxyz):
        q = np.asarray(quat_wxyz, dtype=float)
        if q.shape != (4,) or not np.all(np.isfinite(q)):
            raise InvalidArgumentError("quaternion must be 4 finite scalars (w, x, y, z)")
        n = float(np.linalg.norm(q))
        if n < 1e-12:
            raise InvalidArgumentError("quaternion norm is zero")
        self._q = q / n

    @classmethod
    def identity(cls) -> "Rotation":
        return cls((1.0, 0.0, 0.0, 0.0))

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
        v = as_vec3(rv)
        angle = float(np.linalg.norm(v))
        if angle < 1e-12:
            # first-order expansion of exp; renormalized in __init__
            return cls(np.concatenate(([1.0], 0.5 * v)))
        return cls.from_axis_angle(v, angle)

    @property
    def quat(self) -> np.ndarray:
        return self._q.copy()

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self._q
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

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
        w1, x1, y1, z1 = self._q
        w2, x2, y2, z2 = other._q
        return Rotation((
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return self.compose(other)

    def inverse(self) -> "Rotation":
        w, x, y, z = self._q
        return Rotation((w, -x, -y, -z))

    def angle(self) -> float:
        """Rotation magnitude in radians, in [0, pi]."""
        return float(np.linalg.norm(self.as_rotvec()))

    def angle_to(self, other: "Rotation") -> float:
        return (self.inverse() @ other).angle()

    def __repr__(self) -> str:
        w, x, y, z = self._q
        return f"Rotation(w={w:.6g}, x={x:.6g}, y={y:.6g}, z={z:.6g})"


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
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidArgumentError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise InvalidArgumentError("image dimensions must be positive")
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise InvalidArgumentError("principal point must lie inside the image")


@dataclass
class DepthImage:
    """Dense depth grid in meters with a per-pixel validity mask.

    ``values[v, u]`` is the depth at pixel (u, v); content of invalid
    pixels is unspecified (written as 0).
    """

    values: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InvalidArgumentError("depth values must be a 2D grid")
        if self.valid is None:
            self.valid = np.isfinite(self.values) & (self.values > 0)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != self.values.shape:
            raise InvalidArgumentError("validity mask shape must match values")
        if not np.all(np.isfinite(self.values[self.valid])):
            raise InvalidArgumentError("depth values must be finite where valid")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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


def huber_weights(r, delta: float):
    """IRLS weights psi(r)/r for the Huber penalty (1 inside, delta/|r| outside)."""
    d = float(delta)
    a = np.abs(np.asarray(r, dtype=float))
    return np.where(a <= d, 1.0, d / np.maximum(a, 1e-300))


def pseudo_huber(r, delta: float):
    """Smooth (C-infinity) Huber surrogate: delta^2 (sqrt(1 + (r/delta)^2) - 1).

    Quadratic near zero, linear in the tails; used inside solver
    objectives where finite-difference gradients need a kink-free
    landscape.
    """
    d = float(delta)
    if not np.isfinite(d) or d <= 0.0:
        raise InvalidArgumentError(f"delta must be positive and finite, got {delta}")
    arr = np.asarray(r, dtype=float)
    out = d * d * (np.sqrt(1.0 + (arr / d) ** 2) - 1.0)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


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


def splat_depth(points, intrinsics: CameraIntrinsics, footprint: int = 3) -> DepthImage:
    """Z-buffer point splat: each point writes its depth into a
    footprint x footprint pixel block; the minimum depth per pixel wins.

    Points behind the camera or outside the image are dropped. An empty
    point list yields an all-invalid image.
    """
    if footprint < 1 or footprint % 2 == 0:
        raise InvalidArgumentError(f"footprint must be odd and positive, got {footprint}")
    h, w = intrinsics.height, intrinsics.width
    buf = np.full((h, w), np.inf)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if pts.shape[0] > 0:
        if not np.all(np.isfinite(pts)):
            raise InvalidArgumentError("point coordinates must be finite")
        front = pts[pts[:, 2] > 0.0]
        if front.shape[0] > 0:
            z = front[:, 2]
            u = np.rint(intrinsics.fx * front[:, 0] / z + intrinsics.cx).astype(int)
            v = np.rint(intrinsics.fy * front[:, 1] / z + intrinsics.cy).astype(int)
            half = footprint // 2
            for dv in range(-half, half + 1):
                for du in range(-half, half + 1):
                    uu = u + du
                    vv = v + dv
                    ok = (uu >= 0) & (uu < w) & (vv >= 0) & (vv < h)
                    if np.any(ok):
                        np.minimum.at(buf, (vv[ok], uu[ok]), z[ok])
    valid = np.isfinite(buf)
    values = np.where(valid, buf, 0.0)
    return DepthImage(values=values, valid=valid)


def backproject_depth(img: DepthImage, intrinsics: CameraIntrinsics, mask=None) -> np.ndarray:
    """Backproject valid (optionally masked) pixels to camera-frame points.

    Points are returned in row-major pixel order, so two images sharing a
    validity mask backproject to pointwise-corresponding arrays.
    """
    if img.values.shape != (intrinsics.height, intrinsics.width):
        raise InvalidArgumentError("depth image dimensions do not match intrinsics")
    sel = img.valid if mask is None else (img.valid & np.asarray(mask, dtype=bool))
    vs, us = np.nonzero(sel)
    z = img.values[vs, us]
    x = (us - intrinsics.cx) / intrinsics.fx * z
    y = (vs - intrinsics.cy) / intrinsics.fy * z
    return np.column_stack([x, y, z])
