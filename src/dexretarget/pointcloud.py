"""Point-cloud containers, exact nearest-neighbor indexing, PCA normal
estimation, and robust point-to-plane ICP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidArgumentError, RegistrationError
from .geometry import (
    RigidTransform,
    Rotation,
    SimilarityTransform,
    as_points,
    huber,
    huber_weights,
)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DEFAULT_HUBER_DELTA = 0.01   # meters; residuals beyond ~1 cm treated as outliers
DEFAULT_MAX_CORR_DIST = 0.05  # meters; reject gross mismatches outright


@dataclass
class PointCloud:
    """Points with optional unit normals."""

    points: np.ndarray
    normals: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = as_points(self.points)
        n = self.points.shape[0]
        if self.normals is not None:
            self.normals = as_points(self.normals)
            if self.normals.shape[0] != n:
                raise InvalidArgumentError("normals length must match points")
            norms = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise InvalidArgumentError("normals must have unit norm within 1e-6")

    def __len__(self) -> int:
        return self.points.shape[0]

    def transformed(self, transform) -> "PointCloud":
        """Apply a rigid or similarity transform; normals rotate, never scale."""
        pts = transform.apply(self.points)
        nrm = None
        if self.normals is not None:
            nrm = transform.rotation.apply(self.normals)
        return PointCloud(points=pts, normals=nrm)


@dataclass
class RegistrationReport:
    transform: SimilarityTransform
    rms_residual: float
    inlier_fraction: float
    iterations: int
    converged: bool
    # fixed-correspondence objective (before, after) per inner solve
    objective_curve: list = None

    def __post_init__(self):
        if self.rms_residual < 0:
            raise InvalidArgumentError("rms_residual must be non-negative")
        if not (0.0 <= self.inlier_fraction <= 1.0):
            raise InvalidArgumentError("inlier_fraction must lie in [0, 1]")
        if self.objective_curve is None:
            self.objective_curve = []


def build_index(cloud: PointCloud) -> cKDTree:
    """Exact nearest-neighbor index (k-d tree) over a non-empty cloud.

    scipy.spatial is imported here, on first use, so that importing the
    package and the runs that never query a cloud do not pay for it.
    """
    from scipy.spatial import cKDTree

    if len(cloud) == 0:
        raise InvalidArgumentError("cannot index an empty cloud")
    return cKDTree(cloud.points)


def estimate_normals(cloud: PointCloud, k: int = 16, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from PCA over the k nearest neighbors.

    Normals are oriented toward ``viewpoint`` (default the origin, i.e.
    the camera center for camera-frame clouds).
    """
    n = len(cloud)
    if k < 3:
        raise InvalidArgumentError(f"k must be at least 3, got {k}")
    if k > n:
        raise InvalidArgumentError(f"k={k} exceeds cloud size {n}")
    vp = np.asarray(viewpoint, dtype=float)
    _, idx = build_index(cloud).query(cloud.points, k=k)
    nbrs = cloud.points[idx]                           # (n, k, 3)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]                            # smallest eigenvalue
    flip = np.einsum("ij,ij->i", normals, vp[None, :] - cloud.points) < 0.0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=cloud.points.copy(), normals=normals)


def _p2pl_objective(pts, q, n, delta):
    r = np.einsum("ij,ij->i", n, pts - q)
    return float(np.mean(huber(r, delta))), r


def icp_point_to_plane(
    src: PointCloud,
    dst: PointCloud,
    init: Optional[RigidTransform] = None,
    delta: float = DEFAULT_HUBER_DELTA,
    max_iters: int = 50,
    max_corr_dist: float = DEFAULT_MAX_CORR_DIST,
) -> RegistrationReport:
    """Robust point-to-plane ICP of src onto dst (dst must be non-empty and
    carry normals).

    Minimizes mean huber(n . (T x - y)) with correspondences refreshed per
    iteration and rejected beyond ``max_corr_dist``. Each linearized step is
    damped so the fixed-correspondence objective never increases.
    """
    if dst.normals is None:
        raise InvalidArgumentError("destination cloud must carry normals")
    if max_iters < 1:
        raise InvalidArgumentError("max_iters must be at least 1")
    if init is None:
        init = RigidTransform.identity()

    tree = build_index(dst)
    rot = init.rotation.as_matrix()
    trans = init.translation.copy()
    n_src = len(src)
    converged = False
    prev_obj = None
    rms = 0.0
    inlier_fraction = 0.0
    curve = []
    it = 0

    for it in range(1, max_iters + 1):
        moved = src.points @ rot.T + trans
        dists, idx = tree.query(moved)
        keep = dists <= max_corr_dist
        n_keep = int(keep.sum())
        if n_keep == 0:
            report = RegistrationReport(
                transform=SimilarityTransform(1.0, Rotation.from_matrix(rot), trans),
                rms_residual=float(np.sqrt(np.mean(dists ** 2))),
                inlier_fraction=0.0,
                iterations=it,
                converged=False,
                objective_curve=curve,
            )
            raise RegistrationError(
                f"no correspondences within {max_corr_dist} m at iteration {it}", report
            )
        p = moved[keep]
        q = dst.points[idx[keep]]
        nrm = dst.normals[idx[keep]]
        inlier_fraction = n_keep / n_src

        f0, r = _p2pl_objective(p, q, nrm, delta)
        w = huber_weights(r, delta)
        jac = np.hstack([np.cross(p, nrm), nrm])        # (m, 6)
        wj = jac * w[:, None]
        a = jac.T @ wj + 1e-12 * np.eye(6)
        b = -(wj.T @ r)
        xi = np.linalg.solve(a, b)

        # damp the Gauss-Newton step so the fixed-correspondence objective
        # is non-increasing
        alpha = 1.0
        best = None
        for _ in range(30):
            dr = Rotation.from_rotvec(alpha * xi[:3]).as_matrix()
            r_new = dr @ rot
            t_new = dr @ trans + alpha * xi[3:]
            moved_fixed = src.points[keep] @ r_new.T + t_new
            f_new, _ = _p2pl_objective(moved_fixed, q, nrm, delta)
            if f_new <= f0 + 1e-15:
                best = (r_new, t_new, f_new, alpha)
                break
            alpha *= 0.5
        if best is None:
            curve.append((f0, f0))
            converged = True
            rms = float(np.sqrt(np.mean(r ** 2)))
            break
        rot, trans, f_after, alpha = best
        curve.append((f0, f_after))
        rms = float(np.sqrt(np.mean(r ** 2)))

        step = float(np.linalg.norm(alpha * xi))
        if step < 1e-7 or (prev_obj is not None and abs(prev_obj - f_after) < 1e-9):
            converged = True
            break
        prev_obj = f_after

    # final residual stats with fresh correspondences
    moved = src.points @ rot.T + trans
    dists, idx = tree.query(moved)
    keep = dists <= max_corr_dist
    if np.any(keep):
        r = np.einsum("ij,ij->i", dst.normals[idx[keep]], moved[keep] - dst.points[idx[keep]])
        rms = float(np.sqrt(np.mean(r ** 2)))
        inlier_fraction = float(keep.mean())

    return RegistrationReport(
        transform=SimilarityTransform(1.0, Rotation.from_matrix(rot), trans),
        rms_residual=rms,
        inlier_fraction=inlier_fraction,
        iterations=it,
        converged=converged,
        objective_curve=curve,
    )
