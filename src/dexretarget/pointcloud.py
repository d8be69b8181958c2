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


# the closed-form eigenvector is kept where the two smallest eigenvalues
# differ by more than this fraction of the largest. Its angle error grows
# as the rounding of the eigenvalue over that gap: at 1e-4, 1 - |cos|
# against eigh stayed below 1e-15 on 200,000 random covariances with gaps
# down to 1e-14 of the largest eigenvalue, and at 1e-6 it reached 8e-10.
_EIGEN_GAP = 1e-4


def _smallest_eigenvectors(centered: np.ndarray):
    """Unit eigenvectors of the smallest eigenvalue of each neighborhood's
    covariance, from the (n, k, 3) centred neighbors, and the indices of
    the rows where the closed form is ill-conditioned.

    Only the covariance's 6 distinct entries are formed. The eigenvalues
    come from Smith's trigonometric formula (CACM 4(4), 1961), and the
    eigenvector is the largest cross product of two rows of C - lambda I.
    The closed form is ill-conditioned, and its row is returned for
    another solver (Kopp 2008), where the two smallest eigenvalues are
    within ``_EIGEN_GAP`` of the largest, where that largest cross product
    vanishes, and where the covariance is zero or a multiple of the
    identity (coincident or isotropic neighbors), whose eigenvalues are NaN.
    """
    k = centered.shape[1]
    x, y, z = np.moveaxis(centered, 2, 0)
    a, b, c, d, e, f = (np.einsum("nk,nk->n", s, t) / k
                        for s, t in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))
    q = (a + b + c) / 3.0
    aq, bq, cq = a - q, b - q, c - q
    p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (d * d + e * e + f * f)) / 6.0)
    det = aq * (bq * cq - f * f) - d * (d * cq - f * e) + e * (d * f - bq * e)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.arccos(np.clip(det / (2.0 * p ** 3), -1.0, 1.0)) / 3.0
    largest = q + 2.0 * p * np.cos(phi)
    smallest = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    middle = 3.0 * q - largest - smallest
    a, b, c = a - smallest, b - smallest, c - smallest
    # rows (a, d, e), (d, b, f), (e, f, c): the cross products of rows
    # 0 x 1, 0 x 2 and 1 x 2
    crosses = np.stack((d * f - e * b, e * d - a * f, a * b - d * d,
                        d * c - e * f, e * e - a * c, a * f - d * e,
                        b * c - f * f, f * e - d * c, d * f - b * e)).reshape(3, 3, -1)
    squares = np.einsum("cin,cin->cn", crosses, crosses)
    best = squares.argmax(axis=0)[None]
    square = np.take_along_axis(squares, best, axis=0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        vectors = np.take_along_axis(crosses, best[None], axis=0)[0].T / np.sqrt(square)[:, None]
    ill = ~(middle - smallest > _EIGEN_GAP * largest) | ~(square > (_EIGEN_GAP * largest) ** 4)
    return vectors, np.flatnonzero(ill)


def estimate_normals(cloud: PointCloud, k: int = 16, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from PCA over the k nearest neighbors: the
    eigenvector of the smallest eigenvalue of their covariance.

    The eigenvector is taken in closed form (``_smallest_eigenvectors``).
    Where that is ill-conditioned (near-equal smallest eigenvalues, as
    for collinear neighbors, or a zero or isotropic covariance) the row's
    covariance is formed in full and solved by ``np.linalg.eigh``, one
    matrix at a time. Normals are oriented toward ``viewpoint`` (default
    the origin, i.e. the camera center for camera-frame clouds).
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
    normals, ill = _smallest_eigenvectors(centered)
    if ill.size:
        cov = np.einsum("nki,nkj->nij", centered[ill], centered[ill]) / k
        normals[ill] = np.linalg.eigh(cov)[1][:, :, 0]
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
