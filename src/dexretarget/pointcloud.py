"""Point-cloud containers, exact nearest-neighbor indexing, PCA normal
estimation, and robust point-to-plane ICP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidArgumentError, RegistrationError
from .geometry import (
    Rotation,
    SimilarityTransform,
    as_points,
    huber,
    rotvec_matrix,
    so3_left_jacobian,
)
from .solver import BoxProblem, check_iteration_count, minimize_box

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

_HUBER_DELTA = 0.01    # meters; residuals beyond ~1 cm treated as outliers
_MAX_CORR_DIST = 0.05  # meters; reject gross mismatches outright
# the ICP twist (rotation vector, translation) is unbounded
_TWIST_LO, _TWIST_HI = np.full(6, -np.inf), np.full(6, np.inf)


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
    # frozen-correspondence objective (before, after) per round
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
    nbrs = cloud.points.take(idx, axis=0)              # (n, k, 3)
    # the neighbours' mean, one add per neighbour in order and then the
    # divide: the bits of nbrs.mean(axis=1), which reduces that axis the same way
    mean = nbrs[:, 0].copy()
    for j in range(1, k):
        mean += nbrs[:, j]
    mean /= k
    centered = nbrs - mean[:, None]
    normals, ill = _smallest_eigenvectors(centered)
    if ill.size:
        cov = np.einsum("nki,nkj->nij", centered[ill], centered[ill]) / k
        normals[ill] = np.linalg.eigh(cov)[1][:, :, 0]
    flip = np.einsum("ij,ij->i", normals, vp[None, :] - cloud.points) < 0.0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=cloud.points.copy(), normals=normals)


def icp_problem(points, targets, normals) -> BoxProblem:
    """Box problem over the twist x = (rotation vector w, translation t)
    that moves the source ``points`` to R(w) p + t, with their
    correspondences (``targets`` q, ``normals`` n) frozen. Used both by
    the ICP rounds and by the gradient audit.

    The value is the mean exact Huber penalty of the point-to-plane
    residuals r = n . (R(w) p + t - q). With psi(r) = clip(r, -delta,
    delta), the penalty's derivative, and G_i = psi(r_i) n_i / m, the
    gradient is d/dt = sum G_i and d/dw = J_l(w)^T sum (R p_i) x G_i,
    J_l being the SO(3) left Jacobian.
    """
    def residuals(x):
        rotated = points @ rotvec_matrix(x[:3]).T
        return rotated, np.einsum("ij,ij->i", normals, rotated + x[3:] - targets)

    def objective(x):
        return float(np.mean(huber(residuals(x)[1], _HUBER_DELTA)))

    def gradient(x):
        rotated, r = residuals(x)
        g = np.clip(r, -_HUBER_DELTA, _HUBER_DELTA)[:, None] * normals / len(r)
        return np.concatenate((so3_left_jacobian(x[:3]).T @ np.cross(rotated, g).sum(axis=0),
                               g.sum(axis=0)))

    return BoxProblem(lower=_TWIST_LO, upper=_TWIST_HI, objective=objective, gradient=gradient)


def icp_point_to_plane(src: PointCloud, dst: PointCloud, max_iters: int = 50) -> RegistrationReport:
    """Robust point-to-plane ICP of a non-empty src onto dst (dst must be
    non-empty and carry normals), from the identity.

    Each of at most ``max_iters`` rounds matches the moved source to its
    nearest destination points, rejects matches beyond ``_MAX_CORR_DIST``
    and, with those correspondences frozen, minimizes ``icp_problem``
    with ``minimize_box`` from the round's twist and the previous round's
    curvature pairs. The rounds stop, converged, when one moves the twist
    by less than 1e-7 or changes the objective by less than 1e-9.
    ``objective_curve`` holds each round's frozen objective at its start
    and at its end.
    """
    if dst.normals is None:
        raise InvalidArgumentError("destination cloud must carry normals")
    check_iteration_count("max_iters", max_iters)
    if len(src) == 0:
        raise InvalidArgumentError("source cloud is empty")
    tree = build_index(dst)

    def match(x):
        moved = src.points @ rotvec_matrix(x[:3]).T + x[3:]
        dists, idx = tree.query(moved)
        keep = dists <= _MAX_CORR_DIST
        q, n = dst.points[idx[keep]], dst.normals[idx[keep]]
        return keep, q, n, np.einsum("ij,ij->i", n, moved[keep] - q), dists

    def report(rms, inlier_fraction, converged):
        return RegistrationReport(
            transform=SimilarityTransform(1.0, Rotation.from_rotvec(x[:3]), x[3:]),
            rms_residual=rms,
            inlier_fraction=inlier_fraction,
            iterations=it,
            converged=converged,
            objective_curve=curve,
        )

    x = np.zeros(6)
    pairs = ()
    converged = False
    prev_obj = None
    curve = []
    for it in range(1, max_iters + 1):
        keep, q, n, r, dists = match(x)
        if not keep.any():
            raise RegistrationError(
                f"no correspondences within {_MAX_CORR_DIST} m at iteration {it}",
                report(float(np.sqrt(np.mean(dists ** 2))), 0.0, False))
        rms, inlier_fraction = float(np.sqrt(np.mean(r ** 2))), float(keep.mean())
        problem = icp_problem(src.points[keep], q, n)
        f0 = problem.objective(x)
        solve = minimize_box(problem, x, pairs=pairs)
        curve.append((f0, solve.f_star))
        step = float(np.linalg.norm(solve.x_star - x))
        x, pairs = solve.x_star, solve.pairs
        if step < 1e-7 or (prev_obj is not None and abs(prev_obj - solve.f_star) < 1e-9):
            converged = True
            break
        prev_obj = solve.f_star

    # final residual stats with fresh correspondences
    keep, _, _, r, _ = match(x)
    if keep.any():
        rms, inlier_fraction = float(np.sqrt(np.mean(r ** 2))), float(keep.mean())
    return report(rms, inlier_fraction, converged)
