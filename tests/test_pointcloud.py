import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dexretarget
from dexretarget.errors import InvalidArgumentError, RegistrationError
from dexretarget import pointcloud
from dexretarget.geometry import RigidTransform, Rotation, SimilarityTransform, rotvec_matrix
from dexretarget.pointcloud import (
    PointCloud,
    build_index,
    estimate_normals,
    icp_point_to_plane,
    icp_problem,
)
from dexretarget.solver import check_gradient
from dexretarget.synthetic import canonical_hand_joints, sample_hand_surface


def hand_cloud(n=2000, seed=0):
    joints = canonical_hand_joints(0.4) + np.array([0.0, 0.0, 0.4])
    return PointCloud(points=sample_hand_surface(joints, n, seed=seed))


class TestPointCloud:
    def test_normals_must_be_unit(self):
        with pytest.raises(InvalidArgumentError):
            PointCloud(points=np.zeros((2, 3)), normals=np.full((2, 3), 0.4))

    def test_length_checks(self):
        with pytest.raises(InvalidArgumentError):
            PointCloud(points=np.zeros((3, 3)), normals=np.tile([0.0, 0.0, 1.0], (2, 1)))

    def test_transformed_rotates_normals_without_scaling(self):
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0]]),
                           normals=np.array([[0.0, 0.0, 1.0]]))
        sim = SimilarityTransform(2.0, Rotation.from_axis_angle([1, 0, 0], np.pi / 2),
                                  np.zeros(3))
        out = cloud.transformed(sim)
        np.testing.assert_allclose(out.points, [[2.0, 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(out.normals, [[0.0, -1.0, 0.0]], atol=1e-12)


class TestBuildIndex:
    def test_single_point(self):
        idx = build_index(PointCloud(points=np.array([[1.0, 2.0, 3.0]])))
        d, i = idx.query(np.array([[0.0, 0.0, 0.0]]))
        assert i[0] == 0
        assert d[0] == pytest.approx(np.sqrt(14))

    def test_grid_node_exact(self):
        g = np.arange(10, dtype=float)
        pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
        idx = build_index(PointCloud(points=pts))
        d, i = idx.query(np.array([[3.0, 4.0, 5.0]]))
        assert d[0] == 0.0
        np.testing.assert_array_equal(pts[i[0]], [3.0, 4.0, 5.0])

    def test_matches_brute_force(self, rng):
        pts = rng.normal(size=(10_000, 3))
        queries = rng.normal(size=(100, 3))
        idx = build_index(PointCloud(points=pts))
        d, i = idx.query(queries)
        # brute-force oracle
        for k in range(100):
            dists = np.linalg.norm(pts - queries[k], axis=1)
            assert i[k] == int(np.argmin(dists))
            assert d[k] == pytest.approx(dists.min())

    def test_empty_cloud_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_index(PointCloud(points=np.zeros((0, 3))))

    def test_scipy_spatial_is_imported_on_first_index(self):
        probe = (
            "import sys, numpy as np\n"
            "import dexretarget\n"
            "from dexretarget.pointcloud import PointCloud, build_index\n"
            "before = 'scipy.spatial' in sys.modules\n"
            "build_index(PointCloud(points=np.zeros((1, 3))))\n"
            "print(before, 'scipy.spatial' in sys.modules)\n"
        )
        src = str(Path(dexretarget.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", probe],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["False", "True"]


def eigh_normals(cloud, k, viewpoint=(0.0, 0.0, 0.0)):
    """estimate_normals with every row's covariance formed in full and
    solved by np.linalg.eigh: the oracle of the closed form, and of the
    fallback rows bit for bit."""
    _, idx = build_index(cloud).query(cloud.points, k=k)
    nbrs = cloud.points[idx]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    normals = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / k)[1][:, :, 0]
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - cloud.points) < 0.0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


def clusters(patches, spacing=100.0):
    """k-point patches placed ``spacing`` apart on a grid in front of the
    origin, so that each point's k nearest neighbors are its own patch."""
    cells = np.indices((8, 8, 8)).reshape(3, -1).T * spacing + [0.0, 0.0, spacing]
    return np.concatenate([p + cell for p, cell in zip(patches, cells)])


def random_rotation(rng):
    return Rotation.from_rotvec(rng.uniform(-np.pi, np.pi, 3)).as_matrix()


class TestEstimateNormals:
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_matches_eigh(self, seed):
        # Gaussian patches, from round to flat to needle-like, and exact
        # planes, which the closed form takes (their smallest eigenvalue
        # is simple)
        rng = np.random.default_rng(seed)
        k, patches = 16, []
        for _ in range(300):
            spread = 10.0 ** -np.sort(rng.uniform(0.0, 4.0, 3))
            patches.append(rng.normal(size=(k, 3)) * spread @ random_rotation(rng).T)
        for _ in range(20):
            flat = np.column_stack([rng.normal(size=(k, 2)), np.zeros(k)])
            patches.append(flat @ random_rotation(rng).T)
        cloud = PointCloud(points=clusters(patches))
        ref = eigh_normals(cloud, k)
        got = estimate_normals(cloud, k=k).normals
        # needle-like patches, whose two smallest eigenvalues are close
        # against the largest, fall back; most rows take the closed form
        assert self.fallback_rows(cloud, k).size < 0.25 * len(cloud)
        cos = np.einsum("ij,ij->i", got, ref)
        # the same direction to 1 - cos <= 1e-12, and the same orientation
        assert np.all(1.0 - cos <= 1e-12)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-15)

    @staticmethod
    def fallback_rows(cloud, k):
        _, idx = build_index(cloud).query(cloud.points, k=k)
        nbrs = cloud.points[idx]
        return pointcloud._smallest_eigenvectors(nbrs - nbrs.mean(axis=1, keepdims=True))[1]

    def test_ill_conditioned_rows_keep_the_eigh_bits(self, rng):
        k, rotation = 16, random_rotation(rng)
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        degenerate = {
            "collinear": np.outer(rng.normal(size=k), rotation[:, 0]),
            "coincident": np.tile(rng.normal(size=3), (k, 1)),
            "isotropic": np.vstack([octahedron, 2.0 * octahedron, np.zeros((4, 3))]) @ rotation.T,
            # two equal smallest eigenvalues: a disc seen edge-on, a needle
            "needle": np.column_stack([10.0 * rng.normal(size=k),
                                       np.tile([0.1, -0.1, 0.0, 0.0], 4),
                                       np.tile([0.0, 0.0, 0.1, -0.1], 4)]) @ rotation.T,
        }
        well = [rng.normal(size=(k, 3)) * [1.0, 0.5, 0.01] for _ in range(3)]
        cloud = PointCloud(points=clusters([*degenerate.values(), *well]))
        ill = self.fallback_rows(cloud, k)
        np.testing.assert_array_equal(ill, np.arange(len(degenerate) * k))
        got = estimate_normals(cloud, k=k).normals
        ref = eigh_normals(cloud, k)
        assert got[ill].tobytes() == ref[ill].tobytes()
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-15)

    @staticmethod
    def reference_normals(cloud, k, viewpoint=(0.0, 0.0, 0.0)):
        """estimate_normals with its neighbours gathered by fancy indexing
        and centred on ``nbrs.mean(axis=1)``, as it was written before the
        one-add-per-neighbour mean: the oracle of its bytes."""
        _, idx = build_index(cloud).query(cloud.points, k=k)
        nbrs = cloud.points[idx]
        centered = nbrs - nbrs.mean(axis=1, keepdims=True)
        normals, ill = pointcloud._smallest_eigenvectors(centered)
        if ill.size:
            cov = np.einsum("nki,nkj->nij", centered[ill], centered[ill]) / k
            normals[ill] = np.linalg.eigh(cov)[1][:, :, 0]
        flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - cloud.points) < 0.0
        normals[flip] *= -1.0
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        return normals

    @pytest.mark.parametrize("k", [3, 8, 16])
    def test_bytes_of_the_mean_centred_normals(self, rng, k):
        # a hand cloud, a plane x = -0.0 (each neighbourhood's mean x is
        # -0.0) and a collinear patch, whose rows fall back to eigh
        line = np.outer(rng.normal(size=k), random_rotation(rng)[:, 0])
        plane = np.column_stack([np.full(40, -0.0), rng.normal(size=(40, 2)) + [0.0, 5.0]])
        clouds = [hand_cloud(600, seed=int(rng.integers(1000))), PointCloud(points=plane),
                  PointCloud(points=clusters([line, rng.normal(size=(k, 3))]))]
        assert np.signbit(clouds[1].points[:, 0]).all()
        assert self.fallback_rows(clouds[2], k).size
        for cloud in clouds:
            got = estimate_normals(cloud, k=k)
            assert got.normals.tobytes() == self.reference_normals(cloud, k).tobytes()
            assert got.points.tobytes() == cloud.points.tobytes()

    def test_planar_cloud(self, rng):
        xy = rng.uniform(-1, 1, size=(200, 2))
        pts = np.column_stack([xy, np.zeros(200)])
        cloud = estimate_normals(PointCloud(points=pts), k=8, viewpoint=(0.0, 0.0, 1.0))
        np.testing.assert_allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)
        assert (cloud.normals[:, 2] > 0).all()  # oriented toward the viewpoint

    def test_sphere_normals_near_radial(self, rng):
        dirs = rng.normal(size=(4000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cloud = estimate_normals(PointCloud(points=dirs), k=12, viewpoint=(0.0, 0.0, 0.0))
        # viewpoint at the center orients normals inward
        cos = -np.einsum("ij,ij->i", cloud.normals, dirs)
        angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert angles.max() < 5.0

    def test_k_exceeds_cloud(self):
        with pytest.raises(InvalidArgumentError):
            estimate_normals(PointCloud(points=np.zeros((2, 3)) + np.arange(2)[:, None]), k=3)

    def test_rigid_equivariance(self, rng):
        cloud = hand_cloud(800, seed=3)
        t = RigidTransform(Rotation.from_axis_angle(rng.normal(size=3), 0.8),
                           rng.normal(size=3))
        plain = estimate_normals(cloud, k=10, viewpoint=(0.0, 0.0, 0.0))
        moved = estimate_normals(cloud.transformed(t), k=10,
                                 viewpoint=t.apply(np.zeros(3)))
        np.testing.assert_allclose(
            moved.normals, t.rotation.apply(plain.normals), atol=1e-6
        )


class TestIcpPointToPlane:
    def test_identity_start(self):
        cloud = hand_cloud(1500)
        dst = estimate_normals(cloud, k=12)
        report = icp_point_to_plane(cloud, dst)
        assert report.converged
        assert report.rms_residual < 1e-9
        assert report.transform.rotation.angle() < 1e-9

    def test_recovers_small_perturbation(self):
        src = hand_cloud(1500)
        dst = estimate_normals(src, k=12)
        gt = RigidTransform(Rotation.from_axis_angle([0, 0, 1], np.radians(5.0)),
                            np.array([0.01, 0.0, 0.0]))
        moved = PointCloud(points=gt.inverse().apply(src.points))
        report = icp_point_to_plane(moved, dst, max_iters=60)
        # recovered transform should match the generator inverse's inverse
        assert report.transform.rotation.angle_to(gt.rotation) < np.radians(0.1)
        assert np.linalg.norm(report.transform.translation - gt.translation) < 5e-4

    def test_no_correspondences_fails(self):
        src = hand_cloud(200)
        dst = estimate_normals(hand_cloud(200), k=8)
        far = PointCloud(points=src.points + np.array([10.0, 0.0, 0.0]))
        with pytest.raises(RegistrationError) as err:
            icp_point_to_plane(far, dst)
        assert err.value.report is not None
        assert err.value.report.inlier_fraction == 0.0

    def test_requires_normals(self):
        src = hand_cloud(100)
        with pytest.raises(InvalidArgumentError):
            icp_point_to_plane(src, PointCloud(points=src.points))

    def test_empty_destination_is_invalid(self):
        empty = PointCloud(points=np.zeros((0, 3)), normals=np.zeros((0, 3)))
        with pytest.raises(InvalidArgumentError, match="empty cloud"):
            icp_point_to_plane(hand_cloud(100), empty)

    def test_empty_source_is_invalid(self):
        dst = estimate_normals(hand_cloud(100), k=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="source cloud is empty"):
                icp_point_to_plane(PointCloud(points=np.zeros((0, 3))), dst)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5, True, "5", None])
    def test_max_iters_must_be_a_positive_integer(self, max_iters):
        cloud = hand_cloud(100)
        dst = estimate_normals(cloud, k=8)
        with pytest.raises(InvalidArgumentError, match="max_iters must be an integer"):
            icp_point_to_plane(cloud, dst, max_iters=max_iters)

    def test_gradient_matches_finite_differences(self):
        # correspondences frozen at the identity; the twists move a share
        # of the residuals beyond the Huber delta of 1 cm
        rng = np.random.default_rng(12)
        cloud = hand_cloud(600)
        dst = estimate_normals(cloud, k=10)
        _, idx = build_index(dst).query(cloud.points)
        q, n = dst.points[idx], dst.normals[idx]
        problem = icp_problem(cloud.points, q, n)
        for _ in range(20):
            x = np.concatenate([rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.02, 0.02, 3)])
            r = np.einsum("ij,ij->i", n, cloud.points @ rotvec_matrix(x[:3]).T + x[3:] - q)
            assert 0.0 < np.mean(np.abs(r) > 0.01) < 1.0
            assert check_gradient(problem, x, fd_eps=1e-6) < 1e-5

    def test_bit_identical_reruns(self):
        src = hand_cloud(800)
        dst = estimate_normals(src, k=10)
        gt = RigidTransform(Rotation.from_axis_angle([0, 1, 1], 0.1), np.array([0.01, 0.0, 0.005]))
        moved = PointCloud(points=gt.apply(src.points))
        a, b = (icp_point_to_plane(moved, dst, max_iters=40) for _ in range(2))
        assert a.transform.rotation.quat.tobytes() == b.transform.rotation.quat.tobytes()
        assert a.transform.translation.tobytes() == b.transform.translation.tobytes()
        assert (a.rms_residual, a.inlier_fraction, a.iterations, a.converged) == \
            (b.rms_residual, b.inlier_fraction, b.iterations, b.converged)
        assert a.objective_curve == b.objective_curve

    def test_objective_non_increasing_per_inner_solve(self):
        src = hand_cloud(800)
        dst = estimate_normals(src, k=10)
        gt = RigidTransform(Rotation.from_axis_angle([0, 1, 0], 0.1), np.array([0.0, 0.005, 0.01]))
        moved = PointCloud(points=gt.apply(src.points))
        report = icp_point_to_plane(moved, dst, max_iters=40)
        for before, after in report.objective_curve:
            assert after <= before + 1e-15

    def test_result_improves_on_init(self):
        src = hand_cloud(800)
        dst = estimate_normals(src, k=10)
        gt = RigidTransform(Rotation.from_axis_angle([1, 0, 0], 0.08), np.array([0.01, 0.0, 0.0]))
        moved = PointCloud(points=gt.apply(src.points))
        tree_pts = dst.points

        def rms_at(transform):
            pts = transform.apply(moved.points)
            from scipy.spatial import cKDTree
            _, idx = cKDTree(tree_pts).query(pts)
            r = np.einsum("ij,ij->i", dst.normals[idx], pts - tree_pts[idx])
            return float(np.sqrt(np.mean(r ** 2)))

        report = icp_point_to_plane(moved, dst, max_iters=40)
        assert rms_at(report.transform.rigid_part()) < rms_at(RigidTransform.identity())

