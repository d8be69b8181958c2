import numpy as np
import pytest

from dexretarget.errors import InvalidArgumentError, RegistrationError
from dexretarget.geometry import RigidTransform, Rotation, SimilarityTransform
from dexretarget.pointcloud import (
    PointCloud,
    build_index,
    estimate_normals,
    icp_point_to_plane,
)
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


class TestEstimateNormals:
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
            icp_point_to_plane(far, dst, max_corr_dist=0.05)
        assert err.value.report is not None
        assert err.value.report.inlier_fraction == 0.0

    def test_requires_normals(self):
        src = hand_cloud(100)
        with pytest.raises(InvalidArgumentError):
            icp_point_to_plane(src, PointCloud(points=src.points))

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
