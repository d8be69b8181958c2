import json

import numpy as np
import pytest

from dexretarget import dataio
from dexretarget.errors import ConfigError, DataParseError, FormatError
from dexretarget.geometry import CameraIntrinsics, DepthImage, RigidTransform, Rotation
from dexretarget.hand_model import HandFrame, HandTrajectory, TaxonomyClass
from dexretarget.pointcloud import PointCloud
from dexretarget.retarget import RobotTrajectory, RobotTrajectoryFrame
from dexretarget.synthetic import canonical_hand_joints


def sample_trajectory(n=2, contacts_on_last=True):
    frames = []
    for k in range(n):
        joints = canonical_hand_joints(0.2 + 0.1 * k) + np.array([0.0, 0.0, 0.4])
        contacts = None
        if contacts_on_last and k == n - 1:
            contacts = {"thumb": joints[4], "index": joints[8]}
        frames.append(HandFrame(
            joints=joints,
            wrist_pose=RigidTransform(Rotation.from_axis_angle([0, 0, 1], 0.1 * k),
                                      joints[0]),
            confidence=0.9,
            frame_index=k,
            contacts=contacts,
        ))
    return HandTrajectory(frames=frames, fps=30.0)


class TestHandTrajectoryIO:
    def test_valid_single_frame(self, tmp_path):
        path = tmp_path / "traj.json"
        dataio.write_hand_trajectory(sample_trajectory(1), path)
        traj = dataio.read_hand_trajectory(path)
        assert len(traj) == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "traj.json"
        original = sample_trajectory(3)
        dataio.write_hand_trajectory(original, path)
        loaded = dataio.read_hand_trajectory(path)
        assert len(loaded) == len(original)
        for a, b in zip(original.frames, loaded.frames):
            np.testing.assert_allclose(a.joints, b.joints, atol=1e-12)
            assert a.frame_index == b.frame_index
            assert a.confidence == b.confidence
            assert a.wrist_pose.rotation.angle_to(b.wrist_pose.rotation) < 1e-12
            if a.contacts is None:
                assert b.contacts is None
            else:
                assert set(a.contacts) == set(b.contacts)
                for d in a.contacts:
                    np.testing.assert_allclose(a.contacts[d], b.contacts[d], atol=1e-12)

    def test_twenty_joints_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"fps": 30, "frames": [{
            "index": 0,
            "wrist": {"quat_wxyz": [1, 0, 0, 0], "pos": [0, 0, 0]},
            "joints": [[0.0, 0.0, 0.0]] * 20,
        }]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError) as err:
            dataio.read_hand_trajectory(path)
        assert "frame 0" in str(err.value)
        assert "21" in str(err.value)

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"fps": 30, "frames": [{
            "index": 0,
            "wrist": {"quat_wxyz": [2, 0, 0, 0], "pos": [0, 0, 0]},
            "joints": [[0.0, 0.0, 0.0]] * 21,
        }]}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError):
            dataio.read_hand_trajectory(path)

    def test_non_increasing_indices_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        frame = {
            "index": 0,
            "wrist": {"quat_wxyz": [1, 0, 0, 0], "pos": [0, 0, 0]},
            "joints": [[0.0, 0.0, 0.0]] * 21,
        }
        path.write_text(json.dumps({"fps": 30, "frames": [frame, frame]}))
        with pytest.raises(DataParseError):
            dataio.read_hand_trajectory(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataParseError):
            dataio.read_hand_trajectory(path)


class TestPlyIO:
    def test_three_point_file(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n"
        )
        cloud = dataio.read_ply(path)
        assert len(cloud) == 3
        np.testing.assert_array_equal(cloud.points[1], [1.0, 0.0, 0.0])

    def test_round_trip_points(self, tmp_path, rng):
        path = tmp_path / "cloud.ply"
        cloud = PointCloud(points=rng.normal(size=(40, 3)))
        dataio.write_ply(cloud, path)
        loaded = dataio.read_ply(path)
        np.testing.assert_allclose(loaded.points, cloud.points, rtol=1e-8)

    def test_round_trip_normals(self, tmp_path, rng):
        path = tmp_path / "cloud.ply"
        normals = rng.normal(size=(10, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(points=rng.normal(size=(10, 3)), normals=normals)
        dataio.write_ply(cloud, path)
        loaded = dataio.read_ply(path)
        np.testing.assert_allclose(loaded.normals, normals, atol=1e-8)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 0 0\n"
        )
        with pytest.raises(DataParseError):
            dataio.read_ply(path)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(FormatError):
            dataio.read_ply(path)

    def test_missing_xyz_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(FormatError):
            dataio.read_ply(path)

    @pytest.mark.parametrize("header, lineno", [
        ("format\nelement vertex 0\nend_header\n", 2),
        ("format ascii 1.0\nelement\nend_header\n", 3),
        ("format ascii 1.0\nelement vertex 0\nproperty\nend_header\n", 4),
    ], ids=["format", "element", "property"])
    def test_header_line_missing_token(self, tmp_path, header, lineno):
        path = tmp_path / "bad.ply"
        path.write_text("ply\n" + header)
        with pytest.raises(DataParseError) as info:
            dataio.read_ply(path)
        assert info.value.location == f"line {lineno}"

    def test_not_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("hello\n")
        with pytest.raises(FormatError):
            dataio.read_ply(path)


class TestPfmIO:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "depth.pfm"
        img = DepthImage(values=np.array([[1.0, 2.0], [3.0, 4.0]]))
        dataio.write_pfm_depth(img, path)
        loaded = dataio.read_pfm_depth(path)
        np.testing.assert_array_equal(loaded.values, img.values)
        assert loaded.valid.all()

    def test_nan_marks_invalid(self, tmp_path):
        path = tmp_path / "depth.pfm"
        values = np.array([[1.0, np.nan], [2.0, 1.5]])
        dataio.write_pfm_depth(DepthImage(values=values), path)
        assert np.isnan(np.frombuffer(path.read_bytes()[-8:], dtype="<f4")[1])
        loaded = dataio.read_pfm_depth(path)
        np.testing.assert_array_equal(loaded.valid, [[True, False], [True, True]])
        np.testing.assert_array_equal(loaded.values, [[1.0, 0.0], [2.0, 1.5]])

    def test_bit_exact_round_trip(self, tmp_path, rng):
        path = tmp_path / "depth.pfm"
        # float32-representable values round-trip exactly
        values = rng.uniform(0.1, 5.0, size=(33, 47)).astype(np.float32).astype(float)
        img = DepthImage(values=values)
        dataio.write_pfm_depth(img, path)
        loaded = dataio.read_pfm_depth(path)
        np.testing.assert_array_equal(loaded.values, values)
        # writing again produces identical bytes
        path2 = tmp_path / "depth2.pfm"
        dataio.write_pfm_depth(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_color_pfm_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(FormatError):
            dataio.read_pfm_depth(path)

    def test_big_endian_read(self, tmp_path):
        path = tmp_path / "be.pfm"
        rows = np.array([[3.0, 4.0], [1.0, 2.0]], dtype=">f4")  # bottom-to-top
        path.write_bytes(b"Pf\n2 2\n1.0\n" + rows.tobytes())
        loaded = dataio.read_pfm_depth(path)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")
        with pytest.raises(DataParseError):
            dataio.read_pfm_depth(path)

    @pytest.mark.parametrize("size", [b"-2 -3", b"0 0", b"0 4", b"3 -1"])
    def test_non_positive_size(self, tmp_path, size):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + size + b"\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(DataParseError, match="dimensions must be positive"):
            dataio.read_pfm_depth(path)


class TestPgmMaskIO:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "mask.pgm"
        mask = rng.random((12, 9)) > 0.5
        dataio.write_pgm_mask(mask, path)
        loaded = dataio.read_pgm_mask(path)
        np.testing.assert_array_equal(loaded, mask)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P5\n2 2\n1\n")
        with pytest.raises(FormatError):
            dataio.read_pgm_mask(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 2\n1\n1 0 1\n")
        with pytest.raises(DataParseError):
            dataio.read_pgm_mask(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["1 x 0 1", "1 0 1 0 junk", "1 0 1 0\x00", "1 0 -1 0",
                                      "1 0 1.0 0", "1 0 1 0 1"],
                             ids=["non-numeric", "trailing-junk", "trailing-nul", "signed",
                                  "decimal-point", "extra-pixel"])
    def test_malformed_body(self, tmp_path, body):
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2\n2 2\n1\n{body}\n")
        with pytest.raises(DataParseError):
            dataio.read_pgm_mask(path)

    def test_any_ascii_whitespace_separates_pixels(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_text("P2 3 2 1\t1\r\n0\v 0\f1\n\n0   1   \n")
        np.testing.assert_array_equal(dataio.read_pgm_mask(path),
                                      [[True, False, False], [True, False, True]])

    @pytest.mark.parametrize("size", ["-2 -3", "0 0", "0 4", "3 -1"])
    def test_non_positive_size(self, tmp_path, size):
        # each file carries |w h| pixels, so only the size check can reject it
        w, h = (int(t) for t in size.split())
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2\n{size}\n1\n" + " 0" * abs(w * h) + "\n")
        with pytest.raises(DataParseError, match="dimensions must be positive"):
            dataio.read_pgm_mask(path)


class TestIntrinsicsIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        k = CameraIntrinsics(fx=500.0, fy=510.0, cx=320.0, cy=240.0,
                             width=640, height=480)
        dataio.write_intrinsics(k, path)
        loaded = dataio.read_intrinsics(path)
        assert loaded == k

    def test_missing_field(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        path.write_text('{"fx": 500}')
        with pytest.raises(DataParseError):
            dataio.read_intrinsics(path)


class TestRobotTrajectoryIO:
    def test_round_trip(self, tmp_path, hand16):
        mid = hand16.mid_limits()
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(0, RigidTransform.identity(), mid),
            RobotTrajectoryFrame(1, RigidTransform(
                Rotation.from_axis_angle([0, 0, 1], 0.3), np.array([0.1, 0, 0])),
                mid + 0.01),
        ], model=hand16)
        path = tmp_path / "robot.json"
        dataio.write_robot_trajectory(traj, path)
        loaded = dataio.read_robot_trajectory(path, hand16)
        assert len(loaded.frames) == 2
        np.testing.assert_allclose(loaded.frames[1].q, mid + 0.01, atol=1e-12)

    def test_deterministic_bytes(self, tmp_path, hand16):
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(0, RigidTransform.identity(), hand16.mid_limits()),
        ], model=hand16)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dataio.write_robot_trajectory(traj, a)
        dataio.write_robot_trajectory(traj, b)
        assert a.read_bytes() == b.read_bytes()

    def test_joint_name_mismatch(self, tmp_path, hand16):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps({"joint_names": ["a"], "frames": []}))
        with pytest.raises(DataParseError):
            dataio.read_robot_trajectory(path, hand16)


class TestLoadConfig:
    def write_minimal(self, tmp_path, extra=None, drop=None):
        # minimal file tree the config refers to
        (tmp_path / "hand.urdf").write_text("<robot/>")
        (tmp_path / "traj.json").write_text("{}")
        (tmp_path / "obs").mkdir(exist_ok=True)
        doc = {
            "urdf": "hand.urdf",
            "hand_trajectory": "traj.json",
            "observations_dir": "obs",
            "output_dir": "out",
            "taxonomy": "medium-wrap",
            "finger_mapping": {"thumb": "thumb_tip", "index": "index_tip"},
        }
        if extra:
            doc.update(extra)
        if drop:
            doc.pop(drop)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_defaults_applied(self, tmp_path):
        cfg, warnings = dataio.load_config(self.write_minimal(tmp_path))
        assert cfg.align.huber_delta == 0.01
        assert cfg.retarget.lambda_smooth == 1.0
        assert cfg.taxonomy is TaxonomyClass.MEDIUM_WRAP
        assert cfg.seed == 0
        assert warnings == []

    def test_taxonomy_parsed(self, tmp_path):
        cfg, _ = dataio.load_config(
            self.write_minimal(tmp_path, extra={"taxonomy": "lateral-tripod"}))
        assert cfg.taxonomy is TaxonomyClass.LATERAL_TRIPOD

    def test_unknown_taxonomy_lists_names(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"taxonomy": "super-grip"})
        with pytest.raises(ConfigError) as err:
            dataio.load_config(path)
        for name in ("medium-wrap", "lateral-tripod", "precision-pinch"):
            assert name in str(err.value)

    def test_missing_required_field(self, tmp_path):
        path = self.write_minimal(tmp_path, drop="urdf")
        with pytest.raises(ConfigError):
            dataio.load_config(path)

    def test_dangling_path(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"urdf": "ghost.urdf"})
        with pytest.raises(ConfigError):
            dataio.load_config(path)

    def test_unknown_key_strict(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"surprise": 1})
        with pytest.raises(ConfigError):
            dataio.load_config(path)

    def test_unknown_key_lenient_warns(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"surprise": 1})
        cfg, warnings = dataio.load_config(path, lenient=True)
        assert any("surprise" in w for w in warnings)

    def test_nested_overrides(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={
            "align": {"huber_delta": 0.02, "outer_iters": 4},
            "retarget": {"lambda_smooth": 0.5,
                         "solver": {"max_iters": 50}},
            "seed": 7,
        })
        cfg, _ = dataio.load_config(path)
        assert cfg.align.huber_delta == 0.02
        assert cfg.align.outer_iters == 4
        assert cfg.retarget.lambda_smooth == 0.5
        assert cfg.retarget.solver.max_iters == 50
        assert cfg.seed == 7

        # every key FORMATS.md documents loads under the strict schema
        for name in ("object_true.ply", "object_pred.ply"):
            (tmp_path / name).write_text("ply\n")
        (tmp_path / "weights.json").write_text(
            json.dumps({c.value: {"wrist-to-tip": 1.0, "thumb-pair": 0.5,
                                  "inter-finger": 0.25, "enclosure": 2.0}
                        for c in TaxonomyClass}))
        path = self.write_minimal(tmp_path, extra={
            "object_cloud_true": "object_true.ply",
            "object_cloud_pred": "object_pred.ply",
            "palm_link": "palm",
            "proximal_links": {"thumb": "thumb_medial", "index": "index_medial"},
            "weight_table": "weights.json",
            "calibrate_scale": False,
            "seed": 3,
            "mount_offset": {"quat_wxyz": [1.0, 0.0, 0.0, 0.0], "pos": [0.0, 0.0, 0.01]},
            "align": {"huber_delta": 0.02, "lambda_rend": 0.5, "lambda_reg": 0.2,
                      "outer_iters": 4, "inner_iters": 12, "splat_footprint": 5,
                      "fd_eps": 1e-7},
            "retarget": {"huber_delta": 0.03, "lambda_smooth": 0.5, "lambda_init": 0.2,
                         "alternations": 2, "max_tip_error": 0.01,
                         "solver": {"grad_tol": 1e-7, "step_tol": 1e-9,
                                    "max_iters": 50, "fd_eps": 2e-6}},
        })
        cfg, warnings = dataio.load_config(path, lenient=False)
        assert warnings == []
        assert cfg.object_cloud_true == tmp_path / "object_true.ply"
        assert cfg.palm_link == "palm"
        assert cfg.proximal_links == {"thumb": "thumb_medial", "index": "index_medial"}
        assert cfg.weight_table.weight(TaxonomyClass.TRIPOD, "thumb-pair") == 0.5
        assert cfg.calibrate_scale is False and cfg.seed == 3
        assert cfg.retarget.mount_offset.translation[2] == 0.01
        assert (cfg.align.lambda_rend, cfg.align.lambda_reg, cfg.align.inner_iters,
                cfg.align.splat_footprint, cfg.align.fd_eps) == (0.5, 0.2, 12, 5, 1e-7)
        assert (cfg.retarget.huber_delta, cfg.retarget.lambda_init,
                cfg.retarget.alternations, cfg.retarget.max_tip_error) == (0.03, 0.2, 2, 0.01)
        solver = cfg.retarget.solver
        assert (solver.grad_tol, solver.step_tol, solver.fd_eps) == (1e-7, 1e-9, 2e-6)

    def test_invalid_nested_value(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"align": {"huber_delta": -1}})
        with pytest.raises(ConfigError):
            dataio.load_config(path)


class TestMalformedInputsNeverCrash:
    """Fuzz: every reader turns garbage into a structured error."""

    @pytest.mark.parametrize("payload", [
        b"", b"\x00\xff\x17", b"ply\n\x80garbage", b"Pf\n", b"P2 x", b"{",
        b"ply\nformat ascii 1.0\nend_header\n", b"[1,2,3]",
    ])
    def test_readers_raise_structured_errors(self, tmp_path, payload):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(payload)
        for reader in (dataio.read_ply, dataio.read_pfm_depth,
                       dataio.read_pgm_mask, dataio.read_hand_trajectory,
                       dataio.read_intrinsics):
            with pytest.raises((DataParseError, FormatError, ConfigError)):
                reader(path)

    def test_random_bytes_fuzz(self, tmp_path, rng):
        for k in range(20):
            path = tmp_path / f"fuzz_{k}.bin"
            path.write_bytes(rng.bytes(rng.integers(1, 200)))
            for reader in (dataio.read_ply, dataio.read_pfm_depth,
                           dataio.read_pgm_mask):
                with pytest.raises((DataParseError, FormatError)):
                    reader(path)
