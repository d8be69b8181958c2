import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dexretarget import dataio
from dexretarget.alignment import AlignConfig
from dexretarget.errors import ConfigError, DataParseError, FormatError, InvalidArgumentError
from dexretarget.geometry import CameraIntrinsics, DepthImage, RigidTransform, Rotation
from dexretarget.hand_model import HandFrame, HandTrajectory, TaxonomyClass
from dexretarget.pointcloud import PointCloud
from dexretarget.retarget import RobotTrajectory, RobotTrajectoryFrame
from dexretarget.robot_model import parse_urdf
from dexretarget.solver import SolverOptions
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


# two prismatic joints, one with a non-ASCII name, with limits wide enough
# for 1e16
WIDE_SLIDES = """
<robot name="slides">
  <link name="base"/>
  <link name="a"/>
  <link name="b"/>
  <joint name="glissi\u00e8re" type="prismatic">
    <parent link="base"/>
    <child link="a"/>
    <axis xyz="1 0 0"/>
    <limit lower="-2e16" upper="2e16" effort="1" velocity="1"/>
  </joint>
  <joint name="slide" type="prismatic">
    <parent link="a"/>
    <child link="b"/>
    <axis xyz="0 1 0"/>
    <limit lower="-2e16" upper="2e16" effort="1" velocity="1"/>
  </joint>
</robot>
"""


def plan_json_oracle(traj: RobotTrajectory) -> bytes:
    """The plan as json.dumps(indent=1, sort_keys=True) writes its document."""
    doc = {
        "joint_names": list(traj.model.actuated_order),
        "frames": [{"index": fr.frame_index,
                    "wrist": {"quat_wxyz": [float(v) for v in fr.wrist_pose.rotation.quat],
                              "pos": [float(v) for v in fr.wrist_pose.translation]},
                    "q": [float(v) for v in fr.q]}
                   for fr in traj.frames],
    }
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


class TestHandTrajectoryIO:
    def test_wrist_rotation_has_the_checked_bits(self):
        # a quaternion within the unit tolerance reads as Rotation(quat) would
        rng = np.random.default_rng(20261021)
        for _ in range(2000):
            q = rng.normal(size=4)
            q = q / np.linalg.norm(q) * (1.0 + rng.uniform(-1e-6, 1e-6))
            pose = dataio._parse_pose({"quat_wxyz": q.tolist(), "pos": [0.0, 0.1, 0.2]},
                                      "frame 0: wrist")
            assert pose.rotation.quat.tobytes() == Rotation(q).quat.tobytes()

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

    @pytest.mark.parametrize("key, value, where", [
        ("index", 9.7, "frame 1"), ("index", "1", "frame 1"), ("index", True, "frame 1"),
        ("confidence", "0.5", "frame 1"), ("confidence", True, "frame 1"),
        ("fps", True, "fps"), ("fps", "30", "fps"),
    ])
    def test_json_types_not_python_conversions(self, tmp_path, key, value, where):
        path = tmp_path / "bad.json"
        dataio.write_hand_trajectory(sample_trajectory(2), path)
        doc = json.loads(path.read_text())
        (doc if key == "fps" else doc["frames"][1])[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match=key) as err:
            dataio.read_hand_trajectory(path)
        assert err.value.location == where and str(err.value).startswith(where)

    @pytest.mark.parametrize("frame, keys, value, what", [
        (0, ["wrist", "quat_wxyz", 0], str, "frame 0: wrist: quaternion"),
        (0, ["wrist", "quat_wxyz", 1], False, "frame 0: wrist: quaternion"),
        (0, ["wrist", "pos", 2], str, "frame 0: wrist: position"),
        (0, ["joints", 5, 0], str, "frame 0: joints"),
        (0, ["joints", 5, 1], True, "frame 0: joints"),
        (0, ["joints", 5, 2], 10 ** 400, "frame 0: joints"),
        (1, ["contacts", "thumb", 0], str, "frame 1: contact 'thumb'"),
        (1, ["contacts", "index", 1], False, "frame 1: contact 'index'"),
    ], ids=["quat-string", "quat-bool", "pos-string", "joint-string", "joint-bool",
            "joint-integer-beyond-float", "contact-string", "contact-bool"])
    def test_json_types_in_every_array_element(self, tmp_path, frame, keys, value, what):
        # each edit leaves a value np.asarray(..., dtype=float) reads as a
        # valid number, or one it cannot convert to a float
        path = tmp_path / "bad.json"
        dataio.write_hand_trajectory(sample_trajectory(2), path)
        doc = json.loads(path.read_text())
        parent = doc["frames"][frame]
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value(parent[keys[-1]]) if value is str else value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError) as err:
            dataio.read_hand_trajectory(path)
        assert str(err.value).startswith(what)
        assert err.value.location.startswith(f"frame {frame}")

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

    @pytest.mark.parametrize("row, normal", [("1e200 0 0", [1.0, 0.0, 0.0]),
                                             ("3e300 -4e300 0", [0.6, -0.8, 0.0]),
                                             ("1.3e154 1.3e154 0", [0.5 ** 0.5] * 2 + [0.0])])
    def test_normal_too_long_to_square_reads_as_its_direction(self, tmp_path, row, normal):
        path = tmp_path / "cloud.ply"
        path.write_text(_ply_text(["x", "y", "z", "nx", "ny", "nz"], f"0 0 0 {row}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = dataio.read_ply(path)
        np.testing.assert_allclose(cloud.normals, [normal], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("row, normal", [("1e-200 0 0", [1.0, 0.0, 0.0]),
                                             ("0 -3e-170 4e-170", [0.0, -0.6, 0.8]),
                                             ("5e-324 0 0", [1.0, 0.0, 0.0]),
                                             ("1e-155 1e-155 0", [0.5 ** 0.5] * 2 + [0.0])])
    def test_normal_too_short_to_square_reads_as_its_direction(self, tmp_path, row, normal):
        path = tmp_path / "cloud.ply"
        path.write_text(_ply_text(["x", "y", "z", "nx", "ny", "nz"], f"0 0 0 {row}\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = dataio.read_ply(path)
        np.testing.assert_allclose(cloud.normals, [normal], rtol=0, atol=1e-15)

    def test_zero_normal_is_still_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(_ply_text(["x", "y", "z", "nx", "ny", "nz"], "0 0 0 0 0 0\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="unit norm"):
                dataio.read_ply(path)

    @pytest.mark.parametrize("row", ["inf 0 0", "0 -inf 0", "0 0 nan", "1e999 0 0"])
    def test_non_finite_normal_is_a_parse_error(self, tmp_path, row):
        path = tmp_path / "cloud.ply"
        body = f"1 2 3 0 0 1\n0 0 0 {row}\n"
        path.write_text(_ply_text(["x", "y", "z", "nx", "ny", "nz"], body, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataParseError, match="vertex 1 has a non-finite normal"):
                dataio.read_ply(path)

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

    @pytest.mark.parametrize("props, row, lineno", [("x x y z", "1 2 3 4", 5),
                                                    ("x y z nx ny nz nx", "0 0 0 1 0 0 1", 10)])
    def test_property_named_twice(self, tmp_path, props, row, lineno):
        path = tmp_path / "bad.ply"
        path.write_text(_ply_text(props.split(), row + "\n"))
        with pytest.raises(DataParseError, match="named twice") as info:
            dataio.read_ply(path)
        assert info.value.location == f"line {lineno}"

    @pytest.mark.parametrize("n_vertex, body", [(0, ""), (0, "\n \n\t\r\n  \n"),
                                                (2, " \n\t\n")])
    def test_no_row_warns_nothing(self, tmp_path, n_vertex, body):
        path = tmp_path / "empty.ply"
        path.write_text(_ply_text(["x", "y", "z", "nx", "ny", "nz"], body, n_vertex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if n_vertex:
                with pytest.raises(DataParseError, match="count mismatch"):
                    dataio.read_ply(path)
            else:
                cloud = dataio.read_ply(path)
                assert cloud.points.shape == (0, 3) and cloud.normals is None


def _ply_text(props, body, n_vertex=1, eol="\n"):
    header = ["ply", "format ascii 1.0", f"element vertex {n_vertex}"]
    header += [f"property float {p}" for p in props] + ["end_header"]
    return eol.join(header) + eol + body


# below this norm a sum of squares is subnormal or zero
_SHORTEST_EXACT_NORM = math.sqrt(sys.float_info.min)


def reference_read_ply(path) -> PointCloud:
    """The token-by-token reader: one float() a token, rows split where
    str.splitlines splits and tokens where str.split does."""
    lines = dataio.read_text(path).splitlines()
    if not lines or lines[0].strip() != "ply":
        raise FormatError("not a PLY file (missing 'ply' magic)")
    it = iter(enumerate(lines[1:], start=2))
    n_vertex = None
    props = []
    in_vertex = False
    header_end = None
    for lineno, raw in it:
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < {"format": 2, "element": 2, "property": 3}.get(tokens[0], 1):
            raise DataParseError(f"PLY header line {line!r} is missing a token",
                                 location=f"line {lineno}")
        if tokens[0] == "format":
            if tokens[1] != "ascii":
                raise FormatError(f"unsupported PLY format {tokens[1]!r} (ASCII only)")
        elif tokens[0] == "element":
            in_vertex = tokens[1] == "vertex"
            if in_vertex:
                try:
                    n_vertex = int(tokens[2])
                except (IndexError, ValueError) as exc:
                    raise DataParseError(f"PLY vertex count is not an integer: {exc}",
                                         location=f"line {lineno}") from exc
        elif tokens[0] == "property" and in_vertex:
            props.append(tokens[2])
        elif tokens[0] == "end_header":
            header_end = lineno
            break
    if header_end is None or n_vertex is None:
        raise DataParseError("PLY header missing end_header or vertex element")
    for coord in ("x", "y", "z"):
        if coord not in props:
            raise FormatError(f"PLY vertex element missing property {coord!r}")
    has_normals = all(p in props for p in ("nx", "ny", "nz"))
    col = {p: i for i, p in enumerate(props)}

    data_lines = [l for l in lines[header_end:] if l.strip()]
    if len(data_lines) != n_vertex:
        raise DataParseError(
            f"PLY element count mismatch: header says {n_vertex}, file has {len(data_lines)}"
        )
    try:
        data = np.array([[float(t) for t in l.split()] for l in data_lines])
    except ValueError as exc:
        raise DataParseError(f"PLY vertex data is not numeric: {exc}") from exc
    if n_vertex and data.shape[1] != len(props):
        raise DataParseError(
            f"PLY row width {data.shape[1]} does not match {len(props)} properties"
        )
    pts = data[:, [col["x"], col["y"], col["z"]]] if n_vertex else np.zeros((0, 3))
    normals = None
    if has_normals and n_vertex:
        normals = data[:, [col["nx"], col["ny"], col["nz"]]]
        if not np.isfinite(normals).all():
            raise DataParseError("PLY normal is not finite")
        # np.linalg.norm's bits for every normal whose sum of squares stays
        # in float64's normal range; any other non-zero normal is first
        # divided by its largest |component|
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(normals, axis=1, keepdims=True)
        for i in range(n_vertex):
            peak = max(abs(v) for v in normals[i])
            off_range = not np.isfinite(norms[i, 0]) or norms[i, 0] < _SHORTEST_EXACT_NORM
            if off_range and peak > 0.0:
                normals[i] /= peak
                norms[i] = np.linalg.norm(normals[i:i + 1], axis=1)
        normals = normals / np.maximum(norms, 1e-300)
    return PointCloud(points=pts, normals=normals)


# the row grammar, written apart from the reader's character test: ASCII
# decimal and nan/inf/infinity tokens, runs of spaces and tabs between them,
# \n or \r\n after each row
_PLY_TOKEN = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE)


def outside_ply_grammar(text: str) -> bool:
    """Whether a file the reference reads is one the reader rejects: its
    body leaves the row grammar, or its vertex element names a property
    twice."""
    lines = text.splitlines(keepends=True)
    props, in_vertex = [], False
    for k, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if tokens[:1] == ["element"]:
            in_vertex = tokens[1] == "vertex"
        elif tokens[:1] == ["property"] and in_vertex:
            props.append(tokens[2])
        elif tokens[:1] == ["end_header"]:
            break
    if len(set(props)) != len(props):
        return True
    for row in re.split("\r?\n", "".join(lines[k + 1:])):
        tokens = re.split("[ \t]+", row.strip(" \t"))
        if row.strip(" \t") and not all(_PLY_TOKEN.fullmatch(t) for t in tokens):
            return True
    return False


# tokens float() reads, in the forms a writer might use: %.9g, repr,
# integers, a leading sign or point, a trailing point, the non-finite
# spellings, zeros of both signs, subnormals and both ends of the range
_PLY_SPECIAL_TOKENS = ["0", "-0", "+0.0", "+1", ".5", "5.", "-.25e1", "1e300", "-1E-300",
                       "1e-310", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
                       "1e999", "12345678901234567890", "007", "nan", "-NaN", "inf", "+Inf",
                       "-infinity", "INFINITY"]
_PLY_FLOAT_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.9g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-2.0, 2.0).map(lambda v: f"{v:.9g}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(_PLY_SPECIAL_TOKENS),
)
# what float() and str.splitlines take beyond the grammar, and bytes that
# break a token or a row
_PLY_JUNK = ["_", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
             "\u2029", "\u0661", "\u2003", "\r", " ", "\t", "\n", "x", "e", "-", "+", ".",
             "n", "#", "0", "\x00"]


@st.composite
def ply_files(draw):
    """ASCII PLY files in the row grammar, some with one character edited."""
    props = ["x", "y", "z"] + (["nx", "ny", "nz"] if draw(st.booleans()) else [])
    props += draw(st.lists(st.sampled_from(["red", "quality", "u", "alpha"]), unique=True,
                           max_size=2))
    props = draw(st.permutations(props))
    if draw(st.integers(0, 9)) == 0:
        props.insert(draw(st.integers(0, len(props))), draw(st.sampled_from(props)))
    n = draw(st.integers(0, 5))
    n_vertex = max(0, n + draw(st.sampled_from([0] * 8 + [-1, 1])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    seps = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\t\t"])
    blanks = st.sampled_from(["", "", "", " ", "\t", " \t "])
    rows = []
    for _ in range(n):
        tokens = draw(st.lists(_PLY_FLOAT_TOKENS, min_size=len(props), max_size=len(props)))
        row = draw(blanks) + "".join(t + draw(seps) for t in tokens[:-1]) + tokens[-1]
        rows.append(row + draw(blanks) + eol)
        if draw(st.integers(0, 4)) == 0:
            rows.append(draw(blanks) + eol)
    body = "".join(rows)
    if body and draw(st.booleans()):
        body = body[:-len(eol)]
    text = _ply_text(props, body, n_vertex, eol)
    edit = draw(st.sampled_from(["none", "none", "overwrite", "insert"]))
    if edit != "none":
        at = draw(st.integers(len(text) - len(body), len(text)))
        junk = draw(st.sampled_from(_PLY_JUNK))
        text = text[:at] + junk + text[at + (edit == "overwrite"):]
    return text


class TestPlyRows:
    """The one-call row parse reads every file of the grammar to the
    token-by-token reader's bits, and rejects the rest."""

    @staticmethod
    def outcome(reader, path):
        """The cloud, or the class of the error or of the first warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return reader(path)
            except (DataParseError, FormatError, InvalidArgumentError, RuntimeWarning) as exc:
                return type(exc)

    @given(ply_files())
    @settings(max_examples=500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_the_reference_bits(self, tmp_path, text):
        path = tmp_path / "cloud.ply"
        path.write_bytes(text.encode())
        want = self.outcome(reference_read_ply, path)
        got = self.outcome(dataio.read_ply, path)
        if outside_ply_grammar(text):
            assert got in (DataParseError, want)
        elif isinstance(want, PointCloud):
            assert isinstance(got, PointCloud)
            assert got.points.tobytes() == want.points.tobytes()
            assert got.points.shape == want.points.shape
            assert (got.normals is None) == (want.normals is None)
            if want.normals is not None:
                assert got.normals.tobytes() == want.normals.tobytes()
        else:
            assert got is want

    @pytest.mark.parametrize("body", [
        "1_0 2 3\n", "\u0661 2 3\n", "1 2 3\u0661\n", "1\x1f2 3\n", "1\xa02 3\n",
        "1\u20032 3\n", "1 2 3\v", "1 2 3\f", "1 2 3\x1c", "1 2 3\x1d", "1 2 3\x1e",
        "1 2 3\x85", "1 2 3\u2028", "1 2 3\u2029", "1 2 3\r", "1 2 3\r\x1f\n",
    ], ids=["underscore", "arabic-indic-digit", "arabic-indic-digit-last", "unit-separator",
            "nbsp", "em-space", "vertical-tab-row-end", "form-feed-row-end",
            "file-separator-row-end", "group-separator-row-end", "record-separator-row-end",
            "nel-row-end", "line-separator-row-end", "paragraph-separator-row-end",
            "lone-cr-row-end", "unit-separator-after-cr"])
    def test_newly_rejected_forms(self, tmp_path, body):
        path = tmp_path / "cloud.ply"
        path.write_bytes(_ply_text(["x", "y", "z"], body).encode())
        assert len(reference_read_ply(path)) == 1
        assert outside_ply_grammar(path.read_bytes().decode())
        with pytest.raises(DataParseError, match="outside the row grammar") as info:
            dataio.read_ply(path)
        assert info.value.location == "line 8"

    def test_crlf_file_names_the_row_of_a_bad_character(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_bytes(_ply_text(["x", "y", "z"], "1 2 3\r\n4 5 6\r\n7 8 9_0\r\n", 3,
                                   eol="\r\n").encode())
        with pytest.raises(DataParseError, match="'_'") as info:
            dataio.read_ply(path)
        assert info.value.location == "line 10"


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

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf"])
    def test_non_finite_scale(self, tmp_path, scale):
        # a NaN or +inf scale is not negative, so it once read a
        # little-endian payload as big-endian garbage
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n"
                         + np.array([[1.0, 2.0]], dtype="<f4").tobytes())
        with pytest.raises(DataParseError, match="scale must be finite"):
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


_ASCII_WHITESPACE = " \t\n\r\v\f"


def reference_pgm_mask(raw: bytes):
    """A token-by-token P2 reading: the mask, or the class of the error."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return FormatError
    spaced = text.translate({ord(c): " " for c in _ASCII_WHITESPACE})
    tokens = [t for t in spaced.split(" ") if t]
    if not tokens or tokens[0] != "P2":
        return FormatError
    if len(tokens) < 4:
        return DataParseError
    try:
        w, h, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        return DataParseError
    pixels = tokens[4:]
    if not all(t.isascii() and t.isdigit() for t in pixels):
        return DataParseError
    if w <= 0 or h <= 0 or maxval < 1 or len(pixels) != w * h:
        return DataParseError
    return np.array([int(t) != 0 for t in pixels], dtype=bool).reshape(h, w)


# bytes that break a token or a separator, and Unicode whitespace, which
# separates nothing
_JUNK = [b"x", b"\x00", b"-", b"+", b".", b"\xff", b"2", b"9", b"P", b" ", b"\n", b"\t",
         b"\r", b"\v", b"\f", b"\x1c", b"\x1f"] + [c.encode() for c in "\x85\xa0\u2028\u00e9"]
_WHITESPACE_RUNS = [" ", "\n", "\t", "\r", "\v", "\f", "\r\n", "  ", " \n\t"]


@st.composite
def pgm_files(draw):
    """P2 files in the writer's layout or near it, some of them malformed."""
    w, h = draw(st.integers(-1, 7)), draw(st.integers(-1, 7))
    maxval = draw(st.sampled_from([1, 1, 1, 1, 2, 255, 0, -1]))
    n = max(0, max(w * h, 0) + draw(st.sampled_from([0] * 6 + [-1, 1])))
    if draw(st.booleans()):  # what write_pgm_mask writes, or a count away from it
        pixels = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
        body = "".join(p + ("\n" if w > 0 and (i + 1) % w == 0 else " ")
                       for i, p in enumerate(pixels))
        text = f"P2\n{w} {h}\n{maxval}\n{body}"
    else:
        values = draw(st.sampled_from(["01", ["0", "1", "7", "10", "255", "007", "000"]]))
        runs = draw(st.sampled_from([" \n", _WHITESPACE_RUNS[:6], _WHITESPACE_RUNS]))
        header = draw(st.sampled_from([["\n", " ", "\n", "\n"], None]))
        if header is None:
            header = draw(st.lists(st.sampled_from(runs), min_size=4, max_size=4))
        pixels = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from(runs), min_size=n, max_size=n))
        if n and draw(st.booleans()):
            seps[-1] = draw(st.sampled_from(["", " \n"]))
        text = "".join(t + r for t, r in zip(["P2", str(w), str(h), str(maxval)] + pixels,
                                             header + seps))
    raw = text.encode()
    edit = draw(st.sampled_from(["none", "overwrite", "insert"]))
    if edit != "none":
        at = draw(st.sampled_from(range(len(raw) + 1)))
        junk = draw(st.sampled_from(_JUNK))
        raw = raw[:at] + junk + raw[at + (edit == "overwrite"):]
    return raw


class TestPgmMaskLayouts:
    """The writer's byte layout and the token parser read one format."""

    @staticmethod
    def assert_reads_as_the_reference(path, raw):
        path.write_bytes(raw)
        want = reference_pgm_mask(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, np.ndarray):
                got = dataio.read_pgm_mask(path)
                assert got.dtype == bool and got.flags.c_contiguous
                np.testing.assert_array_equal(got, want)
            else:
                with pytest.raises(want):
                    dataio.read_pgm_mask(path)

    @given(pgm_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_the_reference(self, tmp_path, raw):
        self.assert_reads_as_the_reference(tmp_path / "mask.pgm", raw)

    def test_writer_output_with_one_byte_changed(self, tmp_path, rng):
        path = tmp_path / "mask.pgm"
        dataio.write_pgm_mask(rng.random((3, 4)) > 0.5, path)
        written = path.read_bytes()
        for at in range(len(written)):
            for junk in _JUNK:
                self.assert_reads_as_the_reference(path, written[:at] + junk + written[at + 1:])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 4), (12, 9), (48, 64)])
    def test_writer_output_takes_the_byte_path(self, tmp_path, rng, monkeypatch, shape):
        def no_token_parse(text):
            raise AssertionError("the writer's layout went to the token parser")

        monkeypatch.setattr(dataio, "_parse_pgm_text", no_token_parse)
        path = tmp_path / "mask.pgm"
        mask = rng.random(shape) > 0.5
        dataio.write_pgm_mask(mask, path)
        loaded = dataio.read_pgm_mask(path)
        assert loaded.dtype == bool and loaded.flags.c_contiguous
        np.testing.assert_array_equal(loaded, mask)

    @pytest.mark.parametrize("maxval", [0, -1])
    @pytest.mark.parametrize("layout", ["P2\n2 1\n{}\n0 1\n", "P2 2 1 {}\t0  1"],
                             ids=["writer", "other"])
    def test_maxval_below_one_is_rejected(self, tmp_path, layout, maxval):
        path = tmp_path / "bad.pgm"
        path.write_text(layout.format(maxval))
        with pytest.raises(DataParseError, match="maxval"):
            dataio.read_pgm_mask(path)

    @pytest.mark.parametrize("maxval", [1, 2, 255])
    @pytest.mark.parametrize("layout", ["P2\n3 1\n{}\n0 1 1\n", "P2 3 1 {} 0\t{}\n7"],
                             ids=["writer", "other"])
    def test_any_nonzero_pixel_marks_the_hand(self, tmp_path, layout, maxval):
        path = tmp_path / "mask.pgm"
        path.write_text(layout.format(maxval, maxval))
        np.testing.assert_array_equal(dataio.read_pgm_mask(path), [[False, True, True]])

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 1\n1\n0 \xff\n")
        with pytest.raises(FormatError, match="not a text file"):
            dataio.read_pgm_mask(path)


def token_parse(raw: bytes):
    """The token parser's reading of a file: the mask, or its error's class
    and message."""
    try:
        return dataio._parse_pgm_text(raw.decode("utf-8"))
    except (DataParseError, FormatError) as exc:
        return type(exc), str(exc)


def writer_masks():
    rng = np.random.default_rng(20261020)
    return {"zeros": np.zeros((4, 6), bool), "ones": np.ones((5, 3), bool),
            "1x1-0": np.zeros((1, 1), bool), "1x1-1": np.ones((1, 1), bool),
            "640x480": rng.random((480, 640)) < 0.3}


def near_misses(raw: bytes, body_at: int):
    """Single edits of a writer file that leave its byte layout: a `2`
    digit, a tab or carriage return for a separator, a pixel byte dropped
    (an odd byte count), a trailing byte."""
    last = len(raw) - 1
    for at in (body_at, body_at + (last - body_at) // 4 * 2, last - 1):  # pixel bytes
        yield raw[:at] + b"2" + raw[at + 1:]
    for at in (body_at + 1, last):  # separators
        for sep in (b"\t", b"\r"):
            yield raw[:at] + sep + raw[at + 1:]
    yield raw[:body_at] + raw[body_at + 1:]
    for tail in (b" ", b"\n", b"0", b"\x00"):
        yield raw + tail


class TestPgmWriterLayoutBits:
    """The writer layout's byte path gives the token parser's array, and a
    near miss of the layout the token parser's array or error."""

    @pytest.mark.parametrize("name", list(writer_masks()))
    def test_writer_files(self, tmp_path, monkeypatch, name):
        mask = writer_masks()[name]
        path = tmp_path / "mask.pgm"
        dataio.write_pgm_mask(mask, path)
        raw = path.read_bytes()
        want = token_parse(raw)
        monkeypatch.setattr(dataio, "_parse_pgm_text", None)  # the byte path only
        got = dataio.read_pgm_mask(path)
        assert got.dtype == want.dtype and got.shape == want.shape == mask.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", list(writer_masks()))
    def test_near_misses(self, tmp_path, name):
        path = tmp_path / "mask.pgm"
        dataio.write_pgm_mask(writer_masks()[name], path)
        raw = path.read_bytes()
        body_at = dataio._PGM_WRITER_HEADER.match(raw).end()
        for edited in near_misses(raw, body_at):
            path.write_bytes(edited)
            want = token_parse(edited)
            if isinstance(want, tuple):
                with pytest.raises(want[0]) as err:
                    dataio.read_pgm_mask(path)
                assert str(err.value) == want[1]
            else:
                got = dataio.read_pgm_mask(path)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("value", [str, True, 10 ** 400],
                             ids=["string", "bool", "integer-beyond-float"])
    def test_q_json_types(self, tmp_path, hand16, value):
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(0, RigidTransform.identity(), hand16.mid_limits()),
        ], model=hand16)
        path = tmp_path / "robot.json"
        dataio.write_robot_trajectory(traj, path)
        doc = json.loads(path.read_text())
        q = doc["frames"][0]["q"]
        q[3] = value(q[3]) if value is str else value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="^frame 0: q ") as err:
            dataio.read_robot_trajectory(path, hand16)
        assert err.value.location == "frame 0"

    def test_non_finite_q_is_rejected(self, tmp_path, hand16):
        # json reads NaN and Infinity as floats; no joint limit admits them
        for value, spelling in ((math.nan, "NaN"), (math.inf, "Infinity"),
                                (-math.inf, "-Infinity")):
            path, doc = self.written_doc(tmp_path, hand16)
            doc["frames"][1]["q"][3] = value
            path.write_text(json.dumps(doc))
            assert spelling in path.read_text()
            with pytest.raises(InvalidArgumentError,
                               match="^frame 1: joint configuration violates limits$"):
                dataio.read_robot_trajectory(path, hand16)

    def written_doc(self, tmp_path, hand16):
        """A written two-frame plan's path and its JSON document."""
        mid = hand16.mid_limits()
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(k, RigidTransform.identity(), mid) for k in (0, 1)
        ], model=hand16)
        path = tmp_path / "robot.json"
        dataio.write_robot_trajectory(traj, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("index", ["1", 1.9, True, 1.0, None],
                             ids=["string", "float", "bool", "integral-float", "null"])
    def test_index_must_be_a_json_integer(self, tmp_path, hand16, index):
        path, doc = self.written_doc(tmp_path, hand16)
        doc["frames"][1]["index"] = index
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="^frame 1: index must be an integer") as err:
            dataio.read_robot_trajectory(path, hand16)
        assert err.value.location == "frame 1"

    @pytest.mark.parametrize("frame", [5, "frame", [0.0], None])
    def test_frame_must_be_an_object(self, tmp_path, hand16, frame):
        path, doc = self.written_doc(tmp_path, hand16)
        doc["frames"][1] = frame
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="^frame 1: must be an object") as err:
            dataio.read_robot_trajectory(path, hand16)
        assert err.value.location == "frame 1"

    @pytest.mark.parametrize("frames", [{"0": {}}, "frames", 5, None])
    def test_frames_must_be_a_list(self, tmp_path, hand16, frames):
        path, doc = self.written_doc(tmp_path, hand16)
        doc["frames"] = frames
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="'frames' list"):
            dataio.read_robot_trajectory(path, hand16)

    @pytest.mark.parametrize("doc", [[], 5, "plan", None])
    def test_document_must_be_an_object(self, tmp_path, hand16, doc):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="root must be a JSON object"):
            dataio.read_robot_trajectory(path, hand16)

    def assert_written_as_json_dumps(self, path, traj):
        dataio.write_robot_trajectory(traj, path)
        assert path.read_bytes() == plan_json_oracle(traj)

    def test_zero_frame_plan_is_written_as_json_dumps(self, tmp_path):
        traj = RobotTrajectory(frames=[], model=parse_urdf(WIDE_SLIDES))
        self.assert_written_as_json_dumps(tmp_path / "robot.json", traj)
        assert b'"frames": [],' in (tmp_path / "robot.json").read_bytes()

    @pytest.mark.parametrize("values", [(-0.0, 5e-324), (1e16, 1e-7), (-1e16, -5e-324),
                                        (0.1, 1 / 3), (2.0 ** -1074, 123456789.125)])
    def test_edge_numbers_are_written_as_json_dumps(self, tmp_path, values):
        model = parse_urdf(WIDE_SLIDES)
        assert model.actuated_order[0] == "glissi\u00e8re"
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(3, RigidTransform(Rotation([1.0, -0.0, 0.0, -0.0]),
                                                   np.array([values[0], -0.0, values[1]])),
                                 np.array(values)),
            RobotTrajectoryFrame(10 ** 6, RigidTransform(
                Rotation.from_axis_angle([0.3, -1.0, 0.2], 2.5), np.array([1e16, 1e-7, 0.0])),
                np.array(values[::-1])),
        ], model=model)
        self.assert_written_as_json_dumps(tmp_path / "robot.json", traj)

    def test_non_finite_q_is_spelled_as_json_dumps_spells_it(self, tmp_path):
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(0, RigidTransform.identity(), np.zeros(2)),
        ], model=parse_urdf(WIDE_SLIDES))
        for q in ([np.nan, np.inf], [-np.inf, 0.5]):
            traj.frames[0].q = np.array(q)  # past the plan's limit check
            self.assert_written_as_json_dumps(tmp_path / "robot.json", traj)

    @given(st.lists(st.tuples(st.floats(-2e16, 2e16), st.floats(-2e16, 2e16),
                              st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=3, max_size=3),
                              st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
                              .filter(lambda v: np.linalg.norm(v) > 0.1)),
                    max_size=4))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_plans_are_written_as_json_dumps(self, tmp_path, rows):
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(k, RigidTransform(Rotation(quat), pos), np.array([a, b]))
            for k, (a, b, pos, quat) in enumerate(rows)
        ], model=parse_urdf(WIDE_SLIDES))
        self.assert_written_as_json_dumps(tmp_path / "robot.json", traj)

    def test_written_hand16_plan_is_written_as_json_dumps(self, tmp_path, hand16, rng):
        lo, hi = hand16.limit_arrays()
        traj = RobotTrajectory(frames=[
            RobotTrajectoryFrame(k, RigidTransform(Rotation(rng.normal(size=4)),
                                                   rng.normal(size=3)), rng.uniform(lo, hi))
            for k in range(5)
        ], model=hand16)
        self.assert_written_as_json_dumps(tmp_path / "robot.json", traj)

    def test_missing_frames_key_is_a_parse_error(self, tmp_path, hand16):
        # a plan without its frames list is no plan of 0 frames
        path, doc = self.written_doc(tmp_path, hand16)
        del doc["frames"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataParseError, match="'frames' list"):
            dataio.read_robot_trajectory(path, hand16)

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
                      "outer_iters": 4, "inner_iters": 12, "splat_footprint": 5},
            "retarget": {"huber_delta": 0.03, "lambda_smooth": 0.5, "lambda_init": 0.2,
                         "alternations": 2, "max_tip_error": 0.01,
                         "solver": {"grad_tol": 1e-7, "step_tol": 1e-9,
                                    "max_iters": 50}},
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
                cfg.align.splat_footprint) == (0.5, 0.2, 12, 5)
        assert (cfg.retarget.huber_delta, cfg.retarget.lambda_init,
                cfg.retarget.alternations, cfg.retarget.max_tip_error) == (0.03, 0.2, 2, 0.01)
        solver = cfg.retarget.solver
        assert (solver.grad_tol, solver.step_tol, solver.max_iters) == (1e-7, 1e-9, 50)

    # the two finite-difference steps no solve read any more
    RETIRED = [({"align": {"fd_eps": 5e-8}}, "config.align"),
               ({"retarget": {"solver": {"fd_eps": 1e-6}}}, "config.retarget.solver")]

    @pytest.mark.parametrize("extra, where", RETIRED, ids=["align", "retarget.solver"])
    def test_retired_fd_eps_is_an_unknown_key(self, tmp_path, extra, where):
        path = self.write_minimal(tmp_path, extra=extra)
        with pytest.raises(ConfigError) as err:
            dataio.load_config(path)
        assert str(err.value) == f"{where}: unknown keys ['fd_eps']"

    @pytest.mark.parametrize("extra, where", RETIRED, ids=["align", "retarget.solver"])
    def test_retired_fd_eps_lenient_warns(self, tmp_path, extra, where):
        path = self.write_minimal(tmp_path, extra=extra)
        cfg, warnings = dataio.load_config(path, lenient=True)
        assert warnings == [f"{where}: unknown keys ['fd_eps']"]
        assert cfg.align == AlignConfig() and cfg.retarget.solver == SolverOptions()

    def test_config_section_must_be_an_object(self, tmp_path):
        path = self.write_minimal(tmp_path, extra={"align": ["fd_eps"]})
        for lenient in (False, True):
            with pytest.raises(ConfigError, match="config.align must be a JSON object"):
                dataio.load_config(path, lenient=lenient)

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
