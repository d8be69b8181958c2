"""Readers and writers for the on-disk formats plus the pipeline
configuration schema.

All files use meters and radians; quaternions are stored (w, x, y, z).
Formats: hand trajectory JSON, robot trajectory JSON, ASCII PLY clouds,
PFM depth maps, PGM (P2) masks, intrinsics JSON, pipeline config JSON.
See FORMATS.md for the full reference.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .alignment import AlignConfig
from .errors import ConfigError, DataParseError, FormatError, InvalidArgumentError
from .geometry import CameraIntrinsics, DepthImage, RigidTransform, Rotation, vector_norm
from .hand_model import (
    DIGITS,
    FingerMapping,
    HandFrame,
    HandTrajectory,
    TaxonomyClass,
    TaxonomyWeightTable,
)
from .pointcloud import PointCloud
from .retarget import RetargetConfig, RobotTrajectory, RobotTrajectoryFrame
from .solver import SolverOptions

_QUAT_UNIT_TOL = 1e-6
# the Python types json.loads gives a JSON number
_JSON_NUMBER_TYPES = frozenset((int, float))
# below this norm a vector's sum of squares is subnormal or zero
_SHORTEST_EXACT_NORM = float(np.sqrt(np.finfo(float).tiny))
# where str.splitlines ends a line: the PLY header's line breaks
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a PLY vertex row holds ASCII decimals and nan/inf/infinity spellings
# between runs of spaces and tabs, and ends in \n or \r\n; a body with
# nothing else in it reads the same bits through numpy's text parser as
# through float() token by token
_PLY_ROW_BLANKS = " \t\r\n"
_PLY_ROW_CHARS = "+-.0123456789EeAaFfIiNnTtYy" + _PLY_ROW_BLANKS
_PLY_ROW_BYTES = _PLY_ROW_CHARS.encode()
_PLY_ROW_JUNK = re.compile(f"[^{re.escape(_PLY_ROW_CHARS)}]|\r(?!\n)")
# PGM tokens lie between runs of ASCII whitespace; a body holds unsigned
# decimal pixel values, and with nothing else in it numpy's text parser
# reads every token
_PGM_WHITESPACE = " \t\n\r\v\f"
_PGM_SEPARATOR = re.compile(f"[{_PGM_WHITESPACE}]+")
_PGM_BODY_JUNK = re.compile(f"[^0-9{_PGM_WHITESPACE}]")
# the header write_pgm_mask writes, with at most nine digits a number so that
# int() cannot fail on it
_PGM_WRITER_HEADER = re.compile(rb"P2\n([0-9]{1,9}) ([0-9]{1,9})\n([0-9]{1,9})\n")
# a writer pixel and its separator read as one little-endian 16-bit word:
# the low byte is b"0" or b"1", the high byte b" " or b"\n"
_PGM_WRITER_WORDS = (ord("0") | ord(" ") << 8, ord("0") | ord("\n") << 8)


def _decode_text(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc})") from exc


def read_text(path) -> str:
    """The file decoded as UTF-8; other bytes are a FormatError."""
    return _decode_text(Path(path).read_bytes(), path)


def _load_json(path):
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataParseError(f"invalid JSON: {exc}", location=str(path)) from exc
    if not isinstance(doc, dict):
        raise DataParseError("document root must be a JSON object",
                             location=str(path))
    return doc


# ---------------------------------------------------------------------------
# hand trajectory JSON

def _parse_pose(obj, where: str) -> RigidTransform:
    if not isinstance(obj, dict) or "quat_wxyz" not in obj or "pos" not in obj:
        raise DataParseError(f"{where}: pose needs 'quat_wxyz' and 'pos'", location=where)
    quat = _json_array(obj["quat_wxyz"], f"{where}: quaternion", where)
    pos = _json_array(obj["pos"], f"{where}: position", where)
    if quat.shape != (4,):
        raise DataParseError(f"{where}: quaternion must have 4 components", location=where)
    if pos.shape != (3,):
        raise DataParseError(f"{where}: position must have 3 components", location=where)
    norm = vector_norm(quat)
    if not abs(norm - 1.0) <= _QUAT_UNIT_TOL:  # NaN and inf fail too
        raise DataParseError(
            f"{where}: quaternion norm {norm:.8f} is not unit within {_QUAT_UNIT_TOL}",
            location=where,
        )
    # a norm this close to 1 is finite and leaves Rotation's checks nothing to reject
    return RigidTransform(Rotation._unit(quat), pos)


def _pose_dict(pose: RigidTransform) -> dict:
    return {
        "quat_wxyz": [float(v) for v in pose.rotation.quat],
        "pos": [float(v) for v in pose.translation],
    }


def _json_number(value, what: str, where: str) -> float:
    """A JSON number as a float; JSON types, not Python conversions: true is
    no number, nor "0.5"."""
    if type(value) not in _JSON_NUMBER_TYPES:
        raise DataParseError(f"{what} must be a number, got {value!r}", location=where)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return np.inf


def _json_array(value, what: str, where: str) -> np.ndarray:
    """A regular JSON array of numbers, nested to any depth, as floats.
    Every element must be of _json_number's JSON types, checked in one pass
    over the elements. An integer beyond the float range is an error, not
    inf as in _json_number: no pose, joint, contact or q can hold it."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataParseError(f"{what} is not an array of numbers: {exc}",
                             location=where) from exc

    def elements():
        flat = [value] if arr.ndim == 0 else value
        for _ in range(arr.ndim - 1):
            flat = chain.from_iterable(flat)
        return flat

    # np.asarray reads "0.5" and true as numbers; JSON does not
    if not _JSON_NUMBER_TYPES.issuperset(map(type, elements())):
        bad = next(v for v in elements() if type(v) not in _JSON_NUMBER_TYPES)
        raise DataParseError(f"{what} must hold numbers, got {bad!r}", location=where)
    return arr


def _frame_objects(frames):
    """(where, frame) for each frame of a trajectory document's 'frames'
    value: a list, checked at the call, of JSON objects, each checked when
    the iteration reaches it."""
    if not isinstance(frames, list):
        raise DataParseError("document must be an object with a 'frames' list")

    def objects():
        for k, fr in enumerate(frames):
            where = f"frame {k}"
            if not isinstance(fr, dict):
                raise DataParseError(f"{where}: must be an object", location=where)
            yield where, fr
    return objects()


# the JSON type of each Python type json.loads gives other than str and
# None (null); bool before int, its base class
_JSON_TYPES = ((bool, "boolean"), ((int, float), "number"), (list, "array"), (dict, "object"))


def _json_string(value, what: str) -> str:
    """A JSON string; JSON types, not Python conversions: ["a"] is no link
    name, nor 5. The error names the JSON type that was given."""
    if not isinstance(value, str):
        kind = next((name for types, name in _JSON_TYPES if isinstance(value, types)), "null")
        raise ConfigError(f"{what} must be a string, got a JSON {kind}: {value!r}")
    return value


def _json_int(value, what: str, where: str) -> int:
    """A non-negative JSON integer, not a string, float or boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataParseError(f"{what} must be an integer, got {value!r}", location=where)
    if value < 0:
        raise DataParseError(f"{what} must be non-negative, got {value}", location=where)
    return value


def read_hand_trajectory(path) -> HandTrajectory:
    """Parse the hand trajectory JSON schema; raises DataParseError naming
    the offending frame and field."""
    doc = _load_json(path)
    frame_objects = _frame_objects(doc.get("frames"))
    fps = _json_number(doc.get("fps", 30.0), "fps", "fps")
    frames = []
    for where, fr in frame_objects:
        for key in ("index", "wrist", "joints"):
            if key not in fr:
                raise DataParseError(f"{where}: missing field {key!r}", location=where)
        wrist = _parse_pose(fr["wrist"], f"{where}: wrist")
        index = _json_int(fr["index"], f"{where}: index", where)
        confidence = _json_number(fr.get("confidence", 1.0), f"{where}: confidence", where)
        joints = _json_array(fr["joints"], f"{where}: joints", where)
        contacts = fr.get("contacts")
        if isinstance(contacts, dict):
            contacts = {d: _json_array(p, f"{where}: contact {d!r}", where)
                        for d, p in contacts.items()}
        try:
            frame = HandFrame(
                joints=joints,
                wrist_pose=wrist,
                confidence=confidence,
                frame_index=index,
                contacts=contacts,
            )
        except (TypeError, ValueError) as exc:
            raise DataParseError(f"{where}: {exc}", location=where) from exc
        if frames and frame.frame_index <= frames[-1].frame_index:
            raise DataParseError(
                f"{where}: index {frame.frame_index} not strictly increasing", location=where
            )
        frames.append(frame)
    return HandTrajectory(frames=frames, fps=fps)


def write_hand_trajectory(traj: HandTrajectory, path) -> None:
    doc = {"fps": traj.fps, "frames": []}
    for fr in traj.frames:
        entry = {
            "index": fr.frame_index,
            "wrist": _pose_dict(fr.wrist_pose),
            "joints": [[float(v) for v in row] for row in fr.joints],
            "confidence": fr.confidence,
        }
        if fr.contacts is not None:
            entry["contacts"] = {d: [float(v) for v in p] for d, p in fr.contacts.items()}
        doc["frames"].append(entry)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# robot trajectory JSON

def _indented(open_: str, close: str, items: list, depth: int) -> str:
    """Encoded items laid out as json.dumps(indent=1) lays out a list or an
    object at nesting depth ``depth``."""
    if not items:
        return open_ + close
    pad = "\n" + " " * (depth + 1)
    return open_ + pad + ("," + pad).join(items) + "\n" + " " * depth + close


def _json_floats(values, depth: int) -> str:
    """A list of floats as json.dumps(indent=1) writes it at ``depth``."""
    spelled = map(float.__repr__, np.asarray(values, dtype=float).tolist())
    text = _indented("[", "]", list(spelled), depth)
    # float.__repr__ spells no finite float with an "n"; json spells nan and
    # inf its own way
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def write_robot_trajectory(traj: RobotTrajectory, path) -> None:
    """Write the plan with the bytes json.dumps(doc, indent=1,
    sort_keys=True) + "\n" gives, without the pure-Python encoder json runs
    whenever ``indent`` is set. The schema is fixed, so the keys are laid
    out here in sorted order; numbers are spelled by int.__repr__ and
    float.__repr__, as json spells them, and joint names by json.dumps."""
    frames = [_indented("{", "}", [
        '"index": ' + int.__repr__(fr.frame_index),
        '"q": ' + _json_floats(fr.q, 3),
        '"wrist": ' + _indented("{", "}", [
            '"pos": ' + _json_floats(fr.wrist_pose.translation, 4),
            '"quat_wxyz": ' + _json_floats(fr.wrist_pose.rotation.quat, 4),
        ], 3),
    ], 2) for fr in traj.frames]
    names = [json.dumps(name) for name in traj.model.actuated_order]
    Path(path).write_text(_indented("{", "}", [
        '"frames": ' + _indented("[", "]", frames, 1),
        '"joint_names": ' + _indented("[", "]", names, 1),
    ], 0) + "\n")


def read_robot_trajectory(path, model) -> RobotTrajectory:
    doc = _load_json(path)
    if doc.get("joint_names") != list(model.actuated_order):
        raise DataParseError("joint_names do not match the model's actuated order")
    frames = []
    for where, fr in _frame_objects(doc.get("frames")):
        if "q" not in fr or "wrist" not in fr or "index" not in fr:
            raise DataParseError(f"{where}: missing field", location=where)
        frames.append(RobotTrajectoryFrame(
            frame_index=_json_int(fr["index"], f"{where}: index", where),
            wrist_pose=_parse_pose(fr["wrist"], f"{where}: wrist"),
            q=_json_array(fr["q"], f"{where}: q", where),
        ))
    return RobotTrajectory(frames=frames, model=model)


# ---------------------------------------------------------------------------
# ASCII PLY

def _lines(text: str):
    """(line, offset just past its line break) for each line of ``text``,
    split where ``str.splitlines`` splits, walked lazily."""
    start = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[start:brk.start()], brk.end()
        start = brk.end()
    if start < len(text):
        yield text[start:], len(text)


def read_ply(path) -> PointCloud:
    """Read an ASCII PLY with x y z and optional nx ny nz properties.

    The header is walked line by line; the vertex rows after it must keep
    to the row grammar in FORMATS.md and go to numpy's text parser in one
    call."""
    text = read_text(path)
    lines = _lines(text)
    first = next(lines, None)
    if first is None or first[0].strip() != "ply":
        raise FormatError("not a PLY file (missing 'ply' magic)")
    n_vertex = None
    props = []
    in_vertex = False
    body_start = None
    for lineno, (raw, end) in enumerate(lines, start=2):
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
            if tokens[2] in props:
                raise DataParseError(f"PLY vertex property {tokens[2]!r} is named twice",
                                     location=f"line {lineno}")
            props.append(tokens[2])
        elif tokens[0] == "end_header":
            body_start = end
            break
    if body_start is None or n_vertex is None:
        raise DataParseError("PLY header missing end_header or vertex element")
    for coord in ("x", "y", "z"):
        if coord not in props:
            raise FormatError(f"PLY vertex element missing property {coord!r}")
    has_normals = all(p in props for p in ("nx", "ny", "nz"))
    col = {p: i for i, p in enumerate(props)}

    body = text[body_start:]
    if not (body.isascii() and not body.encode().translate(None, _PLY_ROW_BYTES)
            and ("\r" not in body or body.count("\r") == body.count("\r\n"))):
        junk = _PLY_ROW_JUNK.search(body)
        at = lineno + 1 + body.count("\n", 0, junk.start())
        raise DataParseError(
            f"PLY vertex data holds {junk.group()!r}, outside the row grammar",
            location=f"line {at}")
    if body.strip(_PLY_ROW_BLANKS):
        try:
            data = np.loadtxt(io.StringIO(body), dtype=float, comments=None, ndmin=2)
        except ValueError as exc:
            raise DataParseError(f"PLY vertex data does not parse: {exc}") from exc
    else:  # no row, and no call for numpy to warn that it read no data
        data = np.zeros((0, len(props)))
    if len(data) != n_vertex:
        raise DataParseError(
            f"PLY element count mismatch: header says {n_vertex}, file has {len(data)}"
        )
    if data.shape[1] != len(props):
        raise DataParseError(
            f"PLY row width {data.shape[1]} does not match {len(props)} properties"
        )
    pts = data[:, [col["x"], col["y"], col["z"]]]
    normals = None
    if has_normals and n_vertex:
        normals = data[:, [col["nx"], col["ny"], col["nz"]]]
        finite = np.isfinite(normals).all(axis=1)
        if not finite.all():
            raise DataParseError(f"PLY vertex {int(np.argmin(finite))} has a non-finite normal")
        with np.errstate(over="ignore"):  # a component above ~1.3e154 squares to inf
            norms = np.linalg.norm(normals, axis=1, keepdims=True)
        # a norm that overflows, or whose sum of squares underflows below
        # float64's normal range, loses the direction: such a row, unless it
        # is all zero, is first divided by its largest |component|
        off_range = np.flatnonzero(~np.isfinite(norms[:, 0])
                                   | (norms[:, 0] < _SHORTEST_EXACT_NORM))
        off_range = off_range[normals[off_range].any(axis=1)]
        if off_range.size:
            # only these rows are rescaled, so every other normal keeps its bits
            normals[off_range] /= np.abs(normals[off_range]).max(axis=1, keepdims=True)
            norms[off_range] = np.linalg.norm(normals[off_range], axis=1, keepdims=True)
        normals = normals / np.maximum(norms, 1e-300)
    return PointCloud(points=pts, normals=normals)


def write_ply(cloud: PointCloud, path) -> None:
    """Write an ASCII PLY at 9 significant digits."""
    n = len(cloud)
    header = ["ply", "format ascii 1.0", f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    if cloud.normals is not None:
        header += ["property float nx", "property float ny", "property float nz"]
    header.append("end_header")
    rows = []
    for i in range(n):
        vals = list(cloud.points[i])
        if cloud.normals is not None:
            vals += list(cloud.normals[i])
        rows.append(" ".join(f"{v:.9g}" for v in vals))
    Path(path).write_text("\n".join(header + rows) + "\n")


# ---------------------------------------------------------------------------
# PFM depth

def read_pfm_depth(path) -> DepthImage:
    """Read a grayscale PFM; non-finite or non-positive pixels become invalid."""
    raw = Path(path).read_bytes()
    # the header is three lines; the payload after them is not copied
    end = -1
    for _ in range(3):
        end = raw.find(b"\n", end + 1)
        if end < 0:
            raise DataParseError("PFM header truncated")
    parts = raw[:end].split(b"\n")
    magic = parts[0].strip()
    if magic == b"PF":
        raise FormatError("color PFM is not supported (grayscale 'Pf' only)")
    if magic != b"Pf":
        raise FormatError(f"not a PFM file (magic {magic!r})")
    try:
        w, h = (int(t) for t in parts[1].decode("ascii").split())
        scale = float(parts[2].decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataParseError(f"PFM header is not numeric: {exc}") from exc
    if w <= 0 or h <= 0:
        raise DataParseError(f"PFM dimensions must be positive, got {w} x {h}")
    if scale == 0 or not np.isfinite(scale):
        raise DataParseError(f"PFM scale must be finite and non-zero, got {scale}")
    endian = "<" if scale < 0 else ">"
    need, have = w * h * 4, len(raw) - end - 1
    if have < need:
        raise DataParseError(f"PFM payload truncated: need {need} bytes, have {have}")
    data = np.frombuffer(raw, dtype=endian + "f4", count=w * h, offset=end + 1).reshape(h, w)
    # PFM rows are bottom-to-top; only the valid pixels' window is converted
    return DepthImage.from_window((h, w), (0, 0), np.flipud(data))


def write_pfm_depth(img: DepthImage, path) -> None:
    """Write a little-endian grayscale PFM; invalid pixels are NaN."""
    values = np.where(img.valid, img.values, np.nan).astype(np.float32)
    header = f"Pf\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    Path(path).write_bytes(header + np.flipud(values).astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# PGM masks (P2)

def read_pgm_mask(path) -> np.ndarray:
    """Read a P2 mask as an (h, w) bool array; nonzero pixels are True.

    The file is read once. What ``write_pgm_mask`` writes (one ``0``/``1``
    byte per pixel, each followed by one space or newline) is checked and
    converted over its bytes; any other layout goes through the token
    parser, which returns the same array or raises the same error.
    """
    raw = Path(path).read_bytes()
    head = _PGM_WRITER_HEADER.match(raw)
    if head is not None:
        w, h, maxval = (int(t) for t in head.groups())
        if w > 0 and h > 0 and maxval >= 1 and len(raw) - head.end() == 2 * w * h:
            words = np.frombuffer(raw, dtype="<u2", offset=head.end())
            as_zero = words & 0xFFFE  # clearing bit 0 turns b"1" into b"0"
            ok = as_zero == _PGM_WRITER_WORDS[0]
            ok |= as_zero == _PGM_WRITER_WORDS[1]
            if ok.all():
                # a pixel is b"1" exactly where clearing bit 0 changed its word
                return np.not_equal(words, as_zero, out=ok).reshape(h, w)
    return _parse_pgm_text(_decode_text(raw, path))


def _parse_pgm_text(text: str) -> np.ndarray:
    parts = _PGM_SEPARATOR.split(text.strip(_PGM_WHITESPACE), maxsplit=4)
    if parts[0] != "P2":
        raise FormatError("mask must be an ASCII PGM (P2)")
    try:
        w, h, maxval = int(parts[1]), int(parts[2]), int(parts[3])
    except (ValueError, IndexError) as exc:
        raise DataParseError(f"PGM header is not numeric: {exc}") from exc
    body = parts[4] if len(parts) == 5 else ""
    junk = _PGM_BODY_JUNK.search(body)
    if junk is not None:
        raise DataParseError(f"PGM pixel data is not unsigned decimal: {junk.group()!r}")
    vals = np.fromstring(body, dtype=np.int64, sep=" ")
    if w <= 0 or h <= 0:
        raise DataParseError(f"PGM dimensions must be positive, got {w} x {h}")
    if maxval < 1:
        raise DataParseError(f"PGM maxval must be at least 1, got {maxval}")
    if vals.size != w * h:
        raise DataParseError(f"PGM pixel count mismatch: {vals.size} vs {w * h}")
    return (vals.reshape(h, w) > 0)


def write_pgm_mask(mask: np.ndarray, path) -> None:
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    body = "\n".join(" ".join("1" if v else "0" for v in row) for row in m)
    Path(path).write_text(f"P2\n{w} {h}\n1\n{body}\n")


# ---------------------------------------------------------------------------
# intrinsics JSON

def read_intrinsics(path) -> CameraIntrinsics:
    """Read intrinsics: fx, fy, cx and cy are JSON numbers, width and
    height JSON integers; JSON types, not Python conversions."""
    doc = _load_json(path)
    where = str(path)
    try:
        return CameraIntrinsics(
            **{k: _json_number(doc[k], k, where) for k in ("fx", "fy", "cx", "cy")},
            **{k: _json_int(doc[k], k, where) for k in ("width", "height")})
    except KeyError as exc:
        raise DataParseError(f"intrinsics missing field {exc}", location=where) from exc


def write_intrinsics(k: CameraIntrinsics, path) -> None:
    Path(path).write_text(json.dumps({
        "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
        "width": k.width, "height": k.height,
    }, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline configuration

@dataclass
class PipelineConfig:
    urdf: Path
    hand_trajectory: Path
    observations_dir: Path
    output_dir: Path
    taxonomy: TaxonomyClass
    finger_mapping: FingerMapping
    palm_link: Optional[str] = None            # default: URDF root link
    proximal_links: Optional[Dict[str, str]] = None
    object_cloud_true: Optional[Path] = None
    object_cloud_pred: Optional[Path] = None
    weight_table: TaxonomyWeightTable = field(default_factory=TaxonomyWeightTable.default)
    align: AlignConfig = field(default_factory=AlignConfig)
    retarget: RetargetConfig = field(default_factory=RetargetConfig)
    calibrate_scale: bool = True
    seed: int = 0


# mount_offset is a top-level key that fills RetargetConfig.mount_offset;
# RetargetConfig's scale and weights are computed per run, never configured
_TOP_LEVEL_KEYS = {f.name for f in fields(PipelineConfig)} | {"mount_offset"}
_ALIGN_KEYS = {f.name for f in fields(AlignConfig)}
_RETARGET_KEYS = {f.name for f in fields(RetargetConfig)} - {"scale", "weights",
                                                             "mount_offset"}
_SOLVER_KEYS = {f.name for f in fields(SolverOptions)}


def _check_keys(obj, allowed: set, where: str, lenient: bool, warnings: list) -> dict:
    """The object's known keys; an unknown key is an error, or a warning
    and dropped when ``lenient``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        msg = f"{where}: unknown keys {sorted(unknown)}"
        if not lenient:
            raise ConfigError(msg)
        warnings.append(msg)
    return {k: v for k, v in obj.items() if k in allowed}


def load_config(path, lenient: bool = False):
    """Load and validate a pipeline configuration.

    Relative paths are resolved against the config file's directory; all
    referenced files must exist. Unknown keys are an error unless
    ``lenient``. Returns (config, warnings).
    """
    path = Path(path)
    try:
        doc = json.loads(read_text(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except FormatError as exc:
        raise ConfigError(f"config is not a text file: {exc.__cause__}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    warnings: list = []
    _check_keys(doc, _TOP_LEVEL_KEYS, "config", lenient, warnings)

    for key in ("urdf", "hand_trajectory", "observations_dir", "output_dir",
                "taxonomy", "finger_mapping"):
        if key not in doc:
            raise ConfigError(f"config missing required field {key!r}")

    base = path.parent

    def resolve(key, must_exist=True, is_dir=False):
        p = doc[key]
        if not isinstance(p, str) or "\0" in p:
            raise ConfigError(f"{key} must be a path string, got {p!r}")
        try:
            os.fsencode(p)
        except UnicodeEncodeError as exc:
            raise ConfigError(f"{key} {p!r} is no file name in the file system's"
                              f" encoding: {exc}") from None
        target = (base / p).resolve() if not Path(p).is_absolute() else Path(p)
        if must_exist:
            if is_dir and not target.is_dir():
                raise ConfigError(f"directory does not exist: {target}")
            if not is_dir and not target.is_file():
                raise ConfigError(f"file does not exist: {target}")
        return target

    # JSON object keys are strings; their values must be strings too
    taxonomy = TaxonomyClass.from_name(_json_string(doc["taxonomy"], "taxonomy"))
    try:
        mapping = FingerMapping({k: _json_string(v, f"finger_mapping.{k}")
                                 for k, v in doc["finger_mapping"].items()})
    except (AttributeError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid finger_mapping: {exc}") from exc

    table = TaxonomyWeightTable.default()
    if "weight_table" in doc:
        table_path = resolve("weight_table")
        try:
            table = TaxonomyWeightTable.from_json(read_text(table_path))
        except FormatError as exc:
            raise ConfigError(f"weight table is not a text file: {exc.__cause__}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"weight table is not valid JSON: {exc}") from exc

    align_doc = _check_keys(doc.get("align", {}), _ALIGN_KEYS, "config.align", lenient,
                            warnings)
    try:
        align = AlignConfig(**align_doc)
    except (TypeError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid align config: {exc}") from exc

    retarget_doc = _check_keys(doc.get("retarget", {}), _RETARGET_KEYS, "config.retarget",
                               lenient, warnings)
    solver_doc = _check_keys(retarget_doc.pop("solver", {}), _SOLVER_KEYS,
                             "config.retarget.solver", lenient, warnings)
    # every value left in the three blocks is numeric; true is no number
    for where, values in (("align", align_doc), ("retarget", retarget_doc),
                          ("retarget.solver", solver_doc)):
        for key, value in values.items():
            if isinstance(value, bool):
                raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    mount = RigidTransform.identity()
    if "mount_offset" in doc:
        try:
            mount = _parse_pose(doc["mount_offset"], "config: mount_offset")
        except DataParseError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        retarget = RetargetConfig(
            solver=SolverOptions(**solver_doc),
            mount_offset=mount,
            **retarget_doc,
        )
    except (TypeError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid retarget config: {exc}") from exc

    proximal = doc.get("proximal_links")
    if proximal is not None:
        try:
            proximal = {k: _json_string(v, f"proximal_links.{k}") for k, v in proximal.items()}
        except AttributeError as exc:
            raise ConfigError(f"invalid proximal_links: {exc}") from exc
        for digit in proximal:
            if digit not in DIGITS:
                raise ConfigError(f"proximal_links: unknown digit {digit!r}")

    # JSON types, not Python conversions: "false" is no boolean, 3.7 no seed
    palm_link = doc.get("palm_link")
    if palm_link is not None:
        _json_string(palm_link, "palm_link")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    calibrate_scale = doc.get("calibrate_scale", True)
    if not isinstance(calibrate_scale, bool):
        raise ConfigError(f"calibrate_scale must be true or false, got {calibrate_scale!r}")
    object_clouds = sorted({"object_cloud_true", "object_cloud_pred"} & set(doc))
    if len(object_clouds) == 1:
        raise ConfigError(f"{object_clouds[0]} given alone: depth calibration needs both"
                          " object_cloud_true and object_cloud_pred")

    cfg = PipelineConfig(
        urdf=resolve("urdf"),
        hand_trajectory=resolve("hand_trajectory"),
        observations_dir=resolve("observations_dir", is_dir=True),
        output_dir=resolve("output_dir", must_exist=False),
        taxonomy=taxonomy,
        finger_mapping=mapping,
        palm_link=palm_link,
        proximal_links=proximal,
        object_cloud_true=resolve("object_cloud_true") if "object_cloud_true" in doc else None,
        object_cloud_pred=resolve("object_cloud_pred") if "object_cloud_pred" in doc else None,
        weight_table=table,
        align=align,
        retarget=retarget,
        calibrate_scale=calibrate_scale,
        seed=seed,
    )
    return cfg, warnings
