"""Readers and writers for the on-disk formats plus the pipeline
configuration schema.

All files use meters and radians; quaternions are stored (w, x, y, z).
Formats: hand trajectory JSON, robot trajectory JSON, ASCII PLY clouds,
PFM depth maps, PGM (P2) masks, intrinsics JSON, pipeline config JSON.
See FORMATS.md for the full reference.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .alignment import AlignConfig
from .errors import ConfigError, DataParseError, FormatError, InvalidArgumentError
from .geometry import CameraIntrinsics, DepthImage, RigidTransform, Rotation
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
# a PGM body holds unsigned decimal pixel values between ASCII whitespace;
# with nothing else in it, numpy's text parser reads every token
_PGM_BODY_JUNK = re.compile(r"[^0-9 \t\n\r\v\f]")


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc})") from exc


def _load_json(path):
    try:
        doc = json.loads(_read_text(path))
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
    try:
        quat = np.asarray(obj["quat_wxyz"], dtype=float)
        pos = np.asarray(obj["pos"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataParseError(f"{where}: pose is not numeric: {exc}", location=where) from exc
    if quat.shape != (4,):
        raise DataParseError(f"{where}: quaternion must have 4 components", location=where)
    if pos.shape != (3,):
        raise DataParseError(f"{where}: position must have 3 components", location=where)
    norm = float(np.linalg.norm(quat))
    if abs(norm - 1.0) > _QUAT_UNIT_TOL:
        raise DataParseError(
            f"{where}: quaternion norm {norm:.8f} is not unit within {_QUAT_UNIT_TOL}",
            location=where,
        )
    return RigidTransform(Rotation(quat), pos)


def _pose_dict(pose: RigidTransform) -> dict:
    return {
        "quat_wxyz": [float(v) for v in pose.rotation.quat],
        "pos": [float(v) for v in pose.translation],
    }


def read_hand_trajectory(path) -> HandTrajectory:
    """Parse the hand trajectory JSON schema; raises DataParseError naming
    the offending frame and field."""
    doc = _load_json(path)
    if "frames" not in doc or not isinstance(doc["frames"], list):
        raise DataParseError("document must be an object with a 'frames' list")
    try:
        fps = float(doc.get("fps", 30.0))
    except (TypeError, ValueError) as exc:
        raise DataParseError(f"fps is not a number: {exc}", location="fps") from exc
    frames = []
    for k, fr in enumerate(doc["frames"]):
        where = f"frame {k}"
        if not isinstance(fr, dict):
            raise DataParseError(f"{where}: must be an object", location=where)
        for key in ("index", "wrist", "joints"):
            if key not in fr:
                raise DataParseError(f"{where}: missing field {key!r}", location=where)
        wrist = _parse_pose(fr["wrist"], f"{where}: wrist")
        try:
            frame = HandFrame(
                joints=fr["joints"],
                wrist_pose=wrist,
                confidence=float(fr.get("confidence", 1.0)),
                frame_index=int(fr["index"]),
                contacts=fr.get("contacts"),
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

def write_robot_trajectory(traj: RobotTrajectory, path) -> None:
    doc = {
        "joint_names": list(traj.model.actuated_order),
        "frames": [
            {
                "index": fr.frame_index,
                "wrist": _pose_dict(fr.wrist_pose),
                "q": [float(v) for v in fr.q],
            }
            for fr in traj.frames
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_robot_trajectory(path, model) -> RobotTrajectory:
    doc = _load_json(path)
    if doc.get("joint_names") != list(model.actuated_order):
        raise DataParseError("joint_names do not match the model's actuated order")
    frames = []
    for k, fr in enumerate(doc.get("frames", [])):
        where = f"frame {k}"
        if "q" not in fr or "wrist" not in fr or "index" not in fr:
            raise DataParseError(f"{where}: missing field", location=where)
        frames.append(RobotTrajectoryFrame(
            frame_index=int(fr["index"]),
            wrist_pose=_parse_pose(fr["wrist"], f"{where}: wrist"),
            q=np.asarray(fr["q"], dtype=float),
        ))
    return RobotTrajectory(frames=frames, model=model)


# ---------------------------------------------------------------------------
# ASCII PLY

def read_ply(path) -> PointCloud:
    """Read an ASCII PLY with x y z and optional nx ny nz properties."""
    lines = _read_text(path).splitlines()
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
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
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
    """Read a grayscale PFM; non-positive or NaN pixels become invalid."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        raise DataParseError("PFM header truncated")
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
    if scale == 0:
        raise DataParseError("PFM scale must be non-zero")
    endian = "<" if scale < 0 else ">"
    payload = parts[3]
    need = w * h * 4
    if len(payload) < need:
        raise DataParseError(f"PFM payload truncated: need {need} bytes, have {len(payload)}")
    data = np.frombuffer(payload[:need], dtype=endian + "f4").reshape(h, w)
    return DepthImage(values=np.flipud(data).astype(float))  # PFM rows are bottom-to-top


def write_pfm_depth(img: DepthImage, path) -> None:
    """Write a little-endian grayscale PFM; invalid pixels are NaN."""
    values = np.where(img.valid, img.values, np.nan).astype(np.float32)
    header = f"Pf\n{img.width} {img.height}\n-1.0\n".encode("ascii")
    Path(path).write_bytes(header + np.flipud(values).astype("<f4").tobytes())


# ---------------------------------------------------------------------------
# PGM masks (P2, maxval 1)

def read_pgm_mask(path) -> np.ndarray:
    parts = _read_text(path).split(maxsplit=4)
    if not parts or parts[0] != "P2":
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
    doc = _load_json(path)
    try:
        return CameraIntrinsics(
            fx=float(doc["fx"]), fy=float(doc["fy"]),
            cx=float(doc["cx"]), cy=float(doc["cy"]),
            width=int(doc["width"]), height=int(doc["height"]),
        )
    except KeyError as exc:
        raise DataParseError(f"intrinsics missing field {exc}", location=str(path)) from exc
    except (TypeError, ValueError) as exc:
        raise DataParseError(f"invalid intrinsics value: {exc}", location=str(path)) from exc


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


def _check_keys(obj: dict, allowed: set, where: str, lenient: bool, warnings: list):
    unknown = set(obj) - allowed
    if unknown:
        msg = f"{where}: unknown keys {sorted(unknown)}"
        if lenient:
            warnings.append(msg)
        else:
            raise ConfigError(msg)


def load_config(path, lenient: bool = False):
    """Load and validate a pipeline configuration.

    Relative paths are resolved against the config file's directory; all
    referenced files must exist. Unknown keys are an error unless
    ``lenient``. Returns (config, warnings).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not a text file: {exc}") from exc
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

    def resolve(p, must_exist=True, is_dir=False):
        target = (base / p).resolve() if not Path(p).is_absolute() else Path(p)
        if must_exist:
            if is_dir and not target.is_dir():
                raise ConfigError(f"directory does not exist: {target}")
            if not is_dir and not target.is_file():
                raise ConfigError(f"file does not exist: {target}")
        return target

    taxonomy = TaxonomyClass.from_name(str(doc["taxonomy"]))
    try:
        mapping = FingerMapping({str(k): str(v) for k, v in doc["finger_mapping"].items()})
    except (AttributeError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid finger_mapping: {exc}") from exc

    table = TaxonomyWeightTable.default()
    if "weight_table" in doc:
        table_path = resolve(doc["weight_table"])
        try:
            table = TaxonomyWeightTable.from_json(table_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"weight table is not valid JSON: {exc}") from exc

    align_doc = doc.get("align", {})
    _check_keys(align_doc, _ALIGN_KEYS, "config.align", lenient, warnings)
    try:
        align = AlignConfig(**align_doc)
    except (TypeError, InvalidArgumentError) as exc:
        raise ConfigError(f"invalid align config: {exc}") from exc

    retarget_doc = dict(doc.get("retarget", {}))
    _check_keys(retarget_doc, _RETARGET_KEYS, "config.retarget", lenient, warnings)
    solver_doc = retarget_doc.pop("solver", {})
    _check_keys(solver_doc, _SOLVER_KEYS, "config.retarget.solver", lenient, warnings)
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
            proximal = {str(k): str(v) for k, v in proximal.items()}
        except AttributeError as exc:
            raise ConfigError(f"invalid proximal_links: {exc}") from exc
        for digit in proximal:
            if digit not in DIGITS:
                raise ConfigError(f"proximal_links: unknown digit {digit!r}")

    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed must be an integer: {exc}") from exc

    cfg = PipelineConfig(
        urdf=resolve(doc["urdf"]),
        hand_trajectory=resolve(doc["hand_trajectory"]),
        observations_dir=resolve(doc["observations_dir"], is_dir=True),
        output_dir=(base / doc["output_dir"]).resolve()
        if not Path(doc["output_dir"]).is_absolute() else Path(doc["output_dir"]),
        taxonomy=taxonomy,
        finger_mapping=mapping,
        palm_link=doc.get("palm_link"),
        proximal_links=proximal,
        object_cloud_true=resolve(doc["object_cloud_true"]) if "object_cloud_true" in doc else None,
        object_cloud_pred=resolve(doc["object_cloud_pred"]) if "object_cloud_pred" in doc else None,
        weight_table=table,
        align=align,
        retarget=retarget,
        calibrate_scale=bool(doc.get("calibrate_scale", True)),
        seed=seed,
    )
    return cfg, warnings
