"""Parsing and writing of KITTI object labels, calibration and results.

Label lines carry 15 space-delimited fields (16 with a detection score).
Writers use the 2-decimal fixed formatting of the KITTI submission
convention, so parse(write(x)) reproduces every field within 0.005.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Box3D, CameraModel, yaw_to_alpha

__all__ = [
    "FieldCountError",
    "InputError",
    "KittiCalib",
    "KittiLabel",
    "MissingP2Error",
    "NumericParseError",
    "box3d_to_label",
    "label_to_box3d",
    "parse_calib",
    "parse_calib_file",
    "parse_label_file",
    "parse_labels",
    "to_camera_model",
    "write_result_file",
]


class InputError(ValueError):
    """Malformed or missing input, named by file and line where known; the
    command line maps it to exit code 2."""


class FieldCountError(InputError):
    def __init__(self, line_no: int, count: int, source):
        super().__init__(f"{source}, line {line_no}: expected 15 or 16 fields, got {count}")
        self.line_no = line_no


class NumericParseError(InputError):
    def __init__(self, line_no: int, token: str, source):
        super().__init__(f"{source}, line {line_no}: expected a finite number, got {token!r}")
        self.line_no = line_no
        self.token = token


class MissingP2Error(InputError):
    """Calibration text has no P2 line."""


@dataclass
class KittiLabel:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple[float, float, float, float]  # left, top, right, bottom
    dimensions: tuple[float, float, float]  # h, w, l
    location: tuple[float, float, float]  # x, y, z (bottom center)
    rotation_y: float
    score: float | None = None

    @property
    def is_dontcare(self) -> bool:
        return self.type == "DontCare"

    @property
    def bbox_height(self) -> float:
        return self.bbox[3] - self.bbox[1]


@dataclass
class KittiCalib:
    p2: np.ndarray  # 3x4 projection matrix

    def __post_init__(self):
        p2 = np.asarray(self.p2, dtype=float).reshape(3, 4)
        if not np.isfinite(p2).all():
            raise InputError("P2 values must be finite")
        if p2[0, 0] <= 0 or p2[1, 1] <= 0:
            raise InputError("P2 focal lengths must be positive")
        self.p2 = p2


def parse_labels(text: str, source="label text") -> list[KittiLabel]:
    """Parse label/result text; a field that is not a finite number, or a
    line with the wrong field count, raises an error carrying the line
    number, and ``source`` names the file in its message."""
    labels = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) not in (15, 16):
            raise FieldCountError(line_no, len(fields), source)
        vals = []
        for token in fields[1:]:
            try:
                value = float(token)
            except ValueError:
                raise NumericParseError(line_no, token, source) from None
            if not math.isfinite(value):
                raise NumericParseError(line_no, token, source)
            vals.append(value)
        labels.append(
            KittiLabel(
                type=fields[0],
                truncated=vals[0],
                occluded=int(vals[1]),
                alpha=vals[2],
                bbox=(vals[3], vals[4], vals[5], vals[6]),
                dimensions=(vals[7], vals[8], vals[9]),
                location=(vals[10], vals[11], vals[12]),
                rotation_y=vals[13],
                score=vals[14] if len(vals) == 15 else None,
            )
        )
    return labels


def parse_label_file(path) -> list[KittiLabel]:
    return parse_labels(Path(path).read_text(), path)


def format_label(label: KittiLabel, decimals: int = 2) -> str:
    """One label line; results use the KITTI submission's 2 decimals, and the
    synthetic ground truth and priors 6."""
    fmt = f".{decimals}f"
    fields = [
        label.type,
        format(label.truncated, fmt),
        str(int(label.occluded)),
        format(label.alpha, fmt),
        *(format(v, fmt) for v in (*label.bbox, *label.dimensions, *label.location)),
        format(label.rotation_y, fmt),
    ]
    if label.score is not None:
        fields.append(format(label.score, fmt))
    return " ".join(fields)


def write_result_file(labels: list[KittiLabel]) -> str:
    """Serialize labels/results; empty list yields an empty string."""
    if not labels:
        return ""
    return "\n".join(format_label(lb) for lb in labels) + "\n"


def parse_calib(text: str, source="calibration") -> KittiCalib:
    """The P2 matrix of calibration text; ``source`` names the file in errors."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("P2:") or line.startswith("P2 "):
            tokens = line.split()[1:]
            if len(tokens) != 12:
                raise MissingP2Error(
                    f"{source}, line {line_no}: P2 line has {len(tokens)} values, expected 12"
                )
            try:
                return KittiCalib(p2=np.array([float(t) for t in tokens]).reshape(3, 4))
            except ValueError as e:
                raise InputError(f"{source}, line {line_no}: {e}") from None
    raise MissingP2Error(f"{source}: no P2 line found")


def parse_calib_file(path) -> KittiCalib:
    return parse_calib(Path(path).read_text(), path)


def to_camera_model(calib: KittiCalib) -> CameraModel:
    """Split P2 = K [I | t] into pinhole intrinsics and a camera offset."""
    p2 = calib.p2
    fx, fy = p2[0, 0], p2[1, 1]
    cx, cy = p2[0, 2], p2[1, 2]
    tz = p2[2, 3]
    tx = (p2[0, 3] - cx * tz) / fx
    ty = (p2[1, 3] - cy * tz) / fy
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, t_cam=np.array([tx, ty, tz]))


def camera_to_calib(cam: CameraModel) -> KittiCalib:
    k = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    p2 = np.hstack([k, (k @ cam.t_cam).reshape(3, 1)])
    return KittiCalib(p2=p2)


def write_calib(calib: KittiCalib) -> str:
    return "P2: " + " ".join(f"{v:.12e}" for v in calib.p2.reshape(-1)) + "\n"


def label_to_box3d(label: KittiLabel) -> Box3D:
    """KITTI (h, w, l, location, rotation_y) to a Box3D; both are
    bottom-center anchored."""
    return Box3D(dims=np.array(label.dimensions), t=np.array(label.location), yaw=label.rotation_y)


def box3d_to_label(
    box: Box3D,
    category: str = "Car",
    alpha: float | None = None,
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    score: float | None = None,
) -> KittiLabel:
    if alpha is None:
        alpha = yaw_to_alpha(box.yaw, box.t)
    return KittiLabel(
        type=category,
        truncated=0.0,
        occluded=0,
        alpha=alpha,
        bbox=bbox,
        dimensions=(box.h, box.w, box.l),
        location=tuple(box.t),
        rotation_y=box.yaw,
        score=score,
    )
