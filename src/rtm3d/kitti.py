"""Parsing and writing of KITTI object labels, calibration and results.

Label lines carry 15 space-delimited fields (16 with a detection score).
Writers use the 2-decimal fixed formatting of the KITTI submission
convention, so parse(write(x)) reproduces every field within 0.005.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "camera_to_calib",
    "car_lines",
    "format_label",
    "label_to_box3d",
    "parse_calib",
    "parse_calib_file",
    "parse_label_file",
    "parse_label_values",
    "parse_labels",
    "to_camera_model",
    "write_calib",
    "write_result_file",
]

# The one object class: rtm3d synth and solve write it, and evaluation scores it.
CATEGORY = "Car"


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
    # "<file>, line <n>" for a parsed label, named in errors about its values.
    origin: str | None = field(default=None, compare=False)

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
        # to_camera_model reads P2 as K [I | t], the rectified form KITTI writes.
        if p2[0, 1] or p2[1, 0] or p2[2, 0] or p2[2, 1] or p2[2, 2] != 1:
            raise InputError("P2 must be K [I | t]: entries (0, 1), (1, 0), (2, 0), (2, 1) = 0, (2, 2) = 1")
        self.p2 = p2


def _is_finite_number(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def parse_label_values(text: str, source="label text") -> list[tuple[int, str, list[float]]]:
    """(line number, type, the 14 or 15 numeric fields) of each label line;
    a field that is not a finite number, or a line with the wrong field
    count, raises an error carrying the line number, and ``source`` names
    the file in its message."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) not in (15, 16):
            raise FieldCountError(line_no, len(fields), source)
        try:
            vals = list(map(float, fields[1:]))
            finite = all(map(math.isfinite, vals))
        except ValueError:
            finite = False
        if not finite:
            token = next(t for t in fields[1:] if not _is_finite_number(t))
            raise NumericParseError(line_no, token, source)
        rows.append((line_no, fields[0], vals))
    return rows


def parse_labels(text: str, source="label text") -> list[KittiLabel]:
    """Parse label/result text, checked as :func:`parse_label_values` checks it."""
    return [
        KittiLabel(
            type=kind,
            truncated=v[0],
            occluded=int(v[1]),
            alpha=v[2],
            bbox=tuple(v[3:7]),
            dimensions=tuple(v[7:10]),
            location=tuple(v[10:13]),
            rotation_y=v[13],
            score=v[14] if len(v) == 15 else None,
            origin=f"{source}, line {line_no}",
        )
        for line_no, kind, v in parse_label_values(text, source)
    ]


def parse_label_file(path) -> list[KittiLabel]:
    return parse_labels(Path(path).read_text(), path)


def _label_format(decimals: int) -> str:
    """printf template of a label line's fields after its type, up to the
    score: truncated, occluded, alpha, bbox, dimensions, location and
    rotation_y."""
    f = f"%.{decimals}f"
    return " ".join([f, "%d"] + [f] * 12)


def format_label(label: KittiLabel) -> str:
    """One label line, at the KITTI submission's 2 decimals."""
    line = f"{label.type} " + _label_format(2) % (
        label.truncated, int(label.occluded), label.alpha,
        *label.bbox, *label.dimensions, *label.location, label.rotation_y,
    )
    return line if label.score is None else f"{line} {label.score:.2f}"


def car_lines(dims, t, yaw, bbox, score=None, decimals: int = 2) -> list[str]:
    """Newline-terminated label lines of N cars, as :func:`format_label`
    writes :func:`box3d_to_label` of each at 2 decimals (synthetic ground
    truth and priors use 6): dims (N, 3), bottom centers t (N, 3),
    (wrapped) yaws (N,), image boxes (N, 4) and, for results, scores (N,);
    alpha is computed from each yaw and position."""
    line = f"{CATEGORY} " + _label_format(decimals)
    rows = zip(*(np.asarray(v, dtype=float).tolist() for v in (dims, t, yaw, bbox)))
    lines = [line % (0.0, 0, yaw_to_alpha(y, p), *b, *d, *p, y) for d, p, y, b in rows]
    if score is not None:
        lines = [f"{text} {s:.{decimals}f}" for text, s in zip(lines, score)]
    return [text + "\n" for text in lines]


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
    bottom-center anchored.  Dimensions are checked here, not at parse,
    since DontCare lines carry -1 and never become boxes."""
    if min(label.dimensions) <= 0:
        where = f"{label.origin}: " if label.origin else ""
        raise InputError(f"{where}box dimensions must be positive, got h, w, l = {label.dimensions}")
    return Box3D(dims=np.array(label.dimensions), t=np.array(label.location), yaw=label.rotation_y)


def box3d_to_label(
    box: Box3D,
    bbox: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    score: float | None = None,
) -> KittiLabel:
    """A Car label of ``box``, with alpha computed from its yaw and position."""
    return KittiLabel(
        type=CATEGORY,
        truncated=0.0,
        occluded=0,
        alpha=yaw_to_alpha(box.yaw, box.t),
        bbox=bbox,
        dimensions=(box.h, box.w, box.l),
        location=tuple(box.t),
        rotation_y=box.yaw,
        score=score,
    )
