"""Parsing and writing of KITTI object labels, calibration and results,
and of the solver's inputs: priors files and keypoint sidecars.

Label lines carry 15 space-delimited fields (16 with a detection score) and
read into a :class:`LabelTable` of arrays, whose columns are named here.
:meth:`LabelTable.lines` writes every label line, at the KITTI submission's
2 decimals, so parse(write(x)) reproduces every field within 0.005, or at
the 6 of priors.  Sidecars are written at 6 decimals too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Box3D, CameraModel, SolveInputs, camera_rows, nonpositive_prior, wrap_to_pi, yaw_to_alpha

__all__ = [
    "FieldCountError",
    "InputError",
    "KittiCalib",
    "KittiLabel",
    "LabelTable",
    "MissingP2Error",
    "NumericParseError",
    "camera_to_calib",
    "car_lines",
    "format_label",
    "keypoint_boxes",
    "label_to_box3d",
    "parse_calib",
    "parse_calib_file",
    "parse_label_file",
    "parse_label_values",
    "parse_labels",
    "parse_solve_inputs",
    "priors_lines",
    "read_labels",
    "sidecar_lines",
    "to_camera_model",
    "write_calib",
    "write_result_file",
]

# The one object class: rtm3d synth and solve write it, and evaluation scores it.
CATEGORY = "Car"
# Largest |dimension| or |location| (m) of a box read from a label: a volume is finite.
BOX_LIMIT = 1e100
# Largest |bbox field| (px) of a label line: a 2D box area, and the sum of two, is finite.
BBOX_LIMIT = 1e100

# The columns of LabelTable.values, a label line's numeric fields in order: the bbox (left, top, right,
# bottom) in px, the dims (h, w, l) and bottom-center location (x, y, z) in m, and the score, NaN where a
# line has none.  BOX spans the dims, location and rotation_y of a box row (h, w, l, x, y, z, yaw).
TRUNCATED, OCCLUDED, ALPHA, BBOX, DIMS = 0, 1, 2, slice(3, 7), slice(7, 10)
LOCATION, ROTATION_Y, SCORE, BOX = slice(10, 13), 13, 14, slice(7, 14)


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
        if not np.isfinite(t := _offset(p2)).all():
            raise InputError(f"P2 camera offset t = {tuple(t.tolist())} must be finite")
        self.p2 = p2


def _offset(p2: np.ndarray) -> np.ndarray:
    """The camera offset t of P2 = K [I | t], infinite where it overflows, computed without a warning."""
    with np.errstate(over="ignore"):
        return np.array([(p2[0, 3] - p2[0, 2] * p2[2, 3]) / p2[0, 0], (p2[1, 3] - p2[1, 2] * p2[2, 3]) / p2[1, 1],
                         p2[2, 3]])


def _is_finite_number(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


class LabelTable:
    """Label lines as arrays, one row per line: the index ``frame`` (N,) of
    its text in ``sources``, its ``line`` number and ``type`` (N,), and
    ``values`` (N, 15), the numeric fields in the columns named above."""

    __slots__ = ("sources", "frame", "line", "type", "values")

    def __init__(self, sources, frame, line, type, values):
        self.sources, self.frame, self.line, self.type, self.values = sources, frame, line, type, values

    @staticmethod
    def of_rows(sources, rows) -> "LabelTable":
        """The table of ``rows``, (frame, line, type, values) tuples."""
        frame, line, kind, values = zip(*rows) if rows else ((), (), (), ())
        return LabelTable(sources, np.array(frame, dtype=int), np.array(line, dtype=int), np.array(kind, dtype=str),
                          np.array(values, dtype=float).reshape(-1, 15))

    @staticmethod
    def of_labels(frames: dict) -> "LabelTable":
        """The table of the KittiLabels that ``frames`` maps each source to,
        each row's line number its place in its list: the inverse of :meth:`label`."""
        return LabelTable.of_rows(list(frames), [
            (f, k, lb.type, (lb.truncated, lb.occluded, lb.alpha, *lb.bbox, *lb.dimensions, *lb.location,
                             lb.rotation_y, math.nan if lb.score is None else lb.score))
            for f, labels in enumerate(frames.values()) for k, lb in enumerate(labels, start=1)])

    def take(self, rows) -> "LabelTable":
        """The table of the rows ``rows`` (indices or a mask)."""
        return LabelTable(self.sources, self.frame[rows], self.line[rows], self.type[rows], self.values[rows])

    def label(self, row: int) -> KittiLabel:
        """The KittiLabel of a row, its origin naming the row's source and line."""
        v = self.values[row].tolist()
        return KittiLabel(type=str(self.type[row]), truncated=v[TRUNCATED], occluded=int(v[OCCLUDED]),
                          alpha=v[ALPHA], bbox=tuple(v[BBOX]), dimensions=tuple(v[DIMS]),
                          location=tuple(v[LOCATION]), rotation_y=v[ROTATION_Y],
                          score=None if math.isnan(v[SCORE]) else v[SCORE],
                          origin=f"{self.sources[self.frame[row]]}, line {self.line[row]}")

    def boxes(self) -> np.ndarray:
        """The (N, 7) box rows of the table, each yaw wrapped as Box3D wraps
        it, which leaves a wrapped yaw as it is."""
        rows = self.values[:, BOX].copy()
        rows[:, -1] = [wrap_to_pi(yaw) for yaw in rows[:, -1].tolist()]
        return rows

    def lines(self, decimals: int = 2) -> list[str]:
        """Each row as a newline-terminated label line at ``decimals``, with
        its score where it has one: the one writer of label lines."""
        f = f"%.{decimals}f"
        line = " ".join(["%s", f, "%d"] + [f] * 12)
        scored, line = f"{line} {f}\n", line + "\n"
        return [line % (kind, *v[:SCORE]) if math.isnan(v[SCORE]) else scored % (kind, *v)
                for kind, v in zip(self.type.tolist(), self.values.tolist())]


def parse_label_values(texts, sources) -> LabelTable:
    """The label lines of each text of ``texts`` as one table, each row's
    frame the index of its text; a field that is not a finite number, a
    line with the wrong field count, or then a bbox field beyond
    :data:`BBOX_LIMIT` in magnitude on any line, raises an InputError
    naming the text's source and the line."""
    rows = []
    for frame, (text, source) in enumerate(zip(texts, sources)):
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
            rows.append((frame, line_no, fields[0], vals if len(vals) == 15 else vals + [math.nan]))
    table = LabelTable.of_rows(list(sources), rows)
    wide = (np.abs(table.values[:, BBOX]) > BBOX_LIMIT).any(axis=1)
    if wide.any():
        label = table.label(int(wide.argmax()))
        raise InputError(f"{label.origin}: 2D box fields must lie within {BBOX_LIMIT:g} px, got {label.bbox}")
    return table


def read_labels(paths, boxed) -> LabelTable:
    """The label lines of the files ``paths``, one frame each, as one table
    whose sources are the frames, named by the files' stems.  Each file is
    checked as :func:`parse_labels` checks it, then the box of each row
    that ``boxed`` picks from the types (N,) as :func:`label_to_box3d`
    checks it, an error naming file and line."""
    table = parse_label_values([Path(p).read_text() for p in paths], paths)
    v = table.values
    bad = boxed(table.type) & ((v[:, DIMS] <= 0).any(axis=1) | (np.abs(v[:, BOX][:, :6]) > BOX_LIMIT).any(axis=1))
    if bad.any():
        label_to_box3d(table.label(int(bad.argmax())))  # raises the first box's error
    return LabelTable([Path(p).stem for p in paths], table.frame, table.line, table.type, table.values)


def parse_labels(text: str, source="label text") -> list[KittiLabel]:
    """Parse label/result text, checked as :func:`parse_label_values` checks it."""
    table = parse_label_values([text], [source])
    return [table.label(row) for row in range(len(table.frame))]


def parse_label_file(path) -> list[KittiLabel]:
    return parse_labels(Path(path).read_text(), path)


def format_label(label: KittiLabel) -> str:
    """One label line, at the KITTI submission's 2 decimals."""
    return LabelTable.of_labels({"label": [label]}).lines()[0][:-1]


def car_lines(dims, t, yaw, bbox, score=None, decimals: int = 2) -> list[str]:
    """Newline-terminated :data:`CATEGORY` label lines of N cars, as rtm3d
    writes ground truth, priors and results: dims (N, 3), bottom centers
    t (N, 3), (wrapped) yaws (N,), image boxes (N, 4) and, for results,
    scores (N,).  Truncated and occluded are 0 and alpha is computed from
    each yaw and position.  At 2 decimals a line is what :func:`format_label`
    writes; synthetic ground truth and priors use 6."""
    t, yaw = np.asarray(t, dtype=float), np.asarray(yaw, dtype=float)
    n = len(yaw)
    values = np.zeros((n, 15))
    values[:, ALPHA] = [yaw_to_alpha(y, p) for y, p in zip(yaw.tolist(), t.tolist())]
    values[:, BBOX], values[:, DIMS], values[:, LOCATION], values[:, ROTATION_Y] = bbox, dims, t, yaw
    values[:, SCORE] = math.nan if score is None else score
    return LabelTable([CATEGORY], np.zeros(n, dtype=int), np.arange(1, n + 1), np.full(n, CATEGORY),
                      values).lines(decimals)


def keypoint_boxes(pts: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """Axis-aligned image boxes (n, 4), (left, top, right, bottom), of the visible
    keypoints of (n, 9, 2) keypoints, or of all nine where none is visible."""
    use = (visible | ~visible.any(axis=1, keepdims=True))[..., None]
    return np.concatenate([np.where(use, pts, np.inf).min(axis=1), np.where(use, pts, -np.inf).max(axis=1)], axis=1)


def priors_lines(d_hat, theta_hat, z_hat, bbox) -> list[str]:
    """The lines of a priors file, one per object: label lines at 6 decimals
    whose dimensions carry the dimension priors (n, 3), rotation_y the
    (wrapped) yaw priors (n,) and location z the depth priors (n,), with
    image boxes bbox (n, 4)."""
    t = np.column_stack([np.zeros((len(z_hat), 2)), z_hat])
    yaw = [wrap_to_pi(v) for v in np.asarray(theta_hat, dtype=float).tolist()]
    return car_lines(d_hat, t, yaw, bbox, decimals=6)


def sidecar_lines(pts, conf, visible) -> list[str]:
    """The lines of a keypoint sidecar, one per object: nine 'u v conf'
    triples of keypoints (n, 9, 2) and confidences (n, 9); conf 0 marks an
    invisible one."""
    conf = np.where(visible, conf, 0.0)[..., None]
    rows = np.concatenate([pts, conf], axis=2).reshape(-1, 27)
    line = " ".join(["%.6f"] * 27) + "\n"
    return [line % tuple(row) for row in rows.tolist()]


def parse_solve_inputs(priors: str, sidecar: str, camera: CameraModel, sidecar_source="keypoint sidecar",
                       priors_source="priors file") -> SolveInputs:
    """The solver inputs of one frame's n objects, from its priors file, keypoint
    sidecar and camera: keypoints (n, 9, 2), confidences clipped to [0, 1],
    visibility (n, 9) where a confidence is positive, dimension (n, 3), yaw and
    depth (n,) priors, and the camera's row for every object.  Sources name files in errors."""
    labels = parse_label_values([priors], [priors_source]).values
    rows = []
    for line_no, tokens in enumerate(map(str.split, sidecar.splitlines()), start=1):
        if not tokens:
            continue
        try:
            rows.append(list(map(float, tokens)))
        except ValueError as e:
            raise InputError(f"{sidecar_source}, line {line_no}: {e}") from None
        if len(tokens) != 27:
            raise InputError(f"{sidecar_source}, line {line_no}: {len(tokens)} values, expected 27")
    triples = np.array(rows, dtype=float).reshape(-1, 9, 3)
    if len(labels) != len(triples):
        raise InputError(f"{sidecar_source}: {len(triples)} objects, but the priors file has {len(labels)}")
    d_hat, z_hat, theta_hat = labels[:, DIMS], labels[:, LOCATION][:, 2], labels[:, ROTATION_Y]
    if fault := nonpositive_prior(d_hat, z_hat):
        raise InputError(f"{priors_source}, object {fault[0]}: {fault[1]}")
    return SolveInputs(triples[..., :2], np.clip(triples[..., 2], 0.0, 1.0), triples[..., 2] > 0.0, d_hat, theta_hat,
                       z_hat, np.repeat(camera_rows([camera]), len(labels), axis=0))


def write_result_file(labels: list[KittiLabel]) -> str:
    """Serialize labels/results; empty list yields an empty string."""
    return "".join(LabelTable.of_labels({"results": labels}).lines())


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
    return CameraModel(fx=p2[0, 0], fy=p2[1, 1], cx=p2[0, 2], cy=p2[1, 2], t_cam=_offset(p2))


def camera_to_calib(cam: CameraModel) -> KittiCalib:
    k = np.array([[cam.fx, 0.0, cam.cx], [0.0, cam.fy, cam.cy], [0.0, 0.0, 1.0]])
    p2 = np.hstack([k, (k @ cam.t_cam).reshape(3, 1)])
    return KittiCalib(p2=p2)


def write_calib(calib: KittiCalib) -> str:
    return "P2: " + " ".join(f"{v:.12e}" for v in calib.p2.reshape(-1)) + "\n"


def label_to_box3d(label: KittiLabel) -> Box3D:
    """KITTI (h, w, l, location, rotation_y) to a Box3D; both are
    bottom-center anchored.  Dimensions and location are checked here, not
    at parse, since DontCare lines carry -1 and never become boxes."""
    where = f"{label.origin}: " if label.origin else ""
    if min(label.dimensions) <= 0:
        raise InputError(f"{where}box dimensions must be positive, got h, w, l = {label.dimensions}")
    if max(map(abs, (*label.dimensions, *label.location))) > BOX_LIMIT:
        raise InputError(f"{where}box dimensions and location must lie within {BOX_LIMIT:g} m, "
                         f"got h, w, l = {label.dimensions}, x, y, z = {label.location}")
    return Box3D(dims=np.array(label.dimensions), t=np.array(label.location), yaw=label.rotation_y)
