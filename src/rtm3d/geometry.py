"""Box model, per-object records and rigid-body math shared by the whole pipeline.

Coordinate conventions follow the KITTI camera frame: x right, y down,
z forward.  A box is parameterized by its dimensions (h, w, l) in
meters, the translation of its bottom-face center, and a yaw angle
about the camera y axis.  One corner template, in camera axes, gives its
eight corners and center (:func:`box_points`, in the KITTI devkit corner
order), and one pinhole kernel (:func:`pinhole`) projects them.  An
object's solver inputs are its :class:`KeypointSet`, :class:`Priors` and
:class:`CameraModel`; :class:`SolveInputs` stacks those of N objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "AngleNearPi",
    "BehindCamera",
    "Box3D",
    "CameraModel",
    "KeypointSet",
    "Priors",
    "SolveInputs",
    "alpha_to_yaw",
    "box_points",
    "box_points_3d",
    "camera_rows",
    "corner_offsets",
    "nonpositive_prior",
    "pinhole",
    "project_points",
    "rot_y",
    "so3_exp",
    "so3_log",
    "so3_log_parts",
    "wrap_to_pi",
    "yaw_to_alpha",
]

# Angle below which exp/log switch to their Taylor expansions.
_TAYLOR_EPS = 1e-8


class AngleNearPi(ValueError):
    """Rotation angle too close to pi for an unambiguous logarithm."""


class BehindCamera(ValueError):
    """Point has non-positive depth after applying the camera offset."""


def wrap_to_pi(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: dims (h, w, l), bottom-center translation, yaw."""

    dims: np.ndarray
    t: np.ndarray
    yaw: float

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=float).reshape(3)
        t = np.asarray(self.t, dtype=float).reshape(3)
        if (dims <= 0).any():
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "yaw", wrap_to_pi(float(self.yaw)))

    @property
    def h(self) -> float:
        return float(self.dims[0])

    @property
    def w(self) -> float:
        return float(self.dims[1])

    @property
    def l(self) -> float:
        return float(self.dims[2])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the projection-matrix translation column.

    ``t_cam`` is added to camera-frame points before the pinhole division;
    it carries the baseline offset baked into KITTI's P2 matrix.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    t_cam: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "t_cam", np.asarray(self.t_cam, dtype=float).reshape(3))


@dataclass(frozen=True)
class KeypointSet:
    """Nine ordered image keypoints with per-point confidence and visibility.

    Indices 0..7 are the projected box corners in corner-template row
    order; index 8 is the projected 3D box center.
    """

    pts: np.ndarray
    conf: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.pts, dtype=float).reshape(9, 2)
        conf = np.asarray(self.conf, dtype=float).reshape(9)
        visible = np.asarray(self.visible, dtype=bool).reshape(9)
        if np.any(conf < 0) or np.any(conf > 1):
            raise ValueError("confidences must lie in [0, 1]")
        object.__setattr__(self, "pts", pts)
        object.__setattr__(self, "conf", conf)
        object.__setattr__(self, "visible", visible)

    @property
    def n_visible(self) -> int:
        return int(self.visible.sum())


def nonpositive_prior(d_hat: np.ndarray, z_hat: np.ndarray) -> tuple[int, str] | None:
    """Index and fault of the first object whose dimension (n, 3) or depth (n,) prior is not positive."""
    for i in np.flatnonzero(np.any(d_hat <= 0, axis=1) | (z_hat <= 0))[:1]:
        return int(i), f"{'dimension' if np.any(d_hat[i] <= 0) else 'depth'} prior must be positive"
    return None


@dataclass(frozen=True)
class Priors:
    """Per-object priors, all three required: dimensions (h, w, l), yaw and
    center depth.  The dimension and yaw priors are soft energy terms; the
    depth prior seeds the start only."""

    d_hat: np.ndarray
    theta_hat: float
    z_hat: float

    def __post_init__(self):
        d = np.asarray(self.d_hat, dtype=float).reshape(3)
        if fault := nonpositive_prior(d[None], np.array([self.z_hat])):
            raise ValueError(fault[1])
        object.__setattr__(self, "d_hat", d)


class SolveInputs(NamedTuple):
    """The keypoints, priors and cameras of N objects stacked along the first
    axis, as :func:`rtm3d.solver.solve_arrays` takes them and
    :func:`rtm3d.kitti.parse_solve_inputs` reads them from a frame's files."""

    kp: np.ndarray  # (N, 9, 2) measured keypoints
    conf: np.ndarray  # (N, 9) keypoint confidences in [0, 1]
    vis: np.ndarray  # (N, 9) keypoint visibility
    d_hat: np.ndarray  # (N, 3) dimension priors
    theta_hat: np.ndarray  # (N,) yaw priors
    z_hat: np.ndarray  # (N,) depth priors
    cams: np.ndarray  # (N, 7) camera rows (:func:`camera_rows`)

    @staticmethod
    def stack(kps: Sequence[KeypointSet], priors: Sequence[Priors], cams: Sequence[CameraModel]) -> "SolveInputs":
        n = len(kps)
        return SolveInputs(
            kp=np.array([k.pts for k in kps], dtype=float).reshape(n, 9, 2),
            conf=np.array([k.conf for k in kps], dtype=float).reshape(n, 9),
            vis=np.array([k.visible for k in kps], dtype=bool).reshape(n, 9),
            d_hat=np.array([p.d_hat for p in priors], dtype=float).reshape(n, 3),
            theta_hat=np.array([p.theta_hat for p in priors], dtype=float),
            z_hat=np.array([p.z_hat for p in priors], dtype=float),
            cams=camera_rows(cams),
        )

    def take(self, rows) -> "SolveInputs":
        return SolveInputs(*(a[rows] for a in self))


def camera_rows(cams: Sequence[CameraModel]) -> np.ndarray:
    """Rows (N, 7) of fx, fy, cx, cy and t_cam, one per camera."""
    return np.array([(c.fx, c.fy, c.cx, c.cy, *c.t_cam) for c in cams], dtype=float).reshape(-1, 7)


# Unit-box corners (rows 0-7, in the KITTI devkit order) and center (row 8)
# in camera axes (x, y, z), which a box's length, height and width scale.  The
# corners sit at heights {0, -1}, so a box is anchored at its bottom face.
BOX_TEMPLATE = np.array(
    [
        [0.5, 0.0, 0.5],
        [0.5, 0.0, -0.5],
        [-0.5, 0.0, -0.5],
        [-0.5, 0.0, 0.5],
        [0.5, -1.0, 0.5],
        [0.5, -1.0, -0.5],
        [-0.5, -1.0, -0.5],
        [-0.5, -1.0, 0.5],
        [0.0, -0.5, 0.0],
    ]
)
# The index into dims (h, w, l) of the dimension scaling each camera axis.
DIM_OF_AXIS = np.array([2, 0, 1])

# Depth (m), after the projection-matrix offset, at or below which a point
# counts as behind the camera.
MIN_DEPTH = 1e-6


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2], out[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    return out - np.swapaxes(out, -1, -2)


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (..., 3, 3) of (..., 3) axis-angle vectors."""
    w = np.asarray(w, dtype=float)
    theta = np.sqrt(np.sum(w * w, axis=-1))[..., None, None]
    small = theta < _TAYLOR_EPS
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    wx = _skew(w)
    return np.eye(3) + a * wx + b * (wx @ wx)


def so3_log_parts(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis-angle vectors (..., 3) of (..., 3, 3) rotations, their angles, and
    where the angle is within 1e-6 of pi, so that the vector is ambiguous."""
    r = np.asarray(r, dtype=float)
    cos_theta = (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0) / 2.0
    theta = np.arccos(np.minimum(np.maximum(cos_theta, -1.0), 1.0))
    vee = 0.5 * (r[..., [2, 0, 1], [1, 2, 0]] - r[..., [1, 2, 0], [2, 0, 1]])
    small = theta < _TAYLOR_EPS
    scale = np.where(small, 1.0 + theta**2 / 6.0, theta / np.sin(np.where(small, 1.0, theta)))
    return vee * scale[..., None], theta, math.pi - theta < 1e-6


def so3_log(r: np.ndarray) -> np.ndarray:
    """Axis-angle vectors of rotations; every angle must be below pi."""
    w, _, near_pi = so3_log_parts(r)
    if np.any(near_pi):
        raise AngleNearPi("rotation angle within 1e-6 of pi")
    return w


def rot_y(yaw) -> np.ndarray:
    """Rotations (..., 3, 3) about the camera y (vertical) axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    out = np.zeros(np.shape(yaw) + (3, 3))
    out[..., 0, 0], out[..., 0, 2], out[..., 1, 1], out[..., 2, 0], out[..., 2, 2] = c, s, 1, -s, c
    return out


def corner_offsets(dims: np.ndarray) -> np.ndarray:
    """Camera-frame corner/center offsets (..., 9, 3) of unrotated boxes
    with dims (..., 3)."""
    return BOX_TEMPLATE * np.asarray(dims, dtype=float)[..., None, DIM_OF_AXIS]


def box_points(dims: np.ndarray, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The 8 corners plus center (..., 9, 3) in the camera frame of boxes
    with dims (..., 3), bottom centers t (..., 3) and rotations r (..., 3, 3)."""
    return corner_offsets(dims) @ np.swapaxes(r, -1, -2) + t[..., None, :]


def box_points_3d(box: Box3D) -> np.ndarray:
    """The 8 corners plus center of a box in the camera frame, shape (9, 3)."""
    return box_points(box.dims, box.t, rot_y(box.yaw))


def pinhole(f, c, t_cam, pts) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (..., 2) of camera-frame points (..., 3), and which of them are
    behind the camera: at depth :data:`MIN_DEPTH` or less once the offset
    ``t_cam`` is added.  Focal lengths ``f`` and principal points ``c``
    broadcast against (..., 2)."""
    p = pts + t_cam
    z = p[..., 2:]
    return f * p[..., :2] / z + c, z[..., 0] <= MIN_DEPTH


def project_points(camera: CameraModel, pts: np.ndarray) -> np.ndarray:
    """Pinhole projection (N, 2) of (N, 3) camera-frame points; raises
    :class:`BehindCamera` when one is behind the camera."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    f, c = np.array([camera.fx, camera.fy]), np.array([camera.cx, camera.cy])
    with np.errstate(divide="ignore", invalid="ignore"):
        uv, behind = pinhole(f, c, camera.t_cam, pts)
    if np.any(behind):
        raise BehindCamera("at least one point behind camera")
    return uv


def alpha_to_yaw(alpha: float, t) -> float:
    """Global yaw from the observation angle and the object translation."""
    return wrap_to_pi(alpha + math.atan2(t[0], t[2]))


def yaw_to_alpha(yaw: float, t) -> float:
    """Observation angle from the global yaw; inverse of :func:`alpha_to_yaw`."""
    return wrap_to_pi(yaw - math.atan2(t[0], t[2]))
