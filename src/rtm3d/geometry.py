"""Rigid-body math shared by the whole pipeline.

Coordinate conventions follow the KITTI camera frame: x right, y down,
z forward.  A box is parameterized by its dimensions (h, w, l) in
meters, the translation of its bottom-face center, and a yaw angle
about the camera y axis.  The corner template matrix stores unit-box
offsets ordered (height, width, length); `box_points_3d` maps them into
the camera frame, matching the KITTI devkit corner layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AngleNearPi",
    "BehindCamera",
    "Box3D",
    "CameraModel",
    "KeypointSet",
    "PoseSE3",
    "Twist",
    "alpha_to_yaw",
    "box_points_3d",
    "cor_matrix",
    "exp_se3",
    "log_se3",
    "project",
    "project_points",
    "rot_y",
    "so3_exp",
    "so3_left_jacobian_inv",
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
class Twist:
    """Element of se(3): translational part ``v`` and rotational part ``w``."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float).reshape(3))
        if not (np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.w))):
            raise ValueError("twist components must be finite")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.v, self.w])

    @staticmethod
    def from_array(xi: np.ndarray) -> "Twist":
        xi = np.asarray(xi, dtype=float).reshape(6)
        return Twist(v=xi[:3], w=xi[3:])


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform with rotation matrix ``r`` and translation ``t``."""

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float).reshape(3, 3)
        t = np.asarray(self.t, dtype=float).reshape(3)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("r is not a rotation matrix")

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.r @ np.asarray(p, dtype=float) + self.t


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: dims (h, w, l), bottom-center translation, yaw."""

    dims: np.ndarray
    t: np.ndarray
    yaw: float

    def __post_init__(self):
        dims = np.asarray(self.dims, dtype=float).reshape(3)
        t = np.asarray(self.t, dtype=float).reshape(3)
        if np.any(dims <= 0):
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

    Indices 0..7 are the projected box corners in corner-template column
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


# Unit-box corner template in homogeneous coordinates.  Rows are ordered
# (height, width, length); the eight corners sit at heights {0, -1} so a
# box is anchored at its bottom face, and column 9 is the box center.
_COR = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0, -0.5],
        [0.5, -0.5, -0.5, 0.5, 0.5, -0.5, -0.5, 0.5, 0.0],
        [0.5, 0.5, -0.5, -0.5, 0.5, 0.5, -0.5, -0.5, 0.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ]
)

# Maps template ordering (height, width, length) onto camera axes
# (x, y, z) = (length, height, width); cyclic, so det = +1.
_TEMPLATE_TO_CAM = np.array(
    [
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
)


def cor_matrix() -> np.ndarray:
    """Return the constant 4x9 corner template matrix."""
    return _COR.copy()


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


def so3_left_jacobian_inv(w: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Inverse left Jacobians J_l^{-1} (..., 3, 3) of SO(3) at (..., 3)
    axis-angle vectors whose angles are ``theta``."""
    small = theta < _TAYLOR_EPS
    safe = np.where(small, 1.0, theta)
    coeff = np.where(
        small, 1.0 / 12.0, 1.0 / safe**2 - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe))
    )
    wx = _skew(w)
    return np.eye(3) - 0.5 * wx + coeff[..., None, None] * (wx @ wx)


def exp_se3(xi: Twist) -> PoseSE3:
    """Exponential map from se(3) to SE(3) (Rodrigues closed form)."""
    w = xi.w
    theta = float(np.linalg.norm(w))
    wx = _skew(w)
    r = so3_exp(w)
    if theta < _TAYLOR_EPS:
        b = 0.5 - theta**2 / 24.0
        c = 1.0 / 6.0 - theta**2 / 120.0
    else:
        b = (1.0 - math.cos(theta)) / theta**2
        c = (theta - math.sin(theta)) / theta**3
    v_mat = np.eye(3) + b * wx + c * (wx @ wx)
    return PoseSE3(r=r, t=v_mat @ xi.v)


def log_se3(pose: PoseSE3) -> Twist:
    """Inverse of :func:`exp_se3`; raises :class:`AngleNearPi` near pi."""
    w = so3_log(pose.r)
    return Twist(v=so3_left_jacobian_inv(w, np.linalg.norm(w)) @ pose.t, w=w)


def rot_y(yaw) -> np.ndarray:
    """Rotations (..., 3, 3) about the camera y (vertical) axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    out = np.zeros(np.shape(yaw) + (3, 3))
    out[..., 0, 0], out[..., 0, 2], out[..., 1, 1], out[..., 2, 0], out[..., 2, 2] = c, s, 1, -s, c
    return out


def corner_offsets(dims: np.ndarray) -> np.ndarray:
    """Camera-frame corner/center offsets (9, 3) of an unrotated box."""
    dims = np.asarray(dims, dtype=float).reshape(3)
    scaled = dims[:, None] * _COR[:3, :]
    return (_TEMPLATE_TO_CAM @ scaled).T


def box_points_3d(box: Box3D) -> np.ndarray:
    """The 8 corners plus center of a box in the camera frame, shape (9, 3)."""
    r = rot_y(box.yaw)
    return corner_offsets(box.dims) @ r.T + box.t


def project(camera: CameraModel, p3d: np.ndarray) -> np.ndarray:
    """Pinhole projection of a single camera-frame point to pixels."""
    p = np.asarray(p3d, dtype=float).reshape(3) + camera.t_cam
    if p[2] <= 1e-6:
        raise BehindCamera(f"point depth {p[2]:.3g} behind camera")
    return np.array(
        [camera.fx * p[0] / p[2] + camera.cx, camera.fy * p[1] / p[2] + camera.cy]
    )


def project_points(camera: CameraModel, pts: np.ndarray) -> np.ndarray:
    """Vectorized :func:`project` over an (N, 3) array."""
    p = np.asarray(pts, dtype=float).reshape(-1, 3) + camera.t_cam
    if np.any(p[:, 2] <= 1e-6):
        raise BehindCamera("at least one point behind camera")
    uv = np.empty((p.shape[0], 2))
    uv[:, 0] = camera.fx * p[:, 0] / p[:, 2] + camera.cx
    uv[:, 1] = camera.fy * p[:, 1] / p[:, 2] + camera.cy
    return uv


def alpha_to_yaw(alpha: float, t: np.ndarray) -> float:
    """Global yaw from the observation angle and the object translation."""
    t = np.asarray(t, dtype=float).reshape(3)
    return wrap_to_pi(alpha + math.atan2(t[0], t[2]))


def yaw_to_alpha(yaw: float, t: np.ndarray) -> float:
    """Observation angle from the global yaw; inverse of :func:`alpha_to_yaw`."""
    t = np.asarray(t, dtype=float).reshape(3)
    return wrap_to_pi(yaw - math.atan2(t[0], t[2]))
