"""Synthetic ground-truth scenes standing in for a trained detector.

Scenes sample boxes in front of a pinhole camera, project their nine
keypoints, and optionally encode the full set of head maps, so the
solver and decoder can be verified end-to-end without a network.  A
scene is held as arrays (:class:`SceneArrays`) from its draws to its
text and head maps; :class:`SceneObject` lists serve the per-object API.
The text formats are :mod:`rtm3d.kitti`'s, which also reads them back, and
the per-object records are :mod:`rtm3d.geometry`'s, so synth loads no solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kitti
from .geometry import (
    Box3D,
    CameraModel,
    KeypointSet,
    Priors,
    box_points,
    pinhole,
    rot_y,
    wrap_to_pi,
    yaw_to_alpha,
)
from .heatmaps import DIM_MEAN, DIM_STD, DOWNSAMPLE, HeadMaps, encode_objects

__all__ = [
    "GRID",
    "IMAGE_SIZE",
    "NoiseSpec",
    "SceneArrays",
    "SceneObject",
    "SceneSpec",
    "apply_noise",
    "default_camera",
    "encode_headmaps",
    "generate_scene",
    "keypoints_sidecar_text",
    "parse_scene_objects",
    "scene_gt_text",
    "scene_priors_text",
]

IMAGE_SIZE = (1280, 384)  # width, height
# The head-map grid of the image, (H, W) cells of DOWNSAMPLE px.
GRID = (IMAGE_SIZE[1] // DOWNSAMPLE, IMAGE_SIZE[0] // DOWNSAMPLE)
_IMAGE_LIMIT = np.array(IMAGE_SIZE)
# Camera y of a box's bottom face.
HEIGHT_RANGE = (1.4, 1.8)
# Spec bounds: cars per frame, and the magnitude (m, px or rad) of a range end
# or noise sigma, whose inverse bounds depths and positive sigmas from below.
# Within them every draw, projection and 6-decimal text value stays finite, and
# every depth positive.
MAX_OBJECTS = 10_000
SPEC_LIMIT = 1e6


def default_camera() -> CameraModel:
    """KITTI-like intrinsics for synthetic scenes."""
    return CameraModel(fx=721.5377, fy=721.5377, cx=609.5593, cy=172.854)


@dataclass(frozen=True)
class SceneSpec:
    """Boxes per scene, the ranges their depth and lateral offset are drawn
    from (camera z and x, metres), and the scene's random seed."""

    n_objects: int = 3
    depth_range: tuple[float, float] = (6.0, 60.0)
    lateral_range: tuple[float, float] = (-12.0, 12.0)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_objects <= MAX_OBJECTS:
            raise ValueError(f"n_objects must lie in [0, {MAX_OBJECTS}]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 / SPEC_LIMIT <= self.depth_range[0] <= self.depth_range[1] <= SPEC_LIMIT:
            raise ValueError(f"invalid depth range: need {1 / SPEC_LIMIT:g} <= min <= max <= {SPEC_LIMIT:g}")
        if not -SPEC_LIMIT <= self.lateral_range[0] <= self.lateral_range[1] <= SPEC_LIMIT:
            raise ValueError(f"invalid lateral range: need {-SPEC_LIMIT:g} <= min <= max <= {SPEC_LIMIT:g}")


@dataclass(frozen=True)
class NoiseSpec:
    pixel_sigma: float = 0.0
    dropout: float = 0.0
    dim_sigma: float = 0.0
    yaw_sigma: float = 0.0
    depth_rel_sigma: float = 0.0

    def __post_init__(self):
        sigmas = (self.pixel_sigma, self.dim_sigma, self.yaw_sigma, self.depth_rel_sigma)
        if not all(s == 0 or 1 / SPEC_LIMIT <= s <= SPEC_LIMIT for s in sigmas):
            raise ValueError(f"noise sigmas must be 0 or lie in [{1 / SPEC_LIMIT:g}, {SPEC_LIMIT:g}]")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class SceneObject:
    box: Box3D
    kps: KeypointSet
    priors: Priors


def _truncated_normal(rng, mean, std, clip=3.0, size=None):
    x = rng.normal(0.0, 1.0, size=size)
    while (np.abs(x) > clip).any():
        bad = np.abs(x) > clip
        x = np.where(bad, rng.normal(0.0, 1.0, size=size), x)
    return mean + std * x


def _keypoints(camera: CameraModel, dims, t, yaw: float) -> tuple[np.ndarray, np.ndarray]:
    """The nine keypoints (9, 2) of a box and which of them are visible:
    those behind the camera sit at (0, 0), and only those in front and
    inside the image are visible."""
    f, c = np.array([camera.fx, camera.fy]), np.array([camera.cx, camera.cy])
    with np.errstate(divide="ignore", invalid="ignore"):
        uv, behind = pinhole(f, c, camera.t_cam, box_points(dims, t, rot_y(yaw)))
    pts = np.where(behind[:, None], 0.0, uv)
    return pts, ~behind & ((pts >= 0) & (pts < _IMAGE_LIMIT)).all(axis=1)


def _placed(pts: np.ndarray, visible: np.ndarray) -> bool:
    """The placement rule: all nine keypoints (9, 2) visible, on nine distinct head-map cells."""
    return bool(visible.all()) and len(set(map(tuple, np.floor(pts / DOWNSAMPLE).tolist()))) == 9


def _clipped_boxes(pts: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """:func:`~rtm3d.kitti.keypoint_boxes` clipped to the image."""
    return np.clip(kitti.keypoint_boxes(pts, visible), 0, np.tile(_IMAGE_LIMIT - 1, 2))


class SceneArrays(NamedTuple):
    """A scene's objects as arrays, n along the first axis: ground-truth
    boxes, keypoints and priors."""

    dims: np.ndarray  # (n, 3) box dimensions (h, w, l)
    t: np.ndarray  # (n, 3) bottom centers
    yaw: np.ndarray  # (n,) yaws
    pts: np.ndarray  # (n, 9, 2) keypoints
    conf: np.ndarray  # (n, 9) keypoint confidences
    visible: np.ndarray  # (n, 9) keypoint visibility
    d_hat: np.ndarray  # (n, 3) dimension priors
    theta_hat: np.ndarray  # (n,) yaw priors
    z_hat: np.ndarray  # (n,) depth priors

    @staticmethod
    def draw(spec: SceneSpec, camera: CameraModel) -> "SceneArrays":
        """The scene :func:`generate_scene` describes."""
        rng = np.random.default_rng(spec.seed)
        n = spec.n_objects
        dims, t, yaw = np.empty((n, 3)), np.empty((n, 3)), np.empty(n)
        pts, visible = np.empty((n, 9, 2)), np.empty((n, 9), dtype=bool)
        for i in range(n):
            for _attempt in range(200):
                d = _truncated_normal(rng, DIM_MEAN, DIM_STD, size=3)
                depth = rng.uniform(*spec.depth_range)
                lateral = rng.uniform(*spec.lateral_range)
                height = rng.uniform(*HEIGHT_RANGE)
                y = wrap_to_pi(rng.uniform(-math.pi, math.pi))
                ti = np.array([lateral, height, depth])
                p, v = _keypoints(camera, d, ti, y)
                if _placed(p, v):
                    break
            dims[i], t[i], yaw[i], pts[i], visible[i] = d, ti, y, p, v
        return SceneArrays(dims, t, yaw, pts, np.where(visible, 1.0, 0.0), visible,
                           dims.copy(), yaw.copy(), t[:, 2].copy())

    def unplaced(self) -> int:
        """How many boxes break the placement rule: those kept when :meth:`draw` ran out of draws."""
        return sum(not _placed(p, v) for p, v in zip(self.pts, self.visible))

    def noisy(self, noise: NoiseSpec, seed: int) -> "SceneArrays":
        """The scene :func:`apply_noise` describes."""
        rng = np.random.default_rng(seed)
        n = len(self.yaw)
        offsets, u_drop = np.zeros((n, 9, 2)), np.ones((n, 9))
        e_dim, e_yaw, e_depth = np.zeros((n, 3)), np.zeros(n), np.zeros(n)
        for i in range(n):  # Each object's draws, in this order.
            if noise.pixel_sigma > 0:
                offsets[i] = rng.normal(0.0, noise.pixel_sigma, size=(9, 2))
            if noise.dropout > 0:
                u_drop[i] = rng.uniform(size=9)
            if noise.dim_sigma > 0:
                e_dim[i] = rng.normal(0.0, noise.dim_sigma, size=3)
            if noise.yaw_sigma > 0:
                e_yaw[i] = rng.normal(0.0, noise.yaw_sigma)
            if noise.depth_rel_sigma > 0:
                e_depth[i] = rng.normal(0.0, noise.depth_rel_sigma)
        s = self
        if noise.pixel_sigma > 0:
            decay = np.exp(-(offsets**2).sum(axis=2) / (2.0 * noise.pixel_sigma**2))
            s = s._replace(pts=s.pts + offsets, conf=np.where(s.visible, np.clip(decay, 0.05, 1.0), s.conf))
        if noise.dropout > 0:
            drop = u_drop < noise.dropout
            s = s._replace(visible=s.visible & ~drop, conf=np.where(drop, 0.0, s.conf))
        if noise.dim_sigma > 0:
            s = s._replace(d_hat=np.maximum(s.d_hat + e_dim, 0.1))
        if noise.yaw_sigma > 0:
            theta = [wrap_to_pi(th + e) for th, e in zip(s.theta_hat.tolist(), e_yaw.tolist())]
            s = s._replace(theta_hat=np.array(theta, dtype=float))
        if noise.depth_rel_sigma > 0:
            s = s._replace(z_hat=np.maximum(s.z_hat * (1.0 + e_depth), 0.5))
        return s

    @staticmethod
    def of(scene: list[SceneObject]) -> "SceneArrays":
        n = len(scene)

        def stack(values, *shape, dtype=float):
            return np.array(list(values), dtype=dtype).reshape((n,) + shape)

        return SceneArrays(
            dims=stack((o.box.dims for o in scene), 3),
            t=stack((o.box.t for o in scene), 3),
            yaw=stack(o.box.yaw for o in scene),
            pts=stack((o.kps.pts for o in scene), 9, 2),
            conf=stack((o.kps.conf for o in scene), 9),
            visible=stack((o.kps.visible for o in scene), 9, dtype=bool),
            d_hat=stack((o.priors.d_hat for o in scene), 3),
            theta_hat=stack(o.priors.theta_hat for o in scene),
            z_hat=stack(o.priors.z_hat for o in scene),
        )

    def objects(self) -> list[SceneObject]:
        scalars = zip(self.yaw.tolist(), self.theta_hat.tolist(), self.z_hat.tolist())
        return [
            SceneObject(
                box=Box3D(dims=self.dims[i], t=self.t[i], yaw=yaw),
                kps=KeypointSet(pts=self.pts[i], conf=self.conf[i], visible=self.visible[i]),
                priors=Priors(d_hat=self.d_hat[i], theta_hat=theta, z_hat=z),
            )
            for i, (yaw, theta, z) in enumerate(scalars)
        ]

    def gt_text(self) -> str:
        """Ground-truth boxes as KITTI-format label lines (6-decimal floats)."""
        bbox = _clipped_boxes(self.pts, self.visible)
        return "".join(kitti.car_lines(self.dims, self.t, self.yaw, bbox, decimals=6))

    def priors_text(self) -> str:
        """The priors file (:func:`~rtm3d.kitti.priors_text`), with the clipped image boxes of the keypoints."""
        return kitti.priors_text(self.d_hat, self.theta_hat, self.z_hat, _clipped_boxes(self.pts, self.visible))

    def sidecar_text(self) -> str:
        """The keypoint sidecar (:func:`~rtm3d.kitti.sidecar_text`)."""
        return kitti.sidecar_text(self.pts, self.conf, self.visible)

    def headmaps(self, maps: HeadMaps | None = None) -> HeadMaps:
        """The scene's head maps (:func:`~rtm3d.heatmaps.encode_objects`) drawn on
        ``maps``, all-zero planes of :data:`GRID`, or else on fresh float64 ones."""
        alpha = [yaw_to_alpha(y, t) for y, t in zip(self.yaw.tolist(), self.t)]
        return encode_objects(HeadMaps.zeros(*GRID) if maps is None else maps, _clipped_boxes(self.pts, self.visible),
                              self.pts, self.visible, self.dims, alpha, self.t[:, 2])


def generate_scene(spec: SceneSpec, camera: CameraModel | None = None) -> list[SceneObject]:
    """Sample ground-truth boxes and project their keypoints.

    Deterministic under a fixed (spec, seed); priors are exact copies of
    the ground truth until noise is applied.  A box is resampled (up to 200
    times) until all nine keypoints project inside the image on distinct
    head-map cells: the sub-cell offset plane is shared across keypoint
    channels, so keypoints sharing a cell are not exactly encodable.
    """
    return SceneArrays.draw(spec, camera or default_camera()).objects()


def apply_noise(scene: list[SceneObject], noise: NoiseSpec, seed: int = 0) -> list[SceneObject]:
    """Perturb keypoints and priors; dropped keypoints become invisible.

    Confidence decays with the injected pixel offset so the solver's
    softmax weighting is exercised: conf = exp(-|n|^2 / (2 sigma^2)),
    clipped to [0.05, 1].  Each object draws its pixel offsets, dropout,
    dimension, yaw and depth noise in that order, each only if enabled.
    """
    return SceneArrays.of(scene).noisy(noise, seed).objects()


def encode_headmaps(scene: list[SceneObject], camera: CameraModel | None = None) -> HeadMaps:
    """The head maps of :meth:`SceneArrays.headmaps`; ``camera`` is unused,
    and stays because ``bench/layers.py`` passes it."""
    return SceneArrays.of(scene).headmaps()


# ---------------------------------------------------------------------------
# Plain-text scene serialization (see README for the formats).


def scene_gt_text(scene: list[SceneObject]) -> str:
    """Ground-truth boxes as KITTI-format label lines (6-decimal floats)."""
    return SceneArrays.of(scene).gt_text()


def scene_priors_text(scene: list[SceneObject]) -> str:
    """The priors file of :meth:`SceneArrays.priors_text`."""
    return SceneArrays.of(scene).priors_text()


def keypoints_sidecar_text(scene: list[SceneObject]) -> str:
    """The keypoint sidecar of :meth:`SceneArrays.sidecar_text`."""
    return SceneArrays.of(scene).sidecar_text()


def parse_scene_objects(priors_text: str, keypoints_text: str, keypoints_source="keypoint sidecar",
                        priors_source="priors file") -> list[tuple[KeypointSet, Priors]]:
    """Per-object keypoints and priors of :func:`~rtm3d.kitti.parse_solve_inputs`."""
    s = kitti.parse_solve_inputs(priors_text, keypoints_text, default_camera(), keypoints_source, priors_source)
    return [
        (KeypointSet(pts=s.kp[i], conf=s.conf[i], visible=s.vis[i]), Priors(d_hat=s.d_hat[i], theta_hat=theta, z_hat=z))
        for i, (theta, z) in enumerate(zip(s.theta_hat.tolist(), s.z_hat.tolist()))
    ]
