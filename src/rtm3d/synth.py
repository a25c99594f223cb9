"""Synthetic ground-truth scenes standing in for a trained detector.

Scenes sample boxes in front of a pinhole camera, project their nine
keypoints, and optionally encode the full set of head maps, so the
solver and decoder can be verified end-to-end without a network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box3D,
    CameraModel,
    KeypointSet,
    box_points_3d,
    project_points,
    wrap_to_pi,
    yaw_to_alpha,
)
from .heatmaps import (
    DIM_MEAN,
    DIM_STD,
    DOWNSAMPLE,
    HeadMaps,
    adaptive_sigma,
    multibin_encode,
    render_gaussian,
)
from .kitti import InputError, box3d_to_label, format_label, parse_labels
from .solver import Priors

__all__ = [
    "IMAGE_SIZE",
    "NoiseSpec",
    "SceneObject",
    "SceneSpec",
    "apply_noise",
    "default_camera",
    "encode_headmaps",
    "generate_scene",
    "keypoints_sidecar_text",
    "parse_keypoints_sidecar",
    "parse_scene_objects",
    "scene_gt_text",
    "scene_priors_text",
]

IMAGE_SIZE = (1280, 384)  # width, height
# Camera y of a box's bottom face.
HEIGHT_RANGE = (1.4, 1.8)


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
        if self.n_objects < 0:
            raise ValueError("n_objects must be non-negative")
        if self.depth_range[0] <= 0 or self.depth_range[1] < self.depth_range[0]:
            raise ValueError("invalid depth range")


@dataclass(frozen=True)
class NoiseSpec:
    pixel_sigma: float = 0.0
    dropout: float = 0.0
    dim_sigma: float = 0.0
    yaw_sigma: float = 0.0
    depth_rel_sigma: float = 0.0

    def __post_init__(self):
        if min(self.pixel_sigma, self.dim_sigma, self.yaw_sigma, self.depth_rel_sigma) < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")


@dataclass(frozen=True)
class SceneObject:
    box: Box3D
    kps: KeypointSet
    priors: Priors


def _truncated_normal(rng, mean, std, clip=3.0, size=None):
    x = rng.normal(0.0, 1.0, size=size)
    while np.any(np.abs(x) > clip):
        bad = np.abs(x) > clip
        x = np.where(bad, rng.normal(0.0, 1.0, size=size), x)
    return mean + std * x


def _project_keypoints(box: Box3D, camera: CameraModel) -> KeypointSet:
    pts3d = box_points_3d(box)
    w, h = IMAGE_SIZE
    pts = np.zeros((9, 2))
    visible = np.zeros(9, dtype=bool)
    depths = pts3d[:, 2] + camera.t_cam[2]
    front = depths > 1e-6
    if np.any(front):
        uv = project_points(camera, pts3d[front])
        pts[front] = uv
        visible[front] = (
            (uv[:, 0] >= 0) & (uv[:, 0] < w) & (uv[:, 1] >= 0) & (uv[:, 1] < h)
        )
    conf = np.where(visible, 1.0, 0.0)
    return KeypointSet(pts=pts, conf=conf, visible=visible)


def generate_scene(spec: SceneSpec, camera: CameraModel | None = None) -> list[SceneObject]:
    """Sample ground-truth boxes and project their keypoints.

    Deterministic under a fixed (spec, seed); priors are exact copies of
    the ground truth until noise is applied.  A box is resampled (up to 200
    times) until all nine keypoints project inside the image on distinct
    head-map cells: the sub-cell offset plane is shared across keypoint
    channels, so keypoints sharing a cell are not exactly encodable.
    """
    if camera is None:
        camera = default_camera()
    rng = np.random.default_rng(spec.seed)
    objects = []
    for _ in range(spec.n_objects):
        for _attempt in range(200):
            dims = _truncated_normal(rng, DIM_MEAN, DIM_STD, size=3)
            depth = rng.uniform(*spec.depth_range)
            lateral = rng.uniform(*spec.lateral_range)
            height = rng.uniform(*HEIGHT_RANGE)
            yaw = rng.uniform(-math.pi, math.pi)
            box = Box3D(dims=dims, t=np.array([lateral, height, depth]), yaw=yaw)
            kps = _project_keypoints(box, camera)
            if kps.n_visible < 9:
                continue
            cells = np.floor(kps.pts / DOWNSAMPLE).astype(int)
            if len({(int(x), int(y)) for x, y in cells}) == 9:
                break
        priors = Priors(d_hat=box.dims.copy(), theta_hat=box.yaw, z_hat=float(box.t[2]))
        objects.append(SceneObject(box=box, kps=kps, priors=priors))
    return objects


def apply_noise(scene: list[SceneObject], noise: NoiseSpec, seed: int = 0) -> list[SceneObject]:
    """Perturb keypoints and priors; dropped keypoints become invisible.

    Confidence decays with the injected pixel offset so the solver's
    softmax weighting is exercised: conf = exp(-|n|^2 / (2 sigma^2)),
    clipped to [0.05, 1].
    """
    rng = np.random.default_rng(seed)
    noisy = []
    for obj in scene:
        pts = obj.kps.pts.copy()
        conf = obj.kps.conf.copy()
        visible = obj.kps.visible.copy()
        if noise.pixel_sigma > 0:
            offsets = rng.normal(0.0, noise.pixel_sigma, size=(9, 2))
            pts = pts + offsets
            decay = np.exp(
                -(offsets**2).sum(axis=1) / (2.0 * noise.pixel_sigma**2)
            )
            conf = np.where(visible, np.clip(decay, 0.05, 1.0), conf)
        if noise.dropout > 0:
            drop = rng.uniform(size=9) < noise.dropout
            visible = visible & ~drop
            conf = np.where(drop, 0.0, conf)
        p = obj.priors
        d_hat = p.d_hat
        if d_hat is not None and noise.dim_sigma > 0:
            d_hat = np.maximum(d_hat + rng.normal(0.0, noise.dim_sigma, size=3), 0.1)
        theta_hat = p.theta_hat
        if theta_hat is not None and noise.yaw_sigma > 0:
            theta_hat = wrap_to_pi(theta_hat + rng.normal(0.0, noise.yaw_sigma))
        z_hat = p.z_hat
        if z_hat is not None and noise.depth_rel_sigma > 0:
            z_hat = max(z_hat * (1.0 + rng.normal(0.0, noise.depth_rel_sigma)), 0.5)
        noisy.append(
            SceneObject(
                box=obj.box,
                kps=KeypointSet(pts=pts, conf=conf, visible=visible),
                priors=Priors(d_hat=d_hat, theta_hat=theta_hat, z_hat=z_hat),
            )
        )
    return noisy


def bbox_2d(obj: SceneObject) -> tuple[float, float, float, float]:
    """Axis-aligned image box of the projected corners, clipped."""
    w, h = IMAGE_SIZE
    pts = obj.kps.pts[obj.kps.visible] if obj.kps.n_visible else obj.kps.pts
    left = float(np.clip(pts[:, 0].min(), 0, w - 1))
    right = float(np.clip(pts[:, 0].max(), 0, w - 1))
    top = float(np.clip(pts[:, 1].min(), 0, h - 1))
    bottom = float(np.clip(pts[:, 1].max(), 0, h - 1))
    return (left, top, right, bottom)


def encode_headmaps(scene: list[SceneObject], camera: CameraModel | None = None) -> HeadMaps:
    """Render the full set of head maps for a scene.

    The maincenter anchors the 2D box center; the vertex planes carry the
    nine projected keypoints.  Regression planes are written at the
    maincenter cell (vertex offsets at each keypoint cell), exactly
    invertible by the decoder when objects do not collide on the grid.
    The maps depend only on the scene's projected keypoints and boxes;
    ``camera`` is accepted for symmetry with :func:`generate_scene`.
    """
    stride = DOWNSAMPLE
    gw, gh = IMAGE_SIZE[0] // stride, IMAGE_SIZE[1] // stride
    maps = HeadMaps.zeros(gh, gw)
    for obj in scene:
        if obj.kps.n_visible == 0:
            continue
        left, top, right, bottom = bbox_2d(obj)
        area = max((right - left) * (bottom - top), 1.0)
        sigma = adaptive_sigma(area) / stride
        center_px = np.array([(left + right) / 2.0, (top + bottom) / 2.0])
        ccell = np.floor(center_px / stride).astype(int)
        ccell = np.clip(ccell, [0, 0], [gw - 1, gh - 1])
        _render_at(maps.main[:, :, 0], ccell, sigma)
        maps.center_offset[ccell[1], ccell[0], :] = center_px / stride - ccell
        rel = obj.kps.pts / stride - ccell
        maps.vertex_coord[ccell[1], ccell[0], :] = rel.reshape(-1)
        maps.dims[ccell[1], ccell[0], :] = (obj.box.dims - DIM_MEAN) / DIM_STD
        alpha = yaw_to_alpha(obj.box.yaw, obj.box.t)
        maps.orientation[ccell[1], ccell[0], :] = multibin_encode(alpha)
        maps.depth[ccell[1], ccell[0], 0] = math.log(obj.box.t[2])
        for k in range(9):
            if not obj.kps.visible[k]:
                continue
            vcell = np.floor(obj.kps.pts[k] / stride).astype(int)
            if not (0 <= vcell[0] < gw and 0 <= vcell[1] < gh):
                continue
            _render_at(maps.vertex[:, :, k], vcell, sigma)
            maps.vertex_offset[vcell[1], vcell[0], :] = obj.kps.pts[k] / stride - vcell
    return maps


def _render_at(plane, cell, sigma) -> None:
    render_gaussian(plane, (int(cell[0]), int(cell[1])), max(sigma, 1e-3))


# ---------------------------------------------------------------------------
# Plain-text scene serialization (see README for the formats).


def scene_gt_text(scene: list[SceneObject]) -> str:
    """Ground-truth boxes as KITTI-format label lines (6-decimal floats)."""
    lines = [format_label(box3d_to_label(obj.box, bbox=bbox_2d(obj)), 6) for obj in scene]
    return "".join(line + "\n" for line in lines)


def scene_priors_text(scene: list[SceneObject]) -> str:
    """Prior values mirrored into KITTI label fields.

    dimensions carry the dimension prior, rotation_y the orientation
    prior, and location z the center-depth prior.
    """
    lines = []
    for obj in scene:
        p = obj.priors
        box = Box3D(
            dims=p.d_hat if p.d_hat is not None else DIM_MEAN,
            t=np.array([0.0, 0.0, p.z_hat if p.z_hat is not None else 1.0]),
            yaw=p.theta_hat if p.theta_hat is not None else 0.0,
        )
        lines.append(format_label(box3d_to_label(box, bbox=bbox_2d(obj)), 6))
    return "".join(line + "\n" for line in lines)


def keypoints_sidecar_text(scene: list[SceneObject]) -> str:
    """One line per object: nine 'u v conf' triples; conf 0 means invisible."""
    lines = []
    for obj in scene:
        triples = []
        for k in range(9):
            c = obj.kps.conf[k] if obj.kps.visible[k] else 0.0
            triples.append(f"{obj.kps.pts[k, 0]:.6f} {obj.kps.pts[k, 1]:.6f} {c:.6f}")
        lines.append(" ".join(triples))
    return "".join(line + "\n" for line in lines)


def parse_keypoints_sidecar(text: str, source="keypoint sidecar") -> list[KeypointSet]:
    """Keypoint sets from sidecar text; ``source`` names the file in errors."""
    sets = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vals = [float(t) for t in line.split()]
        except ValueError as e:
            raise InputError(f"{source}, line {line_no}: {e}") from None
        if len(vals) != 27:
            raise InputError(f"{source}, line {line_no}: {len(vals)} values, expected 27")
        arr = np.array(vals).reshape(9, 3)
        conf = np.clip(arr[:, 2], 0.0, 1.0)
        visible = arr[:, 2] > 0.0
        sets.append(KeypointSet(pts=arr[:, :2], conf=conf, visible=visible))
    return sets


def parse_scene_objects(
    priors_text: str,
    keypoints_text: str,
    keypoints_source="keypoint sidecar",
    priors_source="priors file",
) -> list[tuple[KeypointSet, Priors]]:
    """Rebuild solver inputs from the priors file and keypoint sidecar; the
    sources name the files in errors."""
    labels = parse_labels(priors_text, priors_source)
    kp_sets = parse_keypoints_sidecar(keypoints_text, keypoints_source)
    if len(labels) != len(kp_sets):
        raise InputError(
            f"{keypoints_source}: {len(kp_sets)} objects, but the priors file has {len(labels)}"
        )
    out = []
    for i, (label, kps) in enumerate(zip(labels, kp_sets)):
        try:
            priors = Priors(
                d_hat=np.array(label.dimensions),
                theta_hat=label.rotation_y,
                z_hat=label.location[2],
            )
        except ValueError as e:
            raise InputError(f"{priors_source}, object {i}: {e}") from None
        out.append((kps, priors))
    return out
