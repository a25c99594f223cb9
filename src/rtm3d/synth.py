"""Synthetic ground-truth scenes standing in for a trained detector.

Scenes sample boxes in front of a pinhole camera, project their nine
keypoints, and optionally encode the full set of head maps, so the
solver and decoder can be verified end-to-end without a network.  A
scene is held as arrays (:class:`SceneArrays`) from its draws to its
text and head maps, and ``rtm3d synth`` draws, perturbs and formats a
block of frames at a time (:func:`blocks`); :class:`SceneObject` lists
serve the per-object API.
The text formats are :mod:`rtm3d.kitti`'s, which also reads them back, and
the per-object records are :mod:`rtm3d.geometry`'s, so synth loads no solver.
"""

from __future__ import annotations

import itertools
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
    "blocks",
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
# The 36 pairs (i, j), i < j, of a box's nine keypoints: i in row 0, j in row 1.
_PAIRS = np.array(list(itertools.combinations(range(9), 2))).T
# Camera y of a box's bottom face.
HEIGHT_RANGE = (1.4, 1.8)
# Spec bounds: cars per frame, and the magnitude (m, px or rad) of a range end
# or noise sigma, whose inverse bounds depths and positive sigmas from below.
# Within them every draw, projection and 6-decimal text value stays finite, and
# every depth positive.
MAX_OBJECTS = 10_000
SPEC_LIMIT = 1e6
# Boxes per block of ``rtm3d synth`` (:func:`blocks`), which draws, perturbs and
# formats a block at a time: its memory stays flat in the frame count, and the
# block size changes no byte.
BLOCK_OBJECTS = 32
# Draws a box may take before it keeps its last (:meth:`SceneArrays.draw`).
ATTEMPTS = 200


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


def _truncated_z(rng) -> list[float]:
    """A standard-normal 3-vector truncated at 3: while any |z_i| > 3, a
    whole fresh 3-vector is drawn, and its entries replace those beyond 3."""
    z = rng.normal(0.0, 1.0, size=3).tolist()
    while max(map(abs, z)) > 3.0:
        z = [new if abs(old) > 3.0 else old for old, new in zip(z, rng.normal(0.0, 1.0, size=3).tolist())]
    return z


def _keypoints(camera: CameraModel, dims, t, yaw) -> tuple[np.ndarray, np.ndarray]:
    """The nine keypoints (..., 9, 2) of boxes with dims and bottom centers
    (..., 3) and yaws (...), and which of them are visible: those behind the
    camera sit at (0, 0), and only those in front and inside the image are
    visible."""
    f, c = np.array([camera.fx, camera.fy]), np.array([camera.cx, camera.cy])
    with np.errstate(divide="ignore", invalid="ignore"):
        uv, behind = pinhole(f, c, camera.t_cam, box_points(dims, t, rot_y(yaw)))
    pts = np.where(behind[..., None], 0.0, uv)
    return pts, ~behind & ((pts >= 0) & (pts < _IMAGE_LIMIT)).all(axis=-1)


def _placed(pts: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """The placement rule, per box of keypoints (..., 9, 2): all nine visible,
    on nine distinct head-map cells."""
    cells = np.floor(pts / DOWNSAMPLE)
    shared = (cells[..., _PAIRS[0], :] == cells[..., _PAIRS[1], :]).all(axis=-1).any(axis=-1)
    return visible.all(axis=-1) & ~shared


def _clipped_boxes(pts: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """:func:`~rtm3d.kitti.keypoint_boxes` clipped to the image."""
    return np.clip(kitti.keypoint_boxes(pts, visible), 0, np.tile(_IMAGE_LIMIT - 1, 2))


def blocks(frames: int, n_objects: int) -> list[range]:
    """Frames 0 to ``frames`` - 1 in consecutive blocks of at most
    :data:`BLOCK_OBJECTS` boxes of ``n_objects`` each, and one frame at least."""
    step = max(1, BLOCK_OBJECTS // max(n_objects, 1))
    return [range(first, min(first + step, frames)) for first in range(0, frames, step)]


class SceneArrays(NamedTuple):
    """Scenes' objects as arrays, n along the first axis: ground-truth
    boxes, keypoints and priors.  Frames of one block follow each other,
    each of equal size."""

    dims: np.ndarray  # (n, 3) box dimensions (h, w, l)
    t: np.ndarray  # (n, 3) bottom centers
    yaw: np.ndarray  # (n,) yaws
    pts: np.ndarray  # (n, 9, 2) keypoints
    conf: np.ndarray  # (n, 9) keypoint confidences
    visible: np.ndarray  # (n, 9) keypoint visibility
    d_hat: np.ndarray  # (n, 3) dimension priors
    theta_hat: np.ndarray  # (n,) yaw priors
    z_hat: np.ndarray  # (n,) depth priors
    placed: np.ndarray  # (n,) whether the box meets the placement rule, as drawn

    @staticmethod
    def draw(spec: SceneSpec, camera: CameraModel, frames: int = 1) -> "SceneArrays":
        """The scenes :func:`generate_scene` describes of ``frames`` frames,
        frame k of seed ``spec.seed + k``, its boxes rows k n to (k + 1) n.
        Each frame keeps :func:`generate_scene`'s draws, in its order.

        A frame's generator yields one stream of attempts, which its boxes
        take in turn: each box the attempts up to its first placed one, or
        its :data:`ATTEMPTS` and the last of them kept.  So each round draws
        one attempt per box a frame has left, all of which the frame uses,
        for every frame at once, and checks the placement rule on all of
        them in one batch."""
        n = spec.n_objects
        rngs = [np.random.default_rng(spec.seed + k) for k in range(frames)]
        # Depth, lateral, height and yaw are uniform on [low, low + span).
        low = np.array([spec.depth_range[0], spec.lateral_range[0], HEIGHT_RANGE[0], -math.pi])
        span = np.array([spec.depth_range[1], spec.lateral_range[1], HEIGHT_RANGE[1], math.pi]) - low
        dims, t, yaw = np.empty((frames * n, 3)), np.empty((frames * n, 3)), np.empty(frames * n)
        pts, visible = np.empty((frames * n, 9, 2)), np.empty((frames * n, 9), dtype=bool)
        placed = np.empty(frames * n, dtype=bool)
        # Each frame with boxes left: the row of its current box, and the attempts that box has left.
        state = {k: (k * n, ATTEMPTS) for k in range(frames) if n}
        while state:
            z, u, owner = [], [], []
            for k, (row, _) in state.items():
                rng = rngs[k]
                for _ in range((k + 1) * n - row):
                    z.append(_truncated_z(rng))
                    u.append(rng.uniform(size=4))
                    owner.append(k)
            u = low + span * np.array(u)
            d, ti = DIM_MEAN + DIM_STD * np.array(z), u[:, [1, 2, 0]]
            y = np.array([wrap_to_pi(a) for a in u[:, 3].tolist()])
            p, v = _keypoints(camera, d, ti, y)
            ok = _placed(p, v)
            last = {}  # row -> the round's last attempt at it
            for j, (k, done) in enumerate(zip(owner, ok.tolist())):
                row, left = state[k]
                last[row] = j
                if done or left == 1:
                    state[k] = (row + 1, ATTEMPTS)
                    if row + 1 == (k + 1) * n:
                        del state[k]
                else:
                    state[k] = (row, left - 1)
            rows, j = list(last), list(last.values())
            for kept, drawn in zip((dims, t, yaw, pts, visible, placed), (d, ti, y, p, v, ok)):
                kept[rows] = drawn[j]
        return SceneArrays(dims, t, yaw, pts, np.where(visible, 1.0, 0.0), visible, dims.copy(), yaw.copy(),
                           t[:, 2].copy(), placed)

    def unplaced(self) -> int:
        """How many boxes break the placement rule: those kept when :meth:`draw` ran out of draws."""
        return int(np.count_nonzero(~self.placed))

    def take(self, rows) -> "SceneArrays":
        """The scene of the rows ``rows`` (a slice, indices or a mask)."""
        return SceneArrays(*(a[rows] for a in self))

    def noisy(self, noise: NoiseSpec, seed: int, frames: int = 1) -> "SceneArrays":
        """The scene :func:`apply_noise` describes, of ``frames`` frames of equal
        size, frame k drawing from seed ``seed + k``."""
        n, per = len(self.yaw), len(self.yaw) // frames
        offsets, u_drop = np.zeros((n, 9, 2)), np.ones((n, 9))
        e_dim, e_yaw, e_depth = np.zeros((n, 3)), np.zeros(n), np.zeros(n)
        for k in range(frames):
            rng = np.random.default_rng(seed + k)
            for i in range(k * per, (k + 1) * per):  # Each object's draws, in this order.
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

        pts, visible = stack((o.kps.pts for o in scene), 9, 2), stack((o.kps.visible for o in scene), 9, dtype=bool)
        return SceneArrays(
            dims=stack((o.box.dims for o in scene), 3),
            t=stack((o.box.t for o in scene), 3),
            yaw=stack(o.box.yaw for o in scene),
            pts=pts,
            conf=stack((o.kps.conf for o in scene), 9),
            visible=visible,
            d_hat=stack((o.priors.d_hat for o in scene), 3),
            theta_hat=stack(o.priors.theta_hat for o in scene),
            z_hat=stack(o.priors.z_hat for o in scene),
            placed=_placed(pts, visible),
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

    def gt_lines(self) -> list[str]:
        """Ground-truth boxes as KITTI-format label lines (6-decimal floats), one per row."""
        bbox = _clipped_boxes(self.pts, self.visible)
        return kitti.car_lines(self.dims, self.t, self.yaw, bbox, decimals=6)

    def priors_lines(self) -> list[str]:
        """The priors lines (:func:`~rtm3d.kitti.priors_lines`), with the clipped image boxes of the keypoints."""
        return kitti.priors_lines(self.d_hat, self.theta_hat, self.z_hat, _clipped_boxes(self.pts, self.visible))

    def sidecar_lines(self) -> list[str]:
        """The keypoint sidecar lines (:func:`~rtm3d.kitti.sidecar_lines`)."""
        return kitti.sidecar_lines(self.pts, self.conf, self.visible)

    def headmaps(self, maps: HeadMaps | None = None) -> HeadMaps:
        """The scene's head maps (:func:`~rtm3d.heatmaps.encode_objects`) drawn on
        ``maps``, all-zero planes of :data:`GRID`, or else on fresh float64 ones."""
        alpha = [yaw_to_alpha(y, t) for y, t in zip(self.yaw.tolist(), self.t)]
        return encode_objects(HeadMaps.zeros(*GRID) if maps is None else maps, _clipped_boxes(self.pts, self.visible),
                              self.pts, self.visible, self.dims, alpha, self.t[:, 2])


def generate_scene(spec: SceneSpec, camera: CameraModel | None = None) -> list[SceneObject]:
    """Sample ground-truth boxes and project their keypoints.

    Deterministic under a fixed (spec, seed); priors are exact copies of
    the ground truth until noise is applied.  The draws come from
    ``numpy.random.default_rng(spec.seed)``, box after box, one attempt at a
    time.  An attempt draws the dimensions, then depth, lateral offset,
    height and yaw, each uniform on its range.  The dimensions are
    ``DIM_MEAN + DIM_STD * z`` for a standard-normal 3-vector z truncated
    at 3: while any |z_i| > 3, a whole fresh 3-vector is drawn, and its
    entries replace those beyond 3.  A box takes attempts until all nine
    keypoints project inside the image on distinct head-map cells, at most
    :data:`ATTEMPTS` (200), and else keeps its last: the sub-cell offset
    plane is shared across keypoint channels, so keypoints sharing a cell
    are not exactly encodable.  ``rtm3d synth`` draws frame f from seed
    ``seed + f``.
    """
    return SceneArrays.draw(spec, camera or default_camera()).objects()


def apply_noise(scene: list[SceneObject], noise: NoiseSpec, seed: int = 0) -> list[SceneObject]:
    """Perturb keypoints and priors; dropped keypoints become invisible.

    Confidence decays with the injected pixel offset so the solver's
    softmax weighting is exercised: conf = exp(-|n|^2 / (2 sigma^2)),
    clipped to [0.05, 1].  The draws come from
    ``numpy.random.default_rng(seed)``, object after object: each draws its
    pixel offsets (9 x 2 normal), dropout (9 uniform), dimension (3
    normal), yaw (1 normal) and depth noise (1 normal) in that order, each
    only if enabled.  ``rtm3d synth`` perturbs frame f with seed
    ``seed + f + 1_000_003``.
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
    return "".join(SceneArrays.of(scene).gt_lines())


def scene_priors_text(scene: list[SceneObject]) -> str:
    """The priors file of :meth:`SceneArrays.priors_lines`."""
    return "".join(SceneArrays.of(scene).priors_lines())


def keypoints_sidecar_text(scene: list[SceneObject]) -> str:
    """The keypoint sidecar of :meth:`SceneArrays.sidecar_lines`."""
    return "".join(SceneArrays.of(scene).sidecar_lines())


def parse_scene_objects(priors_text: str, keypoints_text: str, keypoints_source="keypoint sidecar",
                        priors_source="priors file") -> list[tuple[KeypointSet, Priors]]:
    """Per-object keypoints and priors of :func:`~rtm3d.kitti.parse_solve_inputs`."""
    s = kitti.parse_solve_inputs(priors_text, keypoints_text, default_camera(), keypoints_source, priors_source)
    return [
        (KeypointSet(pts=s.kp[i], conf=s.conf[i], visible=s.vis[i]), Priors(d_hat=s.d_hat[i], theta_hat=theta, z_hat=z))
        for i, (theta, z) in enumerate(zip(s.theta_hat.tolist(), s.z_hat.tolist()))
    ]
