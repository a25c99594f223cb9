"""Dense detection-head map encoding and decoding.

All maps are numpy arrays shaped (H, W) or (H, W, C) on the downsampled
grid (stride :data:`DOWNSAMPLE`): Gaussian and multi-bin targets, the
encoder (:func:`encode_objects`), its inverse by peak extraction, keypoint
grouping and per-cell readout (:func:`decode_objects`), and the ``.rtmh``
file format.  The package is numpy-only and trains nothing: :func:`focal_loss`,
:func:`regression_losses` and :func:`kfpn_fuse` are plain forward evaluations
of the paper's losses and scale fusion.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import KeypointSet, wrap_to_pi
from .kitti import InputError

__all__ = [
    "GroundTruthObject",
    "GroupedObject",
    "GroupingConfig",
    "HeadMaps",
    "NonPositiveDimensionStandardization",
    "adaptive_sigma",
    "decode_objects",
    "dimension_target",
    "encode_objects",
    "extract_peaks",
    "focal_loss",
    "group_keypoints",
    "kfpn_fuse",
    "multibin_decode",
    "multibin_encode",
    "read_headmaps",
    "regression_losses",
    "render_gaussian",
    "write_headmaps",
]

DOWNSAMPLE = 4
MAIN_THRESHOLD = 0.4
KEYPOINT_THRESHOLD = 0.1
TOPK = 100  # peaks kept per channel
# Grouping: how far (grid cells) a vertex peak may lie from its regressed
# keypoint, and the confidence of a keypoint that no peak matched.
MATCH_RADIUS = 4.0
FALLBACK_CONF = 0.05
# Gaussian target spread (px), linear in 2D box area (px^2) between the
# area bounds and clamped to the spread bounds outside them.
SIGMA_MIN, SIGMA_MAX = 3.0, 19.0
AREA_MIN, AREA_MAX = 500.0, 200000.0

# Standardization statistics for car dimensions (h, w, l): the dataset's
# mean car and its spread.
DIM_MEAN = np.array([1.53, 1.62, 3.89])
DIM_STD = np.array([0.13, 0.10, 0.41])

MULTIBIN_CENTERS = (-math.pi / 2.0, math.pi / 2.0)


class NonPositiveDimensionStandardization(ValueError):
    """log() of the standardized dimension residual is undefined."""


def adaptive_sigma(area: float) -> float:
    """Spread for an object of the given 2D box area (px^2), clamped."""
    if area <= 0:
        raise ValueError("area must be positive")
    sigma = area * (SIGMA_MAX - SIGMA_MIN) / (AREA_MAX - AREA_MIN)
    return min(max(sigma, SIGMA_MIN), SIGMA_MAX)


# exp(-x) rounds to +0 in float32 once x exceeds this: below half the
# smallest float32 subnormal, round-to-nearest-even gives zero.
_F32_ZERO_EXPONENT = -math.log(float(np.finfo(np.float32).smallest_subnormal) / 2.0)


def _bump_radius(sigma: float) -> int:
    """Half-width in cells of the window :func:`render_gaussian` draws: the
    distance r with r^2 = 2*sigma*_F32_ZERO_EXPONENT, plus a one-cell margin."""
    return int(math.sqrt(2.0 * sigma * _F32_ZERO_EXPONENT)) + 1


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """The whole (2r + 1, 2r + 1) bump :func:`render_gaussian` draws at spread
    ``sigma``, centred, with r = :func:`_bump_radius`, in float64."""
    d2 = np.arange(-(r := _bump_radius(sigma)), r + 1) ** 2
    return np.exp(-(d2 + d2[:, None]) / (2.0 * sigma))


def _stamp(plane: np.ndarray, kernel: np.ndarray, cx: int, cy: int) -> np.ndarray | None:
    """Max-compose ``kernel`` centred on cell (cx, cy) of a 2D plane, clipped
    to the plane; the window of ``plane`` drawn, or None when it is empty."""
    r, (h, w) = len(kernel) // 2, plane.shape
    y0, y1 = max(cy - r, 0), min(cy + r + 1, h)
    x0, x1 = max(cx - r, 0), min(cx + r + 1, w)
    if y0 >= y1 or x0 >= x1:
        return None
    window = plane[y0:y1, x0:x1]
    np.maximum(window, kernel[y0 - cy + r:y1 - cy + r, x0 - cx + r:x1 - cx + r], out=window)
    return window


def render_gaussian(heatmap, center, sigma):
    """Max-compose a Gaussian bump onto a 2D map, value 1 at the center cell.

    The kernel divides by 2*sigma, not the conventional 2*sigma^2.  Only the
    cells within :func:`_bump_radius` (about sqrt(207.9*sigma) + 1 cells:
    13 at sigma 0.75, 32 at sigma 4.75) of the center on either axis are
    drawn.  Every cell beyond that would get a value below half the smallest
    float32 subnormal (about 7e-46), which rounds to +0 in float32; since
    max-composition and rounding are both monotone, the float32 planes
    :func:`write_headmaps` stores are the same as with an untruncated bump.
    In-memory float64 maps differ only in such sub-7e-46 values.  The bump is
    computed in float64 for any map dtype; by the same monotonicity, composing
    into a float32 map gives the float32 cast of composing into a float64 one.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    _stamp(heatmap, _gaussian_kernel(sigma), int(round(center[0])), int(round(center[1])))
    return heatmap


@dataclass
class HeadMaps:
    """Detection-head output planes on the :data:`DOWNSAMPLE` grid, shaped (H, W, C)."""

    main: np.ndarray
    vertex: np.ndarray
    vertex_coord: np.ndarray
    center_offset: np.ndarray
    vertex_offset: np.ndarray
    dims: np.ndarray
    orientation: np.ndarray
    depth: np.ndarray
    # Views of the windows and cells encode_objects drew, which clear() zeroes.
    drawn: list = field(default_factory=list, repr=False, compare=False)

    # (name, channels) in ``.rtmh`` file order; ``main``'s one class is kitti.CATEGORY.
    PLANES = (
        ("main", 1),
        ("vertex", 9),
        ("vertex_coord", 18),
        ("center_offset", 2),
        ("vertex_offset", 2),
        ("dims", 3),
        ("orientation", 8),
        ("depth", 1),
    )

    @staticmethod
    def zeros(height: int, width: int, dtype=np.float64) -> "HeadMaps":
        """All-zero planes of ``dtype``, each shaped (height, width, channels):
        the planes :func:`encode_objects` draws on, and where their dtype is chosen."""
        return HeadMaps(**{name: np.zeros((height, width, c), dtype) for name, c in HeadMaps.PLANES})

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.main.shape[0], self.main.shape[1]

    def clear(self) -> None:
        """Zero the windows and cells :func:`encode_objects` drew on these
        planes since the last clear, and only those: planes that were all
        zero before it drew are all zero again, ready for its next call."""
        for view in self.drawn:
            view.fill(0)
        self.drawn.clear()


def focal_loss(pred, target, alpha=2.0, beta=4.0):
    """Penalty-reduced focal loss over heatmap cells.

    Cells with target exactly 1 are positives; N is the positive count,
    clamped to at least one.  Predictions are clamped away from {0, 1}.
    """
    pred = np.clip(np.asarray(pred, dtype=float), 1e-12, 1.0 - 1e-12)
    target = np.asarray(target, dtype=float)
    pos = target == 1.0
    n = max(int(pos.sum()), 1)
    pos_loss = ((1.0 - pred) ** alpha * np.log(pred))[pos].sum()
    neg_loss = (((1.0 - target) ** beta) * (pred**alpha) * np.log(1.0 - pred))[~pos].sum()
    return float(-(pos_loss + neg_loss) / n)


def kfpn_fuse(scales):
    """Per-cell softmax-weighted fusion of same-shape score maps."""
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    shape = scales[0].shape
    for s in scales:
        if s.shape != shape:
            raise ValueError("all scales must share one shape")
    stack = np.stack([np.asarray(s, dtype=float) for s in scales], axis=0)
    e = np.exp(stack - stack.max(axis=0, keepdims=True))
    weights = e / e.sum(axis=0, keepdims=True)
    return (stack * weights).sum(axis=0)


def _pool3_at(maps: np.ndarray, ys, xs, cs) -> np.ndarray:
    """3x3 max over the first two axes of an (H, W, C) stack at the cells
    (ys, xs, cs) only.  Neighbours beyond the edge count as -inf: a clipped
    index lands on a cell already inside the 3x3 window, which cannot raise
    its maximum.  A NaN neighbour makes the maximum NaN."""
    h, w = maps.shape[:2]
    pooled = maps[ys, xs, cs]
    for dy in (-1, 0, 1):
        yy = np.clip(ys + dy, 0, h - 1)
        for dx in (-1, 0, 1):
            np.maximum(pooled, maps[yy, np.clip(xs + dx, 0, w - 1), cs], out=pooled)
    return pooled


def extract_peaks(maps, threshold, topk=TOPK):
    """Local maxima after 3x3 max pooling, per channel.

    Returns a list of ((x, y), score, channel) sorted by descending score,
    at most ``topk`` per channel, so none when ``topk`` <= 0.  Plateau ties
    are broken greedily so no two returned peaks on one channel share a 3x3
    neighborhood.  Only cells at or above ``threshold`` are pooled, so the
    cost beyond one pass over the stack grows with the candidates, not the
    grid.  A float32 stack is read as it is and the rest as float64, both
    tested in float64.
    """
    maps = np.asarray(maps)
    maps = maps if maps.dtype == np.float32 else maps.astype(float, copy=False)
    if maps.ndim == 2:
        maps = maps[:, :, None]
    ys, xs, cs = np.unravel_index(np.flatnonzero(np.greater_equal(maps, threshold, signature="dd->?")), maps.shape)
    scores = maps[ys, xs, cs]
    peak = scores == _pool3_at(maps, ys, xs, cs)
    ys, xs, cs, scores = ys[peak], xs[peak], cs[peak], scores[peak]
    order = np.lexsort((xs, ys, -scores, cs))
    peaks = []
    channel, kept, full = None, set(), False
    for y, x, c, score in zip(*(a[order].tolist() for a in (ys, xs, cs, scores))):
        if c != channel:
            channel, kept, full = c, set(), topk <= 0
        if full or any((y + dy, x + dx) in kept for dy in (-1, 0, 1) for dx in (-1, 0, 1)):
            continue
        kept.add((y, x))
        peaks.append(((x, y), score, c))
        full = len(kept) >= topk
    peaks.sort(key=lambda p: -p[1])
    return peaks


@dataclass(frozen=True)
class GroupingConfig:
    """Peak thresholds and the peak cap of :func:`decode_objects`."""

    main_threshold: float = MAIN_THRESHOLD
    keypoint_threshold: float = KEYPOINT_THRESHOLD
    topk: int = TOPK


@dataclass
class GroupedObject:
    """One decoded object: anchor point, score, keypoints and priors."""

    center: np.ndarray  # maincenter in pixels, offset-refined
    score: float
    category: int
    kps: KeypointSet
    d_hat: np.ndarray
    alpha_hat: float
    z_hat: float


def multibin_encode(alpha: float) -> np.ndarray:
    """Two-bin orientation code: per bin (in, out) scores plus (cos, sin)."""
    alpha = wrap_to_pi(alpha)
    out = np.zeros(8)
    d0 = abs(wrap_to_pi(alpha - MULTIBIN_CENTERS[0]))
    d1 = abs(wrap_to_pi(alpha - MULTIBIN_CENTERS[1]))
    chosen = 0 if d0 <= d1 else 1
    for i, center in enumerate(MULTIBIN_CENTERS):
        resid = wrap_to_pi(alpha - center)
        out[4 * i] = 1.0 if i == chosen else 0.0
        out[4 * i + 1] = 0.0 if i == chosen else 1.0
        out[4 * i + 2] = math.cos(resid)
        out[4 * i + 3] = math.sin(resid)
    return out


def multibin_decode(code: np.ndarray) -> float:
    """Angle from a two-bin code; equal bin scores favor the lower bin."""
    code = np.asarray(code, dtype=float).reshape(8)
    s0 = code[0] - code[1]
    s1 = code[4] - code[5]
    i = 0 if s0 >= s1 else 1
    return wrap_to_pi(MULTIBIN_CENTERS[i] + math.atan2(code[4 * i + 3], code[4 * i + 2]))


def group_keypoints(
    main_peaks, vertex_peaks, maps: HeadMaps, config: GroupingConfig = GroupingConfig()
):
    """Group vertex peaks around maincenter peaks into decoded objects.

    For each maincenter, the regressed keypoint positions (maincenter cell
    plus the coordinate-regression vector) pick the nearest same-channel
    vertex peak within :data:`MATCH_RADIUS` cells, the first listed of
    equally near peaks; a NaN distance never matches.  Unmatched keypoints
    keep their regressed position at :data:`FALLBACK_CONF` and are flagged
    invisible.  Final coordinates are sub-cell refined by the offset planes
    and scaled back to input pixels.  ``config`` is not read; it stays in
    the signature because existing callers pass it.
    """
    # The vertex peaks as aligned arrays, and which keypoint each may serve.
    xy = np.array([p[0] for p in vertex_peaks], dtype=int).reshape(-1, 2)
    score = np.array([p[1] for p in vertex_peaks], dtype=float)
    on_channel = np.array([p[2] for p in vertex_peaks], dtype=int) == np.arange(9)[:, None]

    objects = []
    for (mx, my), mscore, mclass in main_peaks:
        regressed = np.array([mx, my], dtype=float) + maps.vertex_coord[my, mx, :].reshape(9, 2)
        d = np.hypot(*(xy - regressed[:, None]).transpose(2, 0, 1))  # (9, peaks)
        near = on_channel & (d <= MATCH_RADIUS)
        visible = near.any(axis=1)
        pts = regressed * DOWNSAMPLE
        conf = np.full(9, FALLBACK_CONF)
        if visible.any():
            j = np.where(near, d, np.inf)[visible].argmin(axis=1)
            px, py = xy[j].T
            pts[visible] = (xy[j] + maps.vertex_offset[py, px, :]) * DOWNSAMPLE
            conf[visible] = np.clip(score[j], 0.0, 1.0)
        center = (np.array([mx, my], dtype=float) + maps.center_offset[my, mx, :]) * DOWNSAMPLE
        d_hat = DIM_MEAN + DIM_STD * maps.dims[my, mx, :]
        alpha_hat = multibin_decode(maps.orientation[my, mx, :])
        # exp of the float64 value: a float32 exp would round z_hat differently.
        z_hat = float(np.exp(float(maps.depth[my, mx, 0])))
        objects.append(
            GroupedObject(
                center=center,
                score=float(mscore),
                category=int(mclass),
                kps=KeypointSet(pts=pts, conf=conf, visible=visible),
                d_hat=d_hat,
                alpha_hat=alpha_hat,
                z_hat=z_hat,
            )
        )
    return objects


def decode_objects(maps: HeadMaps, config: GroupingConfig = GroupingConfig()):
    """Peak extraction plus grouping in one call."""
    main_peaks = extract_peaks(maps.main, config.main_threshold, config.topk)
    vertex_peaks = extract_peaks(maps.vertex, config.keypoint_threshold, config.topk)
    return group_keypoints(main_peaks, vertex_peaks, maps)


def encode_objects(maps: HeadMaps, boxes, pts, visible, dims, alpha, depth) -> HeadMaps:
    """Draw n objects on ``maps``, all-zero planes of any grid and dtype, in
    the values :func:`decode_objects` reads back, and return ``maps``: 2D
    boxes (n, 4) (left, top, right, bottom), keypoints (n, 9, 2) and their
    visibility (n, 9), dims (n, 3), observation angles (n,) and depths (n,).
    README "Head maps" lists what each plane gets.  An object with no visible
    keypoint writes nothing; on a shared cell the later wins.

    Every value is computed in float64 and rounded once into the planes'
    dtype, so float32 planes equal the float64 ones cast to float32.  An
    object's Gaussian kernel is computed once and each of its bumps composes
    a slice of it.  What it draws is recorded for :meth:`HeadMaps.clear`."""
    s, (gh, gw) = DOWNSAMPLE, maps.grid_shape
    boxes, pts, visible = np.asarray(boxes, dtype=float), np.asarray(pts, dtype=float), np.asarray(visible)
    area = np.maximum((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]), 1.0)
    center = (boxes[:, :2] + boxes[:, 2:]) / 2.0
    ccell = np.clip(np.floor(center / s).astype(int), 0, [gw - 1, gh - 1])
    drawn = maps.drawn
    for i in np.flatnonzero(visible.any(axis=1)):
        (cx, cy), kernel = ccell[i].tolist(), _gaussian_kernel(adaptive_sigma(area[i]) / s)
        drawn.append(_stamp(maps.main[:, :, 0], kernel, cx, cy))
        maps.center_offset[cy, cx] = center[i] / s - ccell[i]
        maps.vertex_coord[cy, cx] = (pts[i] / s - ccell[i]).reshape(-1)
        maps.dims[cy, cx] = (dims[i] - DIM_MEAN) / DIM_STD
        maps.orientation[cy, cx] = multibin_encode(alpha[i])
        maps.depth[cy, cx, 0] = math.log(depth[i])
        drawn += [maps.center_offset[cy, cx], maps.vertex_coord[cy, cx], maps.dims[cy, cx],
                  maps.orientation[cy, cx], maps.depth[cy, cx]]
        ks = np.flatnonzero(visible[i])
        vcell = np.floor(pts[i, ks] / s).astype(int)
        for k, (vx, vy), offset in zip(ks.tolist(), vcell.tolist(), pts[i, ks] / s - vcell):
            if 0 <= vx < gw and 0 <= vy < gh:
                drawn.append(_stamp(maps.vertex[:, :, k], kernel, vx, vy))
                maps.vertex_offset[vy, vx] = offset
                drawn.append(maps.vertex_offset[vy, vx])
    return maps


# ---------------------------------------------------------------------------
# Losses


@dataclass(frozen=True)
class GroundTruthObject:
    """Per-object supervision for the regression losses.

    ``cell`` is the integer maincenter grid cell (x, y); ``center_px`` and
    ``vertex_px`` are full-resolution positions; ``vertex_cells`` the
    integer grid cells of the eight corners plus center.
    """

    cell: tuple[int, int]
    dims: np.ndarray
    depth: float
    center_px: np.ndarray
    vertex_px: np.ndarray
    vertex_cells: np.ndarray


def dimension_target(dims) -> np.ndarray:
    """log of the standardized dimension residual used by the L_D loss."""
    ratio = (np.asarray(dims, dtype=float) - DIM_MEAN) / DIM_STD
    if np.any(ratio <= 0):
        raise NonPositiveDimensionStandardization(
            "standardized dimension residual must be positive for the log target"
        )
    return np.log(ratio)


def regression_losses(maps: HeadMaps, objects: list[GroundTruthObject]):
    """Forward evaluation of the regression terms against ground truth.

    Dimension, depth, maincenter-offset and vertex-coordinate terms are
    supervised at maincenter cells; the vertex-offset term at vertex cells.
    The depth plane stores log-depth.  Two targets differ from what
    :func:`encode_objects` writes: ``dims`` is the log of the standardized
    residual, and ``vertex_coord`` is measured from ``center_px``, not from
    the centre cell.  Acceptance criterion 4 pins both formulas; CHANGES.md's
    ``FOUND:`` on ``regression_losses`` has the measurement.
    """
    s = DOWNSAMPLE
    n = max(len(objects), 1)
    l_d = l_z = l_off_m = l_ver = 0.0
    l_off_v = 0.0
    n_ver = 0
    for obj in objects:
        cx, cy = obj.cell
        target_d = dimension_target(obj.dims)
        l_d += float(((maps.dims[cy, cx, :] - target_d) ** 2).sum()) / 3.0
        l_z += (maps.depth[cy, cx, 0] - math.log(obj.depth)) ** 2
        off_m = obj.center_px / s - np.floor(obj.center_px / s)
        l_off_m += float(np.abs(maps.center_offset[cy, cx, :] - off_m).sum()) / 2.0
        rel = (obj.vertex_px - obj.center_px[None, :]) / s
        vc = maps.vertex_coord[cy, cx, :].reshape(9, 2)
        l_ver += float(np.abs(vc[:8] - rel[:8]).sum())
        for k in range(9):
            vx, vy = obj.vertex_cells[k]
            off_v = obj.vertex_px[k] / s - np.floor(obj.vertex_px[k] / s)
            l_off_v += float(np.abs(maps.vertex_offset[vy, vx, :] - off_v).sum()) / 2.0
            n_ver += 1
    return {
        "dims": l_d / n,
        "depth": l_z / n,
        "center_offset": l_off_m / n,
        "vertex_offset": l_off_v / max(n_ver, 1),
        "vertex_coord": l_ver / n,
    }


# ---------------------------------------------------------------------------
# Binary tensor file, one per frame: magic "RTMH", u32 H, u32 W (little
# endian), then each plane of HeadMaps.PLANES in that order as (H, W, C)
# row-major little-endian f32: 12 + 4*H*W*44 bytes in all.

_MAGIC = b"RTMH"


def write_headmaps(path, maps: HeadMaps) -> None:
    """Store ``maps`` at ``path``; a plane not shaped (H, W, channels) of
    :attr:`HeadMaps.PLANES` raises ValueError before anything is written.
    The file replaces ``path`` atomically, so maps read from it earlier keep
    their bytes.  It stays dense: a sparse file made decode slower (README).
    C-contiguous float32 planes are written as they are, one write per plane
    and without a copy; any other plane is cast to a float32 copy first.
    The planes are only read, so maps drawn on planes reused across frames
    (:func:`encode_objects`) write the same bytes as fresh ones."""
    h, w = maps.grid_shape
    for name, c in HeadMaps.PLANES:
        if getattr(maps, name).shape != (h, w, c):
            raise ValueError(f"plane {name} is shaped {getattr(maps, name).shape}, not {(h, w, c)}")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC + struct.pack("<II", h, w))
            for name, _ in HeadMaps.PLANES:
                f.write(np.ascontiguousarray(getattr(maps, name), dtype="<f4"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_headmaps(path) -> HeadMaps:
    """The head maps :func:`write_headmaps` stored at ``path``, as the float32
    planes it stored; a bad magic, a truncated header or plane, or bytes past
    the last plane raise an InputError naming the file.  Each plane is a
    copy-on-write view of the mapped file, so untouched pages are never read;
    truncating the file in place while it is mapped is unsupported (SIGBUS)."""
    path = Path(path)
    with open(path, "rb") as f:
        header = f.read(12)
        if header[:4] != _MAGIC:
            raise InputError(f"{path}: bad magic, expected RTMH")
        if len(header) != 12:
            raise InputError(f"{path}: truncated header")
        h, w = struct.unpack("<II", header[4:])
        size = os.fstat(f.fileno()).st_size
        offsets, end = {}, 12
        for name, c in HeadMaps.PLANES:
            # Checked before mapping, so a corrupt header cannot ask for
            # more than the file holds.
            if 4 * h * w * c > size - end:
                raise InputError(f"{path}: truncated plane {name}")
            offsets[name], end = end, end + 4 * h * w * c
        if end != size:
            raise InputError(f"{path}: {size - end} byte(s) past the last plane of a {h}x{w} grid")
        data = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_COPY)
    return HeadMaps(**{name: np.frombuffer(data, "<f4", h * w * c, offsets[name]).reshape(h, w, c)
                       for name, c in HeadMaps.PLANES})
