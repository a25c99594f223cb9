"""Dense detection-head map encoding and decoding.

All maps are numpy arrays shaped (H, W) or (H, W, C) on the downsampled
grid (stride 4 by default).  Encoding renders training targets from
ground truth; decoding runs max-pool peak extraction, keypoint grouping
and per-cell regression readout.  Losses are plain forward evaluations
used as test oracles; there is no autodiff here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import KeypointSet, wrap_to_pi
from .kitti import InputError
from .solver import MEAN_CAR_DIMS as DIM_MEAN

__all__ = [
    "GaussianSpec",
    "GroupedObject",
    "GroupingConfig",
    "HeadMaps",
    "MultiTaskWeights",
    "NonPositiveDimensionStandardization",
    "adaptive_sigma",
    "extract_peaks",
    "focal_loss",
    "group_keypoints",
    "kfpn_fuse",
    "multibin_decode",
    "multibin_encode",
    "multitask_loss",
    "read_headmaps",
    "regression_losses",
    "render_gaussian",
    "resize_bilinear",
    "write_headmaps",
]

DOWNSAMPLE = 4
MAIN_THRESHOLD = 0.4
KEYPOINT_THRESHOLD = 0.1

# Standardization statistics for car dimensions (h, w, l): DIM_MEAN is the
# solver's mean car, DIM_STD its spread.
DIM_STD = np.array([0.13, 0.10, 0.41])

MULTIBIN_CENTERS = (-math.pi / 2.0, math.pi / 2.0)


class NonPositiveDimensionStandardization(ValueError):
    """log() of the standardized dimension residual is undefined."""


@dataclass(frozen=True)
class GaussianSpec:
    """Adaptive Gaussian target spread, linear in 2D box area."""

    sigma_max: float = 19.0
    sigma_min: float = 3.0
    a_max: float = 200000.0
    a_min: float = 500.0

    def __post_init__(self):
        if not (self.sigma_max > self.sigma_min > 0):
            raise ValueError("need sigma_max > sigma_min > 0")
        if not (self.a_max > self.a_min > 0):
            raise ValueError("need a_max > a_min > 0")


def adaptive_sigma(area: float, spec: GaussianSpec = GaussianSpec()) -> float:
    """Spread for an object of the given 2D box area (px^2), clamped."""
    if area <= 0:
        raise ValueError("area must be positive")
    sigma = area * (spec.sigma_max - spec.sigma_min) / (spec.a_max - spec.a_min)
    return min(max(sigma, spec.sigma_min), spec.sigma_max)


# exp(-x) rounds to +0 in float32 once x exceeds this: below half the
# smallest float32 subnormal, round-to-nearest-even gives zero.
_F32_ZERO_EXPONENT = -math.log(float(np.finfo(np.float32).smallest_subnormal) / 2.0)


def _bump_radius(sigma: float) -> int:
    """Half-width in cells of the window :func:`render_gaussian` draws: the
    distance r with r^2 = 2*sigma*_F32_ZERO_EXPONENT, plus a one-cell margin."""
    return int(math.sqrt(2.0 * sigma * _F32_ZERO_EXPONENT)) + 1


def render_gaussian(heatmap, center, sigma):
    """Max-compose a Gaussian bump onto a 2D map, value 1 at the center cell.

    The kernel divides by 2*sigma, not the conventional 2*sigma^2.  Only the
    cells within :func:`_bump_radius` (about sqrt(207.9*sigma) + 1 cells:
    13 at sigma 0.75, 32 at sigma 4.75) of the center on either axis are
    drawn.  Every cell beyond that would get a value below half the smallest
    float32 subnormal (about 7e-46), which rounds to +0 in float32; since
    max-composition and rounding are both monotone, the float32 planes
    :func:`write_headmaps` stores are the same as with an untruncated bump.
    In-memory float64 maps differ only in such sub-7e-46 values.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    h, w = heatmap.shape
    cx, cy = int(round(center[0])), int(round(center[1]))
    r = _bump_radius(sigma)
    y0, y1 = max(cy - r, 0), min(cy + r + 1, h)
    x0, x1 = max(cx - r, 0), min(cx + r + 1, w)
    if y0 >= y1 or x0 >= x1:
        return heatmap
    dx2 = (np.arange(x0, x1) - cx) ** 2
    dy2 = (np.arange(y0, y1)[:, None] - cy) ** 2
    window = heatmap[y0:y1, x0:x1]
    np.maximum(window, np.exp(-(dx2 + dy2) / (2.0 * sigma)), out=window)
    return heatmap


@dataclass
class HeadMaps:
    """Detection-head output planes on the stride-S grid, shaped (H, W, C)."""

    main: np.ndarray
    vertex: np.ndarray
    vertex_coord: np.ndarray
    center_offset: np.ndarray
    vertex_offset: np.ndarray
    dims: np.ndarray
    orientation: np.ndarray
    depth: np.ndarray
    stride: int = DOWNSAMPLE

    PLANES = (
        ("main", None),
        ("vertex", 9),
        ("vertex_coord", 18),
        ("center_offset", 2),
        ("vertex_offset", 2),
        ("dims", 3),
        ("orientation", 8),
        ("depth", 1),
    )

    @staticmethod
    def zeros(height: int, width: int) -> "HeadMaps":
        def plane(c):
            return np.zeros((height, width, c))

        return HeadMaps(
            main=plane(1),
            vertex=plane(9),
            vertex_coord=plane(18),
            center_offset=plane(2),
            vertex_offset=plane(2),
            dims=plane(3),
            orientation=plane(8),
            depth=plane(1),
        )

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.main.shape[0], self.main.shape[1]


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
            raise ValueError("all scales must share one shape; resize first")
    stack = np.stack([np.asarray(s, dtype=float) for s in scales], axis=0)
    e = np.exp(stack - stack.max(axis=0, keepdims=True))
    weights = e / e.sum(axis=0, keepdims=True)
    return (stack * weights).sum(axis=0)


def _linear_taps(n_in: int, n_out: int):
    """Lower and upper sample index and upper weight of each of ``n_out``
    positions spread evenly over ``n_in`` samples, ends included."""
    pos = np.linspace(0, n_in - 1, n_out)
    lo = np.floor(pos).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), pos - lo


def resize_bilinear(map2d, out_shape):
    """Bilinear resize of a 2D map to (H, W), for pre-fusion upsampling;
    the corner samples of input and output coincide."""
    a = np.asarray(map2d, dtype=float)
    y0, y1, fy = _linear_taps(a.shape[0], out_shape[0])
    x0, x1, fx = _linear_taps(a.shape[1], out_shape[1])
    rows = a[y0] * (1.0 - fy[:, None]) + a[y1] * fy[:, None]
    return rows[:, x0] * (1.0 - fx) + rows[:, x1] * fx


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


def extract_peaks(maps, threshold, topk=100):
    """Local maxima after 3x3 max pooling, per channel.

    Returns a list of ((x, y), score, channel) sorted by descending score,
    truncated to ``topk`` per channel.  Plateau ties are broken greedily so
    no two returned peaks on one channel share a 3x3 neighborhood.  Only
    cells at or above ``threshold`` are pooled, so the cost beyond one pass
    over the stack grows with the candidates, not the grid.
    """
    maps = np.asarray(maps, dtype=float)
    if maps.ndim == 2:
        maps = maps[:, :, None]
    ys, xs, cs = np.unravel_index(np.flatnonzero(maps >= threshold), maps.shape)
    scores = maps[ys, xs, cs]
    peak = scores == _pool3_at(maps, ys, xs, cs)
    ys, xs, cs, scores = ys[peak], xs[peak], cs[peak], scores[peak]
    order = np.lexsort((xs, ys, -scores, cs))
    peaks = []
    channel, kept, full = None, set(), False
    for y, x, c, score in zip(*(a[order].tolist() for a in (ys, xs, cs, scores))):
        if c != channel:
            channel, kept, full = c, set(), False
        if full or any((y + dy, x + dx) in kept for dy in (-1, 0, 1) for dx in (-1, 0, 1)):
            continue
        kept.add((y, x))
        peaks.append(((x, y), score, c))
        full = len(kept) >= topk
    peaks.sort(key=lambda p: -p[1])
    return peaks


@dataclass(frozen=True)
class GroupingConfig:
    main_threshold: float = MAIN_THRESHOLD
    keypoint_threshold: float = KEYPOINT_THRESHOLD
    topk: int = 100
    # Match radius in grid cells; widened by the object spread at encode time.
    match_radius: float = 4.0
    fallback_conf: float = 0.05


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
    vertex peak within the match radius; unmatched keypoints keep their
    regressed position at reduced confidence and are flagged invisible.
    Final coordinates are sub-cell refined by the offset planes and scaled
    back to input pixels.
    """
    s = maps.stride
    by_channel = {}
    for (x, y), score, c in vertex_peaks:
        by_channel.setdefault(c, []).append(((x, y), score))

    objects = []
    for (mx, my), mscore, mclass in main_peaks:
        vc = maps.vertex_coord[my, mx, :].reshape(9, 2)
        regressed = np.array([mx, my], dtype=float) + vc
        pts = np.zeros((9, 2))
        conf = np.zeros(9)
        visible = np.zeros(9, dtype=bool)
        for k in range(9):
            best = None
            for (px, py), score in by_channel.get(k, []):
                d = math.hypot(px - regressed[k, 0], py - regressed[k, 1])
                if d <= config.match_radius and (best is None or d < best[0]):
                    best = (d, px, py, score)
            if best is not None:
                _, px, py, score = best
                off = maps.vertex_offset[py, px, :]
                pts[k] = (np.array([px, py], dtype=float) + off) * s
                conf[k] = min(max(score, 0.0), 1.0)
                visible[k] = True
            else:
                pts[k] = regressed[k] * s
                conf[k] = config.fallback_conf
                visible[k] = False
        center = (np.array([mx, my], dtype=float) + maps.center_offset[my, mx, :]) * s
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
    return group_keypoints(main_peaks, vertex_peaks, maps, config)


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


@dataclass(frozen=True)
class MultiTaskWeights:
    w_main: float = 1.0
    w_kpver: float = 1.0
    w_ver: float = 1.0
    w_dim: float = 1.0
    w_ori: float = 0.5
    w_dis: float = 0.1
    w_off_m: float = 0.5
    w_off_v: float = 0.5


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
    The depth plane stores log-depth.
    """
    s = maps.stride
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


def multitask_loss(terms: dict, weights: MultiTaskWeights = MultiTaskWeights()) -> float:
    """Weighted sum of the detection-head loss terms.

    Recognized keys: main, kpver, vertex_coord, dims, orientation, depth,
    center_offset, vertex_offset.  Missing keys contribute zero.
    """
    get = lambda k: float(terms.get(k, 0.0))  # noqa: E731
    return (
        weights.w_main * get("main")
        + weights.w_kpver * get("kpver")
        + weights.w_ver * get("vertex_coord")
        + weights.w_dim * get("dims")
        + weights.w_ori * get("orientation")
        + weights.w_dis * get("depth")
        + weights.w_off_m * get("center_offset")
        + weights.w_off_v * get("vertex_offset")
    )


# ---------------------------------------------------------------------------
# Binary tensor file: magic "RTMH", u32 H, u32 W, then each plane as f32
# row-major in sidecar order.  The sidecar is a text file listing
# "name channels" per line.

_MAGIC = b"RTMH"


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".txt")


def write_headmaps(path, maps: HeadMaps) -> None:
    path = Path(path)
    h, w = maps.grid_shape
    names = []
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", h, w))
        for name, _ in HeadMaps.PLANES:
            plane = getattr(maps, name)
            names.append((name, plane.shape[2]))
            f.write(np.ascontiguousarray(plane, dtype="<f4").tobytes())
    with open(_sidecar_path(path), "w") as f:
        for name, c in names:
            f.write(f"{name} {c}\n")


def _read_sidecar(path: Path) -> dict:
    """Channel count by plane name, in the order the sidecar lists them.
    Each line names a distinct plane of :attr:`HeadMaps.PLANES` and its
    channel count (any count for ``main``); every plane is listed."""
    wanted = dict(HeadMaps.PLANES)
    names = {}
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        name, count = parts if len(parts) == 2 else ("", "")
        if not (name in wanted and name not in names and count.isdecimal()
                and wanted[name] in (None, int(count))):
            raise InputError(
                f"{path}, line {line_no}: expected 'name channels' of a head-map plane, got {line!r}"
            )
        names[name] = int(count)
    missing = [name for name in wanted if name not in names]
    if missing:
        raise InputError(f"{path}: no line for plane {', '.join(missing)}")
    return names


def read_headmaps(path) -> HeadMaps:
    """The head maps :func:`write_headmaps` stored at ``path``, as the float32
    planes it stored; a malformed sidecar or a bad or truncated binary file
    raises an InputError naming the file (and the sidecar line)."""
    path = Path(path)
    names = _read_sidecar(_sidecar_path(path))
    with open(path, "rb") as f:
        header = f.read(12)
        if header[:4] != _MAGIC:
            raise InputError(f"{path}: bad magic, expected RTMH")
        if len(header) != 12:
            raise InputError(f"{path}: truncated header")
        h, w = struct.unpack("<II", header[4:])
        size = path.stat().st_size
        planes = {}
        for name, c in names.items():
            # Checked before allocating, so a corrupt header cannot ask for
            # more memory than the file holds.
            if 4 * h * w * c > size - f.tell():
                raise InputError(f"{path}: truncated plane {name}")
            planes[name] = np.empty((h, w, c), dtype="<f4")
            f.readinto(planes[name])
    return HeadMaps(**planes)
