"""KITTI-style detection metrics.

Bird's-eye-view IoU intersects the two yaw-rotated footprints by
Sutherland-Hodgman polygon clipping, skipped when their circumcircles do not
meet; 3D IoU multiplies that area by the vertical interval overlap.
:func:`evaluate` scores a run in one pass: it lists every frame's detection
x ground-truth pairs, computes their BEV, 3D and 2D IoUs as arrays with one
batched clip over the run's candidate pairs (those whose circumcircles
meet), then matches greedily per frame, difficulty and metric, with
difficulties as masks over ground-truth columns.  The one-pair functions
(:func:`bev_iou`, :func:`iou_3d`, ...) are calls of the same kernels on one
pair.  AP is 11-point interpolated (40-point behind a flag); DontCare
regions and out-of-difficulty ground truth are ignored rather than counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, box_points, rot_y, wrap_to_pi
from .kitti import CATEGORY, KittiLabel, label_to_box3d

__all__ = [
    "DetectionRecord",
    "DifficultyFilter",
    "PRCurve",
    "aos",
    "average_precision",
    "bev_corners",
    "bev_iou",
    "box_2d_iou",
    "evaluate",
    "iou_3d",
]

_AREA_EPS = 1e-9


@dataclass(frozen=True)
class DifficultyFilter:
    """KITTI difficulty gate on 2D box height, occlusion and truncation."""

    name: str
    min_height: float
    max_occlusion: int
    max_truncation: float

    def accepts(self, label: KittiLabel) -> bool:
        return (
            label.bbox_height >= self.min_height
            and label.occluded <= self.max_occlusion
            and label.truncated <= self.max_truncation
        )

    @staticmethod
    def easy() -> "DifficultyFilter":
        return DifficultyFilter("easy", 40.0, 0, 0.15)

    @staticmethod
    def moderate() -> "DifficultyFilter":
        return DifficultyFilter("moderate", 25.0, 1, 0.30)

    @staticmethod
    def hard() -> "DifficultyFilter":
        return DifficultyFilter("hard", 25.0, 2, 0.50)

    @staticmethod
    def by_name(name: str) -> "DifficultyFilter":
        if name not in ("easy", "moderate", "hard"):
            raise ValueError(f"unknown difficulty {name!r}")
        return getattr(DifficultyFilter, name)()


@dataclass(frozen=True)
class PRCurve:
    recall: np.ndarray
    precision: np.ndarray
    ap: float


@dataclass
class DetectionRecord:
    """A scored detection: 3D box plus the derived 2D box and alpha."""

    category: str
    score: float
    box: Box3D
    bbox: tuple[float, float, float, float]
    alpha: float

    @staticmethod
    def from_label(label: KittiLabel) -> "DetectionRecord":
        return DetectionRecord(
            category=label.type,
            score=label.score if label.score is not None else 1.0,
            box=label_to_box3d(label),
            bbox=label.bbox,
            alpha=label.alpha,
        )


def _box_rows(boxes) -> np.ndarray:
    """(N, 7) rows (x, y, z, h, w, l, yaw) of Box3Ds."""
    return np.array([(*b.t, *b.dims, b.yaw) for b in boxes], dtype=float).reshape(-1, 7)


def _footprints(rows: np.ndarray) -> np.ndarray:
    """Footprint corners (N, 4, 2) in the x-z ground plane, counterclockwise,
    of (N, 7) box rows: the box points' bottom corners 0, 3, 2, 1."""
    pts = box_points(rows[:, 3:6], rows[:, :3], rot_y(rows[:, 6]))
    return pts[:, [0, 3, 2, 1]][:, :, [0, 2]]


def bev_corners(box: Box3D) -> np.ndarray:
    """Footprint corners (4, 2) in the x-z ground plane, counterclockwise."""
    return _footprints(_box_rows([box]))[0]


def _clip_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection areas (N,) of N pairs of counterclockwise convex quads
    (N, 4, 2), such as :func:`_footprints` returns, by Sutherland-Hodgman
    clipping vectorized over the pairs: each pass keeps every pair's polygon
    in one vertex buffer, as wide as the largest polygon (8 vertices for two
    quads), with a vertex count per pair.  A
    pair's area comes from its own lane's arithmetic alone, whatever else
    shares the call.  The inside test's tolerance makes clipping a by b
    differ from clipping b by a in the last bits when edges nearly coincide,
    so each pair is taken in lexicographic order: swapping the arguments
    gives the same polygon."""
    n = len(subject)
    rows = np.arange(n)[:, None]
    flat_s, flat_c = subject.reshape(n, 8), clip.reshape(n, 8)
    first = (flat_s != flat_c).argmax(axis=1)[:, None]
    swap = (flat_c[rows, first] < flat_s[rows, first])[..., None]
    poly, clip = np.where(swap, clip, subject), np.where(swap, subject, clip)
    edges = np.roll(clip, -1, axis=1) - clip
    count = np.full(n, 4)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(4):
            width = poly.shape[1]
            live, nxt = _ring(count, width)
            (ax, az), (ex, ez) = clip[:, i].T[..., None], edges[:, i].T[..., None]
            px, pz, q = poly[..., 0], poly[..., 1], poly[rows, nxt]
            side = ex * (pz - az) - ez * (px - ax)
            p_in = side >= -_AREA_EPS
            denom = ex * (q[..., 1] - pz) - ez * (q[..., 0] - px)
            cross = live & (p_in != p_in[rows, nxt]) & (abs(denom) > 1e-15)
            # The edge line crosses p -> q at t = -side / denom.
            hit = poly - (side / denom)[..., None] * (q - poly)
            # Each vertex emits itself if inside, then its edge's crossing.
            keep = np.stack([live & p_in, cross], axis=2).reshape(n, 2 * width)
            emitted = np.stack([poly, hit], axis=2).reshape(n, 2 * width, 2)
            count = keep.sum(axis=1)
            poly = np.zeros((n, max(count.max(initial=0), 1), 2))
            poly[np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]] = emitted[keep]
    # Shoelace sums accumulated in vertex order: empty slots add exact zeros.
    live, nxt = _ring(count, poly.shape[1])
    x, z = poly[..., 0], poly[..., 1]
    s1 = np.cumsum(np.where(live, x * z[rows, nxt], 0.0), axis=1)[:, -1]
    s2 = np.cumsum(np.where(live, z * x[rows, nxt], 0.0), axis=1)[:, -1]
    return np.where(count >= 3, 0.5 * abs(s1 - s2), 0.0)


def _ring(count: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Which slots of an (N, width) vertex buffer hold each lane's ``count``
    vertices, and each slot's successor around its polygon."""
    slot = np.arange(width)
    return slot < count[:, None], np.where(slot + 1 < count[:, None], slot + 1, 0)


def _bounded_ratio(inter: np.ndarray, total: np.ndarray) -> np.ndarray:
    union = total - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union <= _AREA_EPS, 0.0, np.minimum(np.maximum(inter / union, 0.0), 1.0))


def _pair_overlaps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Footprint intersection areas, BEV IoUs and 3D IoUs (each (N,)) of the
    box row pairs a[k], b[k]; boxes are bottom-anchored with y pointing down.
    Pairs whose footprints' circumcircles do not meet are not clipped."""
    xa, ya, za, ha, wa, la, _ = a.T
    xb, yb, zb, hb, wb, lb, _ = b.T
    near = np.hypot(xa - xb, za - zb) <= 0.5 * (np.hypot(la, wa) + np.hypot(lb, wb))
    inter = np.zeros(len(a))
    inter[near] = _clip_areas(_footprints(a[near]), _footprints(b[near]))
    y_overlap = np.maximum(0.0, np.minimum(ya, yb) - np.maximum(ya - ha, yb - hb))
    bev = _bounded_ratio(inter, wa * la + wb * lb)
    return inter, bev, _bounded_ratio(inter * y_overlap, ha * wa * la + hb * wb * lb)


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the yaw-rotated footprints in the ground plane."""
    return float(_pair_overlaps(_box_rows([a]), _box_rows([b]))[1][0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU; boxes are bottom-anchored with y pointing down."""
    return float(_pair_overlaps(_box_rows([a]), _box_rows([b]))[2][0])


def _iou_2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Axis-aligned IoU (N,) of the (left, top, right, bottom) row pairs a[k], b[k]."""
    inter = np.prod(np.maximum(0.0, np.minimum(a[:, 2:], b[:, 2:]) - np.maximum(a[:, :2], b[:, :2])), axis=1)
    union = np.prod(a[:, 2:] - a[:, :2], axis=1) + np.prod(b[:, 2:] - b[:, :2], axis=1) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def box_2d_iou(a, b) -> float:
    """Axis-aligned IoU of (left, top, right, bottom) boxes."""
    return float(_iou_2d(np.array([a], dtype=float), np.array([b], dtype=float))[0])


def _run_overlaps(frames: list) -> list:
    """Each frame's detection x ground-truth IoU rows per metric, from one
    pass over the pairs of every frame of ``frames``, a list of
    (detections, ground truths).  Ground truth of another category than
    :data:`CATEGORY` gets no box and reads 0 in 3D and BEV."""
    dets = [d for ds, _ in frames for d in ds]
    gts = [g for _, gs in frames for g in gs]
    is_box = np.array([g.type == CATEGORY for g in gts], dtype=bool)
    gt_rows = np.zeros((len(gts), 7))
    gt_rows[is_box] = _box_rows([label_to_box3d(g) for g in gts if g.type == CATEGORY])
    # Frame f's pair k is (its detection k // n_gt, its ground truth k % n_gt).
    n_det, n_gt = np.array([(len(ds), len(gs)) for ds, gs in frames], dtype=int).reshape(-1, 2).T
    bounds = np.concatenate([[0], np.cumsum(n_det * n_gt)])
    frame = np.repeat(np.arange(len(frames)), n_det * n_gt)
    local, per_row = np.arange(bounds[-1]) - bounds[frame], np.maximum(n_gt, 1)[frame]
    det = (np.cumsum(n_det) - n_det)[frame] + local // per_row
    gt = (np.cumsum(n_gt) - n_gt)[frame] + local % per_row
    boxed = is_box[gt]
    bev, iou3d = np.zeros(len(gt)), np.zeros(len(gt))
    _, bev[boxed], iou3d[boxed] = _pair_overlaps(_box_rows([d.box for d in dets])[det[boxed]], gt_rows[gt[boxed]])
    bbox = [np.array([o.bbox for o in objs], dtype=float).reshape(-1, 4) for objs in (dets, gts)]
    by_metric = {"bev": bev, "3d": iou3d, "2d": _iou_2d(bbox[0][det], bbox[1][gt])}
    return [
        {m: v[bounds[f]:bounds[f + 1]].reshape(n_det[f], n_gt[f]).tolist() for m, v in by_metric.items()}
        for f in range(len(frames))
    ]


def _match(dets, gts, overlap, counted, ignored_2d, threshold) -> list:
    """Greedy matching of score-sorted detections (rows) to the counted
    columns: the first largest unmatched overlap wins if it reaches
    ``threshold``.  Returns (score, tp, orientation similarity) per detection,
    leaving out an unmatched one whose largest 2D overlap with an ignored
    column, ``ignored_2d``, reaches ``threshold``."""
    free = list(counted)
    outcomes = []
    for i, det in enumerate(dets):
        best_iou, best = 0.0, -1
        for j in free:
            if overlap[i][j] > best_iou:
                best_iou, best = overlap[i][j], j
        if best_iou >= threshold:
            free.remove(best)
            sim = 0.5 * (1.0 + math.cos(wrap_to_pi(det.alpha - gts[best].alpha)))
            outcomes.append((det.score, 1.0, sim))
        elif ignored_2d[i] < threshold:
            outcomes.append((det.score, 0.0, 0.0))
    return outcomes


def _curve(outcomes: list, n_gt: int, n_points: int, use_similarity=False) -> PRCurve:
    """Interpolated PR curve of (score, tp, similarity) outcomes; with
    ``use_similarity`` precision sums orientation similarity, as AOS does."""
    if n_gt == 0 or not outcomes:
        return PRCurve(recall=np.zeros(0), precision=np.zeros(0), ap=0.0)
    _, tp, sim = np.array(sorted(outcomes, key=lambda o: -o[0])).T
    recall = np.cumsum(tp) / n_gt
    precision = np.cumsum(sim if use_similarity else tp) / np.arange(1, len(tp) + 1)
    if n_points == 11:
        samples = np.linspace(0.0, 1.0, 11)
    else:
        samples = np.arange(1, n_points + 1) / n_points
    # The best precision at or beyond each recall sample, 0 past the last one.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    interp = envelope[np.searchsorted(recall, samples - 1e-12)]
    return PRCurve(recall=samples, precision=interp, ap=float(interp.mean()))


def evaluate(
    detections: dict,
    ground_truths: dict,
    difficulties: list[DifficultyFilter],
    iou_threshold: float = 0.5,
    iou_2d: float = 0.7,
    n_points: int = 11,
) -> dict:
    """Every curve of a run in one pass over the frames, as
    ``{difficulty name: {"3d" | "bev" | "2d" | "aos": PRCurve}}``.

    ``detections`` maps frame id to a list of :class:`DetectionRecord`,
    ``ground_truths`` to a list of :class:`KittiLabel`, and ``difficulties``
    is a sequence of :class:`DifficultyFilter`.  3D and BEV match at
    ``iou_threshold``; AP_2d and AOS share one matching by 2D IoU at ``iou_2d``.
    """
    thresholds = {"3d": iou_threshold, "bev": iou_threshold, "2d": iou_2d}
    outcomes = {(diff.name, m): [] for diff in difficulties for m in thresholds}
    n_gt = dict.fromkeys((diff.name for diff in difficulties), 0)
    frames = []
    for frame in sorted(set(detections) | set(ground_truths)):
        dets = [d for d in detections.get(frame, []) if d.category == CATEGORY]
        dets.sort(key=lambda d: -d.score)
        frames.append((dets, ground_truths.get(frame, [])))
    for (dets, gts), overlaps in zip(frames, _run_overlaps(frames)):
        for diff in difficulties:
            counted = [j for j, g in enumerate(gts) if g.type == CATEGORY and diff.accepts(g)]
            ignored = [
                j for j, g in enumerate(gts)
                if g.is_dontcare or (g.type == CATEGORY and j not in counted)
            ]
            n_gt[diff.name] += len(counted)
            ignored_2d = [max((row[j] for j in ignored), default=-math.inf) for row in overlaps["2d"]]
            for m, threshold in thresholds.items():
                outcomes[diff.name, m] += _match(
                    dets, gts, overlaps[m], counted, ignored_2d, threshold
                )
    curves = {}
    for diff in difficulties:
        n = n_gt[diff.name]
        curves[diff.name] = {m: _curve(outcomes[diff.name, m], n, n_points) for m in thresholds}
        curves[diff.name]["aos"] = _curve(outcomes[diff.name, "2d"], n, n_points, use_similarity=True)
    return curves


def average_precision(
    detections: dict,
    ground_truths: dict,
    iou_threshold: float = 0.5,
    difficulty: DifficultyFilter | None = None,
    metric: str = "3d",
    n_points: int = 11,
) -> PRCurve:
    """Interpolated AP over frames of one ``metric`` ("3d", "bev" or "2d")
    matched at ``iou_threshold``; inputs as for :func:`evaluate`."""
    if metric not in ("3d", "bev", "2d"):
        raise ValueError(f"unknown metric {metric!r}")
    difficulty = difficulty or DifficultyFilter.moderate()
    curves = evaluate(
        detections, ground_truths, [difficulty], iou_threshold, iou_threshold, n_points
    )
    return curves[difficulty.name][metric]


def aos(
    detections: dict,
    ground_truths: dict,
    difficulty: DifficultyFilter | None = None,
    iou_threshold: float = 0.7,
    n_points: int = 11,
) -> tuple[float, float]:
    """Average orientation similarity and the matching 2D AP.

    Matching uses axis-aligned 2D IoU; each true positive contributes
    (1 + cos(alpha error)) / 2.  AOS can never exceed the returned AP.
    """
    difficulty = difficulty or DifficultyFilter.moderate()
    curves = evaluate(
        detections, ground_truths, [difficulty], iou_2d=iou_threshold, n_points=n_points
    )[difficulty.name]
    return curves["aos"].ap, curves["2d"].ap
