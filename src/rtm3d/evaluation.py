"""KITTI-style detection metrics.

Bird's-eye-view IoU intersects the two yaw-rotated footprints by
Sutherland-Hodgman polygon clipping, skipped when their circumcircles do not
meet; 3D IoU multiplies that area by the vertical interval overlap.
:func:`evaluate` scores a run in one pass: per frame it builds the
detection x ground-truth IoU matrices once (BEV and 3D from one footprint
intersection per pair, 2D against every ground truth), then matches greedily
per difficulty and metric, with difficulties as masks over ground-truth
columns.  AP is 11-point interpolated (40-point behind a flag); DontCare
regions and out-of-difficulty ground truth are ignored rather than counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BOX_TEMPLATE, Box3D, wrap_to_pi
from .kitti import KittiLabel, label_to_box3d

__all__ = [
    "DetectionRecord",
    "DifficultyFilter",
    "PRCurve",
    "aos",
    "average_precision",
    "bev_corners",
    "bev_intersection_area",
    "bev_iou",
    "box_2d_iou",
    "evaluate",
    "iou_3d",
]

_AREA_EPS = 1e-9
# The one class scored: result files (kitti.box3d_to_label) hold only cars.
CATEGORY = "Car"
# The box template's bottom corners 0, 3, 2, 1 in the ground plane (x, z),
# counterclockwise; length scales x and width z.
_FOOTPRINT = BOX_TEMPLATE[[0, 3, 2, 1]][:, [0, 2]]


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


def bev_corners(box: Box3D) -> np.ndarray:
    """Footprint corners (4, 2) in the x-z ground plane, counterclockwise."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = _FOOTPRINT * box.dims[[2, 1]]
    # Rotation about y maps (x, z) -> (x cos + z sin, -x sin + z cos).
    rot = np.array([[c, s], [-s, c]])
    return local @ rot.T + np.array([box.t[0], box.t[2]])


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, z = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1))))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Intersection of two counterclockwise convex polygons, such as
    :func:`bev_corners` returns (its rotation has determinant +1 and box
    dimensions are positive), by Sutherland-Hodgman clipping.

    The inside test's tolerance makes clipping a by b differ from clipping b
    by a in the last bits when edges nearly coincide, so the pair is taken
    in a fixed order: swapping the arguments gives the same polygon."""
    if tuple(clip.ravel()) < tuple(subject.ravel()):
        subject, clip = clip, subject
    output = list(subject)
    for i in range(len(clip)):
        a, b = clip[i], clip[(i + 1) % len(clip)]
        edge = b - a
        if not output:
            return np.zeros((0, 2))
        input_pts = output
        output = []
        for j in range(len(input_pts)):
            p, q = input_pts[j], input_pts[(j + 1) % len(input_pts)]
            p_in = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -_AREA_EPS
            q_in = edge[0] * (q[1] - a[1]) - edge[1] * (q[0] - a[0]) >= -_AREA_EPS
            if p_in:
                output.append(p)
            if p_in != q_in:
                denom = edge[0] * (q[1] - p[1]) - edge[1] * (q[0] - p[0])
                if abs(denom) > 1e-15:
                    t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / denom
                    output.append(p + t * (q - p))
    return np.array(output) if output else np.zeros((0, 2))


def bev_intersection_area(a: Box3D, b: Box3D) -> float:
    """Footprint intersection area; 0 without clipping when the footprints'
    circumcircles do not meet."""
    reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(b.l, b.w))
    if math.hypot(a.t[0] - b.t[0], a.t[2] - b.t[2]) > reach:
        return 0.0
    return _polygon_area(_clip_polygon(bev_corners(a), bev_corners(b)))


def _bounded_ratio(inter: float, total: float) -> float:
    union = total - inter
    if union <= _AREA_EPS:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def _footprint_ious(a: Box3D, b: Box3D) -> tuple[float, float]:
    """(BEV IoU, 3D IoU) from one footprint intersection; boxes are
    bottom-anchored with y pointing down."""
    inter_area = bev_intersection_area(a, b)
    y_overlap = max(0.0, min(a.t[1], b.t[1]) - max(a.t[1] - a.h, b.t[1] - b.h))
    return (
        _bounded_ratio(inter_area, a.w * a.l + b.w * b.l),
        _bounded_ratio(inter_area * y_overlap, a.h * a.w * a.l + b.h * b.w * b.l),
    )


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the yaw-rotated footprints in the ground plane."""
    return _footprint_ious(a, b)[0]


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU; boxes are bottom-anchored with y pointing down."""
    return _footprint_ious(a, b)[1]


def box_2d_iou(a, b) -> float:
    """Axis-aligned IoU of (left, top, right, bottom) boxes."""
    il = max(a[0], b[0])
    it = max(a[1], b[1])
    ir = min(a[2], b[2])
    ib = min(a[3], b[3])
    iw, ih = max(ir - il, 0.0), max(ib - it, 0.0)
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0:
        return 0.0
    return inter / union


def _frame_overlaps(dets: list, gts: list) -> dict:
    """One frame's detection x ground-truth IoU rows per metric; ground truth
    of another category than :data:`CATEGORY` gets no box and reads 0 in 3D
    and BEV."""
    boxes = [label_to_box3d(g) if g.type == CATEGORY else None for g in gts]
    pairs = [[_footprint_ious(d.box, b) if b is not None else (0.0, 0.0) for b in boxes] for d in dets]
    return {
        "bev": [[p[0] for p in row] for row in pairs],
        "3d": [[p[1] for p in row] for row in pairs],
        "2d": [[box_2d_iou(d.bbox, g.bbox) for g in gts] for d in dets],
    }


def _match(dets, gts, overlap, overlap_2d, counted, ignored, threshold) -> list:
    """Greedy matching of score-sorted detections (rows) to the counted
    columns: the first largest unmatched overlap wins if it reaches
    ``threshold``.  Returns (score, tp, orientation similarity) per detection,
    leaving out an unmatched one that reaches ``threshold`` in 2D on an
    ignored column."""
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
        elif not any(overlap_2d[i][j] >= threshold for j in ignored):
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
    interp = np.array([precision[recall >= r - 1e-12].max(initial=0.0) for r in samples])
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
    for frame in sorted(set(detections) | set(ground_truths)):
        dets = [d for d in detections.get(frame, []) if d.category == CATEGORY]
        dets.sort(key=lambda d: -d.score)
        gts = ground_truths.get(frame, [])
        overlaps = _frame_overlaps(dets, gts)
        for diff in difficulties:
            counted = [j for j, g in enumerate(gts) if g.type == CATEGORY and diff.accepts(g)]
            ignored = [
                j for j, g in enumerate(gts)
                if g.is_dontcare or (g.type == CATEGORY and j not in counted)
            ]
            n_gt[diff.name] += len(counted)
            for m, threshold in thresholds.items():
                outcomes[diff.name, m] += _match(
                    dets, gts, overlaps[m], overlaps["2d"], counted, ignored, threshold
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
