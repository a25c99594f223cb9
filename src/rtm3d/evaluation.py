"""KITTI-style detection metrics.

Bird's-eye-view IoU intersects the two yaw-rotated footprints by
Sutherland-Hodgman polygon clipping, skipped when their circumcircles do not
meet; 3D IoU multiplies that area by the vertical interval overlap.
:func:`evaluate_tables` scores a run's label tables in one pass: it lists
every frame's detection x ground-truth pairs, computes their BEV, 3D and 2D
IoUs as arrays with one batched clip over the run's candidate pairs (those
whose circumcircles meet), then matches greedily per difficulty and metric
over the pairs that reach its threshold; :func:`evaluate` tabulates objects
for it.  The one-pair functions (:func:`bev_iou`, :func:`iou_3d`, ...) are
calls of the same kernels on one pair.  AP is 11-point interpolated
(40-point behind a flag); DontCare regions and out-of-difficulty ground
truth are ignored rather than counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box3D, box_points, rot_y, wrap_to_pi
from .kitti import ALPHA, BBOX, CATEGORY, OCCLUDED, SCORE, TRUNCATED, KittiLabel, LabelTable, label_to_box3d

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
    "evaluate_tables",
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

    def accepts(self, table: LabelTable) -> np.ndarray:
        """Which rows of a label table the gate admits, each occlusion level
        read as KittiLabel reads it (truncated to an integer)."""
        v, bbox = table.values, table.values[:, BBOX]
        return (
            (bbox[:, 3] - bbox[:, 1] >= self.min_height)
            & (np.trunc(v[:, OCCLUDED]) <= self.max_occlusion)
            & (v[:, TRUNCATED] <= self.max_truncation)
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
    """(N, 7) rows (h, w, l, x, y, z, yaw) of Box3Ds, in the column order of a label."""
    return np.array([(*b.dims, *b.t, b.yaw) for b in boxes], dtype=float).reshape(-1, 7)


def _footprints(rows: np.ndarray) -> np.ndarray:
    """Footprint corners (N, 4, 2) in the x-z ground plane, counterclockwise,
    of (N, 7) box rows: the box points' bottom corners 0, 3, 2, 1."""
    pts = box_points(rows[:, :3], rows[:, 3:6], rot_y(rows[:, 6]))
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
    ha, wa, la, xa, ya, za, _ = a.T
    hb, wb, lb, xb, yb, zb, _ = b.T
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


def _run_overlaps(det: LabelTable, gt: LabelTable) -> tuple:
    """Every detection x ground-truth pair of each frame of two tables sorted
    by frame, as (detection rows, ground-truth rows, {"bev" | "3d" | "2d":
    IoUs}), from one pass over the run, of the tables' wrapped boxes
    (:meth:`~rtm3d.kitti.LabelTable.boxes`).  Ground truth of another
    category than :data:`CATEGORY` reads 0 in 3D and BEV."""
    n_frames = max(det.frame.max(initial=-1), gt.frame.max(initial=-1)) + 1
    n_det, n_gt = np.bincount(det.frame, minlength=n_frames), np.bincount(gt.frame, minlength=n_frames)
    # Frame f's pair k is (its detection k // n_gt, its ground truth k % n_gt).
    bounds = np.concatenate([[0], np.cumsum(n_det * n_gt)])
    frame = np.repeat(np.arange(n_frames), n_det * n_gt)
    local, per_row = np.arange(bounds[-1]) - bounds[frame], np.maximum(n_gt, 1)[frame]
    d = (np.cumsum(n_det) - n_det)[frame] + local // per_row
    g = (np.cumsum(n_gt) - n_gt)[frame] + local % per_row
    boxed = gt.type[g] == CATEGORY
    bev, iou3d = np.zeros(len(g)), np.zeros(len(g))
    _, bev[boxed], iou3d[boxed] = _pair_overlaps(det.boxes()[d[boxed]], gt.boxes()[g[boxed]])
    return d, g, {"bev": bev, "3d": iou3d, "2d": _iou_2d(det.values[d, BBOX], gt.values[g, BBOX])}


def _match(det, gt, iou, n_det: int) -> np.ndarray:
    """The ground truth matched to each of ``n_det`` detections (-1 for none)
    by greedy matching of the candidate pairs (det, gt, iou): in frame and
    score order, each detection takes the free ground truth of its largest
    overlap, the first on ties."""
    match, taken = [-1] * n_det, set()
    for d, g in zip(*(a[np.lexsort((gt, -iou, det))].tolist() for a in (det, gt))):
        if match[d] < 0 and g not in taken:
            match[d] = g
            taken.add(g)
    return np.array(match, dtype=int)


def _curve(outcomes: np.ndarray, n_gt: int, n_points: int, use_similarity=False) -> PRCurve:
    """Interpolated PR curve of (score, tp, similarity) outcomes, the rows of
    an (N, 3) array; with ``use_similarity`` precision sums orientation
    similarity, as AOS does."""
    if n_gt == 0 or not len(outcomes):
        return PRCurve(recall=np.zeros(0), precision=np.zeros(0), ap=0.0)
    _, tp, sim = outcomes[np.argsort(-outcomes[:, 0], kind="stable")].T
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


def evaluate(detections: dict, ground_truths: dict, difficulties: list[DifficultyFilter],
             iou_threshold: float = 0.5, iou_2d: float = 0.7, n_points: int = 11) -> dict:
    """Every curve of a run in one pass over the frames, as
    ``{difficulty name: {"3d" | "bev" | "2d" | "aos": PRCurve}}``.

    ``detections`` maps frame id to a list of :class:`DetectionRecord`,
    ``ground_truths`` to a list of :class:`KittiLabel`, and ``difficulties``
    is a sequence of :class:`DifficultyFilter`.  3D and BEV match at
    ``iou_threshold``; AP_2d and AOS share one matching by 2D IoU at ``iou_2d``.
    """
    for label in (g for frame in sorted(ground_truths) for g in ground_truths[frame] if g.type == CATEGORY):
        label_to_box3d(label)  # raises the error of a box it rejects
    det = LabelTable.of_labels({frame: [
        KittiLabel(d.category, 0.0, 0, d.alpha, d.bbox, tuple(d.box.dims), tuple(d.box.t), d.box.yaw, d.score)
        for d in dets] for frame, dets in detections.items()})
    return evaluate_tables(det, LabelTable.of_labels(ground_truths), difficulties, iou_threshold, iou_2d, n_points)


def evaluate_tables(results: LabelTable, labels: LabelTable, difficulties: list[DifficultyFilter],
                    iou_threshold: float = 0.5, iou_2d: float = 0.7, n_points: int = 11) -> dict:
    """:func:`evaluate` of a run's label tables, whose sources name its
    frames.  A result without a score scores 1, and each yaw is wrapped as
    Box3D wraps it."""
    thresholds = {"3d": iou_threshold, "bev": iou_threshold, "2d": iou_2d}
    # Each row's frame, numbered in run order, and the Car results with their scores.
    frame = np.unique([*results.sources, *labels.sources], return_inverse=True)[1]
    det, gt = (LabelTable(t.sources, frame[start:][t.frame], t.line, t.type, t.values)
               for t, start in ((results, 0), (labels, len(results.sources))))
    det = det.take(det.type == CATEGORY)
    score = det.values[:, SCORE]  # a view of the values take copied
    score[np.isnan(score)] = 1.0
    # By frame, then by descending score, ties in table order.
    det = det.take(np.lexsort((-score, det.frame)))
    gt = gt.take(np.argsort(gt.frame, kind="stable"))
    pair_det, pair_gt, ious = _run_overlaps(det, gt)
    is_car = gt.type == CATEGORY
    curves = {}
    for diff in difficulties:
        counted = is_car & diff.accepts(gt)
        ignored = (gt.type == "DontCare") | (is_car & ~counted)
        curves[diff.name] = {}
        for m, threshold in thresholds.items():
            # Greedy matching takes only pairs whose overlap reaches the threshold.
            cand = np.flatnonzero(counted[pair_gt] & (ious[m] >= threshold) & (ious[m] > 0))
            matched = _match(pair_det[cand], pair_gt[cand], ious[m][cand], len(det.frame))
            hit = matched >= 0
            # An unmatched detection on an ignored box, by 2D overlap, is left out.
            covered = np.bincount(pair_det[ignored[pair_gt] & (ious["2d"] >= threshold)], minlength=len(det.frame)) > 0
            sim = np.zeros(len(det.frame))
            error = det.values[hit, ALPHA] - gt.values[matched[hit], ALPHA]
            sim[hit] = [0.5 * (1.0 + math.cos(wrap_to_pi(e))) for e in error.tolist()]
            outcomes = np.column_stack([det.values[:, SCORE], hit, sim])[hit | ~covered]
            curves[diff.name][m] = _curve(outcomes, counted.sum(), n_points)
        # AOS sums the similarity of the 2D matching, the last one.
        curves[diff.name]["aos"] = _curve(outcomes, counted.sum(), n_points, use_similarity=True)
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
