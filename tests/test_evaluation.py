"""Evaluation tests: rotated IoU, difficulty filters, AP and AOS."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtm3d.evaluation import (
    DetectionRecord,
    DifficultyFilter,
    _box_rows,
    _clip_areas,
    _curve,
    _footprints,
    _iou_2d,
    _pair_overlaps,
    _run_overlaps,
    aos,
    average_precision,
    bev_corners,
    bev_iou,
    box_2d_iou,
    evaluate,
    iou_3d,
)
from rtm3d.geometry import Box3D, box_points_3d
from rtm3d.kitti import KittiLabel, parse_label_values


def _box(x=0.0, z=10.0, w=1.6, l=3.9, h=1.5, yaw=0.0, y=1.5):
    return Box3D(dims=np.array([h, w, l]), t=np.array([x, y, z]), yaw=yaw)


def test_bev_corners_axis_aligned():
    corners = bev_corners(_box(x=1.0, z=5.0, w=2.0, l=4.0, yaw=0.0))
    xs = sorted(c[0] for c in corners)
    zs = sorted(c[1] for c in corners)
    assert xs == pytest.approx([-1.0, -1.0, 3.0, 3.0])
    assert zs == pytest.approx([4.0, 4.0, 6.0, 6.0])


def test_bev_corners_are_the_box_footprint_bit_for_bit():
    # Rows 0, 3, 2, 1 of the box points, in x and z, are the footprint.
    rng = np.random.default_rng(17)
    yaws = [-math.pi, 0.0, math.pi, *rng.uniform(-math.pi, math.pi, 300)]
    for yaw in yaws:
        box = _box(x=rng.uniform(-30, 30), z=rng.uniform(1, 80), w=rng.uniform(0.3, 3),
                   l=rng.uniform(0.5, 12), h=rng.uniform(0.5, 4), yaw=yaw, y=rng.uniform(-2, 3))
        np.testing.assert_array_equal(bev_corners(box), box_points_3d(box)[[0, 3, 2, 1]][:, [0, 2]])


def test_bev_iou_identity_and_disjoint():
    a = _box()
    assert bev_iou(a, a) == pytest.approx(1.0)
    assert bev_iou(a, _box(x=100.0)) == 0.0


def test_bev_iou_axis_aligned_closed_form():
    a = _box(x=0.0, z=10.0, w=2.0, l=4.0)
    b = _box(x=1.0, z=10.5, w=2.0, l=4.0)
    inter = (4.0 - 1.0) * (2.0 - 0.5)
    union = 8.0 + 8.0 - inter
    assert bev_iou(a, b) == pytest.approx(inter / union, abs=1e-12)


def test_bev_iou_quarter_turn_with_swapped_extents():
    a = _box(w=2.0, l=4.0, yaw=0.3)
    b = _box(w=4.0, l=2.0, yaw=0.3 + math.pi / 2)
    assert bev_iou(a, b) == pytest.approx(1.0, abs=1e-9)


@given(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
)
@settings(max_examples=100)
def test_bev_iou_symmetric_and_bounded(dx, dz, ya, yb):
    a = _box(x=0.0, z=10.0, yaw=ya)
    b = _box(x=dx, z=10.0 + dz, yaw=yb)
    iou = bev_iou(a, b)
    assert 0.0 <= iou <= 1.0 + 1e-12
    assert iou == pytest.approx(bev_iou(b, a), abs=1e-12)


def _clipped_ious(pairs):
    """(BEV, 3D) IoU of each pair from one batched clip of every pair's
    footprints, with no circumcircle skip."""
    inters = _clip_areas(_footprints(_box_rows([a for a, _ in pairs])),
                         _footprints(_box_rows([b for _, b in pairs])))
    out = []
    for (a, b), inter in zip(pairs, inters.tolist()):
        y_overlap = max(0.0, min(a.t[1], b.t[1]) - max(a.t[1] - a.h, b.t[1] - b.h))
        ious = []
        for inter_m, total in ((inter, a.w * a.l + b.w * b.l),
                               (inter * y_overlap, a.h * a.w * a.l + b.h * b.w * b.l)):
            union = total - inter_m
            ious.append(min(max(inter_m / union, 0.0), 1.0) if union > 1e-9 else 0.0)
        out.append(tuple(ious))
    return out


def test_circumcircle_skip_equals_clipping_bit_for_bit():
    rng = np.random.default_rng(4)
    pairs, tangent = [], []
    for _ in range(300):
        a = _box(x=rng.uniform(-5, 5), z=rng.uniform(8, 30), w=rng.uniform(1.4, 2.0),
                 l=rng.uniform(3.0, 5.0), h=rng.uniform(1.3, 1.9),
                 yaw=rng.uniform(-math.pi, math.pi), y=rng.uniform(1.0, 2.0))
        w, l = rng.uniform(1.4, 2.0), rng.uniform(3.0, 5.0)
        reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(l, w))
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        gap = 0.5 * (a.w + w)
        # Same yaw, one half-width sum apart across the long side: edges touch.
        pairs.append((a, _box(x=a.t[0] + gap * s, z=a.t[2] + gap * c, w=w, l=a.l, yaw=a.yaw)))
        for d in (reach * (1 - 1e-9), reach * (1 + 1e-9), reach * (1 + 1e-6), rng.uniform(0.0, reach)):
            heading = rng.uniform(-math.pi, math.pi)
            b = _box(x=a.t[0] + d * math.cos(heading), z=a.t[2] + d * math.sin(heading), w=w, l=l,
                     h=rng.uniform(1.3, 1.9), yaw=rng.uniform(-math.pi, math.pi), y=rng.uniform(1.0, 2.0))
            pairs.append((a, b))
        # Corner to corner along the diagonal, circumcircles tangent.
        off = np.array([[c, s], [-s, c]]) @ np.array([a.l, a.w])
        tangent.append((a, _box(x=a.t[0] + off[0], z=a.t[2] + off[1], w=a.w, l=a.l, h=a.h,
                                yaw=a.yaw, y=a.t[1])))
    clipped = 0
    for (a, b), want in zip(pairs, _clipped_ious(pairs)):
        clipped += want[0] > 0.0
        assert (bev_iou(a, b), iou_3d(a, b)) == want
    # Tangent pairs: the true overlap is 0, and clipping, with its 1e-9 inside
    # tolerance, may report rounding noise where the skip reports 0.
    for (a, b), want in zip(tangent, _clipped_ious(tangent)):
        got = (bev_iou(a, b), iou_3d(a, b))
        assert got == want or (got == (0.0, 0.0) and max(want) < 1e-12)
    assert clipped > 150


def _random_pairs(rng, n):
    """Box pairs and 2D box pairs over the IoU kernels' hard cases: yaw at
    -pi, 0, pi and uniform, identical boxes, edge-touching boxes and
    circumcircles within 1e-9 of tangent."""
    pairs = []
    for k in range(n):
        yaw = [-math.pi, 0.0, math.pi, rng.uniform(-math.pi, math.pi)][k % 4]
        a = _box(x=rng.uniform(-5, 5), z=rng.uniform(8, 30), w=rng.uniform(1.4, 2.0),
                 l=rng.uniform(3.0, 5.0), h=rng.uniform(1.3, 1.9), yaw=yaw, y=rng.uniform(1.0, 2.0))
        w, l = rng.uniform(1.4, 2.0), rng.uniform(3.0, 5.0)
        kind = k % 5
        if kind == 0:
            b = Box3D(dims=a.dims.copy(), t=a.t.copy(), yaw=a.yaw)
        elif kind == 1:
            gap = 0.5 * (a.w + w)
            b = _box(x=a.t[0] + gap * math.sin(a.yaw), z=a.t[2] + gap * math.cos(a.yaw),
                     w=w, l=a.l, yaw=a.yaw)
        else:
            reach = 0.5 * (math.hypot(a.l, a.w) + math.hypot(l, w))
            d = (reach * (1 - 1e-9), reach * (1 + 1e-9), rng.uniform(0.0, reach))[kind - 2]
            heading = rng.uniform(-math.pi, math.pi)
            b_yaw = [-math.pi, 0.0, math.pi, rng.uniform(-math.pi, math.pi)][(k // 5) % 4]
            b = _box(x=a.t[0] + d * math.cos(heading), z=a.t[2] + d * math.sin(heading), w=w, l=l,
                     h=rng.uniform(1.3, 1.9), yaw=b_yaw, y=rng.uniform(1.0, 2.0))
        left, top = rng.uniform(0, 600, 2)
        box_a = (left, top, left + rng.uniform(1, 200), top + rng.uniform(1, 100))
        box_b = [box_a, (box_a[2], top, box_a[2] + 50.0, top + 40.0),
                 tuple(np.add(box_a, rng.normal(0, 20, 4)))][k % 3]
        pairs.append((a, b, box_a, box_b))
    return pairs


def _kernel_ious(pairs, swap=False):
    """(BEV, 3D, 2D) IoU arrays of ``pairs`` from one call of each kernel."""
    first, second = (1, 0) if swap else (0, 1)
    boxes = [_box_rows([p[first] for p in pairs]), _box_rows([p[second] for p in pairs])]
    bbox = [np.array([p[first + 2] for p in pairs]), np.array([p[second + 2] for p in pairs])]
    _, bev, iou3d = _pair_overlaps(*boxes)
    return np.stack([bev, iou3d, _iou_2d(*bbox)], axis=1)


def test_batched_ious_equal_one_pair_calls_and_are_symmetric_bit_for_bit():
    rng = np.random.default_rng(11)
    pairs = _random_pairs(rng, 2000)
    whole = _kernel_ious(pairs)
    assert (whole[:, 0] > 0).sum() > 600 and (whole[:, 0] == 0).sum() > 100
    # (b) Swapping the arguments gives the same bits.
    np.testing.assert_array_equal(_kernel_ious(pairs, swap=True), whole)
    # (a) Whatever shares the batch: reversed, shuffled into chunks, one by one.
    np.testing.assert_array_equal(_kernel_ious(pairs[::-1])[::-1], whole)
    order = rng.permutation(len(pairs))
    shuffled = np.concatenate([_kernel_ious([pairs[i] for i in chunk])
                               for chunk in np.array_split(order, 37)])
    np.testing.assert_array_equal(shuffled[np.argsort(order)], whole)
    for (a, b, box_a, box_b), want in zip(pairs[:300], whole[:300].tolist()):
        assert [bev_iou(a, b), iou_3d(a, b), box_2d_iou(box_a, box_b)] == want
        assert [bev_iou(b, a), iou_3d(b, a), box_2d_iou(box_b, box_a)] == want
    for k in range(300, len(pairs)):
        np.testing.assert_array_equal(_kernel_ious(pairs[k:k + 1]), whole[k:k + 1])


def test_iou_3d_identity_and_height_overlap():
    a = _box()
    assert iou_3d(a, a) == pytest.approx(1.0)
    # Same footprint, box b lifted by half a height: overlap h/2.
    b = Box3D(dims=a.dims.copy(), t=a.t + [0.0, a.h / 2.0, 0.0], yaw=a.yaw)
    assert iou_3d(a, b) == pytest.approx(0.5 / 1.5, abs=1e-12)
    c = Box3D(dims=a.dims.copy(), t=a.t + [0.0, 10.0, 0.0], yaw=a.yaw)
    assert iou_3d(a, c) == 0.0


def test_iou_3d_axis_aligned_closed_form():
    a = Box3D(dims=np.array([2.0, 2.0, 4.0]), t=np.array([0.0, 0.0, 10.0]), yaw=0.0)
    b = Box3D(dims=np.array([2.0, 2.0, 4.0]), t=np.array([1.0, 0.5, 11.0]), yaw=0.0)
    inter = (4.0 - 1.0) * (2.0 - 1.0) * (2.0 - 0.5)
    union = 16.0 + 16.0 - inter
    assert iou_3d(a, b) == pytest.approx(inter / union, abs=1e-12)


def test_box_2d_iou():
    assert box_2d_iou((0, 0, 10, 10), (0, 0, 10, 10)) == pytest.approx(1.0)
    assert box_2d_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50.0 / 150.0)
    assert box_2d_iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0


def test_difficulty_presets():
    easy = DifficultyFilter.by_name("easy")
    assert easy.min_height == 40.0 and easy.max_occlusion == 0
    assert easy.max_truncation == pytest.approx(0.15)
    moderate = DifficultyFilter.by_name("moderate")
    assert moderate.min_height == 25.0 and moderate.max_occlusion == 1
    hard = DifficultyFilter.by_name("hard")
    assert hard.max_occlusion == 2 and hard.max_truncation == pytest.approx(0.5)
    with pytest.raises(ValueError):
        DifficultyFilter.by_name("impossible")


def _gt_label(box, bbox=(100, 100, 200, 160), truncated=0.0, occluded=0, category="Car"):
    return KittiLabel(
        type=category, truncated=truncated, occluded=occluded,
        alpha=0.0, bbox=bbox,
        dimensions=(box.h, box.w, box.l), location=tuple(box.t),
        rotation_y=box.yaw, score=None,
    )


def _det(box, score, bbox=(100, 100, 200, 160), alpha=0.0, category="Car"):
    return DetectionRecord(category=category, score=score, box=box, bbox=bbox, alpha=alpha)


def test_perfect_detections_give_unit_ap():
    gts, dets = {}, {}
    rng = np.random.default_rng(0)
    for f in range(5):
        boxes = [_box(x=6.0 * i - 6.0, z=rng.uniform(8, 40)) for i in range(3)]
        gts[f"{f:06d}"] = [_gt_label(b) for b in boxes]
        dets[f"{f:06d}"] = [_det(b, score=rng.uniform(0.5, 1.0)) for b in boxes]
    for metric in ("3d", "bev", "2d"):
        assert average_precision(dets, gts, 0.7, metric=metric).ap == 1.0
    aos_val, ap2d = aos(dets, gts)
    assert aos_val == 1.0 and ap2d == 1.0


def test_ap_hand_case_single_false_positive():
    gt_box = _box()
    gts = {"0": [_gt_label(gt_box)]}
    dets = {
        "0": [
            _det(gt_box, score=0.9),
            _det(_box(x=30.0), score=0.8, bbox=(400, 100, 500, 160)),
        ]
    }
    # Recall hits 1.0 at precision 1.0, so every 11-point sample is 1.0.
    assert average_precision(dets, gts, 0.5).ap == pytest.approx(1.0)
    # The miss case: only the false positive remains.
    assert average_precision({"0": dets["0"][1:]}, gts, 0.5).ap == 0.0


def test_ap_counts_missed_ground_truth():
    gt_a, gt_b = _box(x=-5.0), _box(x=5.0)
    gts = {"0": [_gt_label(gt_a), _gt_label(gt_b)]}
    dets = {"0": [_det(gt_a, score=0.9)]}
    curve = average_precision(dets, gts, 0.5)
    # Max recall 0.5: the five sample points above it see zero precision.
    np.testing.assert_allclose(curve.precision, [1.0] * 6 + [0.0] * 5)
    assert curve.ap == pytest.approx(6.0 / 11.0)


def test_ap_respects_difficulty_filter():
    easy_box, hard_box = _box(x=-5.0), _box(x=5.0)
    gts = {
        "0": [
            _gt_label(easy_box, bbox=(100, 100, 200, 160)),
            _gt_label(hard_box, bbox=(400, 100, 430, 110), occluded=2),
        ]
    }
    dets = {"0": [_det(easy_box, score=0.9)]}
    easy = DifficultyFilter.by_name("easy")
    assert average_precision(dets, gts, 0.5, difficulty=easy).ap == 1.0


def test_ap_ignores_dontcare_overlaps():
    gt_box = _box(x=-5.0)
    dontcare = KittiLabel(
        type="DontCare", truncated=-1, occluded=-1, alpha=-10,
        bbox=(400, 100, 500, 160), dimensions=(-1, -1, -1),
        location=(-1000, -1000, -1000), rotation_y=-10, score=None,
    )
    gts = {"0": [_gt_label(gt_box), dontcare]}
    dets = {
        "0": [
            _det(gt_box, score=0.9),
            _det(_box(x=30.0), score=0.95, bbox=(410, 110, 490, 150)),
        ]
    }
    # The higher-scored detection lands in the DontCare region: not a false
    # positive.  Counted as one, it would halve AP to 0.5.
    assert average_precision(dets, gts, 0.5).ap == 1.0


def test_ap_matches_exhaustive_reference():
    rng = np.random.default_rng(1)
    gts, dets = {}, {}
    for f in range(4):
        frame = f"{f:06d}"
        boxes = [_box(x=7.0 * i - 7.0, z=rng.uniform(8, 30)) for i in range(2)]
        gts[frame] = [_gt_label(b) for b in boxes]
        dets[frame] = [
            _det(
                Box3D(dims=b.dims.copy(), t=b.t + rng.normal(0, 0.4, 3) * [1, 0, 1], yaw=b.yaw),
                score=float(rng.uniform(0.1, 1.0)),
            )
            for b in boxes
        ] + [_det(_box(x=30.0, z=rng.uniform(8, 30)), score=float(rng.uniform(0.1, 1.0)),
                  bbox=(400, 100, 500, 160))]
    got = average_precision(dets, gts, 0.5, metric="bev").ap
    assert got == pytest.approx(_reference_ap(dets, gts, 0.5), abs=1e-12)


def _reference_ap(dets, gts, thr, metric="bev", difficulty=None):
    """Deliberately naive AP: explicit greedy matching plus 11-point sweep.

    Cars outside ``difficulty`` and DontCare regions are not counted; a
    detection matching no counted car whose 2D IoU with one of them reaches
    ``thr`` is left out of the sweep.
    """
    def overlap(det, lb):
        if metric == "2d":
            return box_2d_iou(det.bbox, lb.bbox)
        return (iou_3d if metric == "3d" else bev_iou)(det.box, _boxof(lb))

    def counts(lb):
        return lb.type == "Car" and (difficulty is None or (
            lb.bbox[3] - lb.bbox[1] >= difficulty.min_height and lb.occluded <= difficulty.max_occlusion
            and lb.truncated <= difficulty.max_truncation))

    scored = []
    n_gt = 0
    for frame in gts:
        gt_boxes = [[lb, False] for lb in gts[frame] if counts(lb)]
        ignored = [lb for lb in gts[frame] if lb.type in ("Car", "DontCare") and not counts(lb)]
        n_gt += len(gt_boxes)
        for det in sorted(dets.get(frame, []), key=lambda d: -d.score):
            best, best_iou = None, thr
            for g in gt_boxes:
                if g[1]:
                    continue
                iou = overlap(det, g[0])
                if iou >= best_iou:
                    best, best_iou = g, iou
            if best is not None:
                best[1] = True
                scored.append((det.score, True))
            elif not any(box_2d_iou(det.bbox, lb.bbox) >= thr for lb in ignored):
                scored.append((det.score, False))
    scored.sort(key=lambda s: -s[0])
    ap = 0.0
    for r in [i / 10.0 for i in range(11)]:
        best_p = 0.0
        tp = fp = 0
        for _, is_tp in scored:
            tp += is_tp
            fp += not is_tp
            recall = tp / n_gt
            precision = tp / (tp + fp)
            if recall >= r:
                best_p = max(best_p, precision)
        ap += best_p / 11.0
    return ap


def _boxof(lb):
    return Box3D(dims=np.array(lb.dimensions), t=np.array(lb.location), yaw=lb.rotation_y)


def test_evaluate_matches_reference_for_each_difficulty_and_metric():
    rng = np.random.default_rng(5)
    gts, dets = {}, {}
    for f in range(10):
        frame = f"{f:06d}"
        gts[frame], dets[frame] = [], []
        for i in range(6):
            box = _box(x=5.0 * i - 12.5, z=rng.uniform(8, 40), yaw=rng.uniform(-math.pi, math.pi))
            height = rng.choice([20.0, 30.0, 60.0, 60.0]) + rng.uniform(-3, 3)
            left, top = rng.uniform(0, 1000), rng.uniform(50, 200)
            bbox = (left, top, left + 1.6 * height, top + height)
            gts[frame].append(_gt_label(box, bbox=bbox, occluded=int(rng.choice([0, 0, 1, 2])),
                                        truncated=float(rng.choice([0.0, 0.1, 0.2, 0.4]))))
            if rng.uniform() < 0.85:
                jittered = Box3D(dims=box.dims * (1 + rng.normal(0, 0.05, 3)),
                                 t=box.t + rng.normal(0, 0.3, 3) * [1, 0.2, 1], yaw=box.yaw)
                dets[frame].append(_det(jittered, float(rng.uniform(0.2, 1.0)),
                                        bbox=tuple(np.add(bbox, rng.normal(0, 2.0, 4)))))
        # A DontCare region with a false positive inside, and a stray false positive.
        left = float(rng.uniform(0, 1000))
        dc = (left, 20.0, left + 80.0, 60.0)
        gts[frame].append(KittiLabel(
            type="DontCare", truncated=-1, occluded=-1, alpha=-10, bbox=dc, dimensions=(-1, -1, -1),
            location=(-1000, -1000, -1000), rotation_y=-10, score=None))
        dets[frame].append(_det(_box(x=30.0, z=rng.uniform(8, 30)), float(rng.uniform(0.1, 0.9)),
                                bbox=(dc[0] + 5, dc[1] + 5, dc[2] - 5, dc[3] - 5)))
        dets[frame].append(_det(_box(x=-30.0, z=rng.uniform(8, 30)), float(rng.uniform(0.1, 0.9)),
                                bbox=(1100.0, 300.0, 1180.0, 350.0)))
    diffs = [DifficultyFilter.by_name(name) for name in ("easy", "moderate", "hard")]
    for thr in (0.5, 0.7):
        curves = evaluate(dets, gts, diffs, thr, thr)
        for diff in diffs:
            for metric in ("3d", "bev", "2d"):
                want = _reference_ap(dets, gts, thr, metric, diff)
                assert curves[diff.name][metric].ap == pytest.approx(want, abs=1e-12)
        assert len({curves[d.name]["bev"].ap for d in diffs}) == 3


def test_aos_never_exceeds_ap2d():
    rng = np.random.default_rng(2)
    for trial in range(20):
        gts, dets = {}, {}
        for f in range(3):
            frame = f"{f:06d}"
            boxes = [_box(x=7.0 * i - 7.0, z=rng.uniform(8, 30)) for i in range(2)]
            gts[frame] = [_gt_label(b, bbox=tuple(rng.uniform(0, 300, 2)) + (400, 380))
                          for b in boxes]
            dets[frame] = [
                _det(b, score=float(rng.uniform()), bbox=g.bbox,
                     alpha=float(rng.uniform(-math.pi, math.pi)))
                for b, g in zip(boxes, gts[frame])
            ]
        aos_val, ap2d = aos(dets, gts)
        assert aos_val <= ap2d + 1e-12


def test_forty_point_interpolation_option():
    gt_box = _box()
    gts = {"0": [_gt_label(gt_box)]}
    dets = {"0": [_det(gt_box, score=0.9)]}
    assert average_precision(dets, gts, 0.5, n_points=40).ap == pytest.approx(1.0)


def test_curve_envelope_equals_per_sample_maximum():
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        outcomes = [(float(rng.uniform()), float(tp), float(rng.uniform()) * tp)
                    for tp in rng.uniform(size=n) < rng.uniform()]
        n_gt = int(rng.integers(1, 40)) + sum(o[1] > 0 for o in outcomes)
        for n_points in (11, 40):
            for use_similarity in (False, True):
                curve = _curve(np.array(outcomes), n_gt, n_points, use_similarity)
                _, tp, sim = np.array(sorted(outcomes, key=lambda o: -o[0])).T
                recall = np.cumsum(tp) / n_gt
                precision = np.cumsum(sim if use_similarity else tp) / np.arange(1, n + 1)
                want = [precision[recall >= r - 1e-12].max(initial=0.0) for r in curve.recall]
                np.testing.assert_array_equal(curve.precision, want)
                assert curve.ap == float(np.mean(want))


def _edge_case_curves(dets, gts):
    moderate = DifficultyFilter.moderate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = evaluate(dets, gts, [moderate], 0.5, 0.7)["moderate"]
    return {m: c.ap for m, c in curves.items()}


_DONTCARE = KittiLabel(
    type="DontCare", truncated=-1, occluded=-1, alpha=-10, bbox=(400, 100, 500, 160),
    dimensions=(-1, -1, -1), location=(-1000, -1000, -1000), rotation_y=-10, score=None,
)


@pytest.mark.parametrize(
    "case, ap",
    [
        # A false positive (0.95) in a frame without ground truth, then the
        # true positive (0.9): precision 1/2 at every recall.
        ("detections without ground truth", 0.5),
        # One of two cars found at precision 1: recall samples 0 ... 0.5.
        ("ground truth without detections", 6.0 / 11.0),
        # The detection on the DontCare region (0.99) is ignored; the other
        # one (0.95) is a false positive before the true positive.
        ("only DontCare ground truth", 0.5),
        # A pedestrian is neither counted nor ignored: the detection on it
        # (0.95) is a false positive in every metric.
        ("non-Car ground truth", 0.5),
        # Detections and ground truth never share a frame: no pairs at all.
        ("no pairs", 0.0),
        # Every pair is far apart in BEV (no clip) and in 2D.
        ("no candidate pairs", 0.0),
        ("empty run", 0.0),
    ],
)
def test_evaluate_edge_frames(case, ap, capsys):
    car = _box()
    found = {"0": [_det(car, 0.9)]}
    gt = {"0": [_gt_label(car)]}
    far = _det(_box(x=30.0), 0.95, bbox=(600, 100, 700, 160))
    dets, gts = {
        "detections without ground truth": ({**found, "1": [far]}, gt),
        "ground truth without detections": (found, {**gt, "1": [_gt_label(_box(x=5.0))]}),
        "only DontCare ground truth": (
            {**found, "1": [_det(_box(x=30.0), 0.99, bbox=_DONTCARE.bbox), far]},
            {**gt, "1": [_DONTCARE]},
        ),
        "non-Car ground truth": (
            {**found, "1": [_det(car, 0.95)]},
            {**gt, "1": [_gt_label(car, category="Pedestrian")]},
        ),
        "no pairs": ({"1": [_det(car, 0.9)]}, gt),
        "no candidate pairs": ({"0": [far]}, gt),
        "empty run": ({}, {}),
    }[case]
    got = _edge_case_curves(dets, gts)
    # Every true positive has alpha error 0, so AOS equals AP_2d.
    assert got == {"3d": ap, "bev": ap, "2d": ap, "aos": ap}
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("alphas, similarity", [((0.0, math.pi / 2), 1.0), ((math.pi / 2, 0.0), 0.5)])
def test_matching_takes_the_first_of_tied_ground_truths(alphas, similarity):
    # One detection overlaps two identical cars alike: it matches the first,
    # whose alpha sets its orientation similarity.
    car = _box()
    gts = {"0": [dataclasses.replace(_gt_label(car), alpha=alpha) for alpha in alphas]}
    aos_val, ap2d = aos({"0": [_det(car, 0.9)]}, gts)
    assert ap2d == 6.0 / 11.0 and aos_val == similarity * ap2d


def test_run_overlaps_non_car_columns_read_zero_in_3d_and_bev():
    car = "0 0 0 100 100 200 160 1.5 1.6 3.9 0 1.5 10 0"
    dets = f"Car {car} 0.9\nCar 0 0 0 100 100 200 160 1.5 1.6 3.9 1 1.5 10 0 0.8\n"
    gts = f"Pedestrian {car}\nDontCare -1 -1 -10 400 100 500 160 -1 -1 -1 -1000 -1000 -1000 -10\nCar {car}\n"
    det, gt = parse_label_values([dets], ["results"]), parse_label_values([gts], ["labels"])
    pair_det, pair_gt, ious = _run_overlaps(det, gt)
    assert pair_det.tolist() == [0, 0, 0, 1, 1, 1] and pair_gt.tolist() == [0, 1, 2, 0, 1, 2]
    rows = {m: v.reshape(2, 3).tolist() for m, v in ious.items()}
    assert [r[:2] for r in rows["bev"]] == [[0.0, 0.0], [0.0, 0.0]]
    assert [r[:2] for r in rows["3d"]] == [[0.0, 0.0], [0.0, 0.0]]
    assert rows["bev"][0][2] == 1.0 and rows["3d"][0][2] == 1.0
    assert rows["2d"][0] == [1.0, 0.0, 1.0]
    # Frame 0 has ground truth only, frame 1 detections only: no pairs.
    det.frame[:] = 1
    pair_det, pair_gt, ious = _run_overlaps(det, gt)
    assert len(pair_det) == len(pair_gt) == 0
    assert {m: v.tolist() for m, v in ious.items()} == {"bev": [], "3d": [], "2d": []}
