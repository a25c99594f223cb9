"""Reference computations written apart from the ``rtm3d`` package.

The benchmark checks the program's outputs against these functions, so
none of them imports ``rtm3d``:

- KITTI label, result and calibration text parsing;
- the box corner layout and a pinhole projection straight from ``P2``;
- rotated bird's-eye-view intersection by vertex inclusion plus edge
  crossings, ordered by angle and measured with the shoelace formula
  (the program clips polygons with Sutherland-Hodgman instead);
- 3D overlap by the height interval, axis-aligned 2D IoU;
- greedy score-ordered matching with the DontCare and difficulty ignore
  rules, and the 11-point interpolated AP and AOS.
"""

from __future__ import annotations

import math

import numpy as np

# KITTI difficulty gates: minimum 2D box height (px), maximum occlusion
# level, maximum truncation.
DIFFICULTIES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}

_EPS = 1e-9


# ---------------------------------------------------------------------------
# Text formats


def parse_label_text(text: str) -> list[dict]:
    """KITTI label or result lines as dicts (15 fields, 16 with a score)."""
    out = []
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if len(f) not in (15, 16):
            raise ValueError(f"label line with {len(f)} fields: {line!r}")
        v = [float(x) for x in f[1:]]
        out.append(
            {
                "type": f[0],
                "truncated": v[0],
                "occluded": int(v[1]),
                "alpha": v[2],
                "bbox": (v[3], v[4], v[5], v[6]),
                "h": v[7],
                "w": v[8],
                "l": v[9],
                "x": v[10],
                "y": v[11],
                "z": v[12],
                "ry": v[13],
                "score": v[14] if len(v) == 15 else 1.0,
            }
        )
    return out


def parse_p2(text: str) -> np.ndarray:
    """The 3x4 ``P2`` projection matrix of a KITTI calib file."""
    for line in text.splitlines():
        if line.startswith("P2:"):
            return np.array([float(x) for x in line.split()[1:13]]).reshape(3, 4)
    raise ValueError("calib text has no P2 line")


def parse_keypoint_text(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Keypoint sidecar lines as ((9, 2) pixels, (9,) confidences)."""
    out = []
    for line in text.splitlines():
        if line.strip():
            arr = np.array([float(x) for x in line.split()]).reshape(9, 3)
            out.append((arr[:, :2], arr[:, 2]))
    return out


# ---------------------------------------------------------------------------
# Box geometry


def box_points(h, w, l, x, y, z, ry, pitch=0.0, roll=0.0) -> np.ndarray:
    """Eight corners then the centre of a bottom-anchored KITTI box, (9, 3).

    Corners 0-3 lie on the bottom face and 4-7 above them, going
    (+l, +w), (+l, -w), (-l, -w), (-l, +w) in half extents; the length runs
    along the object's x axis and the width along its z axis before the
    rotation ``ry`` about the camera y axis (y points down).  ``roll`` (about
    the object's length axis) and ``pitch`` (about its width axis) tilt the box
    about its bottom centre before the yaw; they leave the yaw read back as
    ``atan2(R[0, 2], R[2, 2])`` unchanged.
    """
    sl = np.array([0.5, 0.5, -0.5, -0.5] * 2 + [0.0]) * l
    sw = np.array([0.5, -0.5, -0.5, 0.5] * 2 + [0.0]) * w
    sy = np.array([0.0] * 4 + [-1.0] * 4 + [-0.5]) * h
    c, s = math.cos(ry), math.sin(ry)
    r = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if pitch or roll:
        cr, sr, cp, sp = math.cos(roll), math.sin(roll), math.cos(pitch), math.sin(pitch)
        r = r @ np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]]) \
              @ np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return np.stack([sl, sy, sw], axis=1) @ r.T + np.array([x, y, z])


def project_p2(p2: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Pinhole projection of (N, 3) camera-frame points through ``P2``."""
    hom = np.hstack([pts, np.ones((len(pts), 1))]) @ p2.T
    return hom[:, :2] / hom[:, 2:3]


def footprint(box: dict) -> np.ndarray:
    """Ground-plane corners (4, 2) in (x, z), counterclockwise."""
    c, s = math.cos(box["ry"]), math.sin(box["ry"])
    hl, hw = box["l"] / 2.0, box["w"] / 2.0
    corners = []
    for a, b in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        corners.append((box["x"] + c * a + s * b, box["z"] - s * a + c * b))
    poly = np.array(corners)
    return poly if _signed_area(poly) >= 0 else poly[::-1]


def _signed_area(poly: np.ndarray) -> float:
    x, z = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(z, -1) - np.roll(x, -1) * z))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _inside(p, poly) -> bool:
    n = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % n], p) >= -_EPS for i in range(n))


def _edge_crossings(pa: np.ndarray, pb: np.ndarray) -> list:
    pts = []
    for i in range(len(pa)):
        p, r = pa[i], pa[(i + 1) % len(pa)] - pa[i]
        for j in range(len(pb)):
            q, s = pb[j], pb[(j + 1) % len(pb)] - pb[j]
            denom = r[0] * s[1] - r[1] * s[0]
            if abs(denom) < 1e-12:
                continue  # parallel edges: shared points come from vertex inclusion
            qp = q - p
            t = (qp[0] * s[1] - qp[1] * s[0]) / denom
            u = (qp[0] * r[1] - qp[1] * r[0]) / denom
            if -_EPS <= t <= 1 + _EPS and -_EPS <= u <= 1 + _EPS:
                pts.append(p + t * r)
    return pts


def convex_intersection_area(pa: np.ndarray, pb: np.ndarray) -> float:
    """Area of the intersection of two counterclockwise convex polygons."""
    pts = [p for p in pa if _inside(p, pb)]
    pts += [p for p in pb if _inside(p, pa)]
    pts += _edge_crossings(pa, pb)
    if len(pts) < 3:
        return 0.0
    pts = np.array(pts)
    centre = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))
    return abs(_signed_area(pts[order]))


def _footprints_apart(a: dict, b: dict) -> bool:
    """True when the footprints' circumscribed circles do not meet."""
    reach = 0.5 * (math.hypot(a["l"], a["w"]) + math.hypot(b["l"], b["w"]))
    return math.hypot(a["x"] - b["x"], a["z"] - b["z"]) > reach


def bev_overlap(a: dict, b: dict) -> float:
    if _footprints_apart(a, b):
        return 0.0
    inter = convex_intersection_area(footprint(a), footprint(b))
    union = a["l"] * a["w"] + b["l"] * b["w"] - inter
    return min(max(inter / union, 0.0), 1.0) if union > _EPS else 0.0


def overlap_3d(a: dict, b: dict) -> float:
    if _footprints_apart(a, b):
        return 0.0
    inter = convex_intersection_area(footprint(a), footprint(b))
    # Boxes hang upward (negative y) from their bottom face at y.
    dy = min(a["y"], b["y"]) - max(a["y"] - a["h"], b["y"] - b["h"])
    inter *= max(dy, 0.0)
    union = a["h"] * a["w"] * a["l"] + b["h"] * b["w"] * b["l"] - inter
    return min(max(inter / union, 0.0), 1.0) if union > _EPS else 0.0


def overlap_2d(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


# ---------------------------------------------------------------------------
# Matching and average precision


def _accepts(label: dict, difficulty: str) -> bool:
    min_h, max_occ, max_trunc = DIFFICULTIES[difficulty]
    bbox = label["bbox"]
    return (
        bbox[3] - bbox[1] >= min_h
        and label["occluded"] <= max_occ
        and label["truncated"] <= max_trunc
    )


def frame_overlaps(dets: list, gts: list) -> dict:
    """Det x GT overlap tables of one frame, computed once for every metric."""
    return {
        "3d": [[overlap_3d(d, g) for g in gts] for d in dets],
        "bev": [[bev_overlap(d, g) for g in gts] for d in dets],
        "2d": [[overlap_2d(d["bbox"], g["bbox"]) for g in gts] for d in dets],
    }


def _frame_outcomes(dets, gts, table, threshold, difficulty, category):
    """(score, tp, ignored, orientation similarity) per detection of a frame."""
    rel = [i for i, g in enumerate(gts) if g["type"] == category and _accepts(g, difficulty)]
    ign = [
        i
        for i, g in enumerate(gts)
        if g["type"] == "DontCare" or (g["type"] == category and not _accepts(g, difficulty))
    ]
    taken = set()
    order = sorted(
        (i for i, d in enumerate(dets) if d["type"] == category), key=lambda i: -dets[i]["score"]
    )
    out = []
    for i in order:
        best, best_j = 0.0, None
        for j in rel:
            if j not in taken and table[i][j] > best:
                best, best_j = table[i][j], j
        if best_j is not None and best >= threshold:
            taken.add(best_j)
            d_alpha = dets[i]["alpha"] - gts[best_j]["alpha"]
            out.append((dets[i]["score"], True, False, 0.5 * (1.0 + math.cos(d_alpha))))
        else:
            hit = any(overlap_2d(dets[i]["bbox"], gts[j]["bbox"]) >= threshold for j in ign)
            out.append((dets[i]["score"], False, hit, 0.0))
    return out, len(rel)


def _eleven_point(outcomes, n_gt, use_similarity) -> float:
    kept = sorted((o for o in outcomes if not o[2]), key=lambda o: -o[0])
    if n_gt == 0 or not kept:
        return 0.0
    tp = sim = 0.0
    recall, precision = [], []
    for k, (_, is_tp, _, s) in enumerate(kept, start=1):
        tp += is_tp
        sim += s
        recall.append(tp / n_gt)
        precision.append((sim if use_similarity else tp) / k)
    total = 0.0
    for i in range(11):
        r = i / 10.0
        total += max((p for rc, p in zip(recall, precision) if rc >= r - 1e-12), default=0.0)
    return total / 11.0


def evaluate(det_frames: dict, gt_frames: dict, iou: float = 0.5, category: str = "Car") -> dict:
    """Every ``rtm3d eval`` figure: AP_3d, AP_BEV, AOS and AP_2d per difficulty.

    AP_3d and AP_BEV match at ``iou``; AOS and its AP_2d match by 2D IoU at
    0.7, as the program's ``aos`` does by default.
    """
    frames = sorted(set(det_frames) | set(gt_frames))
    tables = {f: frame_overlaps(det_frames.get(f, []), gt_frames.get(f, [])) for f in frames}
    result = {}
    for diff in DIFFICULTIES:
        for kind, threshold, name in (("3d", iou, "ap_3d"), ("bev", iou, "ap_bev"), ("2d", 0.7, "aos")):
            outcomes, n_gt = [], 0
            for f in frames:
                o, n = _frame_outcomes(
                    det_frames.get(f, []), gt_frames.get(f, []), tables[f][kind],
                    threshold, diff, category,
                )
                outcomes += o
                n_gt += n
            if kind == "2d":
                result[f"aos_{diff}"] = _eleven_point(outcomes, n_gt, True)
                result[f"ap_2d_{diff}"] = _eleven_point(outcomes, n_gt, False)
            else:
                result[f"{name}_{diff}"] = _eleven_point(outcomes, n_gt, False)
    return result
