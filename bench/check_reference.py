"""Self-test of the reference evaluator against closed forms.

Congruent boxes shifted along their own axes by (dl, dw) overlap in
(l - |dl|)(w - |dw|); boxes far apart overlap in 0.  ``run.py`` calls
``check()`` before every run, and it runs alone with

    python3 bench/check_reference.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, __file__.rsplit("/", 1)[0] or ".")

import reference as ref  # noqa: E402


def _box(x, z, l, w, ry, h=1.5, y=1.6):
    return {"x": x, "y": y, "z": z, "l": l, "w": w, "h": h, "ry": ry}


def _shifted(box, dl, dw, dy=0.0):
    c, s = math.cos(box["ry"]), math.sin(box["ry"])
    out = dict(box)
    out["x"] += c * dl + s * dw
    out["z"] += -s * dl + c * dw
    out["y"] += dy
    return out


def check(n_cases: int = 300, seed: int = 0) -> list[str]:
    """Return a list of failures; empty when every closed form holds."""
    rng = np.random.default_rng(seed)
    failures = []
    yaws = [0.0, math.pi / 2, -math.pi, math.pi / 4] + list(rng.uniform(-math.pi, math.pi, n_cases))
    for k, ry in enumerate(yaws):
        l, w = rng.uniform(1.0, 6.0), rng.uniform(0.5, 3.0)
        a = _box(rng.uniform(-10, 10), rng.uniform(5, 50), l, w, ry)
        # Axis-aligned-in-the-box-frame shifts, including zero and edge-collinear ones.
        dl = [0.0, 0.3 * l, -0.7 * l, rng.uniform(-l, l)][k % 4]
        dw = [0.0, -0.4 * w, rng.uniform(-w, w), 0.0][k % 4]
        b = _shifted(a, dl, dw)
        want = (l - abs(dl)) * (w - abs(dw))
        got = ref.convex_intersection_area(ref.footprint(a), ref.footprint(b))
        if abs(got - want) > 1e-9 * max(1.0, want):
            failures.append(f"shift yaw={ry:.3f} dl={dl:.3f} dw={dw:.3f}: {got} != {want}")
        iou = want / (2 * l * w - want)
        if abs(ref.bev_overlap(a, b) - iou) > 1e-9:
            failures.append(f"bev iou yaw={ry:.3f}: {ref.bev_overlap(a, b)} != {iou}")
        dy = rng.uniform(-a["h"], a["h"])
        c = _shifted(a, dl, dw, dy)
        inter = want * (a["h"] - abs(dy))
        iou3 = inter / (2 * l * w * a["h"] - inter)
        if abs(ref.overlap_3d(a, c) - iou3) > 1e-9:
            failures.append(f"3d iou yaw={ry:.3f} dy={dy:.3f}: {ref.overlap_3d(a, c)} != {iou3}")
        far = _shifted(a, l + rng.uniform(0.01, 5.0), 0.0)
        apart = [far, _shifted(a, 0.0, -(w + rng.uniform(0.01, 5.0))), _shifted(a, 0, 0, a["h"] + 0.5)]
        for j, d in enumerate(apart):
            o = ref.overlap_3d(a, d) if j == 2 else ref.bev_overlap(a, d)
            if o != 0.0:
                failures.append(f"disjoint case {j} yaw={ry:.3f}: overlap {o}")
    if ref.overlap_2d((0, 0, 4, 2), (2, 1, 6, 3)) != 2.0 / 14.0:
        failures.append("axis-aligned 2D IoU")
    return failures


if __name__ == "__main__":
    problems = check()
    for p in problems:
        print("FAIL", p)
    print("reference self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
