"""Deterministic bird's-eye-view SVG rendering.

Ground-truth boxes are drawn green, results blue, from (N, 7) box rows
(h, w, l, x, y, z, yaw) such as :meth:`rtm3d.kitti.LabelTable.boxes`
returns, each with a heading
tick from the footprint center toward the box front.  The canvas is a
fixed 800 x 800 px at 10 px per meter, with x right, z up and the camera
at the bottom center, and a grid line every 10 m; all coordinates are
formatted with two decimals so reruns are byte-identical.
"""

from __future__ import annotations

import math

from .evaluation import _footprints

__all__ = ["render_bev_svg"]

GT_COLOR = "#2e8b2e"
RESULT_COLOR = "#2e5bd7"
GRID_COLOR = "#d0d0d0"
WIDTH = HEIGHT = 800  # px
SCALE = 10.0  # px per meter
GRID_STEP = 10.0 * SCALE  # px between grid lines: 10 m


def _fmt(v: float) -> str:
    return f"{v + 0.0:.2f}"  # +0.0 normalizes -0.0


def _to_svg(x: float, z: float):
    return WIDTH / 2.0 + x * SCALE, HEIGHT - z * SCALE


def _box_svg(row: list, corners: list, color: str) -> str:
    """One box row and its footprint corners (4, 2), drawn."""
    pts = " ".join(f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in map(_to_svg, *zip(*corners)))
    _, _, length, cx, _, cz, yaw = row
    # Heading tick: footprint center toward the front face (+length axis).
    hx = cx + (length / 2.0) * math.cos(yaw)
    hz = cz - (length / 2.0) * math.sin(yaw)
    sx0, sy0 = _to_svg(cx, cz)
    sx1, sy1 = _to_svg(hx, hz)
    return (
        f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        f'<line x1="{_fmt(sx0)}" y1="{_fmt(sy0)}" x2="{_fmt(sx1)}" y2="{_fmt(sy1)}" '
        f'stroke="{color}" stroke-width="1.5"/>'
    )


def render_bev_svg(results, ground_truths) -> str:
    """Standalone SVG text for one frame's (N, 7) box rows."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    x = WIDTH / 2.0 % GRID_STEP
    while x <= WIDTH:
        parts.append(f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" y2="{HEIGHT}" '
                     f'stroke="{GRID_COLOR}" stroke-width="0.5"/>')
        x += GRID_STEP
    y = HEIGHT % GRID_STEP
    while y <= HEIGHT:
        parts.append(f'<line x1="0" y1="{_fmt(y)}" x2="{WIDTH}" y2="{_fmt(y)}" '
                     f'stroke="{GRID_COLOR}" stroke-width="0.5"/>')
        y += GRID_STEP
    for rows, color in ((ground_truths, GT_COLOR), (results, RESULT_COLOR)):
        parts += map(_box_svg, rows.tolist(), _footprints(rows).tolist(), [color] * len(rows))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
