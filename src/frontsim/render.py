"""Space-time diagram emission as standalone deterministic SVG text.

Space runs horizontally, time vertically (upward).  Excited regions are
shaded polygons bounded by interface curves; interfaces are stroked
polylines through the integrator's accepted step ends, which include every
kink and every event, so the picture grows with the steps taken.  Pure text
generation, no plotting dependency, byte-stable for a given solution.
"""
from __future__ import annotations

import numpy as np

__all__ = ["spacetime_svg", "path_curves", "weak_solution_curves", "WIDTH", "HEIGHT"]

WIDTH, HEIGHT = 640, 480
PAD = 46
FILL = "#f4c28c"
STROKE = "#8a2d0b"
ALT_STROKE = "#0b4f8a"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Mapper:
    def __init__(self, xmin, xmax, tmin, tmax):
        self.xmin, self.xmax = xmin, xmax
        self.tmin, self.tmax = tmin, tmax

    def pixels(self, xt) -> np.ndarray:
        """The (px, py) pixel pairs of an (n, 2) array of (x, t) points."""
        xt = np.asarray(xt, dtype=float)
        px = PAD + (xt[:, 0] - self.xmin) / (self.xmax - self.xmin) * (WIDTH - 2 * PAD)
        py = HEIGHT - PAD - (xt[:, 1] - self.tmin) / (self.tmax - self.tmin) * (HEIGHT - 2 * PAD)
        return np.column_stack([px, py])


def _point_lists(shapes) -> list[str]:
    """The SVG points text "px,py px,py ..." of each (n, 2) array of pixels,
    formatted with one % operation per shape."""
    return [" ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist()) for xy in shapes]


def path_curves(path) -> list[np.ndarray]:
    """One (n, 2) array of (x, t) per column of a DensePath, through its knots."""
    ts, ys = path.arrays()[:2]
    return [np.column_stack([y, ts]) for y in ys.T]


def weak_solution_curves(w):
    """(curves, polygons): interface polylines and per-component shaded loops,
    both through the accepted step ends of each segment's path.

    The step ends land on every kink and every event, and at the default
    tol_step a polyline through them stays within a few hundredths of a
    pixel of the quartic dense output.
    curves: list of (label, (n, 2) array of (x, t)), sorted by label, one
    block of knots per segment the label lives in; polygons: list of (n, 2)
    arrays of (x, t), one closed loop per excited component of each segment:
    its left front's knots going up, then its right front's coming down.
    """
    blocks: dict[int, list[np.ndarray]] = {}
    polygons = []
    for seg in w.segments:
        fronts = path_curves(seg._path)
        for label, xt in zip(seg.labels, fronts):
            blocks.setdefault(label, []).append(xt)
        for left, right in zip(fronts[::2], fronts[1::2]):
            polygons.append(np.concatenate([left, right[::-1]]))
    curves = [(label, np.concatenate(parts)) for label, parts in sorted(blocks.items())]
    return curves, polygons


def spacetime_svg(
    curves,
    polygons,
    *,
    x_range: tuple[float, float],
    t_range: tuple[float, float],
    title: str = "",
) -> str:
    """Assemble the SVG document from curve and polygon data in (x, t) space."""
    m = _Mapper(x_range[0], x_range[1], t_range[0], t_range[1])
    polygons = list(polygons)
    point_lists = _point_lists([m.pixels(xt) for xt in (*polygons, *(pts for _, pts in curves))])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for pts in point_lists[: len(polygons)]:
        parts.append(f'<polygon points="{pts}" fill="{FILL}" fill-opacity="0.55" stroke="none"/>')
    palette = [STROKE, ALT_STROKE]
    for i, d in enumerate(point_lists[len(polygons):]):
        color = palette[i % len(palette)] if len(curves) <= 2 else STROKE
        parts.append(
            f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
    parts.append(
        f'<rect x="{PAD}" y="{PAD}" width="{WIDTH - 2 * PAD}" height="{HEIGHT - 2 * PAD}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    labels = [
        (PAD, HEIGHT - PAD + 16, f"x = {x_range[0]:g}", "start"),
        (WIDTH - PAD, HEIGHT - PAD + 16, f"x = {x_range[1]:g}", "end"),
        (PAD - 6, HEIGHT - PAD, f"t = {t_range[0]:g}", "end"),
        (PAD - 6, PAD + 4, f"t = {t_range[1]:g}", "end"),
    ]
    for x, y, text, anchor in labels:
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" font-family="monospace" '
            f'text-anchor="{anchor}" fill="#333">{text}</text>'
        )
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="{PAD - 14}" font-size="13" font-family="monospace" '
            f'text-anchor="middle" fill="#111">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
