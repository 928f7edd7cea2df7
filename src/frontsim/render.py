"""Space-time diagram emission as standalone deterministic SVG text.

Space runs horizontally, time vertically (upward).  Excited regions are
shaded polygons bounded by interface curves; interfaces are stroked
polylines.  Pure text generation, no plotting dependency, byte-stable for a
given solution.
"""
from __future__ import annotations

import numpy as np

__all__ = ["spacetime_svg", "weak_solution_curves", "WIDTH", "HEIGHT"]

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


def _pair_texts(pairs: np.ndarray) -> np.ndarray:
    """The "px,py" text of each row of an (n, 2) array of pixel pairs, as an
    object array, with each distinct pair formatted once.

    A polygon repeats the samples of its curves, and the formatting is the
    bulk of the SVG's cost.  A stable sort of the rows as complex px + i py
    brings equal ones together.  Equal values share a text: pixels are
    PAD + s and HEIGHT - PAD - s, never -0.0, so equal values have equal
    bits and equal texts.
    """
    z = pairs.view(complex)[:, 0]
    order = np.argsort(z, kind="stable")
    zs = z[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = zs[1:] != zs[:-1]
    distinct = pairs[order[first]]
    texts = ("%.2f,%.2f " * len(distinct) % tuple(distinct.ravel().tolist())).split()
    out = np.empty(order.size, dtype=object)
    out[order] = np.array(texts, dtype=object)[np.cumsum(first) - 1]
    return out


def weak_solution_curves(w, samples_per_segment: int = 160):
    """(curves, polygons): interface polylines and per-component shaded loops.

    curves: list of (label, (n, 2) array of (x, t)), sorted by label, one
    block of samples per segment the label lives in; polygons: list of
    (2 * samples_per_segment, 2) arrays of (x, t), one closed loop per
    excited component of each segment.
    """
    blocks: dict[int, list[np.ndarray]] = {}
    polygons = []
    for seg in w.segments:
        if seg.n_interfaces == 0:
            continue
        ts = np.linspace(seg.t_start, seg.t_end, samples_per_segment)
        pos = seg.positions(ts)
        for j, label in enumerate(seg.labels):
            blocks.setdefault(label, []).append(np.column_stack([pos[:, j], ts]))
        for comp in range(seg.n_interfaces // 2):
            left = np.column_stack([pos[:, 2 * comp], ts])
            right = np.column_stack([pos[::-1, 2 * comp + 1], ts[::-1]])
            polygons.append(np.concatenate([left, right]))
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
    # the points of every shape are formatted together, each distinct one once
    pixels = [m.pixels(xt) for xt in (*polygons, *(pts for _, pts in curves))]
    texts = _pair_texts(np.concatenate([np.empty((0, 2)), *pixels]))
    ends = np.cumsum([0] + [len(px) for px in pixels]).tolist()
    point_lists = [" ".join(texts[a:b].tolist()) for a, b in zip(ends[:-1], ends[1:])]
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
