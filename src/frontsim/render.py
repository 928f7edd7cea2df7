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


def _coord_texts(values: np.ndarray, fmt: str) -> np.ndarray:
    """fmt % v for each value v, as an object array, with each distinct value
    formatted once.

    A stable sort, quick on the sorted runs of a shape's samples, brings
    equal values together.  Equal values share a text: pixels are PAD + s
    and HEIGHT - PAD - s, never -0.0, so equal values have equal bits and
    equal texts.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first].tolist()
    texts = ((fmt + "\0") * len(distinct) % tuple(distinct)).split("\0")[:-1]
    out = np.empty(order.size, dtype=object)
    out[order] = np.array(texts, dtype=object)[np.cumsum(first) - 1]
    return out


def _point_lists(shapes) -> list[str]:
    """The SVG points text "px,py px,py ..." of each (n, 2) array of pixels.

    Formatting is the bulk of the SVG's cost.  A polygon repeats the samples
    of its curves, and every shape of a segment shares one linspace of
    times, so each distinct px and each distinct py of all shapes together
    is formatted once.  The texts px and ",py " then interleave, and each
    shape's last space is cut.
    """
    pixels = np.concatenate([np.empty((0, 2)), *shapes])
    pieces = np.column_stack(
        [_coord_texts(pixels[:, 0], "%.2f"), _coord_texts(pixels[:, 1], ",%.2f ")]
    )
    ends = np.cumsum([0] + [len(xy) for xy in shapes]).tolist()
    return ["".join(pieces[a:b].ravel().tolist())[:-1] for a, b in zip(ends[:-1], ends[1:])]


# time samples of each segment in the space-time plot
_SAMPLES_PER_SEGMENT = 160


def weak_solution_curves(w):
    """(curves, polygons): interface polylines and per-component shaded loops.

    curves: list of (label, (n, 2) array of (x, t)), sorted by label, one
    block of samples per segment the label lives in; polygons: list of
    (2 * _SAMPLES_PER_SEGMENT, 2) arrays of (x, t), one closed loop per
    excited component of each segment.
    """
    blocks: dict[int, list[np.ndarray]] = {}
    polygons = []
    for seg in w.segments:
        if seg.n_interfaces == 0:
            continue
        ts = np.linspace(seg.t_start, seg.t_end, _SAMPLES_PER_SEGMENT)
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
