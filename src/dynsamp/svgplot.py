"""Self-contained SVG line/scatter plots, no plotting dependency.

Output is a pure function of the data and labels: coordinates are formatted
with fixed precision, so the same series always produce byte-identical SVG.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 84, 24, 46, 62
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_GRID = "#dddddd"
_LOG_FLOOR = 1e-16


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(x, y, size: int, body: str, anchor: str | None = "middle", extra: str = "") -> str:
    """A ``<text>`` element; x and y are written as given, ``extra`` after the font."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor_attr} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _nice_ticks(lo: float, hi: float, axis: str) -> list[float]:
    raw = (hi - lo) / 5  # about five intervals
    if not 0 < raw < math.inf:
        raise ValueError(f"{axis} axis: the range {lo:g} to {hi:g} is too narrow for its magnitude")
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    # where v + step rounds to v, the count of steps in the range ends the loop
    ticks, v, count = [], first, int((hi - lo) / step) + 2
    while v <= hi + 1e-12 * step and len(ticks) < count:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_d, hi_d = math.floor(lo), math.ceil(hi)
    stride = max(1, (hi_d - lo_d) // 8 + (1 if (hi_d - lo_d) % 8 else 0))
    return [float(d) for d in range(lo_d, hi_d + 1, stride)]


def _tick_label(v: float, logy: bool) -> str:
    if logy:
        return f"1e{int(v):+03d}"
    return f"{v:g}"


def render_plot(
    series,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
    scatter: bool = False,
) -> str:
    """Render labeled series to an SVG document string.

    ``series`` is a list of (label, xs, ys) triples.  With ``logy`` the y
    axis is decimal-log scaled and nonpositive values are clamped to a small
    floor so failed/zero entries stay visible at the bottom of the plot.
    """
    plotted = [  # (label, points) with each point's y on the axis scale
        (label, [(float(x), math.log10(max(float(y), _LOG_FLOOR)) if logy else float(y))
                 for x, y in zip(xs, ys)])
        for label, xs, ys in series
    ]
    pts = [pt for _, points in plotted for pt in points]
    if not pts:
        raise ValueError("nothing to plot")
    xs_all, ys_all = zip(*pts)
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.04 * (x_hi - x_lo)
    y_pad = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(_WIDTH // 2, 24, 16, title),
    ]

    x_ticks = _nice_ticks(x_lo, x_hi, "x")
    y_ticks = _log_ticks(y_lo, y_hi) if logy else _nice_ticks(y_lo, y_hi, "y")
    for tx in x_ticks:
        px = _fmt(sx(tx))
        out.append(_line(px, _MT, px, _MT + plot_h, _GRID, 1))
        out.append(_text(px, _MT + plot_h + 20, 12, _tick_label(tx, False)))
    for ty in y_ticks:
        if not y_lo <= ty <= y_hi:
            continue
        py = sy(ty)
        out.append(_line(_ML, _fmt(py), _ML + plot_w, _fmt(py), _GRID, 1))
        out.append(_text(_ML - 8, _fmt(py + 4), 12, _tick_label(ty, logy), "end"))

    # axes on top of the grid
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(_text(f"{_ML + plot_w / 2:.1f}", _HEIGHT - 14, 14, xlabel))
    mid = f"{_MT + plot_h / 2:.1f}"
    out.append(_text(20, mid, 14, ylabel, extra=f' transform="rotate(-90 20 {mid})"'))

    for idx, (label, points) in enumerate(plotted):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [(sx(x), sy(y)) for x, y in points]
        if not scatter and len(coords) > 1:
            path = " ".join(f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in coords)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        radius = 2.0 if scatter else 2.5
        if scatter or len(coords) <= 40:
            for cx, cy in coords:
                out.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{radius}" '
                    f'fill="{color}"/>'
                )
        if label:
            ly = _MT + 16 + 16 * idx
            out.append(_line(_ML + plot_w - 120, ly - 4, _ML + plot_w - 96, ly - 4, color, 2))
            out.append(_text(_ML + plot_w - 90, ly, 12, label, None))
    out.append("</svg>")
    return "\n".join(out) + "\n"
