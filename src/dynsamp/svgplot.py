"""Self-contained SVG line/scatter plots, no plotting dependency.

Output is a pure function of the data and labels: coordinates are formatted
with fixed precision, so the same series always produce byte-identical SVG.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 84, 24, 46, 62
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_LOG_FLOOR = 1e-16


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5  # about five intervals
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
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
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    x_ticks = _nice_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if logy else _nice_ticks(y_lo, y_hi)
    for tx in x_ticks:
        px = sx(tx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_MT}" x2="{_fmt(px)}" '
            f'y2="{_MT + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_tick_label(tx, False)}</text>'
        )
    for ty in y_ticks:
        if not y_lo <= ty <= y_hi:
            continue
        py = sy(ty)
        out.append(
            f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_ML + plot_w}" '
            f'y2="{_fmt(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_tick_label(ty, logy)}</text>'
        )

    # axes on top of the grid
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {_MT + plot_h / 2:.1f})">{ylabel}</text>'
    )

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
            out.append(
                f'<line x1="{_ML + plot_w - 120}" y1="{ly - 4}" '
                f'x2="{_ML + plot_w - 96}" y2="{ly - 4}" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            out.append(
                f'<text x="{_ML + plot_w - 90}" y="{ly}" font-family="sans-serif" '
                f'font-size="12">{label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
