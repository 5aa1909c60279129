"""Minimal hand-written SVG line charts (log-y), no plotting dependencies.

A curve's pixels are one numpy expression in the per-point formulas' order,
with math.log10 per value, so the bytes match a per-point writer.  Curves with
bitwise-equal x values share one formatted copy of their x pixels."""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
FLOOR = 1e-18  # log-plot clamp for exact zeros


def _ticks_log(lo, hi):
    lo_e = int(math.floor(math.log10(lo)))
    hi_e = int(math.ceil(math.log10(hi)))
    step = max(1, (hi_e - lo_e) // 8)
    return [10.0**e for e in range(lo_e, hi_e + 1, step)]


def write_line_chart(path, series, title="", ylabel="value"):
    """Write a log-y line chart.  ``series`` is a list of (label, xs, ys)."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    xs_each = [np.asarray(xs, dtype=float) for _, xs, _ in series]
    ys_each = [np.maximum(np.asarray(ys, dtype=float), FLOOR) for _, _, ys in series]
    xs_all, ys_all = np.concatenate(xs_each), np.concatenate(ys_each)
    x_lo, x_hi = xs_all.min(), xs_all.max()
    y_lo, y_hi = ys_all.min(), ys_all.max()
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo * 10 if y_lo > 0 else 1.0
    lo, hi = math.log10(y_lo), math.log10(y_hi)
    if hi == lo:
        hi = lo + 1

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(ys):  # values already clamped to FLOOR
        ly = np.fromiter(map(math.log10, ys), float)
        return MARGIN_T + (hi - ly) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]

    y_ticks = [yt for yt in _ticks_log(y_lo, y_hi) if y_lo <= yt <= y_hi]
    for yt, ypix in zip(y_ticks, py(y_ticks).tolist()):
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{ypix:.1f}" x2="{MARGIN_L + plot_w}" y2="{ypix:.1f}" '
            'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{ypix + 4:.1f}" text-anchor="end">1e{int(round(math.log10(yt)))}</text>'
        )
    n_xticks = 6
    for i in range(n_xticks + 1):
        xv = x_lo + (x_hi - x_lo) * i / n_xticks
        xpix = px(xv)
        parts.append(
            f'<line x1="{xpix:.1f}" y1="{MARGIN_T + plot_h}" x2="{xpix:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{xpix:.1f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle">{int(xv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )

    x_cells = {}  # xs bytes -> formatted x pixels: a figure's curves all share t
    for i, ((label, _, _), xs, ys) in enumerate(zip(series, xs_each, ys_each)):
        color = COLORS[i % len(COLORS)]
        key = xs.tobytes()
        if key not in x_cells:
            x_cells[key] = list(map("{:.1f}".format, px(xs).tolist()))
        pts = " ".join(map("{},{:.1f}".format, x_cells[key], py(ys.tolist()).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
