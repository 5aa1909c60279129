"""The vectorized chart writer against the per-point writer it replaced."""

import math

import numpy as np
import pytest

from msense.csvio import metrics_column, read_trajectory_csv
from msense.figures import CURVE_LABELS, FIGURES, reproduce_figures
from msense.svgplot import (
    COLORS,
    FLOOR,
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    WIDTH,
    _ticks_log,
    write_line_chart,
)


def oracle_line_chart(path, series, title="", xlabel="iteration", ylabel="value"):
    """The chart writer as first written: one px/py call per point."""
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [max(float(y), FLOOR) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo * 10 if y_lo > 0 else 1.0

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        ly = math.log10(max(float(y), FLOOR))
        lo, hi = math.log10(y_lo), math.log10(y_hi)
        if hi == lo:
            hi = lo + 1
        return MARGIN_T + (hi - ly) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]

    for yt in _ticks_log(y_lo, y_hi):
        if yt < y_lo or yt > y_hi:
            continue
        ypix = py(yt)
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
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
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


def assert_same_bytes(tmp_path, series, **kwargs):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_line_chart(got, series, **kwargs)
    oracle_line_chart(want, series, **kwargs)
    assert got.read_bytes() == want.read_bytes()


def test_figure_charts_match_the_per_point_writer(tmp_path):
    out = tmp_path / "figs"
    reproduce_figures(str(out), seed=2020)
    for name, fig in sorted(FIGURES.items()):
        metrics = read_trajectory_csv(out / f"{name}.csv")  # repr round-trips exactly
        t = metrics_column(metrics, "t")
        series = [(CURVE_LABELS[c], t, metrics_column(metrics, c).clip(min=0.0))
                  for c in fig["curves"]]
        want = tmp_path / f"{name}.svg"
        title = f"{name}: k={fig['k']}, {fig['init']} init"
        oracle_line_chart(want, series, title=title, ylabel="spectral norm")
        assert (out / f"{name}.svg").read_bytes() == want.read_bytes(), name


EDGE_SERIES = {
    # Exact zeros are clamped to FLOOR, which becomes the axis minimum.
    "zeros": [("a", [0, 1, 2, 3], [1.0, 0.0, 1e-3, 0.0])],
    # y_hi == y_lo: the axis spans one decade above the constant.
    "constant": [("a", [0, 5, 10], [0.25, 0.25, 0.25])],
    # x_hi == x_lo: the x axis spans one unit.
    "single_point": [("a", [7], [3e-4])],
    "two_lengths": [("a", list(range(40)), [0.9**t for t in range(40)]),
                    ("b", np.arange(10.0), np.linspace(2.0, 1e-9, 10))],
}


@pytest.mark.parametrize("name", sorted(EDGE_SERIES))
def test_edge_series_match_the_per_point_writer(name, tmp_path):
    assert_same_bytes(tmp_path, EDGE_SERIES[name], title=name, ylabel="y")
