import math

import numpy as np
import pytest

from msense import generate_ground_truth, generate_sensing
from msense.csvio import TRAJECTORY_HEADER
from msense.subspace import batch_metrics
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
)


@pytest.fixture(scope="session")
def gt20():
    """Reference problem: d=20, r=3, spectrum (1, 0.9, 0.8), no residual part."""
    return generate_ground_truth(20, 3, [1.0, 0.9, 0.8], "zeros", seed=424242)


@pytest.fixture(scope="session")
def sensing20(gt20):
    return generate_sensing(gt20, n=200, sigma=0.0, seed=424242)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _whole_block_draw(rng_, count, d, distribution):
    """The raw (count, d, d) draws of one whole-block call, as first written."""
    if distribution == "gaussian":
        return rng_.standard_normal((count, d, d))
    return rng_.integers(0, 2, size=(count, d, d)).astype(float) * 2.0 - 1.0


def _triu_transpose_draw(rng_, count, d, distribution):
    """The sensing draw as first written: triu, its transpose and the diagonal."""
    g = _whole_block_draw(rng_, count, d, distribution)
    upper = np.triu(g, 1)
    a = upper + np.transpose(upper, (0, 2, 1))
    idx = np.arange(d)
    a[:, idx, idx] = g[:, idx, idx]
    return a


@pytest.fixture(scope="session")
def draw_oracle():
    """``_triu_transpose_draw(rng, count, d, distribution)``, the oracle for problem._draw."""
    return _triu_transpose_draw


@pytest.fixture(scope="session")
def raw_draw_oracle():
    """``_whole_block_draw(rng, count, d, distribution)``, the oracle for problem._draw's
    raw draws."""
    return _whole_block_draw


def _one_row_metrics(t, f, gt, floor, grad_norm=0.0, delta_norm=None):
    return batch_metrics(t, [f], gt, floor, [grad_norm], [delta_norm])[0]


@pytest.fixture(scope="session")
def one_row_metrics():
    """``_one_row_metrics(t, f, gt, floor, grad_norm=0.0, delta_norm=None)``: the
    IterateMetrics of one iterate, from a one-row batch_metrics call."""
    return _one_row_metrics


def _per_row_cell(x):
    return "" if x is None else repr(float(x))


def _per_row_trajectory_rows(traj, timing=False):
    """The trajectory CSV rows as first written: one formatting call per cell."""
    yield TRAJECTORY_HEADER
    elapsed = traj.elapsed_ms if timing else [None] * len(traj.metrics)
    for m, ms in zip(traj.metrics, elapsed):
        yield ",".join([str(m.t), *map(_per_row_cell, m[1:]), _per_row_cell(ms)])


@pytest.fixture(scope="session")
def trajectory_rows_oracle():
    """``_per_row_trajectory_rows(traj, timing=False)``, the oracle for
    csvio.trajectory_rows and write_trajectory_csv."""
    return _per_row_trajectory_rows


def _per_point_line_chart(path, series, title="", xlabel="iteration", ylabel="value"):
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


@pytest.fixture(scope="session")
def line_chart_oracle():
    """``_per_point_line_chart(path, series, title="", xlabel="iteration", ylabel="value")``,
    the oracle for svgplot.write_line_chart."""
    return _per_point_line_chart
