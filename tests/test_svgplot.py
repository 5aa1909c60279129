"""The vectorized chart writer against the per-point writer it replaced."""

import numpy as np
import pytest

from msense.csvio import metrics_column, read_trajectory_csv
from msense.figures import CURVE_LABELS, RUNS, reproduce_figures
from msense.svgplot import write_line_chart


def assert_same_bytes(tmp_path, oracle, series, **kwargs):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    write_line_chart(got, series, **kwargs)
    oracle(want, series, **kwargs)
    assert got.read_bytes() == want.read_bytes()


def test_figure_charts_match_the_per_point_writer(tmp_path, line_chart_oracle):
    out = tmp_path / "figs"
    reproduce_figures(str(out), seed=2020)
    for k, init, _, figs in RUNS:
        for name, curves in figs.items():
            metrics = read_trajectory_csv(out / f"{name}.csv")  # repr round-trips exactly
            t = metrics_column(metrics, "t")
            series = [(CURVE_LABELS[c], t, metrics_column(metrics, c).clip(min=0.0))
                      for c in curves]
            want = tmp_path / f"{name}.svg"
            title = f"{name}: k={k}, {init} init"
            line_chart_oracle(want, series, title=title, ylabel="spectral norm")
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
def test_edge_series_match_the_per_point_writer(name, tmp_path, line_chart_oracle):
    assert_same_bytes(tmp_path, line_chart_oracle, EDGE_SERIES[name], title=name, ylabel="y")
