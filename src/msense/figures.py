"""Reproduction of the reference simulation plots.

Six figures at the d=20, r=3, n=200, noiseless, eta=0.1 configuration with
spectrum (1, 0.9, 0.8): exact rank (k=3) and over-specified rank (k=4),
each from the planted basin initialization and from random initialization
near the origin, plus the two four-curve subspace-decomposition views of
the planted runs.  Four distinct runs feed them; each figure emits a
trajectory CSV and a log-y SVG plot.
"""

from __future__ import annotations

import os
import shutil

from .csvio import write_trajectory_csv
from .errors import InputError
from .harness import ExperimentConfig, InitSpec, run_experiment
from .svgplot import write_line_chart

BASE = dict(d=20, r=3, n=200, sigma=0.0, ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1)

ERR_CURVES = ("err_spec", "err_fro")
DECOMP_CURVES = ("ss_err", "st_norm", "tt_norm", "tt_err")

FIGURES = {
    "fig1a": dict(k=4, init="planted", iters=3000, curves=ERR_CURVES),
    "fig1b": dict(k=3, init="planted", iters=1500, curves=ERR_CURVES),
    "fig1c": dict(k=4, init="random", iters=3000, curves=ERR_CURVES),
    "fig1d": dict(k=3, init="random", iters=1500, curves=ERR_CURVES),
    "fig2a": dict(k=4, init="planted", iters=3000, curves=DECOMP_CURVES),
    "fig2b": dict(k=3, init="planted", iters=1500, curves=DECOMP_CURVES),
}

CURVE_LABELS = {
    "err_spec": "|FF' - X*| (spectral)",
    "err_fro": "|FF' - X*| (Frobenius)",
    "ss_err": "|SS' - DS*|",
    "st_norm": "|ST'|",
    "tt_norm": "|TT'|",
    "tt_err": "|TT' - DT*|",
}


def _figure_config(fig, seed):
    init = InitSpec(mode=fig["init"], scale=1e-3)
    return ExperimentConfig(
        **BASE, k=fig["k"], iters=fig["iters"], seed=seed, init=init
    )


def reproduce_figures(out_dir, seed=2020):
    """Write the six reference figures, from four runs, into ``out_dir``.

    Returns the list of files written (a CSV and an SVG per figure, in
    figure-name order).  Each run's figures are written as soon as it ends.
    """
    names = sorted(FIGURES)
    configs = {name: _figure_config(FIGURES[name], seed) for name in names}  # validates seed
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise InputError(f"output directory {out_dir} is not writable")

    for config in dict.fromkeys(configs.values()):  # one trajectory held at a time
        _write_figures(run_experiment(config), [n for n in names if configs[n] == config],
                       out_dir)
    return [os.path.join(out_dir, f"{name}.{ext}") for name in names for ext in ("csv", "svg")]


def _write_figures(traj, names, out_dir):
    """Write the CSV and SVG of each figure in ``names``, all plotting ``traj``: the
    first CSV is written, the others copy it."""
    t = traj.column("t")
    first_csv = None
    for name in names:
        fig = FIGURES[name]
        csv_path = os.path.join(out_dir, f"{name}.csv")
        svg_path = os.path.join(out_dir, f"{name}.svg")
        try:
            if first_csv is None:
                write_trajectory_csv(traj, csv_path)
                first_csv = csv_path
            else:
                shutil.copyfile(first_csv, csv_path)
            series = [
                (CURVE_LABELS[c], t, traj.column(c).clip(min=0.0)) for c in fig["curves"]
            ]
            title = f"{name}: k={fig['k']}, {fig['init']} init"
            write_line_chart(svg_path, series, title=title, ylabel="spectral norm")
        except OSError as exc:
            raise InputError(f"failed writing {name} outputs: {exc}") from exc
