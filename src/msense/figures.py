"""Reproduction of the reference simulation plots.

Six figures at the d=20, r=3, n=200, noiseless, eta=0.1 configuration with
spectrum (1, 0.9, 0.8), from the four runs of ``RUNS``: exact rank (k=3) and
over-specified rank (k=4), each from the planted basin initialization and
from random initialization near the origin.  The planted runs also feed the
two four-curve subspace-decomposition views.  Each figure emits a trajectory
CSV and a log-y SVG plot.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace

from .errors import InputError
from .harness import ExperimentConfig, InitSpec, run_experiment
from .svgplot import write_line_chart

BASE = dict(d=20, r=3, n=200, sigma=0.0, ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1)

ERR_CURVES = ("err_spec", "err_fro")
DECOMP_CURVES = ("ss_err", "st_norm", "tt_norm", "tt_err")

# (k, init, iters, {figure: curves}) of each run.
RUNS = (
    (4, "planted", 3000, {"fig1a": ERR_CURVES, "fig2a": DECOMP_CURVES}),
    (3, "planted", 1500, {"fig1b": ERR_CURVES, "fig2b": DECOMP_CURVES}),
    (4, "random", 3000, {"fig1c": ERR_CURVES}),
    (3, "random", 1500, {"fig1d": ERR_CURVES}),
)

CURVE_LABELS = {
    "err_spec": "|FF' - X*| (spectral)",
    "err_fro": "|FF' - X*| (Frobenius)",
    "ss_err": "|SS' - DS*|",
    "st_norm": "|ST'|",
    "tt_norm": "|TT'|",
    "tt_err": "|TT' - DT*|",
}


def reproduce_figures(out_dir, seed=2020):
    """Write the six reference figures, from the four runs of ``RUNS``, into ``out_dir``.

    Returns the list of files written (a CSV and an SVG per figure, in
    figure-name order).  A run writes its first figure's CSV itself; the
    second copies it, then the SVGs are drawn from the returned trajectory.
    A failed write raises its OSError.
    """
    configs = [ExperimentConfig(**BASE, k=k, iters=iters, seed=seed,  # validates seed
                                init=InitSpec(mode=init, scale=1e-3))
               for k, init, iters, _ in RUNS]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot create output directory {out_dir}: {exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise InputError(f"output directory {out_dir} is not writable")

    def path(name, ext):
        return os.path.join(out_dir, f"{name}.{ext}")

    for config, (k, init, _, figs) in zip(configs, RUNS):  # one trajectory held at a time
        first, *rest = figs
        traj = run_experiment(replace(config, output=path(first, "csv")))
        for name in rest:
            shutil.copyfile(path(first, "csv"), path(name, "csv"))
        t = traj.column("t")
        for name, curves in figs.items():
            series = [(CURVE_LABELS[c], t, traj.column(c).clip(min=0.0)) for c in curves]
            write_line_chart(path(name, "svg"), series, title=f"{name}: k={k}, {init} init",
                             ylabel="spectral norm")
    names = sorted(name for *_, figs in RUNS for name in figs)
    return [path(name, ext) for name in names for ext in ("csv", "svg")]
