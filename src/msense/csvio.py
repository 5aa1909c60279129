"""CSV serialization for trajectories and sweeps.

Fixed schemas, '.' decimal, no locale.  Floats are written with repr so a
round-trip parse recovers them exactly (up to 17 significant digits).
Missing optional values are empty cells, never 0.  Timing cells are left
empty unless explicitly requested, so default output is byte-identical
across reruns.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError
from .subspace import IterateMetrics

TRAJECTORY_HEADER = (
    "t,ss_err,st_norm,tt_norm,tt_err,D,A,err_spec,err_fro,grad_norm,delta_norm,elapsed_ms"
)
SWEEP_HEADER = "param,value,cell_seed,plateau_err_fro,plateau_err_fro_sq,D_final,status"


def _f(x):
    return repr(float(x))


def trajectory_rows(traj, timing=False):
    yield TRAJECTORY_HEADER
    elapsed = traj.elapsed_ms if timing else [None] * len(traj.metrics)
    for m, ms in zip(traj.metrics, elapsed):
        delta = "" if m.delta_norm is None else _f(m.delta_norm)
        clock = "" if ms is None else _f(ms)
        yield (
            f"{m.t},{_f(m.ss_err)},{_f(m.st_norm)},{_f(m.tt_norm)},{_f(m.tt_err)},"
            f"{_f(m.D)},{_f(m.A)},{_f(m.err_spec)},{_f(m.err_fro)},{_f(m.grad_norm)},"
            f"{delta},{clock}"
        )


def check_output_path(path):
    """Raise InputError unless ``path`` can be written as a file; called
    before any compute so a bad path fails fast."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise InputError(f"cannot write output {path}: not a file in a writable directory")


def write_trajectory_csv(traj, path, timing=False):
    with open(path, "w", newline="") as fh:
        for row in trajectory_rows(traj, timing=timing):
            fh.write(row + "\n")


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into a list of IterateMetrics."""
    try:
        with open(path, "r", newline="") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read trajectory {path}: {exc}") from exc
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise InputError(f"{path}: missing or unexpected trajectory header")
    metrics = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise InputError(f"{path}: expected 12 cells per row, got {len(parts)}")
        delta = float(parts[10]) if parts[10] else None
        metrics.append(IterateMetrics(int(parts[0]), *map(float, parts[1:10]), delta))
    return metrics


def write_sweep_csv(result, path):
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in result.rows:
            plateau = "" if row.plateau_err_fro is None else _f(row.plateau_err_fro)
            plateau_sq = "" if row.plateau_err_fro_sq is None else _f(row.plateau_err_fro_sq)
            d_final = "" if row.D_final is None else _f(row.D_final)
            value = repr(row.value) if isinstance(row.value, float) else str(row.value)
            fh.write(
                f"{row.param},{value},{row.cell_seed},{plateau},{plateau_sq},"
                f"{d_final},{row.status}\n"
            )


def metrics_column(metrics, name):
    """Extract one metrics field as a float array (NaN for missing)."""
    vals = [getattr(m, name) for m in metrics]
    return np.array([np.nan if v is None else float(v) for v in vals])
