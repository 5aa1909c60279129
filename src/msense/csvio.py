"""CSV serialization for trajectories and sweeps.

Fixed schemas, '.' decimal, no locale.  Floats are written with repr so a
round-trip parse recovers them exactly (up to 17 significant digits).
Missing optional values are empty cells, never 0.  Timing cells are left
empty unless explicitly requested, so default output is byte-identical
across reruns.  A trajectory is formatted a column at a time, CHUNK_ROWS rows
at once, so each value is formatted once and the bytes match a per-row writer.
"""

from __future__ import annotations

import os
from array import array
from operator import itemgetter

import numpy as np

from .errors import InputError, count
from .subspace import IterateMetrics

TRAJECTORY_HEADER = (
    "t,ss_err,st_norm,tt_norm,tt_err,D,A,err_spec,err_fro,grad_norm,delta_norm,elapsed_ms"
)
SWEEP_HEADER = "param,value,cell_seed,plateau_err_fro,plateau_err_fro_sq,D_final,status"
CHUNK_ROWS = 64  # trajectory rows formatted together: about 100 KiB of strings held at once


def _f(x):
    """A float cell: its repr, or an empty cell for None."""
    return "" if x is None else repr(float(x))


def _cells(col, formatted):
    """One column's cells.  A column of numbers bitwise equal to one already in
    ``formatted`` (bytes -> cells) reuses its strings: A and D when eps_stat = 0,
    tt_err and tt_norm when DT* = 0.  Bits, not ``==``: -0.0 and NaN."""
    try:
        values = array("d", col)
    except TypeError:  # a None (missing) cell
        return list(map(_f, col))
    key = values.tobytes()
    if key not in formatted:
        formatted[key] = list(map(repr, values))
    return formatted[key]


def _row_chunks(traj, timing):
    """The trajectory's rows as lists of at most CHUNK_ROWS strings."""
    metrics = traj.metrics
    if timing:  # a row needs its elapsed cell
        metrics = metrics[:len(traj.elapsed_ms)]
    for lo in range(0, len(metrics), CHUNK_ROWS):
        t, *values = zip(*metrics[lo:lo + CHUNK_ROWS])
        elapsed = traj.elapsed_ms[lo:lo + CHUNK_ROWS] if timing else [None] * len(t)
        formatted = {}
        cells = [map(str, t), *(_cells(col, formatted) for col in (*values, elapsed))]
        yield list(map(",".join, zip(*cells)))


def trajectory_rows(traj, timing=False):
    yield TRAJECTORY_HEADER
    for rows in _row_chunks(traj, timing):
        yield from rows


def check_output_path(path):
    """Raise InputError unless ``path`` can be written as a file; called
    before any compute so a bad path fails fast."""
    try:
        os.access(path, os.F_OK)
    except ValueError as exc:  # a NUL byte, or a lone surrogate the file system cannot encode
        raise InputError(f"cannot write output {path!r}: {exc}") from None
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise InputError(f"cannot write output {path}: not a file in a writable directory")


def write_trajectory_csv(traj, path, timing=False):
    with open(path, "w", newline="") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for rows in _row_chunks(traj, timing):
            fh.write("\n".join(rows) + "\n")


def read_trajectory_csv(path):
    """Parse a trajectory CSV back into a list of IterateMetrics."""
    try:
        with open(path, "r", newline="") as fh:
            lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read trajectory {path}: {exc}") from exc
    if not lines or lines[0][1] != TRAJECTORY_HEADER:
        raise InputError(f"{path}: missing or unexpected trajectory header")
    metrics = []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise InputError(f"{path}, line {no}: expected 12 cells per row, got {len(parts)}")
        try:
            delta = float(parts[10]) if parts[10] else None
            t = count("t", int(parts[0]), 0, 2**53 - 1)  # a step index, exact as a float
            metrics.append(IterateMetrics(t, *map(float, parts[1:10]), delta))
        except ValueError as exc:  # an InputError from count too
            raise InputError(f"{path}, line {no}: {exc}") from None
    return metrics


def write_sweep_csv(result, path):
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in result.rows:
            value = repr(row.value) if isinstance(row.value, float) else str(row.value)
            fh.write(f"{row.param},{value},{row.cell_seed},{_f(row.plateau_err_fro)},"
                     f"{_f(row.plateau_err_fro_sq)},{_f(row.D_final)},{row.status}\n")


def write_mc_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("trial,value\n")
        for i, v in enumerate(report.values):
            fh.write(f"{i},{_f(v)}\n")


def metrics_column(metrics, name):
    """Extract one metrics field as a float array (NaN for missing)."""
    column = map(itemgetter(IterateMetrics._fields.index(name)), metrics)
    return np.array(list(column), dtype=float)
