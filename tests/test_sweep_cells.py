"""Sweep cells measure only their plateau window: run_experiment(measure_from=m)
against the full run it abbreviates, and _run_cell against the cell formula
that read the full trajectory."""

from dataclasses import replace

import numpy as np
import pytest

from msense import DivergenceError, ExperimentConfig, InputError, run_experiment, sweep
from msense import harness
from msense.csvio import trajectory_rows
from msense.harness import PLATEAU_FRACTION, CellResult, _chunk_rows, _run_cell
from msense.rng import stable_hash64


def oracle_cell(base, param, value):
    """The cell result computed from the full trajectory, and the row at
    which the run diverged (None if it did not)."""
    cell_seed = (base.seed ^ stable_hash64(param, value)) % 2**64
    config = replace(base, **{param: value}, output=None, seed=cell_seed)
    try:
        traj = run_experiment(config, write_output=False)
    except DivergenceError as exc:
        t = exc.trajectory.metrics[-1].t
        return CellResult(param, value, cell_seed, None, None, None, "diverged"), t
    err = traj.column("err_fro")
    window = max(1, int(np.ceil(len(err) * PLATEAU_FRACTION)))
    plateau = float(np.median(err[-window:]))
    result = CellResult(param, value, cell_seed, plateau, plateau**2,
                        float(traj.metrics[-1].D), "ok")
    return result, None


def cell_config(**overrides):
    base = dict(d=10, r=2, k=3, n=50, iters=300, seed=4, sigma=0.1, ds=(1.0, 0.8),
                dt="zeros", eta=0.9)
    base.update(overrides)
    return ExperimentConfig(**base)


MIXED_GRID = (50, 100, 200, 400, 800)


def test_cells_match_the_full_trajectory_formula():
    iters = 300
    measure_from = iters + 1 - int(np.ceil((iters + 1) * PLATEAU_FRACTION))
    outcomes = []
    for seed in range(20):
        base = cell_config(seed=seed, iters=iters, eta=(0.1, 1.0, 5.0)[seed % 3])
        for n in (50, 100, 400):
            want, t = oracle_cell(base, "n", n)
            assert _run_cell(base, "n", n) == want, (seed, n)
            outcomes.append("ok" if t is None else "window" if t >= measure_from else "prefix")
    base = cell_config(sigma=0.1, eta=0.9)
    for n in MIXED_GRID:
        want, _ = oracle_cell(base, "n", n)
        assert _run_cell(base, "n", n) == want, n
    # Runs that converge, and runs that diverge before and inside the window.
    assert {"ok", "prefix", "window"} <= set(outcomes)


def test_mixed_sweep_csv_matches_the_full_trajectory_formula(tmp_path, monkeypatch):
    base = cell_config()
    result = sweep(base, "n", MIXED_GRID, out=str(tmp_path / "cells.csv"))
    assert [row.status for row in result.rows] == ["diverged", "ok", "ok", "ok", "ok"]
    monkeypatch.setattr(harness, "_run_cell", lambda *args: oracle_cell(*args)[0])
    sweep(base, "n", MIXED_GRID, out=str(tmp_path / "oracle.csv"))
    assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def small_config(**overrides):
    base = dict(d=20, r=3, k=4, n=200, iters=2 * _chunk_rows(20) + 3, seed=7, sigma=0.3,
                ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1)
    base.update(overrides)
    return ExperimentConfig(**base)


TAIL_RUNS = {
    "sample": {},
    "population": dict(gradient_mode="population", eta="theory"),
    "sample_delta_every_3": dict(track_delta=True, delta_every=3),
    "population_delta_every_3": dict(gradient_mode="population", eta="theory",
                                     track_delta=True, delta_every=3),
}


@pytest.mark.parametrize("name", sorted(TAIL_RUNS))
def test_measured_rows_are_the_tail_of_the_full_run(name):
    config = small_config(**TAIL_RUNS[name])
    full = run_experiment(config)
    rows = list(trajectory_rows(full))  # repr floats: equal strings are equal bits
    chunk = _chunk_rows(config.d)
    for m in (0, 1, chunk - 1, chunk, chunk + 1, config.iters):
        part = run_experiment(config, measure_from=m)
        assert [row.t for row in part.metrics] == list(range(m, config.iters + 1))
        assert len(part.elapsed_ms) == len(part.metrics)
        assert list(trajectory_rows(part)) == rows[:1] + rows[m + 1:], m


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_in_the_unmeasured_rows_stops_at_the_same_row():
    config = small_config(k=3, sigma=0.0, eta=5.0, iters=500)
    with pytest.raises(DivergenceError) as full:
        run_experiment(config)
    with pytest.raises(DivergenceError) as part:
        run_experiment(config, measure_from=100)
    assert str(part.value) == str(full.value)  # t=4 and its err_spec
    assert part.value.residual == full.value.residual
    assert part.value.trajectory.metrics == part.value.trajectory.elapsed_ms == []


def test_divergence_inside_the_measured_rows_keeps_them():
    base = cell_config(seed=1, eta=1.0)
    config = replace(base, n=400, seed=(1 ^ stable_hash64("n", 400)) % 2**64)
    with pytest.raises(DivergenceError) as full:
        run_experiment(config)
    t = full.value.trajectory.metrics[-1].t
    with pytest.raises(DivergenceError) as part:
        run_experiment(config, measure_from=t - 5)
    assert str(part.value) == str(full.value)
    assert part.value.trajectory.metrics == full.value.trajectory.metrics[t - 5:]


def test_non_finite_gradient_in_the_unmeasured_rows_diverges(monkeypatch):
    calls, exact = [], harness.population_gradient

    def gradient(f, gt):
        calls.append(None)
        return np.full_like(f, np.nan) if len(calls) == 5 else exact(f, gt)

    monkeypatch.setattr(harness, "population_gradient", gradient)
    config = small_config(gradient_mode="population", eta="theory")
    with pytest.raises(DivergenceError, match="t=4:") as exc_info:
        run_experiment(config, measure_from=50)
    assert exc_info.value.trajectory.metrics == []
    calls.clear()
    with pytest.raises(DivergenceError, match="t=4:"):
        run_experiment(config)


@pytest.mark.parametrize("bad", [-1, 2 * _chunk_rows(20) + 4, 1.5, "3"])
def test_measure_from_must_be_a_row_of_the_run(bad):
    with pytest.raises(InputError, match="measure_from"):
        run_experiment(small_config(), measure_from=bad)
