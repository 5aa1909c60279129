"""Sweep cells measure only their plateau window: run_experiment(measure_from=m)
against the full run it abbreviates, _run_cell against the cell formula that
read the full trajectory, with its own cell seed, and a stack of cells stepped
together against _run_cell one cell at a time."""

import json
from dataclasses import replace

import numpy as np
import pytest

from msense import DivergenceError, ExperimentConfig, InitSpec, InputError, run_experiment, sweep
from msense import harness, problem
from msense.cli import main
from msense.csvio import trajectory_rows
from msense.harness import PLATEAU_FRACTION, CellResult, _cell_config, _chunk_rows, _run_cell
from msense.problem import QuadraticModel
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
            assert _run_cell(_cell_config(base, "n", n), "n", n) == want, (seed, n)
            outcomes.append("ok" if t is None else "window" if t >= measure_from else "prefix")
    base = cell_config(sigma=0.1, eta=0.9)
    for n in MIXED_GRID:
        want, _ = oracle_cell(base, "n", n)
        assert _run_cell(_cell_config(base, "n", n), "n", n) == want, n
    # Runs that converge, and runs that diverge before and inside the window.
    assert {"ok", "prefix", "window"} <= set(outcomes)


def test_mixed_sweep_csv_matches_the_full_trajectory_formula(tmp_path, monkeypatch):
    base = cell_config()
    result = sweep(base, "n", MIXED_GRID, out=str(tmp_path / "cells.csv"))
    assert [row.status for row in result.rows] == ["diverged", "ok", "ok", "ok", "ok"]
    received = []

    def oracle_stacked_cells(configs, param, values):
        received.extend(configs)
        return [oracle_cell(base, param, value)[0] for value in values]

    # The n sweep's cells step as one stack: the oracle stands in for the whole stack.
    monkeypatch.setattr(harness, "_stacked_cells", oracle_stacked_cells)
    sweep(base, "n", MIXED_GRID, out=str(tmp_path / "oracle.csv"))
    # Each cell runs the config it was built with: the oracle's seed formula, no output.
    assert received == [replace(base, n=n, output=None,
                                seed=(base.seed ^ stable_hash64("n", n)) % 2**64)
                        for n in MIXED_GRID]
    assert (tmp_path / "cells.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# Stacks of cells, each against _run_cell one cell at a time: base overrides, param, values.
STACKS = {
    "n_gaussian_planted": (dict(eta=0.1), "n", (50, 100, 400)),
    "sigma_rademacher_spectral_dt": (
        dict(eta=0.1, distribution="rademacher", init=InitSpec(mode="spectral"),
             dt=(0.3, -0.2, 0.1, 0.05, -0.05, 0.02, 0.01, 0.0)), "sigma", (0.0, 0.1, 0.3)),
    "n_random_start": (dict(eta=0.1, init=InitSpec(mode="random", scale=0.1)), "n",
                       (100, 200, 400)),
    "n_track_delta": (dict(eta=0.1, track_delta=True, delta_every=3), "n", (100, 200, 400)),
    # Three cells diverge before the window, one inside it, and one converges.
    "n_diverge_before_and_inside_the_window": (dict(seed=1, eta=1.0), "n", MIXED_GRID),
    # Every cell leaves the stack at t=4.
    "n_all_leave_early": (dict(seed=1, eta=5.0), "n", (50, 100, 400)),
    # sweep runs a lone cell through _run_cell; the stack of one still matches it.
    "n_one_cell": (dict(eta=0.1), "n", (400,)),
    # p = 496, and the 41-row window spans two chunks of 34 rows.
    "n_d31_window_of_two_chunks": (dict(d=31, n=300, iters=400, eta=0.1), "n", (300, 600)),
    # p = 820: the operator spans two Gram tiles of the build.
    "n_d40_past_one_gram_tile": (dict(d=40, n=300, iters=60, eta=0.1), "n", (300, 600, 900)),
}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_stacked_cells_are_run_cell_bit_for_bit(name, monkeypatch):
    overrides, param, values = STACKS[name]
    configs = [_cell_config(cell_config(**overrides), param, v) for v in values]
    want = [_run_cell(config, param, v) for config, v in zip(configs, values)]
    cells = []

    class RecordedRows(harness._Rows):
        def __init__(self, *args):
            super().__init__(*args)
            cells.append(self)

    monkeypatch.setattr(harness, "_Rows", RecordedRows)
    assert harness._stacked_cells(configs, param, values) == want
    monkeypatch.undo()
    # Every recorded row too, the gradient norm included: the stack leaves out |Delta|_2 only.
    for config, cell in zip(configs, cells, strict=True):
        try:
            traj = run_experiment(config, measure_from=harness._window_start(config))
        except DivergenceError as exc:
            traj = exc.trajectory
        assert repr(cell.metrics) == repr([row._replace(delta_norm=None) for row in traj.metrics])


def test_the_stacks_cover_divergence_before_and_inside_the_window():
    base = cell_config(seed=1, eta=1.0)
    start = harness._window_start(base)
    kinds = []
    for n in MIXED_GRID:
        t = oracle_cell(base, "n", n)[1]
        kinds.append("ok" if t is None else "window" if t >= start else "before")
    assert kinds == ["before", "before", "before", "window", "ok"]
    assert {oracle_cell(cell_config(seed=1, eta=5.0), "n", n)[1] for n in (50, 100, 400)} == {4}


def no_call(*args):
    raise AssertionError("called")


@pytest.mark.parametrize("overrides, param, values, stacked", [
    ({}, "n", (100, 200), True),
    ({}, "sigma", (0.05, 0.1), True),
    ({}, "n", (100,), False),  # a lone cell steps faster through _steps
    ({}, "k", (2, 3), False),
    ({}, "d", (8, 10), False),
    (dict(gradient_mode="population"), "n", (100, 200), False),
    # p = 528: one operator, 2.2 MB, is past STACK_BYTES, so each cell steps alone.
    (dict(d=32), "n", (100, 200), False),
], ids=["n", "sigma", "one_value", "k", "d", "population", "p_past_one_tile"])
def test_sweep_stacks_only_same_shape_sample_cells(monkeypatch, overrides, param, values,
                                                     stacked):
    base = cell_config(eta=0.1, iters=20, **overrides)
    want = [_run_cell(_cell_config(base, param, v), param, v) for v in values]
    monkeypatch.setattr(harness, "_run_cell" if stacked else "_stacked_cells", no_call)
    assert list(sweep(base, param, values).rows) == want


@pytest.mark.parametrize("param, values", [("n", (1000, 2000)), ("k", (4, 5))],
                         ids=["stacked", "lone"])
def test_a_planted_start_with_no_room_fails_before_any_sensing_build(monkeypatch, param,
                                                                      values):
    """|DT*|_2 = 0.5 leaves the planted construction no room: the first cell fails at its
    start, before its sensing set is built, in a stack (an n sweep) as alone (a k sweep)."""
    builds, build = [], harness.generate_sensing
    monkeypatch.setattr(harness, "generate_sensing", lambda *a: builds.append(a) or build(*a))
    base = small_config(dt=(0.5, 0.4) + (0.0,) * 15, n=2000)
    with pytest.raises(InputError, match="no room for the planted construction"):
        sweep(base, param, values)
    assert builds == []


@pytest.mark.parametrize("param, values", [("n", [100, 200]), ("sigma", [0.05, 0.1])])
def test_numpy_grid_values_sweep_as_their_python_values(tmp_path, param, values):
    """A cell seed hashes the value's repr, which numpy 2 writes as np.int64(100): numpy
    values sweep, and are written, as the Python values they hold."""
    base = cell_config(eta=0.1, iters=20)
    want = sweep(base, param, values, out=str(tmp_path / "list.csv"))
    assert sweep(base, param, np.array(values), out=str(tmp_path / "array.csv")) == want
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_a_spectral_start_on_an_overflowed_data_term_diverges_at_t0(monkeypatch):
    """sigma = 1e308 overflows M, so the spectral start is not finite: its run diverges at
    t = 0, and so does its cell, in a stack (a sigma sweep) or alone (a k sweep)."""
    base = cell_config(n=400, eta=0.1, init=InitSpec(mode="spectral"))
    with pytest.raises(DivergenceError, match="at t=0: err_spec=nan is not finite$"):
        run_experiment(replace(base, sigma=1e308))
    monkeypatch.setattr(harness, "_run_cell", no_call)
    assert [row.status for row in sweep(base, "sigma", (0.0, 1e308)).rows] == ["ok", "diverged"]
    monkeypatch.undo()
    monkeypatch.setattr(harness, "_stacked_cells", no_call)
    assert [row.status for row in sweep(replace(base, sigma=1e308), "k", (2, 3)).rows] == [
        "diverged", "diverged"]


# Stack lengths under a 1 MiB cap with room in the budget for `room` operators besides the
# largest build: the cap holds 41 d=10 operators, 2 at d=20 and none at d=25.
@pytest.mark.parametrize("d, cells, room, want", [
    (10, 9, 100, [9]),
    (10, 9, 4, [4, 4, 1]),
    (20, 5, 100, [2, 2, 1]),
    (20, 5, 1, [1, 1, 1, 1, 1]),
    (25, 3, 100, [1, 1, 1]),
], ids=["d10", "d10_budget", "d20", "d20_budget", "d25"])
def test_stack_size_is_the_cap_or_the_budget_room(monkeypatch, d, cells, room, want):
    p = d * (d + 1) // 2
    values = [100 * (i + 1) for i in range(cells)]
    budget = problem.sensing_bytes(d, values[-1]) + room * 8 * (p * p + d * d)
    monkeypatch.setattr(harness, "STACK_BYTES", 2**20)
    monkeypatch.setattr(problem, "_memory_budget", lambda: budget)
    chunks = []

    def record(configs, param, values):
        chunks.append(len(configs))
        return [harness._cell_result(c, param, v) for c, v in zip(configs, values)]

    monkeypatch.setattr(harness, "_stacked_cells", record)
    monkeypatch.setattr(harness, "_run_cell", lambda c, param, v: record([c], param, [v])[0])
    sweep(cell_config(d=d, iters=20), "n", values)
    assert chunks == want


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


def test_stepping_stops_at_the_stop_row(monkeypatch):
    """The stepping stage computes no gradient past the row that stops the
    run, however far measuring lags behind it."""
    calls, exact = [], QuadraticModel.gradient

    def gradient(model, f):
        calls.append(None)
        return exact(model, f)

    monkeypatch.setattr(QuadraticModel, "gradient", gradient)
    eta_1 = replace(cell_config(eta=1.0), n=400, seed=(1 ^ stable_hash64("n", 400)) % 2**64)
    for config, measure_from, t in ((cell_config(seed=1, n=400, eta=5.0), 0, 4),
                                    (cell_config(seed=1, n=400, eta=5.0), 100, 4),
                                    (eta_1, 0, 296)):
        calls.clear()
        with pytest.raises(DivergenceError, match=f"at t={t}:"):
            run_experiment(config, measure_from=measure_from)
        assert len(calls) == t + 1, (measure_from, t)


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


def test_a_population_n_sweep_past_two_to_the_64_fits_its_slope(tmp_path, capsys):
    """n = 2**64 does not fit a numpy integer and 10**400 does not fit a float; the slope
    still takes their logs and the CSV is written."""
    cfg, out = tmp_path / "base.json", tmp_path / "s.csv"
    cfg.write_text(json.dumps({"d": 4, "r": 1, "k": 2, "n": 10, "iters": 20, "seed": 1,
                               "ds": [1.0], "sigma": 0.1, "gradient_mode": "population"}))
    argv = ["sweep", "--config", str(cfg), "--param", "n", "--values",
            f"10,{2**64},{10**400}", "--out", str(out)]
    assert main(argv) == 0
    assert "log-log slope of plateau err_fro^2 vs n: " in capsys.readouterr().out
    assert out.read_text().count("\n") == 4
