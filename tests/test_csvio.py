"""The column-wise trajectory writer against the per-row writer it replaced."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msense import DivergenceError, ExperimentConfig, run_experiment
from msense import csvio
from msense.csvio import read_trajectory_csv, trajectory_rows, write_trajectory_csv
from msense.harness import Trajectory
from msense.subspace import IterateMetrics


def run(**overrides):
    base = dict(d=20, r=3, k=4, n=200, iters=40, seed=7, sigma=0.0,
                ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1)
    return run_experiment(ExperimentConfig(**{**base, **overrides}))


def diverged():
    with pytest.raises(DivergenceError) as exc_info:
        run(eta=1e150)
    return exc_info.value.trajectory


def synthetic(*rows, elapsed=()):
    return Trajectory(config=None, metrics=[IterateMetrics(*row) for row in rows],
                      elapsed_ms=list(elapsed))


# (the trajectory, timing): each is written with the per-row writer's bytes.
CASES = {
    "noisy": (lambda: run(sigma=0.1), False),  # A != D
    # DT* != 0, so tt_err != tt_norm
    "dt_nonzero": (lambda: run(d=8, r=2, ds=(1.0, 0.9), dt=(0.01,) * 6), False),
    "noiseless_dt_zeros": (lambda: run(), False),
    "track_delta_every_3": (lambda: run(sigma=0.1, track_delta=True, delta_every=3), False),
    "timing": (lambda: run(sigma=0.1), True),
    "diverged": (diverged, True),  # NaN and inf cells
    "past_one_chunk": (lambda: run(d=6, r=1, ds=(1.0,), k=2, n=60, iters=1100), False),
    "negative_zero_A": (lambda: synthetic((0, 1.0, 0.5, 0.0, 0.0, 0.0, -0.0, 1.0, 1.0, 2.0)),
                        False),
    "empty": (lambda: synthetic(), True),
    "elapsed_shorter": (lambda: synthetic((0, *[1.0] * 9), (1, *[0.5] * 9), elapsed=[3.0]),
                        True),
}


@pytest.mark.parametrize("make, timing", CASES.values(), ids=CASES)
def test_trajectory_csv_matches_the_per_row_writer(make, timing, tmp_path,
                                                   trajectory_rows_oracle):
    traj = make()
    want = list(trajectory_rows_oracle(traj, timing=timing))
    assert list(trajectory_rows(traj, timing=timing)) == want
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, timing=timing)
    assert path.read_text() == "".join(row + "\n" for row in want)


def test_the_cases_hold_what_they_are_named_for():
    noisy, dt = CASES["noisy"][0](), CASES["dt_nonzero"][0]()
    assert any(m.A != m.D for m in noisy.metrics)
    assert any(m.tt_err != m.tt_norm for m in dt.metrics)
    cells = [x for m in diverged().metrics for x in m[1:10]]
    assert any(math.isnan(x) for x in cells) and any(math.isinf(x) for x in cells)
    assert len(CASES["past_one_chunk"][0]().metrics) > csvio.CHUNK_ROWS


# Few distinct values, so that whole columns often coincide, bitwise or only by ==.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.1])
CELL = st.one_of(SPECIAL, st.floats())


def same(a, b):
    """Equal as recorded: both None, both NaN, or equal with the same sign."""
    if a is None or b is None:
        return a is b
    return (math.isnan(a) and math.isnan(b)) or (a == b and
                                                 math.copysign(1, a) == math.copysign(1, b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.integers(0, 2**53 - 1), st.lists(CELL, min_size=9, max_size=9),
                               st.none() | CELL, st.none() | CELL), max_size=8),
       timing=st.booleans(), short=st.integers(0, 2), chunk=st.integers(1, 4))
def test_writer_property(rows, timing, short, chunk, tmp_path_factory, trajectory_rows_oracle):
    """Random rows, written a few rows per chunk, match the per-row writer and read back."""
    metrics = [IterateMetrics(t, *values, delta) for t, values, delta, _ in rows]
    elapsed = [ms for *_, ms in rows][short:]  # with timing, rows past elapsed are dropped
    traj = Trajectory(config=None, metrics=metrics, elapsed_ms=elapsed)
    want = list(trajectory_rows_oracle(traj, timing=timing))
    path = tmp_path_factory.getbasetemp() / "property.csv"
    with mock.patch.object(csvio, "CHUNK_ROWS", chunk):
        assert list(trajectory_rows(traj, timing=timing)) == want
        write_trajectory_csv(traj, path, timing=timing)
    assert path.read_text() == "".join(row + "\n" for row in want)
    back = read_trajectory_csv(path)
    assert len(back) == len(want) - 1
    for got, m in zip(back, metrics):
        assert all(map(same, got, m)), (got, m)
