"""The batched metrics kernel against the per-iterate formula it replaced,
and the chunked run loop against the per-step loop it replaced."""

from dataclasses import replace

import numpy as np
import pytest

from msense import (
    DivergenceError,
    ExperimentConfig,
    InitSpec,
    InputError,
    eps_stat,
    generate_ground_truth,
    generate_sensing,
    planted_init,
    population_gradient,
    random_init,
    run_experiment,
    spectral_init,
    spectral_norm,
)
from msense.csvio import TRAJECTORY_HEADER, trajectory_rows
from msense.harness import DIVERGENCE_FACTOR, _chunk_rows
from msense.subspace import IterateMetrics, batch_metrics, exact_factor

FIELDS = ("ss_err", "st_norm", "tt_norm", "tt_err", "D", "A", "err_spec", "err_fro",
          "grad_norm", "delta_norm")


def oracle_metrics(t, f, gt, floor, grad_norm, delta_norm=None):
    """One iterate's metrics from five separate spectral norms."""
    s, tc = gt.U.T @ f, gt.V.T @ f
    ss_err = spectral_norm(s @ s.T - np.diag(gt.ds))
    st_norm = spectral_norm(s @ tc.T)
    tt_norm = spectral_norm(tc @ tc.T)
    tt_err = spectral_norm(tc @ tc.T - np.diag(gt.dt))
    m = f @ f.T - gt.Xstar
    d_val = max(ss_err, tt_norm, st_norm)
    return IterateMetrics(
        t=t, ss_err=ss_err, st_norm=st_norm, tt_norm=tt_norm, tt_err=tt_err, D=d_val,
        A=max(d_val - 50.0 * floor, 0.0), err_spec=spectral_norm(m),
        err_fro=float(np.linalg.norm(m)), grad_norm=float(grad_norm), delta_norm=delta_norm,
    )


def oracle_run(config):
    """The per-step loop: each iterate measured as it is made.  Returns the
    rows and whether the run stopped at the divergence guard."""
    gt = generate_ground_truth(config.d, config.r, config.ds, config.dt, config.seed)
    population = config.gradient_mode == "population"
    sensing = model = None
    if not population:
        sensing = generate_sensing(gt, config.n, config.sigma, config.distribution, config.seed)
        model = sensing.model
    floor = eps_stat(gt, None if population else config.n, config.sigma)
    init = config.init
    if init.mode == "planted":
        f = planted_init(gt, config.k, init.rho, config.seed)
    elif init.mode == "spectral":
        f = spectral_init(sensing, config.k)
    else:
        f = random_init(config.d, config.k, init.scale, config.seed)
    rows = []
    for t in range(config.iters + 1):
        tracked = config.track_delta and t % config.delta_every == 0
        if population:
            grad = population_gradient(f, gt)
            delta = 0.0 if tracked else None
        else:
            grad = model.gradient(f)
            delta = spectral_norm(model.deviation(f, gt.Xstar)) if tracked else None
        rows.append(oracle_metrics(t, f, gt, floor, np.linalg.norm(grad), delta))
        if not rows[-1].err_spec <= DIVERGENCE_FACTOR * gt.sigma1:
            return rows, True
        if t < config.iters:
            f = f - config.eta_value() * grad
    return rows, False


def assert_rows_close(got, want, sigma1):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t == b.t
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            if y is None:
                assert x is None, (a.t, name)
            else:
                assert abs(x - y) <= 1e-12 * abs(y) + 1e-15 * sigma1, (a.t, name, x, y)


def small_config(**overrides):
    base = dict(
        d=20, r=3, k=3, n=200, iters=60, seed=7, sigma=0.0,
        ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


PROBLEMS = {
    "dt_nonzero": dict(d=12, r=3, ds=(1.0, 0.9, 0.8), dt=(0.5, -0.4, 0.3) + (0.0,) * 6, k=5),
    "r_equals_d": dict(d=6, r=6, ds=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5), dt="zeros", k=7),
    "k_one": dict(d=15, r=1, ds=(1.0,), dt="zeros", k=1),
    "k_exceeds_d_minus_r": dict(d=6, r=3, ds=(1.0, 0.9, 0.8), dt="zeros", k=5),
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_kernel_matches_oracle_on_random_iterates(name, rng, one_row_metrics):
    p = PROBLEMS[name]
    gt = generate_ground_truth(p["d"], p["r"], p["ds"], p["dt"], seed=11)
    floor = eps_stat(gt, n=500, sigma=0.2)
    near = exact_factor(gt, p["k"])
    # Far from, near and very near the exact factor, plus the origin.  With
    # DT* = 0 the exact factor itself has T = 0 up to rounding, and one
    # added V-direction gives it a rank-1 T.
    v = gt.V[:, :1]
    rank_one = v @ rng.standard_normal((v.shape[1], p["k"]))
    fs = np.stack(
        [rng.standard_normal((p["d"], p["k"])) * s for s in (3.0, 1.0, 0.3)]
        + [near + eps * rng.standard_normal(near.shape) for eps in (1e-2, 1e-6, 1e-9)]
        + [np.zeros_like(near), near, near + 0.1 * rank_one]
    )
    grad_norms = rng.uniform(0.0, 2.0, size=len(fs))
    delta_norms = [None if i % 2 else float(rng.uniform()) for i in range(len(fs))]
    rows = batch_metrics(5, fs, gt, floor, grad_norms, delta_norms)
    want = [oracle_metrics(5 + i, f, gt, floor, g, dn)
            for i, (f, g, dn) in enumerate(zip(fs, grad_norms, delta_norms))]
    assert_rows_close(rows, want, gt.sigma1)
    for i, f in enumerate(fs):  # a row does not depend on the rest of its batch
        assert one_row_metrics(5 + i, f, gt, floor, grad_norms[i], delta_norms[i]) == rows[i]


def test_iterate_metrics_schema_is_locked():
    # The header is built from IterateMetrics._fields: the literal pins both.
    assert TRAJECTORY_HEADER == (
        "t,ss_err,st_norm,tt_norm,tt_err,D,A,err_spec,err_fro,grad_norm,delta_norm,elapsed_ms")
    row = IterateMetrics(t=3, ss_err=0.1, st_norm=0.2, tt_norm=0.3, tt_err=0.4, D=0.5,
                         A=0.6, err_spec=0.7, err_fro=0.8, grad_norm=0.9)
    assert row.delta_norm is None
    assert row == IterateMetrics(3, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, None)
    with pytest.raises(AttributeError):
        row.err_fro = 1.0


def spy_on_lapack(monkeypatch, check):
    """Route np.linalg's qr, eigvalsh and svd through ``check(name, array)``."""
    for name in ("qr", "eigvalsh", "svd"):
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            check(_name, np.asarray(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_kernel_non_finite_row_is_nan_and_isolated(gt20, rng, monkeypatch, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    fs = rng.standard_normal((4, 20, 4))
    fs[1, 2, 0] = np.inf
    fs[3, :, 1] += np.inf * gt20.V[:, 0]  # inf along one V-direction only
    calls = []

    def finite_only(name, a):
        assert np.isfinite(a).all(), name
        calls.append(name)

    spy_on_lapack(monkeypatch, finite_only)
    rows = batch_metrics(0, fs, gt20, floor, [1.0] * 4, [None] * 4)
    assert set(calls) == {"qr", "eigvalsh"}  # st_norm is an eigvalsh of its r x r Gram
    for i in (1, 3):
        for name in ("ss_err", "st_norm", "tt_norm", "tt_err", "D", "A", "err_spec"):
            assert np.isnan(getattr(rows[i], name)), (i, name)
    assert rows[0] == one_row_metrics(0, fs[0], gt20, floor, 1.0)
    assert rows[2] == one_row_metrics(2, fs[2], gt20, floor, 1.0)


def test_kernel_takes_only_a_stack_of_factors(gt20, rng):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    with pytest.raises(InputError, match="factors must be B x 20 x k"):
        batch_metrics(0, rng.standard_normal((20, 4)), gt20, floor, [1.0], [None])


@pytest.mark.parametrize("dt", ["zeros", (0.3, -0.2) + (0.0,) * 15])
def test_kernel_eigensolves_stay_in_the_small_block(dt, rng, monkeypatch):
    """With DT* = 0 every spectral norm is taken in the (r + k)-dimensional
    block; with DT* != 0 the d x d block is used, and both match the oracle."""
    gt = generate_ground_truth(20, 3, (1.0, 0.9, 0.8), dt, seed=5)
    floor = eps_stat(gt, n=200, sigma=0.0)
    fs = rng.standard_normal((6, 20, 4))
    shapes = []

    def record(name, a):
        if name != "qr":  # T's QR is (d - r) x k by design; it is not a spectral norm
            shapes.append(a.shape[-2:])

    spy_on_lapack(monkeypatch, record)
    rows = batch_metrics(0, fs, gt, floor, [1.0] * 6, [None] * 6)
    monkeypatch.undo()
    largest = max(max(shape) for shape in shapes)
    assert largest == (7 if dt == "zeros" else 20)
    want = [oracle_metrics(i, f, gt, floor, 1.0) for i, f in enumerate(fs)]
    assert_rows_close(rows, want, gt.sigma1)


RUNS = {
    "sample_delta_every_3": dict(k=4, sigma=0.3, track_delta=True, delta_every=3, iters=300),
    "population_delta_every_10": dict(
        k=4, gradient_mode="population", eta="theory", iters=300,
        track_delta=True, delta_every=10,
    ),
    "dt_nonzero_random_init": dict(
        k=5, dt=(0.3, -0.2) + (0.0,) * 15, sigma=0.1, iters=300,
        init=InitSpec(mode="random", scale=0.1),
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_oracle_loop(name):
    config = small_config(**RUNS[name])
    want, diverged = oracle_run(config)
    assert not diverged
    traj = run_experiment(config)
    assert_rows_close(traj.metrics, want, config.sigma1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_matches_oracle_loop_without_warnings():
    config = small_config(eta=5.0, iters=500)
    want, diverged = oracle_run(config)
    assert diverged
    with pytest.raises(DivergenceError, match=f"t={want[-1].t}:") as exc_info:
        run_experiment(config)
    partial = exc_info.value.trajectory
    assert_rows_close(partial.metrics, want, config.sigma1)
    assert len(partial.elapsed_ms) == len(want)


@pytest.mark.parametrize("gradient_mode", ["sample", "population"])
def test_runs_are_row_prefixes_across_chunk_boundaries(gradient_mode):
    chunk = _chunk_rows(20)
    config = small_config(k=4, sigma=0.3, gradient_mode=gradient_mode, track_delta=True,
                          delta_every=3, eta="theory" if gradient_mode == "population" else 0.1)
    longest = list(trajectory_rows(run_experiment(replace(config, iters=2 * chunk + 1))))
    # iters + 1 rows: one short of, exactly, and one past a full chunk.
    for iters in (chunk - 2, chunk - 1, chunk, chunk + 1):
        rows = list(trajectory_rows(run_experiment(replace(config, iters=iters))))
        assert rows == longest[: iters + 2]


def test_elapsed_ms_one_positive_value_per_row():
    chunk = _chunk_rows(20)
    traj = run_experiment(small_config(iters=chunk + 10))
    assert len(traj.elapsed_ms) == len(traj.metrics) == chunk + 11
    assert all(isinstance(ms, float) and ms > 0 for ms in traj.elapsed_ms)


def test_chunk_rows_bounded_by_bytes():
    for d in (2, 10, 11, 20, 50, 181, 182, 1000):
        rows = _chunk_rows(d)
        assert 1 <= rows <= 256
        assert rows == 1 or rows * d * d <= 2**15  # 256 KiB of d x d blocks
    assert _chunk_rows(10) == 256
