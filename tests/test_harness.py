import os
import threading

import numpy as np
import pytest

from msense import (
    DivergenceError,
    ExperimentConfig,
    InitSpec,
    InputError,
    detect_phases,
    run_experiment,
    sweep,
)
from msense import harness, problem
from msense.csvio import read_trajectory_csv, trajectory_rows, write_trajectory_csv
from msense.figures import reproduce_figures
from msense.subspace import IterateMetrics


def small_config(**overrides):
    base = dict(
        d=20, r=3, k=3, n=200, iters=60, seed=7, sigma=0.0,
        ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config validation ---------------------------------------------------


def test_config_rejects_unknown_keys():
    data = small_config().to_dict()
    data["learning_rate"] = 0.1
    with pytest.raises(InputError, match="learning_rate"):
        ExperimentConfig.from_dict(data)


def test_config_rejects_unknown_init_keys():
    data = small_config().to_dict()
    data["init"]["warmup"] = 3
    with pytest.raises(InputError, match="warmup"):
        ExperimentConfig.from_dict(data)


def test_config_requires_core_fields():
    with pytest.raises(InputError, match="missing"):
        ExperimentConfig.from_dict({"d": 20, "r": 3})


def test_config_round_trip():
    for cfg in (small_config(track_delta=True, delta_every=5),
                small_config(dt=[0.1 * 0.9**i for i in range(17)])):
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


def test_config_field_validation_names_field():
    with pytest.raises(InputError, match="iters"):
        small_config(iters=0)
    with pytest.raises(InputError, match="eta"):
        small_config(eta=-0.1)
    for bad_eta in (True, float("inf")):  # bool is an int subclass; JSON allows Infinity
        with pytest.raises(InputError, match="eta"):
            ExperimentConfig.from_dict({**small_config().to_dict(), "eta": bad_eta})
    with pytest.raises(InputError, match="k"):
        small_config(k=0)
    with pytest.raises(InputError, match="ds"):
        small_config(ds=(1.0,))
    with pytest.raises(InputError, match="planted"):
        small_config(k=2, init=InitSpec(mode="planted"))
    with pytest.raises(InputError, match="spectral"):
        small_config(gradient_mode="population", init=InitSpec(mode="spectral"))


@pytest.mark.parametrize("field, bad", [
    ("d", "20"), ("iters", 5.5), ("n", True), ("seed", -1), ("delta_every", 2.0),
    ("sigma", float("nan")), ("sigma", "0.1"), ("ds", "abc"), ("ds", [1.0, float("inf"), 0.8]),
    ("dt", [0.1, "x"]), ("dt", "ones"), ("track_delta", "yes"), ("output", 5),
    ("k", 21), ("k", 100000000),
    ("sigma", 10**400), ("ds", [10**400]),  # integers past the float range: not finite
])
def test_config_rejects_malformed_values(field, bad):
    with pytest.raises(InputError, match=f"^{field} "):
        ExperimentConfig.from_dict({**small_config().to_dict(), field: bad})


@pytest.mark.parametrize("field", ["rho", "scale"])
def test_config_rejects_non_finite_init_values(field):
    data = small_config().to_dict()
    data["init"][field] = float("nan")
    with pytest.raises(InputError, match=f"init.{field}"):
        ExperimentConfig.from_dict(data)


def test_config_normalizes_spectra_to_float_tuples():
    cfg = small_config(ds=[1, 0.9, 0.8], dt=np.zeros(17))
    assert cfg.ds == (1.0, 0.9, 0.8) and all(type(x) is float for x in cfg.ds)
    assert cfg.dt == (0.0,) * 17
    hash(cfg)


def test_theory_eta_resolution():
    cfg = small_config(eta="theory", ds=(2.0, 1.0, 0.5))
    assert cfg.eta_value() == pytest.approx(1.0 / 200.0)


# --- run_experiment -------------------------------------------------------


def test_run_records_init_and_all_iterations():
    traj = run_experiment(small_config(iters=12))
    assert len(traj.metrics) == 13
    assert [m.t for m in traj.metrics] == list(range(13))
    assert len(traj.elapsed_ms) == 13


def test_exact_rank_run_reaches_machine_precision():
    traj = run_experiment(small_config(iters=800))
    err = traj.column("err_fro")
    assert err.min() < 1e-10
    # monotone head: err_fro nonincreasing after iteration 1 at >= 99% of steps
    steps = np.diff(err[1:])
    assert np.mean(steps <= 1e-14) >= 0.99


def test_overparameterized_run_is_much_slower():
    t3 = run_experiment(small_config(iters=800))
    t4 = run_experiment(small_config(k=4, iters=800))
    hit = np.argmax(t3.column("err_fro") < 1e-10)
    assert hit > 0
    assert t4.metrics[int(hit)].err_fro > 1e3 * t3.metrics[int(hit)].err_fro
    # the residual subspace dominates the error late in the k=4 run
    tail = t4.metrics[len(t4.metrics) // 2 :]
    assert all(m.tt_err >= 0.5 * m.err_spec for m in tail)


def test_population_mode_run():
    cfg = small_config(k=4, gradient_mode="population", eta="theory", iters=80,
                       track_delta=True, delta_every=10)
    traj = run_experiment(cfg)
    assert traj.metrics[0].delta_norm == 0.0
    assert traj.metrics[1].delta_norm is None  # only every 10th is tracked
    assert traj.metrics[10].delta_norm == 0.0
    d_vals = traj.column("D")
    assert np.all(np.diff(d_vals) <= 1e-14)


def test_delta_tracking_cadence():
    cfg = small_config(track_delta=True, delta_every=7, iters=20)
    traj = run_experiment(cfg)
    for m in traj.metrics:
        if m.t % 7 == 0:
            assert m.delta_norm is not None
        else:
            assert m.delta_norm is None


def test_divergence_guard():
    with pytest.raises(DivergenceError) as exc_info:
        run_experiment(small_config(eta=5.0, iters=500))
    partial = exc_info.value.trajectory
    assert partial is not None
    assert 0 < len(partial.metrics) < 501


def test_measuring_from_the_first_unsafe_row_keeps_the_tail(monkeypatch):
    """With the guard at 1.5 sigma_1, |F|_F^2 passes guard - sigma_1 from t=0
    without the run ever tripping the guard, so every row is measured, the
    rows before measure_from included, and the recorded rows stay the tail."""
    monkeypatch.setattr(harness, "DIVERGENCE_FACTOR", 1.5)
    first_rows, measure = [], harness.batch_metrics

    def spy(t0, *args):
        first_rows.append(t0)
        return measure(t0, *args)

    monkeypatch.setattr(harness, "batch_metrics", spy)
    config = small_config(k=4, sigma=0.3, iters=300)
    rows = list(trajectory_rows(run_experiment(config)))
    for m in (0, 1, 100, 300):
        first_rows.clear()
        part = run_experiment(config, measure_from=m)
        assert first_rows[0] == 0, m
        assert len(part.elapsed_ms) == len(part.metrics)
        assert list(trajectory_rows(part)) == rows[:1] + rows[m + 1:], m


def test_run_determinism_bitwise():
    a = run_experiment(small_config(iters=40, sigma=0.3))
    b = run_experiment(small_config(iters=40, sigma=0.3))
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma == mb


def test_regenerate_memory_mode_matches_dense():
    a = run_experiment(small_config(iters=30, sigma=0.2, memory_mode="dense"))
    b = run_experiment(small_config(iters=30, sigma=0.2, memory_mode="regenerate"))
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma == mb


def test_spectral_init_run_reuses_the_operator(monkeypatch):
    """A regenerate-mode spectral-init run draws each sensing block once:
    the pass that generates the observations also builds the operator."""
    calls = []
    draw_blocks = problem.draw_blocks

    def counting(*args, **kwargs):
        for sl, rng, a in draw_blocks(*args, **kwargs):
            calls.append(sl.start)
            yield sl, rng, a

    monkeypatch.setattr(problem, "draw_blocks", counting)
    run_experiment(small_config(n=700, iters=5, init=InitSpec(mode="spectral"),
                                memory_mode="regenerate"))
    assert calls == [0, problem.BLOCK]


# --- trajectory CSV -------------------------------------------------------


def test_csv_rows_and_round_trip(tmp_path):
    cfg = small_config(iters=2, track_delta=True, delta_every=2)
    traj = run_experiment(cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].startswith("t,ss_err,st_norm")
    metrics = read_trajectory_csv(path)
    for orig, parsed in zip(traj.metrics, metrics):
        for name in ("ss_err", "st_norm", "tt_norm", "tt_err", "D", "A",
                     "err_spec", "err_fro", "grad_norm"):
            assert getattr(parsed, name) == getattr(orig, name)  # exact round trip
        assert parsed.delta_norm == orig.delta_norm


def test_csv_missing_delta_is_empty_cell(tmp_path):
    traj = run_experiment(small_config(iters=2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert cells[10] == ""  # delta untracked: empty, not 0
        assert cells[11] == ""  # timing off by default


def test_csv_timing_opt_in(tmp_path):
    traj = run_experiment(small_config(iters=2))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, timing=True)
    cells = path.read_text().splitlines()[1].split(",")
    assert float(cells[11]) >= 0.0


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = small_config(iters=25, sigma=0.4, track_delta=True, delta_every=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(run_experiment(cfg), p1)
    write_trajectory_csv(run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_unwritable_output_fails_before_compute(tmp_path, monkeypatch):
    import msense.harness

    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(msense.harness, "generate_ground_truth", no_compute)
    for out in (tmp_path / "missing" / "out.csv", tmp_path, tmp_path / "x\x00y.csv",
                tmp_path / "x\ud800.csv", str(tmp_path / "missing") + os.sep, ""):
        with pytest.raises(InputError, match="output"):
            run_experiment(small_config(output=str(out)))
        with pytest.raises(InputError, match="output"):
            sweep(small_config(), "n", [100, 200], out=str(out))
    with pytest.raises(AssertionError, match="compute started"):  # nothing to write, no check
        run_experiment(small_config(output=str(tmp_path / "missing" / "out.csv")),
                       write_output=False)


def test_run_writes_configured_output(tmp_path):
    out = tmp_path / "out.csv"
    run_experiment(small_config(iters=3, output=str(out)))
    assert out.exists()


# --- sweep -----------------------------------------------------------------


def test_sweep_noiseless_has_undefined_slope(tmp_path):
    cfg = small_config(iters=150)
    result = sweep(cfg, "n", [100, 200, 400], out=str(tmp_path / "sweep.csv"))
    assert result.slope is None
    assert all(row.status == "ok" for row in result.rows)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,cell_seed,plateau_err_fro,plateau_err_fro_sq,D_final,status"
    assert len(lines) == 4


def test_sweep_values_must_increase():
    with pytest.raises(InputError):
        sweep(small_config(), "n", [200, 100])
    with pytest.raises(InputError):
        sweep(small_config(), "rho", [0.1, 0.2])


def test_sweep_checks_a_huge_value_before_hashing_it():
    """stable_hash64 cannot repr an int past 4,300 digits: the memory check comes first."""
    with pytest.raises(InputError, match="more than half of physical memory"):
        sweep(small_config(), "n", [200, 10**5000])


def test_population_sweep_rejects_an_unhashable_value_before_any_cell(monkeypatch):
    """A population run never reads n, so no memory check bounds it: the hash is what fails."""
    built = []  # a cell, stacked or not, is built from its ground truth first
    monkeypatch.setattr(harness, "generate_ground_truth", lambda *args: built.append(args))
    base = small_config(d=10, r=2, k=3, ds=(1.0, 0.8), iters=5, seed=1,
                        gradient_mode="population")
    with pytest.raises(InputError, match=r"^n=<int too long to print> cannot be hashed"):
        sweep(base, "n", [200, 10**5000])
    assert built == []


def test_sweep_noisy_slope_is_negative():
    cfg = small_config(d=10, r=2, k=3, ds=(1.0, 0.8), sigma=0.1, iters=1500, seed=100)
    result = sweep(cfg, "n", [500, 2000, 8000])
    assert result.slope is not None
    assert result.slope < -0.5


def test_overparameterization_cost_trend():
    """Plateau err_fro^2 grows with the specified rank k.

    Tested with seeds paired across k (the per-k gap is ~1.5x while
    seed-to-seed scatter is larger, so unpaired cells cannot resolve it)
    and runs long enough for the residual subspace to equilibrate.
    """
    def plateau(k, seed):
        cfg = small_config(d=10, r=2, k=k, ds=(1.0, 0.8), sigma=0.3, n=500,
                           iters=4000, seed=seed)
        traj = run_experiment(cfg)
        err = traj.column("err_fro")
        window = max(1, len(err) // 10)
        return float(np.median(err[-window:] ** 2))

    seeds = (1000, 1001, 1002, 1003, 1004)
    medians = [np.median([plateau(k, s) for s in seeds]) for k in (2, 3, 6)]
    assert medians[0] < medians[1] < medians[2]


def test_sweep_diverged_cell_continues():
    cfg = small_config(eta=5.0, iters=80)
    result = sweep(cfg, "n", [100, 200])
    assert [row.status for row in result.rows] == ["diverged", "diverged"]
    assert result.rows[0].plateau_err_fro is None


def test_sweep_and_figures_start_no_thread(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert harness.worker_count() == 1
    result = sweep(small_config(iters=40, sigma=0.2), "n", [100, 200, 300])
    assert [row.status for row in result.rows] == ["ok"] * 3
    assert len(reproduce_figures(tmp_path / "figs")) == 12


def test_sweep_cell_seeds_differ_per_value():
    cfg = small_config(iters=50)
    result = sweep(cfg, "n", [100, 200])
    assert result.rows[0].cell_seed != result.rows[1].cell_seed


# --- phase detection -------------------------------------------------------


def _synthetic_metrics(ss=None, d_vals=None, a_vals=None, count=200):
    rows = []
    for t in range(count):
        ss_v = ss(t) if ss else 1.0
        d_v = d_vals(t) if d_vals else ss_v
        a_v = a_vals(t) if a_vals else d_v
        rows.append(
            IterateMetrics(
                t=t, ss_err=ss_v, st_norm=0.0, tt_norm=0.0, tt_err=0.0,
                D=d_v, A=a_v, err_spec=d_v, err_fro=d_v, grad_norm=0.0,
            )
        )
    return rows


def test_phases_geometric_head():
    metrics = _synthetic_metrics(ss=lambda t: 0.1 * 0.99**t)
    report = detect_phases(metrics, eta=0.01)
    assert report.head_slope == pytest.approx(np.log(0.99), abs=1e-6)
    assert report.head_r2 > 0.9999


def test_phases_hyperbolic_tail():
    metrics = _synthetic_metrics(
        ss=lambda t: 1.0 / (t + 1.0), d_vals=lambda t: 5.0 / t if t else 5.0
    )
    report = detect_phases(metrics, eta=0.01)
    assert report.tail_c == pytest.approx(5.0, abs=1e-6)
    assert report.tail_residual == pytest.approx(0.0, abs=1e-9)


def test_phases_degenerate_trajectory():
    metrics = _synthetic_metrics(ss=lambda t: 1.0)
    report = detect_phases(metrics, eta=0.01)
    assert report.head_window is None
    assert report.head_slope is None


def test_phases_requires_length():
    with pytest.raises(InputError):
        detect_phases(_synthetic_metrics(count=10), eta=0.01)


def test_phases_on_population_run():
    cfg = small_config(k=4, gradient_mode="population", eta="theory", iters=2000)
    traj = run_experiment(cfg)
    report = detect_phases(traj, eta=cfg.eta_value())
    assert report.recursion_pass_rate == 1.0
    assert report.envelope_pass is True


def test_phases_check_the_recursion_on_one_step_pairs_only():
    """Rows five steps apart are not the one-step recursion: a thinned run has no
    pair to check, and a gap across which A grows is not a failed step."""
    cfg = ExperimentConfig(d=10, r=2, k=3, n=400, iters=300, seed=1, ds=(1.0, 0.8), eta=0.5)
    rows = run_experiment(cfg).metrics
    assert detect_phases(rows[::5], eta=0.5).recursion_pass_rate is None
    gapped = [m for m in _synthetic_metrics(d_vals=lambda t: float(t >= 60))
              if m.t < 60 or m.t % 50 == 0]
    assert detect_phases(gapped, eta=0.5).recursion_pass_rate == 1.0


def _tail_fit(traj, column):
    """The c/t fit of detect_phases, written out, over the last half of ``column``."""
    half = len(traj.metrics) // 2
    t = traj.column("t")
    y, tt = traj.column(column)[half:], t[half:] - t[0]
    y, tt = y[tt > 0], tt[tt > 0]
    c = float(np.sum(y / tt) / np.sum(1.0 / tt**2))
    return c, float(np.linalg.norm(y - c / tt)) / float(np.linalg.norm(y))


@pytest.mark.parametrize("overrides", [
    dict(gradient_mode="population", sigma=0.5, eta="theory"),
    dict(sigma=0.0),
    dict(sigma=1e-5),  # a floor low enough that A stays positive over the tail
], ids=["population", "sample_noiseless", "sample_noisy"])
def test_phases_fit_the_tail_on_A_exactly_for_noisy_sample_runs(overrides):
    """A trajectory alone tells a noisy run (some A < D) from a noiseless
    one, so the tail is fitted on A exactly when the run is in sample mode
    with sigma > 0: the choice the run's config would make."""
    cfg = small_config(k=4, iters=100, **overrides)
    traj = run_experiment(cfg)
    noisy = cfg.sigma > 0 and cfg.gradient_mode == "sample"
    report = detect_phases(traj, eta=cfg.eta_value())
    assert (report.tail_c, report.tail_residual) == _tail_fit(traj, "A" if noisy else "D")
    if noisy:  # the two columns differ, so the fit tells them apart
        assert _tail_fit(traj, "A") != _tail_fit(traj, "D")


def test_phases_without_eta_skips_recursion():
    metrics = _synthetic_metrics(ss=lambda t: 0.1 * 0.99**t)
    report = detect_phases(metrics)
    assert report.recursion_pass_rate is None
    assert report.envelope_pass is None
    assert report.head_slope is not None
