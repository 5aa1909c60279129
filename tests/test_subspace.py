from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import msense.subspace

from msense import (
    ExperimentConfig,
    InitSpec,
    InputError,
    check_initialization,
    decompose,
    eps_stat,
    generate_ground_truth,
    generate_sensing,
    planted_init,
    random_init,
    region_sample,
    run_experiment,
    sample_contraction,
    spectral_init,
    spectral_norm,
    verify_population_contraction,
)
from msense.csvio import read_trajectory_csv, write_trajectory_csv
from msense.harness import Trajectory
from msense.problem import QuadraticModel, SensingSet
from msense.rng import stream
from msense.subspace import exact_factor


def test_decompose_reconstructs(gt20, rng):
    f = rng.standard_normal((20, 4))
    dec = decompose(f, gt20)
    recon = gt20.U @ dec.S + gt20.V @ dec.T
    assert np.linalg.norm(recon - f) < 1e-10


def test_decompose_pure_signal(gt20, rng):
    s0 = rng.standard_normal((3, 4))
    dec = decompose(gt20.U @ s0, gt20)
    assert_allclose(dec.S, s0, atol=1e-12)
    assert np.max(np.abs(dec.T)) < 1e-12


def test_decompose_exact_factor(gt20):
    f = exact_factor(gt20, 4)
    dec = decompose(f, gt20)
    assert_allclose(dec.S @ dec.S.T, np.diag(gt20.ds), atol=1e-12)
    assert np.max(np.abs(dec.T)) < 1e-12


def test_eps_stat(gt20):
    rate = np.sqrt(20 * np.log(20) / 200)
    assert eps_stat(gt20, n=200, sigma=0.5) == pytest.approx(1.25 * rate * 0.5)
    assert eps_stat(gt20, n=200, sigma=0.0) == 0.0
    assert eps_stat(gt20, n=None, sigma=0.5) == 0.0


def test_metrics_exact_factor(gt20, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    m = one_row_metrics(0, exact_factor(gt20, 3), gt20, floor)
    assert m.D < 1e-12
    assert m.err_spec < 1e-12 and m.err_fro < 1e-12
    assert m.A < 1e-12


def test_metrics_zero_factor(gt20, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    m = one_row_metrics(0, np.zeros((20, 4)), gt20, floor)
    assert m.err_spec == pytest.approx(1.0)  # sigma_1
    assert m.ss_err == pytest.approx(1.0)
    assert m.tt_norm == 0.0 and m.st_norm == 0.0


def test_metrics_planted_init_is_in_region(gt20, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    m = one_row_metrics(0, planted_init(gt20, 4, 0.07, seed=2), gt20, floor)
    assert m.D <= 0.07 * 0.8


def test_metrics_rotation_invariance(gt20, rng, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.3)
    f = exact_factor(gt20, 4) + 0.1 * rng.standard_normal((20, 4))
    q, r_ = np.linalg.qr(rng.standard_normal((4, 4)))
    rot = q * np.sign(np.diag(r_))
    a = one_row_metrics(0, f, gt20, floor)
    b = one_row_metrics(0, f @ rot, gt20, floor)
    for name in ("ss_err", "st_norm", "tt_norm", "tt_err", "D", "A", "err_spec", "err_fro"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-10)


def test_metrics_triangle_inequality(gt20, rng, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=0.0)
    for _ in range(20):
        f = exact_factor(gt20, 4) + 0.2 * rng.standard_normal((20, 4))
        m = one_row_metrics(0, f, gt20, floor)
        assert m.err_spec <= m.ss_err + m.tt_err + 2 * m.st_norm + 1e-10


def test_planted_init_small_rho_limit(gt20):
    f0 = planted_init(gt20, 4, rho=1e-6, seed=5)
    assert spectral_norm(f0 @ f0.T - gt20.Xstar) <= 0.7 * 1e-6 * 0.8


def test_planted_init_satisfies_assumption(gt20):
    for seed in range(50):
        report = check_initialization(planted_init(gt20, 4, 0.07, seed=seed), gt20, 0.07)
        assert report.assumption_ok
        assert report.lemma_ok


def _planted_init_fixed_halvings(gt, k, rho, seed):
    """planted_init with its bisection run for all 100 halvings."""
    rng = stream(seed, "init")
    base = exact_factor(gt, k)
    pert = rng.standard_normal((gt.d, k))
    target = 0.7 * rho * gt.sigma_r * (1.0 - 0.5 * rng.uniform())

    def dist(c):
        f = base + c * pert
        return spectral_norm(f @ f.T - gt.Xstar)

    lo, hi = 0.0, 1.0
    while dist(hi) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dist(mid) < target else (lo, mid)
    return base + lo * pert


def test_planted_init_bisection_stops_once_converged(gt20, monkeypatch):
    calls = []

    def counting(m):
        calls.append(1)
        return spectral_norm(m)

    monkeypatch.setattr(msense.subspace, "spectral_norm", counting)
    for seed in range(50):
        calls.clear()
        f0 = planted_init(gt20, 4, 0.07, seed=seed)
        assert len(calls) <= 70
        assert_array_equal(f0, _planted_init_fixed_halvings(gt20, 4, 0.07, seed))


def test_planted_init_rejects_k_below_r(gt20):
    with pytest.raises(InputError):
        planted_init(gt20, 2, 0.07, seed=0)
    with pytest.raises(InputError):
        planted_init(gt20, 4, 0.5, seed=0)


def test_spectral_init_zero_observations(gt20):
    zero = SensingSet(
        n=16,
        d=20,
        distribution="gaussian",
        seed=1,
        observations=np.zeros(16),
        epsilon=np.zeros(16),
        model=QuadraticModel(20, np.zeros((210, 210)), np.zeros(210)),
    )
    assert np.max(np.abs(spectral_init(zero, 4))) == 0.0


def test_spectral_init_k_equals_d_keeps_nonnegative_part(gt20):
    s = generate_sensing(gt20, n=64, sigma=0.0, seed=44)
    f0 = spectral_init(s, 20)
    m = np.zeros((20, 20))
    for sl, a in s.iter_blocks():
        m += (s.observations[sl] @ a.reshape(a.shape[0], -1)).reshape(20, 20)
    m = 0.5 * (m + m.T) / s.n
    w, v = np.linalg.eigh(m)
    psd_part = (v * np.clip(w, 0, None)) @ v.T
    assert_allclose(f0 @ f0.T, psd_part, atol=1e-10)


def test_spectral_init_error_shrinks_with_n(gt20):
    meds = []
    for n in (200, 800, 3200):
        errs = []
        for seed in range(20):
            s = generate_sensing(gt20, n=n, sigma=0.0, seed=7000 + 13 * seed + n)
            f0 = spectral_init(s, 4)
            errs.append(spectral_norm(f0 @ f0.T - gt20.Xstar))
        meds.append(np.median(errs))
    assert meds[0] > meds[1] > meds[2]


def test_random_init(gt20):
    a = random_init(20, 4, scale=0.3, seed=9)
    b = random_init(20, 4, scale=0.3, seed=9)
    assert_allclose(a, b)
    tiny = random_init(20, 4, scale=1e-12, seed=9)
    assert np.max(np.abs(tiny)) < 1e-10
    with pytest.raises(InputError):
        random_init(20, 4, scale=0.0, seed=9)
    assert np.std(random_init(50, 40, scale=0.5, seed=1)) == pytest.approx(0.5, rel=0.1)


def test_check_initialization_exact_factor(gt20):
    report = check_initialization(exact_factor(gt20, 4), gt20, 0.07)
    assert report.lhs < 1e-12
    assert max(report.ss0, report.tt0, report.st0) < 1e-12
    assert report.assumption_ok and report.lemma_ok


def test_check_initialization_far_factor(gt20):
    report = check_initialization(np.zeros((20, 4)), gt20, 0.07)
    assert report.lhs == pytest.approx(1.0)
    assert not report.assumption_ok
    assert report.lemma_ok  # premise fails, implication is vacuous


def test_initialization_implication_many_draws(gt20):
    """Whenever |F0 F0' - X*| <= 0.7 rho sigma_r, the three decomposed norms
    stay below rho sigma_r (exercised over 200 seeded draws)."""
    rho = 0.07
    for seed in range(200):
        report = check_initialization(planted_init(gt20, 4, rho, seed=seed), gt20, rho)
        assert report.lhs <= 0.7 * rho * gt20.sigma_r
        assert max(report.ss0, report.tt0, report.st0) <= rho * gt20.sigma_r


def test_region_sample_respects_bounds(gt20):
    for seed in range(20):
        s_coef, t_coef = region_sample(gt20, 4, seed=seed)
        ss = spectral_norm(s_coef @ s_coef.T - np.diag(gt20.ds))
        tt = spectral_norm(t_coef @ t_coef.T - np.diag(gt20.dt))
        st = spectral_norm(s_coef @ t_coef.T)
        assert max(ss, tt, st) <= 0.1 * gt20.sigma_r


def test_population_contraction_at_fixed_point(gt20):
    dec = decompose(exact_factor(gt20, 4), gt20)
    report = verify_population_contraction(dec.S, dec.T, gt20, eta=0.01)
    for chk in report.checks:
        assert chk.lhs < 1e-12
        assert chk.passed


def test_population_contraction_zero_step_has_zero_slack(gt20):
    s_coef, t_coef = region_sample(gt20, 4, seed=77)
    report = verify_population_contraction(s_coef, t_coef, gt20, eta=0.0)
    by_name = {c.name: c for c in report.checks}
    chk = by_name["st_contraction"]
    assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12)
    assert chk.passed


def test_population_contraction_rejects_out_of_region(gt20):
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        verify_population_contraction(
            rng.standard_normal((3, 4)), rng.standard_normal((17, 4)), gt20, eta=0.01
        )
    s_coef, t_coef = region_sample(gt20, 4, seed=1)
    with pytest.raises(InputError):
        verify_population_contraction(s_coef, t_coef, gt20, eta=0.05)


ROBUST_CHECKS = (
    "ss_contraction",
    "tt_contraction",
    "tt_err_contraction",
    "ts_mixed_nonexpansion",
    "tt_half_nonexpansion",
)
TIGHT_CHECKS = ("st_contraction", "ss_half_contraction", "st_mixed_nonexpansion")


def test_population_contraction_region_battery(gt20):
    """Two-sided evaluation of the eight one-step inequalities on 100 region
    samples.

    Five of the inequalities hold with slack on every draw.  The other three
    are stated with constants tighter than their derivations support and are
    exceeded on a fraction of draws; the exceedance is bounded by the
    second-order term eta * (0.1 sigma_r)^2 scale that the derivations carry.
    """
    eta = 1.0 / (100.0 * gt20.sigma1)
    overshoot_budget = 3 * eta * (0.1 * gt20.sigma_r) ** 2
    for seed in range(100):
        s_coef, t_coef = region_sample(gt20, 4, seed=seed)
        report = verify_population_contraction(s_coef, t_coef, gt20, eta)
        for chk in report.checks:
            if chk.name in ROBUST_CHECKS:
                assert chk.passed, f"{chk.name} violated at seed {seed}: {chk}"
            else:
                assert chk.lhs <= chk.rhs + overshoot_budget, (
                    f"{chk.name} exceeded its derivation-level slack at seed {seed}"
                )


def _sample_run(**overrides):
    """A track_delta run on the reference spectrum, with delta_norm on every row."""
    base = dict(d=20, r=3, k=4, n=200, sigma=0.0, ds=(1.0, 0.9, 0.8), eta=0.1, iters=200,
                seed=3, track_delta=True)
    return run_experiment(ExperimentConfig(**{**base, **overrides}), write_output=False)


def _sample_pair(m_before, m_after, floor, config):
    """The finite-sample check of one pair of consecutive rows as first written,
    the oracle for sample_contraction: (held, above_floor, lhs, rhs, status)."""
    sr, eta = config.sigma_r, config.eta_value()
    d, k, n, sigma = config.d, config.k, config.n, config.sigma
    c_kd = np.sqrt(k * d * np.log(d) / n)
    c_d = np.sqrt(d * np.log(d) / n)
    tol = 1e-9 * sr
    held = m_before.delta_norm <= 10.0 * c_kd * m_before.D + 4.0 * c_d * sigma + tol
    above_floor = m_before.D > 50.0 * floor
    lhs = (m_after.ss_err, m_after.st_norm, m_after.A)
    rhs = ((1 - 0.7 * eta * sr) * m_before.ss_err + c_kd * m_before.D + 0.4 * c_d * sigma,
           (1 - eta * sr) * m_before.st_norm + c_kd * m_before.D + 0.4 * c_d * sigma,
           (1.0 - 0.5 * eta * m_before.A) * m_before.A)
    status = ["pass" if a <= b + tol else "fail" if held and above_floor else "vacuous"
              for a, b in zip(lhs, rhs)]
    return held, above_floor, lhs, rhs, status


def _matches_the_per_pair_oracle(traj):
    """sample_contraction(traj), asserted bit for bit equal to the oracle on
    every pair whose first row has delta_norm; eps_stat comes from the config."""
    cfg = traj.config
    gt = generate_ground_truth(cfg.d, cfg.r, cfg.ds, cfg.dt, cfg.seed)
    floor = eps_stat(gt, None if cfg.gradient_mode == "population" else cfg.n, cfg.sigma)
    pairs = [(b, a) for b, a in zip(traj.metrics, traj.metrics[1:]) if b.delta_norm is not None]
    held, above_floor, lhs, rhs, status = map(
        np.array, zip(*(_sample_pair(b, a, floor, cfg) for b, a in pairs)))
    got = sample_contraction(traj)
    assert got.t.tolist() == [b.t for b, _ in pairs]
    assert got.held.tolist() == held.tolist()
    assert got.above_floor.tolist() == above_floor.tolist()
    assert got.lhs.shape == got.rhs.shape == lhs.shape == rhs.shape
    assert got.lhs.tobytes() == lhs.tobytes() and got.rhs.tobytes() == rhs.tobytes()
    assert got.status.tolist() == status.tolist()
    return got


SAMPLE_RUNS = {
    "d20_k4_noiseless": dict(),
    "sigma03_every3": dict(sigma=0.3, delta_every=3, seed=4),
    "population": dict(gradient_mode="population", eta="theory", seed=5),
    "d10_n2000_sigma05": dict(d=10, n=2000, sigma=0.5, seed=6),
    "k6_sigma1": dict(k=6, sigma=1.0, seed=7),
    # Outside the basin: A crosses the floor and the floored recursion fails 18 times.
    "random_start": dict(d=10, n=2000, sigma=0.05, seed=6, init=InitSpec("random")),
}


@pytest.mark.parametrize("overrides", SAMPLE_RUNS.values(), ids=SAMPLE_RUNS)
def test_sample_contraction_matches_the_per_pair_oracle(overrides):
    _matches_the_per_pair_oracle(_sample_run(**overrides))


def test_sample_contraction_on_noiseless_run():
    """On the reference noiseless run the deviation hypothesis holds and the
    floored recursion passes at every step."""
    report = sample_contraction(_sample_run())
    assert report.t.tolist() == list(range(200)) and report.held.all()
    assert (report.status[:, 2] == "pass").all()


def test_sample_contraction_noiseless_reduces_to_plain_recursion():
    traj = _sample_run(iters=5)
    before, after = traj.metrics[0], traj.metrics[1]
    assert before.A == before.D and after.A == after.D  # eps_stat = 0
    report = sample_contraction(traj)
    assert report.lhs[0, 2] == pytest.approx(after.D)
    assert report.rhs[0, 2] == pytest.approx((1 - 0.05 * before.D) * before.D)


def test_sample_contraction_population_run_is_trivial():
    traj = _sample_run(gradient_mode="population", eta="theory", iters=60, seed=5)
    assert {m.delta_norm for m in traj.metrics} == {0.0}
    report = sample_contraction(traj)
    assert report.held.all() and not (report.status == "fail").any()


def test_sample_contraction_requires_delta():
    """No pair qualifies without a delta_norm row followed by its next step."""
    traj = _sample_run(iters=5)
    for metrics in (_sample_run(iters=5, track_delta=False).metrics, traj.metrics[-1:],
                    traj.metrics[::2]):
        with pytest.raises(InputError):
            sample_contraction(replace(traj, metrics=metrics))


def test_sample_contraction_of_a_csv_trajectory_needs_the_config(tmp_path):
    """A trajectory CSV carries no config: an InputError, not an AttributeError."""
    write_trajectory_csv(_sample_run(iters=5), tmp_path / "t.csv")
    traj = Trajectory(config=None, metrics=read_trajectory_csv(tmp_path / "t.csv"), elapsed_ms=[])
    with pytest.raises(InputError, match="needs the run's config"):
        sample_contraction(traj)


def test_sample_contraction_fails_or_is_vacuous_when_the_recursion_breaks():
    """A' above (1 - eta A / 2) A fails where the deviation hypothesis holds
    above the floor, and is vacuous where the hypothesis fails or the
    iterate is at the floor; the other checks still pass.  Every constructed
    pair matches the per-pair oracle."""
    traj = _sample_run(iters=5)
    before, after = traj.metrics[0], traj.metrics[1]._replace(A=2.0 * traj.metrics[0].A)
    report = _matches_the_per_pair_oracle(replace(traj, metrics=[before, after]))
    assert (report.held[0], report.above_floor[0]) == (True, True)
    assert report.status[0].tolist() == ["pass", "pass", "fail"]
    no_hypothesis = replace(traj, metrics=[before._replace(delta_norm=1e3), after])
    # At sigma = 1, 50 eps_stat > D: the first row's A is 0.
    at_floor = replace(traj, config=replace(traj.config, sigma=1.0),
                       metrics=[before._replace(A=0.0), after])
    for case, held, above in ((no_hypothesis, False, True), (at_floor, True, False)):
        report = _matches_the_per_pair_oracle(case)
        assert (report.held[0], report.above_floor[0]) == (held, above)
        assert report.status[0].tolist() == ["pass", "pass", "vacuous"]


def test_one_row_metrics_floor_clamp(gt20, one_row_metrics):
    floor = eps_stat(gt20, n=200, sigma=1.0)  # large eps_stat
    m = one_row_metrics(0, exact_factor(gt20, 4), gt20, floor)
    assert m.A == 0.0  # clamped at the statistical floor
