import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import msense.subspace

from msense import (
    InputError,
    check_initialization,
    decompose,
    derived_scales,
    frobenius_norm,
    generate_sensing,
    planted_init,
    random_init,
    region_sample,
    spectral_init,
    spectral_norm,
    verify_population_contraction,
    verify_sample_contraction,
)
from msense.problem import QuadraticModel, SensingSet
from msense.rng import stream
from msense.subspace import exact_factor


def test_decompose_reconstructs(gt20, rng):
    f = rng.standard_normal((20, 4))
    dec = decompose(f, gt20)
    recon = gt20.U @ dec.S + gt20.V @ dec.T
    assert frobenius_norm(recon - f) < 1e-10


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


def test_derived_scales(gt20):
    scales = derived_scales(gt20, n=200, sigma=0.5, k=4)
    rate = np.sqrt(20 * np.log(20) / 200)
    assert scales.eps_stat == pytest.approx(1.25 * rate * 0.5)
    assert scales.eps_comp == pytest.approx(2.0 * 1.25 * rate * 0.8)
    assert derived_scales(gt20, n=200, sigma=0.0, k=4).eps_stat == 0.0
    pop = derived_scales(gt20, n=None, sigma=0.5, k=4)
    assert pop.eps_stat == 0.0 and pop.eps_comp == 0.0


def test_metrics_exact_factor(gt20, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.0, k=3)
    m = one_row_metrics(0, exact_factor(gt20, 3), gt20, scales)
    assert m.D < 1e-12
    assert m.err_spec < 1e-12 and m.err_fro < 1e-12
    assert m.A < 1e-12


def test_metrics_zero_factor(gt20, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    m = one_row_metrics(0, np.zeros((20, 4)), gt20, scales)
    assert m.err_spec == pytest.approx(1.0)  # sigma_1
    assert m.ss_err == pytest.approx(1.0)
    assert m.tt_norm == 0.0 and m.st_norm == 0.0


def test_metrics_planted_init_is_in_region(gt20, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    m = one_row_metrics(0, planted_init(gt20, 4, 0.07, seed=2), gt20, scales)
    assert m.D <= 0.07 * 0.8


def test_metrics_rotation_invariance(gt20, rng, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.3, k=4)
    f = exact_factor(gt20, 4) + 0.1 * rng.standard_normal((20, 4))
    q, r_ = np.linalg.qr(rng.standard_normal((4, 4)))
    rot = q * np.sign(np.diag(r_))
    a = one_row_metrics(0, f, gt20, scales)
    b = one_row_metrics(0, f @ rot, gt20, scales)
    for name in ("ss_err", "st_norm", "tt_norm", "tt_err", "D", "A", "err_spec", "err_fro"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-10)


def test_metrics_triangle_inequality(gt20, rng, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    for _ in range(20):
        f = exact_factor(gt20, 4) + 0.2 * rng.standard_normal((20, 4))
        m = one_row_metrics(0, f, gt20, scales)
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
        sigma=0.0,
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


def _run_for_sample_checks(gt, k, n, sigma, eta, iters, seed):
    from msense import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        d=gt.d, r=gt.r, k=k, n=n, sigma=sigma, ds=tuple(gt.ds), dt="zeros",
        eta=eta, iters=iters, seed=seed, track_delta=True, delta_every=1,
    )
    return cfg, run_experiment(cfg, write_output=False)


def test_sample_contraction_on_noiseless_run(gt20):
    """On the reference noiseless run the floored recursion passes at every
    step where the deviation hypothesis holds (here: all of them)."""
    cfg, traj = _run_for_sample_checks(gt20, k=4, n=200, sigma=0.0, eta=0.1, iters=200, seed=3)
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    for before, after in zip(traj.metrics[:-1], traj.metrics[1:]):
        report = verify_sample_contraction(before, after, scales, cfg)
        assert report.hypothesis_held
        by_name = {c.name: c for c in report.checks}
        assert by_name["floored_recursion"].status == "pass"


def test_sample_contraction_noiseless_reduces_to_plain_recursion(gt20):
    cfg, traj = _run_for_sample_checks(gt20, k=4, n=200, sigma=0.0, eta=0.1, iters=5, seed=3)
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    before, after = traj.metrics[0], traj.metrics[1]
    assert before.A == before.D and after.A == after.D  # eps_stat = 0
    report = verify_sample_contraction(before, after, scales, cfg)
    rec = {c.name: c for c in report.checks}["floored_recursion"]
    assert rec.lhs == pytest.approx(after.D)
    assert rec.rhs == pytest.approx((1 - 0.05 * before.D) * before.D)


def test_sample_contraction_population_run_is_trivial(gt20):
    from msense import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        d=20, r=3, k=4, n=200, sigma=0.0, ds=(1.0, 0.9, 0.8), eta="theory",
        iters=60, seed=5, gradient_mode="population", track_delta=True,
    )
    traj = run_experiment(cfg, write_output=False)
    scales = derived_scales(gt20, n=None, sigma=0.0, k=4)
    before, after = traj.metrics[10], traj.metrics[11]
    assert before.delta_norm == 0.0
    report = verify_sample_contraction(before, after, scales, cfg)
    assert report.hypothesis_held
    assert report.all_ok


def test_sample_contraction_requires_delta(gt20, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    f0 = planted_init(gt20, 4, 0.07, seed=1)
    m0 = one_row_metrics(0, f0, gt20, scales)
    m1 = one_row_metrics(1, f0, gt20, scales)

    class Cfg:
        d, k, n, sigma, ds, eta = 20, 4, 200, 0.0, (1.0, 0.9, 0.8), 0.1

    with pytest.raises(InputError):
        verify_sample_contraction(m0, m1, scales, Cfg)


def test_sample_contraction_fails_or_is_vacuous_when_the_recursion_breaks(gt20):
    """A' above (1 - eta A / 2) A fails where the deviation hypothesis holds
    above the floor, and is vacuous where the hypothesis fails or the
    iterate is below the floor; the other checks still pass."""
    cfg, traj = _run_for_sample_checks(gt20, k=4, n=200, sigma=0.0, eta=0.1, iters=5, seed=3)
    scales = derived_scales(gt20, n=200, sigma=0.0, k=4)
    before, after = traj.metrics[0], traj.metrics[1]._replace(A=2.0 * traj.metrics[0].A)
    report = verify_sample_contraction(before, after, scales, cfg)
    assert report.hypothesis_held and report.above_floor and not report.all_ok
    assert [c.status for c in report.checks] == ["pass", "pass", "fail"]
    no_hypothesis = before._replace(delta_norm=2.0 * report.delta_rhs)
    below_floor = derived_scales(gt20, n=200, sigma=1.0, k=4)  # 50 eps_stat > D
    for args, held, above in (((no_hypothesis, after, scales, cfg), False, True),
                              ((before, after, below_floor, cfg), True, False)):
        report = verify_sample_contraction(*args)
        assert (report.hypothesis_held, report.above_floor) == (held, above)
        assert [c.status for c in report.checks] == ["pass", "pass", "vacuous"]
        assert report.all_ok


def test_one_row_metrics_floor_clamp(gt20, one_row_metrics):
    scales = derived_scales(gt20, n=200, sigma=1.0, k=4)  # large eps_stat
    m = one_row_metrics(0, exact_factor(gt20, 4), gt20, scales)
    assert m.A == 0.0  # clamped at the statistical floor
