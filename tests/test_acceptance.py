"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Two
checks fail by design of the verified statements themselves (the stated
population inequalities 4 and the second-moment closed form 8a are tighter
than what the underlying derivations support); the failure messages carry
the measured evidence.  See README.md for the analysis.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from msense import (
    ExperimentConfig,
    check_initialization,
    detect_phases,
    generate_ground_truth,
    generate_sensing,
    loss_value,
    planted_init,
    population_gradient,
    region_sample,
    run_experiment,
    sweep,
    verify_population_contraction,
)
from msense.concentration import mc_A_squared, mc_noise_term, mc_second_moment

SEED = 271828


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _base_config(**kw):
    base = dict(
        d=20, r=3, k=3, n=200, iters=1200, seed=SEED, sigma=0.0,
        ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def exact_rank_run():
    t0 = time.perf_counter()
    traj = run_experiment(_base_config())
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def over_rank_run():
    return run_experiment(_base_config(k=4))


def test_criterion_1_exact_rank_geometric_convergence(exact_rank_run):
    traj, elapsed = exact_rank_run
    err = traj.column("err_fro")
    hits = np.nonzero(err < 1e-10)[0]
    reached = hits.size > 0 and hits[0] <= 5000
    r2 = float("nan")
    if reached:
        window = np.log(err[: hits[0] + 1])
        t = np.arange(window.size)
        slope, intercept = np.polyfit(t, window, 1)
        resid = window - slope * t - intercept
        r2 = 1.0 - float(np.sum(resid**2)) / float(np.var(window) * window.size)
    ok = reached and r2 >= 0.99 and elapsed < 10.0
    detail = (
        f"first err_fro<1e-10 at t={hits[0] if hits.size else 'never'}, "
        f"log-fit R^2={r2:.5f} (need >=0.99), runtime={elapsed:.2f}s (<10s)"
    )
    assert ok, _report(1, "exact-rank geometric convergence", ok, detail)
    _report(1, "exact-rank geometric convergence", ok, detail)


def test_criterion_2_overparameterized_slowdown(exact_rank_run, over_rank_run):
    traj3, _ = exact_rank_run
    traj4 = over_rank_run
    err3 = traj3.column("err_fro")
    err4 = traj4.column("err_fro")
    hit = int(np.nonzero(err3 < 1e-10)[0][0])
    ratio = err4[hit] / err3[hit]
    tail = traj4.metrics[len(traj4.metrics) // 2 :]
    dominated = all(m.tt_err >= 0.5 * m.err_spec for m in tail)
    ok = ratio >= 1e3 and dominated
    detail = (
        f"err_fro ratio at t={hit}: {ratio:.3e} (need >=1e3); residual-subspace "
        f"domination over final 50%: {dominated}"
    )
    assert ok, _report(2, "over-parameterized slowdown", ok, detail)
    _report(2, "over-parameterized slowdown", ok, detail)


def test_criterion_3_sublinear_envelope():
    pop_cfg = _base_config(k=4, gradient_mode="population", eta="theory", iters=4000)
    pop_report = detect_phases(run_experiment(pop_cfg), eta=pop_cfg.eta_value())
    sample_cfg = _base_config(k=4, iters=2000)
    sample_report = detect_phases(run_experiment(sample_cfg),
                                  eta=sample_cfg.eta_value())
    ok = (
        pop_report.envelope_pass is True
        and pop_report.recursion_pass_rate == 1.0
        and sample_report.recursion_pass_rate >= 0.95
    )
    detail = (
        f"population: envelope={pop_report.envelope_pass}, "
        f"recursion rate={pop_report.recursion_pass_rate}; "
        f"sample noiseless recursion rate={sample_report.recursion_pass_rate} (need >=0.95)"
    )
    assert ok, _report(3, "sublinear envelope and recursion", ok, detail)
    _report(3, "sublinear envelope and recursion", ok, detail)


def test_criterion_4_population_contraction_inequalities():
    """All eight one-step population inequalities over 100 region samples.

    Three of the stated inequalities carry constants tighter than their own
    derivations (the half-updated signal bound, the mixed-product
    non-expansions) and are exceeded on a fraction of draws by an
    O(eta * region^2) margin, far above the 1e-9 sigma_r tolerance, so this
    criterion fails as stated.  The module tests pin the provable versions.
    """
    t0 = time.perf_counter()
    gt = generate_ground_truth(20, 3, [1.0, 0.9, 0.8], "zeros", SEED)
    eta = 1.0 / (100.0 * gt.sigma1)
    fail_counts = {}
    worst = {}
    clean = 0
    for trial in range(100):
        s_coef, t_coef = region_sample(gt, 4, seed=SEED + trial)
        report = verify_population_contraction(s_coef, t_coef, gt, eta)
        if report.all_passed:
            clean += 1
        for chk in report.checks:
            if not chk.passed:
                fail_counts[chk.name] = fail_counts.get(chk.name, 0) + 1
                gap = (chk.lhs - chk.rhs) / gt.sigma_r
                worst[chk.name] = max(worst.get(chk.name, 0.0), gap)
    elapsed = time.perf_counter() - t0
    ok = clean == 100 and elapsed < 60.0
    detail = (
        f"samples with all 8 passing: {clean}/100 (runtime {elapsed:.1f}s); "
        f"violations: { {k: v for k, v in sorted(fail_counts.items())} }; "
        f"worst overshoot in sigma_r units: { {k: f'{v:.2e}' for k, v in sorted(worst.items())} }"
    )
    assert ok, _report(4, "population contraction inequalities", ok, detail)
    _report(4, "population contraction inequalities", ok, detail)


def test_criterion_5_initialization_implication():
    gt = generate_ground_truth(20, 3, [1.0, 0.9, 0.8], "zeros", SEED)
    rho = 0.07
    bound = rho * gt.sigma_r
    premise_ok = conclusion_ok = 0
    for trial in range(200):
        rep = check_initialization(planted_init(gt, 4, rho, seed=SEED + trial), gt, rho)
        premise_ok += rep.lhs <= 0.7 * bound
        conclusion_ok += max(rep.ss0, rep.tt0, rep.st0) <= bound
    ok = premise_ok == 200 and conclusion_ok == 200
    detail = (
        f"premise |F0F0'-X*| <= 0.7 rho sigma_r in {premise_ok}/200 draws; "
        f"decomposed norms <= rho sigma_r in {conclusion_ok}/200"
    )
    assert ok, _report(5, "initialization implication", ok, detail)
    _report(5, "initialization implication", ok, detail)


def test_criterion_6_statistical_error_scaling():
    t0 = time.perf_counter()
    grid = [2000, 8000, 32000]
    per_n = {n: [] for n in grid}
    for seed in (101, 102, 103):
        base = ExperimentConfig(
            d=10, r=2, k=3, n=2000, iters=12000, seed=seed, sigma=0.1,
            ds=(1.0, 0.8), dt="zeros", eta=0.1,
        )
        result = sweep(base, "n", grid)
        for row in result.rows:
            assert row.status == "ok"
            per_n[row.value].append(row.plateau_err_fro_sq)
    medians = [float(np.median(per_n[n])) for n in grid]
    slope = float(np.polyfit(np.log(grid), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= slope <= -0.7 and elapsed < 600.0
    detail = (
        f"median plateau err_fro^2 = {[f'{m:.3e}' for m in medians]} over n={grid}; "
        f"log-log slope={slope:.3f} (need -1 +/- 0.3), runtime={elapsed:.1f}s (<600s)"
    )
    assert ok, _report(6, "statistical-error scaling", ok, detail)
    _report(6, "statistical-error scaling", ok, detail)


def test_criterion_7_noise_term_concentration():
    grid = [100, 1000, 10000]
    medians = []
    ratios = []
    for n in grid:
        rep = mc_noise_term(d=20, sigma=1.0, n=n, trials=50, seed=SEED + n)
        medians.append(rep.median)
        ratios.append(rep.ratio_median)
    slope = float(np.polyfit(np.log(grid), np.log(medians), 1)[0])
    in_band = all(0.5 <= r <= 5.0 for r in ratios)
    ok = -0.6 <= slope <= -0.4 and in_band
    detail = (
        f"median slope vs n = {slope:.3f} (need -0.5 +/- 0.1); "
        f"ratio to sqrt(d sigma^2/n) = {[f'{r:.2f}' for r in ratios]} (need within [0.5, 5])"
    )
    assert ok, _report(7, "noise-term concentration", ok, detail)
    _report(7, "noise-term concentration", ok, detail)


def test_criterion_8a_second_moment_closed_form():
    """Monte Carlo second moment against the stated closed form.

    The stated diagonal |U|_F^2 + 2 U_mm^2 - sum_j U_mj^2 (zero off-diagonal)
    drops the O(d |U|_F^2) baseline that every entry of E[(<A,U>A - U)^2]
    carries under this ensemble (for U = I_3 the true diagonal is 10, the
    stated value 4), so the 3-standard-error comparison fails by design.
    The Monte Carlo does match the exact ensemble moments; that cross-check
    lives in the concentration module tests.
    """
    rng = np.random.default_rng(SEED)
    u = rng.standard_normal((5, 5))
    u = 0.5 * (u + u.T)
    cmp_ = mc_second_moment(u, trials=100000, seed=SEED)
    z_exact = np.max(
        np.abs(
            np.where(cmp_.stderr > 0, (cmp_.estimate - cmp_.exact) / cmp_.stderr, 0.0)
        )
    )
    ok = cmp_.max_abs_z <= 3.0
    detail = (
        f"max |z| vs stated closed form = {cmp_.max_abs_z:.1f} (need <=3); "
        f"max |z| vs exact ensemble moments = {z_exact:.2f}"
    )
    assert ok, _report("8a", "second-moment closed form", ok, detail)
    _report("8a", "second-moment closed form", ok, detail)


def test_criterion_8b_sensing_square_moment():
    cmp_ = mc_A_squared(d=20, trials=10000, seed=6)
    ok = cmp_.max_abs_z <= 3.0
    detail = f"max |z| of E[A^2] estimate vs d I = {cmp_.max_abs_z:.2f} (need <=3)"
    assert ok, _report("8b", "sensing-matrix square moment", ok, detail)
    _report("8b", "sensing-matrix square moment", ok, detail)


def test_criterion_9_gradient_correctness():
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    worst_identity = 0.0
    for case in range(20):
        d = 5
        k = 2 + case % 2
        n = 40 + 10 * (case % 3)
        sigma = 0.0 if case % 2 == 0 else 0.25
        gt = generate_ground_truth(d, 2, [1.0, 0.6], "zeros", seed=SEED + case)
        s = generate_sensing(gt, n=n, sigma=sigma, seed=SEED + 1000 + case)
        f = rng.standard_normal((d, k))
        g = s.model.gradient(f)
        h = 1e-6
        scale = max(1.0, float(np.max(np.abs(g))))
        for i in range(d):
            for j in range(k):
                e = np.zeros((d, k))
                e[i, j] = h
                fd = (loss_value(f + e, s) - loss_value(f - e, s)) / (2 * h)
                rel = abs(fd - g[i, j]) / max(abs(g[i, j]), 1e-4 * scale)
                worst_rel = max(worst_rel, rel)
        gap = g - population_gradient(f, gt) - s.model.deviation(f, gt.Xstar) @ f
        worst_identity = max(worst_identity, float(np.max(np.abs(gap))))
    ok = worst_rel <= 1e-5 and worst_identity <= 1e-10
    detail = (
        f"worst finite-difference relative error = {worst_rel:.2e} (need <=1e-5); "
        f"worst identity residual = {worst_identity:.2e} (need <=1e-10)"
    )
    assert ok, _report(9, "gradient correctness", ok, detail)
    _report(9, "gradient correctness", ok, detail)


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "d": 20, "r": 3, "k": 4, "n": 200, "iters": 120, "seed": SEED,
        "sigma": 0.3, "ds": [1.0, 0.9, 0.8], "dt": "zeros", "eta": 0.1,
        "track_delta": True, "delta_every": 10,
    }))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "msense.cli", "run",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    run_identical = outs[0] == outs[1]

    sweep_cfg = _base_config(iters=100, sigma=0.2)
    sweep_bytes = []
    for threads in ("1", str(os.cpu_count() or 4)):
        os.environ["MSENSE_THREADS"] = threads
        try:
            path = tmp_path / f"sweep_{threads}.csv"
            sweep(sweep_cfg, "n", [100, 200, 300], out=str(path))
            sweep_bytes.append(path.read_bytes())
        finally:
            os.environ.pop("MSENSE_THREADS", None)
    sweep_identical = sweep_bytes[0] == sweep_bytes[1]
    ok = run_identical and sweep_identical
    detail = (
        f"repeat runs byte-identical: {run_identical}; "
        f"sweep at 1 vs max threads byte-identical: {sweep_identical}"
    )
    assert ok, _report(10, "determinism", ok, detail)
    _report(10, "determinism", ok, detail)
