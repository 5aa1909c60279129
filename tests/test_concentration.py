import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msense import concentration, problem
from msense.concentration import (
    MomentComparison,
    mc_A_squared,
    mc_noise_term,
    mc_second_moment,
    mc_sensing_deviation,
    second_moment_exact_gaussian,
    second_moment_reference,
)
from msense.csvio import write_mc_csv
from msense.errors import InputError
from msense.linalg import spectral_norm
from msense.rng import stream


def _sym(rng, d):
    m = rng.standard_normal((d, d))
    return 0.5 * (m + m.T)


def test_noise_term_linear_in_sigma():
    a = mc_noise_term(d=10, sigma=0.5, n=200, trials=8, seed=4)
    b = mc_noise_term(d=10, sigma=1.0, n=200, trials=8, seed=4)
    # same seed: the statistic is exactly degree-1 in sigma
    assert_allclose(b.values, 2.0 * a.values, rtol=1e-12)


def test_noise_term_zero_sigma():
    rep = mc_noise_term(d=10, sigma=0.0, n=100, trials=4, seed=1)
    assert_array_equal(rep.values, np.zeros(4))


def test_noise_term_determinism():
    a = mc_noise_term(d=8, sigma=1.0, n=300, trials=6, seed=9)
    b = mc_noise_term(d=8, sigma=1.0, n=300, trials=6, seed=9)
    assert_array_equal(a.values, b.values)


def test_monte_carlo_uses_the_sensing_draw_helper():
    import msense.concentration
    import msense.problem

    assert msense.concentration.draw_blocks is msense.problem.draw_blocks


def _noise_term_per_matrix(d, sigma, n, trials, seed, distribution, draw):
    """|(1/n) sum_i eps_i A_i|_2 summed over the mirrored A_i, block by block."""
    vals = []
    for trial in range(trials):
        rng_ = stream(seed, "mc_noise", trial)
        acc = np.zeros((d, d))
        for done in range(0, n, 512):
            count = min(512, n - done)
            a = draw(rng_, count, d, distribution)
            eps = sigma * rng_.standard_normal(count)
            acc += (eps @ a.reshape(count, -1)).reshape(d, d)
        vals.append(spectral_norm(acc / n))
    return np.array(vals)


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("d", [1, 20])
@pytest.mark.parametrize("n", [1, 100, 777])
def test_noise_term_matches_per_matrix_sum(n, d, distribution, draw_oracle):
    got = mc_noise_term(d, 0.7, n, 3, 21, distribution).values
    want = _noise_term_per_matrix(d, 0.7, n, 3, 21, distribution, draw_oracle)
    assert got.tobytes() == want.tobytes()


def _forbid_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew sensing matrices")

    monkeypatch.setattr(concentration, "draw_blocks", no_draw)


def _mc_bytes(d, rows, temporaries, trials=0, threads=1, sums=0):
    """check_mc_memory's bytes, written out: one value per trial of ``trials``
    and, for each of ``threads``, the draws, four d x d accumulators, two
    vectors of one per matrix, ``temporaries`` block-sized arrays and ``sums``
    per-block d x d square sums."""
    m = min(rows, problem.BLOCK)
    return (threads * (8 * (d * d * (4 + temporaries * m + sums) + 2 * m)
                       + problem.block_bytes(d, rows)) + 8 * trials)


def test_monte_carlo_memory_checked_before_any_draw(monkeypatch):
    _forbid_draws(monkeypatch)
    d, n = 10, 100
    big = problem.BLOCK + 1  # two blocks: two threads
    for run, need in ((lambda: mc_noise_term(d=d, sigma=1.0, n=n, trials=3, seed=1),
                       _mc_bytes(d, n, 0, 3, 2)),
                      (lambda: mc_sensing_deviation(np.eye(d), n=n, trials=3, seed=1),
                       _mc_bytes(d, n, 0, 3, 2, 1)),
                      (lambda: mc_second_moment(np.eye(d), trials=n, seed=1), _mc_bytes(d, n, 1)),
                      (lambda: mc_A_squared(d, trials=n, seed=1), _mc_bytes(d, n, 1)),
                      (lambda: mc_A_squared(d, trials=big, seed=1),
                       _mc_bytes(d, big, 1, threads=2))):
        monkeypatch.setattr(problem, "_memory_budget", lambda: need - 1)
        with pytest.raises(InputError, match="Monte Carlo draws needs"):
            run()
    monkeypatch.undo()  # draws are allowed again, at exactly the budget
    monkeypatch.setattr(problem, "_memory_budget", lambda: _mc_bytes(d, n, 0, 3, 2))
    assert mc_noise_term(d=d, sigma=1.0, n=n, trials=3, seed=1).trials == 3
    # Blocks hold at most BLOCK draws, whatever n is.
    monkeypatch.setattr(problem, "_memory_budget", lambda: _mc_bytes(d, problem.BLOCK, 0, 1))
    assert mc_noise_term(d=d, sigma=1.0, n=10 * problem.BLOCK, trials=1,
                         seed=1).trials == 1


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("kind", ["noise", "deviation", "moment", "asq"])
def test_monte_carlo_memory_check_covers_the_traced_peak(kind, distribution, monkeypatch):
    """The bytes check_mc_memory checks bound what a run allocates, with n
    not a multiple of the block (the last block is partial)."""
    d, n = 40, 2 * problem.BLOCK + 276
    u = _sym(np.random.default_rng(3), d)
    run = {
        "noise": lambda: mc_noise_term(d, 1.0, n, 2, 1, distribution),
        "deviation": lambda: mc_sensing_deviation(u, n, 2, 1, distribution),
        "moment": lambda: mc_second_moment(u, n, 1, distribution),
        "asq": lambda: mc_A_squared(d, n, 1, distribution),
    }[kind]
    run()  # fills the process-wide cache of symmetric indices
    checked = []
    monkeypatch.setattr(concentration, "check_memory", lambda nbytes, what: checked.append(nbytes))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0]


def test_deviation_memory_check_covers_the_square_sums_of_many_blocks(monkeypatch):
    """Each thread holds the per-block square sums of one trial at a time, in one array: with
    400 blocks a trial and twice as many trials as threads, the traced peak stays within the
    checked bytes."""
    mc_sensing_deviation(np.eye(2), 400 * problem.BLOCK, 4, 1)
    checked = []
    monkeypatch.setattr(concentration, "check_memory", lambda nbytes, what: checked.append(nbytes))
    tracemalloc.start()
    try:
        mc_sensing_deviation(np.eye(2), 400 * problem.BLOCK, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= checked[0]


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_noise_term_rejects_non_finite_or_negative_sigma(sigma, monkeypatch):
    _forbid_draws(monkeypatch)
    with pytest.raises(InputError, match="sigma must be a finite number >= 0"):
        mc_noise_term(d=4, sigma=sigma, n=10, trials=2, seed=1)


def test_deviation_homogeneous_in_u(rng):
    u = _sym(rng, 6)
    a = mc_sensing_deviation(u, n=100, trials=6, seed=2)
    b = mc_sensing_deviation(2.0 * u, n=100, trials=6, seed=2)
    assert_allclose(b.report.values, 2.0 * a.report.values, rtol=1e-12)


def test_deviation_rejects_zero_u():
    with pytest.raises(InputError):
        mc_sensing_deviation(np.zeros((4, 4)), n=10, trials=2, seed=0)


def test_deviation_mean_matches_ensemble_first_moment(rng):
    """The per-entry mean of <A,U>A over 1e6 draws sits within a few standard
    errors of 2U - Diag(U), the actual first moment of this ensemble."""
    u = _sym(rng, 5)
    dev = mc_sensing_deviation(u, n=10000, trials=100, seed=6)
    limit = 2.0 * u - np.diag(np.diag(u))
    z = (dev.mean_matrix - limit) / dev.mean_stderr
    assert np.max(np.abs(z)) < 4.0
    # and it is NOT centered at U itself: the off-diagonal bias is resolved
    z_vs_u = np.abs(dev.mean_matrix - u) / dev.mean_stderr
    off = ~np.eye(5, dtype=bool)
    assert np.max(z_vs_u[off]) > 10.0


def test_deviation_statistic_saturates_at_the_bias(rng):
    """The uncentered deviation norm |mean - U| converges to |U - Diag(U)|,
    not to zero, which is why the rate check must center at the true mean."""
    u = _sym(rng, 5)
    dev = mc_sensing_deviation(u, n=20000, trials=4, seed=11)
    bias = np.linalg.norm(u - np.diag(np.diag(u)), 2)
    assert dev.report.median == pytest.approx(bias, rel=0.1)


def test_centered_deviation_rate(rng):
    """After centering at the ensemble mean the norm shrinks like n^{-1/2}."""
    d = 6
    u = _sym(rng, d)
    limit = 2.0 * u - np.diag(np.diag(u))

    def centered_norm(n, seed):
        rng_ = np.random.default_rng(seed)
        g = rng_.standard_normal((n, d, d))
        upper = np.triu(g, 1)
        a = upper + np.transpose(upper, (0, 2, 1))
        idx = np.arange(d)
        a[:, idx, idx] = g[:, idx, idx]
        inner = np.einsum("nij,ij->n", a, u)
        mean = np.einsum("n,nij->ij", inner, a) / n
        return np.linalg.norm(mean - limit, 2)

    sizes = [100, 1000, 10000]
    meds = [
        np.median([centered_norm(n, 300 + 7 * s + n) for s in range(10)]) for n in sizes
    ]
    slope = np.polyfit(np.log(sizes), np.log(meds), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


def test_second_moment_reference_identity_value():
    ref = second_moment_reference(np.eye(3))
    assert_allclose(ref, 4.0 * np.eye(3))  # 3 + 2 - 1 on the diagonal, 0 off it


def test_second_moment_exact_identity_value():
    exact = second_moment_exact_gaussian(np.eye(3))
    assert_allclose(exact, 10.0 * np.eye(3))  # d*Q + 5 - 6 + 2 with Q = 3


def test_second_moment_zero_u():
    cmp_ = mc_second_moment(np.zeros((3, 3)), trials=100, seed=0)
    assert_array_equal(cmp_.estimate, np.zeros((3, 3)))
    assert_array_equal(cmp_.reference, np.zeros((3, 3)))
    assert cmp_.max_abs_z == 0.0


def test_second_moment_mc_matches_exact_formula(rng):
    """Monte Carlo agrees with the independently derived exact moments of the
    simulated ensemble (the derivation is cross-checked here, not assumed)."""
    u = _sym(rng, 5)
    cmp_ = mc_second_moment(u, trials=20000, seed=3)
    z = (cmp_.estimate - cmp_.exact) / cmp_.stderr
    assert np.max(np.abs(z)) < 4.0

    cmp_id = mc_second_moment(np.eye(3), trials=20000, seed=4)
    z_id = (cmp_id.estimate - cmp_id.exact) / np.where(cmp_id.stderr > 0, cmp_id.stderr, 1.0)
    assert np.max(np.abs(z_id)) < 4.0


def test_second_moment_reference_disagrees_with_ensemble(rng):
    """The stated closed form misses the d * Q baseline of the true moments,
    so the Monte Carlo z-scores against it are far outside noise."""
    u = _sym(rng, 5)
    cmp_ = mc_second_moment(u, trials=20000, seed=5)
    assert cmp_.max_abs_z > 10.0


def test_zero_stderr_scores_alike_against_both_targets():
    """An entry with zero standard error scores 0 where the estimate equals
    the target and inf where it does not, against reference and exact alike."""
    est = np.array([[1.0, 2.0], [2.0, 1.0]])
    cmp_ = MomentComparison("s", 1, est, np.zeros((2, 2)), reference=np.eye(2), exact=np.eye(2))
    assert_array_equal(cmp_.z_scores, [[0.0, np.inf], [np.inf, 0.0]])
    assert cmp_.summary()["max_abs_z"] == cmp_.summary()["max_abs_z_vs_exact"] == np.inf
    same = MomentComparison("s", 1, est, np.zeros((2, 2)), reference=est, exact=est)
    assert same.summary()["max_abs_z"] == same.summary()["max_abs_z_vs_exact"] == 0.0


def test_a_squared_gaussian():
    cmp_ = mc_A_squared(d=20, trials=10000, seed=8)
    assert np.max(np.abs(cmp_.z_scores)) < 4.0
    assert cmp_.reference[0, 0] == 20.0


def test_a_squared_d1():
    cmp_ = mc_A_squared(d=1, trials=5000, seed=2)
    assert cmp_.estimate[0, 0] == pytest.approx(1.0, abs=0.1)


def test_a_squared_rademacher_diagonal_exact():
    cmp_ = mc_A_squared(d=6, trials=500, seed=3, distribution="rademacher")
    assert_allclose(np.diag(cmp_.estimate), 6.0 * np.ones(6), rtol=1e-12)
    assert_allclose(np.diag(cmp_.stderr), np.zeros(6), atol=1e-12)


def test_report_serialization(tmp_path, rng):
    rep = mc_noise_term(d=6, sigma=1.0, n=100, trials=5, seed=13)
    csv_path = tmp_path / "mc.csv"
    write_mc_csv(rep, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,value"
    assert len(lines) == 6
    parsed = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert_allclose(parsed, rep.values, rtol=0)


# --- two threads against the serial loops ------------------------------------


def _serial_noise(d, sigma, n, trials, seed, distribution):
    """mc_noise_term's values from its loop on one thread, as first written."""
    mirror = problem._svec_indices(d)[2]
    vals = np.empty(trials)
    buf = np.empty((min(n, problem.BLOCK), d * d))
    for trial in range(trials):
        acc = np.zeros(d * d)
        for _, rng_, g in problem.draw_blocks(seed, "mc_noise", n, d, distribution, trial, True,
                                              buf):
            acc += sigma * rng_.standard_normal(len(g)) @ g
        vals[trial] = spectral_norm(acc.take(mirror).reshape(d, d) / n)
    return vals


def _serial_deviation(u, n, trials, seed, distribution):
    """mc_sensing_deviation's values, mean_matrix and mean_stderr from its loop on one thread."""
    d = u.shape[0]
    vals = np.empty(trials)
    acc_mean, acc_sq = np.zeros((d, d)), np.zeros((d, d))
    buf = np.empty((min(n, problem.BLOCK), d * d))
    for trial in range(trials):
        acc = np.zeros((d, d))
        for _, _, a in problem.draw_blocks(seed, "mc_deviation", n, d, distribution, trial,
                                           out=buf):
            term = a.reshape(len(a), -1)
            term *= (term @ u.ravel())[:, None]
            acc += term.sum(axis=0).reshape(d, d)
            acc_sq += np.square(term, out=term).sum(axis=0).reshape(d, d)
        acc_mean += acc
        vals[trial] = spectral_norm(acc / n - u)
    return (vals, *concentration._mean_stderr(acc_mean, acc_sq, trials * n))


def _serial_moment(stat, kind, d, trials, seed, distribution):
    """_mc_matrix_moment's estimate and stderr from its loop on one thread."""
    acc, acc_sq = np.zeros((d, d)), np.zeros((d, d))
    buf = np.empty((min(trials, problem.BLOCK), d * d))
    for _, _, a in problem.draw_blocks(seed, f"mc_{kind}", trials, d, distribution, out=buf):
        x = stat(a)
        acc += x.sum(axis=0)
        acc_sq += np.square(x, out=x).sum(axis=0)
    return concentration._mean_stderr(acc, acc_sq, trials)


def _oracle_mismatches():
    """The cases, over both distributions and 1, 2, 3 and 5 items (trials, or blocks of
    BLOCK draws for moment and asq), where an mc_* output differs from its serial loop."""
    d, n = 6, problem.BLOCK + 188  # two blocks a trial, the last partial
    u = _sym(np.random.default_rng(5), d)

    def centered_square(a):
        a *= np.einsum("nij,ij->n", a, u)[:, None, None]
        a -= u
        return np.einsum("nij,njk->nik", a, a)

    def square(a):
        return np.einsum("nij,njk->nik", a, a)

    bad = []
    for distribution in problem.DISTRIBUTIONS:
        for trials in (1, 2, 3, 5):
            case = f"{distribution} trials={trials}"
            got = mc_noise_term(d, 0.7, n, trials, 8, distribution).values
            if not np.array_equal(got, _serial_noise(d, 0.7, n, trials, 8, distribution)):
                bad.append(f"noise {case}")
            dev = mc_sensing_deviation(u, n, trials, 8, distribution)
            got = (dev.report.values, dev.mean_matrix, dev.mean_stderr)
            if not all(map(np.array_equal, got, _serial_deviation(u, n, trials, 8,
                                                                  distribution))):
                bad.append(f"deviation {case}")
        for trials in (1, 513, 1100, 4 * problem.BLOCK + 1):  # 1, 2, 3 and 5 blocks
            case = f"{distribution} trials={trials}"
            for kind, stat, rep in (
                    ("moment", centered_square, mc_second_moment(u, trials, 9, distribution)),
                    ("asq", square, mc_A_squared(d, trials, 9, distribution))):
                want = _serial_moment(stat, kind, d, trials, 9, distribution)
                if not all(map(np.array_equal, (rep.estimate, rep.stderr), want)):
                    bad.append(f"{kind} {case}")
    return bad


def test_monte_carlo_matches_its_serial_loops():
    assert _oracle_mismatches() == []


def test_monte_carlo_matches_its_serial_loops_with_two_blas_threads():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _fail_items(monkeypatch, bad, error=RuntimeError):
    """Make draw_blocks raise ``error`` for the trials (blocks, for moment and asq) in ``bad``;
    returns the list of the items that reached it."""
    real, reached = concentration.draw_blocks, []

    def draw_blocks(seed, purpose, n, d, distribution, trial=None, *args, **kwargs):
        reached.append(trial)
        if trial in bad:
            raise error(f"item {trial} failed")
        return real(seed, purpose, n, d, distribution, trial, *args, **kwargs)

    monkeypatch.setattr(concentration, "draw_blocks", draw_blocks)
    return reached


RUNS_OF_THREE_ITEMS = {
    "noise": lambda: mc_noise_term(4, 1.0, 50, 3, 1),
    "deviation": lambda: mc_sensing_deviation(np.eye(4), 50, 3, 1),
    "moment": lambda: mc_second_moment(np.eye(4), 2 * problem.BLOCK + 1, 1),
    "asq": lambda: mc_A_squared(4, 2 * problem.BLOCK + 1, 1),
}


@pytest.mark.parametrize("run, bad, most", [
    pytest.param(run, bad, most, id=kind if bad == 1 else f"{kind}-item{bad}")
    for kind, run in RUNS_OF_THREE_ITEMS.items()
    for bad, most in ((0, {0, 1}), (1, {0, 1, 2}), (2, {0, 1, 2}))])
def test_a_failed_item_stops_both_threads_and_is_raised(run, bad, most, monkeypatch):
    """An error at item ``bad`` of 3 reaches the caller, no item outside ``most`` is begun, no
    item is begun twice, and no thread outlives the call.  Item 0 fails on the calling thread
    while the worker runs item 1; item 2 runs alone."""
    threads = threading.active_count()
    reached = _fail_items(monkeypatch, {bad})
    with pytest.raises(RuntimeError, match=f"item {bad} failed"):
        run()
    assert threading.active_count() == threads
    assert bad in reached and set(reached) <= most and len(reached) == len(set(reached))


def test_the_lowest_failed_item_is_raised(monkeypatch):
    reached = _fail_items(monkeypatch, {1, 2, 3})
    for _ in range(20):
        with pytest.raises(RuntimeError, match="item 1 failed"):
            mc_noise_term(4, 1.0, 50, 8, 1)
    assert max(reached) <= 3


def test_one_item_starts_no_thread(monkeypatch):
    """One Monte Carlo item or one sensing block runs on the calling thread; so does a build
    that _paired leaves unpaired, at d=50 over two blocks."""
    def no_thread(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert mc_noise_term(4, 1.0, 50, 1, 1).trials == 1
    assert mc_sensing_deviation(np.eye(4), 50, 1, 1).report.trials == 1
    assert mc_second_moment(np.eye(4), problem.BLOCK, 1).trials == problem.BLOCK
    assert mc_A_squared(4, problem.BLOCK, 1).trials == problem.BLOCK
    for d, n in ((4, problem.BLOCK), (50, problem.BLOCK + 1)):
        gt = problem.generate_ground_truth(d, 1, [1.0], "zeros", seed=1)
        assert problem.generate_sensing(gt, n, 0.1, seed=2).n == n


def test_import_msense_loads_no_thread_pool():
    """_in_order imports concurrent.futures when it pairs items, so importing msense does not,
    nor does a one-block build or a two-block build at d=50, which _paired leaves unpaired."""
    code = """if True:
        import msense, sys
        for d, n in ((4, 512), (50, 513)):
            msense.generate_sensing(msense.generate_ground_truth(d, 1, [1.0], "zeros", 1), n, 0.1)
        assert 'concurrent.futures' not in sys.modules"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_in_order_folds_in_index_order_under_fast_thread_switches():
    """With a switch interval of 1 us and items of uneven length, every item is folded once,
    in index order, and no two threads ever share a buffer."""
    folds, busy = [], {}

    def item(i, buf):
        lock = busy.setdefault(id(buf), threading.Lock())
        assert lock.acquire(blocking=False), "two threads shared a buffer"
        try:
            return i, sum(range(997 * (i % 7)))
        finally:
            lock.release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        problem._in_order(item, lambda i, result: folds.append((i, result[0])), 300, 1)
    finally:
        sys.setswitchinterval(interval)
    assert folds == [(i, i) for i in range(300)] and len(busy) <= 2


if __name__ == "__main__":  # the child of test_monte_carlo_matches_its_serial_loops_with_two_blas_threads
    print(json.dumps(_oracle_mismatches()))
