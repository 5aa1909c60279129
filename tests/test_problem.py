import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msense import (
    ExperimentConfig,
    InputError,
    deviation_matrix,
    frobenius_norm,
    generate_ground_truth,
    generate_sensing,
    inner_product,
    sample_gradient,
    spectral_norm,
)
from msense import problem


def test_reference_ground_truth(gt20):
    assert gt20.sigma1 == 1.0
    assert gt20.sigma_r == 0.8
    assert gt20.sigma_r_plus_1 == 0.0
    assert gt20.kappa == pytest.approx(1.25)
    assert np.linalg.matrix_rank(gt20.Xstar, tol=1e-10) == 3


def test_ground_truth_orthogonality(gt20):
    r, d = gt20.r, gt20.d
    assert frobenius_norm(gt20.U.T @ gt20.U - np.eye(r)) < 1e-10
    assert frobenius_norm(gt20.V.T @ gt20.V - np.eye(d - r)) < 1e-10
    assert frobenius_norm(gt20.U.T @ gt20.V) < 1e-10
    recon = (gt20.U * gt20.ds) @ gt20.U.T + (gt20.V * gt20.dt) @ gt20.V.T
    assert frobenius_norm(recon - gt20.Xstar) < 1e-10


def test_full_rank_ground_truth_has_empty_v():
    gt = generate_ground_truth(3, 3, [2.0, 1.5, 1.0], [], seed=1)
    assert gt.V.shape == (3, 0)
    recon = (gt.U * gt.ds) @ gt.U.T
    assert frobenius_norm(recon - gt.Xstar) < 1e-10
    assert gt.sigma_r_plus_1 == 0.0


def test_ground_truth_determinism():
    a = generate_ground_truth(8, 2, [1.0, 0.5], "zeros", seed=99)
    b = generate_ground_truth(8, 2, [1.0, 0.5], "zeros", seed=99)
    assert_array_equal(a.Xstar, b.Xstar)
    assert_array_equal(a.U, b.U)


def test_spectrum_validation():
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [1.0, 0.5], [0.6, 0.1], seed=0)  # gap violated
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [0.5, 1.0], "zeros", seed=0)  # not descending
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [1.0, -0.1], "zeros", seed=0)  # not positive
    with pytest.raises(InputError):
        generate_ground_truth(4, 0, [], "zeros", seed=0)
    # nonzero dt below the gap is accepted
    gt = generate_ground_truth(4, 2, [1.0, 0.5], [0.1, -0.05], seed=0)
    assert gt.sigma_r_plus_1 == pytest.approx(0.1)


def test_noiseless_observations_exact(gt20):
    s = generate_sensing(gt20, n=32, sigma=0.0, seed=5)
    for i in range(32):
        assert s.observations[i] == pytest.approx(
            inner_product(s.matrices[i], gt20.Xstar), abs=1e-12
        )
    assert_array_equal(s.epsilon, np.zeros(32))


def test_sensing_entry_variance(gt20):
    s = generate_sensing(gt20, n=1000, sigma=0.0, seed=31)
    iu = np.triu_indices(20, 1)
    pooled = s.matrices[:, iu[0], iu[1]].ravel()
    assert np.var(pooled) == pytest.approx(1.0, abs=0.05)
    diag = s.matrices[:, np.arange(20), np.arange(20)].ravel()
    assert np.var(diag) == pytest.approx(1.0, abs=0.05)


def test_rademacher_support(gt20):
    s = generate_sensing(gt20, n=20, sigma=0.0, distribution="rademacher", seed=3)
    assert set(np.unique(s.matrices)) == {-1.0, 1.0}


def test_sensing_symmetric_and_deterministic(gt20):
    a = generate_sensing(gt20, n=40, sigma=0.2, seed=8)
    b = generate_sensing(gt20, n=40, sigma=0.2, seed=8)
    assert_array_equal(a.matrices, b.matrices)
    assert_array_equal(a.observations, b.observations)
    assert np.max(np.abs(a.matrices - np.transpose(a.matrices, (0, 2, 1)))) == 0.0


def test_regenerate_mode_matches_dense(gt20):
    dense = generate_sensing(gt20, n=700, sigma=0.1, seed=17, memory_mode="dense")
    lazy = generate_sensing(gt20, n=700, sigma=0.1, seed=17, memory_mode="regenerate")
    assert lazy.matrices is None
    assert_array_equal(dense.observations, lazy.observations)
    blocks = [a.copy() for _, a in lazy.iter_blocks()]
    assert_array_equal(np.concatenate(blocks), dense.matrices)


def test_noise_reproducible_from_seed(gt20):
    s = generate_sensing(gt20, n=50, sigma=0.7, seed=12)
    clean = np.array(
        [inner_product(s.matrices[i], gt20.Xstar) for i in range(50)]
    )
    assert_allclose(s.observations - clean, s.epsilon, atol=1e-12)
    assert np.std(s.epsilon) == pytest.approx(0.7, rel=0.5)


@pytest.mark.parametrize("memory_mode", ["dense", "regenerate"])
@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_quadratic_model_matches_streaming_gradient(memory_mode, distribution, rng):
    """The operator every run steps with agrees with the definitional
    per-matrix sums (1/n) sum_i (<A_i, F F^T> - y_i) A_i and (1/n) sum_i y_i A_i."""
    gt = generate_ground_truth(6, 2, [1.0, 0.6], "zeros", seed=21)
    s = generate_sensing(
        gt, n=700, sigma=0.3, distribution=distribution, seed=22, memory_mode=memory_mode
    )
    model = s.quadratic_model()
    bbar = sum(y * a for sl, block in s.iter_blocks()
               for y, a in zip(s.observations[sl], block)) / s.n
    assert frobenius_norm(model.bbar - bbar) <= 1e-10 * frobenius_norm(bbar)
    for _ in range(3):
        f = rng.standard_normal((6, 3))
        ffT = f @ f.T
        w = sum((np.vdot(a, ffT) - y) * a for sl, block in s.iter_blocks()
                for y, a in zip(s.observations[sl], block)) / s.n
        g = w @ f
        assert frobenius_norm(model.gradient(f) - g) <= 1e-10 * frobenius_norm(g)
        assert_array_equal(sample_gradient(f, s), model.gradient(f))
        dev = w - (ffT - gt.Xstar)
        assert frobenius_norm(model.deviation(f, gt.Xstar) - dev) <= 1e-10 * frobenius_norm(dev)
        assert frobenius_norm(deviation_matrix(f, gt, s) - dev) <= 1e-10 * frobenius_norm(dev)


def _full_operator(s):
    """Oracle: the d^2 x d^2 operator (1/n) sum_i vec(A_i) vec(A_i)^T and
    bbar = (1/n) sum_i y_i A_i, accumulated over every entry of each A_i."""
    d = s.d
    h, bbar = np.zeros((d * d, d * d)), np.zeros(d * d)
    for sl, a in s.iter_blocks():
        flat = a.reshape(a.shape[0], d * d)
        h += flat.T @ flat
        bbar += s.observations[sl] @ flat
    return h / s.n, (bbar / s.n).reshape(d, d)


@pytest.mark.parametrize("d", [1, 2, 6, 20])
@pytest.mark.parametrize("memory_mode", ["dense", "regenerate"])
@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_symmetric_operator_matches_full_operator(d, memory_mode, distribution, rng):
    r = min(d, 2)
    gt = generate_ground_truth(d, r, [1.0, 0.6][:r], "zeros", seed=31)
    s = generate_sensing(gt, n=700, sigma=0.3, distribution=distribution, seed=32,
                         memory_mode=memory_mode)
    model = s.quadratic_model()
    p = d * (d + 1) // 2
    assert model.h.shape == (p, p)
    h, bbar = _full_operator(s)

    def close(got, want):
        assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    close(model.bbar, bbar)
    for k in {1, d}:
        f = rng.standard_normal((d, k))
        ffT = f @ f.T
        m = rng.standard_normal((d, d))
        m = m + m.T
        close(model.apply(m), (h @ m.ravel()).reshape(d, d))
        residual = (h @ ffT.ravel()).reshape(d, d) - bbar
        close(model.gradient(f), residual @ f)
        close(model.deviation(f, gt.Xstar), residual - (ffT - gt.Xstar))


def test_operator_memory_checked_before_build(gt20, monkeypatch):
    s = generate_sensing(gt20, n=10, sigma=0.0, seed=3)
    p = 20 * 21 // 2  # the p x p operator and its p x p build buffer
    monkeypatch.setattr(problem, "_memory_budget", lambda: 2 * 8 * p**2 - 1)
    with pytest.raises(InputError, match="sensing operator needs"):
        s.quadratic_model()
    assert s._model is None
    monkeypatch.setattr(problem, "_memory_budget", lambda: 2 * 8 * p**2)
    assert s.quadratic_model().h.nbytes == 8 * p**2


def test_config_memory_check_counts_operator_and_dense_matrices(monkeypatch):
    base = dict(d=20, r=3, k=4, n=100, iters=5, seed=1)
    operator = 2 * 8 * (20 * 21 // 2) ** 2  # the operator and its build buffer
    monkeypatch.setattr(problem, "_memory_budget", lambda: operator + 8 * 100 * 20**2)
    ExperimentConfig(**base)
    with pytest.raises(InputError, match="more than half of physical memory"):
        ExperimentConfig(**dict(base, n=101))
    monkeypatch.setattr(problem, "_memory_budget", lambda: operator)
    ExperimentConfig(**base, memory_mode="regenerate")
    with pytest.raises(InputError):
        ExperimentConfig(**base)
    monkeypatch.setattr(problem, "_memory_budget", lambda: operator - 1)
    with pytest.raises(InputError):
        ExperimentConfig(**base, memory_mode="regenerate")
    monkeypatch.setattr(problem, "_memory_budget", lambda: 0)
    ExperimentConfig(**base, gradient_mode="population")


def test_d100_regenerate_run_fits_a_2gb_budget(monkeypatch):
    config = dict(d=100, r=3, k=4, n=2000, iters=5, seed=1, memory_mode="regenerate")
    monkeypatch.setattr(problem, "_memory_budget", lambda: 2 * 10**9)
    ExperimentConfig(**config)
    monkeypatch.setattr(problem, "_memory_budget", lambda: 2 * 8 * 5050**2)  # p = 5050
    ExperimentConfig(**config)


def test_ground_truth_and_observations_checked_before_allocation(gt20):
    with pytest.raises(InputError, match="ground truth needs"):
        generate_ground_truth(10**12, 1, [1.0], "zeros", seed=1)
    with pytest.raises(InputError, match="observations needs"):
        generate_sensing(gt20, n=10**15, sigma=0.0, seed=1, memory_mode="regenerate")


def test_inner_product_examples():
    assert inner_product(np.eye(6), np.eye(6)) == pytest.approx(6.0)
    assert inner_product(np.ones((3, 3)), np.zeros((3, 3))) == 0.0
    assert inner_product(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == pytest.approx(11.0)
    with pytest.raises(InputError):
        inner_product(np.eye(2), np.eye(3))


def _draw_sym(rng_, count, d):
    g = rng_.standard_normal((count, d, d))
    upper = np.triu(g, 1)
    a = upper + np.transpose(upper, (0, 2, 1))
    idx = np.arange(d)
    a[:, idx, idx] = g[:, idx, idx]
    return a


def test_sensing_mean_and_clt_rate():
    """First moment of <A,B>A for the symmetric unit-variance ensemble.

    The ensemble mean is 2B - Diag(B): each off-diagonal variable appears
    twice in the inner product, so only the diagonal is unbiased for B.
    The Monte Carlo mean converges to that limit at the CLT rate m^{-1/2}.
    """
    d = 5
    rng = np.random.default_rng(5150)
    b = rng.standard_normal((d, d))
    b = 0.5 * (b + b.T)
    limit = 2.0 * b - np.diag(np.diag(b))

    def mc_mean(target, count, seed):
        rng_ = np.random.default_rng(seed)
        a = _draw_sym(rng_, count, d)
        inner = np.einsum("nij,ij->n", a, target)
        return np.einsum("n,nij->ij", inner, a) / count

    sizes = [100, 1000, 10000]
    devs = []
    for m in sizes:
        per_seed = [
            spectral_norm(mc_mean(b, m, 1000 + 17 * s) - limit) / spectral_norm(limit)
            for s in range(5)
        ]
        devs.append(np.median(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
    # diagonal matrices are the case where the mean equals the input
    diag_b = np.diag([1.0, -2.0, 0.5, 3.0, -1.0])
    est = mc_mean(diag_b, 200000, 77)
    assert spectral_norm(est - diag_b) < 0.1


def test_parameter_validation(gt20):
    with pytest.raises(InputError):
        generate_sensing(gt20, n=0, sigma=0.0, seed=1)
    with pytest.raises(InputError):
        generate_sensing(gt20, n=5, sigma=-1.0, seed=1)
    with pytest.raises(InputError):
        generate_sensing(gt20, n=5, sigma=0.0, distribution="cauchy", seed=1)
    with pytest.raises(InputError):
        generate_sensing(gt20, n=5, sigma=0.0, seed=1, memory_mode="mmap")
