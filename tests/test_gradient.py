import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msense import (
    InputError,
    generate_ground_truth,
    generate_sensing,
    loss_value,
    op_MU,
    op_MV,
    population_gradient,
    region_sample,
    spectral_norm,
    theory_step_size,
)
from msense.subspace import exact_factor


def test_sample_gradient_zero_at_optimum(gt20, sensing20):
    f = exact_factor(gt20, 3)
    g = sensing20.model.gradient(f)
    assert spectral_norm(g) < 1e-12


def test_scalar_reduction_matches_hand_formula():
    gt = generate_ground_truth(1, 1, [2.0], [], seed=3)
    s = generate_sensing(gt, n=7, sigma=0.5, seed=3)
    f = np.array([[0.9]])
    a = np.concatenate([block for _, block in s.iter_blocks()])[:, 0, 0]
    y = s.observations
    hand = np.mean((a * 0.9**2 - y) * a) * 0.9
    assert s.model.gradient(f)[0, 0] == pytest.approx(hand, rel=1e-12)


def test_sample_gradient_concentrates_to_ensemble_mean(gt20):
    """Spectral deviation from the ensemble-mean gradient halves per 4x n.

    For this ensemble E[G^n] = (2M - Diag(M)) F with M = F F^T - X*, so the
    CLT deviation is measured against that limit.
    """
    rng = np.random.default_rng(99)
    f = exact_factor(gt20, 4) + 0.05 * rng.standard_normal((20, 4))
    m = f @ f.T - gt20.Xstar
    limit = (2.0 * m - np.diag(np.diag(m))) @ f
    devs = []
    for n in (100, 400, 1600):
        per_seed = []
        for s_idx in range(5):
            s = generate_sensing(gt20, n=n, sigma=0.0, seed=500 + s_idx)
            per_seed.append(spectral_norm(s.model.gradient(f) - limit))
        devs.append(np.median(per_seed))
    for a, b in zip(devs, devs[1:]):
        assert b / a == pytest.approx(0.5, rel=0.5)


def test_population_gradient_examples(gt20):
    f = exact_factor(gt20, 3)
    assert spectral_norm(population_gradient(f, gt20)) < 1e-12
    assert spectral_norm(population_gradient(np.zeros((20, 4)), gt20)) == 0.0
    with pytest.raises(InputError, match="factor must be 20 x k"):
        population_gradient(np.zeros((19, 4)), gt20)

    gt2 = generate_ground_truth(2, 1, [1.0], [0.0], seed=1)
    # work in the eigenbasis: X* = diag(1, 0), F = (1.1, 0)^T
    f2 = gt2.U * 1.1
    g = population_gradient(f2, gt2)
    # (F F^T - X*) F = 0.21 * 1.1 * u = 0.231 u
    assert_allclose(g, 0.231 * gt2.U, atol=1e-12)


def test_deviation_identity_and_symmetry(gt20):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((20, 4))
    s = generate_sensing(gt20, n=150, sigma=0.4, seed=21)
    delta = s.model.deviation(f, gt20.Xstar)
    gap = s.model.gradient(f) - population_gradient(f, gt20) - delta @ f
    assert np.max(np.abs(gap)) < 1e-10
    assert_array_equal(delta, delta.T)


@pytest.mark.parametrize("case", range(20))
def test_deviation_is_exactly_symmetric(case):
    """Delta is symmetric bit for bit, with no symmetrization: H(F F^T) and
    bbar are mirrored from their upper triangles, F F^T comes from one
    symmetric product and X* is symmetrized when it is built."""
    d, k = 1 + case % 7, 1 + case % 4
    gt = generate_ground_truth(d, 1, [1.0], "zeros", seed=case)
    s = generate_sensing(gt, n=30 + 7 * case, sigma=0.3 * (case % 2),
                         distribution=("gaussian", "rademacher")[case % 3 == 0], seed=case)
    f = np.random.default_rng(case).standard_normal((d, k))
    delta = s.model.deviation(f, gt.Xstar)
    assert_array_equal(delta, delta.T)


def test_deviation_zero_at_noiseless_optimum(gt20, sensing20):
    f = exact_factor(gt20, 3)
    delta = sensing20.model.deviation(f, gt20.Xstar)
    assert spectral_norm(delta) < 1e-12


def test_deviation_clt_rate(gt20):
    """|Delta - (M - Diag(M))|_2 shrinks like n^{-1/2}.

    The ensemble mean of Delta at a fixed factor is M - Diag(M) (zero only
    on the diagonal), so the CLT rate shows up after centering.
    """
    rng = np.random.default_rng(17)
    f = exact_factor(gt20, 4) + 0.05 * rng.standard_normal((20, 4))
    m = f @ f.T - gt20.Xstar
    center = m - np.diag(np.diag(m))
    devs = []
    sizes = [100, 1000, 10000]
    for n in sizes:
        per_seed = []
        for s_idx in range(3):
            s = generate_sensing(gt20, n=n, sigma=0.1, seed=900 + s_idx)
            per_seed.append(spectral_norm(s.model.deviation(f, gt20.Xstar) - center))
        devs.append(np.median(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_finite_difference_gradient():
    gt = generate_ground_truth(5, 2, [1.0, 0.7], "zeros", seed=11)
    s = generate_sensing(gt, n=50, sigma=0.3, seed=11)
    rng = np.random.default_rng(11)
    f = rng.standard_normal((5, 2))
    g = s.model.gradient(f)
    h = 1e-6
    for i in range(5):
        for j in range(2):
            e = np.zeros((5, 2))
            e[i, j] = h
            fd = (loss_value(f + e, s) - loss_value(f - e, s)) / (2 * h)
            assert fd == pytest.approx(g[i, j], rel=1e-5, abs=1e-9)


def test_population_step_equals_operator_recomposition(gt20):
    """One population-gradient step acts on the subspace coefficients only."""
    eta = 1.0 / (100.0 * gt20.sigma1)
    for trial in range(100):
        s_coef, t_coef = region_sample(gt20, 4, seed=6000 + trial)
        f = gt20.U @ s_coef + gt20.V @ t_coef
        stepped = f - eta * population_gradient(f, gt20)
        recomposed = gt20.U @ op_MU(s_coef, t_coef, gt20.ds, eta) + gt20.V @ op_MV(
            t_coef, s_coef, gt20.dt, eta
        )
        assert np.max(np.abs(stepped - recomposed)) < 1e-10


def test_op_MU_edge_cases(gt20):
    rng = np.random.default_rng(8)
    s_coef = rng.standard_normal((3, 4))
    t_coef = rng.standard_normal((17, 4))
    assert_allclose(op_MU(s_coef, t_coef, gt20.ds, 0.0), s_coef)
    # fixed point: T = 0 and S S^T = DS*
    s_exact = np.zeros((3, 4))
    s_exact[:, :3] = np.diag(np.sqrt(gt20.ds))
    out = op_MU(s_exact, np.zeros((17, 4)), gt20.ds, 0.013)
    assert_allclose(out, s_exact, atol=1e-14)
    with pytest.raises(InputError, match="column count k"):
        op_MU(s_coef, t_coef[:, :3], gt20.ds, 0.1)


def test_op_MU_contraction_spot_check(gt20):
    """Both sides of the one-step signal-block contraction on a region draw."""
    eta = 1.0 / (100.0 * gt20.sigma1)
    s_coef, t_coef = region_sample(gt20, 4, seed=12345)
    ds_mat = np.diag(gt20.ds)
    ms = op_MU(s_coef, t_coef, gt20.ds, eta)
    lhs = spectral_norm(ds_mat - ms @ ms.T)
    ss = spectral_norm(ds_mat - s_coef @ s_coef.T)
    st = spectral_norm(s_coef @ t_coef.T)
    assert lhs <= (1 - eta * gt20.sigma_r) * ss + 3 * eta * st**2 + 1e-9 * gt20.sigma_r


def test_op_MV_edge_cases(gt20):
    rng = np.random.default_rng(9)
    t_coef = rng.standard_normal((17, 4))
    s_coef = rng.standard_normal((3, 4))
    assert_allclose(op_MV(t_coef, s_coef, gt20.dt, 0.0), t_coef)
    # S = 0, DT* = 0 and T T^T = z I gives isotropic shrinkage by (1 - eta z)
    q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    z = 0.3
    t_iso = np.sqrt(z) * q
    out = op_MV(t_iso, np.zeros((2, 4)), np.zeros(6), 0.05)
    assert_allclose(out, (1 - 0.05 * z) * t_iso, atol=1e-12)


def test_op_MV_is_op_MU_with_the_roles_swapped(gt20):
    assert op_MV is op_MU
    with pytest.raises(InputError, match="spectrum must have length 17"):
        op_MV(np.zeros((17, 4)), np.zeros((3, 4)), gt20.ds, 0.1)


def test_op_MV_contraction_spot_check(gt20):
    eta = 1.0 / (100.0 * gt20.sigma1)
    s_coef, t_coef = region_sample(gt20, 4, seed=54321)
    mt = op_MV(t_coef, s_coef, gt20.dt, eta)
    tt = spectral_norm(t_coef @ t_coef.T)
    lhs = spectral_norm(mt @ mt.T)
    assert lhs <= tt * (1 - eta * tt + 2 * eta * 0.0) + 1e-9 * gt20.sigma_r


def test_theory_step_size():
    for s1, expected in ((1.0, 0.01), (2.0, 0.005), (0.8, 0.0125)):
        gt = generate_ground_truth(4, 1, [s1], "zeros", seed=1)
        assert theory_step_size(gt.sigma1) == pytest.approx(expected, rel=1e-12)
