"""Subspace decomposition of iterates, the loss and the population gradient,
per-iteration metrics, initializers, and the population contraction battery.

The loss is L(F) = (1/4n) sum_i (y_i - <A_i, F F^T>)^2, whose gradient for
symmetric A_i is G^n(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i F.  The
idealized (population) gradient is G(F) = (F F^T - X*) F, and the deviation
matrix Delta(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i - (F F^T - X*) ties
them together through G^n - G = Delta F.  Both sample quantities are read
from the sensing set's QuadraticModel (``s.model.gradient(f)``,
``s.model.deviation(f, gt.Xstar)``); loss_value sums over the regenerated
sensing blocks, so it is an independent check of the gradient.

An iterate F splits as F = U S + V T against the ground-truth basis; all
progress quantities are functions of S S^T, T T^T and S T^T.  The master
quantity is D = max(|SS^T - DS*|, |TT^T|, |ST^T|) (spectral norms) and its
noise-floored companion A = max(D - 50 eps_stat, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError, count, number
from .linalg import spectral_norm, spectral_norms
from .rng import stream

FLOOR_MULTIPLIER = 50.0  # A = D - 50 eps_stat; overridable for sensitivity studies
RHO_MAX = 0.07  # the largest basin radius, in units of sigma_r, of a planted start


def theory_step_size(sigma1):
    """eta = 1/(100 sigma_1), the constant step size of the analysis."""
    return 1.0 / (100.0 * number("sigma1", sigma1, 0, strict=True))


def _check_factor(f, d):
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != d:
        raise InputError(f"factor must be {d} x k, got {f.shape}")
    return f


def loss_value(f, s):
    """Empirical loss (1/4n) sum_i (y_i - <A_i, F F^T>)^2, streamed block by block."""
    f = _check_factor(f, s.d)
    ffT = f @ f.T
    total = 0.0
    for sl, a in s.iter_blocks():
        vals = a.reshape(a.shape[0], -1) @ ffT.ravel()
        total += float(np.sum((s.observations[sl] - vals) ** 2))
    return total / (4.0 * s.n)


def population_gradient(f, gt):
    """Idealized gradient (F F^T - X*) F."""
    f = _check_factor(f, gt.d)
    return (f @ f.T - gt.Xstar) @ f


def op_MU(x, y, spectrum, eta):
    """Population update of one block of subspace coefficients given the other:
    x - eta (x x^T x + x y^T y - diag(spectrum) x).  op_MU(S, T, DS*, eta) is
    M_U(S) and op_MV(T, S, DT*, eta), the same map, is M_V(T)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InputError("S and T must share the column count k")
    if spectrum.shape != (x.shape[0],):
        raise InputError(f"spectrum must have length {x.shape[0]}")
    return x - eta * (x @ x.T @ x + x @ y.T @ y - spectrum[:, None] * x)


op_MV = op_MU


@dataclass(frozen=True)
class Decomposition:
    S: np.ndarray  # r x k
    T: np.ndarray  # (d-r) x k


def decompose(f, gt):
    """Split F into subspace coefficients S = U^T F, T = V^T F."""
    f = _check_factor(f, gt.d)
    return Decomposition(S=gt.U.T @ f, T=gt.V.T @ f)


def eps_stat(gt, n, sigma):
    """The statistical floor kappa sqrt(d log d / n) sigma; zero for a population run (n=None)."""
    if n is None:
        return 0.0
    return float(gt.kappa * np.sqrt(gt.d * np.log(gt.d) / n) * sigma)


class IterateMetrics(NamedTuple):  # a trajectory CSV row, elapsed_ms aside
    t: int
    ss_err: float  # |S S^T - DS*|_2
    st_norm: float  # |S T^T|_2
    tt_norm: float  # |T T^T|_2
    tt_err: float  # |T T^T - DT*|_2
    D: float
    A: float
    err_spec: float  # |F F^T - X*|_2
    err_fro: float  # |F F^T - X*|_F
    grad_norm: float  # |G|_F of the gradient at this iterate
    delta_norm: float | None = None  # |Delta|_2, tracked on request


def batch_metrics(t0, fs, gt, floor, grad_norms, delta_norms):
    """IterateMetrics of the consecutive iterates fs[i] = F_{t0+i} of a
    (B, d, k) stack, given the floor eps_stat, their gradient norms and (possibly None) |Delta|_2.

    Every metric is one stacked numpy call over the chunk.  In the basis
    [U V], with S = U^T F and T = V^T F, F F^T - X* is the symmetric block
    M = [[S S^T - DS*, S T^T], [T S^T, T T^T - DT*]].  When DT* = 0, T is
    replaced by R of T = Q R (m x k, m = min(d - r, k)), which keeps every
    spectrum and shrinks M to (r + m) x (r + m); otherwise M is d x d.  X*
    enters M rotated by the stored basis, so that its rounding cancels near
    the solution as in F F^T - X*.  err_fro is |M|_F (the basis change is
    orthogonal), st_norm is sqrt(lambda_max) of the r x r Gram of S R^T and
    ss_err keeps its S S^T - DS* formula.  A row with a non-finite entry never
    reaches LAPACK; its norms are NaN."""
    fs = np.asarray(fs, dtype=float)
    if fs.ndim != 3 or fs.shape[1] != gt.d:
        raise InputError(f"factors must be B x {gt.d} x k, got {fs.shape}")
    r, s, tc = gt.r, gt.U.T @ fs, gt.V.T @ fs
    if gt.dt.any():
        basis = np.hstack([gt.U, gt.V])
    else:
        basis, ok = gt.U, np.isfinite(tc).all(axis=(1, 2))
        fac = np.full((len(tc), min(tc.shape[1:]), tc.shape[2]), np.nan)
        fac[ok] = np.linalg.qr(tc[ok], mode="r")
        tc = fac
    g = np.concatenate([s, tc], axis=1)
    blk = g @ g.transpose(0, 2, 1)
    ss_err = spectral_norms(s @ s.transpose(0, 2, 1) - np.diag(gt.ds))
    st = blk[:, :r, r:]
    st_norm = np.sqrt(spectral_norms(st @ st.transpose(0, 2, 1)))
    tt_norm = spectral_norms(blk[:, r:, r:])
    x = basis.T @ gt.Xstar @ basis
    blk[:, : len(x), : len(x)] -= x
    # With DT* = 0 the two blocks are the same matrix.
    tt_err = spectral_norms(blk[:, r:, r:]) if gt.dt.any() else tt_norm
    err_spec = spectral_norms(blk)
    err_fro = np.sqrt(np.einsum("bij,bij->b", blk, blk))
    d_val = np.maximum(np.maximum(ss_err, tt_norm), st_norm)
    a_val = np.maximum(d_val - FLOOR_MULTIPLIER * floor, 0.0)
    cols = (ss_err, st_norm, tt_norm, tt_err, d_val, a_val, err_spec, err_fro,
            np.asarray(grad_norms, dtype=float))
    t = range(int(t0), int(t0) + len(fs))
    rows = zip(t, *(c.tolist() for c in cols), delta_norms, strict=True)
    return list(map(IterateMetrics._make, rows))


def _top_factor(vals, vecs, k):
    """The eigenvectors of the k largest eigenvalues (stable order), each scaled by the square
    root of its eigenvalue clipped at zero: the best rank-<=k PSD factor."""
    order = np.argsort(-vals, kind="stable")[:k]
    return vecs[:, order] * np.sqrt(np.clip(vals[order], 0.0, None))


def exact_factor(gt, k):
    """Best rank-<=k PSD factor of X* built from its known eigen-split."""
    f = _top_factor(np.concatenate([gt.ds, gt.dt]), np.concatenate([gt.U, gt.V], axis=1), k)
    return np.pad(f, ((0, 0), (0, k - f.shape[1])))  # zero columns past d when k > d


def planted_init(gt, k, rho, seed):
    """Constructed F0 guaranteed to satisfy the basin assumption.

    Starts from the exact padded factor, adds a seeded Gaussian perturbation,
    and rescales it so |F0 F0^T - X*|_2 = 0.7 rho sigma_r u with
    u ~ Uniform(0.5, 1], for k >= r and 0 < rho <= RHO_MAX.
    """
    count("k", k, gt.r)
    number("rho", rho, 0, RHO_MAX, strict=True)
    rng = stream(seed, "init")
    base = exact_factor(gt, k)
    pert = rng.standard_normal((gt.d, k))
    u = 1.0 - 0.5 * rng.uniform()  # Uniform(0.5, 1]
    target = 0.7 * rho * gt.sigma_r * u

    def dist(c):
        f = base + c * pert
        return spectral_norm(f @ f.T - gt.Xstar)

    if dist(0.0) >= target:
        raise InputError(
            "exact factor already farther than the perturbation target; "
            "rank/spectrum leaves no room for the planted construction"
        )
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if dist(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise NumericError("could not bracket the perturbation scale")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # converged: further halvings leave lo unchanged
            break
        if dist(mid) < target:
            lo = mid
        else:
            hi = mid
    # lo keeps dist strictly below the target, so the basin premise holds.
    return base + lo * pert


def spectral_init(s, k):
    """Initialization from the spectrum of the data surrogate.

    M = (1/n) sum_i y_i A_i is the bbar of the sensing set's QuadraticModel,
    symmetric by construction; F0 keeps the top-k eigenpairs by
    algebraic value with negative eigenvalues clipped to zero.  An overflowed M gives a
    non-finite F0, which the run's divergence guard ends at t = 0.
    """
    count("k", k, 1, s.d)
    if not np.isfinite(s.model.bbar).all():  # eigh does not converge on it
        return np.full((s.d, k), np.nan)
    return _top_factor(*np.linalg.eigh(s.model.bbar), k)


def random_init(d, k, scale, seed):
    """F0 with i.i.d. Normal(0, scale^2) entries (initialization near the origin)."""
    number("scale", scale, 0, strict=True)
    rng = stream(seed, "init")
    return scale * rng.standard_normal((d, k))


@dataclass(frozen=True)
class InitReport:
    lhs: float  # |F0 F0^T - X*|_2
    ss0: float  # |S0 S0^T - DS*|_2
    tt0: float  # |T0 T0^T - DT*|_2
    st0: float  # |S0 T0^T|_2
    assumption_ok: bool  # lhs <= rho sigma_r
    lemma_ok: bool  # lhs <= 0.7 rho sigma_r implies max of the three <= rho sigma_r


def check_initialization(f0, gt, rho):
    """Pure measurement of an initialization against the basin conditions."""
    number("rho", rho, 0, strict=True)
    m = batch_metrics(0, [f0], gt, 0.0, [0.0], [None])[0]
    lhs, ss0, tt0, st0 = m.err_spec, m.ss_err, m.tt_err, m.st_norm
    bound = rho * gt.sigma_r
    premise = lhs <= 0.7 * bound
    conclusion = max(ss0, tt0, st0) <= bound
    return InitReport(
        lhs=lhs,
        ss0=ss0,
        tt0=tt0,
        st0=st0,
        assumption_ok=lhs <= bound,
        lemma_ok=(not premise) or conclusion,
    )


REGION_BOUND = 0.1  # region radius in units of sigma_r for inequality verification
REGION_TRIES = 10000  # rejection-sampling draws before region_sample gives up


def _region_norms(s, t, gt):
    """The three region norms |S S^T - DS*|_2, |T T^T - DT*|_2 and |S T^T|_2."""
    return (spectral_norm(s @ s.T - np.diag(gt.ds)), spectral_norm(t @ t.T - np.diag(gt.dt)),
            spectral_norm(s @ t.T))


def region_sample(gt, k, seed):
    """Draw (S, T) near the exact factor with all three region norms below
    REGION_BOUND * sigma_r (rejection sampling)."""
    count("k", k, gt.r)
    rng = stream(seed, "region")
    base = decompose(exact_factor(gt, k), gt)
    limit = REGION_BOUND * gt.sigma_r
    for _ in range(REGION_TRIES):
        amp = rng.uniform(0.0, 2.0 * REGION_BOUND) * gt.sigma_r
        s = base.S + amp * rng.standard_normal(base.S.shape) / np.sqrt(k)
        t = base.T + amp * rng.standard_normal(base.T.shape) / np.sqrt(gt.d)
        norms = _region_norms(s, t, gt)
        if max(norms) <= limit and min(norms) > 0.0:
            return s, t
    raise NumericError(f"region sampling failed after {REGION_TRIES} tries")


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class ContractionReport:
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


def verify_population_contraction(s, t, gt, eta):
    """Evaluate both sides of the eight one-step population inequalities.

    The first four bound the updated Gram blocks (contraction); the last
    four bound the mixed old/new products (non-expansion).  pass means
    lhs <= rhs + 1e-9 sigma_r.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if s.ndim != 2 or s.shape[0] != gt.r:
        raise InputError(f"S must be {gt.r} x k, got {s.shape}")
    if t.shape != (gt.d - gt.r, s.shape[1]):
        raise InputError(f"T must be {gt.d - gt.r} x {s.shape[1]}, got {t.shape}")
    ds_mat = np.diag(gt.ds)
    dt_mat = np.diag(gt.dt)
    ss, tt_err, st = _region_norms(s, t, gt)
    limit = REGION_BOUND * gt.sigma_r
    if max(ss, tt_err, st) > limit * (1 + 1e-12):
        raise InputError(
            "verification hypotheses unmet: region norms "
            f"({ss:.4g}, {tt_err:.4g}, {st:.4g}) exceed {limit:.4g}"
        )
    number("eta", eta, 0, theory_step_size(gt.sigma1) * (1 + 1e-12))  # at most 1/(100 sigma_1)

    sr = gt.sigma_r
    tt = spectral_norm(t @ t.T)
    dt_norm = spectral_norm(dt_mat)
    ms = op_MU(s, t, gt.ds, eta)
    mt = op_MV(t, s, gt.dt, eta)
    eye_tt = np.eye(t.shape[0])

    raw = [
        ("ss_contraction",
         spectral_norm(ds_mat - ms @ ms.T),
         (1 - eta * sr) * ss + 3 * eta * st**2),
        ("st_contraction",
         spectral_norm(ms @ mt.T),
         (1 - eta * sr) * st),
        ("tt_contraction",
         spectral_norm(mt @ mt.T),
         tt * (1 - eta * tt + 2 * eta * dt_norm)),
        ("tt_err_contraction",
         spectral_norm(mt @ mt.T - dt_mat),
         tt_err * spectral_norm(eye_tt - 2 * eta * (t @ t.T)) + 3 * eta * st**2),
        ("ss_half_contraction",
         spectral_norm(ds_mat - ms @ s.T),
         (1 - eta * sr) * ss + eta * st**2),
        ("st_mixed_nonexpansion",
         spectral_norm(ms @ t.T),
         st),
        ("ts_mixed_nonexpansion",
         spectral_norm(mt @ s.T),
         st),
        ("tt_half_nonexpansion",
         spectral_norm(mt @ t.T),
         tt + eta * st**2),
    ]
    tol = 1e-9 * sr
    checks = tuple(
        InequalityCheck(name, float(lhs), float(rhs), lhs <= rhs + tol)
        for name, lhs, rhs in raw
    )
    return ContractionReport(checks=checks)
