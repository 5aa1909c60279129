"""Monte Carlo verification of the sensing-ensemble moment and
concentration statements.

Universal constants in the tail bounds are existential, so the targets here
are (i) moment identities, (ii) the n^{-1/2} rate of the norm statistics,
and (iii) bounded ratios against the stated reference scales.  Tail
probabilities are reported as empirical exceedance frequencies only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_symmetric, spectral_norm
from .problem import _draw, _mirror_indices, check_memory
from .rng import stream

_MC_BLOCK = 512


def check_mc_memory(d, rows):
    """Reject, before any draw, a Monte Carlo run whose d x d accumulators
    (at most four) and one block of min(rows, _MC_BLOCK) draws exceed the
    memory budget."""
    if d < 1:
        raise InputError(f"d must be at least 1, got {d}")
    check_memory(8 * d * d * (4 + min(rows, _MC_BLOCK)), f"the d={d} Monte Carlo draws")


def _trial_blocks(seed, tag, trial, n, d, distribution, raw=False):
    """Yield (rng, A_block) over the n draws of one trial, in blocks of at
    most _MC_BLOCK from the trial's own stream.  The caller may draw more
    from ``rng`` before asking for the next block.  ``raw`` is passed to
    _draw."""
    rng = stream(seed, tag, trial)
    for done in range(0, n, _MC_BLOCK):
        yield rng, _draw(rng, min(_MC_BLOCK, n - done), d, distribution, raw=raw)


def _mc_matrix_moment(stat, d, trials, seed, tag, distribution):
    """Mean of the d x d statistic ``stat`` over ``trials`` sensing draws,
    with its per-entry standard error; each block of _MC_BLOCK draws comes
    from its own stream.  ``stat`` maps an (m, d, d) block to (m, d, d)."""
    check_mc_memory(d, trials)
    acc = np.zeros((d, d))
    acc_sq = np.zeros((d, d))
    for block, done in enumerate(range(0, trials, _MC_BLOCK)):
        a = _draw(stream(seed, tag, block), min(_MC_BLOCK, trials - done), d, distribution)
        x = stat(a)
        acc += x.sum(axis=0)
        acc_sq += (x**2).sum(axis=0)
    est = acc / trials
    var = acc_sq / trials - est**2
    return est, np.sqrt(np.clip(var, 0.0, None) / trials)


@dataclass(frozen=True)
class MCReport:
    statistic: str
    trials: int
    samples_per_trial: int
    values: np.ndarray  # one statistic value per trial
    reference_scale: float

    @property
    def median(self):
        return float(np.median(self.values))

    @property
    def mean(self):
        return float(np.mean(self.values))

    @property
    def stderr(self):
        if self.trials < 2:
            return float("nan")
        return float(np.std(self.values, ddof=1) / np.sqrt(self.trials))

    @property
    def ratio_median(self):
        if self.reference_scale == 0:
            return float("nan")
        return self.median / self.reference_scale

    def exceedance(self, threshold):
        """Empirical frequency of statistic > threshold (no pass/fail attached)."""
        return float(np.mean(self.values > threshold))

    def summary(self):
        return {
            "statistic": self.statistic,
            "trials": self.trials,
            "samples_per_trial": self.samples_per_trial,
            "median": self.median,
            "mean": self.mean,
            "stderr": self.stderr,
            "reference_scale": self.reference_scale,
            "ratio_median": self.ratio_median,
        }


def write_mc_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("trial,value\n")
        for i, v in enumerate(report.values):
            fh.write(f"{i},{float(v)!r}\n")


def mc_summary_json(report, path=None):
    text = json.dumps(report.summary(), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def mc_noise_term(d, sigma, n, trials, seed, distribution="gaussian"):
    """Distribution of |(1/n) sum_i eps_i A_i|_2 against sqrt(d sigma^2 / n).

    eps_i ~ Normal(0, sigma^2); each trial draws a fresh (A, eps) batch.
    """
    if d < 1 or n < 1 or trials < 1:
        raise InputError("d, n and trials must be positive")
    # Up to 1e150, d sigma^2 and every noise sum stay within the float range.
    if not (math.isfinite(sigma) and 0 <= sigma <= 1e150):
        raise InputError(f"sigma must be a finite number >= 0 and <= 1e150, got {sigma!r}")
    check_mc_memory(d, n)
    vals = np.empty(trials)
    for trial in range(trials):
        # sum_i eps_i A_i is linear in the upper triangles of the raw draws,
        # so the sum is mirrored once per trial, not every A_i.
        acc = np.zeros(d * d)
        for rng, g in _trial_blocks(seed, "mc_noise", trial, n, d, distribution, raw=True):
            acc += sigma * rng.standard_normal(len(g)) @ g
        vals[trial] = spectral_norm(acc.take(_mirror_indices(d)).reshape(d, d) / n)
    return MCReport(
        statistic="noise_term_spectral_norm",
        trials=trials,
        samples_per_trial=n,
        values=vals,
        reference_scale=float(np.sqrt(d * sigma**2 / n)),
    )


@dataclass(frozen=True)
class DeviationReport:
    report: MCReport
    mean_matrix: np.ndarray  # mean of <A, U> A over all trials * n draws
    mean_stderr: np.ndarray  # per-entry standard error of that mean


def mc_sensing_deviation(u, n, trials, seed, distribution="gaussian"):
    """Distribution of |(1/n) sum_i (<A_i, U> A_i - U)|_2 against
    sqrt(d log d / n) |U|_F, plus the raw per-entry mean of <A, U> A for
    unbiasedness checks."""
    u = as_symmetric(u)
    if not np.any(u):
        raise InputError("U must be nonzero")
    if n < 1 or trials < 1:
        raise InputError("n and trials must be positive")
    d = u.shape[0]
    check_mc_memory(d, n)
    vals = np.empty(trials)
    acc_mean = np.zeros((d, d))
    acc_sq = np.zeros((d, d))
    for trial in range(trials):
        acc = np.zeros((d, d))
        for _, a in _trial_blocks(seed, "mc_deviation", trial, n, d, distribution):
            flat = a.reshape(a.shape[0], -1)
            inner = flat @ u.ravel()
            term = inner[:, None] * flat
            acc += term.sum(axis=0).reshape(d, d)
            acc_sq += (term**2).sum(axis=0).reshape(d, d)
        acc_mean += acc
        vals[trial] = spectral_norm(acc / n - u)
    total = trials * n
    mean_matrix = acc_mean / total
    var = acc_sq / total - mean_matrix**2
    mean_stderr = np.sqrt(np.clip(var, 0.0, None) / total)
    report = MCReport(
        statistic="sensing_deviation_spectral_norm",
        trials=trials,
        samples_per_trial=n,
        values=vals,
        reference_scale=float(np.sqrt(d * np.log(d) / n) * np.linalg.norm(u)),
    )
    return DeviationReport(report=report, mean_matrix=mean_matrix, mean_stderr=mean_stderr)


def second_moment_reference(u):
    """Stated closed form for E[(<A,U>A - U)^2]: diagonal entries
    |U|_F^2 + 2 U_mm^2 - sum_j U_mj^2, off-diagonal entries zero."""
    u = as_symmetric(u)
    diag = np.sum(u**2) + 2 * np.diag(u) ** 2 - np.sum(u**2, axis=1)
    return np.diag(diag)


def second_moment_exact_gaussian(u):
    """Exact E[(<A,U>A - U)^2] for the symmetric unit-variance Gaussian
    ensemble: d Q I + 5 U^2 - 3 (D U + U D) + 2 D^2 with D = Diag(U) and
    Q = 2 |U|_F^2 - tr(D^2)."""
    u = as_symmetric(u)
    d = u.shape[0]
    du = np.diag(np.diag(u))
    q = 2 * np.sum(u**2) - np.trace(du @ du)
    return d * q * np.eye(d) + 5 * u @ u - 3 * (du @ u + u @ du) + 2 * du @ du


@dataclass(frozen=True)
class MomentComparison:
    """Monte Carlo matrix-moment estimate against a closed form."""

    statistic: str
    trials: int
    estimate: np.ndarray
    stderr: np.ndarray
    reference: np.ndarray
    exact: np.ndarray | None = None  # ensemble-exact moments, when available

    @property
    def z_scores(self):
        diff = self.estimate - self.reference
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(self.stderr > 0, diff / self.stderr, np.where(diff == 0, 0.0, np.inf))
        return z

    @property
    def max_abs_z(self):
        return float(np.max(np.abs(self.z_scores)))

    def summary(self):
        out = {
            "statistic": self.statistic,
            "trials": self.trials,
            "max_abs_z": self.max_abs_z,
        }
        if self.exact is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.where(self.stderr > 0, (self.estimate - self.exact) / self.stderr, 0.0)
            out["max_abs_z_vs_exact"] = float(np.max(np.abs(z)))
        return out


def mc_second_moment(u, trials, seed, distribution="gaussian"):
    """Monte Carlo estimate of E[(<A,U>A - U)^2] next to the stated closed
    form and, for the Gaussian ensemble, the exact moments."""
    u = as_symmetric(u)
    if trials < 1:
        raise InputError("trials must be positive")

    def centered_square(a):
        m = np.einsum("nij,ij->n", a, u)[:, None, None] * a - u
        return np.einsum("nij,njk->nik", m, m)

    est, stderr = _mc_matrix_moment(
        centered_square, u.shape[0], trials, seed, "mc_moment", distribution
    )
    exact = second_moment_exact_gaussian(u) if distribution == "gaussian" else None
    return MomentComparison(
        statistic="second_moment_of_centered_sensing_term",
        trials=trials,
        estimate=est,
        stderr=stderr,
        reference=second_moment_reference(u),
        exact=exact,
    )


def mc_A_squared(d, trials, seed, distribution="gaussian"):
    """Monte Carlo estimate of E[A^2] against d I."""
    if d < 1 or trials < 1:
        raise InputError("d and trials must be positive")
    est, stderr = _mc_matrix_moment(
        lambda a: np.einsum("nij,njk->nik", a, a), d, trials, seed, "mc_asq", distribution
    )
    return MomentComparison(
        statistic="sensing_matrix_square",
        trials=trials,
        estimate=est,
        stderr=stderr,
        reference=d * np.eye(d),
        exact=d * np.eye(d) if distribution in ("gaussian", "rademacher") else None,
    )
