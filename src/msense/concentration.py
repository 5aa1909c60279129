"""Monte Carlo verification of the sensing-ensemble moment and
concentration statements.

Universal constants in the tail bounds are existential, so the targets here
are (i) moment identities, (ii) the n^{-1/2} rate of the norm statistics,
and (iii) bounded ratios against the stated reference scales.  No tail
probability is estimated: a report holds the per-trial values and their
summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _shown, choice, count, number
from .linalg import as_symmetric, spectral_norm
from .problem import (BLOCK, DISTRIBUTIONS, _svec_indices, block_bytes, check_memory,
                      draw_blocks)

KINDS = ("noise", "deviation", "moment", "asq")  # the Monte Carlo runs, one per mc_* function


def check_mc_memory(kind, d, n, trials):
    """Reject, before any allocation, a Monte Carlo run of an unknown ``kind`` or with a size
    below 1, or whose memory exceeds the budget: one value per trial (noise, deviation: n draws
    a trial) and, for each of _in_order's threads (item i on the calling thread, item i + 1 on
    one worker; one thread for one item), its draws, four d x d accumulators, two per-matrix
    vectors, one block-sized temporary (moment, asq: one draw a trial, a block of BLOCK draws an
    item, and ``n`` is not read) and the per-block square sums a deviation trial holds until
    they are added in order."""
    moment = choice("kind", kind, KINDS) in ("moment", "asq")
    sizes = dict(d=d, trials=trials) if moment else dict(d=d, n=n, trials=trials)
    for name, size in sizes.items():
        count(name, size, 1)
    rows, temporaries, values = (trials, 1, 0) if moment else (n, 0, trials)
    m = min(rows, BLOCK)
    sums = -(-n // BLOCK) if kind == "deviation" else 0
    threads = min(-(-trials // BLOCK) if moment else trials, 2)
    per_thread = 8 * (d * d * (4 + temporaries * m + sums) + 2 * m) + block_bytes(d, rows)
    check_memory(threads * per_thread + 8 * values, f"the d={_shown(d)} Monte Carlo draws")


def _in_order(fn, fold, items, shape):
    """fold(i, fn(i, buf)) for i = 0 .. items - 1, in index order, so every cross-item sum adds
    what the serial loop adds.  Item i runs on the calling thread while item i + 1 runs on one
    worker thread, each with its own ``buf = np.empty(shape)``, so each thread holds one result.
    A failed item raises once the worker has ended, after every lower item has been folded."""
    from concurrent.futures import ThreadPoolExecutor

    bufs = [np.empty(shape) for _ in range(min(items, 2))]
    with ThreadPoolExecutor(1) as worker:  # one item submits nothing and starts no thread
        for i in range(0, items, 2):
            ahead = worker.submit(fn, i + 1, bufs[1]) if i + 1 < items else None
            fold(i, fn(i, bufs[0]))
            if ahead is not None:
                fold(i + 1, ahead.result())


def _mean_stderr(acc, acc_sq, count):
    """Per-entry mean of ``count`` terms from their sum and sum of squares,
    with its standard error."""
    mean = acc / count
    var = acc_sq / count - mean**2
    return mean, np.sqrt(np.clip(var, 0.0, None) / count)


def _mc_matrix_moment(stat, kind, d, trials, seed, distribution):
    """Mean of the d x d statistic ``stat`` over ``trials`` sensing draws, with its per-entry
    standard error; block j of BLOCK draws comes from the stream (seed, "mc_" + kind, j).
    ``stat`` maps an (m, d, d) block, which it may overwrite, to a new array."""
    check_mc_memory(kind, d, None, trials)
    acc = np.zeros((2, d, d))  # the sums of x and of x**2

    def block(j, buf):  # block j of draw_blocks(seed, "mc_" + kind, trials, ...), drawn alone
        (_, _, a), = draw_blocks(seed, f"mc_{kind}", min(BLOCK, trials - j * BLOCK), d,
                                 distribution, j, out=buf)
        x = stat(a)
        return np.stack((x.sum(axis=0), np.square(x, out=x).sum(axis=0)))

    _in_order(block, lambda j, sums: np.add(acc, sums, out=acc), -(-trials // BLOCK),
              (min(trials, BLOCK), d * d))
    return _mean_stderr(*acc, trials)


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


def mc_noise_term(d, sigma, n, trials, seed, distribution="gaussian"):
    """Distribution of |(1/n) sum_i eps_i A_i|_2 against sqrt(d sigma^2 / n).

    eps_i ~ Normal(0, sigma^2); each trial draws a fresh (A, eps) batch.
    """
    choice("distribution", distribution, DISTRIBUTIONS)
    check_mc_memory("noise", d, n, trials)
    number("sigma", sigma, 0, 1e150)  # up to 1e150, d sigma^2 and the noise sums stay finite
    mirror = _svec_indices(d)[2]
    vals = np.empty(trials)

    def trial_norm(trial, buf):
        # sum_i eps_i A_i is linear in the upper triangles of the raw draws,
        # so the sum is mirrored once per trial, not every A_i.
        acc = np.zeros(d * d)
        for _, rng, g in draw_blocks(seed, "mc_noise", n, d, distribution, trial, True, buf):
            acc += sigma * rng.standard_normal(len(g)) @ g
        return spectral_norm(acc.take(mirror).reshape(d, d) / n)

    _in_order(trial_norm, vals.__setitem__, trials, (min(n, BLOCK), d * d))
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
    choice("distribution", distribution, DISTRIBUTIONS)
    u = as_symmetric(u)
    if not np.any(u):
        raise InputError("U must be nonzero")
    d = u.shape[0]
    check_mc_memory("deviation", d, n, trials)
    vals = np.empty(trials)
    acc_mean, acc_sq = np.zeros((d, d)), np.zeros((d, d))

    def trial_sums(trial, buf):
        """The trial's sum of <A_i, U> A_i, its square sums (one per block) and its norm."""
        acc, squares = np.zeros((d, d)), np.empty((-(-n // BLOCK), d, d))
        for s, _, a in draw_blocks(seed, "mc_deviation", n, d, distribution, trial, out=buf):
            term = a.reshape(len(a), -1)  # <A_i, U> A_i, formed in the block
            term *= (term @ u.ravel())[:, None]
            acc += term.sum(axis=0).reshape(d, d)
            squares[s.start // BLOCK] = np.square(term, out=term).sum(axis=0).reshape(d, d)
        return acc, squares, spectral_norm(acc / n - u)

    def fold(trial, sums):
        acc, squares, vals[trial] = sums
        for square in squares:
            np.add(acc_sq, square, out=acc_sq)
        np.add(acc_mean, acc, out=acc_mean)

    _in_order(trial_sums, fold, trials, (min(n, BLOCK), d * d))
    mean_matrix, mean_stderr = _mean_stderr(acc_mean, acc_sq, trials * n)
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

    def _z(self, target):
        """Per-entry z-scores against ``target``; a zero stderr scores 0 on target, inf off it."""
        diff = self.estimate - target
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.stderr > 0, diff / self.stderr, np.where(diff == 0, 0.0, np.inf))

    @property
    def z_scores(self):
        return self._z(self.reference)

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
            out["max_abs_z_vs_exact"] = float(np.max(np.abs(self._z(self.exact))))
        return out


def mc_second_moment(u, trials, seed, distribution="gaussian"):
    """Monte Carlo estimate of E[(<A,U>A - U)^2] next to the stated closed
    form and, for the Gaussian ensemble, the exact moments."""
    choice("distribution", distribution, DISTRIBUTIONS)
    u = as_symmetric(u)

    def centered_square(a):
        a *= np.einsum("nij,ij->n", a, u)[:, None, None]
        a -= u
        return np.einsum("nij,njk->nik", a, a)

    est, stderr = _mc_matrix_moment(centered_square, "moment", u.shape[0], trials, seed,
                                    distribution)
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
    choice("distribution", distribution, DISTRIBUTIONS)
    est, stderr = _mc_matrix_moment(
        lambda a: np.einsum("nij,njk->nik", a, a), "asq", d, trials, seed, distribution
    )
    return MomentComparison(
        statistic="sensing_matrix_square",
        trials=trials,
        estimate=est,
        stderr=stderr,
        reference=d * np.eye(d),
        exact=d * np.eye(d),  # the stated form, exact for every unit-variance ensemble
    )
