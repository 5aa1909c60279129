"""Experiment orchestration: configured runs, parameter sweeps, and the
trajectory-wide statements: convergence phases and finite-sample contraction.

A run builds the ground truth and sensing set from its seed, iterates the
factored gradient step, and records per-iteration subspace metrics.  Runs
are deterministic per config; sweeps derive one seed per grid cell and
run the cells in grid order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .csvio import check_output_path, metrics_column, write_sweep_csv, write_trajectory_csv
from .errors import DivergenceError, InputError, choice, count, number
from .gradient import population_gradient, theory_step_size
from .linalg import spectral_norms
from .problem import (DISTRIBUTIONS, MEMORY_MODES, _validate_spectrum, check_build_memory,
                      generate_ground_truth, generate_sensing)
from .rng import SEED_MAX, stable_hash64
from .subspace import (RHO_MAX, batch_metrics, derived_scales, planted_init, random_init,
                       spectral_init)

INIT_MODES = ("planted", "spectral", "random")
GRADIENT_MODES = ("sample", "population")
SWEEP_PARAMS = ("n", "k", "sigma", "d")

DIVERGENCE_FACTOR = 1e6  # abort when err_spec > 1e6 * sigma_1
PLATEAU_FRACTION = 0.10  # final fraction of iterations defining the plateau
BURN_IN_FRACTION = 0.05  # iterations skipped before the envelope check


# Integer config fields and their smallest values; k is at most d, a seed at most SEED_MAX.
INT_FIELDS = dict(d=1, r=1, k=1, n=1, iters=1, seed=0, delta_every=1)


def worker_count():
    """The package's thread cap: the CPU count, lowered by the MSENSE_THREADS env var.
    No command reads it, but perfbench/run.py records it in every run's provenance."""
    cap = os.environ.get("MSENSE_THREADS")
    default = os.cpu_count() or 1
    if cap is None:
        return default
    try:
        cap = int(cap)
    except ValueError:
        raise InputError(f"MSENSE_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(default, cap))


@dataclass(frozen=True)
class InitSpec:
    mode: str = "planted"
    rho: float = RHO_MAX
    scale: float = 0.1

    def __post_init__(self):
        choice("init.mode", self.mode, INIT_MODES)
        number("init.rho", self.rho, 0, RHO_MAX if self.mode == "planted" else None, strict=True)
        number("init.scale", self.scale, 0, strict=True)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one run; mirrors the JSON config file field for field."""

    d: int
    r: int
    k: int
    n: int
    iters: int
    seed: int
    sigma: float = 0.0
    ds: tuple = (1.0, 0.9, 0.8)
    dt: object = "zeros"
    eta: object = 0.1  # positive float or "theory" for 1/(100 sigma_1)
    init: InitSpec = field(default_factory=InitSpec)
    gradient_mode: str = "sample"
    distribution: str = "gaussian"
    track_delta: bool = False
    delta_every: int = 1
    memory_mode: str = "dense"  # validated; no mode stores the sensing matrices
    output: str | None = None

    def __post_init__(self):
        for name, low in INT_FIELDS.items():
            count(name, getattr(self, name), low, dict(k=self.d, seed=SEED_MAX).get(name))
        number("sigma", self.sigma, 0)
        ds, dt = _validate_spectrum(self.d, self.r, self.ds, self.dt)
        object.__setattr__(self, "ds", ds)
        object.__setattr__(self, "dt", dt)
        if not isinstance(self.track_delta, bool):
            raise InputError(f"track_delta must be true or false, got {self.track_delta!r}")
        if not (self.output is None or isinstance(self.output, (str, os.PathLike))):
            raise InputError(f"output must be a path or null, got {self.output!r}")
        for name, allowed in (("gradient_mode", GRADIENT_MODES),
                              ("distribution", DISTRIBUTIONS), ("memory_mode", MEMORY_MODES)):
            choice(name, getattr(self, name), allowed)
        if self.init.mode == "planted" and self.k < self.r:
            raise InputError("planted initialization requires k >= r")
        if self.init.mode == "spectral" and self.gradient_mode == "population":
            raise InputError("spectral initialization needs a sensing set (sample mode)")
        if self.eta != "theory":
            number("eta", self.eta, 0, strict=True)
        check_build_memory(self.d, self.n if self.gradient_mode == "sample" else None)

    @property
    def sigma1(self):
        return float(self.ds[0])

    @property
    def sigma_r(self):
        return float(self.ds[-1])

    def eta_value(self):
        if self.eta == "theory":
            return theory_step_size(self.sigma1)
        return float(self.eta)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise InputError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "init" in data:
            if not isinstance(data["init"], dict):
                raise InputError("init must be an object")
            init_unknown = set(data["init"]) - set(InitSpec.__dataclass_fields__)
            if init_unknown:
                raise InputError(f"unknown init keys: {sorted(init_unknown)}")
            data["init"] = InitSpec(**data["init"])
        missing = {"d", "r", "k", "n", "iters", "seed"} - set(data)
        if missing:
            raise InputError(f"missing required config keys: {sorted(missing)}")
        return cls(**data)

    def to_dict(self):
        out = asdict(self)  # field order; init becomes a nested dict
        out["ds"] = list(self.ds)
        if not isinstance(self.dt, str):
            out["dt"] = list(self.dt)
        return out


@dataclass
class Trajectory:
    config: ExperimentConfig
    metrics: list
    elapsed_ms: list

    def column(self, name):
        return metrics_column(self.metrics, name)


def _initial_factor(config, gt, sensing):
    if config.init.mode == "planted":
        return planted_init(gt, config.k, config.init.rho, config.seed)
    if config.init.mode == "spectral":
        return spectral_init(sensing, config.k)
    return random_init(config.d, config.k, config.init.scale, config.seed)


def _chunk_rows(d):
    """Iterates buffered per batch_metrics call: at most 256, and at most
    2**15 doubles (256 KiB) in a chunk's stack of d x d blocks, the largest
    per-row array the kernel forms (M when DT* != 0)."""
    return max(1, min(256, 2**15 // (d * d)))


def _diverged(traj, row, guard):
    err = row.err_spec
    cause = (f"grad_norm={row.grad_norm:.3e} is not finite" if err <= guard
             else f"err_spec={err:.3e} > {guard:.3e}")
    return DivergenceError(f"run diverged at t={row.t}: {cause}", trajectory=traj,
                           residual=float(err))


def run_experiment(config, write_output=True, measure_from=0):
    """Run one configured experiment and return its Trajectory.

    Records metrics for the initial factor (t=0) and after each of the
    ``iters`` steps, one batch_metrics call per chunk of ``_chunk_rows(d)``
    consecutive iterates.  A row's elapsed_ms is its own step time plus an
    equal share of its chunk's metrics time.  Aborts with DivergenceError,
    carrying the partial trajectory (also written to config.output), at the
    first row with err_spec > 1e6 sigma_1 or a non-finite value; the message
    names err_spec, or the gradient norm when only that is non-finite.

    Rows t < ``measure_from`` are stepped but not recorded: the trajectory
    holds rows measure_from..iters, bit for bit the tail of the full run.
    A row's err_spec is bounded by |F|_F^2 + sigma_1 (|X*|_2 = sigma_1), so
    measuring starts at the first row that is recorded or whose bound passes
    the guard, and every later row is measured: the run aborts at the same
    row as the full run would.
    """
    count("measure_from", measure_from, 0, config.iters)
    if write_output and config.output:
        check_output_path(config.output)
    gt = generate_ground_truth(config.d, config.r, config.ds, config.dt, config.seed)
    population = config.gradient_mode == "population"
    sensing = model = None
    # Only a spectral start reads the sensing set: any other start comes first.
    f = None if config.init.mode == "spectral" else _initial_factor(config, gt, sensing)
    if not population:
        sensing = generate_sensing(gt, config.n, config.sigma, config.distribution, config.seed)
        model = sensing.model
        f = _initial_factor(config, gt, sensing) if f is None else f
    scales = derived_scales(gt, None if population else config.n, config.sigma, config.k)
    eta = config.eta_value()

    def gradient(f):
        grad = population_gradient(f, gt) if population else model.gradient(f)
        return grad, math.sqrt(grad.ravel().dot(grad.ravel()))

    guard = DIVERGENCE_FACTOR * gt.sigma1
    # err_spec >= |F|_F^2 / k - sigma_1, so a row past this bound trips the
    # guard: stepping stops there, long before an iterate could overflow.
    stop_sq = 2.0 * config.k * (guard + gt.sigma1)
    # err_spec <= |F|_F^2 + sigma_1, so a row within this bound cannot trip it.
    safe_sq = guard - gt.sigma1
    fs = np.empty((_chunk_rows(config.d),) + f.shape)
    grad_norms = np.empty(len(fs))
    metrics, elapsed, t0 = [], [], None  # t0: the chunk's first row, None until measuring
    # Overflow makes a row non-finite, and such a row stops the run below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.iters + 1):
            tic = time.perf_counter()
            grad, grad_norm = gradient(f)
            # A non-finite gradient norm counts as an unbounded iterate.
            f_sq = np.vdot(f, f) if grad_norm < math.inf else math.inf
            stopped = not f_sq <= stop_sq
            if t0 is None and (t >= measure_from or not f_sq <= safe_sq):
                t0, steps, deviations = t, [], {}
            if t0 is not None:
                fs[t - t0], grad_norms[t - t0] = f, grad_norm
                if config.track_delta and t % config.delta_every == 0:
                    # The population operator is exact: Delta = 0.
                    deviations[t - t0] = (np.zeros_like(gt.Xstar) if population
                                          else model.deviation(f, gt.Xstar))
            if t < config.iters and not stopped:
                f = f - eta * grad
            if t0 is None:
                continue
            toc = time.perf_counter()
            steps.append(toc - tic)
            m = len(steps)
            if m < len(fs) and t < config.iters and not stopped:
                continue
            norms = {}
            if deviations:
                stack = np.stack(list(deviations.values()))
                norms = dict(zip(deviations, spectral_norms(stack).tolist()))
            rows = batch_metrics(t0, fs[:m], gt, scales, grad_norms[:m],
                                 [norms.get(i) for i in range(m)])
            share = (time.perf_counter() - toc) / m
            times = [(step + share) * 1000.0 for step in steps]
            bad = ~(np.array([row.err_spec for row in rows]) <= guard)
            bad[-1] |= stopped  # a non-finite gradient norm also stops stepping
            end = int(np.argmax(bad)) + 1 if bad.any() else m  # through the first bad row
            skip = max(0, measure_from - t0)  # measured, but before the recorded rows
            metrics += rows[skip:end]
            elapsed += times[skip:end]
            if bad.any():
                break
            t0, steps, deviations = t + 1, [], {}

    traj = Trajectory(config=config, metrics=metrics, elapsed_ms=elapsed)
    if write_output and config.output:  # a diverged run keeps its partial trajectory
        write_trajectory_csv(traj, config.output)
    if bad.any():  # the last chunk measured stopped the run at its row end - 1
        raise _diverged(traj, rows[end - 1], guard)
    return traj


@dataclass(frozen=True)
class CellResult:
    param: str
    value: object
    cell_seed: int
    plateau_err_fro: float | None
    plateau_err_fro_sq: float | None
    D_final: float | None
    status: str  # ok | diverged


@dataclass(frozen=True)
class SweepResult:
    param: str
    values: tuple
    rows: tuple
    slope: float | None  # log-log slope of plateau err_fro^2 vs n
    intercept: float | None


def _cell_config(base, param, value):
    """The cell's config; its value goes through the same validation as a config file."""
    return replace(base, **{choice("param", param, SWEEP_PARAMS): value}, output=None)


def _run_cell(base, param, value):
    cell_seed = (base.seed ^ stable_hash64(param, value)) % 2**64
    config = replace(_cell_config(base, param, value), seed=cell_seed)
    # The cell reads only the plateau window, so only that window is measured.
    window = max(1, math.ceil((config.iters + 1) * PLATEAU_FRACTION))
    try:
        traj = run_experiment(config, write_output=False,
                              measure_from=config.iters + 1 - window)
    except DivergenceError:
        return CellResult(param, value, cell_seed, None, None, None, "diverged")
    plateau = float(np.median(traj.column("err_fro")))
    return CellResult(
        param=param,
        value=value,
        cell_seed=cell_seed,
        plateau_err_fro=plateau,
        plateau_err_fro_sq=plateau**2,
        D_final=float(traj.metrics[-1].D),
        status="ok",
    )


def sweep(base_config, param, values, out=None):
    """One run per grid value with derived cell seeds, in grid order."""
    values = list(values)
    if len(values) < 1:
        raise InputError("sweep needs at least one value")
    for v in values:
        _cell_config(base_config, param, v)  # validate param and every cell up front
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InputError("sweep values must be strictly increasing")
    if out:
        check_output_path(out)
    rows = [_run_cell(base_config, param, v) for v in values]

    slope = intercept = None
    if param == "n" and base_config.sigma > 0:
        positive = [(r.value, r.plateau_err_fro_sq) for r in rows
                    if r.status == "ok" and r.plateau_err_fro_sq > 0]
        if len(positive) >= 2:  # a least-squares line through (log n, log plateau^2)
            slope, intercept = map(float, np.polyfit(*np.log(positive).T, 1))

    result = SweepResult(
        param=param, values=tuple(values), rows=tuple(rows), slope=slope, intercept=intercept
    )
    if out:
        write_sweep_csv(result, out)
    return result


def floored_recursion_bound(a, eta):
    """The right side of the floored recursion A' <= (1 - eta A / 2) A."""
    return (1.0 - 0.5 * eta * a) * a


@dataclass(frozen=True)
class PhaseReport:
    head_window: tuple | None  # (t0, t1) of the fitted geometric stretch
    head_slope: float | None  # d log(ss_err) / dt over the head window
    head_r2: float | None
    tail_c: float | None  # constant in D ~ c/t (or A ~ c/t when noisy)
    tail_residual: float | None  # relative l2 residual of the c/t fit
    recursion_pass_rate: float | None  # fraction of steps with A' <= (1 - eta A/2) A
    envelope_pass: bool | None  # A_t <= 4/(eta t + 4/A_0) past burn-in
    eta: float | None


def _linear_fit_r2(x, y):
    x = x - x[0]  # well conditioned at any x in [0, 2**53): only the spread is fitted
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = np.var(y) * len(y)
    r2 = 1.0 if total == 0 else 1.0 - float(np.sum(resid**2)) / float(total)
    return float(slope), float(intercept), r2


@np.errstate(all="ignore")  # a statistic that overflows is non-finite: the CLI prints null
def detect_phases(traj, eta=None):
    """Fit the linear-then-sublinear structure of a trajectory.

    The trajectory needs at least 50 rows, a strictly increasing t, and
    finite t, ss_err, D and A; anything else is an InputError.

    Head: linear fit of log(ss_err) over the first contiguous decreasing
    stretch, right edge chosen on a coarse grid maximizing R^2.  Tail: c/t
    fit over the final 50% of iterations against D, or A when some row has
    A < D (only a sample-mode run with sigma > 0 has a noise floor).
    Also reports the pass rate of the one-step floored recursion and whether
    the 4/(eta t + 4/A_0) envelope holds past the burn-in.
    """
    metrics = traj.metrics if hasattr(traj, "metrics") else list(traj)
    if len(metrics) < 50:
        raise InputError(f"need at least 50 recorded iterations, got {len(metrics)}")
    t, ss, d_vals, a_vals = (metrics_column(metrics, c) for c in ("t", "ss_err", "D", "A"))
    for name, column in (("t", t), ("ss_err", ss), ("D", d_vals), ("A", a_vals)):
        if not np.all(np.isfinite(column)):
            raise InputError(f"{name} must be finite in every row")
    if np.any(np.diff(t) <= 0):
        raise InputError("t must be strictly increasing")
    noisy = bool(np.any(a_vals < d_vals))
    if eta is not None:
        number("eta", eta, 0, strict=True)

    # Head fit.
    head_window = head_slope = head_r2 = None
    dec = ss[1:] < ss[:-1]
    start = int(np.argmax(dec)) if dec.any() else None
    if start is not None and np.all(ss[start:] > 0):
        end = start + 1
        while end < len(ss) - 1 and ss[end + 1] < ss[end]:
            end += 1
        if end - start >= 10:
            candidates = np.unique(
                np.linspace(start + 10, end, num=min(20, end - start - 9), dtype=int)
            )
            best = None
            for cand in candidates:
                sl, _, r2 = _linear_fit_r2(t[start : cand + 1], np.log(ss[start : cand + 1]))
                if best is None or r2 > best[2] + 1e-12:
                    best = (int(cand), sl, r2)
            head_window = (int(t[start]), int(t[best[0]]))
            head_slope, head_r2 = best[1], best[2]

    # Tail fit on the final 50%.
    tail_c = tail_residual = None
    half = len(metrics) // 2
    y = (a_vals if noisy else d_vals)[half:]
    tt = t[half:] - t[0]  # steps since the first row, as in every run CSV's t
    mask = tt > 0
    if np.any(mask) and np.any(y[mask] > 0):
        tt, y = tt[mask], y[mask]
        c = float(np.sum(y / tt) / np.sum(1.0 / tt**2))
        denom = float(np.linalg.norm(y))
        tail_c = c
        tail_residual = float(np.linalg.norm(y - c / tt)) / denom if denom > 0 else 0.0

    # Recursion pass rate and envelope.
    recursion_pass_rate = envelope_pass = None
    if eta is not None:
        tol = 1e-12 * max(1.0, a_vals[0])
        rhs = floored_recursion_bound(a_vals[:-1], eta)
        recursion_pass_rate = float(np.mean(a_vals[1:] <= rhs + tol))
        a0 = a_vals[0]
        burn = int(np.ceil(len(metrics) * BURN_IN_FRACTION))
        if a0 <= 0:
            envelope_pass = bool(np.all(a_vals[burn:] <= tol))
        else:
            bound = 4.0 / (eta * (t[burn:] - t[0]) + 4.0 / a0)
            envelope_pass = bool(np.all(a_vals[burn:] <= bound + tol))

    return PhaseReport(
        head_window=head_window,
        head_slope=head_slope,
        head_r2=head_r2,
        tail_c=tail_c,
        tail_residual=tail_residual,
        recursion_pass_rate=recursion_pass_rate,
        envelope_pass=envelope_pass,
        eta=eta,
    )


# The (10, 4) pair in the deviation hypothesis; overridable for sensitivity studies.
DELTA_HYP_D_FACTOR = 10.0
DELTA_HYP_SIGMA_FACTOR = 4.0


@dataclass(frozen=True)
class SampleContraction:
    """One entry per checked pair (t, t+1).  lhs, rhs and status have one column
    per check: the ss and st contractions, then the floored recursion."""

    t: np.ndarray
    held: np.ndarray  # |Delta_t|_2 within the deviation hypothesis
    above_floor: np.ndarray  # A_t > 0, that is D_t > 50 eps_stat
    lhs: np.ndarray
    rhs: np.ndarray
    status: np.ndarray  # pass | fail | vacuous


def sample_contraction(traj):
    """Check the finite-sample one-step statements on every pair of consecutive
    rows (t, t+1) whose first row records delta_norm: the ss / st contractions
    and the floored recursion A' <= (1 - eta A / 2) A, given the deviation
    hypothesis |Delta|_2 <= 10 sqrt(k d log d / n) D + 4 sqrt(d log d / n) sigma
    and A_t > 0.  A failed check whose conditions do not hold is vacuous.
    The run's constants come from traj.config; no qualifying pair is an InputError."""
    t, delta, ss, st, d_val, a_val = map(
        traj.column, ("t", "delta_norm", "ss_err", "st_norm", "D", "A"))
    i = np.flatnonzero(~np.isnan(delta[:-1]) & (t[1:] == t[:-1] + 1))
    if not len(i):
        raise InputError("no row with delta_norm is followed by its next step; set track_delta")
    cfg = traj.config
    sr, eta, sigma = cfg.sigma_r, cfg.eta_value(), cfg.sigma
    c_kd = np.sqrt(cfg.k * cfg.d * np.log(cfg.d) / cfg.n)
    c_d = np.sqrt(cfg.d * np.log(cfg.d) / cfg.n)
    tol = 1e-9 * sr
    d_i = d_val[i]
    held = delta[i] <= DELTA_HYP_D_FACTOR * c_kd * d_i + DELTA_HYP_SIGMA_FACTOR * c_d * sigma + tol
    above_floor = a_val[i] > 0.0  # A = max(D - 50 eps_stat, 0)
    lhs = np.stack([ss[i + 1], st[i + 1], a_val[i + 1]], axis=1)
    rhs = np.stack([(1 - 0.7 * eta * sr) * ss[i] + c_kd * d_i + 0.4 * c_d * sigma,
                    (1 - eta * sr) * st[i] + c_kd * d_i + 0.4 * c_d * sigma,
                    floored_recursion_bound(a_val[i], eta)], axis=1)
    applicable = (held & above_floor)[:, None]
    status = np.where(lhs <= rhs + tol, "pass", np.where(applicable, "fail", "vacuous"))
    return SampleContraction(t[i].astype(int), held, above_floor, lhs, rhs, status)
