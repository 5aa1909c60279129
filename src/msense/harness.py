"""Experiment orchestration: configured runs, parameter sweeps, and the
trajectory-wide statements: convergence phases and finite-sample contraction.

A run builds the ground truth and sensing set from its seed, iterates the
factored gradient step, and records per-iteration subspace metrics.  Runs
are deterministic per config; sweeps derive one seed per grid cell.  The
sample-mode cells of an n or sigma sweep step in lockstep as stacks, bit for bit
as each would alone: each stack holds as many cells as fit their operators
within STACK_BYTES and within the memory budget.  Other cells run one at a
time in grid order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import problem
from .csvio import check_output_path, metrics_column, write_sweep_csv, write_trajectory_csv
from .errors import DivergenceError, InputError, _shown, choice, count, number
from .linalg import spectral_norms
from .problem import (DISTRIBUTIONS, MEMORY_MODES, _validate_spectrum, check_build_memory,
                      generate_ground_truth, generate_sensing, sensing_bytes, stacked_gradient)
from .rng import SEED_MAX, stable_hash64
from .subspace import (RHO_MAX, batch_metrics, eps_stat, planted_init, population_gradient,
                       random_init, spectral_init, theory_step_size)

INIT_MODES = ("planted", "spectral", "random")
GRADIENT_MODES = ("sample", "population")
SWEEP_PARAMS = ("n", "k", "sigma", "d")

DIVERGENCE_FACTOR = 1e6  # abort when err_spec > 1e6 * sigma_1
PLATEAU_FRACTION = 0.10  # final fraction of iterations defining the plateau
BURN_IN_FRACTION = 0.05  # iterations skipped before the envelope check
# Bytes of operators and data terms in one sweep stack, which every step reads: on a 2-CPU
# Xeon with 2 MiB of L2 per core, a longer stack stepped slower than its cells one at a time.
STACK_BYTES = 3 * 2**19


# Integer config fields and their smallest values; k is at most d, a seed at most SEED_MAX.
INT_FIELDS = dict(d=1, r=1, k=1, n=1, iters=1, seed=0, delta_every=1)


def worker_count():
    """1: runs, sweeps and figures run on the calling thread.  perfbench/run.py records it in
    every run's provenance."""
    return 1


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
        if not isinstance(self.init, InitSpec):
            raise InputError(f"init must be an InitSpec, got {self.init!r}")
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


def _start(config):
    """(gt, model, F0) of a run or a sweep cell, model None in population mode.  A planted or
    random start comes before the sensing build, so it fails first; a spectral start reads the
    sensing set, of which only the model is kept: the observations and noise are freed."""
    gt = generate_ground_truth(config.d, config.r, config.ds, config.dt, config.seed)
    init = config.init
    f = (planted_init(gt, config.k, init.rho, config.seed) if init.mode == "planted"
         else random_init(config.d, config.k, init.scale, config.seed) if init.mode == "random"
         else None)
    if config.gradient_mode == "population":
        return gt, None, f
    sensing = generate_sensing(gt, config.n, config.sigma, config.distribution, config.seed)
    return gt, sensing.model, spectral_init(sensing, config.k) if f is None else f


def _chunk_rows(d):
    """Iterates buffered per batch_metrics call: at most 256, and at most
    2**15 doubles (256 KiB) in a chunk's stack of d x d blocks, the largest
    per-row array the kernel forms (M when DT* != 0)."""
    return max(1, min(256, 2**15 // (d * d)))


def _steps(f, gradient, eta, iters):
    """Step F from t = 0 to ``iters``, yielding (t, F_t, |grad_t|, |F_t|_F^2,
    seconds) per row; a row's seconds cover its gradient and its step.  The
    run's _Rows decides which row ends it, and the run stops taking rows there."""
    for t in range(iters + 1):
        tic = time.perf_counter()
        grad, grad_norm = gradient(f)
        f_sq = np.vdot(f, f)
        f_next = f if t == iters else f - eta * grad
        yield t, f, grad_norm, f_sq, time.perf_counter() - tic
        f = f_next


class _Rows:
    """The row rules of one run, shared by run_experiment and a stack of sweep cells: which of
    the rows t = 0..iters its stepping yields are measured (one batch_metrics call per chunk
    of _chunk_rows(d) rows), which are recorded (t >= measure_from), and which ends the run:
    t = iters, the first row past stop_sq, or the first measured row with err_spec > 1e6
    sigma_1 or a non-finite value, whose metrics ``diverged`` holds.  ``elapsed`` is each
    recorded row's step time plus an equal share of its chunk's measuring time, in ms."""

    def __init__(self, config, gt, measure_from, deviation=None):
        self.config, self.gt, self.start, self.deviation = config, gt, measure_from, deviation
        self.floor = eps_stat(gt, None if config.gradient_mode == "population" else config.n,
                              config.sigma)
        self.guard = DIVERGENCE_FACTOR * gt.sigma1
        # err_spec >= |F|_F^2 / k - sigma_1, so a row past this bound trips the
        # guard: the run ends there, long before an iterate could overflow.
        self.stop_sq = 2.0 * config.k * (self.guard + gt.sigma1)
        # err_spec <= |F|_F^2 + sigma_1, so a row within this bound cannot trip it.
        self.safe_sq = self.guard - gt.sigma1
        self.iters, self.size = config.iters, _chunk_rows(config.d)
        self.measuring, self.chunk, self.metrics, self.elapsed = False, [], [], []
        self.diverged = None

    def take(self, t, f, grad_norm, f_sq, seconds=0.0):
        """Take row t; True once the run has ended."""
        # A non-finite gradient norm counts as an unbounded iterate.
        f_sq = f_sq if grad_norm < math.inf else math.inf
        # Measuring starts at the first row recorded or past safe_sq, and every later row is
        # measured: the run ends at the row where the full run ends.
        self.measuring = self.measuring or not (t < self.start and f_sq <= self.safe_sq)
        if self.measuring:
            self.chunk.append((t, f, grad_norm, seconds))
        end = not f_sq <= self.stop_sq or t == self.iters
        if self.chunk and (end or len(self.chunk) == self.size):
            self._measure()
        return end or self.diverged is not None

    def _measure(self):
        tic = time.perf_counter()
        ts, fs, grad_norms, seconds = zip(*self.chunk)
        self.chunk = []
        every = self.config.delta_every
        tracked = [i for i, t in enumerate(ts) if self.deviation and t % every == 0]
        norms = dict(zip(tracked, spectral_norms([self.deviation(fs[i]) for i in tracked]).tolist()
                         if tracked else []))
        rows = batch_metrics(ts[0], fs, self.gt, self.floor, grad_norms,
                             [norms.get(i) for i in range(len(ts))])
        share = (time.perf_counter() - tic) / len(ts)
        cut = next((i for i, row in enumerate(rows, 1)
                    if not (row.err_spec <= self.guard and row.grad_norm < math.inf)), None)
        skip = max(0, self.start - ts[0])  # measured, but before the recorded rows
        self.metrics += rows[skip:cut]
        self.elapsed += [(step + share) * 1000.0 for step in seconds[skip:cut]]
        if cut is not None:
            self.diverged = rows[cut - 1]


def run_experiment(config, write_output=True, measure_from=0):
    """Run one configured experiment and return its Trajectory.

    ``_steps`` steps the factor and a ``_Rows`` measures the rows it yields,
    t = 0 (the initial factor) to ``iters``, with |Delta|_2 on tracked rows.
    Aborts with DivergenceError, carrying the partial trajectory (also written
    to config.output), at the first row with err_spec > 1e6 sigma_1 or a
    non-finite value; the message names err_spec, or the gradient norm when
    only that is non-finite.

    Rows t < ``measure_from`` are stepped but not recorded: the trajectory
    holds rows measure_from..iters, bit for bit the tail of the full run.
    """
    count("measure_from", measure_from, 0, config.iters)
    if write_output and config.output is not None:
        check_output_path(config.output)
    gt, model, f = _start(config)
    population, eta = model is None, config.eta_value()

    def gradient(f):
        grad = population_gradient(f, gt) if population else model.gradient(f)
        return grad, math.sqrt(grad.ravel().dot(grad.ravel()))

    def deviation(f):  # the population operator is exact: Delta = 0
        return np.zeros_like(gt.Xstar) if population else model.deviation(f, gt.Xstar)

    rows = _Rows(config, gt, measure_from, deviation if config.track_delta else None)
    # Overflow makes a row non-finite, and such a row ends the run.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in _steps(f, gradient, eta, config.iters):
            if rows.take(*row):
                break

    traj = Trajectory(config=config, metrics=rows.metrics, elapsed_ms=rows.elapsed)
    if write_output and config.output is not None:  # a diverged run keeps its partial trajectory
        write_trajectory_csv(traj, config.output)
    if rows.diverged is not None:  # the run stopped at this row
        row, guard = rows.diverged, rows.guard
        cause = (f"grad_norm={row.grad_norm:.3e} is not finite" if row.err_spec <= guard
                 else f"err_spec={row.err_spec:.3e} > {guard:.3e}" if row.err_spec > guard
                 else f"err_spec={row.err_spec:.3e} is not finite")
        raise DivergenceError(f"run diverged at t={row.t}: {cause}", trajectory=traj)
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
    rows: tuple
    slope: float | None  # log-log slope of plateau err_fro^2 vs n


def _cell_config(base, param, value):
    """The cell's config with its derived seed.  The value goes through the same validation
    as a config file first, and a value that stable_hash64 cannot repr is an InputError."""
    config = replace(base, **{choice("param", param, SWEEP_PARAMS): value}, output=None)
    try:
        seed = stable_hash64(param, value)
    except ValueError:  # an int past 4,300 digits: only a population run leaves n unbounded
        raise InputError(f"{param}={_shown(value)} cannot be hashed to a cell seed") from None
    return replace(config, seed=(base.seed ^ seed) % 2**64)


def _window_start(config):
    """The first row of the cell's plateau window: the cell reads only the window, so only
    the window is recorded."""
    return config.iters + 1 - max(1, math.ceil((config.iters + 1) * PLATEAU_FRACTION))


def _cell_result(config, param, value, metrics=None):
    """The cell's row: diverged without its window's metrics, else their plateau and final D."""
    if metrics is None:
        return CellResult(param, value, config.seed, None, None, None, "diverged")
    plateau = float(np.median(metrics_column(metrics, "err_fro")))
    return CellResult(param, value, config.seed, plateau, plateau**2, float(metrics[-1].D), "ok")


def _run_cell(config, param, value):
    try:
        traj = run_experiment(config, write_output=False, measure_from=_window_start(config))
    except DivergenceError:
        return _cell_result(config, param, value)
    return _cell_result(config, param, value, traj.metrics)


def _sq_norms(x):
    """|x_b|_F^2 of each matrix of a stack, by the dot product np.vdot takes."""
    return np.matmul(x.reshape(len(x), 1, -1), x.reshape(len(x), -1, 1)).ravel()


def _stack_size(configs):
    """Cells per stack: each holds its operator and data term, 8 (p^2 + d^2) bytes, and the
    stack's share is at most STACK_BYTES and at most the memory budget less the largest
    cell's sensing build.  At least one: a cell fits alone, as its config was checked."""
    d = configs[0].d
    p = d * (d + 1) // 2
    room = problem._memory_budget() - max(sensing_bytes(d, c.n) for c in configs)
    return max(1, min(STACK_BYTES, room) // (8 * (p * p + d * d)))


def _stacked_cells(configs, param, values):
    """The CellResults of sample-mode cells that share d, k, iters and eta, stepped in
    lockstep as one (B, d, k) stack: every iteration makes one stacked_gradient call and
    two norm calls for all live cells.  Each cell is started first, by _start as a run is.
    Its rows are _steps' rows for its run, bit for bit, taken by its own _Rows, and it leaves
    the stack when its run ends, so its result is _run_cell's."""
    b, d, k = len(configs), configs[0].d, configs[0].k
    p = d * (d + 1) // 2
    h, bbar, f, runs = np.empty((b, p, p)), np.empty((b, d, d)), np.empty((b, d, k)), []
    for i, config in enumerate(configs):
        gt, model, f[i] = _start(config)
        h[i], bbar[i] = model.h, model.bbar
        runs.append(_Rows(config, gt, _window_start(config)))  # no |Delta|_2: no field reads it
    live, eta = runs, configs[0].eta_value()
    with np.errstate(over="ignore", invalid="ignore"):  # as in run_experiment
        for t in range(configs[0].iters + 1):
            grad = stacked_gradient(h, bbar, f)
            ended = [run.take(t, f_t, math.sqrt(g_sq), f_sq) for run, f_t, g_sq, f_sq
                     in zip(live, f, _sq_norms(grad).tolist(), _sq_norms(f).tolist())]
            if any(ended):
                keep = [i for i, end in enumerate(ended) if not end]
                if not keep:
                    break
                for j, i in enumerate(keep):  # moved down in place: no second copy of h
                    if j != i:
                        h[j], bbar[j] = h[i], bbar[i]
                live, h, bbar = [live[i] for i in keep], h[:len(keep)], bbar[:len(keep)]
                f, grad = f[keep], grad[keep]
            f = f - eta * grad
    return [_cell_result(run.config, param, value, None if run.diverged else run.metrics)
            for run, value in zip(runs, values)]


def sweep(base_config, param, values, out=None):
    """One run per grid value with derived cell seeds, in grid order."""
    values = [v.item() if isinstance(v, np.generic) else v for v in values]  # seeds hash repr
    if len(values) < 1:
        raise InputError("sweep needs at least one value")
    configs = [_cell_config(base_config, param, v) for v in values]  # every cell, up front
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InputError("sweep values must be strictly increasing")
    if out is not None:
        check_output_path(out)
    # The sample-mode cells of an n or sigma sweep share their shape and step as stacks of
    # _stack_size cells.  A lone cell steps faster through _steps.
    base, rows = configs[0], []
    size = (_stack_size(configs) if param in ("n", "sigma") and base.gradient_mode == "sample"
            else 1)
    for lo in range(0, len(configs), size):
        cells, grid = configs[lo:lo + size], values[lo:lo + size]
        rows += (_stacked_cells(cells, param, grid) if len(cells) > 1
                 else [_run_cell(cells[0], param, grid[0])])

    slope = None
    if param == "n" and base_config.sigma > 0:
        positive = [(r.value, r.plateau_err_fro_sq) for r in rows
                    if r.status == "ok" and r.plateau_err_fro_sq > 0]
        if len(positive) >= 2:  # a least-squares line through (log n, log plateau^2)
            # np.log where n fits a float: math.log's last bit differs at n=9170, for one
            log_n = [np.log(float(n)) if n < 2**1000 else math.log(n) for n, _ in positive]
            slope = float(np.polyfit(log_n, np.log([p for _, p in positive]), 1)[0])

    result = SweepResult(rows=tuple(rows), slope=slope)
    if out is not None:
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
    recursion_pass_rate: float | None  # fraction of pairs (t, t+1) with A' <= (1 - eta A/2) A
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
    Also reports the pass rate of the floored recursion over the rows (t, t+1), None
    without such a pair, and whether the 4/(eta t + 4/A_0) envelope holds past the burn-in.
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
        i = np.flatnonzero(t[1:] == t[:-1] + 1)  # one-step pairs, as in sample_contraction
        rhs = floored_recursion_bound(a_vals[i], eta)
        recursion_pass_rate = float(np.mean(a_vals[i + 1] <= rhs + tol)) if len(i) else None
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
    The run's constants come from traj.config; no config or no qualifying pair is an InputError."""
    if traj.config is None:
        raise InputError("sample_contraction needs the run's config (d, k, n, sigma, eta), "
                         "which a trajectory CSV does not carry")
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
