"""The four benchmark workloads.

Each workload turns the benchmark seed into msense inputs, runs one timed
repetition through msense's public entry points, and checks what came out.
All four are closed-loop: one caller, and each call returns before the next
starts.  Entry points are looked up on their module at call time, so the
traced run's hooks see the calls.

The seed picks one of ``INSTANCES`` problem instances.  Every instance was
run at the commit that defined the benchmark: none fails, and the final
values of ``wide_d`` and ``conc_noise`` are kept in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import replace

INSTANCES = 32
BASE_SEED = 2020
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Relative drift allowed against reference.json: room for last-ulp changes in
# summation order, far below any change in what is computed.
REL_TOL = 1e-9

SWEEP_GRID = (2000, 8000, 32000)
SWEEP_ITERS = 2000
FIGURE_NAMES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b")
FIGURE_STEPS = 3 * 3000 + 3 * 1500  # iterations the six figures request
FIGURE_N = 200
WIDE_ITERS = 300
WIDE_N = 2000
CONC_N = 10000
CONC_TRIALS = 10
TRAJECTORY_FIELDS = (
    "ss_err", "st_norm", "tt_norm", "tt_err", "D", "A", "err_spec", "err_fro", "grad_norm",
)


# One workload thread: msense's sweep and figures pools get one worker and
# BLAS one thread.  On a small virtual machine whose cores are shared, their
# speed swings with the neighbours' load, so every extra thread adds noise.
# On a 2-vCPU Xeon VM a pool of two Python threads was also slower than one
# (they contend for the GIL): figures took 5.5-6.7 s pooled, 3.9-5.0 s not.
THREAD_ENV = {
    "MSENSE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads():
    """Apply THREAD_ENV.  BLAS reads it when numpy loads, so call this before
    msense is imported; child processes inherit it."""
    os.environ.update(THREAD_ENV)


def program_seed(seed):
    return BASE_SEED + seed % INSTANCES


def file_digest(paths):
    """sha256 over the bytes of ``paths`` in order; None if one is missing."""
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            return None
    return h.hexdigest()


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


class Check:
    """Failed operations and their reasons for one repetition."""

    def __init__(self):
        self.failed = set()
        self.notes = []

    def fail(self, op, note):
        self.failed.add(op)
        self.notes.append(f"{op}: {note}")


class Workload:
    name = ""
    ops = ()  # the operations of one repetition: runs, cells, figures or MC calls
    steps = 0  # FGD iterations requested per repetition (MC trials for conc_noise)
    draws = 0  # sensing matrices requested per repetition
    # How far this workload's repetitions and set-up slow when the host speed
    # probe (speed.py) slows: timings are scaled by speed.scale(probes, e).
    # Interpreted, small-matrix work follows the probe (1.0); large array
    # kernels slow about as its square root (0.5).  See README.md.
    probe_exponent = 1.0
    setup_probe_exponent = 1.0

    def __init__(self, msense, seed):
        self.ms = msense
        self.seed = program_seed(seed)
        self.instance = seed % INSTANCES

    def setup_config(self):
        """The largest configuration, run for one iteration to time set-up."""
        return None

    def warm_up(self):
        config = self.setup_config()
        if config is not None:
            self.ms.harness.run_experiment(config, write_output=False)

    def run(self, out_dir):
        raise NotImplementedError

    def check(self, result, out_dir, reference):
        """Return (Check, digest of the outputs that must repeat byte for byte)."""
        raise NotImplementedError

    def reference_of(self, result):
        """Values to record in reference.json, or None if checks are structural."""
        return None


class SweepN(Workload):
    """Criterion 6's n-sweep with one base seed, through harness.sweep."""

    name = "sweep_n"
    ops = tuple(f"n={n}" for n in SWEEP_GRID)
    steps = SWEEP_ITERS * len(SWEEP_GRID)
    draws = sum(SWEEP_GRID)

    def __init__(self, msense, seed):
        super().__init__(msense, seed)
        self.base = msense.harness.ExperimentConfig(
            d=10, r=2, k=3, n=SWEEP_GRID[0], iters=SWEEP_ITERS, seed=self.seed,
            sigma=0.1, ds=(1.0, 0.8), dt="zeros", eta=0.1,
        )

    def setup_config(self):
        return replace(self.base, n=max(SWEEP_GRID), iters=1)

    def run(self, out_dir):
        return self.ms.harness.sweep(
            self.base, "n", SWEEP_GRID, out=os.path.join(out_dir, "sweep.csv")
        )

    def check(self, result, out_dir, reference):
        check = Check()
        rows = list(result.rows)
        if [row.value for row in rows] != list(SWEEP_GRID):
            for op in self.ops:
                check.fail(op, f"cells {[row.value for row in rows]} != grid {SWEEP_GRID}")
            return check, None
        for op, row in zip(self.ops, rows):
            if row.status != "ok":
                check.fail(op, f"status {row.status}")
        # The plateau must fall strictly as n grows.  Criterion 6's slope band
        # is defined on a median over three seeds, so it is not applied here.
        for op, prev, row in zip(self.ops[1:], rows, rows[1:]):
            a, b = prev.plateau_err_fro_sq, row.plateau_err_fro_sq
            if a is None or b is None or not b < a:
                check.fail(op, f"plateau_err_fro_sq {b} not below {a} of the smaller n")
        digest = file_digest([os.path.join(out_dir, "sweep.csv")])
        if digest is None:
            for op in self.ops:
                check.fail(op, "sweep.csv was not written")
        return check, digest


class Figures(Workload):
    """figures.reproduce_figures into a fresh directory."""

    name = "figures"
    ops = FIGURE_NAMES
    steps = FIGURE_STEPS
    draws = len(FIGURE_NAMES) * FIGURE_N

    def setup_config(self):
        h = self.ms.harness
        return h.ExperimentConfig(
            d=20, r=3, k=4, n=FIGURE_N, iters=1, seed=self.seed, sigma=0.0,
            ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1,
            init=h.InitSpec(mode="planted", rho=0.07, scale=1e-3),
        )

    def run(self, out_dir):
        return self.ms.figures.reproduce_figures(out_dir, seed=self.seed)

    def check(self, result, out_dir, reference):
        check = Check()
        csvio = self.ms.csvio
        paths = []
        errors = {}
        for name in FIGURE_NAMES:
            csv_path = os.path.join(out_dir, f"{name}.csv")
            svg_path = os.path.join(out_dir, f"{name}.svg")
            paths += [csv_path, svg_path]
            if not os.path.isfile(svg_path) or os.path.getsize(svg_path) == 0:
                check.fail(name, "SVG missing or empty")
            try:
                metrics = csvio.read_trajectory_csv(csv_path)
            except (OSError, ValueError) as exc:
                check.fail(name, f"CSV does not parse: {exc}")
                continue
            traj = self.ms.harness.Trajectory(config=None, metrics=metrics, elapsed_ms=[])
            text = "".join(row + "\n" for row in csvio.trajectory_rows(traj))
            with open(csv_path) as fh:
                if fh.read() != text:
                    check.fail(name, "CSV does not round-trip through read_trajectory_csv")
            errors[name] = [m.err_fro for m in metrics]
        # The k=3 planted run converges geometrically; the k=4 one (same
        # start, over-specified rank) must still be 1e3 times worse there.
        for exact, over in (("fig1b", "fig1a"), ("fig2b", "fig2a")):
            if exact not in errors or over not in errors:
                continue
            hit = next((t for t, e in enumerate(errors[exact]) if e < 1e-10), None)
            if hit is None:
                check.fail(exact, "k=3 planted run never reaches err_fro < 1e-10")
            elif hit >= len(errors[over]) or not errors[over][hit] >= 1e3 * errors[exact][hit]:
                check.fail(over, f"k=4 run is not 1e3 times the k=3 error at t={hit}")
        return check, file_digest(paths)


class WideD(Workload):
    """One regenerate-mode run in the n << d^2 regime."""

    name = "wide_d"
    ops = ("run",)
    steps = WIDE_ITERS
    draws = WIDE_N
    # Building and streaming the 48 MB operator, in the repetitions and in
    # the set-up run alike.
    probe_exponent = 0.5
    setup_probe_exponent = 0.5

    def __init__(self, msense, seed):
        super().__init__(msense, seed)
        self.config = msense.harness.ExperimentConfig(
            d=50, r=3, k=4, n=WIDE_N, iters=WIDE_ITERS, seed=self.seed, sigma=0.1,
            ds=(1.0, 0.9, 0.8), dt="zeros", eta=0.1, memory_mode="regenerate",
        )

    def setup_config(self):
        return replace(self.config, iters=1)

    def run(self, out_dir):
        config = replace(self.config, output=os.path.join(out_dir, "wide_d.csv"))
        return self.ms.harness.run_experiment(config)

    def reference_of(self, result):
        final = result.metrics[-1]
        return {f: float(getattr(final, f)) for f in TRAJECTORY_FIELDS}

    def check(self, result, out_dir, reference):
        check = Check()
        if len(result.metrics) != WIDE_ITERS + 1:
            check.fail("run", f"{len(result.metrics)} rows, expected {WIDE_ITERS + 1}")
        elif reference is None:
            check.fail("run", f"no reference for instance {self.instance}")
        else:
            got = self.reference_of(result)
            for field, want in reference.items():
                if not _close(got[field], want):
                    check.fail("run", f"final {field} {got[field]!r} != reference {want!r}")
        digest = file_digest([os.path.join(out_dir, "wide_d.csv")])
        if digest is None:
            check.fail("run", "trajectory CSV was not written")
        return check, digest


class ConcNoise(Workload):
    """concentration.mc_noise_term; draws sensing matrices, runs no FGD."""

    name = "conc_noise"
    ops = ("mc",)
    steps = CONC_TRIALS
    draws = CONC_TRIALS * CONC_N
    # Gaussian draws of large arrays; the set-up is the import alone.
    probe_exponent = 0.5

    def warm_up(self):
        self.ms.concentration.mc_noise_term(d=20, sigma=1.0, n=512, trials=1, seed=self.seed)

    def run(self, out_dir):
        return self.ms.concentration.mc_noise_term(
            d=20, sigma=1.0, n=CONC_N, trials=CONC_TRIALS, seed=self.seed
        )

    def reference_of(self, result):
        return [float(v) for v in result.values]

    def check(self, result, out_dir, reference):
        check = Check()
        values = self.reference_of(result)
        if len(values) != CONC_TRIALS or not all(math.isfinite(v) and v > 0 for v in values):
            check.fail("mc", f"expected {CONC_TRIALS} positive finite values, got {values}")
        elif reference is None:
            check.fail("mc", f"no reference for instance {self.instance}")
        elif len(reference) != len(values) or not all(map(_close, values, reference)):
            check.fail("mc", "values differ from the reference")
        digest = hashlib.sha256(struct.pack(f"{len(values)}d", *values)).hexdigest()
        return check, digest


WORKLOADS = {w.name: w for w in (SweepN, Figures, WideD, ConcNoise)}
