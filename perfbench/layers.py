"""Per-layer metrics of the traced run.

The layers are the modules of ``src/msense``.  ``HOOKS`` names the functions
wrapped around each layer boundary; ``METRICS`` turns the spans of one traced
repetition into the numbers listed under ``per_layer`` in BENCHMARK.json.
Next to each group is the end-to-end metric it should move and on which
workload; the other workloads are predicted not to move.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import Hook, self_times

PERCENTILES = (99.0, 90.0, 50.0)
TAIL_SAMPLES = 10  # a tail percentile needs at least this many samples beyond it


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _record_run(span, args, kwargs, traj):
    config = _arg(args, kwargs, 0, "config").to_dict()
    config.pop("output", None)
    span.attrs["config"] = json.dumps(config, sort_keys=True)
    span.attrs["step_ms"] = list(traj.elapsed_ms)


def _record_sweep(span, args, kwargs, result):
    span.attrs["cells"] = len(result.rows)
    span.attrs["failed"] = sum(row.status != "ok" for row in result.rows)


def _record_operator(span, args, kwargs, model):
    sensing = _arg(args, kwargs, 1, "s")  # args[0] is the class
    span.attrs["bytes"] = sum(
        v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray)
    )
    span.attrs["gflop"] = 2.0 * sensing.n * sensing.d**4 / 1e9


def _record_mats(span, args, kwargs, mats):
    span.attrs["mats"] = mats.shape[0]


def _record_csv(span, args, kwargs, result):
    rows = getattr(args[0], "metrics", None)
    if rows is None:
        rows = args[0].rows
    span.attrs["rows"] = len(rows) + 1  # plus the header
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _record_svg(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = (
    Hook("harness.run_experiment", "msense.harness:run_experiment", _record_run),
    Hook("harness.sweep", "msense.harness:sweep", _record_sweep),
    Hook("problem.ground_truth", "msense.problem:generate_ground_truth"),
    Hook("problem.sensing", "msense.problem:generate_sensing"),
    Hook("problem.draw_block", "msense.problem:_draw_block", _record_mats),
    Hook("problem.operator_build", "msense.problem:QuadraticModel.build", _record_operator),
    Hook("problem.gradient", "msense.problem:QuadraticModel.gradient"),
    Hook("rng.stream", "msense.rng:stream"),
    Hook("gradient.sample_gradient", "msense.gradient:sample_gradient"),
    Hook("gradient.population_gradient", "msense.gradient:population_gradient"),
    Hook("subspace.metrics", "msense.subspace:metrics_from_parts"),
    Hook("subspace.init", "msense.subspace:planted_init"),
    Hook("subspace.init", "msense.subspace:random_init"),
    Hook("subspace.init", "msense.subspace:spectral_init"),
    Hook("linalg.spectral_norm", "msense.linalg:spectral_norm"),
    Hook("concentration.mc", "msense.concentration:mc_noise_term"),
    Hook("concentration.draw", "msense.concentration:_draw", _record_mats),
    Hook("csvio.write", "msense.csvio:write_trajectory_csv", _record_csv),
    Hook("csvio.write", "msense.csvio:write_sweep_csv", _record_csv),
    Hook("svgplot.write", "msense.svgplot:write_line_chart", _record_svg),
    Hook("figures.reproduce", "msense.figures:reproduce_figures"),
)


class Rep:
    """The spans of one traced repetition and its wall time."""

    def __init__(self, spans, wall):
        self.wall = wall
        self.spans = {}
        for s in spans:
            self.spans.setdefault(s.name, []).append(s)
        self._self = self_times(spans)

    def of(self, name):
        return self.spans.get(name, [])

    def count(self, name):
        return len(self.of(name))

    def durations(self, name, scale=1.0):
        return [s.duration * scale for s in self.of(name)]

    def total(self, name):
        return sum(s.duration for s in self.of(name))

    def self_total(self, name):
        return sum(self._self[s.id] for s in self.of(name))

    def attr_total(self, name, key):
        return sum(s.attrs.get(key, 0) for s in self.of(name))

    def step_ms(self):
        runs = self.of("harness.run_experiment")
        return [ms for s in runs for ms in s.attrs.get("step_ms", ())]

    def workers(self):
        return len({s.thread for s in self.of("harness.run_experiment")})

    def runs_within(self, outer):
        """run_experiment spans that ran, on any thread, inside an ``outer`` span."""
        windows = [(o.start, o.end) for o in self.of(outer)]
        return [
            s for s in self.of("harness.run_experiment")
            if any(lo <= s.start and s.end <= hi for lo, hi in windows)
        ]

    def norm_under_mc(self):
        mc = {s.id for s in self.of("concentration.mc")}
        return sum(s.duration for s in self.of("linalg.spectral_norm") if s.parent in mc)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric.  With ``pct`` set, ``value`` returns per-call
    samples and the reported number is that percentile of them."""

    name: str
    unit: str
    better: str
    needs: tuple  # span names whose hooks must be present
    value: Callable
    pct: float | None = None


US = 1e6

METRICS = (
    # subspace metrics -> steps_per_s, wall_s on sweep_n and figures.
    Metric("subspace.metrics_us.p50", "us", "lower", ("subspace.metrics",),
           lambda r: r.durations("subspace.metrics", US), 50.0),
    Metric("subspace.metrics_us.p99", "us", "lower", ("subspace.metrics",),
           lambda r: r.durations("subspace.metrics", US), 99.0),
    Metric("subspace.metrics_calls", "count", "lower", ("subspace.metrics",),
           lambda r: r.count("subspace.metrics")),
    Metric("subspace.metrics_share", "ratio", "lower",
           ("subspace.metrics", "harness.run_experiment"),
           lambda r: r.self_total("subspace.metrics") / r.total("harness.run_experiment")
           if r.count("harness.run_experiment") else 0.0),
    # initializers -> setup_s on figures.
    Metric("subspace.init_s", "s", "lower", ("subspace.init",),
           lambda r: r.total("subspace.init")),
    # spectral norms -> steps_per_s on sweep_n and figures.
    Metric("linalg.spectral_norm_us.p50", "us", "lower", ("linalg.spectral_norm",),
           lambda r: r.durations("linalg.spectral_norm", US), 50.0),
    Metric("linalg.spectral_norm_calls", "count", "lower", ("linalg.spectral_norm",),
           lambda r: r.count("linalg.spectral_norm")),
    # operator gradient -> steps_per_s on wide_d.
    Metric("problem.gradient_us.p50", "us", "lower", ("problem.gradient",),
           lambda r: r.durations("problem.gradient", US), 50.0),
    Metric("problem.gradient_us.p99", "us", "lower", ("problem.gradient",),
           lambda r: r.durations("problem.gradient", US), 99.0),
    Metric("problem.gradient_calls", "count", "lower", ("problem.gradient",),
           lambda r: r.count("problem.gradient")),
    # operator build -> setup_s, peak_rss_mb on wide_d.
    Metric("problem.operator_build_s", "s", "lower", ("problem.operator_build",),
           lambda r: r.total("problem.operator_build")),
    Metric("problem.operator_bytes", "bytes", "lower", ("problem.operator_build",),
           lambda r: max((s.attrs.get("bytes", 0) for s in r.of("problem.operator_build")),
                         default=0)),
    Metric("problem.operator_build_gflop", "GFLOP", "lower", ("problem.operator_build",),
           lambda r: r.attr_total("problem.operator_build", "gflop")),
    # ground truth and sensing -> setup_s on wide_d and sweep_n.
    Metric("problem.ground_truth_s", "s", "lower", ("problem.ground_truth",),
           lambda r: r.total("problem.ground_truth")),
    Metric("problem.sensing_s", "s", "lower", ("problem.sensing",),
           lambda r: r.total("problem.sensing")),
    Metric("problem.sensing_mats", "count", "lower", ("problem.draw_block",),
           lambda r: r.attr_total("problem.draw_block", "mats")),
    Metric("rng.stream_calls", "count", "lower", ("rng.stream",),
           lambda r: r.count("rng.stream")),
    Metric("rng.stream_us.p50", "us", "lower", ("rng.stream",),
           lambda r: r.durations("rng.stream", US), 50.0),
    # streaming gradients -> steps_per_s on wide_d once a run can select them.
    Metric("gradient.sample_gradient_calls", "count", "lower", ("gradient.sample_gradient",),
           lambda r: r.count("gradient.sample_gradient")),
    Metric("gradient.sample_gradient_us.p50", "us", "lower", ("gradient.sample_gradient",),
           lambda r: r.durations("gradient.sample_gradient", US), 50.0),
    Metric("gradient.population_gradient_calls", "count", "lower",
           ("gradient.population_gradient",),
           lambda r: r.count("gradient.population_gradient")),
    Metric("gradient.population_gradient_us.p50", "us", "lower",
           ("gradient.population_gradient",),
           lambda r: r.durations("gradient.population_gradient", US), 50.0),
    # run orchestration and the thread pool -> wall_s, cpu_s on sweep_n and figures.
    Metric("harness.runs", "count", "lower", ("harness.run_experiment",),
           lambda r: r.count("harness.run_experiment")),
    Metric("harness.run_s.p50", "s", "lower", ("harness.run_experiment",),
           lambda r: r.durations("harness.run_experiment"), 50.0),
    Metric("harness.step_ms.p50", "ms", "lower", ("harness.run_experiment",),
           lambda r: r.step_ms(),
           50.0),
    Metric("harness.step_ms.p99", "ms", "lower", ("harness.run_experiment",),
           lambda r: r.step_ms(),
           99.0),
    Metric("harness.sweep_cells", "count", "lower", ("harness.sweep",),
           lambda r: r.attr_total("harness.sweep", "cells")),
    Metric("harness.cells_failed", "count", "lower", ("harness.sweep",),
           lambda r: r.attr_total("harness.sweep", "failed")),
    Metric("harness.workers", "count", "lower", ("harness.run_experiment",),
           lambda r: r.workers()),
    Metric("harness.pool_busy_frac", "ratio", "higher", ("harness.run_experiment",),
           lambda r: r.total("harness.run_experiment") / (r.wall * r.workers())
           if r.workers() else 0.0),
    # figure orchestration -> wall_s, steps_per_s on figures.
    Metric("figures.runs", "count", "lower", ("figures.reproduce", "harness.run_experiment"),
           lambda r: len(r.runs_within("figures.reproduce"))),
    Metric("figures.unique_configs", "count", "higher",
           ("figures.reproduce", "harness.run_experiment"),
           lambda r: len({s.attrs.get("config") for s in r.runs_within("figures.reproduce")})),
    # output files -> wall_s on figures.
    Metric("csvio.write_s", "s", "lower", ("csvio.write",),
           lambda r: r.total("csvio.write")),
    Metric("csvio.rows", "count", "lower", ("csvio.write",),
           lambda r: r.attr_total("csvio.write", "rows")),
    Metric("csvio.bytes", "bytes", "lower", ("csvio.write",),
           lambda r: r.attr_total("csvio.write", "bytes")),
    Metric("svgplot.write_s", "s", "lower", ("svgplot.write",),
           lambda r: r.total("svgplot.write")),
    Metric("svgplot.bytes", "bytes", "lower", ("svgplot.write",),
           lambda r: r.attr_total("svgplot.write", "bytes")),
    # Monte Carlo -> draws_per_s on conc_noise.
    Metric("concentration.mc_s", "s", "lower", ("concentration.mc",),
           lambda r: r.total("concentration.mc")),
    Metric("concentration.mats", "count", "lower", ("concentration.draw",),
           lambda r: r.attr_total("concentration.draw", "mats")),
    Metric("concentration.draw_s", "s", "lower", ("concentration.draw",),
           lambda r: r.self_total("concentration.draw")),
    Metric("concentration.norm_s", "s", "lower", ("concentration.mc", "linalg.spectral_norm"),
           lambda r: r.norm_under_mc()),
)

# Traced wall time minus untraced wall time; filled in by the runner.
OVERHEAD = (("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "ratio", "lower"))


def percentile_for(count, nominal):
    """The percentile to report from ``count`` samples for a metric named
    after ``nominal``: the median as is, a tail percentile only if at least
    TAIL_SAMPLES samples lie beyond it (falling back to lower ones)."""
    if count < 1:
        return None
    if nominal <= 50.0:
        return 50.0
    for pct in PERCENTILES:
        if pct <= nominal and count * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            return pct
    return None


def missing_spans(absent_hooks, record_errors):
    """Span name -> why its metrics cannot be reported, from the hook targets
    that were missing and the attribute recorders that failed."""
    missing = dict(record_errors)
    for hook in HOOKS:
        if hook.target in absent_hooks:
            missing.setdefault(hook.span, absent_hooks[hook.target])
    return missing


def _value(metric, rep):
    value = metric.value(rep)
    if metric.pct is None:
        return value, None
    if not value:
        return None, "no calls on this workload"
    pct = percentile_for(len(value), metric.pct)
    if pct is None:
        return None, f"{len(value)} samples, too few for a p{metric.pct:g}"
    return float(np.percentile(value, pct)), f"p{pct:g}"


def evaluate(rep, missing):
    """Every metric of one traced repetition: name -> (value, note).

    The value is None when the metric cannot be reported, and the note says
    why; for a percentile the note names the percentile used.
    """
    out = {}
    for metric in METRICS:
        reason = next((missing[n] for n in metric.needs if n in missing), None)
        if reason is not None:
            out[metric.name] = (None, reason)
            continue
        try:
            out[metric.name] = _value(metric, rep)
        except Exception as exc:  # one broken metric must not fail the run
            out[metric.name] = (None, f"cannot compute: {exc!r}")
    return out


def summarize(evaluations):
    """Median over repetitions of each metric.

    A metric that some repetition could not report is given as 0 and listed
    in ``absent`` with the reason.  Returns (values, absent, percentile_used).
    """
    values, absent, used = {}, {}, {}
    for metric in METRICS:
        per_rep = [ev[metric.name] for ev in evaluations]
        missing = next((note for value, note in per_rep if value is None), None)
        if missing is not None or not per_rep:
            absent[metric.name] = missing or "no traced repetition"
            values[metric.name] = 0
            continue
        values[metric.name] = statistics.median([value for value, _ in per_rep])
        if metric.pct is not None:
            used[metric.name] = per_rep[-1][1]
    return values, absent, used
