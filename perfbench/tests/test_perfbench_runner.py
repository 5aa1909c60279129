import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import speed
import workloads
from spans import Hook, HookSet, Tracer

import msense
from msense import harness

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class FakeWorkload:
    """Two operations per repetition: repetition 1 raises, repetition 2 fails
    one check, repetition 3 changes its outputs, repetition 4 returns what
    its check cannot read, the rest are clean."""

    ops = ("a", "b")

    def __init__(self):
        self.calls = 0

    def run(self, out_dir):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("boom")
        return self.calls

    def check(self, result, out_dir, reference):
        check = workloads.Check()
        if result == 5:
            raise TypeError("unreadable result")
        if result == 3:
            check.fail("a", "bad value")
        return check, "changed" if result == 4 else "same"


def test_fail_frac_counts_raises_failed_checks_and_changed_outputs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_REPS", 6)
    m = run.measure(FakeWorkload(), 0.0, False, None, str(tmp_path))
    assert len(m.walls) == 6
    assert len(m.probes) == speed.SAMPLES * 7  # before each repetition and after the last
    assert m.attempted == 12
    assert m.failed == 2 + 1 + 2 + 2
    assert any("raised" in note and "boom" in note for note in m.notes)
    assert any("a: bad value" in note for note in m.notes)
    assert any("differ from the first repetition" in note for note in m.notes)
    assert any("unreadable result" in note for note in m.notes)
    assert os.listdir(tmp_path) == []


def test_speed_scale_follows_the_probe_to_the_given_power():
    slow = [2 * speed.REF_S] * 3 + [100.0]  # the median ignores one outlier
    assert speed.scale(slow) == pytest.approx(0.5)
    assert speed.scale(slow, 0.5) == pytest.approx(0.5 ** 0.5)
    assert speed.scale([speed.REF_S], 0.5) == 1.0


def _small_run():
    config = harness.ExperimentConfig(d=6, r=2, k=3, n=300, iters=20, seed=3, sigma=0.1,
                                      ds=(1.0, 0.8))
    return harness.run_experiment(config, write_output=False)


def test_missing_hook_is_reported_absent_and_never_fails_the_run(monkeypatch):
    original = harness.metrics_from_parts
    gone = "msense.problem:RemovedOperator.gradient"
    hooks = tuple(
        Hook(h.span, gone) if h.target == "msense.problem:QuadraticModel.gradient" else h
        for h in layers.HOOKS
    ) + (Hook("extra", "msense.subspace:no_such_function"),)
    monkeypatch.setattr(layers, "HOOKS", hooks)
    tracer = Tracer()
    with HookSet(tracer, hooks) as hook_set:
        assert harness.metrics_from_parts is not original
        traj = _small_run()
    assert harness.metrics_from_parts is original
    assert hook_set.absent == {
        gone: "msense.problem.RemovedOperator is missing",
        "msense.subspace:no_such_function": "msense.subspace.no_such_function is missing",
    }
    missing = layers.missing_spans(hook_set.absent, tracer.record_errors)
    values, absent, _ = layers.summarize([layers.evaluate(layers.Rep(tracer.spans, 1.0), missing)])
    for name in ("problem.gradient_us.p50", "problem.gradient_us.p99", "problem.gradient_calls"):
        assert values[name] == 0
        assert "RemovedOperator" in absent[name]
    assert values["subspace.metrics_calls"] == len(traj.metrics)
    assert values["harness.runs"] == 1
    assert values["problem.operator_bytes"] == (6 * 6) ** 2 * 8 + 6 * 6 * 8


def test_failing_attribute_recorder_marks_only_its_metrics_absent():
    def broken(span, args, kwargs, result):
        raise KeyError("gone")

    tracer = Tracer()
    hooks = (Hook("harness.sweep", "msense.harness:run_experiment", broken),
             Hook("subspace.metrics", "msense.subspace:metrics_from_parts"))
    with HookSet(tracer, hooks):
        _small_run()
    missing = layers.missing_spans({}, tracer.record_errors)
    evaluation = layers.evaluate(layers.Rep(tracer.spans, 1.0), missing)
    assert evaluation["harness.sweep_cells"][0] is None
    assert "recording harness.sweep failed" in evaluation["harness.sweep_cells"][1]
    assert evaluation["subspace.metrics_calls"] == (21, None)


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    per_layer = [(m.name, m.unit, m.better) for m in layers.METRICS] + list(layers.OVERHEAD)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer


def test_every_instance_has_reference_values():
    reference = workloads.load_reference()
    for name in ("wide_d", "conc_noise"):
        assert sorted(map(int, reference[name])) == list(range(workloads.INSTANCES))


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "conc_noise", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_request_what_they_report(name):
    workload = workloads.WORKLOADS[name](msense, 37)
    assert workload.instance == 37 % workloads.INSTANCES
    assert workload.steps > 0 and workload.draws > 0 and workload.ops
