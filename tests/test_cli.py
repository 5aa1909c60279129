import errno
import io
import json
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import msense.cli
import msense.concentration
import msense.csvio
import msense.errors
import msense.harness
import msense.problem
import msense.figures
from msense.cli import main


def write_config(tmp_path, **overrides):
    data = dict(
        d=20, r=3, k=3, n=200, iters=80, seed=7, sigma=0.0,
        ds=[1.0, 0.9, 0.8], dt="zeros", eta=0.1,
    )
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def no_compute(*args, **kwargs):
    raise AssertionError("compute started")


def test_run_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 82  # header + 81 rows
    assert "final t=80" in capsys.readouterr().out


def test_run_invalid_config_exits_1(tmp_path, capsys):
    for field, bad in (("bogus_knob", 1), ("eta", True), ("eta", float("inf"))):
        cfg = write_config(tmp_path, **{field: bad})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1


def test_run_malformed_config_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(msense.cli, "run_experiment", no_compute)
    cases = (("d", "20"), ("iters", 5.5), ("ds", "abc"), ("n", True), ("sigma", float("nan")),
             ("k", 100000000), ("output", str(tmp_path / "missing" / "traj.csv")),
             # Names open() refuses with a ValueError: a NUL byte, a lone surrogate.
             ("output", str(tmp_path / "x\x00y.csv")), ("output", str(tmp_path / "x\ud800.csv")),
             # A path that names no file: a directory yet to be made, or nothing at all.
             ("output", str(tmp_path / "missing") + os.sep), ("output", ""))
    for field, bad in cases:
        cfg = write_config(tmp_path, **{field: bad})
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert field in err or "output" in err
        assert "Traceback" not in err
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path)  # d=20: the k=21 cell is rejected before any cell runs
    assert main(["sweep", "--config", str(cfg), "--param", "k", "--values", "3,21"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k ") and err.count("\n") == 1, err
    # Each cell is validated before the grid's order is compared.
    for values in ('100,"a"', "100,null", "100,true"):
        assert main(["sweep", "--config", str(cfg), "--param", "n", "--values", values]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n must be an integer") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["conc", "noise", "--d", "abc"], ["run"], ["sweep", "--config", "c.json", "--param", "x"],
    [], ["conc", "noise", "x\ny"],
], ids=["bad_int", "missing_config", "bad_choice", "no_subcommand", "newline"])
def test_usage_errors_exit_1_with_one_line(capsys, argv):
    assert main(argv) == 1  # returns: argparse raises no SystemExit
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""


# The spectrum is checked at config time, so the bad cell fails before the
# first cell (d=10, or the d=2 cell that has r > d) runs.
@pytest.mark.parametrize("overrides, values, needle", [
    (dict(d=10, dt=[0.0] * 7), "10,12", "dt must have length d-r=9"),
    (dict(k=1, init={"mode": "random"}), "2,10", "r must be an integer in [1, 2], got 3"),
], ids=["dt_length", "r_above_d"])
def test_d_sweep_spectrum_errors_exit_1_before_any_cell_runs(
        tmp_path, capsys, monkeypatch, overrides, values, needle):
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg), "--param", "d", "--values", values]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needle}") and err.count("\n") == 1, err


# A planted start is built, and rejected, before the sensing operator.
@pytest.mark.parametrize("overrides, needle", [
    (dict(init={"rho": 0.5}), "init.rho must be a finite number > 0 and <= 0.07"),
    (dict(dt=[0.5, 0.4] + [0.0] * 15), "rank/spectrum leaves no room"),
], ids=["rho_above_0.07", "no_room_for_the_start"])
def test_planted_start_errors_exit_1_before_the_sensing_build(
        tmp_path, capsys, monkeypatch, overrides, needle):
    monkeypatch.setattr(msense.harness, "generate_sensing", no_compute)
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and err.count("\n") == 1, err


def test_oversized_operator_exits_1_before_compute(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(msense.cli, "run_experiment", no_compute)
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path)  # d=20, n=200, dense
    operator = msense.problem.sensing_bytes(20, 200)  # the d=20, n=200 build
    # The run's config is over budget; in the sweep only the d=40 cell is.
    for budget, argv in ((operator - 1, ["run", "--config", str(cfg)]),
                         (operator,
                          ["sweep", "--config", str(cfg), "--param", "d", "--values", "20,40"])):
        monkeypatch.setattr(msense.problem, "_memory_budget", lambda: budget)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "physical memory" in err and "Traceback" not in err


def test_sweep_stack_past_the_budget_steps_in_smaller_stacks(tmp_path, capsys, monkeypatch):
    """Each cell of the n sweep fits alone; a stack holds its d=20 operators (p = 210) and
    data terms besides its largest cell's build.  Past the budget the cells step in shorter
    stacks, or one at a time, with the same bytes."""
    cfg, out = write_config(tmp_path), tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(cfg), "--param", "n", "--values", "200,400,800",
            "--out", str(out)]
    cell, build = 8 * (210 * 210 + 20 * 20), msense.problem.sensing_bytes(20, 800)
    monkeypatch.setattr(msense.harness, "STACK_BYTES", 10 * cell)  # only the budget cuts
    stacked_cells, stacks = msense.harness._stacked_cells, []
    monkeypatch.setattr(msense.harness, "_stacked_cells",
                        lambda configs, *args: stacks.append(len(configs))
                        or stacked_cells(configs, *args))
    outputs = []
    for budget, want in ((3 * cell + build, [3]), (3 * cell + build - 1, [2]), (build, [])):
        stacks.clear()
        monkeypatch.setattr(msense.problem, "_memory_budget", lambda budget=budget: budget)
        assert main(argv) == 0
        assert stacks == want
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# A config checks the bytes the library checks: the ground truth in both modes and, in
# sample mode, the sensing build with its observations.  So a sweep's oversized last cell
# fails before the first cell runs.
@pytest.mark.parametrize("overrides, param, values", [
    ({}, "n", "200,400,800,100000000000000"),
    (dict(gradient_mode="population"), "d", "10,12,14,1000000"),
], ids=["sample_n", "population_d"])
def test_oversized_sweep_cell_exits_1_before_the_first_cell_runs(
        tmp_path, capsys, monkeypatch, overrides, param, values):
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(cfg), "--param", param, "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "physical memory" in captured.err and captured.out == ""


def test_run_missing_config_file_exits_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_run_divergence_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, eta=5.0, iters=400)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "diverged" in capsys.readouterr().err


def test_run_divergence_writes_the_partial_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path, eta=5.0, iters=400)
    out = tmp_path / "traj.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("numeric failure: run diverged at t=4:") and "\n" not in err
    lines = out.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]


def test_library_divergence_writes_the_same_partial_trajectory(tmp_path):
    """run_experiment keeps a diverging run's rows at config.output, byte for
    byte the file that msense run writes for the same config."""
    cfg = write_config(tmp_path, d=10, n=400, eta=5.0, seed=1)
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["run", "--config", str(cfg), "--out", str(cli_out)]) == 2
    config = msense.ExperimentConfig.from_dict(
        {**json.loads(cfg.read_text()), "output": str(lib_out)})
    with pytest.raises(msense.DivergenceError) as exc_info:
        msense.run_experiment(config)
    assert len(exc_info.value.trajectory.metrics) == 5
    assert lib_out.read_bytes() == cli_out.read_bytes()


# 1e308 overflows the noise, so the build's b is not finite and the gradient is NaN at t=0;
# 1e200 overflows the gradient norm at t=0 while err_spec is small;
# 1e140 overflows the gradient and the metrics at t=1.  n=1537 is four blocks, the second and
# the fourth drawn on the build's worker thread.
@pytest.mark.parametrize("sigma, cause, n", [
    pytest.param(sigma, cause, n, id=f"sigma_{sigma:.0e}".replace("+", "") + f"-n{n}" * (n > 1000))
    for sigma, cause in [(1e308, "t=0: grad_norm=nan is not finite"),
                         (1e200, "t=0: grad_norm=inf is not finite"),
                         (1e140, "t=1: err_spec=")]
    for n in (1000, 3 * 512 + 1)])
def test_run_huge_sigma_exits_2_with_one_line_and_no_warning(tmp_path, sigma, cause, n):
    cfg = write_config(tmp_path, d=10, r=2, k=3, n=n, iters=50, seed=1, sigma=sigma,
                       ds=[1.0, 0.8])
    proc = subprocess.run(
        [sys.executable, "-m", "msense.cli", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numeric failure: run diverged at "), proc.stderr
    assert proc.stderr.count("\n") == 1 and cause in proc.stderr, proc.stderr
    assert "Warning" not in proc.stderr


def test_sweep_huge_sigma_cell_diverges_without_a_warning(tmp_path):
    cfg = write_config(tmp_path, d=10, r=2, k=3, n=1000, iters=50, seed=1, ds=[1.0, 0.8])
    proc = subprocess.run(
        [sys.executable, "-m", "msense.cli", "sweep", "--config", str(cfg), "--param", "sigma",
         "--values", "0,1e308"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1] == "sigma=1e+308: plateau err_fro=n/a status=diverged"


def test_sweep_command(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=60)
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--config", str(cfg), "--param", "n",
        "--values", "100,200", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param,value")
    assert len(lines) == 3


def test_sweep_bad_values_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for values, message in (("200,100", "strictly increasing"), (",", "at least one value")):
        assert main(["sweep", "--config", str(cfg), "--param", "n", "--values", values]) == 1
        assert message in capsys.readouterr().err


def test_verify_pop_command(capsys):
    assert main(["verify", "pop", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "inequalities passing" in out
    assert "ss_contraction" in out


def test_verify_trials_below_one_exit_1_with_one_line(capsys):
    for what in ("pop", "init"):
        for trials in ("0", "-1"):
            assert main(["verify", what, "--trials", trials]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: --trials must be an integer >= 1, got {trials}\n"
            assert captured.out == ""


def test_verify_init_command(capsys):
    assert main(["verify", "init", "--trials", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "basin assumption holds: 10/10" in out
    assert "implication holds: 10/10" in out


def test_conc_noise_command(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    rc = main([
        "conc", "noise", "--d", "8", "--n", "100", "--trials", "5",
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out.split("wrote")[0])
    assert blob["trials"] == 5
    assert out.exists()


def test_conc_rejects_oversized_d_and_non_finite_sigma_before_drawing(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew sensing matrices")

    monkeypatch.setattr(msense.concentration, "draw_blocks", no_draw)
    for argv in (["conc", "noise", "--d", "100000000"],
                 ["conc", "deviation", "--d", "100000000"],
                 ["conc", "moment", "--d", "100000000"],
                 ["conc", "asq", "--d", "100000000"],
                 ["conc", "noise", "--sigma", "nan"],
                 ["conc", "noise", "--sigma", "inf"],
                 ["conc", "noise", "--sigma", "-1"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert ("physical memory" if "--d" in argv else "sigma must be a finite") in err


@pytest.mark.parametrize("kind", ["noise", "deviation"])
def test_conc_counts_one_value_per_trial_before_allocating(kind, capsys, monkeypatch):
    """10**11 trials keep 800 GB of per-trial values: one error line and
    exit 1 before any array is made, where numpy's allocation error used to
    end the command with a traceback."""
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the memory check")

    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    assert main(["conc", kind, "--d", "4", "--n", "10", "--trials", "100000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Monte Carlo draws needs 800.00 GB" in err


def test_conc_asq_command(capsys):
    assert main(["conc", "asq", "--d", "6", "--trials", "500", "--seed", "2"]) == 0
    assert "max_abs_z" in capsys.readouterr().out


def test_conc_deviation_and_moment(capsys):
    assert main(["conc", "deviation", "--d", "5", "--n", "50", "--trials", "4", "--seed", "1"]) == 0
    assert main(["conc", "moment", "--d", "4", "--trials", "800", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "sensing_deviation_spectral_norm" in out
    assert "second_moment" in out


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, key", [
    ("deviation --d 1 --n 20 --trials 3", "ratio_median"),  # reference scale 0 at log d = 0
    ("noise --sigma 0 --d 4 --n 20 --trials 3", "ratio_median"),
    ("noise --d 4 --n 20 --trials 1", "stderr"),
    ("asq --d 2 --trials 1", "max_abs_z"),
    # One trial: every stderr is 0, and the estimate is off d I, the exact moment, too.
    ("asq --d 3 --trials 1", "max_abs_z_vs_exact"),
], ids=["deviation_d_1", "noise_sigma_0", "noise_trials_1", "asq_trials_1",
        "asq_trials_1_vs_exact"])
def test_conc_prints_non_finite_values_as_null(capsys, argv, key):
    assert main(["conc", *argv.split()]) == 0
    out = capsys.readouterr().out
    blob = strict_json(out[: out.rindex("}") + 1])
    assert key in blob and blob[key] is None, blob


def test_conc_noise_prints_its_report_summary(capsys):
    rep = msense.concentration.mc_noise_term(d=6, sigma=1.0, n=100, trials=5, seed=13)
    assert main(["conc", "noise", "--d", "6", "--n", "100", "--trials", "5", "--seed", "13"]) == 0
    blob = strict_json(capsys.readouterr().out)
    assert blob["trials"] == 5
    assert blob["statistic"] == "noise_term_spectral_norm"
    assert blob["ratio_median"] == pytest.approx(rep.ratio_median)


def test_conc_rejects_d_below_one_with_one_line(capsys):
    for argv in (["conc", "moment", "--d", "0"], ["conc", "moment", "--d", "-1"],
                 ["conc", "deviation", "--d", "-1"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_conc_failed_trial_gives_one_error_line_and_leaves_no_thread(capsys, monkeypatch):
    """A trial that fails on either of conc's two threads ends the command with its own error
    line, after both threads have stopped."""
    real = msense.concentration.draw_blocks

    def draw_blocks(seed, purpose, n, d, distribution, trial=None, *args, **kwargs):
        if trial == 1:
            raise msense.errors.InputError("trial 1 failed")
        return real(seed, purpose, n, d, distribution, trial, *args, **kwargs)

    monkeypatch.setattr(msense.concentration, "draw_blocks", draw_blocks)
    threads = threading.active_count()
    assert main(["conc", "noise", "--d", "4", "--n", "50", "--trials", "3"]) == 1
    assert capsys.readouterr().err == "error: trial 1 failed\n"
    assert threading.active_count() == threads


@pytest.mark.parametrize("argv", ["noise --n 0", "deviation --trials 0", "asq --d 0",
                                  "moment --trials 0", "noise --trials -1"])
def test_conc_checks_every_kind_before_drawing_u(argv, capsys, monkeypatch):
    """Every kind is checked by check_mc_memory, sizes first, before U is drawn."""
    def no_u(*args, **kwargs):
        raise AssertionError("drew U")

    monkeypatch.setattr(msense.cli, "stream", no_u)
    monkeypatch.setattr(msense.concentration, "draw_blocks", no_u)
    assert main(["conc", *argv.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "must be an integer >= 1" in err


def test_conc_moment_never_reads_n(capsys):
    assert main(["conc", "moment", "--d", "3", "--n", "0", "--trials", "20"]) == 0
    assert strict_json(capsys.readouterr().out)["trials"] == 20


def test_conc_huge_sigma_exits_1_with_one_line_and_no_warning():
    for sigma in ("1e308", "1e200"):
        proc = subprocess.run(
            [sys.executable, "-m", "msense.cli", "conc", "noise", "--d", "4", "--n", "10",
             "--trials", "1", "--sigma", sigma],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "sigma" in proc.stderr and "Warning" not in proc.stderr


def test_conc_out_is_rejected_for_moment_and_asq_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew sensing matrices")

    monkeypatch.setattr(msense.concentration, "draw_blocks", no_draw)
    out = tmp_path / "mc.csv"
    for kind in ("moment", "asq"):
        assert main(["conc", kind, "--d", "4", "--trials", "10", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "--out" in err
    assert not out.exists()


def test_phases_command(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=200, output=str(tmp_path / "t.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["phases", "--traj", str(tmp_path / "t.csv"), "--eta", "0.1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["head_slope"] is not None
    assert blob["recursion_pass_rate"] is not None


def test_phases_rejects_non_positive_or_non_finite_eta(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=60, output=str(tmp_path / "t.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    for eta in ("nan", "inf", "-1", "0"):
        assert main(["phases", "--traj", str(tmp_path / "t.csv"), "--eta", eta]) == 1, eta
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta ") and captured.err.count("\n") == 1


def test_phases_missing_file_exits_1(tmp_path):
    assert main(["phases", "--traj", str(tmp_path / "none.csv")]) == 1


BINARY = bytes(range(256)) * 4  # 0x80-0xff alone are not valid UTF-8


def test_phases_malformed_trajectory_exits_1_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=20, output=str(tmp_path / "t.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "t.csv").read_text().splitlines()
    row = lines[3].split(",")
    bad_cell = ",".join(row[:1] + ["abc"] + row[2:])  # ss_err
    bad_t = ",".join(["1.5"] + row[1:])
    bad_elapsed = ",".join(row[:-1] + ["abc"])
    cases = {"bad_cell.csv": lines[:3] + [bad_cell] + lines[4:],
             "bad_t.csv": lines[:3] + [bad_t] + lines[4:],
             "bad_elapsed.csv": lines[:3] + [bad_elapsed] + lines[4:]}
    for name, content in cases.items():
        (tmp_path / name).write_text("\n".join(content) + "\n")
    (tmp_path / "binary.csv").write_bytes(BINARY)
    for name, needle in (("bad_cell.csv", "line 4"), ("bad_t.csv", "line 4"),
                         ("bad_elapsed.csv", "line 4"), ("binary.csv", "binary.csv")):
        assert main(["phases", "--traj", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert name in err and needle in err, err


# Each edit made the parent exit 0: a bare NaN in the JSON, a RuntimeWarning
# and a bare Infinity, or a RankWarning from the head fit.
PHASES_HOSTILE_EDITS = {
    "nan_cell": [(-3, "D", "nan")],  # a tail row: the c/t fit reads D
    "inf_cell": [(-3, "D", "inf"), (-3, "A", "inf")],
    "repeated_t": [(i, "t", "5") for i in range(1, 20)],
}


def write_edited_trajectory(tmp_path, capsys, edits):
    """A 61-row trajectory from `msense run`, with each (row, column, value) edit applied."""
    cfg = write_config(tmp_path, iters=60, output=str(tmp_path / "t.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "t.csv").read_text().splitlines()
    header = lines[0].split(",")
    for index, column, value in edits:
        row = lines[index].split(",")
        row[header.index(column)] = value
        lines[index] = ",".join(row)
    (tmp_path / "hostile.csv").write_text("\n".join(lines) + "\n")
    return tmp_path / "hostile.csv"


def _phases_at_offset(tmp_path, capsys, offset):
    """`msense phases` on a 401-row run trajectory whose t column is shifted by
    ``offset``: the report and stderr, with every warning recorded."""
    traj = tmp_path / "t.csv"
    if not traj.exists():
        cfg = write_config(tmp_path, iters=400, output=str(traj))
        assert main(["run", "--config", str(cfg)]) == 0
    lines = traj.read_text().splitlines()
    rows = [line.split(",", 1) for line in lines[1:]]
    shifted = tmp_path / f"t_{offset}.csv"
    shifted.write_text("\n".join([lines[0]] + [f"{int(t) + offset},{rest}" for t, rest in rows]))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phases", "--traj", str(shifted), "--eta", "0.1"]) == 0
    captured = capsys.readouterr()
    assert caught == []
    return json.loads(captured.out), captured.err


@pytest.mark.parametrize("offset", [0, 2**40, 2**50], ids=["0", "2**40", "2**50"])
def test_phases_head_fit_does_not_depend_on_the_t_offset(tmp_path, capsys, offset):
    """The head window (in t units), the head slope within 1e-9 relative and an
    empty stderr are the same wherever the t column starts below 2**53."""
    base, _ = _phases_at_offset(tmp_path, capsys, 0)
    assert base["head_window"] == [0, 400]
    report, err = _phases_at_offset(tmp_path, capsys, offset)
    assert err == ""
    assert report["head_window"] == [t + offset for t in base["head_window"]]
    assert report["head_slope"] == pytest.approx(base["head_slope"], rel=1e-9)


@pytest.mark.parametrize("offset", [0, 2**40, 2**50], ids=["0", "2**40", "2**50"])
def test_phases_tail_fit_and_envelope_do_not_depend_on_the_t_offset(tmp_path, capsys, offset):
    """The c/t tail constant (within 1e-9 relative) and the envelope verdict
    count t from the first row: they are the same wherever the t column
    starts.  Read from the raw t, an offset of 2**40 gave tail_c 34951.18
    for 1.16e-05 and turned envelope_pass false."""
    base, _ = _phases_at_offset(tmp_path, capsys, 0)
    assert base["envelope_pass"] is True and 0 < base["tail_c"] < 1e-3
    report, err = _phases_at_offset(tmp_path, capsys, offset)
    assert err == ""
    assert report["tail_c"] == pytest.approx(base["tail_c"], rel=1e-9)
    assert report["tail_residual"] == pytest.approx(base["tail_residual"], rel=1e-9)
    assert report["envelope_pass"] is base["envelope_pass"]


@pytest.mark.parametrize("case", sorted(PHASES_HOSTILE_EDITS))
def test_phases_rejects_non_finite_cells_and_repeated_t_with_one_line(tmp_path, capsys, case):
    path = write_edited_trajectory(tmp_path, capsys, PHASES_HOSTILE_EDITS[case])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phases", "--traj", str(path), "--eta", "0.1"]) == 1
    captured = capsys.readouterr()
    assert caught == [] and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "Warning" not in captured.err


# Unguarded, the first prints a RuntimeWarning, and the second a ValueError
# traceback from json.dumps (an overflowing norm gives NaN).
PHASES_HUGE_EDITS = {
    "A_1e308_in_the_first_row": [(1, "A", "1e308")],
    "D_and_A_1e300_over_the_tail_half": [(i, c, "1e300") for i in range(-31, 0) for c in "DA"],
}


@pytest.mark.parametrize("case", sorted(PHASES_HUGE_EDITS))
def test_phases_huge_finite_cells_print_strict_json_and_no_warning(tmp_path, capsys, case):
    path = write_edited_trajectory(tmp_path, capsys, PHASES_HUGE_EDITS[case])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["phases", "--traj", str(path), "--eta", "0.1"]) == 0
    captured = capsys.readouterr()
    assert caught == [] and captured.err == ""
    blob = strict_json(captured.out)
    assert blob["head_slope"] is not None and blob["recursion_pass_rate"] is not None


def test_phases_rejects_a_t_beyond_the_float_range_with_one_line(tmp_path, capsys):
    path = write_edited_trajectory(tmp_path, capsys, [(2, "t", str(10**400))])
    assert main(["phases", "--traj", str(path)]) == 1  # not an OverflowError from float()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3: t must be an integer" in err, err
    assert err.count("\n") == 1


def test_run_binary_config_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(BINARY)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and err.count("\n") == 1, err


def test_figures_command(tmp_path, monkeypatch, capsys, trajectory_rows_oracle,
                         line_chart_oracle):
    runs = {}
    real_run = msense.figures.run_experiment

    def counting_run(config, *args, **kwargs):
        assert config.output not in runs
        runs[config.output] = real_run(config, *args, **kwargs)
        return runs[config.output]

    monkeypatch.setattr(msense.figures, "run_experiment", counting_run)
    csv_writes = []
    real_write = msense.harness.write_trajectory_csv

    def counting_write(traj, path, *args, **kwargs):
        csv_writes.append(path)
        return real_write(traj, path, *args, **kwargs)

    monkeypatch.setattr(msense.harness, "write_trajectory_csv", counting_write)
    out_dir = tmp_path / "figs"
    rc = main(["figures", "--out", str(out_dir), "--seed", "11"])
    assert rc == 0
    assert len(runs) == 4  # fig2a/fig2b replot the fig1a/fig1b runs
    assert len({replace(traj.config, output=None) for traj in runs.values()}) == 4
    assert sorted(csv_writes) == sorted(runs)  # each run writes its first CSV; the rest copy it
    names = sorted(p.name for p in out_dir.iterdir())
    expected = []
    for stem in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b"):
        expected.extend([f"{stem}.csv", f"{stem}.svg"])
    assert names == sorted(expected)
    header = (out_dir / "fig2a.csv").read_text().splitlines()[0]
    for col in ("ss_err", "st_norm", "tt_norm", "tt_err"):
        assert col in header
    svg = (out_dir / "fig2a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    for decomp, err in (("fig2a", "fig1a"), ("fig2b", "fig1b")):
        assert (out_dir / f"{decomp}.csv").read_bytes() == (out_dir / f"{err}.csv").read_bytes()
    # The files come back in figure-name order, each with the per-row and per-point
    # writers' bytes for its run.
    assert capsys.readouterr().out.splitlines() == [f"wrote {out_dir / name}" for name in expected]
    for k, init, _, figs in msense.figures.RUNS:
        traj = runs[str(out_dir / f"{next(iter(figs))}.csv")]
        csv = "".join(row + "\n" for row in trajectory_rows_oracle(traj))
        t = traj.column("t")
        for name, curves in figs.items():
            assert (out_dir / f"{name}.csv").read_text() == csv, name
            series = [(msense.figures.CURVE_LABELS[c], t, traj.column(c).clip(min=0.0))
                      for c in curves]
            want = tmp_path / f"{name}.svg"
            line_chart_oracle(want, series, title=f"{name}: k={k}, {init} init",
                              ylabel="spectral norm")
            assert (out_dir / f"{name}.svg").read_bytes() == want.read_bytes(), name


def test_figures_validates_the_seed_before_creating_out(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    for seed in ("-1", str(2**64)):  # a seed is a 64-bit unsigned integer
        assert main(["figures", "--out", str(out_dir), "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed ") and err.count("\n") == 1, err
        assert not out_dir.exists()


def test_cli_choices_are_the_library_lists():
    """`sweep --param` and `conc KIND` offer the lists the library checks, not copies."""
    parser = msense.cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    param = next(a for a in commands["sweep"]._actions if a.dest == "param")
    kind = next(a for a in commands["conc"]._actions if a.dest == "kind")
    assert param.choices is msense.harness.SWEEP_PARAMS
    assert kind.choices is msense.concentration.KINDS


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, iters=10)
    proc = subprocess.run(
        [sys.executable, "-m", "msense.cli", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "final" in proc.stdout


# A subcommand that writes a file writes it before it prints.  A diverging run
# reports its divergence (exit 2), not the closed stdout.
CLOSED_STDOUT_COMMANDS = {
    "run": "run --config {cfg} --out {tmp}/out.csv",
    "run_diverging": "run --config {cfg} --out {tmp}/out.csv",
    "sweep": "sweep --config {cfg} --param n --values 100,200",
    "verify": "verify init --trials 5",
    "conc": "conc noise --d 5 --n 50 --trials 3 --out {tmp}/out.csv",
    "phases": "phases --traj {tmp}/traj.csv",
    "figures": "figures --out {tmp}/figures",
}
DIVERGING = dict(d=10, r=2, k=3, n=400, sigma=0.1, seed=1, ds=[1.0, 0.8], eta=5.0, iters=300)


# Buffered, as a pipe is by default, stdout fails when main flushes it;
# unbuffered, it fails in the first print.
CLOSED_STDOUT_CASES = ([(c, True) for c in sorted(CLOSED_STDOUT_COMMANDS)]
                       + [("conc", False), ("run_diverging", False)])


@pytest.mark.parametrize("command, buffered", CLOSED_STDOUT_CASES,
                         ids=[c if b else c + "_unbuffered" for c, b in CLOSED_STDOUT_CASES])
def test_a_closed_stdout_gives_one_error_line(tmp_path, command, buffered):
    diverging = command == "run_diverging"
    cfg = write_config(tmp_path, **(DIVERGING if diverging else dict(iters=60)))
    if command == "phases":
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "traj.csv")]) == 0
    argv = CLOSED_STDOUT_COMMANDS[command].format(cfg=cfg, tmp=tmp_path).split()
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "msense.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    code, prefix = (2, "numeric failure: ") if diverging else (1, "error: ")
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if "--out" in argv and command != "figures":  # the file of a normal run, byte for byte
        assert main(argv[:-1] + [str(tmp_path / "ref.csv")]) == (2 if diverging else 0)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class FullDisk(io.StringIO):
    """A file on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class ClosedPipe(io.StringIO):
    """A FIFO whose reader has gone: every write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


WRITE_FAILURES = {
    "run": "run --config {cfg} --out {tmp}/out.csv",
    "sweep": "sweep --config {cfg} --param n --values 100,200 --out {tmp}/out.csv",
    "conc": "conc noise --d 5 --n 50 --trials 3 --out {tmp}/out.csv",
    "figures": "figures --out {tmp}/figures",
}
WRITE_FAILURE_CASES = ([(c, FullDisk, errno.ENOSPC) for c in sorted(WRITE_FAILURES)]
                       + [(c, ClosedPipe, errno.EPIPE) for c in sorted(WRITE_FAILURES)])


@pytest.mark.parametrize("command, file, code", WRITE_FAILURE_CASES,
                         ids=[c if f is FullDisk else c + "_closed_pipe"
                              for c, f, _ in WRITE_FAILURE_CASES])
def test_a_failed_write_gives_one_error_line(tmp_path, monkeypatch, capsys, command, file, code):
    """Every output file is written through csvio; a disk that fills up under it, or a
    FIFO whose reader goes away, is one error line and exit 1, and nothing claims the
    file was written.  An EPIPE from a file is the file's, not stdout's."""
    cfg = write_config(tmp_path, iters=60)
    monkeypatch.setattr(msense.csvio, "open", lambda *args, **kwargs: file(), raising=False)
    assert main(WRITE_FAILURES[command].format(cfg=cfg, tmp=tmp_path).split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: write failed: [Errno {code}] {os.strerror(code)}\n"
