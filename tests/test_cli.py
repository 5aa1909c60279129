import json
import subprocess
import sys

import msense.cli
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
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(msense.cli, "run_experiment", no_compute)
    cases = (("d", "20"), ("iters", 5.5), ("ds", "abc"), ("n", True), ("sigma", float("nan")),
             ("k", 100000000), ("output", str(tmp_path / "missing" / "traj.csv")))
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


def test_oversized_operator_exits_1_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(msense.cli, "run_experiment", no_compute)
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path)  # d=20, n=200, dense
    # The run's config is over budget; in the sweep only the n=400 cell is.
    for budget, argv in ((8 * 20**4, ["run", "--config", str(cfg)]),
                         (8 * (20**4 + 200 * 20**2),
                          ["sweep", "--config", str(cfg), "--param", "n", "--values", "100,400"])):
        monkeypatch.setattr(msense.problem, "_memory_budget", lambda: budget)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "physical memory" in err and "Traceback" not in err


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


def test_sweep_bad_values_exit_1(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "n", "--values", "200,100"]) == 1


def test_verify_pop_command(capsys):
    assert main(["verify", "pop", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "inequalities passing" in out
    assert "ss_contraction" in out


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


def test_conc_asq_command(capsys):
    assert main(["conc", "asq", "--d", "6", "--trials", "500", "--seed", "2"]) == 0
    assert "max_abs_z" in capsys.readouterr().out


def test_conc_deviation_and_moment(capsys):
    assert main(["conc", "deviation", "--d", "5", "--n", "50", "--trials", "4", "--seed", "1"]) == 0
    assert main(["conc", "moment", "--d", "4", "--trials", "800", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "sensing_deviation_spectral_norm" in out
    assert "second_moment" in out


def test_phases_command(tmp_path, capsys):
    cfg = write_config(tmp_path, iters=200, output=str(tmp_path / "t.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["phases", "--traj", str(tmp_path / "t.csv"), "--eta", "0.1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["head_slope"] is not None
    assert blob["recursion_pass_rate"] is not None


def test_phases_missing_file_exits_1(tmp_path):
    assert main(["phases", "--traj", str(tmp_path / "none.csv")]) == 1


def test_figures_command(tmp_path, monkeypatch):
    runs = []
    real_run = msense.figures.run_experiment

    def counting_run(config, *args, **kwargs):
        runs.append(config)
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(msense.figures, "run_experiment", counting_run)
    out_dir = tmp_path / "figs"
    rc = main(["figures", "--out", str(out_dir), "--seed", "11"])
    assert rc == 0
    assert len(runs) == 4  # fig2a/fig2b replot the fig1a/fig1b runs
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


def test_console_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, iters=10)
    proc = subprocess.run(
        [sys.executable, "-m", "msense.cli", "run", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "final" in proc.stdout
