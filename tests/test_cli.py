import json
import subprocess
import sys

import msense.cli
import msense.concentration
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
    # Each cell is validated before the grid's order is compared.
    for values in ('100,"a"', "100,null", "100,true"):
        assert main(["sweep", "--config", str(cfg), "--param", "n", "--values", values]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n must be an integer") and err.count("\n") == 1, err


def test_oversized_operator_exits_1_before_compute(tmp_path, capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started")

    monkeypatch.setattr(msense.cli, "run_experiment", no_compute)
    monkeypatch.setattr(msense.harness, "run_experiment", no_compute)
    cfg = write_config(tmp_path)  # d=20, n=200, dense
    operator = 2 * 8 * (20 * 21 // 2) ** 2  # the d=20 operator and its build buffer
    # The run's config is over budget; in the sweep only the d=40 cell is.
    for budget, argv in ((operator - 1, ["run", "--config", str(cfg)]),
                         (operator,
                          ["sweep", "--config", str(cfg), "--param", "d", "--values", "20,40"])):
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


def test_verify_trials_below_one_exit_1_with_one_line(capsys):
    for what in ("pop", "init"):
        for trials in ("0", "-1"):
            assert main(["verify", what, "--trials", trials]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: --trials must be at least 1, got {trials}\n"
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

    monkeypatch.setattr(msense.concentration, "_draw", no_draw)
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


def test_conc_asq_command(capsys):
    assert main(["conc", "asq", "--d", "6", "--trials", "500", "--seed", "2"]) == 0
    assert "max_abs_z" in capsys.readouterr().out


def test_conc_deviation_and_moment(capsys):
    assert main(["conc", "deviation", "--d", "5", "--n", "50", "--trials", "4", "--seed", "1"]) == 0
    assert main(["conc", "moment", "--d", "4", "--trials", "800", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "sensing_deviation_spectral_norm" in out
    assert "second_moment" in out


def test_conc_rejects_d_below_one_with_one_line(capsys):
    for argv in (["conc", "moment", "--d", "0"], ["conc", "moment", "--d", "-1"],
                 ["conc", "deviation", "--d", "-1"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


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

    monkeypatch.setattr(msense.concentration, "_draw", no_draw)
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
    cases = {"bad_cell.csv": lines[:3] + [bad_cell] + lines[4:],
             "bad_t.csv": lines[:3] + [bad_t] + lines[4:]}
    for name, content in cases.items():
        (tmp_path / name).write_text("\n".join(content) + "\n")
    (tmp_path / "binary.csv").write_bytes(BINARY)
    for name, needle in (("bad_cell.csv", "line 4"), ("bad_t.csv", "line 4"),
                         ("binary.csv", "binary.csv")):
        assert main(["phases", "--traj", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert name in err and needle in err, err


def test_run_binary_config_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(BINARY)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and err.count("\n") == 1, err


def test_figures_command(tmp_path, monkeypatch):
    runs = []
    real_run = msense.figures.run_experiment

    def counting_run(config, *args, **kwargs):
        runs.append(config)
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(msense.figures, "run_experiment", counting_run)
    csv_writes = []
    real_write = msense.figures.write_trajectory_csv

    def counting_write(traj, path, *args, **kwargs):
        csv_writes.append(path)
        return real_write(traj, path, *args, **kwargs)

    monkeypatch.setattr(msense.figures, "write_trajectory_csv", counting_write)
    out_dir = tmp_path / "figs"
    rc = main(["figures", "--out", str(out_dir), "--seed", "11"])
    assert rc == 0
    assert len(runs) == 4  # fig2a/fig2b replot the fig1a/fig1b runs
    assert len(csv_writes) == 4  # and copy their CSVs
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
