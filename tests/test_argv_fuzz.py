"""Fuzz the argv and file boundary of `msense conc`, `msense phases`,
`msense sweep`, `msense verify pop|init` and `msense figures`: whatever the
flags, the trajectory file and the config hold,
the command exits 0, 1 or 2, prints no traceback and no warning, prints
exactly one `error:` line when it exits 1, and prints strict JSON when it
exits 0 with a JSON report."""

import json
import math
import os
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

import msense.figures
from msense.cli import main
from msense.csvio import TRAJECTORY_HEADER
from msense.harness import Trajectory
from msense.subspace import IterateMetrics

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Huge integers are either rejected (a memory check for --d, a 64-bit check
# for --seed) or, for --n and --trials, replaced: a long run is valid input.
# So is a --d that fits in memory, so --d below 10**6 is capped at 6.
HOSTILE_INTS = st.one_of(
    st.sampled_from(["0", "-1", "-1000000000", "1000000000000", str(2**64), str(10**400),
                     "1.5", "1e3", "0x10", "nan", "inf", "", " ", "abc", "-h", "--"]),
    st.integers(-3, 0).map(str),
    st.text(max_size=4),
)
HOSTILE_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-0", "0", "1e-320", "1e150", "1e151",
                     "1e308", "1e400", "", "abc", "0x1p3"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
CONC_FLAGS = {
    "--d": (st.integers(1, 6).map(str), HOSTILE_INTS),
    "--n": (st.integers(1, 40).map(str), HOSTILE_INTS),
    "--trials": (st.integers(1, 6).map(str), HOSTILE_INTS),
    "--seed": (st.integers(0, 2**64 - 1).map(str), HOSTILE_INTS),
    "--sigma": (st.sampled_from(["0", "0.5", "1.0", "2"]), HOSTILE_FLOATS),
}
CONC_DEFAULTS = {"--d": 20, "--n": 1000, "--trials": 50}


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


@st.composite
def conc_argvs(draw):
    kinds = ["noise", "deviation", "moment", "asq"] * 2 + ["bogus"]
    argv = ["conc", draw(st.sampled_from(kinds))]
    sizes = dict(CONC_DEFAULTS)
    for flag, (valid, hostile) in CONC_FLAGS.items():
        choice = draw(st.sampled_from(["valid"] * 6 + ["missing", "hostile"]))
        if choice == "missing":
            continue
        value = draw(valid if choice == "valid" else hostile)
        if flag in ("--n", "--trials") and (_int_or_none(value) or 0) > 40:
            value = "2"
        if flag == "--d" and 6 < (_int_or_none(value) or 0) < 10**6:
            value = "6"
        argv += [flag, value]
        sizes[flag] = _int_or_none(value)
    # Flags left at their defaults draw 20 x 20 matrices 50 x 1000 times.
    d, n, trials = (sizes[flag] for flag in ("--d", "--n", "--trials"))
    if all(isinstance(v, int) and v > 0 for v in (d, n, trials)) and d * d * n * trials > 10**6:
        argv += ["--trials", "1"]
    out = draw(st.sampled_from([None, None, None, "mc.csv", ".", "missing/mc.csv"]))
    if out is not None:
        argv.append("--out=" + out)  # resolved under tmp_path
    extra = draw(st.sampled_from([[]] * 9 + [["--bogus"], ["--d"], None]))
    stray = st.text(max_size=4).filter(lambda a: not a.startswith(("-h", "--h")))  # not --help
    argv += [draw(stray)] if extra is None else extra
    return argv


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def run_main(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr, asserting the boundary contract."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2), (argv, rc)
    assert caught == [], (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return rc, out, err


@FUZZ
@given(argv=conc_argvs())
@example(argv=["conc", "moment", "--d", "0"])
@example(argv=["conc", "noise", "--d", "4", "--n", "10", "--trials", "1", "--sigma", "1e308"])
@example(argv=["conc", "asq", "--d", "abc"])
@example(argv=["conc"])
@example(argv=["conc", "noise", "--d", "2", "x\ny"])
def test_conc_never_tracebacks_on_hostile_argv(argv, tmp_path, capsys):
    argv = [a.replace("--out=", f"--out={tmp_path}/") for a in argv]
    rc, out, _ = run_main(argv, capsys)
    if rc == 0:
        blob = strict_json(out[: out.rindex("}") + 1])
        assert blob["trials"] >= 1, (argv, blob)


ROWS = 60


def trajectory_lines(rows):
    """A plausible trajectory CSV: a geometric head, then c/t in D and A."""
    lines = [TRAJECTORY_HEADER]
    for t in range(rows):
        ss, tail = 0.5 * 0.9**t, 1.0 / (t + 1)
        cells = [t, ss, 0.1 * ss, 0.2 * tail, tail, tail, 0.9 * tail, ss + tail, ss + tail, ss]
        lines.append(",".join([str(t), *map(repr, cells[1:]), "", ""]))
    return lines


HOSTILE_CELLS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "", "abc", str(10**400), str(2**53), "1.5"]),
    st.sampled_from(["1e300", "1e308", "-1e308", "1e-320", "5e-324", "0", "-1", "2"]),
    st.text(max_size=3),
)
COLUMNS = TRAJECTORY_HEADER.split(",")


@st.composite
def trajectory_files(draw):
    lines = trajectory_lines(draw(st.sampled_from([ROWS] * 6 + [0, 1, 49, 50])))
    rows = len(lines) - 1
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2])) if rows else 0):
        index = draw(st.integers(1, rows))
        cells = lines[index].split(",")
        edit = draw(st.sampled_from(["cell", "cell", "truncate", "duplicate_t", "extra_cell"]))
        if edit == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(HOSTILE_CELLS)
        elif edit == "truncate":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif edit == "duplicate_t" and index > 1:
            cells[0] = lines[index - 1].split(",")[0]
        elif edit == "extra_cell":
            cells.append("0")
        lines[index] = ",".join(cells)
    if rows and draw(st.booleans()):  # huge finite cells over a whole stretch
        column = COLUMNS.index(draw(st.sampled_from(["ss_err", "D", "A"])))
        value = draw(st.sampled_from(["1e300", "1e308", "-1e308", "1e-320"]))
        start = draw(st.sampled_from([0, rows // 2]))
        for index in range(1 + start, draw(st.integers(1 + start, rows)) + 1):
            cells = lines[index].split(",")
            if column < len(cells):
                cells[column] = value
            lines[index] = ",".join(cells)
    if draw(st.sampled_from([False] * 9 + [True])):
        lines = lines[1:]  # no header
    return "\n".join(lines) + "\n"


@st.composite
def phases_argvs(draw):
    """``phases`` argv with a placeholder --traj path, and the trajectory file's content."""
    argv = ["phases"]
    traj = draw(st.sampled_from(["t.csv"] * 9 + ["missing.csv", ".", None, "t.csv"]))
    if traj is not None:
        argv += ["--traj", traj]
    eta = draw(st.sampled_from(["missing", "valid", "valid", "hostile"]))
    if eta != "missing":
        argv += ["--eta", draw(st.sampled_from(["0.1", "0.5", "1", "1e308"]) if eta == "valid"
                               else HOSTILE_FLOATS)]
    return argv, draw(trajectory_files())


@FUZZ
@given(case=phases_argvs())
@example(case=(["phases", "--traj", "t.csv", "--eta", "0.1"],
               "\n".join(trajectory_lines(ROWS)) + "\n"))
def test_phases_never_tracebacks_on_hostile_files_and_argv(case, tmp_path, capsys):
    argv, content = case
    (tmp_path / "t.csv").write_text(content)
    argv = [str(tmp_path / a) if a.endswith(".csv") or a == "." else a for a in argv]
    rc, out, _ = run_main(argv, capsys)
    if rc == 0:
        blob = strict_json(out)
        for key in ("tail_c", "tail_residual", "head_slope", "recursion_pass_rate"):
            assert blob[key] is None or math.isfinite(blob[key]), (argv, blob)


# Python's json raises ValueError, not JSONDecodeError, past 4300 digits, and
# RecursionError past about 1000 levels of nesting.
TOO_MANY_DIGITS, TOO_DEEP = "1" + "0" * 5000, "[" * 100000
HUGE_N = '{"n": ' + TOO_MANY_DIGITS + "}"
SWEEP_CONFIG = json.dumps(dict(d=3, r=1, k=2, n=8, iters=5, seed=1, ds=[1.0], sigma=0.1))

# Valid grid entries stay small: d <= 6, n <= 64.  Hostile entries are not
# JSON, are JSON of the wrong type, are not finite, or are too large to fit
# in memory; a large but valid n or d would be a long run, not bad input.
SWEEP_VALUES = {
    "n": st.integers(1, 64).map(str),
    "k": st.integers(1, 6).map(str),
    "d": st.integers(1, 6).map(str),
    "sigma": st.sampled_from(["0", "0.05", "0.1", "0.5", "1", "1e3"]),
}
HOSTILE_VALUES = st.one_of(
    st.sampled_from(['"a"', "null", "true", "[]", "{}", "[1]", "NaN", "Infinity", "-Infinity",
                     "1e400", "-1", "0", "1.5", "1e308", "1e-320", str(2**64), str(10**30),
                     "0x10", "abc", '"', "[1", "{", "nul", "01", "1e3", "-0", TOO_MANY_DIGITS,
                     TOO_DEEP]),
    st.text(max_size=4),
)
SWEEP_PARTS = ["config", "file", "path", "param", "values", "extra"]
HOSTILE_FIELDS = st.sampled_from([
    10**12, 2**63, -1, 0, True, None, math.nan, math.inf, 1e308, 2.5, "", "x", "theory",
    [], [math.nan], [1.0, "x"], [2.0, 1.0], {}, {"mode": "spectral"}, {"rho": 1e308},
])


@st.composite
def sweep_cases(draw):
    """``sweep`` argv with placeholder paths, and the config file's content.
    About half the cases are valid; the rest spoil one part, or all of them."""
    spoil = draw(st.sampled_from(["nothing"] * 6 + SWEEP_PARTS + ["everything"]))
    bad = {part: spoil in (part, "everything") for part in SWEEP_PARTS}
    d = draw(st.integers(1, 6))
    r = draw(st.integers(1, d))
    config = {
        "d": d, "r": r, "k": draw(st.integers(r, d)), "n": draw(st.integers(1, 64)),
        "iters": draw(st.integers(1, 20)), "seed": draw(st.integers(0, 2**64 - 1)),
        "sigma": draw(st.sampled_from([0.0, 0.1])), "ds": [1.0 - 0.1 * i for i in range(r)],
        "eta": draw(st.sampled_from([0.1, "theory"])),
        "init": {"mode": draw(st.sampled_from(["planted", "random", "spectral"]))},
        "gradient_mode": draw(st.sampled_from(["sample"] * 3 + ["population"])),
        "distribution": draw(st.sampled_from(["gaussian", "rademacher"])),
        "track_delta": draw(st.booleans()),
    }
    for key in draw(st.lists(st.sampled_from(sorted(config) + ["output", "bogus"]),
                             min_size=1, max_size=2, unique=True)) if bad["config"] else ():
        value = draw(HOSTILE_FIELDS)
        if key in ("n", "iters", "d") and type(value) is int and 64 < value < 10**12:
            continue  # a long run is valid input, not malformed input
        config[key] = value
    content = json.dumps(config)
    if bad["file"]:
        content = draw(st.sampled_from(["{", "[]", "", TOO_DEEP, HUGE_N]))
    argv = ["sweep"]
    for flag, path in (("--config", "c.json"), ("--out", "sweep.csv")):
        if bad["path"]:
            path = draw(st.sampled_from(["missing/" + path, ".", None]))
        if path is not None and (flag == "--config" or draw(st.booleans())):
            argv += [flag, path]
    param = draw(st.sampled_from(["x", "", "N"] if bad["param"] else sorted(SWEEP_VALUES)))
    argv += ["--param", param]
    valid = SWEEP_VALUES.get(param, SWEEP_VALUES["n"])
    values = draw(st.lists(valid, min_size=1, max_size=4, unique=True))
    if bad["values"]:
        values.insert(draw(st.integers(0, len(values))), draw(HOSTILE_VALUES))
        values = draw(st.permutations(values))
    else:  # a grid must be strictly increasing
        values.sort(key=float)
    argv += ["--values", ",".join(values)]
    if bad["extra"]:
        argv += draw(st.sampled_from([["--bogus"], ["--values"], ["stray"], ["--param", "n"]]))
    return argv, content


@FUZZ
@given(case=sweep_cases())
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", "8,abc"], SWEEP_CONFIG))
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", TOO_MANY_DIGITS],
               SWEEP_CONFIG))
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", TOO_DEEP], SWEEP_CONFIG))
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", "8"], TOO_DEEP))
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", "8"], HUGE_N))
@example(case=(["sweep", "--config", "c.json", "--param", "n", "--values", "5,1" + "0" * 3999],
               SWEEP_CONFIG))  # the cell's byte count is past the float range
def test_sweep_never_tracebacks_on_hostile_configs_and_argv(case, tmp_path, capsys):
    argv, content = case
    (tmp_path / "c.json").write_text(content)
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) or a == "." else a for a in argv]
    rc, out, _ = run_main(argv, capsys)
    if rc == 0:
        assert "plateau err_fro=" in out and "log-log slope" in out, (argv, out)


# Each verify trial takes a few milliseconds, so a count past 4, or the
# default of 100 or 200, becomes 2: a long battery is valid input.
VERIFY_FLAGS = {
    "--trials": (st.integers(1, 4).map(str), HOSTILE_INTS),
    "--seed": (st.integers(0, 2**64 - 1).map(str), HOSTILE_INTS),
}


@st.composite
def verify_argvs(draw, what):
    argv = ["verify", draw(st.sampled_from([what] * 9 + ["bogus"]))]
    for flag, (valid, hostile) in VERIFY_FLAGS.items():
        choice = draw(st.sampled_from(["valid"] * 4 + ["missing", "hostile"]))
        if choice != "missing":
            argv += [flag, draw(valid if choice == "valid" else hostile)]
    if "--trials" not in argv or (_int_or_none(argv[argv.index("--trials") + 1]) or 0) > 4:
        argv += ["--trials", "2"]
    extra = draw(st.sampled_from([[]] * 9 + [["--bogus"], ["--seed"], None]))
    stray = st.text(max_size=4).filter(lambda a: not a.startswith(("-h", "--h")))  # not --help
    argv += [draw(stray)] if extra is None else extra
    return argv


VERIFY_SUMMARY = {"pop": "samples with all 8 inequalities passing: ",
                  "init": "basin assumption holds: "}


def check_verify(argv, capsys):
    rc, out, _ = run_main(argv, capsys)
    if rc == 0:
        assert out.startswith(VERIFY_SUMMARY[argv[1]]), (argv, out)


@FUZZ
@given(argv=verify_argvs("pop"))
@example(argv=["verify", "pop", "--trials", "0"])
@example(argv=["verify", "pop", "--trials", "2", "--seed", str(2**64)])
@example(argv=["verify", "pop", "--trials", "2", "--seed", str(2**64 - 1)])
def test_verify_pop_never_tracebacks_on_hostile_argv(argv, capsys):
    check_verify(argv, capsys)


@FUZZ
@given(argv=verify_argvs("init"))
@example(argv=["verify", "init", "--trials", "-1"])
@example(argv=["verify", "init", "--trials", "2", "--seed", "-1"])
@example(argv=["verify", "init", "--trials", "2", "--seed", str(2**64 - 1)])
def test_verify_init_never_tracebacks_on_hostile_argv(argv, capsys):
    check_verify(argv, capsys)


def stub_run(config):
    """A five-row trajectory in place of the run: this fuzz is about the command's boundary."""
    rows = [IterateMetrics(t, *[0.5**t] * 9) for t in range(5)]
    return Trajectory(config=config, metrics=rows, elapsed_ms=[0.0] * len(rows))


@st.composite
def figures_argvs(draw):
    """``figures`` argv; an --out path is resolved under tmp_path/out, unless it is empty."""
    argv = ["figures"]
    out = draw(st.sampled_from(["valid"] * 5 + ["missing", "hostile", "hostile"]))
    if out != "missing":
        argv += ["--out", draw(st.sampled_from(["figs", "a/b", "", ".", "file", "file/sub"])
                              if out == "valid" else st.text(max_size=4))]
    seed = draw(st.sampled_from(["valid"] * 4 + ["missing", "hostile"]))
    if seed != "missing":
        argv += ["--seed", draw(st.integers(0, 2**64 - 1).map(str) if seed == "valid"
                                else HOSTILE_INTS)]
    extra = draw(st.sampled_from([[]] * 9 + [["--bogus"], ["--out"], None]))
    stray = st.text(max_size=4).filter(lambda a: not a.startswith(("-h", "--h")))  # not --help
    argv += [draw(stray)] if extra is None else extra
    return argv


@FUZZ
@given(argv=figures_argvs())
@example(argv=["figures", "--out", "figs", "--seed", "2020"])
@example(argv=["figures", "--out", "file", "--seed", "1"])
@example(argv=["figures", "--out", "", "--seed", "1"])
@example(argv=["figures", "--out", "a\x00b"])  # a library caller can pass what argv cannot
def test_figures_never_tracebacks_on_hostile_argv(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(msense.figures, "run_experiment", stub_run)
    base = tmp_path / "out"
    base.mkdir(exist_ok=True)
    (base / "file").write_text("not a directory")
    if "--out" in argv[:-1]:
        i = argv.index("--out") + 1
        argv[i] = f"{base}/{argv[i]}" if argv[i] else ""
    rc, out, _ = run_main(argv, capsys)
    if rc == 0:
        written = [line.removeprefix("wrote ") for line in out.split("\n")[:-1]]
        assert len(written) == 12 and all(os.path.isfile(p) for p in written), (argv, out)
