"""Fuzz the config boundary: whatever a config file holds, `msense run`
exits 0, 1 or 2 with at most a one-line message, and never a traceback."""

import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from msense.cli import main

FIELDS = ("d", "r", "k", "n", "iters", "seed", "sigma", "ds", "dt", "eta", "init",
          "gradient_mode", "distribution", "track_delta", "delta_every", "memory_mode")

# Huge integers are big enough that a size field (d, r, k, n) holding one is
# rejected (k > d, a length mismatch or a memory check), never run.
HOSTILE = st.one_of(
    st.sampled_from([
        10**12, 2**63, 10**30, -1, -10**9, 0, True, False, None,
        math.nan, math.inf, -math.inf, -0.5, 1e308, 2.5,
        "", "20", "theory", "zeros", "regenerate", "population", "rademacher",
        [], [math.nan], [1.0, "x"], [1e308], [2.0, 1.0], {},
        {"mode": "x"}, {"mode": "spectral"}, {"mode": "random", "scale": 1e308},
        {"rho": math.nan}, {"rho": 1e308}, {"rho": -1}, {"bogus": 1},
    ]),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


@st.composite
def configs(draw):
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    data = {
        "d": d, "r": r, "k": draw(st.integers(r, d)), "n": draw(st.integers(1, 40)),
        "iters": draw(st.integers(1, 5)), "seed": draw(st.integers(0, 2**64 - 1)),
        "sigma": draw(st.sampled_from([0.0, 0.1])),
        "ds": [1.0 - 0.1 * i for i in range(r)], "dt": "zeros",
        "eta": draw(st.sampled_from([0.1, "theory"])),
        "init": {"mode": draw(st.sampled_from(["planted", "random", "spectral"]))},
        "gradient_mode": draw(st.sampled_from(["sample", "population"])),
        "distribution": draw(st.sampled_from(["gaussian", "rademacher"])),
        "track_delta": draw(st.booleans()),
        "memory_mode": draw(st.sampled_from(["dense", "regenerate"])),
    }
    for key in draw(st.lists(st.sampled_from(FIELDS + ("bogus",)), max_size=4, unique=True)):
        value = draw(HOSTILE)
        if key == "iters" and type(value) is int and value > 6:
            continue  # a long run is valid input, not malformed input
        data[key] = value
    return data


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=configs())
@example(data=dict(d=10**12, r=1, k=1, n=5, iters=2, seed=1, ds=[1.0], gradient_mode="population"))
@example(data=dict(d=2, r=1, k=1, n=10**12, iters=2, seed=1, ds=[1.0], memory_mode="regenerate"))
@example(data=dict(d=20, r=3, k=10**8, n=5, iters=2, seed=1, ds=[1.0, 0.9, 0.8]))
@example(data=dict(d=2, r=1, k=1, n=5, iters=2, seed=1, ds=[1.0], sigma=10**400))  # past float
# An overflowed data term, on which eigh of the spectral start does not converge.
@example(data=dict(d=10, r=2, k=3, n=400, iters=2, seed=1, ds=[1.0, 0.9], sigma=1e308,
                   init={"mode": "spectral"}))
# Sizes whose memory check counts bytes past the float range.
@example(data=dict(d=4, r=1, k=1, n=10**3999, iters=2, seed=1, ds=[1.0]))
@example(data=dict(d=10**400, r=1, k=1, n=5, iters=2, seed=1, ds=[1.0]))
def test_run_never_tracebacks_on_hostile_configs(data, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (data, rc)
    assert "Traceback" not in err, (data, err)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (data, err)
