"""The package's three input rules, ``msense.errors.count``, ``number`` and ``choice``, and
the library entry points that apply them: a malformed size, scalar or enumerated value is an
InputError naming its argument, raised before any compute and with no numpy warning."""

import json
import re
import warnings

import numpy as np
import pytest

from msense import (ExperimentConfig, InputError, check_initialization, generate_ground_truth,
                    generate_sensing, planted_init, random_init, spectral_init,
                    verify_population_contraction)
from msense import concentration, problem
from msense.cli import main
from msense.concentration import (check_mc_memory, mc_A_squared, mc_noise_term,
                                  mc_second_moment, mc_sensing_deviation)
from msense.errors import choice, count, number
from msense.problem import check_memory
from msense.rng import stream

NAN, INF = float("nan"), float("inf")


def _config(init):
    return ExperimentConfig(d=10, r=2, k=3, n=100, iters=5, seed=1, ds=(1.0, 0.8), init=init)


def _contraction(gt, s_shape, t_shape):
    return verify_population_contraction(np.zeros(s_shape), np.zeros(t_shape), gt, 1e-3)


# (the argument the message starts with, the call); before the two rules each call
# returned a non-finite or wrong result, or ended in a TypeError traceback.
LIBRARY_EXAMPLES = {
    "sensing_nan_sigma": ("sigma", lambda gt, s: generate_sensing(gt, 10, NAN)),
    "sensing_fractional_n": ("n", lambda gt, s: generate_sensing(gt, 2.5, 0.1)),
    "noise_fractional_n": ("n", lambda gt, s: mc_noise_term(4, 1.0, 2.5, 2, 1)),
    "noise_bool_trials": ("trials", lambda gt, s: mc_noise_term(4, 1.0, 10, True, 1)),
    "ground_truth_fractional_seed": (
        "seed", lambda gt, s: generate_ground_truth(6, 1, [1.0], "zeros", seed=3.9)),
    "ground_truth_nan_ds": (
        "ds entry 0", lambda gt, s: generate_ground_truth(6, 1, [NAN], "zeros", seed=1)),
    "ground_truth_nan_dt": (
        "dt entry 0", lambda gt, s: generate_ground_truth(4, 1, [1.0], [NAN, 0.0, 0.0], seed=1)),
    "ground_truth_fractional_d": (
        "d", lambda gt, s: generate_ground_truth(2.5, 1, [1.0], "zeros", seed=1)),
    "random_init_infinite_scale": ("scale", lambda gt, s: random_init(6, 2, INF, 1)),
    "check_initialization_nan_rho": (
        "rho", lambda gt, s: check_initialization(planted_init(gt, 4, 0.07, 1), gt, NAN)),
    "planted_init_fractional_k": ("k", lambda gt, s: planted_init(gt, 3.5, 0.07, 1)),
    "spectral_init_fractional_k": ("k", lambda gt, s: spectral_init(s, 2.5)),
    # An init that is not an InitSpec once ended in an AttributeError on .mode.
    "config_init_str": ("init", lambda gt, s: _config("planted")),
    "config_init_none": ("init", lambda gt, s: _config(None)),
    "config_init_dict": ("init", lambda gt, s: _config({"mode": "planted"})),
    # A misshapen S or T once ended in numpy's broadcast or matmul ValueError.
    "contraction_s_rows": ("S", lambda gt, s: _contraction(gt, (2, 4), (17, 4))),
    "contraction_s_vector": ("S", lambda gt, s: _contraction(gt, (3,), (17, 4))),
    "contraction_t_rows": ("T", lambda gt, s: _contraction(gt, (3, 4), (16, 4))),
    "contraction_k_mismatch": ("T", lambda gt, s: _contraction(gt, (3, 4), (17, 5))),
}


@pytest.mark.parametrize("needle, call", LIBRARY_EXAMPLES.values(), ids=LIBRARY_EXAMPLES)
def test_library_entry_points_reject_malformed_input(needle, call, gt20, sensing20):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError, match=f"^{re.escape(needle)} "):
            call(gt20, sensing20)
    assert caught == []


@pytest.mark.parametrize("call", [
    lambda: count("n", True, 0), lambda: count("n", 3.0, 0), lambda: count("n", "3", 0),
    lambda: count("n", 0, 1), lambda: count("n", 5, 1, 4),
    lambda: number("x", True), lambda: number("x", "1"), lambda: number("x", NAN),
    lambda: number("x", -INF), lambda: number("x", 10**400), lambda: number("x", -1e-300, 0),
    lambda: number("x", 0.0, 0, strict=True), lambda: number("x", 2, 0, 1),
], ids=["count_bool", "count_float", "count_str", "count_below", "count_above",
        "number_bool", "number_str", "number_nan", "number_inf", "number_huge_int",
        "number_below", "number_at_a_strict_bound", "number_above"])
def test_the_two_rules_reject(call):
    with pytest.raises(InputError, match="^[nx] must be "):
        call()


def test_the_two_rules_accept_and_return_their_value():
    assert count("n", np.int64(3), 1, 3) == 3 and count("seed", 2**64 - 1, 0, 2**64 - 1)
    assert number("x", 0, 0) == 0 and number("x", 0.07, 0, 0.07, strict=True) == 0.07
    assert number("x", np.float64(-2.5)) == -2.5 and number("x", 10**300) == 10**300


@pytest.mark.parametrize("value", ["c", "", "A", 1, None, True, ["a"], ("a",), b"a"])
def test_the_choice_rule_rejects_anything_but_a_listed_string(value):
    with pytest.raises(InputError, match=r"^x must be one of \['a', 'b'\], got "):
        choice("x", value, ("a", "b"))


def test_the_choice_rule_accepts_and_returns_its_value():
    assert choice("x", "b", ("a", "b")) == "b" and choice("x", "a", {"a": 1}) == "a"


HUGE = 10**5000  # past Python's 4300-digit limit for int-to-str conversion
LONG = 10**3999
UNPRINTABLE_INT = "<int too long to print>"

# Each message used to end in a ValueError raised while formatting the rejected value
# (or, for the byte count, an OverflowError converting it to a float).
UNPRINTABLE = {
    "count": (rf"^n must be an integer in \[1, 10\], got {UNPRINTABLE_INT}$",
              lambda gt: count("n", HUGE, 1, 10)),
    "count_list": (r"^n must be an integer >= 1, got <list too long to print>$",
                   lambda gt: count("n", [HUGE], 1)),
    "number": (rf"^sigma must be a finite number >= 0, got {UNPRINTABLE_INT}$",
               lambda gt: number("sigma", -HUGE, 0)),
    "choice": (r"^x must be one of \['a'\], got <list too long to print>$",
               lambda gt: choice("x", [HUGE], ("a",))),
    "sensing_n": (rf"^the d=20, n={UNPRINTABLE_INT} sensing build needs at least 2\*\*\d+ ",
                  lambda gt: generate_sensing(gt, HUGE, 0.1)),
    "ground_truth_d": (rf"^the d={UNPRINTABLE_INT} ground truth needs at least 2\*\*\d+ ",
                       lambda gt: generate_ground_truth(HUGE, 1, [1.0], "zeros", seed=1)),
    "monte_carlo_d": (rf"^the d={UNPRINTABLE_INT} Monte Carlo draws needs at least 2\*\*",
                      lambda gt: check_mc_memory("noise", HUGE, 10, 2)),
    "byte_count": (r"^x needs at least 2\*\*1024 bytes, more than half of physical memory",
                   lambda gt: check_memory(2**1024 + 1, "x")),
    # Printable, but 4,000 digits: cut short, with the length it had.
    "long_count": (r"^n must be an integer in \[1, 10\], got 10{59}\.\.\. \(4000 characters\)$",
                   lambda gt: count("n", LONG, 1, 10)),
    "long_sensing_n": (r"^the d=20, n=10{59}\.\.\. \(4000 characters\) sensing build needs ",
                       lambda gt: generate_sensing(gt, LONG, 0.1)),
}


@pytest.mark.parametrize("pattern, call", UNPRINTABLE.values(), ids=UNPRINTABLE)
def test_values_too_long_to_print_are_described(pattern, call, gt20):
    with pytest.raises(InputError, match=pattern) as exc_info:
        call(gt20)
    assert len(str(exc_info.value)) < 300


def test_a_long_config_value_gives_a_short_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(d=4, r=1, k=1, n=LONG, iters=2, seed=1, ds=[1.0])))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the d=4, n=1000") and err.count("\n") == 1, err
    assert len(err) < 300 and "(4000 characters)" in err


def test_a_byte_count_in_the_float_range_keeps_its_gb_form(monkeypatch):
    monkeypatch.setattr(problem, "_memory_budget", lambda: 10**9)
    with pytest.raises(InputError, match=r"^x needs 12\.35 GB, more than half of physical "
                                         r"memory \(1\.00 GB\)$"):
        check_memory(12_345_678_901, "x")


MONTE_CARLO = {
    "noise": lambda distribution: mc_noise_term(4, 1.0, 10, 2, 1, distribution),
    "deviation": lambda distribution: mc_sensing_deviation(np.eye(3), 10, 2, 1, distribution),
    "moment": lambda distribution: mc_second_moment(np.eye(3), 2, 1, distribution),
    "asq": lambda distribution: mc_A_squared(3, 2, 1, distribution),
}


@pytest.mark.parametrize("call", MONTE_CARLO.values(), ids=MONTE_CARLO)
def test_monte_carlo_checks_its_distribution_before_any_allocation(call, monkeypatch):
    allocations = []
    for name in ("empty", "zeros"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, **k: allocations.append(a)
                            or real(*a, **k))
    for distribution in ("cauchy", None, ["gaussian"]):
        with pytest.raises(InputError, match="distribution"):
            call(distribution)
    assert allocations == []


def test_monte_carlo_memory_check_rejects_an_unknown_kind():
    with pytest.raises(InputError, match=r"^kind must be one of \['noise', 'deviation', "):
        check_mc_memory("bogus", 3, 10, 2)
    assert concentration.KINDS == ("noise", "deviation", "moment", "asq")


def test_rng_purpose_is_a_choice():
    with pytest.raises(InputError, match=r"^purpose must be one of \['basis', "):
        stream(1, "bogus")
    with pytest.raises(InputError, match="^purpose must be one of .*, got \\['noise'\\]$"):
        stream(1, ["noise"])  # unhashable: the lookup never sees it
