"""The package's two input rules, ``msense.errors.count`` and ``msense.errors.number``, and
the library entry points that apply them: a malformed size or scalar is an InputError
naming its argument, raised before any compute and with no numpy warning."""

import re
import warnings

import numpy as np
import pytest

from msense import (InputError, check_initialization, generate_ground_truth, generate_sensing,
                    planted_init, random_init, spectral_init)
from msense.concentration import mc_noise_term
from msense.errors import count, number

NAN, INF = float("nan"), float("inf")

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
