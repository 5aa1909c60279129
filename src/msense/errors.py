"""Exception types and the three input rules shared across the package.

The CLI maps InputError to exit code 1 and NumericError to exit code 2.
"""

from __future__ import annotations

import numbers
import sys


class InputError(ValueError):
    """Rejected input: bad shapes, invalid parameters, malformed config."""


def _shown(value):
    """``repr(value)``, cut short past 200 characters, or a description of an integer
    too long to print (past 4300 digits)."""
    try:
        text = repr(value)
    except ValueError:  # an int, or a container holding one
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 200 else f"{text[:60]}... ({len(text)} characters)"


def count(name, value, low, high=None):
    """``value`` if it is an integer (not a bool) in [low, high]; else an InputError naming it."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value
            and (high is None or value <= high)):
        rule = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InputError(f"{name} must be an integer {rule}, got {_shown(value)}")
    return value


def number(name, value, low=None, high=None, strict=False):
    """``value`` if it is a finite real (not a bool) >= ``low`` (> with ``strict``) and
    <= ``high``; else an InputError naming it."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max  # not NaN, not infinite, and not 10**400
            and (low is None or value > low or (value == low and not strict))
            and (high is None or value <= high)):
        rule = " and ".join(f"{op} {bound}" for op, bound in ((">" if strict else ">=", low),
                                                              ("<=", high)) if bound is not None)
        raise InputError(f"{name} must be a finite number {rule}".rstrip() + ", got "
                         + _shown(value))
    return value


def choice(name, value, allowed):
    """``value`` if it is a str in ``allowed``; else an InputError naming it."""
    if not (isinstance(value, str) and value in allowed):
        raise InputError(f"{name} must be one of {list(allowed)}, got {_shown(value)}")
    return value


class NumericError(RuntimeError):
    """Numeric failure (non-convergence, divergence)."""


class DivergenceError(NumericError):
    """An iterative run blew past the divergence guard.

    ``trajectory`` holds the partial trajectory recorded up to the abort.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
