"""The streaming loss, the population gradient, the analysis step size, and
the population coefficient operators.

The loss is L(F) = (1/4n) sum_i (y_i - <A_i, F F^T>)^2, whose gradient for
symmetric A_i is G^n(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i F.  The
idealized (population) gradient is G(F) = (F F^T - X*) F, and the deviation
matrix Delta(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i - (F F^T - X*) ties
them together through G^n - G = Delta F.  Both sample quantities are read
from the sensing set's QuadraticModel (``s.model.gradient(f)``,
``s.model.deviation(f, gt.Xstar)``); loss_value sums over the regenerated
sensing blocks, so it is an independent check of the gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, number


def theory_step_size(sigma1):
    """eta = 1/(100 sigma_1), the constant step size of the analysis."""
    return 1.0 / (100.0 * number("sigma1", sigma1, 0, strict=True))


def _check_factor(f, d):
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != d:
        raise InputError(f"factor must be {d} x k, got {f.shape}")
    return f


def loss_value(f, s):
    """Empirical loss (1/4n) sum_i (y_i - <A_i, F F^T>)^2, streamed block by block."""
    f = _check_factor(f, s.d)
    ffT = f @ f.T
    total = 0.0
    for sl, a in s.iter_blocks():
        vals = a.reshape(a.shape[0], -1) @ ffT.ravel()
        total += float(np.sum((s.observations[sl] - vals) ** 2))
    return total / (4.0 * s.n)


def population_gradient(f, gt):
    """Idealized gradient (F F^T - X*) F."""
    f = _check_factor(f, gt.d)
    return (f @ f.T - gt.Xstar) @ f


def op_MU(x, y, spectrum, eta):
    """Population update of one block of subspace coefficients given the other:
    x - eta (x x^T x + x y^T y - diag(spectrum) x).  op_MU(S, T, DS*, eta) is
    M_U(S) and op_MV(T, S, DT*, eta), the same map, is M_V(T)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InputError("S and T must share the column count k")
    if spectrum.shape != (x.shape[0],):
        raise InputError(f"spectrum must have length {x.shape[0]}")
    return x - eta * (x @ x.T @ x + x @ y.T @ y - spectrum[:, None] * x)


op_MV = op_MU
