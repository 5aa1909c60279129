"""Sample and population gradients, the analysis step size, and the
population coefficient operators.

The loss is L(F) = (1/4n) sum_i (y_i - <A_i, F F^T>)^2, whose gradient for
symmetric A_i is G^n(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i F.  The
idealized (population) gradient is G(F) = (F F^T - X*) F, and the deviation
matrix Delta(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i - (F F^T - X*) ties
them together through G^n - G = Delta F.  Both sample quantities apply the
sensing set through its QuadraticModel; loss_value sums over the
regenerated sensing blocks, so it is an independent check of the gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import as_symmetric


def theory_step_size(sigma1):
    """eta = 1/(100 sigma_1), the constant step size of the analysis."""
    if not sigma1 > 0:
        raise InputError("sigma1 must be positive")
    return 1.0 / (100.0 * sigma1)


def _check_factor(f, d, what="factor"):
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != d:
        raise InputError(f"{what} must be {d} x k, got {f.shape}")
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


def sample_gradient(f, s):
    """Finite-sample gradient of the quartic loss at F, from the sensing
    set's QuadraticModel: (H(F F^T) - bbar) F."""
    if s.n < 1:
        raise InputError("sensing set is empty")
    f = _check_factor(f, s.d)
    return s.model.gradient(f)


def population_gradient(f, gt):
    """Idealized gradient (F F^T - X*) F."""
    f = _check_factor(f, gt.d)
    return (f @ f.T - gt.Xstar) @ f


def deviation_matrix(f, gt, s):
    """Deviation Delta between the empirical and idealized sensing operators.

    Delta(F) = (1/n) sum_i (<A_i, F F^T> - y_i) A_i - (F F^T - X*); symmetric,
    and sample_gradient - population_gradient = Delta @ F exactly.
    """
    f = _check_factor(f, gt.d)
    if s.d != gt.d:
        raise InputError(f"sensing dimension {s.d} != ground truth {gt.d}")
    return as_symmetric(s.model.deviation(f, gt.Xstar), tol=1e-9)


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
