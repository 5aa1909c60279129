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


def op_MU(s_coef, t_coef, ds, eta):
    """Population update of the signal coefficients:
    M_U(S) = S - eta (S S^T S + S T^T T - diag(ds) S)."""
    s_coef = np.asarray(s_coef, dtype=float)
    t_coef = np.asarray(t_coef, dtype=float)
    ds = np.asarray(ds, dtype=float)
    if s_coef.ndim != 2 or t_coef.ndim != 2 or s_coef.shape[1] != t_coef.shape[1]:
        raise InputError("S and T must share the column count k")
    if ds.shape != (s_coef.shape[0],):
        raise InputError(f"ds must have length {s_coef.shape[0]}")
    return s_coef - eta * (
        s_coef @ s_coef.T @ s_coef + s_coef @ t_coef.T @ t_coef - ds[:, None] * s_coef
    )


def op_MV(t_coef, s_coef, dt, eta):
    """Population update of the over-parameterization coefficients:
    M_V(T) = T - eta (T T^T T + T S^T S - diag(dt) T)."""
    s_coef = np.asarray(s_coef, dtype=float)
    t_coef = np.asarray(t_coef, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if s_coef.ndim != 2 or t_coef.ndim != 2 or s_coef.shape[1] != t_coef.shape[1]:
        raise InputError("S and T must share the column count k")
    if dt.shape != (t_coef.shape[0],):
        raise InputError(f"dt must have length {t_coef.shape[0]}")
    return t_coef - eta * (
        t_coef @ t_coef.T @ t_coef + t_coef @ s_coef.T @ s_coef - dt[:, None] * t_coef
    )
