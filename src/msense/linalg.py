"""Dense symmetric/rectangular matrix primitives.

Symmetrization, spectral and Frobenius norms, and orthonormalization used
by the rest of the package.  Matrices are plain float64 ndarrays; the helpers
here enforce the contracts (symmetry, finiteness, orthonormal columns)
rather than wrapping arrays in classes.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

SYM_TOL = 1e-12  # absolute asymmetry absorbed by symmetrization
RANK_TOL = 1e-10  # smallest singular value accepted as full column rank


def _check_finite(m, name="matrix"):
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def as_symmetric(m, tol=SYM_TOL):
    """Validate and return a symmetric copy of ``m``.

    Asymmetry up to ``tol`` (absolute, entrywise) is absorbed by
    (M + M^T)/2; anything larger is rejected as a bug in the caller.
    """
    m = _check_finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > tol:
        raise InputError(f"matrix asymmetry {asym:.3e} exceeds tolerance {tol:.1e}")
    return 0.5 * (m + m.T)


def spectral_norm(m):
    """Largest singular value of ``m`` (= max |eigenvalue| when symmetric)."""
    m = _check_finite(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def spectral_norms(stack):
    """Spectral norm of each symmetric matrix of a (B, m, m) stack, in one
    LAPACK call: the largest |eigenvalue| (eigvalsh reads the lower triangle).
    A matrix with a non-finite entry never reaches LAPACK; its norm is NaN.
    """
    stack = np.asarray(stack, dtype=float)
    ok = np.isfinite(stack).all(axis=(1, 2))
    out = np.where(ok, 0.0, np.nan)
    if ok.any() and stack.shape[1] > 0:
        out[ok] = np.abs(np.linalg.eigvalsh(stack if ok.all() else stack[ok])).max(axis=1)
    return out


def frobenius_norm(m):
    """Square root of the sum of squared entries."""
    m = _check_finite(m)
    return float(np.linalg.norm(m))


def orthonormalize(m):
    """Orthonormal basis of the column space of ``m`` (cols <= rows required).

    Rejects rank-deficient input (smallest singular value <= 1e-10).  The
    sign convention (positive R diagonal) makes the result deterministic.
    """
    m = _check_finite(m)
    if m.ndim != 2 or m.shape[1] > m.shape[0]:
        raise InputError(f"need cols <= rows, got shape {m.shape}")
    if m.shape[1] == 0:
        return m.copy()
    smin = np.linalg.svd(m, compute_uv=False)[-1]
    if smin <= RANK_TOL:
        raise InputError(f"rank-deficient input: smallest singular value {smin:.3e}")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
