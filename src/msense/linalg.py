"""Dense symmetric/rectangular matrix primitives.

Norms, symmetric eigen-decomposition and orthonormalization used by the
rest of the package.  Matrices are plain float64 ndarrays; the helpers
here enforce the contracts (symmetry, finiteness, orthonormal columns)
rather than wrapping arrays in classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

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


def spectral_norms(stack, symmetric=False):
    """Spectral norm of each matrix of a (B, m, n) stack, in one LAPACK call.

    Symmetric stacks take the largest |eigenvalue| (eigvalsh reads the lower
    triangle), others the largest singular value.  A matrix with a
    non-finite entry never reaches LAPACK; its norm is NaN.
    """
    stack = np.asarray(stack, dtype=float)
    ok = np.isfinite(stack).all(axis=(1, 2))
    out = np.where(ok, 0.0, np.nan)
    if ok.any() and min(stack.shape[1:]) > 0:
        finite = stack if ok.all() else stack[ok]
        if symmetric:
            out[ok] = np.abs(np.linalg.eigvalsh(finite)).max(axis=1)
        else:
            out[ok] = np.linalg.svd(finite, compute_uv=False)[:, 0]
    return out


def frobenius_norm(m):
    """Square root of the sum of squared entries."""
    m = _check_finite(m)
    return float(np.linalg.norm(m))


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues ordered by descending |value| with aligned orthonormal vectors."""

    values: np.ndarray  # shape (d,)
    vectors: np.ndarray  # shape (d, d), column i pairs with values[i]

    def reconstruct(self):
        return (self.vectors * self.values) @ self.vectors.T


def sym_eig(m):
    """Full eigen-decomposition of a symmetric matrix.

    Returns EigenPairs with |values| descending.  Eigenvector signs are
    normalized (largest-magnitude entry positive) so output is deterministic.
    """
    m = as_symmetric(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-np.abs(w), kind="stable")
    w, v = w[order], v[:, order]
    if v.size:
        pivot = np.abs(v).argmax(axis=0)
        signs = np.sign(v[pivot, np.arange(v.shape[1])])
        signs[signs == 0] = 1.0
        v = v * signs
    pairs = EigenPairs(values=w, vectors=v)
    resid = frobenius_norm(pairs.reconstruct() - m) / max(1.0, frobenius_norm(m))
    if resid > 1e-8:
        raise NumericError("eigen-decomposition residual too large", residual=resid)
    return pairs


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
