"""Ground-truth construction and sub-Gaussian sensing ensembles.

The observation model is y_i = <A_i, X*> + eps_i with <A, X> = sum_ij A_ij X_ij.
Each A_i is symmetric: upper-triangle and diagonal entries are drawn i.i.d.
with unit variance from the chosen distribution and mirrored below the
diagonal.  Everything is generated in fixed-size blocks from per-block
Philox streams, so the dense and regenerate-on-the-fly memory modes produce
bit-identical ensembles.
The sensing operator (QuadraticModel) is a p x p matrix over the
p = d(d+1)/2 upper-triangle coordinates of symmetric matrices.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import orthonormalize
from .rng import stream

BLOCK = 512

DISTRIBUTIONS = ("gaussian", "rademacher")
MEMORY_MODES = ("dense", "regenerate")


@dataclass(frozen=True)
class GroundTruth:
    """The planted matrix X* and its fixed eigen-split.

    X* = U diag(ds) U^T + V diag(dt) V^T with U (d x r), V (d x (d-r))
    jointly orthonormal.  ds is the signal spectrum (descending, positive),
    dt the over-parameterization spectrum (|dt| descending, below ds[-1]).
    """

    d: int
    r: int
    U: np.ndarray
    V: np.ndarray
    ds: np.ndarray
    dt: np.ndarray
    Xstar: np.ndarray
    sigma1: float
    sigma_r: float
    sigma_r_plus_1: float
    kappa: float


def _validate_spectrum(d, r, ds, dt):
    if not 1 <= r <= d:
        raise InputError(f"need 1 <= r <= d, got r={r}, d={d}")
    ds = np.asarray(ds, dtype=float)
    if ds.shape != (r,):
        raise InputError(f"ds must have length r={r}, got {ds.shape}")
    if np.any(ds <= 0) or np.any(np.diff(ds) > 0):
        raise InputError("ds must be positive and descending")
    if isinstance(dt, str):
        if dt != "zeros":
            raise InputError(f"dt shorthand must be 'zeros', got {dt!r}")
        dt = np.zeros(d - r)
    dt = np.asarray(dt, dtype=float)
    if dt.shape != (d - r,):
        raise InputError(f"dt must have length d-r={d - r}, got {dt.shape}")
    if np.any(np.diff(np.abs(dt)) > 0):
        raise InputError("dt must be descending in absolute value")
    if dt.size and np.max(np.abs(dt)) >= ds[-1]:
        raise InputError(
            f"spectrum gap violated: max|dt|={np.max(np.abs(dt))} >= ds[r-1]={ds[-1]}"
        )
    return ds, dt


def generate_ground_truth(d, r, ds, dt, seed):
    """Construct a GroundTruth with a seeded random orthonormal basis.

    (U, V) come from orthonormalizing a seeded Gaussian d x d matrix and
    splitting the first r / last d-r columns; identical arguments give a
    bitwise-identical result.
    """
    check_memory(8 * d * d, f"the d={d} ground truth")
    ds, dt = _validate_spectrum(d, r, ds, dt)
    rng = stream(seed, "basis")
    basis = orthonormalize(rng.standard_normal((d, d)))
    U, V = basis[:, :r], basis[:, r:]
    Xstar = (U * ds) @ U.T + (V * dt) @ V.T
    Xstar = 0.5 * (Xstar + Xstar.T)
    return GroundTruth(
        d=d,
        r=r,
        U=U,
        V=V,
        ds=ds,
        dt=dt,
        Xstar=Xstar,
        sigma1=float(ds[0]),
        sigma_r=float(ds[-1]),
        sigma_r_plus_1=float(np.max(np.abs(dt))) if dt.size else 0.0,
        kappa=float(ds[0] / ds[-1]),
    )


def _memory_budget():
    """Bytes one allocation may take: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def check_memory(nbytes, what):
    """Reject ``what`` with an InputError, before it is allocated, when it
    needs more than half of physical memory."""
    budget = _memory_budget()
    if nbytes > budget:
        raise InputError(
            f"{what} needs {nbytes / 1e9:.2f} GB, more than half of physical memory "
            f"({budget / 1e9:.2f} GB)"
        )


@functools.lru_cache(maxsize=None)
def _mirror_indices(d):
    """Flat indices min(i, j) d + max(i, j) for each (i, j) of a d x d
    matrix: gathering them from a row-major draw mirrors its upper triangle."""
    i, j = np.divmod(np.arange(d * d), d)
    idx = np.minimum(i, j) * d + np.maximum(i, j)
    idx.setflags(write=False)
    return idx


def _draw(rng, count, d, distribution, raw=False):
    """``count`` symmetric d x d sensing matrices drawn from ``rng``.

    The stream yields ``count * d * d`` values in row-major order; each
    matrix keeps the upper triangle and diagonal of its d x d block and
    mirrors the upper triangle below the diagonal, in one gather.  With
    ``raw=True`` the ``(count, d * d)`` draws are returned unmirrored, for
    callers that only need linear functionals of the upper triangle.
    """
    if distribution == "gaussian":
        g = rng.standard_normal((count, d * d))
    elif distribution == "rademacher":
        g = rng.integers(0, 2, size=(count, d * d)).astype(float) * 2.0 - 1.0
    else:
        raise InputError(f"unknown distribution {distribution!r}")
    if raw:
        return g
    return g.take(_mirror_indices(d), axis=1).reshape(count, d, d)


def _draw_block(d, lo, hi, distribution, seed):
    """Sensing matrices for block-aligned indices [lo, hi)."""
    assert lo % BLOCK == 0 and hi - lo <= BLOCK
    return _draw(stream(seed, "sensing", lo // BLOCK), hi - lo, d, distribution)


def _noise_block(lo, hi, sigma, seed):
    rng = stream(seed, "noise", lo // BLOCK)
    return sigma * rng.standard_normal(hi - lo)


@dataclass
class SensingSet:
    """n sensing matrices with observations y_i = <A_i, X*> + eps_i.

    In dense mode ``matrices`` stacks all A_i; in regenerate mode it is None
    and blocks are recomputed from (seed, block index) on demand.
    """

    n: int
    d: int
    sigma: float
    distribution: str
    seed: int
    observations: np.ndarray
    epsilon: np.ndarray
    memory_mode: str = "dense"
    matrices: np.ndarray | None = None
    _model: "QuadraticModel | None" = field(default=None, repr=False)

    def iter_blocks(self):
        """Yield (slice, A_block) pairs in fixed index order."""
        for lo in range(0, self.n, BLOCK):
            hi = min(lo + BLOCK, self.n)
            if self.matrices is not None:
                yield slice(lo, hi), self.matrices[lo:hi]
            else:
                yield slice(lo, hi), _draw_block(
                    self.d, lo, hi, self.distribution, self.seed
                )

    def quadratic_model(self):
        """Cache and return the empirical quadratic model of the loss."""
        if self._model is None:
            self._model = QuadraticModel.build(self)
        return self._model


def _svec_indices(d):
    """Row-major flat indices of the upper triangle of a d x d matrix, and
    each of the d*d entries' position (or its mirror's) in that list."""
    iu, ju = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return iu * d + ju, pos.ravel()


class QuadraticModel:
    """Precomputed sensing operator H(M) = (1/n) sum_i <A_i, M> A_i and
    data term bbar = (1/n) sum_i y_i A_i, in symmetric coordinates.

    The one code path that applies a sensing set to a matrix: the sample
    gradient (H(F F^T) - bbar) F, the deviation matrix and the spectral
    initialization (from bbar) all read it.  With g_i the p = d(d+1)/2
    upper-triangle entries of A_i, it stores H_u = (1/n) sum_i g_i g_i^T
    (8 p^2 bytes, built in O(n p^2) time) and b = (1/n) sum_i y_i g_i.  For
    symmetric M, H(M) is the d x d mirror of H_u (w * svec(M)): the weight
    w = 1 on the diagonal and 2 off it is folded into H_u's columns.
    """

    def __init__(self, d, h, b):
        self.d, self.h = d, h  # h: (p, p)
        self._upper, self._mirror = _svec_indices(d)
        self.bbar = self._sym(b)  # (d, d)

    @classmethod
    def build(cls, s: SensingSet):
        d = s.d
        upper, _ = _svec_indices(d)
        p = upper.size
        check_memory(2 * 8 * p * p, f"the d={d} sensing operator")
        h, buf, b = np.zeros((p, p)), np.empty((p, p)), np.zeros(p)
        for sl, a in s.iter_blocks():
            g = a.reshape(len(a), d * d).take(upper, axis=1)
            h += np.matmul(g.T, g, out=buf)
            b += s.observations[sl] @ g
        # Diagonal entries sit at flat indices that are multiples of d + 1.
        h *= np.where(upper % (d + 1) == 0, 1.0, 2.0) / s.n
        return cls(d, h, b / s.n)

    def _sym(self, v):
        """The symmetric d x d matrix whose upper triangle is v."""
        return v.take(self._mirror).reshape(self.d, self.d)

    def apply(self, m):
        """H(M) for a symmetric M; only M's upper triangle is read."""
        return self._sym(self.h.dot(np.asarray(m).take(self._upper)))

    def gradient(self, f):
        return (self.apply(f @ f.T) - self.bbar) @ f

    def deviation(self, f, xstar):
        ffT = f @ f.T
        return self.apply(ffT) - self.bbar - (ffT - xstar)


def generate_sensing(gt, n, sigma, distribution="gaussian", seed=0, memory_mode="dense"):
    """Draw a SensingSet against a GroundTruth; reproducible from seed."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if sigma < 0:
        raise InputError(f"need sigma >= 0, got {sigma}")
    if distribution not in DISTRIBUTIONS:
        raise InputError(f"distribution must be one of {DISTRIBUTIONS}")
    if memory_mode not in MEMORY_MODES:
        raise InputError(f"memory_mode must be one of {MEMORY_MODES}")
    check_memory(16 * n, f"the n={n} observations")
    d = gt.d
    y = np.empty(n)
    eps = np.empty(n)
    matrices = np.empty((n, d, d)) if memory_mode == "dense" else None
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        a = _draw_block(d, lo, hi, distribution, seed)
        e = _noise_block(lo, hi, sigma, seed)
        y[lo:hi] = a.reshape(hi - lo, d * d) @ gt.Xstar.ravel() + e
        eps[lo:hi] = e
        if matrices is not None:
            matrices[lo:hi] = a
    return SensingSet(
        n=n,
        d=d,
        sigma=float(sigma),
        distribution=distribution,
        seed=int(seed),
        observations=y,
        epsilon=eps,
        memory_mode=memory_mode,
        matrices=matrices,
    )


def inner_product(a, x):
    """Entrywise matrix inner product sum_ij A_ij X_ij."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.shape != x.shape:
        raise InputError(f"dimension mismatch: {a.shape} vs {x.shape}")
    return float(np.vdot(a, x))
