"""Ground-truth construction and sub-Gaussian sensing ensembles.

The observation model is y_i = <A_i, X*> + eps_i with <A, X> = sum_ij A_ij X_ij.  Each A_i is
symmetric: upper-triangle and diagonal entries are drawn i.i.d. with unit variance from the
chosen distribution and mirrored below the diagonal.  Everything is generated in fixed-size
blocks from per-block Philox streams, so any block can be regenerated bit for bit from (seed,
block index).  The sensing operator (QuadraticModel) is a p x p matrix over the p = d(d+1)/2
upper-triangle coordinates of symmetric matrices, built in the same pass that draws the
observations; no sensing matrix is kept.  As no block reads another's stream, the build draws
two blocks at a time on two threads when _paired, and _in_order adds them to the operator in
index order, so the build has the bytes of one thread.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .errors import InputError, _shown, choice, count, number
from .linalg import orthonormalize
from .rng import stream

BLOCK = 512
_SLICE = 2**17  # doubles per draw call
_TILE = 512  # operator rows and columns per Gram tile

DISTRIBUTIONS = ("gaussian", "rademacher")
MEMORY_MODES = ("dense", "regenerate")  # config values; both run generate_sensing's one pass


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
    kappa: float


def _finite_numbers(name, values):
    """``values`` as a tuple of floats, or an InputError naming ``name``."""
    if not hasattr(values, "__iter__") or isinstance(values, str):
        raise InputError(f"{name} must be a list of finite numbers, got {values!r}")
    return tuple(float(number(f"{name} entry {i}", x)) for i, x in enumerate(values))


def _validate_spectrum(d, r, ds, dt):
    """``ds`` and ``dt`` as tuples of floats ("zeros" stays a string), or an InputError."""
    count("d", d, 1)
    count("r", r, 1, d)
    ds = _finite_numbers("ds", ds)
    if len(ds) != r:
        raise InputError(f"ds must have length r={r}, got {len(ds)}")
    if min(ds) <= 0 or np.any(np.diff(ds) > 0):
        raise InputError("ds must be positive and descending")
    if isinstance(dt, str):  # "zeros" stays a string: nothing is allocated here
        return ds, choice("dt", dt, ("zeros",))
    dt = _finite_numbers("dt", dt)
    if len(dt) != d - r:
        raise InputError(f"dt must have length d-r={d - r}, got {len(dt)}")
    if np.any(np.diff(np.abs(dt)) > 0):
        raise InputError("dt must be descending in absolute value")
    if dt and max(map(abs, dt)) >= ds[-1]:
        raise InputError(
            f"spectrum gap violated: max|dt|={max(map(abs, dt))} >= ds[r-1]={ds[-1]}"
        )
    return ds, dt


def generate_ground_truth(d, r, ds, dt, seed):
    """Construct a GroundTruth with a seeded random orthonormal basis.

    (U, V) come from orthonormalizing a seeded Gaussian d x d matrix and
    splitting the first r / last d-r columns; identical arguments give a
    bitwise-identical result.
    """
    ds, dt = _validate_spectrum(d, r, ds, dt)
    check_build_memory(d)
    dt = np.zeros(d - r) if isinstance(dt, str) else np.array(dt)
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
        ds=np.array(ds),
        dt=dt,
        Xstar=Xstar,
        sigma1=float(ds[0]),
        sigma_r=float(ds[-1]),
        kappa=float(ds[0] / ds[-1]),
    )


def _memory_budget():
    """Bytes one allocation may take: half of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def check_memory(nbytes, what):
    """Reject ``what`` with an InputError, before it is allocated, when it
    needs more than half of physical memory."""
    budget = _memory_budget()
    if not nbytes <= budget:  # a count near or past the float range is shown by its bit length
        need = (f"{nbytes / 1e9:.2f} GB" if nbytes < 2**1000
                else f"at least 2**{nbytes.bit_length() - 1} bytes")
        raise InputError(
            f"{what} needs {need}, more than half of physical memory ({budget / 1e9:.2f} GB)"
        )


def check_build_memory(d, n=None):
    """The memory checks of generate_ground_truth and, given ``n``, of generate_sensing."""
    check_memory(8 * d * d, f"the d={_shown(d)} ground truth")
    if n is not None:
        check_memory(sensing_bytes(d, n), f"the d={d}, n={_shown(n)} sensing build")


@functools.lru_cache(maxsize=None)
def _svec_indices(d):
    """Row-major flat indices ``upper`` of the upper triangle of a d x d matrix, each of
    the d*d entries' position ``pos`` (or its mirror's) in that list, and ``upper``
    gathered at ``pos``, the flat index min(i, j) d + max(i, j) of each (i, j): gathering
    that from a row-major d x d array mirrors its upper triangle.  All three are cached
    and read-only.
    """
    iu, ju = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    upper, pos = iu * d + ju, pos.ravel()
    mirror = upper[pos]
    for index in (upper, pos, mirror):
        index.setflags(write=False)
    return upper, pos, mirror


def _slice_rows(d):
    """Matrices per draw call: a multiple of 4, at least 4, of at most _SLICE doubles (1 MiB)."""
    return max(4, _SLICE // (d * d) // 4 * 4)


def _slice_edges(d, count):
    """Slice edges over ``count`` matrices: every _slice_rows(d); the last takes a 1-3 tail."""
    return [*range(0, max(count - 3, 1), _slice_rows(d)), count]


def _tiles(p):
    """ceil(p / _TILE) near-equal column ranges covering range(p)."""
    q = -(-p // _TILE)
    return [slice(lo, hi) for lo, hi in pairwise(p * k // q for k in range(q + 1))]


def block_bytes(d, n, sliced=False):
    """Bytes a thread's draw of a block holds: a block of at most BLOCK of the n matrices (with
    ``sliced``, one slice in its place), two draw slices (one being mirrored, one of Rademacher
    integers), the cached indices, the ufunc buffer casting the integers and 8 KiB of objects."""
    s = max(hi - lo for m in (min(n, BLOCK), (n - 1) % BLOCK + 1)
            for lo, hi in pairwise(_slice_edges(d, m)))
    rows = (s if sliced else min(n, BLOCK)) + 2 * s + 2
    return 8 * (rows * d * d + d * (d + 1) // 2 + np.getbufsize()) + 2**13


def _paired(d, n):
    """Whether generate_sensing draws block j + 1 on a worker while block j is drawn: from two
    blocks, while a block's upper triangles fit in one draw slice (d <= 22), a small extra."""
    return n > BLOCK and min(n, BLOCK) * d * (d + 1) // 2 <= _SLICE


def sensing_bytes(d, n):
    """Bytes generate_sensing allocates for a d x d, n-sample build: the n observations and
    their noise, the p x p operator and the p-vector b, one Gram tile of at most _TILE x _TILE,
    and per drawing thread the gathered (block, p) upper triangles and block_bytes(d, n, True);
    a second thread when _paired, with 1 MiB for the thread pool modules it first imports."""
    p = d * (d + 1) // 2
    thread = 8 * min(n, BLOCK) * p + block_bytes(d, n, True)
    return 8 * (2 * n + p * p + p + min(p, _TILE) ** 2) + thread + _paired(d, n) * (thread + 2**20)


def _fill(rng, out, distribution):
    """Fill ``out`` with unit-variance draws from ``rng``, in stream order."""
    if distribution == "gaussian":
        rng.standard_normal(out=out)
    else:  # "rademacher": every entry point checks the choice before it allocates
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
        out -= 1.0


def _slices(rng, count, d, distribution, raw=False, out=None):
    """Yield (rows, part) over ``count`` symmetric d x d sensing matrices drawn from ``rng``,
    cut at _slice_edges(d, count): ``part`` is rows ``rows`` of the (count, d * d) result, in
    ``out[rows]`` or else in one reused slice buffer.  Each matrix mirrors the upper triangle
    of its d x d block of the row-major stream below the diagonal, through one scratch slice,
    unless ``raw`` (for linear functionals of the upper triangle).  The values do not depend on
    the slicing, and as every slice starts on a multiple of 4 rows and holds at least 4, a
    matrix-vector product groups rows by four over the slices as over all ``count`` rows."""
    edges = _slice_edges(d, count)
    size = max(hi - lo for lo, hi in pairwise(edges))
    # work[0]: slices when no out; work[-1]: the mirror's scratch. Two arrays faulted in per block.
    work = np.empty(((out is None) + (not raw), size, d * d))
    mirror = None if raw else _svec_indices(d)[2]
    for lo, hi in pairwise(edges):
        part = work[0, : hi - lo] if out is None else out[lo:hi]
        _fill(rng, part if raw else work[-1, : hi - lo], distribution)
        if not raw:  # the indices are in range; mode="clip" lets take write to out unbuffered
            work[-1, : hi - lo].take(mirror, axis=1, out=part, mode="clip")
        yield slice(lo, hi), part


def _draw(rng, count, d, distribution, raw=False, out=None):
    """The ``count`` matrices of _slices in ``out`` or a new array, (count, d, d) or raw."""
    out = np.empty((count, d * d)) if out is None else out[:count]
    for _ in _slices(rng, count, d, distribution, raw, out):
        pass
    return out if raw else out.reshape(count, d, d)


def draw_blocks(seed, purpose, n, d, distribution, trial=None, raw=False, out=None):
    """Yield (slice, rng, block) over n sensing matrices in index order, in
    blocks of at most BLOCK that _draw writes into ``out`` (reused by every
    block) when one is given.  Block j comes from the stream (seed, purpose, j);
    with a ``trial``, every block comes from the one stream (seed, purpose,
    trial), and the caller may draw from ``rng`` between blocks."""
    rng = None if trial is None else stream(seed, purpose, trial)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        rng = stream(seed, purpose, lo // BLOCK) if trial is None else rng
        yield slice(lo, hi), rng, _draw(rng, hi - lo, d, distribution, raw, out)


def _in_order(fn, fold, items, shape, paired=True):
    """fold(i, fn(i, buf)) for i = 0 .. items - 1, in index order, so every cross-item sum adds
    what the serial loop adds.  When ``paired``, item i runs on the calling thread while item
    i + 1 runs on one worker thread, each with its own ``buf = np.empty(shape)``; one item, or
    not ``paired``, runs on the calling thread alone and imports no thread pool.  A failed item
    raises once the worker has ended, after every lower item has been folded."""
    bufs = [np.empty(shape) for _ in range(1 + (paired and items > 1))]
    if len(bufs) == 1:
        for i in range(items):
            fold(i, fn(i, bufs[0]))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        for i in range(0, items, 2):
            ahead = worker.submit(fn, i + 1, bufs[1]) if i + 1 < items else None
            fold(i, fn(i, bufs[0]))
            if ahead is not None:
                fold(i + 1, ahead.result())


class QuadraticModel:
    """Sensing operator H(M) = (1/n) sum_i <A_i, M> A_i and data term
    bbar = (1/n) sum_i y_i A_i, in symmetric coordinates.

    The one code path that applies a sensing set to a matrix: the sample
    gradient (H(F F^T) - bbar) F, the deviation matrix and the spectral
    initialization (from bbar) all read it.  With g_i the p = d(d+1)/2
    upper-triangle entries of A_i, it holds H_u = (1/n) sum_i g_i g_i^T
    (8 p^2 bytes, the one p x p array of the build) and
    b = (1/n) sum_i y_i g_i, both accumulated in place by generate_sensing
    as it draws.  For symmetric M, H(M) is the d x d mirror
    of H_u (w * svec(M)): the weight w = 1 on the diagonal and 2 off it is
    folded into H_u's columns.
    """

    def __init__(self, d, h, b):
        self.d, self.h = d, h  # h: (p, p)
        self._upper, self._pos, _ = _svec_indices(d)
        self.bbar = self._sym(b)  # (d, d)

    def _sym(self, v):
        """The symmetric d x d matrix whose upper triangle is v."""
        return v.take(self._pos).reshape(self.d, self.d)

    def apply(self, m):
        """H(M) for a symmetric M; only M's upper triangle is read."""
        return self._sym(self.h.dot(np.asarray(m).take(self._upper)))

    def gradient(self, f):
        return (self.apply(f @ f.T) - self.bbar) @ f

    def deviation(self, f, xstar):
        ffT = f @ f.T
        return self.apply(ffT) - self.bbar - (ffT - xstar)


def stacked_gradient(h, bbar, f):
    """QuadraticModel.gradient of each cell of a stack, bit for bit, in one call per stage for
    all cells: the (B, p, p) operators ``h``, (B, d, d) data terms ``bbar`` and (B, d, k)
    factors ``f``.  A batched matmul runs the 2-D one's BLAS routine on each cell (syrk for
    F F^T, gemv for the operator, gemm for the product with F)."""
    b, d, _ = f.shape
    upper, pos, _ = _svec_indices(d)
    ffT = (f @ f.transpose(0, 2, 1)).reshape(b, d * d)
    v = np.matmul(h, ffT.take(upper, axis=1)[:, :, None]).reshape(b, -1)
    return (v.take(pos, axis=1).reshape(b, d, d) - bbar) @ f


@dataclass
class SensingSet:
    """n sensing matrices with observations y_i = <A_i, X*> + eps_i.

    The matrices are not stored: ``model`` summarizes them for every run,
    and ``iter_blocks`` recomputes them from (seed, block index).
    """

    n: int
    d: int
    distribution: str
    seed: int
    observations: np.ndarray
    epsilon: np.ndarray
    model: QuadraticModel = field(repr=False)

    def iter_blocks(self):
        """Yield (slice, A_block) pairs in fixed index order."""
        for sl, _, a in draw_blocks(self.seed, "sensing", self.n, self.d, self.distribution):
            yield sl, a


def generate_sensing(gt, n, sigma, distribution="gaussian", seed=0):
    """Draw a SensingSet against a GroundTruth; reproducible from seed.

    One pass over the blocks draws each A_i once, forms its observations and accumulates the
    QuadraticModel in place.  Each mirrored draw slice gives its rows of y = A vec(X*) and its
    upper triangles to the block's (m, p) array g, so no block of mirrored matrices is held.
    The block's Gram g^T g is added tile by tile to the upper-triangle tiles of the operator,
    through one reused buffer of at most _TILE x _TILE, and the strict-lower tiles are mirrored
    once at the end.  For p <= _TILE that is one np.matmul(g.T, g) per block.  When
    _paired(d, n), _in_order draws block j + 1 on a worker, into its own g, while block j is
    drawn; blocks are added to b and the operator in index order on the calling thread.
    sensing_bytes(d, n) counts what the build allocates.
    """
    count("n", n, 1)
    number("sigma", sigma, 0)
    choice("distribution", distribution, DISTRIBUTIONS)
    d = gt.d
    check_build_memory(d, n)
    upper = _svec_indices(d)[0]
    p = upper.size
    xstar, y, eps = gt.Xstar.ravel(), np.empty(n), np.empty(n)
    h, b = np.zeros((p, p)), np.zeros(p)
    tiles = _tiles(p)
    buf = np.empty(max(t.stop - t.start for t in tiles) ** 2)
    pairs = []  # (rows, columns, buf viewed contiguously in their tile's shape)
    for i, ra in enumerate(tiles):
        for rb in tiles[i:]:
            shape = (ra.stop - ra.start, rb.stop - rb.start)
            pairs.append((ra, rb, buf[: shape[0] * shape[1]].reshape(shape)))

    def draw(j, g):  # block j's rows of y and eps, and its upper triangles in g; either thread
        sl = slice(j * BLOCK, min(j * BLOCK + BLOCK, n))
        ys, g = y[sl], g[: sl.stop - sl.start]
        for rows, a in _slices(stream(seed, "sensing", j), len(g), d, distribution):
            ys[rows] = a @ xstar  # the upper triangle of a mirrored slice is its draws'
            a.take(upper, axis=1, out=g[rows], mode="clip")
        # A huge sigma overflows the noise, and b with it: the run's divergence guard stops it.
        with np.errstate(over="ignore", invalid="ignore"):  # a thread's own: errstate is per thread
            eps[sl] = sigma * stream(seed, "noise", j).standard_normal(len(g))
            ys += eps[sl]
        return ys, g

    def fold(j, block):  # on the calling thread, in index order
        ys, g = block
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(b, ys @ g, out=b)
        for ra, rb, tile in pairs:
            h[ra, rb] += np.matmul(g[:, ra].T, g[:, rb], out=tile)

    _in_order(draw, fold, -(-n // BLOCK), (min(n, BLOCK), p), _paired(d, n))
    for ra, rb, _ in pairs:
        if ra != rb:
            h[rb, ra] = h[ra, rb].T
    # Diagonal entries sit at flat indices that are multiples of d + 1.
    h *= np.where(upper % (d + 1) == 0, 1.0, 2.0) / n
    return SensingSet(
        n=n,
        d=d,
        distribution=distribution,
        seed=int(seed),
        observations=y,
        epsilon=eps,
        model=QuadraticModel(d, h, b / n),
    )

