import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msense import (
    ExperimentConfig,
    InputError,
    generate_ground_truth,
    generate_sensing,
    spectral_norm,
)
from msense import harness, problem, run_experiment
from msense.rng import stream


def _matrices(s):
    """The (n, d, d) stack of a sensing set's matrices, regenerated block by block."""
    return np.concatenate([a for _, a in s.iter_blocks()])


def test_reference_ground_truth(gt20):
    assert gt20.sigma1 == 1.0
    assert gt20.sigma_r == 0.8
    assert gt20.kappa == pytest.approx(1.25)
    assert np.linalg.matrix_rank(gt20.Xstar, tol=1e-10) == 3


def test_ground_truth_orthogonality(gt20):
    r, d = gt20.r, gt20.d
    assert np.linalg.norm(gt20.U.T @ gt20.U - np.eye(r)) < 1e-10
    assert np.linalg.norm(gt20.V.T @ gt20.V - np.eye(d - r)) < 1e-10
    assert np.linalg.norm(gt20.U.T @ gt20.V) < 1e-10
    recon = (gt20.U * gt20.ds) @ gt20.U.T + (gt20.V * gt20.dt) @ gt20.V.T
    assert np.linalg.norm(recon - gt20.Xstar) < 1e-10


def test_full_rank_ground_truth_has_empty_v():
    gt = generate_ground_truth(3, 3, [2.0, 1.5, 1.0], [], seed=1)
    assert gt.V.shape == (3, 0)
    recon = (gt.U * gt.ds) @ gt.U.T
    assert np.linalg.norm(recon - gt.Xstar) < 1e-10


def test_ground_truth_determinism():
    a = generate_ground_truth(8, 2, [1.0, 0.5], "zeros", seed=99)
    b = generate_ground_truth(8, 2, [1.0, 0.5], "zeros", seed=99)
    assert_array_equal(a.Xstar, b.Xstar)
    assert_array_equal(a.U, b.U)


def test_spectrum_validation():
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [1.0, 0.5], [0.6, 0.1], seed=0)  # gap violated
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [0.5, 1.0], "zeros", seed=0)  # not descending
    with pytest.raises(InputError):
        generate_ground_truth(4, 2, [1.0, -0.1], "zeros", seed=0)  # not positive
    with pytest.raises(InputError):
        generate_ground_truth(4, 0, [], "zeros", seed=0)
    with pytest.raises(InputError, match="descending in absolute value"):
        generate_ground_truth(5, 2, [1.0, 0.5], [0.1, -0.05, 0.2], seed=0)
    # nonzero dt below the gap is accepted
    generate_ground_truth(4, 2, [1.0, 0.5], [0.1, -0.05], seed=0)


def test_noiseless_observations_exact(gt20):
    s = generate_sensing(gt20, n=32, sigma=0.0, seed=5)
    matrices = _matrices(s)
    for i in range(32):
        assert s.observations[i] == pytest.approx(
            np.vdot(matrices[i], gt20.Xstar), abs=1e-12
        )
    assert_array_equal(s.epsilon, np.zeros(32))


def test_sensing_entry_variance(gt20):
    s = generate_sensing(gt20, n=1000, sigma=0.0, seed=31)
    matrices = _matrices(s)
    iu = np.triu_indices(20, 1)
    pooled = matrices[:, iu[0], iu[1]].ravel()
    assert np.var(pooled) == pytest.approx(1.0, abs=0.05)
    diag = matrices[:, np.arange(20), np.arange(20)].ravel()
    assert np.var(diag) == pytest.approx(1.0, abs=0.05)


def test_rademacher_support(gt20):
    s = generate_sensing(gt20, n=20, sigma=0.0, distribution="rademacher", seed=3)
    assert set(np.unique(_matrices(s))) == {-1.0, 1.0}


def test_sensing_symmetric_and_deterministic(gt20):
    a = generate_sensing(gt20, n=40, sigma=0.2, seed=8)
    b = generate_sensing(gt20, n=40, sigma=0.2, seed=8)
    a_matrices = _matrices(a)
    assert_array_equal(a_matrices, _matrices(b))
    assert_array_equal(a.observations, b.observations)
    assert_array_equal(a.model.h, b.model.h)
    assert np.max(np.abs(a_matrices - np.transpose(a_matrices, (0, 2, 1)))) == 0.0


def test_regenerate_mode_matches_dense(gt20):
    """iter_blocks regenerates exactly the matrices the observations were drawn with."""
    s = generate_sensing(gt20, n=700, sigma=0.1, seed=17)
    sizes = []
    for sl, a in s.iter_blocks():
        sizes.append(len(a))
        clean = a.reshape(len(a), -1) @ gt20.Xstar.ravel()
        assert_array_equal(clean + s.epsilon[sl], s.observations[sl])
    assert sizes == [problem.BLOCK, 700 - problem.BLOCK]
    assert np.all(s.epsilon != 0.0)


@pytest.mark.parametrize("d", [1, 2, 7])
def test_svec_indices_mirror_the_upper_triangle(d, rng):
    upper, pos, mirror = problem._svec_indices(d)
    assert_array_equal(mirror, upper[pos])
    for index in (upper, pos, mirror):
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0
    a = rng.standard_normal((d, d))
    assert_array_equal(a.ravel().take(mirror).reshape(d, d), np.triu(a) + np.triu(a, 1).T)


@pytest.mark.parametrize("distribution", problem.DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 2, 7, 17, 20, 50])
def test_draw_matches_triu_transpose_formula(d, distribution, draw_oracle, raw_draw_oracle):
    """The sliced draw gives the bytes of one whole-block draw, raw and
    mirrored; from d=17 the count spans several slices and is not a
    multiple of the slice rows."""
    count = 37 if d < 17 else 464
    assert d < 17 or (count > problem._slice_rows(d) and count % problem._slice_rows(d))
    draw = problem._draw(stream(5, "sensing", 3), count, d, distribution)
    want = draw_oracle(stream(5, "sensing", 3), count, d, distribution)
    assert draw.shape == want.shape == (count, d, d)
    assert draw.tobytes() == want.tobytes()
    out = np.empty((count, d * d))
    into = problem._draw(stream(5, "sensing", 3), count, d, distribution, out=out)
    assert np.shares_memory(into, out) and into.tobytes() == want.tobytes()
    raw = problem._draw(stream(5, "sensing", 3), count, d, distribution, raw=True)
    assert raw.shape == (count, d * d)
    assert raw.tobytes() == raw_draw_oracle(stream(5, "sensing", 3), count, d, distribution).tobytes()
    assert np.triu(raw.reshape(count, d, d)).tobytes() == np.triu(want).tobytes()


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("n", [1, 511, 512, 1300])
def test_draw_blocks_matches_explicit_draws(n, distribution):
    """draw_blocks yields the blocks of explicit _draw(stream(...)) calls in
    index order: block j from (seed, purpose, j), or every block from the one
    (seed, purpose, trial) stream, with the caller's draws between blocks
    taken in stream order.  ``out`` is reused by every block."""
    d, edges = 3, list(range(0, n, problem.BLOCK)) + [n]
    out = np.empty((min(n, problem.BLOCK), d * d))
    blocks = list(problem.draw_blocks(5, "sensing", n, d, distribution))
    assert [sl for sl, _, _ in blocks] == [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    for j, (sl, _, a) in enumerate(blocks):
        want = problem._draw(stream(5, "sensing", j), sl.stop - sl.start, d, distribution)
        assert a.tobytes() == want.tobytes()
    for j, (sl, _, a) in enumerate(problem.draw_blocks(5, "sensing", n, d, distribution, out=out)):
        assert np.shares_memory(a, out) and a.tobytes() == blocks[j][2].tobytes()
    for raw in (False, True):
        trial = stream(5, "mc_noise", 7)
        for sl, rng, a in problem.draw_blocks(5, "mc_noise", n, d, distribution, trial=7,
                                              raw=raw, out=out):
            want = problem._draw(trial, sl.stop - sl.start, d, distribution, raw=raw)
            assert np.shares_memory(a, out) and a.tobytes() == want.tobytes()
            assert rng.standard_normal(3).tobytes() == trial.standard_normal(3).tobytes()


def test_dense_sensing_set_allocated_once(gt20, monkeypatch):
    """No sensing matrix is stored in either memory mode: a run's sensing
    set peaks at the build's buffers and the observations, sensing_bytes(d, n)
    bytes."""
    generate = problem.generate_sensing
    peaks, sets = [], []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            sets.append(generate(*args, **kwargs))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return sets[-1]

    monkeypatch.setattr(harness, "generate_sensing", traced)
    for blocks in (2, 8):
        n = blocks * problem.BLOCK
        for memory_mode in problem.MEMORY_MODES:
            run_experiment(ExperimentConfig(d=20, r=3, k=4, n=n, iters=1, seed=9, sigma=0.1,
                                            memory_mode=memory_mode))
            s = sets[-1]
            assert s.n == n
            assert not any(isinstance(v, np.ndarray) and v.ndim == 3 for v in vars(s).values())
            assert peaks[-1] <= problem.sensing_bytes(20, n)
    assert len(peaks) == 4


def test_noise_reproducible_from_seed(gt20):
    s = generate_sensing(gt20, n=50, sigma=0.7, seed=12)
    matrices = _matrices(s)
    clean = np.array(
        [np.vdot(matrices[i], gt20.Xstar) for i in range(50)]
    )
    assert_allclose(s.observations - clean, s.epsilon, atol=1e-12)
    assert np.std(s.epsilon) == pytest.approx(0.7, rel=0.5)


def _oracle_blocks(s, source):
    """(slice, A_block) pairs for an oracle: the blocks as iter_blocks
    regenerates them, or one dense (n, d, d) stack of all the matrices."""
    if source == "regenerate":
        return list(s.iter_blocks())
    return [(slice(0, s.n), _matrices(s))]


@pytest.mark.parametrize("source", ["dense", "regenerate"])
@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_quadratic_model_matches_streaming_gradient(source, distribution, rng):
    """The operator every run steps with agrees with the definitional
    per-matrix sums (1/n) sum_i (<A_i, F F^T> - y_i) A_i and (1/n) sum_i y_i A_i,
    taken over a dense stack of the matrices or over regenerated blocks."""
    gt = generate_ground_truth(6, 2, [1.0, 0.6], "zeros", seed=21)
    s = generate_sensing(gt, n=700, sigma=0.3, distribution=distribution, seed=22)
    model = s.model
    blocks = _oracle_blocks(s, source)
    bbar = sum(y * a for sl, block in blocks
               for y, a in zip(s.observations[sl], block)) / s.n
    assert np.linalg.norm(model.bbar - bbar) <= 1e-10 * np.linalg.norm(bbar)
    for _ in range(3):
        f = rng.standard_normal((6, 3))
        ffT = f @ f.T
        w = sum((np.vdot(a, ffT) - y) * a for sl, block in blocks
                for y, a in zip(s.observations[sl], block)) / s.n
        g = w @ f
        assert np.linalg.norm(model.gradient(f) - g) <= 1e-10 * np.linalg.norm(g)
        dev = w - (ffT - gt.Xstar)
        got = model.deviation(f, gt.Xstar)
        assert np.linalg.norm(got - dev) <= 1e-10 * np.linalg.norm(dev)
        assert_array_equal(got, got.T)


@pytest.mark.parametrize("d, k", [(1, 1), (2, 2), (10, 1), (10, 3), (31, 4), (40, 2)])
def test_stacked_gradient_is_each_models_gradient_bit_for_bit(d, k, rng):
    """k = 1 makes the product with F a gemv; p = 496 at d = 31 fits one Gram tile of the
    build, p = 820 at d = 40 does not."""
    models = [generate_sensing(generate_ground_truth(d, 1, [1.0], "zeros", seed=seed), n=40,
                               sigma=0.1, seed=seed).model for seed in (1, 2, 3)]
    f = rng.standard_normal((3, d, k))
    got = problem.stacked_gradient(np.stack([m.h for m in models]),
                                   np.stack([m.bbar for m in models]), f)
    assert_array_equal(got, [m.gradient(f_i) for m, f_i in zip(models, f)], strict=True)


def _full_operator(s, source):
    """Oracle: the d^2 x d^2 operator (1/n) sum_i vec(A_i) vec(A_i)^T and
    bbar = (1/n) sum_i y_i A_i, accumulated over every entry of each A_i."""
    d = s.d
    h, bbar = np.zeros((d * d, d * d)), np.zeros(d * d)
    for sl, a in _oracle_blocks(s, source):
        flat = a.reshape(a.shape[0], d * d)
        h += flat.T @ flat
        bbar += s.observations[sl] @ flat
    return h / s.n, (bbar / s.n).reshape(d, d)


@pytest.mark.parametrize("d", [1, 2, 6, 20])
@pytest.mark.parametrize("source", ["dense", "regenerate"])
@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_symmetric_operator_matches_full_operator(d, source, distribution, rng):
    r = min(d, 2)
    gt = generate_ground_truth(d, r, [1.0, 0.6][:r], "zeros", seed=31)
    s = generate_sensing(gt, n=700, sigma=0.3, distribution=distribution, seed=32)
    model = s.model
    p = d * (d + 1) // 2
    assert model.h.shape == (p, p)
    h, bbar = _full_operator(s, source)

    def close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    close(model.bbar, bbar)
    for k in {1, d}:
        f = rng.standard_normal((d, k))
        ffT = f @ f.T
        m = rng.standard_normal((d, d))
        m = m + m.T
        close(model.apply(m), (h @ m.ravel()).reshape(d, d))
        residual = (h @ ffT.ravel()).reshape(d, d) - bbar
        close(model.gradient(f), residual @ f)
        close(model.deviation(f, gt.Xstar), residual - (ffT - gt.Xstar))


def _full_gram_operator(s):
    """Oracle for model.h: each regenerated block's whole p x p Gram
    np.matmul(g.T, g) of its upper triangles, summed over the blocks and
    column-weighted (1 on the diagonal, 2 off it) over n."""
    d = s.d
    iu, ju = np.triu_indices(d)
    h = np.zeros((iu.size, iu.size))
    for _, a in s.iter_blocks():
        g = np.ascontiguousarray(a[:, iu, ju])
        h += np.matmul(g.T, g)
    h *= np.where(iu == ju, 1.0, 2.0) / s.n
    return h


@pytest.mark.parametrize("distribution", problem.DISTRIBUTIONS)
@pytest.mark.parametrize("d", [1, 7, 20, 31, 33, 50, 70])
def test_tiled_operator_matches_full_gram(d, distribution):
    """Up to p = d(d+1)/2 = 512 (d <= 31) the operator is one tile and has
    the oracle's bytes; past it the tiles' sums agree to 1e-14 relative and
    the Gram is mirrored exactly."""
    gt = generate_ground_truth(d, 1, [1.0], "zeros", seed=41)
    s = generate_sensing(gt, n=problem.BLOCK + 88, sigma=0.3, distribution=distribution, seed=42)
    p = d * (d + 1) // 2
    assert len(problem._tiles(p)) == -(-p // 512)
    want = _full_gram_operator(s)
    if p <= 512:
        assert s.model.h.tobytes() == want.tobytes()
    else:
        assert np.linalg.norm(s.model.h - want) <= 1e-14 * np.linalg.norm(want)
    iu, ju = np.triu_indices(d)
    gram = s.model.h / np.where(iu == ju, 1.0, 2.0)  # exact: the weights are 1 and 2
    assert_array_equal(gram, gram.T)


def test_build_holds_one_operator_and_one_block():
    """At d=50 (p = 1275, three tiles) the build peaks within
    sensing_bytes(d, n): one p x p operator, not an operator and a p x p Gram
    buffer next to it."""
    d, n = 50, 2 * problem.BLOCK
    p = d * (d + 1) // 2
    gt = generate_ground_truth(d, 2, [1.0, 0.5], "zeros", seed=51)
    tracemalloc.start()
    try:
        s = generate_sensing(gt, n=n, sigma=0.1, seed=52)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.model.h.nbytes == 8 * p**2
    assert peak <= problem.sensing_bytes(d, n)
    blocks = 8 * problem.BLOCK * (d * d + p)  # room for a mirrored and a gathered block
    assert peak < 2 * 8 * p**2 + blocks


# Each n mod 4; last blocks of 1-3 matrices (n = 513, 514, 515, and one block
# of 3); slice tails of 1-3 (d=17: 455 = 452 + 3; d=20: 325, 326 and
# 839 = 512 + 324 + 3; d=50: 54 and 105 = 52 + 53; d=70: 537 = 512 + 24 + 1).
# d=70 with n=537 and d=20 with n=325 are where 4-row slices that left their
# tail apart moved y; at d=50, the whole-block product over a last block of
# 325 gives other last bits with two BLAS threads than with one.
ORACLE_CASES = [(1, 1), (1, 515), (5, 2), (5, 513), (16, 4), (16, 514), (17, 455), (17, 1024),
                (20, 325), (20, 326), (20, 516), (20, 839), (50, 3), (50, 54), (50, 104),
                (50, 105), (50, 325), (70, 537)]


def _oracle_truth(d):
    return generate_ground_truth(d, 1, [1.0], "zeros", seed=61)


def _whole_block_build(d, n, distribution):
    """y, epsilon, h and bbar as the build first made them: each block's
    mirrored matrices in one (m, d^2) array, y = a vec(X*) + eps over the
    whole block, the Gram of the gathered upper triangles tile by tile, then
    the mirror and the weights."""
    xstar = _oracle_truth(d).Xstar.ravel()
    iu, ju = np.triu_indices(d)
    tiles = problem._tiles(iu.size)
    y, eps, h, b = np.empty(n), np.empty(n), np.zeros((iu.size, iu.size)), np.zeros(iu.size)
    for j, lo in enumerate(range(0, n, problem.BLOCK)):
        m, rng = min(problem.BLOCK, n - lo), stream(62, "sensing", j)
        if distribution == "gaussian":
            raw = rng.standard_normal((m, d, d))
        else:
            raw = rng.integers(0, 2, size=(m, d, d)) * 2.0 - 1.0
        a = (np.triu(raw) + np.triu(raw, 1).transpose(0, 2, 1)).reshape(m, d * d)
        e = 0.3 * stream(62, "noise", j).standard_normal(m)
        y[lo : lo + m] = a @ xstar + e
        eps[lo : lo + m] = e
        g = np.ascontiguousarray(a[:, iu * d + ju])
        for i, ra in enumerate(tiles):
            for rb in tiles[i:]:
                h[ra, rb] += g[:, ra].T @ g[:, rb]
        b += y[lo : lo + m] @ g
    for i, ra in enumerate(tiles):
        for rb in tiles[i + 1 :]:
            h[rb, ra] = h[ra, rb].T
    h *= np.where(iu == ju, 1.0, 2.0) / n
    bbar = np.empty((d, d))
    bbar[iu, ju] = bbar[ju, iu] = b / n
    return y, eps, h, bbar


def _build_digests(kind):
    """{case: sha256 of y, epsilon, h and bbar} over ORACLE_CASES and both
    distributions, from the "whole"-block oracle or the "streamed" build."""
    digests = {}
    for d, n in ORACLE_CASES:
        for distribution in problem.DISTRIBUTIONS:
            if kind == "whole":
                arrays = _whole_block_build(d, n, distribution)
            else:
                s = generate_sensing(_oracle_truth(d), n, 0.3, distribution, seed=62)
                arrays = (s.observations, s.epsilon, s.model.h, s.model.bbar)
            digests[f"d={d} n={n} {distribution}"] = [
                hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest() for x in arrays]
    return digests


def _digests_at(threads, *kinds):
    """{kind: _build_digests(kind)} from a child process whose BLAS runs ``threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, __file__, *kinds], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_streamed_build_matches_the_whole_block_build():
    """With one BLAS thread, the build that forms y slice by slice and holds
    no block of mirrored matrices gives the bytes of the whole-block build:
    y, epsilon, h and bbar.  Its y keeps those bytes with two BLAS threads,
    where a whole-block product can move in its last bits."""
    one = _digests_at(1, "whole", "streamed")
    assert one["streamed"] == one["whole"]
    two = _digests_at(2, "streamed")["streamed"]
    assert {case: v[0] for case, v in two.items()} == {
        case: v[0] for case, v in one["streamed"].items()}


# d=17, 20 and 50 slice by 452, 324 and 52 matrices; each n ends on a block
# whose last slice takes a merged tail of 3, the largest slice there is.
@pytest.mark.parametrize("distribution", problem.DISTRIBUTIONS)
@pytest.mark.parametrize("d, n", [(17, 512 + 455), (20, 327), (50, 512 + 55)])
def test_build_peak_is_within_sensing_bytes_at_slicing_shapes(d, n, distribution):
    gt = generate_ground_truth(d, 1, [1.0], "zeros", seed=53)
    tracemalloc.start()
    try:
        generate_sensing(gt, n=n, sigma=0.1, distribution=distribution, seed=54)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= problem.sensing_bytes(d, n)


def test_sensing_bytes_hold_no_block_of_mirrored_matrices():
    """At d=50, n=2000 the build's bytes are the observations, the operator,
    one tile, the gathered block and three draw slices: at least 9 MB below
    the formula that held a 512 x d^2 block of mirrored matrices next to two
    52-matrix slices."""
    d, n = 50, 2000
    p = d * (d + 1) // 2
    mirrored_block = 8 * (2 * n + p * p + 512**2 + 512 * p + (512 + 2 * 52 + 1) * d * d
                          + np.getbufsize())
    assert problem.sensing_bytes(d, n) <= mirrored_block - 9e6


def test_operator_memory_checked_before_build(gt20, monkeypatch):
    p, build = 20 * 21 // 2, problem.sensing_bytes(20, 10)
    draw_blocks = problem.draw_blocks
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return draw_blocks(*args, **kwargs)

    monkeypatch.setattr(problem, "draw_blocks", counting)
    monkeypatch.setattr(problem, "_memory_budget", lambda: build - 1)
    with pytest.raises(InputError, match="sensing build needs"):
        generate_sensing(gt20, n=10, sigma=0.0, seed=3)
    assert calls == []
    monkeypatch.setattr(problem, "_memory_budget", lambda: build)
    assert generate_sensing(gt20, n=10, sigma=0.0, seed=3).model.h.nbytes == 8 * p**2


def test_config_memory_check_counts_the_operator_in_both_modes(monkeypatch):
    base = dict(d=20, r=3, k=4, n=problem.BLOCK, iters=5, seed=1)
    build = problem.sensing_bytes(20, problem.BLOCK)
    # Past one block only the observations and their noise grow, by 16 bytes a sample.
    assert problem.sensing_bytes(20, 10**9) == build + 16 * (10**9 - problem.BLOCK)
    monkeypatch.setattr(problem, "_memory_budget", lambda: build)
    for memory_mode in problem.MEMORY_MODES:  # no mode stores the matrices
        ExperimentConfig(**base, memory_mode=memory_mode)
        with pytest.raises(InputError, match="sensing build needs"):
            ExperimentConfig(**dict(base, n=10**9), memory_mode=memory_mode)
    monkeypatch.setattr(problem, "_memory_budget", lambda: build - 1)
    for memory_mode in problem.MEMORY_MODES:
        with pytest.raises(InputError, match="more than half of physical memory"):
            ExperimentConfig(**base, memory_mode=memory_mode)
    # A population run allocates the 8 d^2-byte ground truth, and no sensing set.
    monkeypatch.setattr(problem, "_memory_budget", lambda: 8 * 20 * 20)
    ExperimentConfig(**base, gradient_mode="population")
    monkeypatch.setattr(problem, "_memory_budget", lambda: 8 * 20 * 20 - 1)
    with pytest.raises(InputError, match="ground truth needs"):
        ExperimentConfig(**base, gradient_mode="population")


def test_d100_regenerate_run_fits_a_2gb_budget(monkeypatch):
    config = dict(d=100, r=3, k=4, n=2000, iters=5, seed=1, memory_mode="regenerate")
    monkeypatch.setattr(problem, "_memory_budget", lambda: 2 * 10**9)
    ExperimentConfig(**config)
    monkeypatch.setattr(problem, "_memory_budget", lambda: problem.sensing_bytes(100, 2000))
    ExperimentConfig(**config)


def test_ground_truth_and_observations_checked_before_allocation(gt20):
    with pytest.raises(InputError, match="ground truth needs"):
        generate_ground_truth(10**12, 1, [1.0], "zeros", seed=1)
    with pytest.raises(InputError, match="sensing build needs"):  # 16 bytes a sample
        generate_sensing(gt20, n=10**15, sigma=0.0, seed=1)


def test_sensing_mean_and_clt_rate(draw_oracle):
    """First moment of <A,B>A for the symmetric unit-variance ensemble.

    The ensemble mean is 2B - Diag(B): each off-diagonal variable appears
    twice in the inner product, so only the diagonal is unbiased for B.
    The Monte Carlo mean converges to that limit at the CLT rate m^{-1/2}.
    """
    d = 5
    rng = np.random.default_rng(5150)
    b = rng.standard_normal((d, d))
    b = 0.5 * (b + b.T)
    limit = 2.0 * b - np.diag(np.diag(b))

    def mc_mean(target, count, seed):
        rng_ = np.random.default_rng(seed)
        a = draw_oracle(rng_, count, d, "gaussian")
        inner = np.einsum("nij,ij->n", a, target)
        return np.einsum("n,nij->ij", inner, a) / count

    sizes = [100, 1000, 10000]
    devs = []
    for m in sizes:
        per_seed = [
            spectral_norm(mc_mean(b, m, 1000 + 17 * s) - limit) / spectral_norm(limit)
            for s in range(5)
        ]
        devs.append(np.median(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(devs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
    # diagonal matrices are the case where the mean equals the input
    diag_b = np.diag([1.0, -2.0, 0.5, 3.0, -1.0])
    est = mc_mean(diag_b, 200000, 77)
    assert spectral_norm(est - diag_b) < 0.1


def test_parameter_validation(gt20):
    with pytest.raises(InputError):
        generate_sensing(gt20, n=0, sigma=0.0, seed=1)
    with pytest.raises(InputError):
        generate_sensing(gt20, n=5, sigma=-1.0, seed=1)
    with pytest.raises(InputError):
        generate_sensing(gt20, n=5, sigma=0.0, distribution="cauchy", seed=1)
    with pytest.raises(InputError, match="memory_mode"):
        ExperimentConfig(d=20, r=3, k=4, n=5, iters=1, seed=1, memory_mode="mmap")


if __name__ == "__main__":  # the child of test_streamed_build_matches_the_whole_block_build
    print(json.dumps({kind: _build_digests(kind) for kind in sys.argv[1:]}))
