import numpy as np
import pytest

from msense import generate_ground_truth, generate_sensing
from msense.subspace import batch_metrics


@pytest.fixture(scope="session")
def gt20():
    """Reference problem: d=20, r=3, spectrum (1, 0.9, 0.8), no residual part."""
    return generate_ground_truth(20, 3, [1.0, 0.9, 0.8], "zeros", seed=424242)


@pytest.fixture(scope="session")
def sensing20(gt20):
    return generate_sensing(gt20, n=200, sigma=0.0, seed=424242)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _whole_block_draw(rng_, count, d, distribution):
    """The raw (count, d, d) draws of one whole-block call, as first written."""
    if distribution == "gaussian":
        return rng_.standard_normal((count, d, d))
    return rng_.integers(0, 2, size=(count, d, d)).astype(float) * 2.0 - 1.0


def _triu_transpose_draw(rng_, count, d, distribution):
    """The sensing draw as first written: triu, its transpose and the diagonal."""
    g = _whole_block_draw(rng_, count, d, distribution)
    upper = np.triu(g, 1)
    a = upper + np.transpose(upper, (0, 2, 1))
    idx = np.arange(d)
    a[:, idx, idx] = g[:, idx, idx]
    return a


@pytest.fixture(scope="session")
def draw_oracle():
    """``_triu_transpose_draw(rng, count, d, distribution)``, the oracle for problem._draw."""
    return _triu_transpose_draw


@pytest.fixture(scope="session")
def raw_draw_oracle():
    """``_whole_block_draw(rng, count, d, distribution)``, the oracle for problem._draw's
    raw draws."""
    return _whole_block_draw


def _one_row_metrics(t, f, gt, scales, grad_norm=0.0, delta_norm=None):
    return batch_metrics(t, [f], gt, scales, [grad_norm], [delta_norm])[0]


@pytest.fixture(scope="session")
def one_row_metrics():
    """``_one_row_metrics(t, f, gt, scales, grad_norm=0.0, delta_norm=None)``: the
    IterateMetrics of one iterate, from a one-row batch_metrics call."""
    return _one_row_metrics
