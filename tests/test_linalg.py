import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from msense import (
    InputError,
    as_symmetric,
    orthonormalize,
    spectral_norm,
)
from msense.linalg import spectral_norms

sym_matrices = st.integers(2, 8).flatmap(
    lambda d: arrays(
        np.float64,
        (d, d),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
).map(lambda m: 0.5 * (m + m.T))


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-10)
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, rel=1e-10)
    u = np.array([1.0, 1.0])  # |u|^2 = 2
    assert spectral_norm(np.outer(u, u)) == pytest.approx(2.0, rel=1e-10)


def test_spectral_norms_of_a_symmetric_stack(rng):
    stack = rng.standard_normal((5, 4, 4))
    stack = stack + stack.transpose(0, 2, 1)
    stack[3, 1, 2] = stack[3, 2, 1] = np.nan
    norms = spectral_norms(stack)
    assert np.isnan(norms[3])
    assert_allclose(norms[[0, 1, 2, 4]], [spectral_norm(m) for m in stack[[0, 1, 2, 4]]],
                    rtol=1e-12)
    assert_allclose(spectral_norms(np.empty((2, 0, 0))), [0.0, 0.0])


def test_nonfinite_rejected():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InputError):
        spectral_norm(bad)


def test_as_symmetric_absorbs_rounding_and_rejects_real_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    out = as_symmetric(m)
    assert_allclose(out, out.T)
    with pytest.raises(InputError):
        as_symmetric(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(InputError, match="square"):
        as_symmetric(np.ones((2, 3)))


def test_orthonormalize_examples(rng):
    # already orthonormal input: same span, orthonormal columns
    q0 = orthonormalize(rng.standard_normal((5, 3)))
    q1 = orthonormalize(q0)
    assert_allclose(q1.T @ q1, np.eye(3), atol=1e-12)
    assert spectral_norm(q1 @ q1.T - q0 @ q0.T) < 1e-10

    v = rng.standard_normal((6, 1))
    assert_allclose(orthonormalize(v), v / np.linalg.norm(v))

    g = rng.standard_normal((20, 3))
    q = orthonormalize(g)
    assert_allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_orthonormalize_rejects_rank_deficient():
    m = np.ones((4, 2))
    with pytest.raises(InputError):
        orthonormalize(m)
    with pytest.raises(InputError):
        orthonormalize(np.zeros((3, 5)))  # cols > rows


@settings(max_examples=50, deadline=None)
@given(sym_matrices)
def test_norm_chain(m):
    spec = spectral_norm(m)
    fro = np.linalg.norm(m)
    d = m.shape[0]
    assert spec <= fro + 1e-9 * max(1.0, fro)
    assert fro <= np.sqrt(d) * spec + 1e-9 * max(1.0, fro)


@settings(max_examples=50, deadline=None)
@given(sym_matrices)
def test_eig_round_trip_and_norm_agreement(m):
    top = np.max(np.abs(np.linalg.eigvalsh(m)))
    assert abs(spectral_norm(m) - top) < 1e-9 * max(1.0, top)
