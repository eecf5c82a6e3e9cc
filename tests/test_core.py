import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sharc.core import (
    NORM_FLOOR,
    cosine_similarity,
    euclidean_distance,
    l2_normalize,
    softmax_grid,
    strip_pool,
)
from sharc.exceptions import DimMismatch, InvalidBinning, InvalidInput

finite_vec = arrays(
    np.float64,
    st.integers(min_value=1, max_value=24),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@given(finite_vec)
def test_l2_normalize_unit_norm(v):
    n = l2_normalize(v)
    if np.linalg.norm(v) > NORM_FLOOR:
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
    else:
        assert np.array_equal(n, v)


def test_l2_normalize_zero_passthrough():
    z = np.zeros(5)
    assert np.array_equal(l2_normalize(z), z)


@given(finite_vec)
@settings(max_examples=200)
def test_cosine_self_is_one(v):
    if np.linalg.norm(v) <= NORM_FLOOR:
        return
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_bounds_and_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.normal(size=8), rng.normal(size=8)
        c = cosine_similarity(a, b)
        assert -1.0 <= c <= 1.0
        assert c == pytest.approx(cosine_similarity(b, a), abs=1e-12)


def test_cosine_scale_invariance():
    a = np.array([1.0, -2.0, 3.0])
    b = np.array([0.5, 0.25, -1.0])
    assert cosine_similarity(3.0 * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-12)


def test_cosine_rejects_zero_vector():
    with pytest.raises(InvalidInput):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_cosine_rejects_dim_mismatch():
    with pytest.raises(DimMismatch):
        cosine_similarity(np.ones(3), np.ones(4))


def test_euclidean_basics():
    a, b = np.array([0.0, 3.0]), np.array([4.0, 0.0])
    assert euclidean_distance(a, b) == pytest.approx(5.0)
    assert euclidean_distance(a, a) == 0.0
    with pytest.raises(DimMismatch):
        euclidean_distance(a, np.ones(3))


def test_softmax_grid_normalizes_per_channel():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 5, 3))
    att = softmax_grid(g)
    np.testing.assert_allclose(att.sum(axis=(0, 1)), np.ones(3), atol=1e-12)
    assert att.min() > 0.0


def test_strip_pool_shapes_and_modes():
    g = np.arange(4 * 2 * 3, dtype=np.float64).reshape(4, 2, 3)
    out = strip_pool(g, 2)
    assert out.shape == (2, 3)
    mx = strip_pool(g, 2, "max")
    mn = strip_pool(g, 2, "mean")
    np.testing.assert_allclose(out, mx + mn, atol=1e-12)


def test_strip_pool_single_strip_is_global():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(6, 4, 5))
    out = strip_pool(g, 1, "max")
    np.testing.assert_allclose(out[0], g.max(axis=(0, 1)), atol=0)


def test_strip_pool_rejects_bad_bins():
    g = np.zeros((6, 4, 2))
    with pytest.raises(InvalidBinning):
        strip_pool(g, 4)
    with pytest.raises(InvalidBinning):
        strip_pool(g, 0)


def test_strip_pool_rejects_bad_mode():
    with pytest.raises(InvalidInput):
        strip_pool(np.zeros((4, 4, 1)), 2, "median")
