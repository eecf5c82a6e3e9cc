"""The embed path's reductions call numpy's ufunc reductions directly
(`np.maximum.reduce`, `np.add.reduce(x, axis) / n`, `isfinite(x).all()`,
`sqrt(dot)`), not the Python wrappers behind `ndarray.max`, `.sum`, `.mean`,
`np.all` and `np.linalg.norm`. Each is pinned here, bit for bit, to the
method form it replaced, on random, tie-heavy, non-contiguous and
one-channel grids, and on one-frame and one-group inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharc.appearance import (
    AttentionParams,
    average_aggregate,
    flatten_feature,
    mean_embedding,
    pyramid_aggregate,
    spatial_attention,
    temporal_attention,
)
from sharc.core import as_grid, as_grids, as_vector, l2_normalize, softmax_grid, strip_pool
from sharc.exceptions import InvalidInput
from sharc.shape import ShapeEmbedding, pool_motion, temporal_pool_pose
from sharc.synth import TrackletRecord

# a tie-heavy draw repeats these values, so maxima tie and sums cancel
_TIES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def _same_bits(have, want) -> bool:
    have, want = np.asarray(have), np.asarray(want)
    return have.dtype == want.dtype and have.shape == want.shape and have.tobytes() == want.tobytes()


@st.composite
def _arrays(draw, shape):
    """A float64 array of `shape`: random or tie-heavy values, laid out in C
    order, Fortran order or as a strided view."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(_TIES, size=shape)
    else:
        values = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":
        # every other entry of the first axis of a buffer twice as long
        buffer = np.empty((2 * shape[0],) + tuple(shape[1:]))
        buffer[::2] = values
        return buffer[::2]
    return values


def _grid_shape(lead=()):
    """(*lead, H, W, C), one channel in a third of the draws."""
    return st.tuples(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 1, 2, 3, 8])).map(
        lambda hwc: tuple(lead) + hwc
    )


@st.composite
def _grids(draw, lead=()):
    return draw(_arrays(draw(_grid_shape(lead))))


class TestSpatialReductions:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_softmax_grid_equals_the_method_form(self, data):
        lead = data.draw(st.sampled_from([(), (1,), (3,), (2, 2)]), label="lead")
        logits = data.draw(_grids(lead), label="logits")
        want = logits - logits.max(axis=(-3, -2), keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=(-3, -2), keepdims=True)
        assert _same_bits(softmax_grid(logits), want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_strip_pool_equals_the_method_form(self, data):
        strips, per_strip = data.draw(st.integers(1, 4), label="strips"), data.draw(st.integers(1, 3))
        w, c = data.draw(st.integers(1, 6)), data.draw(st.sampled_from([1, 2, 5]))
        grid = data.draw(_arrays((strips * per_strip, w, c)), label="grid")
        bands = np.asarray(grid).reshape(strips, per_strip, w, c)
        mx, mn = bands.max(axis=(1, 2)), bands.mean(axis=(1, 2))
        assert _same_bits(strip_pool(grid, strips, "max"), mx)
        assert _same_bits(strip_pool(grid, strips, "mean"), mn)
        assert _same_bits(strip_pool(grid, strips, "max+mean"), mx + mn)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_temporal_pool_pose_equals_the_method_form(self, data):
        frames = data.draw(st.integers(1, 5), label="frames")
        x = data.draw(_arrays(data.draw(_grid_shape((frames,)))), label="poses")
        assert _same_bits(temporal_pool_pose(x), x.max(axis=0))


class TestGroupReductions:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pyramid_aggregate_final_mean_equals_the_method_form(self, data):
        levels = data.draw(st.integers(1, 3), label="levels")
        # no leading axis, or one group, or several
        lead = data.draw(st.sampled_from([(), (1,), (3,)]), label="lead")
        shape = data.draw(_grid_shape(lead + (2**levels,)), label="shape")
        frames = data.draw(_arrays(shape), label="frames")
        params = AttentionParams.initialize(shape[-1], levels=levels, seed=data.draw(st.integers(0, 99)))
        current = np.moveaxis(np.asarray(frames, dtype=np.float64), -4, 0)
        for level in range(levels):
            sa = spatial_attention(current, params.sa_weights[level])
            ta = temporal_attention(current[0::2], current[1::2], params.ta_weights[level])
            current = sa[0::2] + sa[1::2]
            current += ta
        assert _same_bits(pyramid_aggregate(frames, params), current[0].mean(axis=(-3, -2)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_average_aggregate_equals_the_method_form(self, data):
        n = data.draw(st.sampled_from([1, 1, 2, 3, 8]), label="frames")
        lead = data.draw(st.sampled_from([(), (1,), (4,)]), label="lead")
        grids = data.draw(_arrays(data.draw(_grid_shape(lead + (n,)))), label="grids")
        assert _same_bits(average_aggregate(grids), grids.mean(axis=-4).mean(axis=(-3, -2)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mean_embedding_equals_the_method_form(self, data):
        g, c = data.draw(st.sampled_from([1, 1, 2, 3, 7]), label="groups"), data.draw(st.integers(1, 9))
        attn, avg = data.draw(_arrays((g, c)), label="attn"), data.draw(_arrays((g, c)), label="avg")
        have = mean_embedding((attn, avg))
        assert _same_bits(have[0], attn.mean(axis=0)) and _same_bits(have[1], avg.mean(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pool_motion_equals_the_numpy_scalar_fsum(self, data):
        t, c = data.draw(st.integers(1, 6), label="frames"), data.draw(st.sampled_from([1, 4, 16]))
        m = data.draw(_arrays((t, c)), label="motion")
        want = np.array([math.fsum(col) for col in m.T]) / m.shape[0]
        assert _same_bits(pool_motion(m), want)


class TestNorm:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_l2_normalize_equals_division_by_linalg_norm(self, data):
        n = data.draw(st.sampled_from([1, 2, 3, 16, 31, 64, 200]), label="dim")
        v = data.draw(_arrays((n,)), label="v")
        norm = float(np.linalg.norm(v))
        have = l2_normalize(v)
        assert _same_bits(have, v / norm if norm > 1e-12 else v.copy())


def _with_non_finite(data, shape):
    """An array of `shape` in any layout, with up to two of its entries
    replaced by nan, inf or -inf."""
    x = data.draw(_arrays(shape), label="x")
    for _ in range(data.draw(st.integers(0, 2), label="bad")):
        index = tuple(data.draw(st.integers(0, k - 1)) for k in shape)
        x[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


def _refused(call) -> bool:
    try:
        call()
    except InvalidInput:
        return True
    return False


class TestFiniteChecks:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_each_check_refuses_exactly_what_np_all_refuses(self, data):
        grids = _with_non_finite(data, data.draw(_grid_shape((2, 1))))
        finite = bool(np.all(np.isfinite(grids)))
        grid, vec = grids[0, 0], grids[0, 0, 0, 0]
        assert _refused(lambda: as_grids(grids)) is not finite
        assert _refused(lambda: as_grid(grid)) is not bool(np.all(np.isfinite(grid)))
        assert _refused(lambda: as_vector(vec)) is not bool(np.all(np.isfinite(vec)))
        assert _refused(lambda: flatten_feature(vec, 0.5)) is not bool(np.all(np.isfinite(vec)))
        bins = grids.reshape(-1, grids.shape[-1])
        if len(bins) >= 2:
            assert _refused(lambda: ShapeEmbedding(bins)) is not finite

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_record_refuses_what_the_method_form_refuses(self, data):
        t, h, w = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        app = np.clip(data.draw(_arrays((t, h, w, 3)), label="app"), 0.0, 1.0)
        if data.draw(st.booleans(), label="out of range"):
            index = tuple(data.draw(st.integers(0, k - 1)) for k in app.shape)
            app[index] = data.draw(st.sampled_from([-1e-12, 1.0 + 1e-12, 2.0, -3.0, np.nan, np.inf]))
        body = _with_non_finite(data, (t, 85))
        skeleton = np.full((t, 51), 0.5)
        masks = np.ones((t, h, w))
        good = bool(np.all(np.isfinite(app))) and app.min() >= 0.0 and app.max() <= 1.0
        good = good and bool(np.all(np.isfinite(body)))

        def build():
            return TrackletRecord("t", "s", "c", masks=masks, appearance=app, body=body, skeleton=skeleton)

        assert _refused(build) is not good


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 1, 1), (4, 1, 1, 1)])
def test_one_position_grids_equal_the_method_form(shape):
    # a single spatial position is the softmax's and the mean's degenerate case
    x = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    want = x - x.max(axis=(-3, -2), keepdims=True)
    np.exp(want, out=want)
    want /= want.sum(axis=(-3, -2), keepdims=True)
    assert _same_bits(softmax_grid(x), want)
    if len(shape) == 4:
        assert _same_bits(average_aggregate(x), x.mean(axis=-4).mean(axis=(-3, -2)))
