"""The embed path calls numpy's C entry points directly, not the Python
wrappers behind them: `np.maximum.reduce`, `np.add.reduce(x, axis) / n`,
`np.logical_and.reduce(x, None)`, `np.logical_or.reduce(x, None)` and
`sqrt(dot)` for `ndarray.max`, `.sum`, `.mean`, `.all`, `.any`, `np.all` and
`np.linalg.norm`; `ndarray.transpose` for `np.moveaxis`; `np.concatenate`
for `np.vstack`; a zero-stride `np.ndarray` view for `np.broadcast_to`. Each
is pinned here, bit for bit, to the form it replaced, on random, tie-heavy,
non-contiguous and one-channel grids, and on one-frame and one-group inputs;
each check refuses exactly what its old form refused.
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
from sharc.encoders import EncoderParams, encode_silhouette, encode_skeleton_sequence, encode_smpl, frame_chunks
from sharc.exceptions import InvalidInput
from sharc.shape import ShapeEmbedding, ShapeModel, fuse_pose, pool_motion, temporal_pool_pose
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


class TestAxisOrder:
    @pytest.mark.parametrize("lead", [(), (1,), (3,), (2, 2)])
    def test_pyramid_members_come_in_moveaxis_order(self, lead):
        # the identity SA stub sees each member of level 0 in the order of
        # the frame axis moved first; the transpose must give that very view
        frames = np.arange(np.prod(lead + (4, 2, 3, 2)), dtype=np.float64).reshape(lead + (4, 2, 3, 2))
        params = AttentionParams.initialize(2, levels=2, seed=3)
        seen = []

        def sa(grids, level):
            if level == 0:
                seen.append(grids)
            return grids

        pyramid_aggregate(frames, params, sa_fn=sa, ta_fn=lambda x, y, level: np.zeros_like(x))
        want = np.moveaxis(frames, -4, 0)
        assert len(seen) == len(want)
        for have, member in zip(seen, want):
            assert _same_bits(have, member) and have.strides == member.strides


def _embed_with_the_wrapper_forms(model: ShapeModel, masks, appearance, body, skeleton) -> np.ndarray:
    """`ShapeModel.embed`'s bins as it computed them with np.broadcast_to,
    ndarray.max and np.vstack."""
    pooled = None
    for chunk in frame_chunks(len(masks), masks.shape[1] * masks.shape[2]):
        sil = encode_silhouette(masks[chunk], appearance[chunk], model.sil_encoder)
        rows = encode_smpl(body[chunk], model.smpl_encoder)
        fused = fuse_pose(sil, np.broadcast_to(rows[:, None, None, :], sil.shape[:3] + rows.shape[1:]))
        chunk_max = fused.max(axis=0)
        pooled = chunk_max if pooled is None else np.maximum(pooled, chunk_max)
    pose_bins = strip_pool(pooled, model.bins, model.hpp_mode)
    motion = encode_skeleton_sequence(skeleton, model.skeleton_encoder)
    return np.vstack([pose_bins, model.motion_bin(motion)[None, :]])


class TestShapeEmbedForms:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_embed_equals_the_broadcast_to_and_vstack_form(self, data):
        # 8x8 tracklets fit in one frame chunk; 32x32 and 24x40 take chunks of 8
        t, h, w = data.draw(st.sampled_from([(1, 8, 8), (3, 8, 8), (9, 24, 40), (20, 32, 32)]), label="frames")
        c = data.draw(st.sampled_from([1, 3, 8]), label="channels")
        model = ShapeModel(
            sil_encoder=EncoderParams.initialize((4, 6, c), seed=21),
            smpl_encoder=EncoderParams.initialize((85, 12, c), seed=22),
            skeleton_encoder=EncoderParams.initialize((51, 10, data.draw(st.sampled_from([c, 5]))), seed=23),
            bins=2,
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        masks = (rng.random((t, h, w)) < 0.5).astype(np.float64)
        appearance, body, skeleton = rng.random((t, h, w, 3)), rng.standard_normal((t, 85)), rng.random((t, 51))
        want = _embed_with_the_wrapper_forms(model, masks, appearance, body, skeleton)
        assert _same_bits(model.embed(masks, appearance, body, skeleton).bins, want)

    def test_the_zero_stride_view_is_the_broadcast_to_view(self):
        rows = np.random.default_rng(5).standard_normal((3, 4))
        view = np.ndarray((3, 2, 5, 4), rows.dtype, rows, 0, (rows.strides[0], 0, 0, rows.strides[1]))
        want = np.broadcast_to(rows[:, None, None, :], (3, 2, 5, 4))
        assert _same_bits(view, want) and view.strides == want.strides


@st.composite
def _bool_arrays(draw):
    """A bool array of 0 to 3 axes, possibly empty, in C order or strided, with
    True in a drawn share of its entries."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    if x.ndim and draw(st.booleans()):
        x = np.repeat(x, 2, axis=0)[::2]
    return x


class TestCheckForms:
    @settings(max_examples=300, deadline=None)
    @given(x=_bool_arrays())
    def test_logical_and_reduce_is_all(self, x):
        have, want = np.logical_and.reduce(x, None), x.all()
        assert type(have) is type(want) and have == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_logical_or_reduce_is_any_on_float_vectors(self, data):
        v = data.draw(_arrays((data.draw(st.integers(1, 9)),)), label="v")
        for i in data.draw(st.lists(st.integers(0, len(v) - 1), max_size=3), label="specials"):
            v[i] = data.draw(st.sampled_from([0.0, -0.0, np.nan, 5e-324]))
        have, want = np.logical_or.reduce(v, None), v.any()
        assert type(have) is type(want) and have == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ufunc_min_and_max_are_the_methods(self, data):
        conf = data.draw(_arrays((data.draw(st.integers(1, 4)), 17)), label="confidences")
        for _ in range(data.draw(st.integers(0, 3), label="specials")):
            index = (data.draw(st.integers(0, len(conf) - 1)), data.draw(st.integers(0, 16)))
            conf[index] = data.draw(st.sampled_from([0.0, -0.0, 1.0, np.nan]))
        assert _same_bits(np.minimum.reduce(conf, None), conf.min())
        assert _same_bits(np.maximum.reduce(conf, None), conf.max())


# the values at the edges of [0, 1] and past them
_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 0.5, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0), -1e300, 1e300]


def _record(masks=None, appearance=None, skeleton=None):
    t, h, w = 2, 2, 3
    return TrackletRecord(
        "t", "s", "c",
        masks=np.ones((t, h, w)) if masks is None else masks,
        appearance=np.full((t, h, w, 3), 0.25) if appearance is None else appearance,
        body=np.zeros((t, 85)),
        skeleton=np.full((t, 51), 0.5) if skeleton is None else skeleton,
    )


class TestRecordChecks:
    @pytest.mark.parametrize("value", _EDGES)
    @pytest.mark.parametrize("where", [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)])
    def test_the_folded_appearance_check_refuses_what_the_two_checks_refused(self, value, where):
        app = np.full((2, 2, 3, 3), 0.25)
        app[where] = value
        refused = bool(not np.all(np.isfinite(app)) or app.min() < 0.0 or app.max() > 1.0)
        assert _refused(lambda: _record(appearance=app)) is refused
        # and a record of nothing but that value
        app = np.full((2, 2, 3, 3), value)
        refused = bool(not np.all(np.isfinite(app)) or app.min() < 0.0 or app.max() > 1.0)
        assert _refused(lambda: _record(appearance=app)) is refused

    @pytest.mark.parametrize("value", _EDGES)
    def test_the_confidence_check_refuses_what_the_methods_refused(self, value):
        skeleton = np.full((2, 51), 0.5)
        skeleton[1, 40] = value
        conf = skeleton[:, 34:]
        refused = bool(not np.all(np.isfinite(skeleton)) or conf.min() < 0.0 or conf.max() > 1.0)
        assert _refused(lambda: _record(skeleton=skeleton)) is refused

    @pytest.mark.parametrize("value", _EDGES)
    def test_the_mask_check_refuses_what_all_refused(self, value):
        masks = np.ones((2, 2, 3))
        masks[0, 1, 2] = value
        refused = bool(not ((masks == 0.0) | (masks == 1.0)).all())
        assert _refused(lambda: _record(masks=masks)) is refused
