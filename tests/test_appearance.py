import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sharc.appearance import (
    TA_TARGETS,
    AttentionParams,
    average_aggregate,
    flatten_feature,
    mean_embedding,
    pyramid_aggregate,
    spatial_attention,
    temporal_attention,
)
from sharc.encoders import EncoderParams
from sharc.exceptions import DimMismatch, EmptyInput, InvalidFrameCount, InvalidGamma, InvalidInput
from sharc.gallery import AppearanceModel


def _params(channels=3, levels=3, seed=11):
    return AttentionParams.initialize(channels, levels=levels, seed=seed)


def _frames(n=8, c=3, h=2, w=2, scale=1.0):
    rng = np.random.default_rng(0)
    return [scale * rng.normal(size=(h, w, c)) for _ in range(n)]


class TestFlattening:
    def test_gamma_one_is_identity_bitexact(self):
        v = np.array([0.3, -2.5, 0.0, 7.125, -0.015625])
        out = flatten_feature(v, 1.0)
        assert np.array_equal(out, v)
        assert out is not v

    def test_gamma_zero_is_sign_vector(self):
        v = np.array([3.2, -0.4, 0.0, 1e-12, -5.0])
        np.testing.assert_array_equal(flatten_feature(v, 0.0), np.sign(v))

    def test_zero_stays_zero_for_all_gamma(self):
        for g in (0.0, 0.3, 1.0):
            assert flatten_feature(np.array([0.0]), g)[0] == 0.0

    def test_sign_preserved_and_magnitude_law(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=10000) * rng.choice([0.1, 10.0], size=10000)
        out = flatten_feature(v, 0.4)
        assert np.array_equal(np.sign(out), np.sign(v))
        small = np.abs(v) <= 1.0
        assert np.all(np.abs(out)[small] >= np.abs(v)[small])
        assert np.all(np.abs(out)[~small] <= np.abs(v)[~small])

    def test_power_composition(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=1000)
        a, b = 0.7, 0.5
        lhs = flatten_feature(flatten_feature(v, a), b)
        rhs = flatten_feature(v, a * b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_gamma_out_of_range(self):
        for g in (-0.1, 1.5):
            with pytest.raises(InvalidGamma):
                flatten_feature(np.ones(3), g)

    @given(
        arrays(np.float64, 16, elements=st.floats(-100, 100)),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_flattening_idempotent_on_signs(self, v, gamma):
        # flattening a sign vector returns it unchanged (|x| in {0, 1})
        s = np.sign(v)
        np.testing.assert_array_equal(flatten_feature(s, gamma), s)


class TestAttention:
    def test_spatial_attention_constant_grid_uniform(self):
        p = _params()
        g = np.full((2, 2, 3), 0.7)
        out = spatial_attention(g, p.sa_weights[0])
        # uniform softmax over 4 positions weights each cell by 1/4
        np.testing.assert_allclose(out, g / 4.0, atol=1e-12)

    def test_spatial_attention_preserves_shape(self):
        p = _params()
        g = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        assert spatial_attention(g, p.sa_weights[0]).shape == g.shape

    def test_temporal_attention_targets(self):
        p = _params()
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3))
        later = temporal_attention(x, y, p.ta_weights[0], target="later")
        earlier = temporal_attention(x, y, p.ta_weights[0], target="earlier")
        both = temporal_attention(x, y, p.ta_weights[0], target="both")
        assert not np.array_equal(later, earlier)
        # same attention map, different value grids
        with pytest.raises(InvalidInput):
            temporal_attention(x, y, p.ta_weights[0], target="future")
        assert later.shape == both.shape == earlier.shape

    def test_temporal_attention_dim_check(self):
        p = _params()
        with pytest.raises(DimMismatch):
            temporal_attention(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)), p.ta_weights[0])


class TestPyramid:
    def test_requires_exactly_group_size(self):
        p = _params()
        for n in (7, 9, 0):
            with pytest.raises(InvalidFrameCount):
                pyramid_aggregate(_frames(n), p)
        assert pyramid_aggregate(_frames(8), p).shape == (3,)

    def test_level_populations(self):
        # 8 -> 4 -> 2 -> 1: SA sees two grids per pair, TA one pair, each
        # call over every group at once
        p = _params()
        for lead in [(), (3,)]:
            group = np.random.default_rng(6).normal(size=lead + (8, 2, 4, 3))
            sa_calls, ta_calls = [], []

            def sa_stub(g, level):
                sa_calls.append((level, g.shape))
                return g

            def ta_stub(x, y, level):
                ta_calls.append((level, x.shape, y.shape))
                return np.zeros_like(x)

            pyramid_aggregate(group, p, sa_fn=sa_stub, ta_fn=ta_stub)
            assert [lvl for lvl, _ in sa_calls] == [0] * 8 + [1] * 4 + [2] * 2
            assert [lvl for lvl, _, _ in ta_calls] == [0] * 4 + [1] * 2 + [2]
            member = lead + (2, 4, 3)
            assert {shape for _, shape in sa_calls} == {member}
            assert {(x, y) for _, x, y in ta_calls} == {(member, member)}

    def test_stub_oracle_constant_frames(self):
        # SA = identity and TA = 0 turn each level into plain pairwise sums,
        # so 3 levels of 8 identical frames give exactly 8x the frame
        p = _params()
        frame = np.full((2, 2, 3), 0.375)
        out = pyramid_aggregate(
            [frame.copy() for _ in range(8)],
            p,
            sa_fn=lambda g, level: g,
            ta_fn=lambda x, y, level: np.zeros_like(x),
        )
        np.testing.assert_array_equal(out, np.full(3, 8 * 0.375))

    def test_four_level_pyramid_needs_sixteen(self):
        p = _params(levels=4)
        assert p.group_size == 16
        with pytest.raises(InvalidFrameCount):
            pyramid_aggregate(_frames(8), p)
        assert pyramid_aggregate(_frames(16), p).shape == (3,)

    def test_channel_mismatch(self):
        p = _params(channels=5)
        with pytest.raises(DimMismatch):
            pyramid_aggregate(_frames(8, c=3), p)


def _pyramid_by_pairs(group, params, ta_target):
    """The pyramid as one SA call per population member and one TA call per
    pair, each over every group at once: the oracle of `pyramid_aggregate`'s
    one call of each per level."""
    current = list(np.moveaxis(group, -4, 0))
    for level in range(params.levels):
        sa = [spatial_attention(g, params.sa_weights[level]) for g in current]
        current = [
            sa[i] + sa[i + 1] + temporal_attention(current[i], current[i + 1], params.ta_weights[level], ta_target)
            for i in range(0, len(current), 2)
        ]
    return current[0].mean(axis=(-3, -2))


@pytest.mark.parametrize("ta_target", TA_TARGETS)
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["no-group-axis", "one-group", "three-groups"])
def test_pyramid_equals_the_per_pair_oracle(levels, ta_target, lead):
    rng = np.random.default_rng(100 * levels + len(lead))
    params = _params(channels=16, levels=levels, seed=levels)
    # 4x6 grids: a swapped spatial axis cannot go unnoticed
    group = rng.normal(size=lead + (2**levels, 4, 6, 16))
    got = pyramid_aggregate(group, params, ta_target=ta_target)
    want = _pyramid_by_pairs(group, params, ta_target)
    assert got.shape == want.shape == lead + (16,)
    assert got.tobytes() == want.tobytes()


def test_average_aggregate_closed_form():
    frames = [np.full((2, 2, 3), float(v)) for v in (1, 2, 3, 6)]
    np.testing.assert_array_equal(average_aggregate(frames), np.full(3, 3.0))


def test_average_aggregate_rejects_an_empty_frame_axis():
    for frames in ([], np.zeros((2, 0, 2, 2, 3))):
        with pytest.raises(EmptyInput):
            average_aggregate(frames)


def _model(**options):
    """An appearance model whose weights the scoring-vector tests never use."""
    return AppearanceModel(encoder=EncoderParams.initialize((3, 2), seed=6), attention=_params(2), **options)


class TestEmbedding:
    def test_vector_concatenates_parts(self):
        emb = (np.array([3.0, 4.0]), np.array([0.0, 2.0]))
        v = _model(normalize_parts=True).vector(emb)
        np.testing.assert_allclose(v[:2], [0.6, 0.8], atol=1e-12)
        np.testing.assert_allclose(v[2:], [0.0, 1.0], atol=1e-12)
        raw = _model(normalize_parts=False).vector(emb)
        np.testing.assert_array_equal(raw, [3.0, 4.0, 0.0, 2.0])

    def test_vector_route_toggles(self):
        emb = (np.array([3.0, 4.0]), np.array([1.0, 2.0]))
        no_attn = _model(use_attn=False).vector(emb)
        assert np.array_equal(no_attn[:2], [0.0, 0.0]) and no_attn[2:].any()
        no_avg = _model(use_avg=False).vector(emb)
        assert no_avg[:2].any() and np.array_equal(no_avg[2:], [0.0, 0.0])

    def test_mean_embedding_averages_parts(self):
        # two groups of one channel
        attn, avg = mean_embedding((np.array([[1.0], [3.0]]), np.array([[2.0], [6.0]])))
        assert attn.shape == avg.shape == (1,)
        assert attn[0] == 2.0 and avg[0] == 4.0

    def test_golden_pipeline_values(self):
        frames = np.array([
            np.clip(
                np.full((16, 16, 3), 0.1)
                + 0.05 * np.sin(np.arange(768).reshape(16, 16, 3) * 0.1 + t),
                0,
                1,
            )
            for t in range(8)
        ])
        enc = EncoderParams.initialize((3, 5, 7), seed=6)
        model = AppearanceModel(encoder=enc, attention=AttentionParams.initialize(7, seed=11), gamma=0.5)
        # 8 frames are one group, and the mean of one group is that group
        attn, avg = model.embed_tracklet(frames)
        attn4 = [0.0010436266632538873, 0.0, 0.0005746775701032886, 0.003696505170243647]
        avg4 = [0.3978971470490903, 0.0, 0.2952629113316236, 0.7488482711267707]
        np.testing.assert_allclose(attn[:4], attn4, rtol=0, atol=1e-12)
        np.testing.assert_allclose(avg[:4], avg4, rtol=0, atol=1e-12)
