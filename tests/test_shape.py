from dataclasses import replace

import numpy as np
import pytest

from sharc.encoders import EncoderParams, encode_skeleton_sequence
from sharc.exceptions import DimMismatch, EmptyInput
from sharc.prng import SplitMix64
from sharc.shape import ShapeModel, fuse_pose, pool_motion, temporal_pool_pose


def _mask(t):
    return ((np.indices((8, 8)).sum(axis=0) + t) % 3 == 0).astype(float)


def _rgb(t):
    return _mask(t)[:, :, None] * np.linspace(0.0, 1.0, 192).reshape(8, 8, 3)


def _body(t):
    return np.concatenate(
        [np.array([0.1, -0.2, 0.3]) * t, np.linspace(-1, 1, 10), np.sin(np.arange(72) * 0.1 + t)]
    )


def _skel(t):
    # x, y per joint, then the confidences
    return np.concatenate([np.cos(np.arange(34) * 0.2 + t), np.full(17, 0.9)])


def _inputs(frames):
    """(masks, appearance, body, skeleton) arrays over the given frame numbers."""
    return tuple(np.array([f(t) for t in frames]) for f in (_mask, _rgb, _body, _skel))


def _model(bins=2):
    return ShapeModel(
        sil_encoder=EncoderParams.initialize((4, 6, 8), seed=21),
        smpl_encoder=EncoderParams.initialize((85, 12, 8), seed=22),
        skeleton_encoder=EncoderParams.initialize((51, 10, 6), seed=23),
        bins=bins,
        projection_seed=7,
    )


class TestFusePose:
    def test_closed_form(self):
        a = np.array([[[1.0, 2.0]], [[0.0, 3.0]]])
        b = np.array([[[4.0, 0.5]], [[2.0, 1.0]]])
        # elementwise a*b + a (skip connection keeps the silhouette term)
        np.testing.assert_array_equal(fuse_pose(a, b), a * b + a)

    def test_zero_3d_branch_passthrough(self):
        a = np.arange(12, dtype=np.float64).reshape(2, 2, 3)
        np.testing.assert_array_equal(fuse_pose(a, np.zeros_like(a)), a)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            fuse_pose(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))


def test_temporal_pool_is_elementwise_max():
    frames = [np.full((2, 2, 1), v) for v in (1.0, 3.0, 2.0)]
    np.testing.assert_array_equal(temporal_pool_pose(frames), np.full((2, 2, 1), 3.0))
    with pytest.raises(EmptyInput):
        temporal_pool_pose([])


def test_pool_motion_is_column_mean():
    seq = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(pool_motion(seq), np.array([3.0, 4.0]))


class TestShapeEmbedding:
    def test_bins_plus_motion_row(self):
        emb = _model().embed(*_inputs(range(4)))
        assert emb.bins.shape == (3, 8)  # 2 pose bins + 1 motion bin
        assert emb.flatten().shape == (24,)

    def test_golden_values(self):
        emb = _model().embed(*_inputs(range(4)))
        first6 = [0.5380093459458617, 0.0, 0.14597630035111295,
                  0.8737317919635238, 0.8756020535008846, 0.6105182648514685]
        motion4 = [-0.05631227332198065, -0.1840707406663278,
                   0.32489255012045565, 0.06349113726314529]
        np.testing.assert_allclose(emb.flatten()[:6], first6, rtol=0, atol=1e-12)
        np.testing.assert_allclose(emb.bins[-1][:4], motion4, rtol=0, atol=1e-12)

    def test_skeleton_change_touches_only_motion_row(self):
        model = _model()
        masks, rgb, body, skeleton = _inputs(range(4))
        a = model.embed(masks, rgb, body, skeleton)
        b = model.embed(masks, rgb, body, np.zeros_like(skeleton))
        np.testing.assert_array_equal(a.bins[:-1], b.bins[:-1])
        assert not np.array_equal(a.bins[-1], b.bins[-1])

    def test_frame_order_invariance(self):
        model = _model()
        order = [0, 1, 2, 3]
        perm = [2, 0, 3, 1]
        a = model.embed(*_inputs(order))
        b = model.embed(*_inputs(perm))
        # max pooling is order-free and the motion mean is exactly rounded
        np.testing.assert_array_equal(a.bins, b.bins)

    def test_single_frame_works(self):
        emb = _model().embed(*_inputs([0]))
        assert emb.bins.shape == (3, 8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            masks, rgb, _, skeleton = _inputs([0])
            _model().embed(masks, rgb, _inputs([0, 1])[2], skeleton)

    def test_body_width_other_than_silhouette_width_rejected(self):
        model = ShapeModel(
            sil_encoder=EncoderParams.initialize((4, 6, 8), seed=21),
            smpl_encoder=EncoderParams.initialize((85, 12, 7), seed=22),
            skeleton_encoder=EncoderParams.initialize((51, 10, 8), seed=23),
            bins=2,
        )
        with pytest.raises(DimMismatch, match="pose feature shapes differ"):
            model.embed(*_inputs([0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            _model().embed(*(a[:0] for a in _inputs([0])))


def test_motion_projection_maps_channel_widths():
    model = _model()
    assert model.motion_projection is not None
    assert model.motion_projection.shape == (8, 6)
    motion = model.motion_bin(encode_skeleton_sequence(_inputs(range(3))[3], model.skeleton_encoder))
    assert motion.shape == (8,)


@pytest.mark.parametrize("seed", [7, 12])
def test_constructor_draws_the_motion_projection(seed):
    # C_m = 6 motion channels against C = 8 pose channels
    model = ShapeModel(
        sil_encoder=EncoderParams.initialize((4, 6, 8), seed=21),
        smpl_encoder=EncoderParams.initialize((85, 12, 8), seed=22),
        skeleton_encoder=EncoderParams.initialize((51, 10, 6), seed=23),
        bins=2,
        projection_seed=seed,
    )
    bound = 1.0 / np.sqrt(6)
    expected = SplitMix64(seed).uniform_array(-bound, bound, (8, 6))
    assert model.motion_projection.tobytes() == expected.tobytes()
    assert model.embed(*_inputs(range(3))).bins.shape == (3, 8)


def test_replace_redraws_the_projection_for_new_encoders():
    model = _model()
    same_width = replace(model, skeleton_encoder=EncoderParams.initialize((51, 10, 8), seed=23))
    assert same_width.motion_projection is None
    assert same_width.embed(*_inputs(range(3))).bins.shape == (3, 8)
    wider = replace(model, skeleton_encoder=EncoderParams.initialize((51, 10, 5), seed=23))
    bound = 1.0 / np.sqrt(5)
    expected = SplitMix64(7).uniform_array(-bound, bound, (8, 5))
    assert wider.motion_projection.tobytes() == expected.tobytes()
    assert wider.embed(*_inputs(range(3))).bins.shape == (3, 8)


def test_no_projection_when_widths_match():
    model = ShapeModel(
        sil_encoder=EncoderParams.initialize((4, 6, 8), seed=21),
        smpl_encoder=EncoderParams.initialize((85, 12, 8), seed=22),
        skeleton_encoder=EncoderParams.initialize((51, 10, 8), seed=23),
        bins=2,
    )
    assert model.motion_projection is None
