"""The input checks that no pipeline run reaches: each library entry point
refuses a malformed argument with its documented exception, and the message
names the offending value or field. One parametrized test per module."""

import re

import numpy as np
import pytest

from sharc import appearance, core, encoders, matcher, metrics, prng, shape
from sharc.appearance import AttentionParams
from sharc.config import parse_config
from sharc.encoders import EncoderParams
from sharc.exceptions import ConfigError, DimMismatch, EmptyInput, InvalidInput
from sharc.gallery import AppearanceModel, GalleryIndex, IndexEntry
from sharc.synth import TrackletRecord


def _refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AttentionParams((), ()), InvalidInput, "need matching, nonempty SA and TA weight lists"),
        (lambda: AttentionParams((np.eye(2),), ()), InvalidInput, "need matching, nonempty SA and TA weight lists"),
        (
            lambda: AttentionParams((np.zeros((2, 3)),), (np.zeros((2, 4)),)),
            InvalidInput,
            "level 0: SA weights must be square, got (2, 3)",
        ),
        (
            lambda: AttentionParams((np.eye(2),), (np.zeros((2, 2)),)),
            InvalidInput,
            "level 0: TA weights must be (C, 2C), got (2, 2)",
        ),
        (
            lambda: appearance.spatial_attention(np.zeros((2, 2, 3)), np.zeros((4, 4))),
            DimMismatch,
            "grid has 3 channels, SA weights expect 4",
        ),
        (
            lambda: appearance.temporal_attention(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.zeros((3, 4))),
            DimMismatch,
            "TA weights expect 4 channels, pair has 6",
        ),
        (
            lambda: appearance.mean_embedding((np.zeros((0, 3)), np.zeros((0, 3)))),
            EmptyInput,
            "no group embeddings to average",
        ),
    ],
    ids=["no_levels", "unmatched_levels", "sa_not_square", "ta_not_c_by_2c", "sa_channels", "ta_channels", "no_groups"],
)
def test_appearance_refuses(call, error, message):
    _refused(call, error, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: core.as_vector(np.zeros((2, 2)), "probe"), InvalidInput, "probe must be 1-D, got shape (2, 2)"),
        (lambda: core.as_vector([], "probe"), InvalidInput, "probe must have at least one entry"),
        (lambda: core.as_grid(np.zeros((2, 2)), "map"), InvalidInput, "map must be (H, W, C), got shape (2, 2)"),
        (
            lambda: core.as_grids([np.zeros((1, 2, 2, 1)), np.zeros((1, 3, 2, 1))], "frames"),
            DimMismatch,
            "frames differ in shape",
        ),
        (
            lambda: core.as_grids(np.zeros((2, 2, 1)), "frames"),
            InvalidInput,
            "frames must be (..., N, H, W, C), got shape (2, 2, 1)",
        ),
    ],
    ids=["vector_axes", "vector_empty", "grid_axes", "grids_ragged", "grids_axes"],
)
def test_core_refuses(call, error, message):
    _refused(call, error, message)


_BODY = EncoderParams.initialize([85, 4], seed=1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: EncoderParams(()), InvalidInput, "encoder needs at least one layer"),
        (
            lambda: EncoderParams(((np.zeros((2, 3)), np.zeros(3)),)),
            InvalidInput,
            "layer 0 has inconsistent shapes (2, 3) / (3,)",
        ),
        (lambda: EncoderParams.initialize([4], seed=1), InvalidInput, "need an input and an output width"),
        (lambda: encoders.encode_smpl(np.zeros(85), _BODY), InvalidInput, "rows must be (T, D), got shape (85,)"),
        (lambda: encoders.encode_smpl(np.zeros((2, 5)), _BODY), DimMismatch, "rows have 5 entries, layer expects 85"),
    ],
    ids=["no_layers", "bias_width", "one_width", "rows_axes", "rows_width"],
)
def test_encoders_refuse(call, error, message):
    _refused(call, error, message)


def test_gallery_refuses_a_window_its_lengths_do_not_split():
    model = AppearanceModel(EncoderParams.initialize([3, 4], seed=1), AttentionParams.initialize(4, levels=1))
    _refused(
        lambda: model.window_features(np.zeros((3, 4, 4, 3)), [1, 1]),
        InvalidInput,
        "tracklet lengths [1, 1] do not split a window of 3 frames",
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: matcher.ScoreMatrix(np.zeros(3), ["q0"], ["s0"]), InvalidInput, "scores must be 2-D, got shape (3,)"),
        (lambda: matcher.shape_scores([("q0", np.ones(3))], GalleryIndex()), EmptyInput, "gallery index has no entries"),
        (
            lambda: matcher.shape_scores(
                [("q0", np.ones(3))], GalleryIndex([IndexEntry("s0", np.ones((1, 3)), np.ones(3), 1)])
            ),
            InvalidInput,
            "gallery shape vectors must be non-empty and 1-D",
        ),
    ],
    ids=["scores_axes", "no_entries", "entry_axes"],
)
def test_matcher_refuses(call, error, message):
    _refused(call, error, message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: metrics.cmc([["s0"]], ["s0", "s1"], {"s0": "s0"}, 1), InvalidInput, "1 ranked lists but 2 query labels"),
        (
            lambda: metrics.cmc([["s0"]], ["s1"], {"s0": "s0"}, 1, skip_unmatchable=True),
            InvalidInput,
            "no matchable queries",
        ),
    ],
    ids=["lists_and_labels", "none_matchable"],
)
def test_metrics_refuse(call, error, message):
    _refused(call, error, message)


@pytest.mark.parametrize(
    "n, offset, message",
    [(-1, 0, "got -1 and 0"), (2, -3, "got 2 and -3")],
    ids=["block", "offset"],
)
def test_prng_refuses_a_negative_block_or_offset(n, offset, message):
    _refused(lambda: prng.uniform_rows([1], n, offset), ValueError, f"must be nonnegative, {message}")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: shape.temporal_pool_pose(np.zeros((2, 3))),
            DimMismatch,
            "pose frames must be (T, h, w, C), got shape (2, 3)",
        ),
        (
            lambda: shape.pool_motion(np.zeros((0, 3))),
            EmptyInput,
            "motion matrix must be (T, C_m) with T >= 1, got shape (0, 3)",
        ),
        (lambda: shape.pool_motion(np.zeros(3)), EmptyInput, "got shape (3,)"),
        (
            lambda: shape.ShapeEmbedding(np.zeros((1, 3))),
            InvalidInput,
            "bins must be (B + 1, C) with B >= 1, got shape (1, 3)",
        ),
    ],
    ids=["pose_axes", "motion_empty", "motion_axes", "one_bin"],
)
def test_shape_refuses(call, error, message):
    _refused(call, error, message)


@pytest.mark.parametrize("field", ["tracklet_id", "subject_id", "clothing_id"])
def test_synth_refuses_a_record_with_an_empty_id(field):
    ids = {"tracklet_id": "t0", "subject_id": "s0", "clothing_id": "c0", field: ""}
    arrays = dict(
        masks=np.ones((1, 2, 2)), appearance=np.ones((1, 2, 2, 3)), body=np.zeros((1, 85)), skeleton=np.zeros((1, 51))
    )
    _refused(lambda: TrackletRecord(**ids, **arrays), InvalidInput, "tracklet, subject and clothing ids must be non-empty")


@pytest.mark.parametrize("ratio, accepted", [("0.25", True), ("0", False), ("1.0", False), ("1.5", False)])
def test_config_checks_the_gallery_ratio(tmp_path, ratio, accepted):
    path = tmp_path / "run.cfg"
    path.write_text(f"[protocol]\ngallery_ratio = {ratio}\n")
    if accepted:
        assert parse_config(path).protocol.gallery_ratio == float(ratio)
    else:
        _refused(lambda: parse_config(path), ConfigError, "protocol.gallery_ratio: must be in (0, 1)")
