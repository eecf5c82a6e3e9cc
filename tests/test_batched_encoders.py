"""The batched encoders, chunked models and appearance groups against the
paths they replaced.

Each encoder runs any run of frames it is given as one array: one 2-D
product per grid layer over all T*H*W pixels, and one matrix-vector product
per row for the body and skeleton encoders. The per-frame functions below are
the earlier forward, kept as a scalar oracle. The models feed a tracklet to
the encoders in the frame chunks of `frame_chunks` (at most CHUNK_ROWS pixel
rows per product); one whole-tracklet call of each encoder is the oracle of
`ShapeModel.embed` and `AppearanceModel.group_features`.
`group_features` runs all of a tracklet's frame groups through one pyramid
and one averaging call; calling both once per group is its oracle. A window
of several tracklets runs through the same encoder and pyramid passes;
embedding each tracklet alone is its oracle. The batched outputs must equal
their oracles to the bit, at frame counts that split unevenly, and must not
depend on the BLAS thread count.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sharc
from sharc import core
from sharc.appearance import TA_TARGETS, AttentionParams, average_aggregate, pyramid_aggregate
from sharc.config import build_appearance_model, build_shape_model, parse_config
from sharc.encoders import (
    CHUNK_ROWS,
    EncoderParams,
    _grid_forward,
    encode_appearance,
    encode_silhouette,
    encode_skeleton_sequence,
    encode_smpl,
    frame_chunks,
)
from sharc.exceptions import DimMismatch, EmptyInput, InvalidInput
from sharc.gallery import (
    build_index,
    chunk_frames,
    encode_window,
    tracklet_embeddings,
    tracklet_features,
    tracklet_windows,
)
from sharc.shape import fuse_pose, temporal_pool_pose
from sharc.synth import TrackletRecord


def _pool_frame(grid):
    # ((top-left + top-right) + bottom-left) + bottom-right: the order of
    # numpy's reshape-and-mean over several channels; over one channel that
    # mean sums the two rows pairwise instead
    h, w, c = grid.shape
    window = grid.reshape(h // 2, 2, w // 2, 2, c)
    return 0.25 * (window[:, 0, :, 0] + window[:, 0, :, 1] + window[:, 1, :, 0] + window[:, 1, :, 1])


def _grid_frame(grid, params):
    x = grid
    for w, b in params.layers:
        x = _pool_frame(np.maximum(x @ w.T + b, 0.0))
    return x


def _vector_row(vec, params):
    x = vec
    for w, b in params.layers:
        x = np.maximum(w @ x + b, 0.0)
    return x


def _oracle(masks, appearance, body, skeleton, shape_model, app_model):
    """Per-frame outputs of the four encoders, stacked over the frames."""
    sil = [
        _grid_frame(np.concatenate([m[:, :, None], a * m[:, :, None]], axis=2), shape_model.sil_encoder)
        for m, a in zip(masks, appearance)
    ]
    smpl = [_vector_row(row, shape_model.smpl_encoder) for row in body]
    skel = [_vector_row(row, shape_model.skeleton_encoder) for row in skeleton]
    app = [_grid_frame(a, app_model.encoder) for a in appearance]
    return [np.stack(x) for x in (sil, smpl, skel, app)]


def _batched(masks, appearance, body, skeleton, shape_model, app_model):
    return [
        encode_silhouette(masks, appearance, shape_model.sil_encoder),
        encode_smpl(body, shape_model.smpl_encoder),
        encode_skeleton_sequence(skeleton, shape_model.skeleton_encoder),
        encode_appearance(appearance, app_model.encoder),
    ]


def _inputs(t, size, seed=0):
    rng = np.random.default_rng(seed)
    masks = (rng.random((t, size, size)) < 0.4).astype(np.float64)
    appearance = rng.random((t, size, size, 3))
    body = rng.normal(size=(t, 85))
    skeleton = np.concatenate([rng.normal(size=(t, 34)), rng.random((t, 17))], axis=1)
    return masks, appearance, body, skeleton


def _models(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("")
    cfg = parse_config(cfg_path)
    return build_shape_model(cfg), build_appearance_model(cfg)


@pytest.mark.parametrize("t, size", [(47, 16), (301, 16), (1, 8)])
def test_batched_encoders_equal_the_per_frame_forward(tmp_path, t, size):
    models = _models(tmp_path)
    inputs = _inputs(t, size)
    names = ("silhouette", "smpl", "skeleton", "appearance")
    for name, got, want in zip(names, _batched(*inputs, *models), _oracle(*inputs, *models)):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("ta_target", TA_TARGETS)
@pytest.mark.parametrize("levels", [2, 3, 4])
@pytest.mark.parametrize("t", [1, 5, 8, 9, 20, 47])
def test_batched_groups_equal_one_group_at_a_time(tmp_path, t, levels, ta_target):
    _, app_model = _models(tmp_path)
    app_model = replace(
        app_model,
        attention=AttentionParams.initialize(app_model.attention.channels, levels=levels, seed=11),
        ta_target=ta_target,
    )
    frames = _inputs(t, 16, seed=t)[1]
    attn, avg = app_model.group_features(frames)

    encoded = encode_appearance(frames, app_model.encoder)
    groups = [encoded[g] for g in chunk_frames(t, 2**levels)]
    want_attn = np.stack([pyramid_aggregate(g, app_model.attention, ta_target=ta_target) for g in groups])
    want_avg = np.stack([average_aggregate(g) for g in groups])
    assert attn.shape == avg.shape == (len(groups), app_model.attention.channels)
    assert np.array_equal(attn, want_attn)
    assert np.array_equal(avg, want_avg)


def _hand_built(widths, seed):
    """An EncoderParams with the given widths, drawn outside `initialize`."""
    rng = np.random.default_rng(seed)
    return EncoderParams(
        layers=tuple((rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in zip(widths[:-1], widths[1:]))
    )


@pytest.mark.parametrize(
    "hw, hidden",
    [((8, 16), (5,)), ((8, 16), (6, 7)), ((8, 16), (3, 8, 2)), ((8, 16), (5, 1)), ((12, 28), (5,)), ((12, 28), (8, 16))],
    ids=["8x16-1layer", "8x16-2layers", "8x16-3layers", "8x16-width1", "12x28-1layer", "12x28-2layers"],
)
def test_grid_encoders_equal_the_per_frame_forward_on_non_square_frames(hw, hidden):
    # 67 frames split unevenly either way: 64 + 3 frames of 8x16, and
    # 24 + 24 + 19 frames of 12x28. On square frames a channels-first reshape
    # that swaps H and W would go unnoticed
    t = 67
    rng = np.random.default_rng(sum(hw) + len(hidden))
    masks = (rng.random((t,) + hw) < 0.4).astype(np.float64)
    appearance = rng.random((t,) + hw + (3,))
    sil, app = _hand_built((4,) + hidden, seed=1), _hand_built((3,) + hidden, seed=2)
    chunks = frame_chunks(t, hw[0] * hw[1])
    assert len(chunks) > 1 and chunks[-1].stop - chunks[-1].start < chunks[0].stop - chunks[0].start

    got_sil = np.concatenate([encode_silhouette(masks[c], appearance[c], sil) for c in chunks])
    got_app = np.concatenate([encode_appearance(appearance[c], app) for c in chunks])
    want_sil = np.stack(
        [_grid_frame(np.concatenate([m[:, :, None], a * m[:, :, None]], axis=2), sil) for m, a in zip(masks, appearance)]
    )
    want_app = np.stack([_grid_frame(a, app) for a in appearance])
    scale = 2 ** len(hidden)
    assert got_sil.shape == want_sil.shape == (t, hw[0] // scale, hw[1] // scale, hidden[-1])
    assert got_app.shape == want_app.shape
    assert got_sil.tobytes() == want_sil.tobytes()
    assert got_app.tobytes() == want_app.tobytes()


def test_grid_encoder_error_paths_keep_their_types():
    app = _hand_built((3, 6, 5), seed=3)
    with pytest.raises(InvalidInput):
        _grid_forward(np.zeros((8, 8, 3)), app)
    with pytest.raises(InvalidInput):
        _grid_forward(np.zeros((1, 1, 8, 8, 3)), app)
    with pytest.raises(DimMismatch):
        _grid_forward(np.zeros((2, 8, 8, 4)), app)
    with pytest.raises(DimMismatch):
        encode_silhouette(np.zeros((2, 8, 8)), np.zeros((2, 8, 8, 3)), app)
    # 12x28 pools to 6x14 and then to 3x7, which a third layer cannot halve
    with pytest.raises(DimMismatch):
        encode_appearance(np.zeros((2, 12, 28, 3)), _hand_built((3, 4, 4, 4), seed=4))
    with pytest.raises(DimMismatch):
        encode_silhouette(np.zeros((2, 8, 10)), np.zeros((2, 8, 10, 3)), _hand_built((4, 4, 4), seed=5))


def _whole_shape_bins(model, masks, appearance, body, skeleton):
    """`ShapeModel.embed`'s bins with every pose stage over the whole tracklet,
    each frame's body vector copied to every cell of its silhouette grid."""
    sil = encode_silhouette(masks, appearance, model.sil_encoder)
    rows = encode_smpl(body, model.smpl_encoder)
    fused = fuse_pose(sil, np.tile(rows[:, None, None, :], (1,) + sil.shape[1:3] + (1,)))
    pose_bins = core.strip_pool(temporal_pool_pose(fused), model.bins, model.hpp_mode)
    motion = encode_skeleton_sequence(skeleton, model.skeleton_encoder)
    return np.vstack([pose_bins, model.motion_bin(motion)[None, :]])


def _whole_group_features(app_model, frames):
    """`AppearanceModel.group_features` with one encoder call over the whole tracklet."""
    encoded = encode_appearance(frames, app_model.encoder)
    groups = encoded[np.array(chunk_frames(len(encoded), app_model.attention.group_size))]
    return pyramid_aggregate(groups, app_model.attention, ta_target=app_model.ta_target), average_aggregate(groups)


@pytest.mark.parametrize(
    "n_frames, frame_pixels", [(1, 1024), (48, 1024), (19, 1024), (3, 16384), (301, 144), (5, 8193)]
)
def test_frame_chunks_cover_the_frames_within_the_row_budget(n_frames, frame_pixels):
    chunks = frame_chunks(n_frames, frame_pixels)
    assert [i for c in chunks for i in range(n_frames)[c]] == list(range(n_frames))
    step = max(1, CHUNK_ROWS // frame_pixels)
    assert [c.stop - c.start for c in chunks[:-1]] == [step] * (len(chunks) - 1)
    assert all((c.stop - c.start) * frame_pixels <= max(CHUNK_ROWS, frame_pixels) for c in chunks)


@pytest.mark.parametrize(
    "t, size, n_chunks",
    [(1, 32, 1), (5, 32, 1), (19, 32, 3), (67, 16, 3), (3, 128, 3)],
    ids=["one-frame", "below-one-chunk", "two-chunks-plus-3", "two-chunks-plus-3-16px", "frame-over-budget"],
)
@pytest.mark.parametrize("drop", [None, "masks", "body", "skeleton"])
def test_chunked_models_equal_the_whole_tracklet_composition(tmp_path, t, size, n_chunks, drop):
    shape_model, app_model = _models(tmp_path)
    inputs = list(_inputs(t, size, seed=t))
    if drop is not None:
        # the CLI's drop_* ablations zero the input array
        index = ("masks", "appearance", "body", "skeleton").index(drop)
        inputs[index] = np.zeros_like(inputs[index])
    assert len(frame_chunks(t, size * size)) == n_chunks

    assert np.array_equal(shape_model.embed(*inputs).bins, _whole_shape_bins(shape_model, *inputs))
    got, want = app_model.group_features(inputs[1]), _whole_group_features(app_model, inputs[1])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# frames per tracklet, all 16x16 (256 pixel rows a frame) but the one 8x8
# tracklet of 6 frames: exactly the budget (32 frames), then 1, fewer than a
# group, a group + 1 and the budget again, which close a window of 47 frames
# whose second frame chunk starts inside the last tracklet; then 3 and over
# the budget (40), and a run cut short by the change of frame size
WINDOW_LENGTHS = [32, 1, 5, 9, 32, 3, 40, 9, 1, ("8x8", 6), 5, 2]


def _window_records():
    records = []
    for i, length in enumerate(WINDOW_LENGTHS):
        size = 16
        if isinstance(length, tuple):
            size, length = 8, length[1]
        masks, appearance, body, skeleton = _inputs(length, size, seed=100 + i)
        records.append(TrackletRecord(f"t{i:02d}", f"s{i % 3}", "c0", masks, appearance, body, skeleton))
    return records


@pytest.mark.parametrize(
    "ablation", ["", "drop_silhouette = true", "drop_smpl = true", "drop_skeleton = true", "centroid = false"]
)
def test_windowed_embeddings_equal_one_tracklet_at_a_time(tmp_path, ablation):
    cfg_path = tmp_path / "run.cfg"
    # 2 bins strip both the 4 rows of 16x16 frames and the 2 rows of 8x8 ones
    cfg_path.write_text(f"[model]\nbins = 2\n[ablation]\n{ablation}\n")
    cfg = parse_config(cfg_path)
    models = build_shape_model(cfg), build_appearance_model(cfg)
    records = _window_records()
    windows = list(tracklet_windows(iter(records)))
    assert [[len(r) for r in w] for w in windows] == [[32], [1, 5, 9, 32], [3, 40], [9, 1], [6], [5, 2]]

    windowed, features = [], []
    for window in windows:
        encodings = encode_window(window, *models)
        windowed += [tracklet_embeddings(r, *models, e) for r, e in zip(window, encodings)]
        features += [tracklet_features(r, *models, e) for r, e in zip(window, encodings)]
    for record, (shape, app), (feature_shape, groups) in zip(records, windowed, features):
        want_shape, want_app = tracklet_embeddings(record, *models)
        want_groups = models[1].group_features(record.appearance)
        alone = models[0].embed(record.masks, record.appearance, record.body, record.skeleton).flatten()
        assert shape.tobytes() == feature_shape.tobytes() == want_shape.tobytes() == alone.tobytes(), record.tracklet_id
        assert app.tobytes() == want_app.tobytes(), record.tracklet_id
        assert all(g.tobytes() == w.tobytes() for g, w in zip(groups, want_groups)), record.tracklet_id

    one_at_a_time = [tracklet_embeddings(r, *models) for r in records]
    got = build_index(records, windowed, centroid=cfg.ablation.centroid)
    want = build_index(records, one_at_a_time, centroid=cfg.ablation.centroid)
    assert [(e.subject_id, e.source_count) for e in got.entries] == [
        (e.subject_id, e.source_count) for e in want.entries
    ]
    for g, w in zip(got.entries, want.entries):
        assert g.shape.tobytes() == w.shape.tobytes() and g.appearance.tobytes() == w.appearance.tobytes()


def test_a_window_holds_tracklets_of_one_frame_size(tmp_path):
    models = _models(tmp_path)
    records = _window_records()
    with pytest.raises(InvalidInput, match="t09"):
        encode_window([records[8], records[9]], *models)
    with pytest.raises(EmptyInput):
        encode_window([], *models)
    with pytest.raises(InvalidInput):
        models[0].encode_window(*(getattr(records[1], a) for a in ("masks", "appearance", "body", "skeleton")), [2])


_HASH_SCRIPT = """
import hashlib, sys
from dataclasses import replace
import numpy as np
sys.path.insert(0, sys.argv[1])
import test_batched_encoders as t
from pathlib import Path
models = t._models(Path(sys.argv[2]))
inputs = t._inputs(47, 12, seed=3)
out = t._batched(*inputs, *models) + list(models[1].group_features(inputs[1]))
chunked = t._inputs(23, 28, seed=4)
# 7 bins strip the 7 rows that 28x28 frames encode to
out += [replace(models[0], bins=7).embed(*chunked).bins] + list(models[1].group_features(chunked[1]))
print(hashlib.sha256(b"".join(np.ascontiguousarray(o).tobytes() for o in out)).hexdigest())
"""


def test_encoder_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 47 frames of 12x12: the second grid layer has 47 * 6 * 6 = 1692 pixel
    # columns, no multiple of 8, so the threads' shares of them differ. 23
    # frames of 28x28 run through the models in chunks of 10, 10 and 3
    # frames; the last chunk's second layer has 3 * 14 * 14 = 588 rows
    src = os.path.dirname(os.path.dirname(os.path.abspath(sharc.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT, tests, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]

