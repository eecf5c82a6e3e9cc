"""Acceptance gate: ten criteria covering the whole pipeline.

Each test prints one `[criterion NN] PASS/FAIL` line (visible under
`pytest -s`); the asserts carry the stated tolerances. Seeded checks pin the
committed dataset seeds, timed checks assert the stated wall-clock budgets.
"""

import functools
import os
import time
from collections import Counter

import numpy as np
from conftest import (
    CTL_LABELS,
    TRIPLET_LABELS,
    batch_hard_point_is_smooth,
    ctl_point_is_smooth,
    gradient_rel_error,
    sample_smooth_points,
)

import pytest

from sharc import __version__
from sharc.appearance import AttentionParams, flatten_feature, pyramid_aggregate
from sharc.cli import ALPHA_SWEEP, main
from sharc.config import build_appearance_model, build_shape_model, parse_config
from sharc.encoders import EncoderParams
from sharc.exceptions import InvalidFrameCount
from sharc.gallery import chunk_frames, register, tracklet_embeddings
from sharc.losses import (
    APP_TRIPLET_MARGIN,
    CTL_WEIGHT,
    SHAPE_TRIPLET_MARGIN,
    SHAPE_TRIPLET_WEIGHT,
    Batch,
    _batch_hard_triplet_grad,
    _ctl_grad,
    _mean_ce_grad,
    appearance_objective,
    batch_hard_triplet,
    center_loss,
    centroid_triplet_loss,
    cross_entropy,
    make_toy_dataset,
    mean_cross_entropy,
    numerical_gradient,
    shape_objective,
    train_toy,
    triplet_loss,
)
from sharc.matcher import ScoreMatrix, appearance_scores, fuse_scores, rank, shape_scores
from sharc.metrics import cmc, mean_average_precision
from sharc.prng import derive_seed
from sharc.shape import fuse_pose
from sharc.synth import DatasetSpec, generate_dataset, split_protocol


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {label}")
                raise
            print(f"[criterion {num:02d}] PASS {label}")

        return wrapped

    return deco


# ---------------------------------------------------------------------------
# committed dataset seeds
# ---------------------------------------------------------------------------

NOISELESS = DatasetSpec(
    num_ids=12, tracklets_per_id=2, frames_per_tracklet=12, clothing_variants=1,
    sil_flip_rate=0.0, keypoint_jitter=0.0, appearance_shift=0.0, seed=1,
)
HIGH_NOISE = DatasetSpec(
    num_ids=12, tracklets_per_id=2, frames_per_tracklet=12, clothing_variants=2,
    sil_flip_rate=0.3, keypoint_jitter=0.5, appearance_shift=1.5, seed=1,
)
CLOTHES_CHANGE = DatasetSpec(
    num_ids=12, tracklets_per_id=4, frames_per_tracklet=8, clothing_variants=4,
    sil_flip_rate=0.02, keypoint_jitter=0.02, appearance_shift=0.3, seed=54,
)

SMALL_CLI_CFG = """
[dataset]
num_ids = 3
tracklets_per_id = 2
frames_per_tracklet = 6
height = 8
width = 8
seed = 13

[model]
bins = 2
channels = 8
motion_channels = 6

[train]
num_ids = 3
samples_per_id = 3
input_dim = 6
hidden_dim = 8
embed_dim = 6
steps = 5
"""

PERF_CLI_CFG = """
[dataset]
num_ids = 50
tracklets_per_id = 4
frames_per_tracklet = 24
clothing_variants = 2
sil_flip_rate = 0.05
keypoint_jitter = 0.05
appearance_shift = 0.3
seed = 7
"""


def _default_config(tmp_path):
    p = tmp_path / "defaults.cfg"
    p.write_text("")
    return parse_config(p)


def _write_cfg(tmp_path, body, data_dir):
    p = tmp_path / "run.cfg"
    p.write_text(body + f"\n[paths]\ndata_dir = {data_dir}\n")
    return p


def _cli(args):
    code = main([str(a) for a in args])
    assert code == 0, f"command {args[0]} exited {code}"


def _fused_rank1(spec, ratio, split_seed, shape_model, app_model, centroid=True):
    records = generate_dataset(spec)
    gallery, queries = split_protocol(records, ratio, split_seed)
    index = register(gallery, shape_model, app_model, centroid=centroid)
    embs = [(r.tracklet_id, *tracklet_embeddings(r, shape_model, app_model)) for r in queries]
    s_shape = shape_scores([(t, sv) for t, sv, _ in embs], index)
    s_app = appearance_scores([(t, av) for t, _, av in embs], index)
    fused = fuse_scores(s_shape, s_app, 0.1)
    ranked = rank(fused)
    labels = [r.subject_id for r in queries]
    hits = sum(1 for lst, lab in zip(ranked, labels) if lst[0] == lab)
    return hits / len(labels)


def _snapshot(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, root)] = f.read()
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@criterion(1, "metric oracle equivalence on 200 random score matrices")
def test_criterion_01_metric_oracles():
    def oracle_cmc(ranked_lists, labels, gal, k):
        hits = [any(gal[g] == lab for g in lst[:k]) for lst, lab in zip(ranked_lists, labels)]
        return sum(hits) / len(hits)

    def oracle_map(ranked_lists, labels, gal):
        aps = []
        for lst, lab in zip(ranked_lists, labels):
            rel = np.array([gal[g] == lab for g in lst])
            cum = np.cumsum(rel)
            aps.append(float((cum[rel] / (np.flatnonzero(rel) + 1)).mean()))
        return float(np.mean(aps))

    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(200):
        gallery_ids = [f"g{i}" for i in range(30)]
        subjects = [f"s{i}" for i in range(10)]
        gal = {g: subjects[rng.integers(10)] for g in gallery_ids}
        present = sorted(set(gal.values()))
        labels = [present[rng.integers(len(present))] for _ in range(10)]
        scores = ScoreMatrix(
            rng.standard_normal((10, 30)), [f"q{i}" for i in range(10)], gallery_ids
        )
        ranked = rank(scores)
        for k in (1, 5, 10, 20):
            assert cmc(ranked, labels, gal, k) == oracle_cmc(ranked, labels, gal, k)
        assert mean_average_precision(ranked, labels, gal) == pytest.approx(
            oracle_map(ranked, labels, gal), abs=1e-15
        )
    assert time.perf_counter() - start < 5.0


@criterion(2, "gamma flattening identity/sign/magnitude/composition")
def test_criterion_02_flattening():
    rng = np.random.default_rng(1002)
    v = rng.standard_normal(64) * 3.0
    out = flatten_feature(v, 1.0)
    assert np.array_equal(out, v) and out is not v
    np.testing.assert_array_equal(flatten_feature(v, 0.0), np.sign(v))
    for _ in range(10_000):
        x = rng.standard_normal(8) * rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.0, 1.0)
        f = flatten_feature(x, gamma)
        np.testing.assert_array_equal(np.sign(f), np.sign(x))
        small = np.abs(x) <= 1.0
        assert np.all(np.abs(f)[small] >= np.abs(x)[small])
        assert np.all(np.abs(f)[~small] <= np.abs(x)[~small])
    for _ in range(200):
        x = rng.standard_normal(16) * 2.0
        g1, g2 = rng.uniform(0.0, 1.0, size=2)
        np.testing.assert_allclose(
            flatten_feature(flatten_feature(x, g2), g1),
            flatten_feature(x, g1 * g2),
            rtol=0,
            atol=1e-9,
        )


@criterion(3, "score fusion affine/degenerate/sweep table")
def test_criterion_03_fusion(tmp_path):
    rng = np.random.default_rng(1003)
    qids, gids = [f"q{i}" for i in range(6)], [f"s{i}" for i in range(9)]
    a = ScoreMatrix(rng.standard_normal((6, 9)), qids, gids)
    b = ScoreMatrix(rng.standard_normal((6, 9)), qids, gids)
    for alpha in (0.1, 0.25, 0.5, 0.9):
        np.testing.assert_array_equal(
            fuse_scores(a, b, alpha).scores, alpha * a.scores + (1 - alpha) * b.scores
        )
    np.testing.assert_array_equal(fuse_scores(a, b, 0.0).scores, b.scores)
    np.testing.assert_array_equal(fuse_scores(a, b, 1.0).scores, a.scores)

    # identical branch scores: ranking unchanged at every sweep value
    ints = ScoreMatrix(
        rng.permutation(54).reshape(6, 9).astype(float), qids, gids
    )
    base = rank(ints)
    for alpha in ALPHA_SWEEP:
        assert rank(fuse_scores(ints, ints, alpha)) == base

    data_dir = tmp_path / "data"
    cfg = _write_cfg(tmp_path, SMALL_CLI_CFG, data_dir)
    _cli(["synth", "--config", cfg, "--out", data_dir])
    out = tmp_path / "run"
    _cli(["ablate-alpha", "--config", cfg, "--out", out])
    lines = (out / "ablate_alpha.csv").read_text().splitlines()
    assert lines[0].startswith(f"# sharc {__version__} config=")
    assert lines[1] == "alpha,rank1"
    assert [row.split(",")[0] for row in lines[2:]] == [repr(x) for x in ALPHA_SWEEP]
    for row in lines[2:]:
        assert 0.0 <= float(row.split(",")[1]) <= 1.0


@criterion(4, "attention pyramid arity, populations, stub oracle")
def test_criterion_04_pyramid():
    params = AttentionParams.initialize(3, levels=3, seed=11)
    frames8 = [np.full((4, 4, 3), 0.375) for _ in range(8)]
    for bad in (7, 9):
        with pytest.raises(InvalidFrameCount):
            pyramid_aggregate(frames8[:bad] if bad < 8 else frames8 + frames8[:1], params)

    sa_seen, ta_seen = Counter(), Counter()

    def sa_stub(g, level):
        sa_seen[level] += 1
        return g

    def ta_stub(x, y, level):
        ta_seen[level] += 1
        return np.zeros_like(x)

    out = pyramid_aggregate(frames8, params, sa_fn=sa_stub, ta_fn=ta_stub)
    assert [sa_seen[i] for i in range(3)] == [8, 4, 2]  # populations 8 -> 4 -> 2 -> 1
    assert [ta_seen[i] for i in range(3)] == [4, 2, 1]
    # identity SA and zero TA double the population value per level: 2^3 = 8x
    np.testing.assert_array_equal(out, np.full(3, 8 * 0.375))


@criterion(5, "shape branch closed forms, bin layout, order invariance")
def test_criterion_05_shape_branch(tmp_path):
    rng = np.random.default_rng(1005)
    a, b = rng.standard_normal((3, 3, 4)), rng.standard_normal((3, 3, 4))
    np.testing.assert_array_equal(fuse_pose(a, b), a * b + a)
    np.testing.assert_array_equal(fuse_pose(a, np.zeros_like(a)), a)

    cfg = _default_config(tmp_path)
    model = build_shape_model(cfg)
    rec = generate_dataset(NOISELESS)[0]
    emb = model.embed(rec.masks, rec.appearance, rec.body, rec.skeleton)
    assert emb.bins.shape == (cfg.model.bins + 1, cfg.model.channels)

    zeroed = model.embed(rec.masks, rec.appearance, rec.body, np.zeros_like(rec.skeleton))
    np.testing.assert_array_equal(zeroed.bins[:-1], emb.bins[:-1])
    assert not np.array_equal(zeroed.bins[-1], emb.bins[-1])

    perm = rng.permutation(len(rec))
    shuffled = model.embed(rec.masks[perm], rec.appearance[perm], rec.body[perm], rec.skeleton[perm])
    np.testing.assert_array_equal(shuffled.bins, emb.bins)


@criterion(6, "frame chunking protocol for n in {1, 5, 8, 9, 20}")
def test_criterion_06_chunking():
    assert chunk_frames(1, 8) == [[0, 0, 0, 0, 0, 0, 0, 0]]
    assert chunk_frames(5, 8) == [[0, 1, 2, 3, 4, 0, 1, 2]]
    assert chunk_frames(8, 8) == [[0, 1, 2, 3, 4, 5, 6, 7]]
    assert chunk_frames(9, 8) == [[0, 1, 2, 3, 4, 5, 6, 7], [8, 8, 8, 8, 8, 8, 8, 8]]
    assert chunk_frames(20, 8) == [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [8, 9, 10, 11, 12, 13, 14, 15],
        [16, 17, 18, 19, 16, 17, 18, 19],
    ]


@criterion(7, "centroid registration mean/permutation/clothes-change ranking")
def test_criterion_07_centroid(tmp_path):
    cfg = _default_config(tmp_path)
    sm, am = build_shape_model(cfg), build_appearance_model(cfg)

    records = generate_dataset(
        DatasetSpec(num_ids=3, tracklets_per_id=3, frames_per_tracklet=6,
                    clothing_variants=1, sil_flip_rate=0.0, keypoint_jitter=0.0,
                    appearance_shift=0.0, seed=3)
    )
    index = register(records, sm, am, centroid=True)
    for entry in index.entries:
        own = sorted(
            (r for r in records if r.subject_id == entry.subject_id),
            key=lambda r: r.tracklet_id,
        )
        embs = [tracklet_embeddings(r, sm, am) for r in own]
        np.testing.assert_array_equal(entry.shape, np.mean([e[0] for e in embs], axis=0))
        np.testing.assert_array_equal(
            entry.appearance, np.mean([e[1] for e in embs], axis=0)
        )
        assert entry.source_count == len(own)

    shuffled = register(list(reversed(records)), sm, am, centroid=True)
    for ea, eb in zip(index.entries, shuffled.entries):
        assert ea.subject_id == eb.subject_id
        np.testing.assert_array_equal(ea.shape, eb.shape)
        np.testing.assert_array_equal(ea.appearance, eb.appearance)

    r1_centroid = _fused_rank1(CLOTHES_CHANGE, 0.75, 2, sm, am, centroid=True)
    r1_tracklet = _fused_rank1(CLOTHES_CHANGE, 0.75, 2, sm, am, centroid=False)
    assert r1_centroid >= r1_tracklet, (r1_centroid, r1_tracklet)


@criterion(8, "losses: closed forms, weights, gradients, toy trainer")
def test_criterion_08_losses():
    # closed-form examples
    assert triplet_loss(np.zeros(2), np.array([0.0, 2.0]), np.array([1.0, 0.0]), 0.3) == 1.3
    assert cross_entropy(np.zeros(2), 0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert cross_entropy(np.array([1000.0, 0.0]), 1) == 1000.0
    assert center_loss(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2)), [0, 1]) == 0.5
    e4 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    assert batch_hard_triplet(e4, np.array([0, 0, 1, 1]), 0.5) == pytest.approx(1.25, abs=1e-15)
    ctl_batch = Batch(
        embeddings=np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]]), labels=np.array([0, 0, 1])
    )
    assert centroid_triplet_loss(ctl_batch, margin=0.3) == pytest.approx(1.3, abs=1e-15)

    # component-weight recomposition and perturbation at machine precision
    rng = np.random.default_rng(1008)
    labels = np.repeat(np.arange(4), 3)
    batch = Batch(
        embeddings=rng.standard_normal((12, 5)),
        labels=labels,
        logits=rng.standard_normal((12, 4)),
        centers=rng.standard_normal((4, 5)),
    )
    trip_s = batch_hard_triplet(batch.embeddings, batch.labels, SHAPE_TRIPLET_MARGIN)
    ce = mean_cross_entropy(batch.logits, batch.labels)
    assert shape_objective(batch) == SHAPE_TRIPLET_WEIGHT * trip_s + ce
    trip_a = batch_hard_triplet(batch.embeddings, batch.labels, APP_TRIPLET_MARGIN)
    cen = center_loss(batch.embeddings, batch.centers, batch.labels)
    ctl = centroid_triplet_loss(batch)
    assert appearance_objective(batch) == trip_a + ce + cen + CTL_WEIGHT * ctl
    comps = np.array([trip_a, ce, cen, ctl])
    weights = np.array([1.0, 1.0, 1.0, CTL_WEIGHT])
    base = float(weights @ comps)
    for i in range(4):
        delta = 1e-3
        bumped = weights.copy()
        bumped[i] += delta
        assert abs((float(bumped @ comps) - base) - delta * comps[i]) < 1e-12

    # analytic vs central-difference gradients at 100 smooth points per loss
    rng = np.random.default_rng(1009)
    for e in sample_smooth_points(
        rng, (TRIPLET_LABELS.size, 4),
        lambda p: batch_hard_point_is_smooth(p, TRIPLET_LABELS, APP_TRIPLET_MARGIN),
        count=100,
    ):
        _, analytic = _batch_hard_triplet_grad(e, TRIPLET_LABELS, APP_TRIPLET_MARGIN)
        numeric = numerical_gradient(
            lambda p: _batch_hard_triplet_grad(p, TRIPLET_LABELS, APP_TRIPLET_MARGIN)[0], e
        )
        assert gradient_rel_error(analytic, numeric) < 1e-4
    for e in sample_smooth_points(
        rng, (CTL_LABELS.size, 4),
        lambda p: ctl_point_is_smooth(p, CTL_LABELS, 0.3),
        count=100,
    ):
        _, analytic = _ctl_grad(e, CTL_LABELS, 0.3)
        numeric = numerical_gradient(lambda p: _ctl_grad(p, CTL_LABELS, 0.3)[0], e)
        assert gradient_rel_error(analytic, numeric) < 1e-4
    ce_labels = np.array([0, 2, 1, 3, 2])
    for _ in range(100):
        z = rng.standard_normal((5, 4))
        _, analytic = _mean_ce_grad(z, ce_labels)
        numeric = numerical_gradient(lambda p: _mean_ce_grad(p, ce_labels)[0], z)
        assert gradient_rel_error(analytic, numeric) < 1e-4
    cen_labels = np.array([0, 1, 0, 1])
    centers = rng.standard_normal((2, 3))
    for _ in range(100):
        e = rng.standard_normal((4, 3))
        analytic = (e - centers[cen_labels]) / e.shape[0]
        numeric = numerical_gradient(lambda p: center_loss(p, centers, cen_labels), e)
        assert gradient_rel_error(analytic, numeric) < 1e-4

    # committed-seed toy trainer: monotone improvement inside the time budget
    start = time.perf_counter()
    for objective in ("shape", "appearance"):
        dataset = make_toy_dataset(8, 4, 16, 0.1, 9)
        params = EncoderParams.initialize((16, 24, 16), derive_seed(3, 1))
        result = train_toy(params, dataset, objective, steps=200, lr=0.05, seed=derive_seed(3, 2))
        trace = np.array(result.trace)
        assert trace.shape == (201,)
        assert np.all(np.diff(trace) <= 0.0), objective
        assert trace[-1] < trace[0]
    assert time.perf_counter() - start < 60.0


@criterion(9, "end-to-end: noiseless perfect, noisy worse, perf budget")
def test_criterion_09_end_to_end(tmp_path):
    data_dir = tmp_path / "clean_data"
    cfg = _write_cfg(
        tmp_path,
        "[dataset]\nnum_ids = 12\ntracklets_per_id = 2\nframes_per_tracklet = 12\nseed = 1\n",
        data_dir,
    )
    out = tmp_path / "clean_run"
    for command in ("synth", "enroll", "query", "evaluate"):
        _cli([command, "--config", cfg, "--out", data_dir if command == "synth" else out])
    report = (out / "report.txt").read_text().splitlines()
    assert "rank_1=1.0" in report, report

    defaults = _default_config(tmp_path)
    sm, am = build_shape_model(defaults), build_appearance_model(defaults)
    noisy_rank1 = _fused_rank1(HIGH_NOISE, 0.5, 2, sm, am)
    assert noisy_rank1 < 1.0, noisy_rank1

    perf_data = tmp_path / "perf_data"
    perf_cfg = _write_cfg(tmp_path / "clean_run", PERF_CLI_CFG, perf_data)
    perf_out = tmp_path / "perf_run"
    start = time.perf_counter()
    for command in ("synth", "enroll", "query", "evaluate"):
        _cli([
            command, "--config", perf_cfg, "--threads", "1",
            "--out", perf_data if command == "synth" else perf_out,
        ])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    assert (perf_out / "report.csv").exists()


@criterion(10, "CLI determinism: every command rerun is byte-identical")
def test_criterion_10_determinism(tmp_path):
    data_dir = tmp_path / "data"
    cfg = _write_cfg(tmp_path, SMALL_CLI_CFG, data_dir)
    out = tmp_path / "run"

    def sweep():
        _cli(["synth", "--config", cfg, "--out", data_dir])
        for command in ("enroll", "query", "evaluate", "ablate-gamma", "ablate-alpha", "train-toy"):
            _cli([command, "--config", cfg, "--out", out])
        return _snapshot(data_dir), _snapshot(out)

    data_a, run_a = sweep()
    data_b, run_b = sweep()
    assert sorted(data_a) == sorted(data_b)
    assert sorted(run_a) == sorted(run_b)
    for rel in data_a:
        assert data_a[rel] == data_b[rel], f"dataset file differs on rerun: {rel}"
    expected = {
        "index.shrc", "scores_shape.csv", "scores_appearance.csv", "scores_fused.csv",
        "report.txt", "report.csv", "ablate_gamma.csv", "ablate_alpha.csv",
        "loss_trace.csv", "trained_encoder.shrcenc",
    }
    assert expected <= set(run_a)
    for rel in run_a:
        assert run_a[rel] == run_b[rel], f"output differs on rerun: {rel}"
