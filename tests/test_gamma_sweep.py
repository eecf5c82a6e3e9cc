"""The sweep of `ablate-gamma` and `ablate-alpha` against the per-setting pipeline.

`cli._sweep` takes every tracklet's features, computed once, re-finishes the
appearance vectors and scores once per gamma, and only fuses per alpha. The
oracle below re-embeds everything for each (gamma, alpha):
replace(build_appearance_model(cfg), gamma=gamma) -> register, and
tracklet_embeddings of each query -> _score_embedded -> fuse_scores. Both must
give the same index entries and fused scores to the bit.

The oracle applies the `[ablation]` drops itself: it embeds records whose
dropped inputs it has zeroed, with a shape model whose own drops are off, while
the sweep embeds the records as generated with the model `config` builds.
"""

from dataclasses import replace

import numpy as np
import pytest

import sharc.gallery
from sharc import cli
from sharc.config import build_appearance_model, build_shape_model, parse_config
from sharc.gallery import register, tracklet_embeddings, tracklet_features
from sharc.matcher import fuse_scores
from sharc.shape import ShapeModel
from sharc.synth import generate_dataset, split_protocol

CONFIGS = {
    "default": "",
    "per_tracklet": "[ablation]\ncentroid = false\n",
    # 3 frames are fewer than one 4-frame group: one resampled group each
    "short_tracklets_two_levels": "[model]\npyramid_levels = 2\n[dataset]\nframes_per_tracklet = 3\n",
    "drop_silhouette": "[ablation]\ndrop_silhouette = true\n",
    "drop_smpl_skeleton": "[ablation]\ndrop_smpl = true\ndrop_skeleton = true\n",
    "no_avg": "[ablation]\nuse_avg = false\n",
}


def _config(tmp_path, name):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIGS[name])
    return parse_config(path)


def _zeroed(record, ablation):
    """The record with the inputs that `ablation` drops set to zero."""
    drops = {"masks": ablation.drop_silhouette, "body": ablation.drop_smpl, "skeleton": ablation.drop_skeleton}
    return replace(record, **{name: np.zeros_like(getattr(record, name)) for name, drop in drops.items() if drop})


def _oracle(cfg, gallery, queries, gamma, alpha):
    shape_model = replace(build_shape_model(cfg), drop_silhouette=False, drop_smpl=False, drop_skeleton=False)
    app_model = replace(build_appearance_model(cfg), gamma=gamma)
    gallery, queries = ([_zeroed(r, cfg.ablation) for r in part] for part in (gallery, queries))
    index = register(gallery, shape_model, app_model, centroid=cfg.ablation.centroid)
    embeddings = [tracklet_embeddings(r, shape_model, app_model) for r in queries]
    return index, fuse_scores(*cli._score_embedded(queries, embeddings, index, cfg), alpha)


def _check_sweep(cfg, gammas, alphas):
    gallery, queries = split_protocol(
        list(generate_dataset(cfg.dataset)), cfg.protocol.gallery_ratio, cfg.protocol.split_seed
    )
    shape_model, app_model = build_shape_model(cfg), build_appearance_model(cfg)
    gallery_features, query_features = (
        [tracklet_features(r, shape_model, app_model) for r in part] for part in (gallery, queries)
    )

    sweep = list(cli._sweep(cfg, app_model, (gallery, gallery_features), (queries, query_features), gammas, alphas))

    assert [(gamma, alpha) for gamma, alpha, _, _ in sweep] == [(g, a) for g in gammas for a in alphas]
    for gamma, alpha, index, fused in sweep:
        want_index, want_fused = _oracle(cfg, gallery, queries, gamma, alpha)
        assert len(index) == len(want_index)
        for got, want in zip(index.entries, want_index.entries):
            assert got.subject_id == want.subject_id
            assert got.source_count == want.source_count
            assert np.array_equal(got.shape, want.shape)
            assert np.array_equal(got.appearance, want.appearance)
        assert fused.query_ids == want_fused.query_ids
        assert fused.gallery_ids == want_fused.gallery_ids
        assert np.array_equal(fused.scores, want_fused.scores)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_sweep_matches_per_gamma_pipeline(tmp_path, name):
    cfg = _config(tmp_path, name)
    _check_sweep(cfg, cli.GAMMA_SWEEP, [cfg.model.alpha])


@pytest.mark.parametrize("name", ["default", "per_tracklet", "drop_smpl_skeleton"])
def test_sweep_matches_per_alpha_pipeline(tmp_path, name):
    cfg = _config(tmp_path, name)
    _check_sweep(cfg, [cfg.model.gamma], cli.ALPHA_SWEEP)


def test_both_sweeps_agree_at_the_configured_setting(tmp_path):
    # the benchmark compares the two tables at the default gamma and alpha;
    # here both are off their defaults, in per-tracklet mode
    path = tmp_path / "run.cfg"
    data_dir = tmp_path / "data"
    path.write_text(
        "[dataset]\nnum_ids = 4\ntracklets_per_id = 2\nframes_per_tracklet = 5\nsil_flip_rate = 0.2\n"
        "appearance_shift = 1.0\n[model]\ngamma = 0.2\nalpha = 0.3\n[ablation]\ncentroid = false\n"
        f"[paths]\ndata_dir = {data_dir}\n"
    )
    for command in ("synth", "ablate-gamma", "ablate-alpha"):
        assert cli.main([command, "--config", str(path)]) == 0
    tables = {
        key: dict(line.split(",") for line in (data_dir / f"ablate_{key}.csv").read_text().splitlines()[2:])
        for key in ("gamma", "alpha")
    }
    assert 0.2 in cli.GAMMA_SWEEP and 0.3 in cli.ALPHA_SWEEP
    assert tables["alpha"]["0.3"] == tables["gamma"]["0.2"]


def test_ablate_gamma_embeds_each_tracklet_once(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    data_dir = tmp_path / "data"
    path.write_text(
        "[dataset]\nnum_ids = 3\ntracklets_per_id = 2\nframes_per_tracklet = 10\n"
        f"[paths]\ndata_dir = {data_dir}\n"
    )
    assert cli.main(["synth", "--config", str(path)]) == 0

    calls = {}
    encode, embed = sharc.gallery.encode_appearance, ShapeModel.embed

    def counting_encode(*args, **kwargs):
        calls["frames"] += len(args[0])
        return encode(*args, **kwargs)

    def counting_embed(self, *args, **kwargs):
        calls["tracklets"] += 1
        return embed(self, *args, **kwargs)

    monkeypatch.setattr(sharc.gallery, "encode_appearance", counting_encode)
    monkeypatch.setattr(ShapeModel, "embed", counting_embed)
    for key, sweep in (("gamma", cli.GAMMA_SWEEP), ("alpha", cli.ALPHA_SWEEP)):
        calls.update(frames=0, tracklets=0)
        assert cli.main([f"ablate-{key}", "--config", str(path)]) == 0

        # 6 tracklets of 10 frames, split between gallery and query
        assert calls == {"frames": 60, "tracklets": 6}
        assert len((data_dir / f"ablate_{key}.csv").read_text().splitlines()) == 2 + len(sweep)
