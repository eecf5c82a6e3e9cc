"""The gamma sweep of `ablate-gamma` against the per-gamma pipeline.

`cli._gamma_sweep` takes every tracklet's features, computed once, and only
re-finishes the appearance vectors per gamma. The oracle below re-embeds
everything for each gamma: replace(build_appearance_model(cfg), gamma=gamma)
-> register, and tracklet_embeddings of each query -> _score_embedded. Both
must give the same index entries and fused scores to the bit.
"""

from dataclasses import replace

import numpy as np
import pytest

import sharc.gallery
from sharc import cli
from sharc.config import build_appearance_model, build_shape_model, parse_config
from sharc.gallery import register, tracklet_embeddings, tracklet_features
from sharc.shape import ShapeModel
from sharc.synth import generate_dataset, split_protocol


def _oracle(cfg, gallery, queries, gamma):
    shape_model = build_shape_model(cfg)
    app_model = replace(build_appearance_model(cfg), gamma=gamma)
    index = register(gallery, shape_model, app_model, centroid=cfg.ablation.centroid)
    embeddings = [tracklet_embeddings(r, shape_model, app_model) for r in queries]
    _, _, fused = cli._score_embedded(queries, embeddings, index, cfg)
    return index, fused


def _records(cfg):
    records = [cli._zero_drops(r, cfg) for r in generate_dataset(cfg.dataset)]
    return split_protocol(records, cfg.protocol.gallery_ratio, cfg.protocol.split_seed)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "[ablation]\ncentroid = false\n",
        # 3 frames are fewer than one 4-frame group: one resampled group each
        "[model]\npyramid_levels = 2\n[dataset]\nframes_per_tracklet = 3\n",
        "[ablation]\ndrop_silhouette = true\n",
        "[ablation]\nuse_avg = false\n",
    ],
    ids=["default", "per_tracklet", "short_tracklets_two_levels", "drop_silhouette", "no_avg"],
)
def test_sweep_matches_per_gamma_pipeline(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    gallery, queries = _records(cfg)

    shape_model, app_model = build_shape_model(cfg), build_appearance_model(cfg)
    gallery_features, query_features = (
        [tracklet_features(r, shape_model, app_model) for r in part] for part in (gallery, queries)
    )

    sweep = list(cli._gamma_sweep(cfg, app_model, (gallery, gallery_features), (queries, query_features)))

    assert [gamma for gamma, _, _ in sweep] == list(cli.GAMMA_SWEEP)
    for gamma, index, fused in sweep:
        want_index, want_fused = _oracle(cfg, gallery, queries, gamma)
        assert len(index) == len(want_index)
        for got, want in zip(index.entries, want_index.entries):
            assert got.subject_id == want.subject_id
            assert got.source_count == want.source_count
            assert np.array_equal(got.shape, want.shape)
            assert np.array_equal(got.appearance, want.appearance)
        assert fused.query_ids == want_fused.query_ids
        assert fused.gallery_ids == want_fused.gallery_ids
        assert np.array_equal(fused.scores, want_fused.scores)


def test_ablate_gamma_embeds_each_tracklet_once(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    data_dir = tmp_path / "data"
    path.write_text(
        "[dataset]\nnum_ids = 3\ntracklets_per_id = 2\nframes_per_tracklet = 10\n"
        f"[paths]\ndata_dir = {data_dir}\n"
    )
    assert cli.main(["synth", "--config", str(path)]) == 0

    calls = {"frames": 0, "tracklets": 0}
    encode, embed = sharc.gallery.encode_appearance, ShapeModel.embed

    def counting_encode(*args, **kwargs):
        calls["frames"] += len(args[0])
        return encode(*args, **kwargs)

    def counting_embed(self, *args, **kwargs):
        calls["tracklets"] += 1
        return embed(self, *args, **kwargs)

    monkeypatch.setattr(sharc.gallery, "encode_appearance", counting_encode)
    monkeypatch.setattr(ShapeModel, "embed", counting_embed)
    assert cli.main(["ablate-gamma", "--config", str(path)]) == 0

    # 6 tracklets of 10 frames, split between gallery and query
    assert calls == {"frames": 60, "tracklets": 6}
    assert len((data_dir / "ablate_gamma.csv").read_text().splitlines()) == 2 + len(cli.GAMMA_SWEEP)
