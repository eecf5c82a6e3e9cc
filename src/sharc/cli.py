"""Command-line entry point.

Commands: synth, enroll, query, evaluate, ablate-gamma, ablate-alpha,
train-toy. Every command takes --config (key=value file, see config module),
plus optional --out, which defaults to the data_dir named in the config, so a
config-only session reads and writes one directory. --threads is still
accepted and has no effect: embedding runs serially. Outputs are
deterministic given the seeds in the config; every generated table starts
with a `#` comment naming the tool version and the hash of the resolved
config. Exit codes: 0 success, 2 a data or file error (a missing, corrupt or
malformed input, inputs that do not fit each other, or a path the command
cannot read or write, reported as `error: <path>: <reason>`), 3 invalid
configuration (a config file that is not UTF-8 text included).

The commands only orchestrate: the models that `config` builds apply every
`[ablation]` key, and both sweeps run one loop, `_sweep`. `enroll`, `query`
and both sweeps embed their tracklets with `gallery.embed_windows`, the loop
`gallery.register` runs too (`_embed_manifest`): each window of short
tracklets goes through the encoders and the pyramid once, then each of its
tracklets is finished by `gallery.tracklet_embeddings` or
`tracklet_features`, in manifest order.
At module level this file imports only `config` and `exceptions`; each
command imports what it runs in its own body, so `evaluate` loads no model
and `train-toy` no dataset, gallery or scoring module. `evaluate` imports
no numpy either: it reads the fused scores as lists (`tables`) and counts
each query's rank over them (`metrics`). Every table a command reads or
writes goes through `tables`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from . import __version__
from .config import RunConfig, build_appearance_model, build_shape_model, parse_config
from .exceptions import ConfigError, EmptyInput, IndexMismatch, InvalidInput, ProtocolError, SharcError

if TYPE_CHECKING:
    import numpy as np

    from .gallery import AppearanceModel, GalleryIndex
    from .matcher import ScoreMatrix
    from .tables import ManifestRow

GAMMA_SWEEP = (1.0, 0.2, 0.1, 0.0)
ALPHA_SWEEP = (0.05, 0.1, 0.2, 0.3, 0.4)


def _comment(cfg: RunConfig) -> str:
    return f"sharc {__version__} config={cfg.hash()}"


def _embed_manifest(name: str, cfg: RunConfig, embed, models: tuple) -> tuple[list[ManifestRow], list]:
    """The rows of manifest `name` in data_dir and `embed(record, *models,
    encoding)` of each of its tracklets, in row order. The manifest is read
    once; its tracklets are read, encoded and finished a window at a time
    (`gallery.embed_windows`), so only ids and vectors outlive a window. A
    manifest naming no tracklet is refused."""
    from .gallery import embed_windows
    from .synth import load_dataset
    from .tables import read_manifest

    path = os.path.join(cfg.paths.data_dir, name)
    rows = read_manifest(path)
    if not rows:
        raise EmptyInput(f"{path}: names no tracklets")
    return rows, list(embed_windows(load_dataset(path, rows), *models, embed))


def _score_embedded(
    queries: list[ManifestRow],
    embeddings: list[tuple[np.ndarray, np.ndarray]],
    index: GalleryIndex,
    cfg: RunConfig,
) -> tuple[ScoreMatrix, ScoreMatrix]:
    """Score each query's (shape, appearance) vectors against the index."""
    from .matcher import appearance_scores, shape_scores

    ids = [row.tracklet_id for row in queries]
    s_shape = shape_scores([(q, s) for q, (s, _) in zip(ids, embeddings)], index)
    s_app = appearance_scores(
        [(q, a) for q, (_, a) in zip(ids, embeddings)], index, rescale=cfg.model.rescale_appearance
    )
    return s_shape, s_app


def _sweep(cfg: RunConfig, app_model: AppearanceModel, gallery: tuple, queries: tuple, gammas, alphas):
    """Yield (gamma, alpha, gallery index, fused scores) for each gamma of
    `gammas` and, within it, each alpha of `alphas`.

    `gallery` and `queries` are each (manifest rows, `tracklet_features` of
    each row). Gamma acts only where each group's average is flattened, so
    each gamma only flattens, averages, indexes and scores; alpha acts only
    where the two score matrices are fused, so each alpha only fuses.
    """
    from .gallery import build_index
    from .matcher import fuse_scores

    (gallery_rows, gallery_features), (query_rows, query_features) = gallery, queries
    for gamma in gammas:
        model = replace(app_model, gamma=gamma)
        index = build_index(
            gallery_rows,
            [(shape, model.vector(model.finish(groups))) for shape, groups in gallery_features],
            centroid=cfg.ablation.centroid,
        )
        query_embeddings = [(shape, model.vector(model.finish(groups))) for shape, groups in query_features]
        s_shape, s_app = _score_embedded(query_rows, query_embeddings, index, cfg)
        for alpha in alphas:
            yield gamma, alpha, index, fuse_scores(s_shape, s_app, alpha)


def cmd_synth(cfg: RunConfig, out: str) -> int:
    from .synth import iter_dataset, split_protocol, write_dataset
    from .tables import write_manifest

    rows = write_dataset(iter_dataset(cfg.dataset), out, _comment(cfg))
    gallery, query = split_protocol(rows, cfg.protocol.gallery_ratio, cfg.protocol.split_seed)
    write_manifest(gallery, os.path.join(out, "gallery.csv"), _comment(cfg))
    write_manifest(query, os.path.join(out, "query.csv"), _comment(cfg))
    print(f"wrote {len(rows)} tracklets, {len(gallery)} gallery / {len(query)} query")
    return 0


def cmd_enroll(cfg: RunConfig, out: str) -> int:
    from .gallery import build_index, save_index, tracklet_embeddings

    models = build_shape_model(cfg), build_appearance_model(cfg)
    rows, embeddings = _embed_manifest("gallery.csv", cfg, tracklet_embeddings, models)
    index = build_index(rows, embeddings, centroid=cfg.ablation.centroid)
    save_index(replace(index, model_hash=cfg.model_hash()), os.path.join(out, "index.shrc"))
    print(f"registered {len(rows)} tracklets into {len(index)} entries")
    return 0


def cmd_query(cfg: RunConfig, out: str) -> int:
    from .gallery import load_index, tracklet_embeddings
    from .matcher import fuse_scores

    index_path = os.path.join(out, "index.shrc")
    index = load_index(index_path)
    if index.model_hash != cfg.model_hash():
        raise IndexMismatch(
            f"{index_path}: enrolled under model hash {index.model_hash}, this config's is "
            f"{cfg.model_hash()}; query with the enrolling config or re-run enroll"
        )
    models = build_shape_model(cfg), build_appearance_model(cfg)
    rows, embeddings = _embed_manifest("query.csv", cfg, tracklet_embeddings, models)
    s_shape, s_app = _score_embedded(rows, embeddings, index, cfg)
    fused = fuse_scores(s_shape, s_app, cfg.model.alpha)
    s_shape.write_csv(os.path.join(out, "scores_shape.csv"), _comment(cfg))
    s_app.write_csv(os.path.join(out, "scores_appearance.csv"), _comment(cfg))
    fused.write_csv(os.path.join(out, "scores_fused.csv"), _comment(cfg))
    print(f"scored {len(rows)} queries against {len(fused.gallery_ids)} subjects")
    return 0


def cmd_evaluate(cfg: RunConfig, out: str) -> int:
    from .metrics import evaluate_scores
    from .tables import read_manifest, read_scores, write_table

    fused_path = os.path.join(out, "scores_fused.csv")
    query_path = os.path.join(cfg.paths.data_dir, "query.csv")
    query_ids, gallery_ids, rows = read_scores(fused_path)
    subject_of = {r.tracklet_id: r.subject_id for r in read_manifest(query_path)}
    unknown = [q for q in query_ids if q not in subject_of]
    if unknown:
        raise InvalidInput(f"{fused_path}: query id {unknown[0]!r} is not in {query_path}")
    report = evaluate_scores(rows, gallery_ids, [subject_of[q] for q in query_ids])
    lines = report.lines()
    write_table(os.path.join(out, "report.txt"), _comment(cfg), lines[:1], [[line] for line in lines[1:]])
    header, values = report.csv_rows()
    write_table(os.path.join(out, "report.csv"), _comment(cfg), header.split(","), [values.split(",")])
    for line in lines:
        print(line)
    return 0


def _write_sweep(cfg: RunConfig, out: str, key: str, gammas, alphas) -> int:
    """Write `ablate_<key>.csv`: rank-1 of every (gamma, alpha) setting, keyed
    by the swept one of the two, `key`."""
    from .gallery import tracklet_features
    from .metrics import evaluate_scores
    from .tables import write_table

    models = build_shape_model(cfg), build_appearance_model(cfg)
    gallery = _embed_manifest("gallery.csv", cfg, tracklet_features, models)
    queries = _embed_manifest("query.csv", cfg, tracklet_features, models)
    # _sweep scores the queries in manifest row order
    labels = [r.subject_id for r in queries[0]]
    header = [key, "rank1"]
    rows = [
        [repr(gamma if key == "gamma" else alpha),
         repr(evaluate_scores(fused.scores.tolist(), fused.gallery_ids, labels).rank_k[1])]
        for gamma, alpha, _, fused in _sweep(cfg, models[1], gallery, queries, gammas, alphas)
    ]
    write_table(os.path.join(out, f"ablate_{key}.csv"), _comment(cfg), header, rows)
    print("\n".join(",".join(cells) for cells in [header] + rows))
    return 0


def cmd_ablate_gamma(cfg: RunConfig, out: str) -> int:
    return _write_sweep(cfg, out, "gamma", GAMMA_SWEEP, [cfg.model.alpha])


def cmd_ablate_alpha(cfg: RunConfig, out: str) -> int:
    return _write_sweep(cfg, out, "alpha", [cfg.model.gamma], ALPHA_SWEEP)


def cmd_train_toy(cfg: RunConfig, out: str) -> int:
    from .encoders import EncoderParams, save_encoder
    from .losses import make_toy_dataset, train_toy
    from .prng import derive_seed
    from .tables import write_table

    t = cfg.train
    dataset = make_toy_dataset(t.num_ids, t.samples_per_id, t.input_dim, t.noise, t.data_seed)
    params = EncoderParams.initialize(
        (t.input_dim, t.hidden_dim, t.embed_dim), derive_seed(t.seed, 1)
    )
    result = train_toy(params, dataset, t.objective, t.steps, t.lr, derive_seed(t.seed, 2))
    # first, so that weights float32 cannot hold leave no loss trace behind either
    save_encoder(result.params, os.path.join(out, "trained_encoder.shrcenc"))
    write_table(
        os.path.join(out, "loss_trace.csv"),
        _comment(cfg),
        ["step", "loss"],
        [[str(i), repr(loss)] for i, loss in enumerate(result.trace)],
    )
    print(f"objective={t.objective} initial={result.trace[0]!r} final={result.trace[-1]!r}")
    return 0


_COMMANDS = {
    "synth": (cmd_synth, "generate the synthetic dataset and its gallery/query split"),
    "enroll": (cmd_enroll, "embed gallery tracklets and save the index"),
    "query": (cmd_query, "score query tracklets against a saved index"),
    "evaluate": (cmd_evaluate, "compute CMC/mAP from saved fused scores"),
    "ablate-gamma": (cmd_ablate_gamma, "rank-1 sweep over the flattening exponent"),
    "ablate-alpha": (cmd_ablate_alpha, "rank-1 sweep over the fusion weight"),
    "train-toy": (cmd_train_toy, "fit a small encoder with the training objectives"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sharc", description="multimodal person identification pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
        sp.add_argument("--out", default=None, help="output directory (default: data_dir from config)")
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        out = args.out if args.out is not None else cfg.paths.data_dir
        os.makedirs(out, exist_ok=True)
        return args.fn(cfg, out)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ConfigError, ProtocolError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 3
    except SharcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # after SharcError: CorruptFile is an OSError that names its path itself
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
