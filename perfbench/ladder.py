"""Scoring ladder: the public scoring functions on synthetic embeddings.

G = Q = n seeded unit vectors with the default model's widths (80-D shape,
32-D appearance), one gallery entry per subject, query i belonging to
subject i. No frame data is involved. n = 4096 is left out: the scalar
scoring loop costs about 20-40 us a pair, so its 16.7 M pairs would take
several minutes per call.
"""

from __future__ import annotations

import time

import numpy as np

SIZES = (64, 512)
SHAPE_DIM, APPEARANCE_DIM = 80, 32
ALPHA = 0.1
# calls per size; the run reports their median
REPEATS = {64: 5, 512: 1}
FUNCTIONS = ("shape_scores", "appearance_scores", "fuse_scores", "rank", "evaluate_ranking")


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _one_pass(n: int, seed: int) -> dict[str, float]:
    from sharc.gallery import GalleryIndex, IndexEntry
    from sharc.matcher import appearance_scores, fuse_scores, rank, shape_scores
    from sharc.metrics import evaluate_ranking

    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, n])
    g_shape, g_app = _unit_rows(rng, n, SHAPE_DIM), _unit_rows(rng, n, APPEARANCE_DIM)
    q_shape, q_app = _unit_rows(rng, n, SHAPE_DIM), _unit_rows(rng, n, APPEARANCE_DIM)
    subjects = [f"s{i:05d}" for i in range(n)]
    index = GalleryIndex([IndexEntry(s, g_shape[i], g_app[i], 1) for i, s in enumerate(subjects)])
    qids = [f"q{i:05d}" for i in range(n)]

    times = {}
    t0 = time.perf_counter()
    s_shape = shape_scores(list(zip(qids, q_shape)), index)
    t1 = time.perf_counter()
    s_app = appearance_scores(list(zip(qids, q_app)), index)
    t2 = time.perf_counter()
    fused = fuse_scores(s_shape, s_app, ALPHA)
    t3 = time.perf_counter()
    ranked = rank(fused)
    t4 = time.perf_counter()
    evaluate_ranking(ranked, subjects, {s: s for s in subjects})
    t5 = time.perf_counter()
    for name, (a, b) in zip(FUNCTIONS, ((t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5))):
        times[name] = b - a
    return times


def run_ladder(seed: int) -> dict[str, list[float]]:
    """ladder.<function>_s.n<size> -> seconds of each call."""
    out = {}
    for n in SIZES:
        passes = [_one_pass(n, seed) for _ in range(REPEATS[n])]
        for name in FUNCTIONS:
            out[f"ladder.{name}_s.n{n}"] = [p[name] for p in passes]
    return out
