"""Appearance branch: two aggregations over a group of frame features.

The attention route halves the number of frames per pyramid level by combining
consecutive pairs with spatial and temporal attention, so a depth-L pyramid
consumes exactly 2**L frames (8 at the default depth of 3). The averaging
route means all frames and flattens the pooled vector with a signed power
transform. The two routes are kept as separate parts on the embedding so
either can be zeroed for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .exceptions import DimMismatch, EmptyInput, InvalidFrameCount, InvalidGamma, InvalidInput
from .prng import SplitMix64

TA_TARGETS = ("later", "earlier", "both")


@dataclass(frozen=True)
class AttentionParams:
    """Per-level attention projection weights.

    sa_weights[l] has shape (C, C) and is used for both frames of a pair at
    level l; ta_weights[l] has shape (C, 2C) and acts on the channel-wise
    concatenation of the pair. Levels do not share weights.
    """

    sa_weights: tuple[np.ndarray, ...]
    ta_weights: tuple[np.ndarray, ...]
    seed: int | None = None

    def __post_init__(self):
        if len(self.sa_weights) != len(self.ta_weights) or not self.sa_weights:
            raise InvalidInput("need matching, nonempty SA and TA weight lists")
        for lvl, (sa, ta) in enumerate(zip(self.sa_weights, self.ta_weights)):
            c = sa.shape[0]
            if sa.shape != (c, c):
                raise InvalidInput(f"level {lvl}: SA weights must be square, got {sa.shape}")
            if ta.shape != (c, 2 * c):
                raise InvalidInput(f"level {lvl}: TA weights must be (C, 2C), got {ta.shape}")

    @property
    def levels(self) -> int:
        return len(self.sa_weights)

    @property
    def channels(self) -> int:
        return self.sa_weights[0].shape[0]

    @property
    def group_size(self) -> int:
        return 2 ** self.levels

    @classmethod
    def initialize(cls, channels: int, levels: int = 3, seed: int = 11) -> "AttentionParams":
        rng = SplitMix64(seed)
        sa, ta = [], []
        for _ in range(levels):
            bound = 1.0 / np.sqrt(channels)
            sa.append(rng.uniform_array(-bound, bound, (channels, channels)))
            bound = 1.0 / np.sqrt(2 * channels)
            ta.append(rng.uniform_array(-bound, bound, (channels, 2 * channels)))
        return cls(sa_weights=tuple(sa), ta_weights=tuple(ta), seed=seed)


def spatial_attention(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reweight a grid by a softmax attention map over its spatial positions.

    Logits come from a per-position linear projection of the input; softmax
    runs over H*W per channel, so a constant grid gets uniform attention and
    the output equals input / (H*W).
    """
    g = core.as_grid(a)
    if g.shape[2] != weights.shape[1]:
        raise DimMismatch(f"grid has {g.shape[2]} channels, SA weights expect {weights.shape[1]}")
    logits = g @ weights.T
    return core.softmax_grid(logits) * g


def temporal_attention(
    a_t: np.ndarray, a_t1: np.ndarray, weights: np.ndarray, target: str = "later"
) -> np.ndarray:
    """Attention from a consecutive pair, applied pointwise to one of them.

    Logits are projected from the channel-wise concatenation [a_t, a_t1];
    `target` picks which frame the softmax map multiplies: the later one
    (default), the earlier one, or their average.
    """
    x = core.as_grid(a_t, "a_t")
    y = core.as_grid(a_t1, "a_t1")
    if x.shape != y.shape:
        raise DimMismatch(f"frame shapes differ: {x.shape} vs {y.shape}")
    if weights.shape[1] != 2 * x.shape[2]:
        raise DimMismatch(f"TA weights expect {weights.shape[1]} channels, pair has {2 * x.shape[2]}")
    if target not in TA_TARGETS:
        raise InvalidInput(f"unknown TA target {target!r}, expected one of {TA_TARGETS}")
    logits = np.concatenate([x, y], axis=2) @ weights.T
    att = core.softmax_grid(logits)
    if target == "later":
        base = y
    elif target == "earlier":
        base = x
    else:
        base = 0.5 * (x + y)
    return att * base


def pyramid_aggregate(
    frames: np.ndarray,
    params: AttentionParams,
    ta_target: str = "later",
    sa_fn=None,
    ta_fn=None,
) -> np.ndarray:
    """Reduce a group of 2**levels frame grids, (2**levels, H, W, C), to one
    C-vector through the attention pyramid.

    Level l maps consecutive non-overlapping pairs (x, y) to
    SA_l(x) + SA_l(y) + TA_l(x, y), halving the population each level; the
    final grid is averaged over its spatial positions. sa_fn / ta_fn allow the
    attention operators to be stubbed out (signatures sa_fn(grid, level) and
    ta_fn(x, y, level)); tests use identity/zero stubs to check the recursion
    against a hand-unrolled sum.
    """
    expected = params.group_size
    if len(frames) != expected:
        raise InvalidFrameCount(f"pyramid needs exactly {expected} frames, got {len(frames)}")
    group = core.as_grids(frames, "frames")
    if group.shape[3] != params.channels:
        raise DimMismatch(f"frames have {group.shape[3]} channels, attention expects {params.channels}")
    current = list(group)

    for level in range(params.levels):
        if sa_fn is None:
            sa = lambda g: spatial_attention(g, params.sa_weights[level])
        else:
            sa = lambda g: sa_fn(g, level)
        if ta_fn is None:
            ta = lambda x, y: temporal_attention(x, y, params.ta_weights[level], ta_target)
        else:
            ta = lambda x, y: ta_fn(x, y, level)
        current = [
            sa(current[i]) + sa(current[i + 1]) + ta(current[i], current[i + 1])
            for i in range(0, len(current), 2)
        ]
    return current[0].mean(axis=(0, 1))


def average_aggregate(frames: np.ndarray) -> np.ndarray:
    """Mean of (N, H, W, C) frame grids over the frames, then global spatial
    average, to a C-vector."""
    if len(frames) == 0:
        raise EmptyInput("no frames to average")
    return core.as_grids(frames, "frames").mean(axis=0).mean(axis=(0, 1))


def flatten_feature(v: np.ndarray, gamma: float) -> np.ndarray:
    """Signed power transform sgn(x) * |x|**gamma, gamma in [0, 1].

    gamma=1 is the identity; gamma=0 binarizes to the sign vector (with
    sgn(0) = 0, so zeros stay zero for every gamma). Exponents below 1 expand
    magnitudes under 1 and shrink magnitudes above 1.
    """
    if not (0.0 <= gamma <= 1.0):
        raise InvalidGamma(f"gamma must be in [0, 1], got {gamma}")
    arr = core.as_vector(v)
    if gamma == 1.0:
        return arr.copy()
    return np.sign(arr) * np.abs(arr) ** gamma


@dataclass(frozen=True)
class AppearanceEmbedding:
    """Attention-route and averaging-route vectors for one frame group (or a
    group average); gamma is recorded for provenance."""

    attn_part: np.ndarray
    avg_part: np.ndarray
    gamma: float

    def __post_init__(self):
        a = np.asarray(self.attn_part, dtype=np.float64)
        v = np.asarray(self.avg_part, dtype=np.float64)
        if a.ndim != 1 or v.ndim != 1:
            raise InvalidInput("embedding parts must be vectors")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(v))):
            raise InvalidInput("embedding parts contain non-finite entries")
        object.__setattr__(self, "attn_part", a)
        object.__setattr__(self, "avg_part", v)

    def vector(
        self, normalize_parts: bool = True, use_attn: bool = True, use_avg: bool = True
    ) -> np.ndarray:
        """Concatenated scoring vector; disabled parts are zeroed in place so
        dimensionality never changes between ablation configurations."""
        attn = self.attn_part
        avg = self.avg_part
        if normalize_parts:
            # l2_normalize passes all-zero vectors through, so zeroed ablation
            # parts survive this unchanged
            attn = core.l2_normalize(attn)
            avg = core.l2_normalize(avg)
        if not use_attn:
            attn = np.zeros_like(attn)
        if not use_avg:
            avg = np.zeros_like(avg)
        return np.concatenate([attn, avg])


def mean_embedding(parts: list[AppearanceEmbedding]) -> AppearanceEmbedding:
    """Average the per-group embeddings of one tracklet, part by part."""
    if len(parts) == 0:
        raise EmptyInput("no group embeddings to average")
    gammas = {p.gamma for p in parts}
    if len(gammas) != 1:
        raise InvalidInput(f"group embeddings disagree on gamma: {sorted(gammas)}")
    attn = np.mean([p.attn_part for p in parts], axis=0)
    avg = np.mean([p.avg_part for p in parts], axis=0)
    return AppearanceEmbedding(attn_part=attn, avg_part=avg, gamma=parts[0].gamma)
