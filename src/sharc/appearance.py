"""Appearance branch: two aggregations over a group of frame features.

The attention route halves the number of frames per pyramid level by combining
consecutive pairs with spatial and temporal attention, so a depth-L pyramid
consumes exactly 2**L frames (8 at the default depth of 3). The averaging
route means all frames and flattens the pooled vector with a signed power
transform. The aggregations and the attention kernels take leading axes, so
a tracklet's groups run as one array. An embedding is the (attn, avg) pair of C-vectors; the
scoring vector built from it, where either route can be zeroed for
ablations, belongs to the appearance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .config import TA_TARGETS
from .exceptions import DimMismatch, EmptyInput, InvalidFrameCount, InvalidGamma, InvalidInput
from .prng import SplitMix64


@dataclass(frozen=True)
class AttentionParams:
    """Per-level attention projection weights.

    sa_weights[l] has shape (C, C) and is used for both frames of a pair at
    level l; ta_weights[l] has shape (C, 2C) and acts on the channel-wise
    concatenation of the pair. Levels do not share weights.
    """

    sa_weights: tuple[np.ndarray, ...]
    ta_weights: tuple[np.ndarray, ...]

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
        return cls(sa_weights=tuple(sa), ta_weights=tuple(ta))


def spatial_attention(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reweight (..., H, W, C) grids by a softmax attention map over their
    spatial positions.

    Logits come from a per-position linear projection of the input; softmax
    runs over H*W per channel, so a constant grid gets uniform attention and
    the output equals input / (H*W). The caller validates the grids.
    """
    if a.shape[-1] != weights.shape[1]:
        raise DimMismatch(f"grid has {a.shape[-1]} channels, SA weights expect {weights.shape[1]}")
    att = core.softmax_grid(a @ weights.T)
    att *= a
    return att


def temporal_attention(
    a_t: np.ndarray, a_t1: np.ndarray, weights: np.ndarray, target: str = "later"
) -> np.ndarray:
    """Attention from consecutive (..., H, W, C) grids, applied pointwise to one of them.

    Logits are projected from the channel-wise concatenation [a_t, a_t1];
    `target` picks which frame the softmax map multiplies: the later one
    (default), the earlier one, or their average. The caller validates the
    grids.
    """
    if a_t.shape != a_t1.shape:
        raise DimMismatch(f"frame shapes differ: {a_t.shape} vs {a_t1.shape}")
    if weights.shape[1] != 2 * a_t.shape[-1]:
        raise DimMismatch(f"TA weights expect {weights.shape[1]} channels, pair has {2 * a_t.shape[-1]}")
    if target not in TA_TARGETS:
        raise InvalidInput(f"unknown TA target {target!r}, expected one of {TA_TARGETS}")
    att = core.softmax_grid(np.concatenate([a_t, a_t1], axis=-1) @ weights.T)
    if target == "later":
        base = a_t1
    elif target == "earlier":
        base = a_t
    else:
        base = 0.5 * (a_t + a_t1)
    att *= base
    return att


def pyramid_aggregate(
    frames: np.ndarray,
    params: AttentionParams,
    ta_target: str = "later",
    sa_fn=None,
    ta_fn=None,
) -> np.ndarray:
    """Reduce groups of 2**levels frame grids, (..., 2**levels, H, W, C), to
    one C-vector per group, (..., C), through the attention pyramid.

    Level l maps consecutive non-overlapping pairs (x, y) to
    SA_l(x) + SA_l(y) + TA_l(x, y), halving the population each level; the
    final grid is averaged over its spatial positions. Each level is one SA
    call over the whole population and every group, and one TA call over all
    its pairs; each attention product keeps the shape of a per-member call,
    so the bits are those of one call per member and pair. sa_fn / ta_fn
    allow the attention operators to be stubbed out (signatures
    sa_fn(grids, level) and ta_fn(x, y, level)); a stub still sees one member
    or one pair per call, and tests use identity/zero stubs to check the
    recursion against a hand-unrolled sum.
    """
    expected = params.group_size
    # an empty list has no frame axis to count
    group = core.as_grids(frames, "frames") if len(frames) else np.empty((0, 0, 0, 0))
    if group.shape[-4] != expected:
        raise InvalidFrameCount(f"pyramid needs exactly {expected} frames, got {group.shape[-4]}")
    if group.shape[-1] != params.channels:
        raise DimMismatch(f"frames have {group.shape[-1]} channels, attention expects {params.channels}")
    current = np.moveaxis(group, -4, 0)

    for level in range(params.levels):
        x, y = current[0::2], current[1::2]
        if sa_fn is None:
            sa = spatial_attention(current, params.sa_weights[level])
        else:
            sa = np.stack([sa_fn(g, level) for g in current])
        if ta_fn is None:
            ta = temporal_attention(x, y, params.ta_weights[level], ta_target)
        else:
            ta = np.stack([ta_fn(a, b, level) for a, b in zip(x, y)])
        current = sa[0::2] + sa[1::2]
        current += ta
    final = current[0]
    return np.add.reduce(final, (-3, -2)) / (final.shape[-3] * final.shape[-2])


def average_aggregate(frames: np.ndarray) -> np.ndarray:
    """Mean of (..., N, H, W, C) frame grids over the frames, then global
    spatial average, to (..., C)."""
    grids = core.as_grids(frames, "frames") if len(frames) else np.empty((0, 0, 0, 0))
    if grids.shape[-4] == 0:
        raise EmptyInput("no frames to average")
    frame_mean = np.add.reduce(grids, -4) / grids.shape[-4]
    return np.add.reduce(frame_mean, (-3, -2)) / (grids.shape[-3] * grids.shape[-2])


def flatten_feature(v: np.ndarray, gamma: float) -> np.ndarray:
    """Signed power transform sgn(x) * |x|**gamma of each entry, gamma in [0, 1].

    gamma=1 is the identity; gamma=0 binarizes to the sign vector (with
    sgn(0) = 0, so zeros stay zero for every gamma). Exponents below 1 expand
    magnitudes under 1 and shrink magnitudes above 1.
    """
    if not (0.0 <= gamma <= 1.0):
        raise InvalidGamma(f"gamma must be in [0, 1], got {gamma}")
    arr = np.asarray(v, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInput("features to flatten contain non-finite entries")
    if gamma == 1.0:
        return arr.copy()
    return np.sign(arr) * np.abs(arr) ** gamma


def mean_embedding(groups: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Average one tracklet's (G, C) attention-route and averaging-route
    vectors over its G groups, to the (attn, avg) pair of C-vectors."""
    attn, avg = groups
    if len(attn) == 0:
        raise EmptyInput("no group embeddings to average")
    return np.add.reduce(attn, 0) / len(attn), np.add.reduce(avg, 0) / len(avg)
