"""Shape branch: fuse each frame's silhouette and body-model features, pool
the sequence, strip-pool into bins, and append the pooled motion feature as
one extra bin. Every stage takes frames as one array, frames on the first
axis. `ShapeModel.embed` runs the pose stages over a tracklet in the frame
chunks of `encoders.frame_chunks` and folds each chunk's max into a running
max, which is exact, so no per-frame pose array spans the whole tracklet.
The body-model encoder gives one (C,) vector per frame; the fusion sees it
as a broadcast view over that frame's (h, w) silhouette grid, which
multiplies elementwise to the bits a materialised copy gives.

The output of the branch is a (B + 1) x C matrix: B strip-pooled bins from the
fused pose feature plus a final bin carrying the skeleton-motion feature, which
the model projects to C channels, with a matrix it draws itself from
`projection_seed`, when the motion encoder emits a different width. Matching
flattens the matrix to a single vector; the bin layout is kept on the
embedding for ablations.

The `[ablation]` drops zero the dropped input inside `ShapeModel.embed`, not
its encoder, so the topology and the embedding width never change between
runs; an all-zero mask also hides the RGB beneath it from the silhouette encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .encoders import (
    EncoderParams,
    encode_silhouette,
    encode_skeleton_sequence,
    encode_smpl,
    frame_chunks,
)
from .exceptions import DimMismatch, EmptyInput, InvalidInput
from .prng import SplitMix64


def fuse_pose(i_sil: np.ndarray, i_3d: np.ndarray) -> np.ndarray:
    """Elementwise product of the two pose features plus a silhouette skip.

    Takes (T, h, w, C) feature grids, or any two arrays of one shape. With an
    all-zero body-model feature this reduces to the silhouette feature alone,
    which is what the input-zeroing ablation relies on.
    """
    a = np.asarray(i_sil, dtype=np.float64)
    b = np.asarray(i_3d, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatch(f"pose feature shapes differ: {a.shape} vs {b.shape}")
    return a * b + a


def temporal_pool_pose(frames: np.ndarray) -> np.ndarray:
    """Elementwise max of (T, h, w, C) pose features over the sequence (set
    pooling, order-free)."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim == 0 or x.shape[0] == 0:
        raise EmptyInput("no pose frames to pool")
    if x.ndim != 4:
        raise DimMismatch(f"pose frames must be (T, h, w, C), got shape {x.shape}")
    return np.maximum.reduce(x, 0)


def pool_motion(motion: np.ndarray) -> np.ndarray:
    """Average a (T, C_m) motion feature matrix over time.

    Columns are summed exactly (fsum) before dividing, so the result is
    bit-identical under any reordering of the frames; a naive running sum
    would drift by an ulp per permutation.
    """
    m = np.asarray(motion, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise EmptyInput(f"motion matrix must be (T, C_m) with T >= 1, got shape {m.shape}")
    return np.array([math.fsum(col) for col in m.T.tolist()]) / m.shape[0]


@dataclass(frozen=True)
class ShapeEmbedding:
    """(B + 1) x C bin matrix; the last row is the motion bin."""

    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] < 2:
            raise InvalidInput(f"bins must be (B + 1, C) with B >= 1, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise InvalidInput("bins contain non-finite entries")
        object.__setattr__(self, "bins", b)

    def flatten(self) -> np.ndarray:
        """Single vector used for scoring; rows stay contiguous."""
        return self.bins.reshape(-1).copy()


@dataclass(frozen=True)
class ShapeModel:
    """The three shape-branch encoders, the bin configuration and the input drops."""

    sil_encoder: EncoderParams
    smpl_encoder: EncoderParams
    skeleton_encoder: EncoderParams
    bins: int
    projection_seed: int = 7
    hpp_mode: str = "max+mean"
    drop_silhouette: bool = False
    drop_smpl: bool = False
    drop_skeleton: bool = False
    # (C, C_m), drawn from projection_seed as the model is built; None when C_m == C
    motion_projection: np.ndarray | None = field(init=False)

    def __post_init__(self):
        c, c_m = self.sil_encoder.output_dim, self.skeleton_encoder.output_dim
        projection = None
        if c_m != c:
            bound = 1.0 / np.sqrt(c_m)
            projection = SplitMix64(self.projection_seed).uniform_array(-bound, bound, (c, c_m))
        object.__setattr__(self, "motion_projection", projection)

    def motion_bin(self, skeleton: np.ndarray) -> np.ndarray:
        """Pooled motion feature of a (T, 51) skeleton sequence, projected to
        the pose channel width."""
        pooled = pool_motion(encode_skeleton_sequence(skeleton, self.skeleton_encoder))
        if self.motion_projection is None:
            return pooled
        return self.motion_projection @ pooled

    def embed(
        self, masks: np.ndarray, appearance: np.ndarray, body: np.ndarray, skeleton: np.ndarray
    ) -> ShapeEmbedding:
        """Full shape-branch embedding for one tracklet's arrays (see synth.TrackletRecord).

        Zero the dropped inputs; encode the silhouettes and body vectors and
        fuse them, one frame chunk at a time; pool the fused sequence with
        elementwise max, chunk by chunk; strip-pool into `bins` bands; append
        the pooled (and projected) motion feature as the extra bin.
        """
        n = len(masks)
        if n == 0:
            raise EmptyInput("tracklet has no frames")
        if not (len(appearance) == len(body) == len(skeleton) == n):
            raise DimMismatch(
                f"modalities disagree on length: {n} masks, {len(appearance)} RGB frames, "
                f"{len(body)} body vectors, {len(skeleton)} skeletons"
            )
        if self.drop_silhouette:
            masks = np.zeros_like(masks)
        if self.drop_smpl:
            body = np.zeros_like(body)
        if self.drop_skeleton:
            skeleton = np.zeros_like(skeleton)
        pooled = None
        for chunk in frame_chunks(n, masks.shape[1] * masks.shape[2]):
            sil = encode_silhouette(masks[chunk], appearance[chunk], self.sil_encoder)
            rows = encode_smpl(body[chunk], self.smpl_encoder)
            # each frame's body vector over every cell of its silhouette grid
            fused = fuse_pose(sil, np.broadcast_to(rows[:, None, None, :], sil.shape[:3] + rows.shape[1:]))
            chunk_max = temporal_pool_pose(fused)
            pooled = chunk_max if pooled is None else np.maximum(pooled, chunk_max, out=pooled)
        pose_bins = core.strip_pool(pooled, self.bins, self.hpp_mode)

        return ShapeEmbedding(bins=np.vstack([pose_bins, self.motion_bin(skeleton)[None, :]]))
