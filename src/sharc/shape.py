"""Shape branch: fuse each frame's silhouette and body-model features, pool
the sequence, strip-pool into bins, and append the pooled motion feature as
one extra bin. Every stage takes frames as one array, frames on the first
axis. `ShapeModel.encode_window` embeds a window of consecutive tracklets
of one frame size, their frames joined on the first axis. It runs the
encoders in the frame chunks of `encoders.frame_chunks` (a chunk may hold
frames of several tracklets): each tracklet's pose max is the max over its
own frames of each chunk (`temporal_pool_pose` of the chunk's rows from the
tracklet's offset), folded across the chunks, which is exact, so no
per-frame pose array spans a tracklet or a window. (`np.maximum.reduceat`
gives the same segmented max in one call, but over a 32-frame chunk of
eight 4-frame tracklets it takes about twice as long as the eight
per-tracklet reductions.) Each tracklet's max is then strip-pooled and its
motion bin appended, so a window yields one `ShapeEmbedding` per tracklet.
`ShapeModel.embed` is `encode_window` over a window of one tracklet.
The body-model encoder gives one (C,) vector per frame; the fusion sees it
as a broadcast view over that frame's (h, w) silhouette grid, which
multiplies elementwise to the bits a materialised copy gives.

The output of the branch is a (B + 1) x C matrix: B strip-pooled bins from the
fused pose feature plus a final bin carrying the skeleton-motion feature, which
the model projects to C channels, with a matrix it draws itself from
`projection_seed`, when the motion encoder emits a different width. Matching
flattens the matrix to a single vector; the bin layout is kept on the
embedding for ablations.

The `[ablation]` drops zero the dropped input inside `encode_window`, not
its encoder, so the topology and the embedding width never change between
runs; an all-zero mask also hides the RGB beneath it from the silhouette encoder.
"""

from __future__ import annotations

import bisect
import itertools
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
        if not np.logical_and.reduce(np.isfinite(b), None):
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

    def motion_bin(self, motion: np.ndarray) -> np.ndarray:
        """Pooled motion feature of one tracklet's (T, C_m) encoded skeleton
        rows, projected to the pose channel width."""
        pooled = pool_motion(motion)
        if self.motion_projection is None:
            return pooled
        return self.motion_projection @ pooled

    def encode_window(
        self, masks: np.ndarray, appearance: np.ndarray, body: np.ndarray, skeleton: np.ndarray, lengths: list[int]
    ) -> list[ShapeEmbedding]:
        """The embeddings of a window of consecutive tracklets: their arrays
        (see synth.TrackletRecord) joined on the frame axis, `lengths` frames
        each. One `ShapeEmbedding` per tracklet, in order.

        Zero the dropped inputs; encode the silhouettes and body vectors and
        fuse them one frame chunk at a time; take each tracklet's max over its
        frames in the chunk and fold it into the tracklet's running max.
        Encode the skeletons of the whole window in one call. Per tracklet,
        strip-pool its max into `bins` bands and append its motion bin.
        """
        n = len(masks)
        if n == 0:
            raise EmptyInput("tracklet has no frames")
        if not (len(appearance) == len(body) == len(skeleton) == n):
            raise DimMismatch(
                f"modalities disagree on length: {n} masks, {len(appearance)} RGB frames, "
                f"{len(body)} body vectors, {len(skeleton)} skeletons"
            )
        if sum(lengths) != n or min(lengths) < 1:
            raise InvalidInput(f"tracklet lengths {lengths} do not split a window of {n} frames")
        if self.drop_silhouette:
            masks = np.zeros_like(masks)
        if self.drop_smpl:
            body = np.zeros_like(body)
        if self.drop_skeleton:
            skeleton = np.zeros_like(skeleton)
        ends = list(itertools.accumulate(lengths))
        starts = [0] + ends[:-1]
        pooled: list = [None] * len(lengths)
        for chunk in frame_chunks(n, masks.shape[1] * masks.shape[2]):
            sil = encode_silhouette(masks[chunk], appearance[chunk], self.sil_encoder)
            rows = encode_smpl(body[chunk], self.smpl_encoder)
            # each frame's body vector over every cell of its silhouette grid:
            # a view of the fresh (T, C) rows with zero strides over (h, w),
            # the view np.broadcast_to makes, without its Python wrapper
            grid_shape = sil.shape[:3] + rows.shape[1:]
            grid = np.ndarray(grid_shape, rows.dtype, rows, 0, (rows.strides[0], 0, 0, rows.strides[1]))
            fused = fuse_pose(sil, grid)
            # each tracklet with frames in this chunk: the max over them
            for i in range(bisect.bisect_right(ends, chunk.start), bisect.bisect_left(starts, chunk.stop)):
                own = slice(max(starts[i], chunk.start) - chunk.start, min(ends[i], chunk.stop) - chunk.start)
                chunk_max = temporal_pool_pose(fused[own])
                pooled[i] = chunk_max if pooled[i] is None else np.maximum(pooled[i], chunk_max, out=pooled[i])
        # the skeleton rows are narrow: one pass over the window
        motion = encode_skeleton_sequence(skeleton, self.skeleton_encoder)
        strips = (core.strip_pool(pose, self.bins, self.hpp_mode) for pose in pooled)
        motions = (self.motion_bin(motion[a:b]) for a, b in zip(starts, ends))
        return [ShapeEmbedding(np.concatenate((s, m[None]))) for s, m in zip(strips, motions)]

    def embed(
        self, masks: np.ndarray, appearance: np.ndarray, body: np.ndarray, skeleton: np.ndarray
    ) -> ShapeEmbedding:
        """Full shape-branch embedding for one tracklet's arrays (see
        synth.TrackletRecord): `encode_window` over a window of this one
        tracklet."""
        return self.encode_window(masks, appearance, body, skeleton, [len(masks)])[0]
