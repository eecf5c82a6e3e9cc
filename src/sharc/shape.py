"""Shape branch: fuse per-frame silhouette and body-model features, pool the
sequence, strip-pool into bins, and append the pooled motion feature as one
extra bin.

The output of the branch is a (B + 1) x C matrix: B strip-pooled bins from the
fused pose feature plus a final bin carrying the skeleton-motion feature
(projected to C channels when the motion encoder emits a different width).
Matching flattens the matrix to a single vector; the bin layout is kept on the
embedding for ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .encoders import (
    EncoderParams,
    SilhouetteInput,
    SkeletonFrame,
    SmplParams,
    encode_silhouette,
    encode_skeleton_sequence,
    encode_smpl,
    grid_output_shape,
)
from .exceptions import DimMismatch, EmptyInput, InvalidInput
from .prng import SplitMix64


def fuse_pose(i_sil: np.ndarray, i_3d: np.ndarray) -> np.ndarray:
    """Elementwise product of the two pose features plus a silhouette skip.

    With an all-zero body-model feature this reduces to the silhouette feature
    alone, which is what the input-zeroing ablation relies on.
    """
    a = core.as_grid(i_sil, "i_sil")
    b = core.as_grid(i_3d, "i_3d")
    if a.shape != b.shape:
        raise DimMismatch(f"pose feature shapes differ: {a.shape} vs {b.shape}")
    return a * b + a


def temporal_pool_pose(frames: list[np.ndarray]) -> np.ndarray:
    """Elementwise max over the sequence (set pooling, order-free)."""
    if len(frames) == 0:
        raise EmptyInput("no pose frames to pool")
    grids = [core.as_grid(f) for f in frames]
    shape = grids[0].shape
    for g in grids[1:]:
        if g.shape != shape:
            raise DimMismatch(f"pose frame shapes differ: {shape} vs {g.shape}")
    return np.maximum.reduce(grids)


def pool_motion(motion: np.ndarray) -> np.ndarray:
    """Average a (T, C_m) motion feature matrix over time.

    Columns are summed exactly (fsum) before dividing, so the result is
    bit-identical under any reordering of the frames; a naive running sum
    would drift by an ulp per permutation.
    """
    m = np.asarray(motion, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise EmptyInput(f"motion matrix must be (T, C_m) with T >= 1, got shape {m.shape}")
    return np.array([math.fsum(col) for col in m.T]) / m.shape[0]


@dataclass(frozen=True)
class ShapeEmbedding:
    """(B + 1) x C bin matrix; the last row is the motion bin."""

    bins: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bins, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] < 2:
            raise InvalidInput(f"bins must be (B + 1, C) with B >= 1, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InvalidInput("bins contain non-finite entries")
        object.__setattr__(self, "bins", b)

    def flatten(self) -> np.ndarray:
        """Single vector used for scoring; rows stay contiguous."""
        return self.bins.reshape(-1).copy()


@dataclass(frozen=True)
class ShapeModel:
    """Bundles the three shape-branch encoders and the bin configuration."""

    sil_encoder: EncoderParams
    smpl_encoder: EncoderParams
    skeleton_encoder: EncoderParams
    bins: int
    motion_projection: np.ndarray | None = None  # (C, C_m); None when C_m == C
    hpp_mode: str = "max+mean"

    @classmethod
    def build(
        cls,
        sil_encoder: EncoderParams,
        smpl_encoder: EncoderParams,
        skeleton_encoder: EncoderParams,
        bins: int,
        projection_seed: int = 7,
        **kwargs,
    ) -> "ShapeModel":
        """Create the model, drawing the C_m -> C motion projection if needed."""
        c = sil_encoder.output_dim
        c_m = skeleton_encoder.output_dim
        projection = None
        if c_m != c:
            bound = 1.0 / np.sqrt(c_m)
            projection = SplitMix64(projection_seed).uniform_array(-bound, bound, (c, c_m))
        return cls(
            sil_encoder=sil_encoder,
            smpl_encoder=smpl_encoder,
            skeleton_encoder=skeleton_encoder,
            bins=bins,
            motion_projection=projection,
            **kwargs,
        )

    def motion_bin(self, skeletons: list[SkeletonFrame]) -> np.ndarray:
        """Pooled motion feature, projected to the pose channel width."""
        pooled = pool_motion(encode_skeleton_sequence(skeletons, self.skeleton_encoder))
        if self.motion_projection is None:
            return pooled
        return self.motion_projection @ pooled

    def embed(
        self,
        silhouettes: list[SilhouetteInput],
        smpls: list[SmplParams],
        skeletons: list[SkeletonFrame],
    ) -> ShapeEmbedding:
        return shape_embedding(silhouettes, smpls, skeletons, self)


def shape_embedding(
    silhouettes: list[SilhouetteInput],
    smpls: list[SmplParams],
    skeletons: list[SkeletonFrame],
    model: ShapeModel,
) -> ShapeEmbedding:
    """Full shape-branch embedding for one tracklet.

    Per frame: encode silhouette and body-model inputs, fuse them; pool the
    fused sequence with elementwise max; strip-pool into `model.bins` bands;
    append the pooled (and projected) motion feature as the extra bin.
    """
    n = len(silhouettes)
    if n == 0:
        raise EmptyInput("tracklet has no frames")
    if not (len(smpls) == len(skeletons) == n):
        raise DimMismatch(
            f"modalities disagree on length: {n} silhouettes, {len(smpls)} body vectors, "
            f"{len(skeletons)} skeletons"
        )
    spatial = grid_output_shape(silhouettes[0].mask.shape, model.sil_encoder)
    fused = [
        fuse_pose(
            encode_silhouette(sil, model.sil_encoder),
            encode_smpl(smpl, model.smpl_encoder, spatial),
        )
        for sil, smpl in zip(silhouettes, smpls)
    ]
    pose_bins = core.strip_pool(temporal_pool_pose(fused), model.bins, model.hpp_mode)

    motion = model.motion_bin(skeletons)
    if motion.shape[0] != pose_bins.shape[1]:
        raise DimMismatch(
            f"motion bin has {motion.shape[0]} channels, pose bins have {pose_bins.shape[1]}"
        )
    return ShapeEmbedding(bins=np.vstack([pose_bins, motion[None, :]]))
