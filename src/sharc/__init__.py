"""Multimodal person identification at the embedding level.

Shape branch: silhouettes fused with 3-D body parameters, strip-pooled into
horizontal bins, with a pooled skeleton-motion feature appended. Appearance
branch: attention-pyramid and averaging aggregation over groups of
2**pyramid_levels frames with optional feature flattening. Galleries register
per-subject centroids; scores fuse as alpha * shape + (1 - alpha) * appearance
and are evaluated with CMC/mAP. Everything is seeded and deterministic.
"""

__version__ = "0.1.0"

from .appearance import (
    AttentionParams,
    average_aggregate,
    flatten_feature,
    mean_embedding,
    pyramid_aggregate,
    spatial_attention,
    temporal_attention,
)
from .config import RunConfig, build_appearance_model, build_shape_model, parse_config
from .core import cosine_similarity, euclidean_distance, l2_normalize, softmax, strip_pool
from .encoders import (
    EncoderParams,
    encode_appearance,
    encode_silhouette,
    encode_skeleton_sequence,
    encode_smpl,
    load_encoder,
    save_encoder,
)
from .gallery import (
    AppearanceModel,
    GalleryIndex,
    IndexEntry,
    ManifestRow,
    TrackletFeatures,
    TrackletRecord,
    build_index,
    build_pseudo_video,
    chunk_frames,
    load_index,
    read_manifest,
    register,
    save_index,
    tracklet_embeddings,
    tracklet_features,
    write_manifest,
)
from .losses import (
    Batch,
    ToyDataset,
    TrainResult,
    appearance_objective,
    batch_hard_triplet,
    center_loss,
    centroid_triplet_loss,
    cross_entropy,
    make_toy_dataset,
    numerical_gradient,
    shape_objective,
    train_toy,
    triplet_loss,
)
from .matcher import ScoreMatrix, appearance_scores, fuse_scores, rank, shape_scores
from .metrics import EvalReport, average_precision, cmc, evaluate_ranking, mean_average_precision
from .prng import SplitMix64, derive_seed
from .shape import ShapeEmbedding, ShapeModel, fuse_pose, pool_motion, temporal_pool_pose
from .synth import (
    DatasetSpec,
    IdentityProfile,
    generate_dataset,
    generate_tracklet,
    identity_profile,
    iter_dataset,
    load_dataset,
    read_tracklet_frames,
    split_protocol,
    write_dataset,
    write_tracklet_frames,
)
