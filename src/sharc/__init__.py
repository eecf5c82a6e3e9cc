"""Multimodal person identification at the embedding level.

Shape branch: silhouettes fused with 3-D body parameters, strip-pooled into
horizontal bins, with a pooled skeleton-motion feature appended. Appearance
branch: attention-pyramid and averaging aggregation over groups of
2**pyramid_levels frames with optional feature flattening. Galleries register
per-subject centroids; scores fuse as alpha * shape + (1 - alpha) * appearance
and are evaluated with CMC/mAP. Everything is seeded and deterministic.

The modules are the API (`sharc.gallery`, `sharc.matcher`, ...); the package
itself exports only `__version__`.
"""

__version__ = "0.1.0"
