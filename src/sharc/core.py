"""Dense numeric kernels shared by every stage of the pipeline.

Conventions: a feature vector is a 1-D float64 ndarray; a feature grid is a
3-D float64 ndarray laid out (height, width, channels) in C order. All kernels
compute in 64-bit; narrowing to 32-bit happens only at file boundaries.
"""

from __future__ import annotations

import numpy as np

from .config import HPP_MODES
from .exceptions import DimMismatch, InvalidBinning, InvalidInput

# Norms below this are left untouched by l2_normalize instead of being scaled.
NORM_FLOOR = 1e-12


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, raising InvalidInput otherwise."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInput(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInput(f"{name} must have at least one entry")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def as_grid(g, name: str = "grid") -> np.ndarray:
    """Coerce to a finite (H, W, C) float64 array."""
    arr = np.asarray(g, dtype=np.float64)
    if arr.ndim != 3:
        raise InvalidInput(f"{name} must be (H, W, C), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return arr


def as_grids(g, name: str = "grids") -> np.ndarray:
    """Coerce stacks of equal (H, W, C) grids to a finite (..., N, H, W, C) float64 array."""
    try:
        arr = np.asarray(g, dtype=np.float64)
    except ValueError:
        raise DimMismatch(f"{name} differ in shape") from None
    if arr.ndim < 4:
        raise InvalidInput(f"{name} must be (..., N, H, W, C), got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contain non-finite entries")
    return arr


def l2_normalize(v) -> np.ndarray:
    """Scale to unit Euclidean norm; vectors with norm <= NORM_FLOOR pass through."""
    arr = as_vector(v)
    # np.linalg.norm's own route for a 1-D float vector, without its wrapper
    flat = arr.ravel(order="K")
    norm = float(np.sqrt(flat.dot(flat)))
    if norm <= NORM_FLOOR:
        return arr.copy()
    return arr / norm


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1].

    Zero vectors are rejected rather than scored 0: a zero embedding means an
    upstream encoder failed and silently treating it as orthogonal would hide
    that.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise DimMismatch(f"dim mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise InvalidInput("cosine similarity is undefined for a zero vector")
    # normalize first so denormal-scale inputs cannot underflow the product
    sim = float(np.dot(va / na, vb / nb))
    return max(-1.0, min(1.0, sim))


def euclidean_distance(a, b) -> float:
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape != vb.shape:
        raise DimMismatch(f"dim mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return float(np.linalg.norm(va - vb))


def softmax_grid(logits: np.ndarray) -> np.ndarray:
    """Softmax over the spatial positions of (..., H, W, C) grids, per grid and channel."""
    # the ufunc reductions that ndarray.max and .sum call, without their wrappers
    e = logits - np.maximum.reduce(logits, (-3, -2), keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, (-3, -2), keepdims=True)
    return e


def strip_pool(grid, strips: int, mode: str = "max+mean") -> np.ndarray:
    """Pool an (H, W, C) grid into `strips` horizontal bands.

    Each band is reduced per channel to max + mean over the band (GaitSet-style
    bin statistic), or max / mean alone when `mode` says so. Returns a
    (strips, C) matrix.
    """
    g = as_grid(grid)
    h = g.shape[0]
    if strips < 1:
        raise InvalidBinning(f"strip count must be positive, got {strips}")
    if h % strips != 0:
        raise InvalidBinning(f"height {h} not divisible by {strips} strips")
    if mode not in HPP_MODES:
        raise InvalidInput(f"unknown strip statistic {mode!r}, expected one of {HPP_MODES}")
    bands = g.reshape(strips, h // strips, g.shape[1], g.shape[2])
    mx = np.maximum.reduce(bands, (1, 2))
    # numpy's mean without its wrapper: the sum over the band, then one division
    mn = np.add.reduce(bands, (1, 2)) / (bands.shape[1] * bands.shape[2])
    if mode == "max":
        return mx
    if mode == "mean":
        return mn
    return mx + mn
