"""Per-frame feature encoders with seeded, portable weights.

Each encoder is a stack of (linear map -> bias -> ReLU) blocks; grid encoders
additionally halve the spatial resolution with 2x2 average pooling after every
block. Weights are drawn from SplitMix64, uniform in [-1/sqrt(fan_in),
+1/sqrt(fan_in)], so a (seed, widths) pair reproduces the same parameters on
any platform.

Parameter files ("SHRCENC1"): little-endian; 8-byte magic, then per layer
u32 rows, u32 cols, rows*cols f32 weights in row-major order, rows f32 biases.
Layers are read until end of file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import CorruptFile, DimMismatch, EmptyInput, InvalidInput
from .prng import SplitMix64

ENCODER_MAGIC = b"SHRCENC1"

SMPL_CAMERA_DIM = 3
SMPL_SHAPE_DIM = 10
SMPL_ROTATION_DIM = 72
SMPL_DIM = SMPL_CAMERA_DIM + SMPL_SHAPE_DIM + SMPL_ROTATION_DIM

SKELETON_JOINTS = 17
SKELETON_INPUT_DIM = SKELETON_JOINTS * 3  # x, y per joint plus confidence


@dataclass(frozen=True)
class SilhouetteInput:
    """Binary person mask over one frame's RGB pixels.

    `rgb` is the whole frame, the same array as the tracklet's appearance
    frame rather than a copy; the silhouette encoder sees it only through the
    mask, as `masked_rgb`.
    """

    mask: np.ndarray  # (H, W), entries 0 or 1
    rgb: np.ndarray  # (H, W, 3) in [0, 1]

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=np.float64)
        rgb = np.asarray(self.rgb, dtype=np.float64)
        if mask.ndim != 2:
            raise InvalidInput(f"mask must be (H, W), got shape {mask.shape}")
        if rgb.shape != mask.shape + (3,):
            raise InvalidInput(f"rgb shape {rgb.shape} does not match mask {mask.shape}")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise InvalidInput("mask entries must be 0 or 1")
        if not np.all(np.isfinite(rgb)) or rgb.min() < 0.0 or rgb.max() > 1.0:
            raise InvalidInput("rgb entries must be finite and in [0, 1]")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "rgb", rgb)

    @property
    def masked_rgb(self) -> np.ndarray:
        """(H, W, 3) frame with every pixel outside the mask set to zero."""
        return self.rgb * self.mask[:, :, None]

    def stacked(self) -> np.ndarray:
        """(H, W, 4) grid: mask channel followed by the masked RGB channels."""
        return np.concatenate([self.mask[:, :, None], self.masked_rgb], axis=2)


@dataclass(frozen=True)
class SmplParams:
    """85-D parametric body model vector: camera, shape, joint rotations."""

    camera: np.ndarray  # (3,)
    shape: np.ndarray  # (10,)
    joint_rotations: np.ndarray  # (72,)

    def __post_init__(self):
        cam = np.asarray(self.camera, dtype=np.float64)
        shp = np.asarray(self.shape, dtype=np.float64)
        rot = np.asarray(self.joint_rotations, dtype=np.float64)
        if cam.shape != (SMPL_CAMERA_DIM,):
            raise InvalidInput(f"camera must have {SMPL_CAMERA_DIM} entries, got {cam.shape}")
        if shp.shape != (SMPL_SHAPE_DIM,):
            raise InvalidInput(f"shape must have {SMPL_SHAPE_DIM} entries, got {shp.shape}")
        if rot.shape != (SMPL_ROTATION_DIM,):
            raise InvalidInput(f"joint_rotations must have {SMPL_ROTATION_DIM} entries, got {rot.shape}")
        vec = np.concatenate([cam, shp, rot])
        if not np.all(np.isfinite(vec)):
            raise InvalidInput("SMPL parameters contain non-finite entries")
        object.__setattr__(self, "camera", cam)
        object.__setattr__(self, "shape", shp)
        object.__setattr__(self, "joint_rotations", rot)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.camera, self.shape, self.joint_rotations])


@dataclass(frozen=True)
class SkeletonFrame:
    """2-D joint coordinates (COCO 17-joint convention) with confidences."""

    joints: np.ndarray  # (17, 2)
    confidence: np.ndarray  # (17,) in [0, 1]

    def __post_init__(self):
        joints = np.asarray(self.joints, dtype=np.float64)
        conf = np.asarray(self.confidence, dtype=np.float64)
        if joints.shape != (SKELETON_JOINTS, 2):
            raise InvalidInput(f"joints must be ({SKELETON_JOINTS}, 2), got {joints.shape}")
        if conf.shape != (SKELETON_JOINTS,):
            raise InvalidInput(f"confidence must have {SKELETON_JOINTS} entries, got {conf.shape}")
        if not np.all(np.isfinite(joints)):
            raise InvalidInput("joint coordinates contain non-finite entries")
        if not np.all(np.isfinite(conf)) or conf.min() < 0.0 or conf.max() > 1.0:
            raise InvalidInput("confidences must be finite and in [0, 1]")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "confidence", conf)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.joints.reshape(-1), self.confidence])


@dataclass(frozen=True)
class EncoderParams:
    """Weights and biases of one encoder stack.

    layers[i] is (W, b) with W of shape (out, in) and b of shape (out,).
    `seed` records the stream the weights were drawn from; None for parameters
    loaded from a file.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    seed: int | None = None

    def __post_init__(self):
        if not self.layers:
            raise InvalidInput("encoder needs at least one layer")
        prev_out = None
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise InvalidInput(f"layer {i} has inconsistent shapes {w.shape} / {b.shape}")
            if prev_out is not None and w.shape[1] != prev_out:
                raise DimMismatch(f"layer {i} expects {w.shape[1]} inputs, previous layer emits {prev_out}")
            prev_out = w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    @classmethod
    def initialize(cls, widths: list[int], seed: int) -> "EncoderParams":
        """Draw a stack for the given layer widths [in, h1, ..., out]."""
        if len(widths) < 2:
            raise InvalidInput("need an input and an output width")
        rng = SplitMix64(seed)
        layers = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform_array(-bound, bound, (fan_out, fan_in))
            b = rng.uniform_array(-bound, bound, (fan_out,))
            layers.append((w, b))
        return cls(layers=tuple(layers), seed=seed)


def _avgpool2x2(grid: np.ndarray) -> np.ndarray:
    h, w, c = grid.shape
    if h % 2 != 0 or w % 2 != 0:
        raise DimMismatch(f"2x2 pooling needs even spatial dims, got {h}x{w}")
    return grid.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))


def _grid_forward(grid: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Per-pixel linear blocks with ReLU, each followed by 2x2 average pooling."""
    x = grid
    for w, b in params.layers:
        if x.shape[2] != w.shape[1]:
            raise DimMismatch(f"grid has {x.shape[2]} channels, layer expects {w.shape[1]}")
        x = np.maximum(x @ w.T + b, 0.0)
        x = _avgpool2x2(x)
    return x


def _vector_forward(vec: np.ndarray, params: EncoderParams) -> np.ndarray:
    x = vec
    for w, b in params.layers:
        if x.shape[0] != w.shape[1]:
            raise DimMismatch(f"vector has {x.shape[0]} entries, layer expects {w.shape[1]}")
        x = np.maximum(w @ x + b, 0.0)
    return x


def grid_output_shape(input_hw: tuple[int, int], params: EncoderParams) -> tuple[int, int]:
    """Spatial dims a grid encoder produces for the given input dims."""
    h, w = input_hw
    for _ in params.layers:
        if h % 2 != 0 or w % 2 != 0:
            raise DimMismatch(f"2x2 pooling needs even spatial dims, got {h}x{w}")
        h, w = h // 2, w // 2
    return h, w


def encode_silhouette(inp: SilhouetteInput, params: EncoderParams) -> np.ndarray:
    """Encode mask + masked RGB into an (H', W', C) feature grid."""
    return _grid_forward(inp.stacked(), params)


def encode_smpl(inp: SmplParams, params: EncoderParams, spatial: tuple[int, int]) -> np.ndarray:
    """Encode the 85-D body vector and broadcast it over `spatial` positions.

    Broadcasting makes the output grid-shaped so it can be fused elementwise
    with the silhouette feature.
    """
    vec = _vector_forward(inp.as_vector(), params)
    h, w = spatial
    return np.broadcast_to(vec, (h, w, vec.shape[0])).copy()


def encode_skeleton_sequence(frames: list[SkeletonFrame], params: EncoderParams) -> np.ndarray:
    """Encode a skeleton sequence into a (T, C_m) matrix, one row per frame."""
    if len(frames) == 0:
        raise EmptyInput("skeleton sequence is empty")
    return np.stack([_vector_forward(f.as_vector(), params) for f in frames])


def encode_appearance(frame_rgb: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode an (H, W, 3) RGB frame into an (H', W', C) feature grid."""
    grid = np.asarray(frame_rgb, dtype=np.float64)
    if grid.ndim != 3:
        raise InvalidInput(f"appearance frame must be (H, W, 3), got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise InvalidInput("appearance frame contains non-finite entries")
    return _grid_forward(grid, params)


def save_encoder(params: EncoderParams, path) -> None:
    with open(path, "wb") as f:
        f.write(ENCODER_MAGIC)
        for w, b in params.layers:
            rows, cols = w.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(w.astype("<f4").tobytes(order="C"))
            f.write(b.astype("<f4").tobytes())


def load_encoder(path) -> EncoderParams:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(ENCODER_MAGIC) or data[: len(ENCODER_MAGIC)] != ENCODER_MAGIC:
        raise CorruptFile(f"{path}: bad encoder magic")
    off = len(ENCODER_MAGIC)
    layers = []
    while off < len(data):
        if off + 8 > len(data):
            raise CorruptFile(f"{path}: truncated layer header")
        rows, cols = struct.unpack_from("<II", data, off)
        off += 8
        need = 4 * (rows * cols + rows)
        if off + need > len(data):
            raise CorruptFile(f"{path}: truncated layer payload")
        w = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=off).astype(np.float64)
        off += 4 * rows * cols
        b = np.frombuffer(data, dtype="<f4", count=rows, offset=off).astype(np.float64)
        off += 4 * rows
        layers.append((w.reshape(rows, cols), b))
    if not layers:
        raise CorruptFile(f"{path}: no layers")
    return EncoderParams(layers=tuple(layers), seed=None)
