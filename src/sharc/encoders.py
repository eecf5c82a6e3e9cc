"""Feature encoders over tracklet frames, with seeded, portable weights.

Each encoder is a stack of (linear map -> bias -> ReLU) blocks; grid encoders
additionally halve the spatial resolution with 2x2 average pooling after every
block. Every encoder takes one modality of any run of frames as a single
array, with frames on the first axis: (T, H, W) masks and (T, H, W, 3) RGB
frames, the (T, 85) body vectors or the (T, 51) skeletons. Frames are encoded
independently, so the models feed the grid encoders a tracklet in the slices
of `frame_chunks`: at most CHUNK_ROWS pixel rows per 2-D product, whatever
the tracklet's length. The arrays are validated once,
where a `TrackletRecord` is built, not here. Weights are drawn from
SplitMix64, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], so a (seed, widths)
pair reproduces the same parameters on any platform.

Parameter files ("SHRCENC1"): little-endian; 8-byte magic, then per layer
u32 rows, u32 cols, rows*cols f32 weights in row-major order, rows f32 biases.
Layers are read until end of file. A layer with no rows or columns, one whose
input width is not the previous layer's output width, and non-finite weights
or biases make the file corrupt.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import CorruptFile, DimMismatch, EmptyInput, InvalidInput
from .prng import SplitMix64

ENCODER_MAGIC = b"SHRCENC1"

SMPL_DIM = 3 + 10 + 72  # body vector: camera, shape, joint rotations

SKELETON_JOINTS = 17
# skeleton vector: x, y of each joint, then the joints' confidences
SKELETON_INPUT_DIM = SKELETON_JOINTS * 3

# pixel rows per 2-D product when a tracklet is encoded in frame chunks: 8
# frames of 32x32, a 512 KB layer-1 product at 8 hidden channels. A product
# over a whole 48-frame tracklet is 3.1 MB, and its fresh pages fault in again
# for every tracklet.
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class EncoderParams:
    """Weights and biases of one encoder stack.

    layers[i] is (W, b) with W of shape (out, in) and b of shape (out,).
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

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
        return cls(layers=tuple(layers))


def _avgpool2x2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling over the H and W axes of a (T, H, W, C) array.

    Strided adds sum each window in the same order as a per-frame
    reshape-and-mean, and run faster than a batched one.
    """
    h, w = x.shape[1:3]
    if h % 2 != 0 or w % 2 != 0:
        raise DimMismatch(f"2x2 pooling needs even spatial dims, got {h}x{w}")
    return 0.25 * (x[:, 0::2, 0::2] + x[:, 0::2, 1::2] + x[:, 1::2, 0::2] + x[:, 1::2, 1::2])


def _grid_forward(grids: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Per-pixel linear blocks with ReLU over (T, H, W, C) grids, each followed
    by 2x2 average pooling.

    Each layer is one 2-D product over all T*H*W pixels. Every output cell is
    one dot product no longer than the layer's input width, so its bytes do not
    depend on how BLAS splits the rows between threads.
    """
    x = grids
    if x.ndim != 4:
        raise InvalidInput(f"grids must be (T, H, W, C), got shape {x.shape}")
    for w, b in params.layers:
        t, h, wd, c = x.shape
        if c != w.shape[1]:
            raise DimMismatch(f"grid has {c} channels, layer expects {w.shape[1]}")
        # in place after the product, so the bias and the ReLU allocate nothing
        y = x.reshape(-1, c) @ w.T
        y += b
        x = _avgpool2x2(np.maximum(y, 0.0, out=y).reshape(t, h, wd, w.shape[0]))
    return x


def _vector_forward(rows: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Linear blocks with ReLU applied to each row of a (T, D) matrix.

    Each row stays its own matrix-vector product W @ x: a (T, D) @ W.T product
    sums in another order and differs from it by up to an ulp.
    """
    x = rows
    if x.ndim != 2:
        raise InvalidInput(f"rows must be (T, D), got shape {x.shape}")
    for w, b in params.layers:
        if x.shape[1] != w.shape[1]:
            raise DimMismatch(f"rows have {x.shape[1]} entries, layer expects {w.shape[1]}")
        x = np.maximum(np.matmul(w, x[:, :, None])[..., 0] + b, 0.0)
    return x


def frame_chunks(n_frames: int, frame_pixels: int) -> list[slice]:
    """Consecutive slices covering n_frames, each of at most CHUNK_ROWS pixel
    rows; a frame larger than the budget gets a slice of its own."""
    step = max(1, CHUNK_ROWS // frame_pixels)
    return [slice(start, min(start + step, n_frames)) for start in range(0, n_frames, step)]


def grid_output_shape(input_hw: tuple[int, int], params: EncoderParams) -> tuple[int, int]:
    """Spatial dims a grid encoder produces for the given input dims."""
    h, w = input_hw
    for _ in params.layers:
        if h % 2 != 0 or w % 2 != 0:
            raise DimMismatch(f"2x2 pooling needs even spatial dims, got {h}x{w}")
        h, w = h // 2, w // 2
    return h, w


def encode_silhouette(masks: np.ndarray, appearance: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode (T, H, W) masks over their (T, H, W, 3) RGB frames into
    (T, H', W', C) feature grids.

    Each pixel's input is its mask value followed by its RGB times the mask,
    so the encoder sees no colour outside the silhouette.
    """
    m = masks[..., None]
    return _grid_forward(np.concatenate([m, appearance * m], axis=3), params)


def encode_smpl(body: np.ndarray, params: EncoderParams, spatial: tuple[int, int]) -> np.ndarray:
    """Encode (T, 85) body vectors and broadcast each over `spatial` positions.

    Broadcasting makes the output (T, h, w, C) grids, so it can be fused
    elementwise with the silhouette features.
    """
    vecs = _vector_forward(body, params)
    h, w = spatial
    return np.broadcast_to(vecs[:, None, None, :], (vecs.shape[0], h, w, vecs.shape[1])).copy()


def encode_skeleton_sequence(skeleton: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode a (T, 51) skeleton sequence into a (T, C_m) matrix, one row per frame."""
    if len(skeleton) == 0:
        raise EmptyInput("skeleton sequence is empty")
    return _vector_forward(skeleton, params)


def encode_appearance(frames: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode (T, H, W, 3) RGB frames into (T, H', W', C) feature grids."""
    return _grid_forward(frames, params)


def save_encoder(params: EncoderParams, path) -> None:
    """Write a SHRCENC1 file; weights that float32 cannot hold are refused
    before the file is opened, since `load_encoder` would refuse the file."""
    # out-of-range values cast to inf, which the check below reports
    with np.errstate(over="ignore"):
        layers = [(w.astype("<f4"), b.astype("<f4")) for w, b in params.layers]
    for i, (w, b) in enumerate(layers):
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise InvalidInput(f"{path}: layer {i} has weights or biases that are not finite in float32")
    with open(path, "wb") as f:
        f.write(ENCODER_MAGIC)
        for w, b in layers:
            rows, cols = w.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(w.tobytes(order="C"))
            f.write(b.tobytes())


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
        i = len(layers)
        if rows == 0 or cols == 0:
            raise CorruptFile(f"{path}: layer {i} is {rows}x{cols}")
        if layers and cols != layers[-1][0].shape[0]:
            raise CorruptFile(f"{path}: layer {i} takes {cols} inputs, layer {i - 1} emits {layers[-1][0].shape[0]}")
        need = 4 * (rows * cols + rows)
        if off + need > len(data):
            raise CorruptFile(f"{path}: truncated layer payload")
        w = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=off)
        off += 4 * rows * cols
        b = np.frombuffer(data, dtype="<f4", count=rows, offset=off)
        off += 4 * rows
        # before the cast to float64, which warns on a signalling NaN
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise CorruptFile(f"{path}: layer {i} has non-finite weights or biases")
        layers.append((w.astype(np.float64).reshape(rows, cols), b.astype(np.float64)))
    if not layers:
        raise CorruptFile(f"{path}: no layers")
    return EncoderParams(layers=tuple(layers))
