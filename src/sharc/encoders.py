"""Feature encoders over tracklet frames, with seeded, portable weights.

Each encoder is a stack of (linear map -> bias -> ReLU) blocks; grid encoders
additionally halve the spatial resolution with 2x2 average pooling after every
block. Every encoder takes one modality of any run of frames as a single
array, with frames on the first axis: (T, H, W) masks and (T, H, W, 3) RGB
frames, the (T, 85) body vectors or the (T, 51) skeletons. Grid encoders work
channels first inside, on (C, T*H*W) pixel columns, and return (T, H', W', C)
grids; vector encoders return (T, C) rows. Frames are encoded
independently, so the models feed the grid encoders a window of tracklets
(short ones packed up to CHUNK_ROWS pixel rows, a long one alone; see
`gallery`) in the slices of `frame_chunks`: at most CHUNK_ROWS pixels per
2-D product, whatever the tracklets' lengths, and a slice may hold frames
of several tracklets. The arrays are validated once,
where a `synth.TrackletRecord` is built, not here; `synth` also declares
the 85 and 51 widths of the vector inputs. Weights are drawn from
SplitMix64, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], so a (seed, widths)
pair reproduces the same parameters on any platform.

Parameter files ("SHRCENC1", in the conventions of `binfile`): magic, then per
layer u32 rows, u32 cols, rows*cols f32 weights in row-major order, rows f32
biases. Layers are read until end of file. A layer with no rows or columns,
one whose input width is not the previous layer's output width, and
non-finite weights or biases make the file corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binfile import Reader, f32, u32
from .exceptions import DimMismatch, EmptyInput, InvalidInput
from .prng import SplitMix64

ENCODER_MAGIC = b"SHRCENC1"

# pixels per 2-D product when a window of tracklets is encoded in frame
# chunks: 8 frames of 32x32, a 512 KB layer-1 product at 8 hidden channels. A
# product over a whole 48-frame tracklet is 3.1 MB, and its fresh pages fault
# in again for every tracklet. It is also the budget of a window: consecutive
# tracklets of one frame size are packed until their pixels reach it (eight
# 4-frame 16x16 tracklets), so each encoder and pyramid call serves them all.
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


def _grid_forward(grids: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Per-pixel linear blocks with ReLU over (T, H, W, C) grids, each followed
    by 2x2 average pooling.

    Inside, the pixels are held channels first, (C, T*H*W): each layer is one
    2-D product w @ x, and the bias, the ReLU and the pooling run in place
    over contiguous rows. Every output cell is one dot product over the
    layer's input channels, the same bits as the pixels-first x @ w.T it
    replaced, under OpenBLAS's SkylakeX, Haswell and Sandybridge kernels, and
    they do not depend on how BLAS splits the columns between threads; a
    one-channel layer keeps the pixels-first product, whose matrix-vector
    kernel sums in another order than that of w @ x. Each pool sums its
    window as ((top-left + top-right) + bottom-left) + bottom-right. One
    transpose at the end returns (T, H', W', C') grids.
    """
    if grids.ndim != 4:
        raise InvalidInput(f"grids must be (T, H, W, C), got shape {grids.shape}")
    t, h, wd, c = grids.shape
    # a view when the grids come channels first, as encode_silhouette's do
    x = np.ascontiguousarray(grids.reshape(-1, c).T)
    for w, b in params.layers:
        if x.shape[0] != w.shape[1]:
            raise DimMismatch(f"grid has {x.shape[0]} channels, layer expects {w.shape[1]}")
        if h % 2 != 0 or wd % 2 != 0:
            raise DimMismatch(f"2x2 pooling needs even spatial dims, got {h}x{wd}")
        if w.shape[0] == 1:
            # numpy sends a one-row w @ x to another matrix-vector kernel than
            # the per-pixel x @ w.T, one that sums in another order
            y = (x.T.copy() @ w.T).T
        else:
            y = w @ x
        y += b[:, None]
        np.maximum(y, 0.0, out=y)
        h, wd = h // 2, wd // 2
        window = y.reshape(-1, h, 2, wd, 2)
        x = window[:, :, 0, :, 0] + window[:, :, 0, :, 1]
        x += window[:, :, 1, :, 0]
        x += window[:, :, 1, :, 1]
        x *= 0.25
        x = x.reshape(w.shape[0], -1)
    return np.ascontiguousarray(x.reshape(x.shape[0], t, h, wd).transpose(1, 2, 3, 0))


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
    """Consecutive slices covering n_frames, each of at most CHUNK_ROWS
    pixels; a frame larger than the budget gets a slice of its own."""
    step = max(1, CHUNK_ROWS // frame_pixels)
    return [slice(start, min(start + step, n_frames)) for start in range(0, n_frames, step)]


def encode_silhouette(masks: np.ndarray, appearance: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode (T, H, W) masks over their (T, H, W, 3) RGB frames into
    (T, H', W', C) feature grids.

    Each pixel's input is its mask value followed by its RGB times the mask,
    so the encoder sees no colour outside the silhouette. Both are written
    straight into the channels-first (4, T*H*W) input of the first layer.
    """
    t, h, w = masks.shape
    x = np.empty((4, t * h * w))
    x[0] = masks.reshape(-1)
    np.multiply(appearance.reshape(-1, 3).T, x[0], out=x[1:])
    return _grid_forward(x.T.reshape(t, h, w, 4), params)


def encode_smpl(body: np.ndarray, params: EncoderParams) -> np.ndarray:
    """Encode (T, 85) body vectors into a (T, C) matrix, one row per frame.

    The shape branch fuses each row with every cell of its frame's silhouette
    grid through a broadcast view, so no (T, h, w, C) copy is made."""
    return _vector_forward(body, params)


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
    parts = [ENCODER_MAGIC]
    for i, (w, b) in enumerate(params.layers):
        message = f"{path}: layer {i} has weights or biases that are not finite in float32"
        parts += [u32(*w.shape), f32(w, message).tobytes(), f32(b, message).tobytes()]
    with open(path, "wb") as f:
        f.writelines(parts)


def load_encoder(path) -> EncoderParams:
    with open(path, "rb") as f:
        reader = Reader(f.read(), path, ENCODER_MAGIC)
    layers = []
    while reader.offset < len(reader.data):
        i = len(layers)
        rows, cols = reader.u32(2)
        if rows == 0 or cols == 0:
            raise reader.corrupt(f"layer {i} is {rows}x{cols}")
        if layers and cols != layers[-1][0].shape[0]:
            raise reader.corrupt(f"layer {i} takes {cols} inputs, layer {i - 1} emits {layers[-1][0].shape[0]}")
        message = f"layer {i} has non-finite weights or biases"
        layers.append((reader.f32(rows * cols, message).reshape(rows, cols), reader.f32(rows, message)))
    if not layers:
        raise reader.corrupt("no layers")
    return EncoderParams(layers=tuple(layers))
