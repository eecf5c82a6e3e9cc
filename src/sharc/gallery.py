"""Frame grouping, tracklet embedding, centroid registration, index files.

The tracklets embedded here are `synth.TrackletRecord`s, checked once where
they are built; this module only reads their arrays and ids, and no
per-frame object exists on the embed path.

The appearance branch consumes groups of 2**pyramid_levels frames: short
tracklets are cyclically resampled up to one group, long ones are cut into
consecutive groups with the final partial group resampled from its own
members. The shape branch pools over arbitrary lengths, so it always sees the
full sequence.

Tracklets are embedded a window at a time by one loop, `embed_windows`,
which `register` and the CLI both run. `tracklet_windows` cuts a stream of
tracklets into windows: consecutive whole tracklets of one frame size, each
window closed as soon as its pixel rows (frames times frame pixels) reach
`encoders.CHUNK_ROWS`, so a tracklet at or above that budget is a window of
its own. `encode_window` runs a window's joined frames through both
branches: `ShapeModel.encode_window` gives one `ShapeEmbedding` per
tracklet, and `AppearanceModel.window_features` runs the appearance encoder
in the same frame chunks and reduces every tracklet's pyramid-sized groups,
gathered at its frame offset, in one pyramid call and one averaging call.
`tracklet_features` finishes one tracklet's (shape embedding, groups) pair:
the flattened shape vector, refused when all zeros, and the gamma-free
(G, C) group features; `tracklet_embeddings` adds the group mean and the
scoring vectors. Without its pair, a tracklet is encoded as a window of its
own, as the one-tracklet APIs (`ShapeModel.embed`,
`AppearanceModel.group_features`, `embed_tracklet`) are, and every output
bit is the same whatever window a tracklet was encoded in.

`AppearanceModel.finish` flattens a tracklet's (G, C) averages with gamma
and then averages over the groups (flattening is nonlinear, so it comes
before the mean), to the (attn, avg) pair of C-vectors that
`AppearanceModel.vector` turns into the scoring vector; nothing before it
depends on gamma, so the gamma sweep encodes each tracklet once and
finishes it once per gamma. `register` (`embed_windows`, then
`build_index`) is the library's one-call path.

A centroid is `np.mean(vectors, axis=0)` of its subject's float64 vectors in
the canonical (subject id, tracklet id) order, bit for bit, whatever order
the caller passes the tracklets in. `build_index` stacks the vectors of all
subjects with the same tracklet count k into one (S, k, D) block and takes
`np.add.reduce(block, 1) / k`: the sum over k that `np.mean` runs, in the
same order, then its one division. (`np.add.reduceat` over one stacked
column would not do: inside a segment it sums pairwise, and at 3 or more
tracklets it differs from `np.mean` in the last bit.)

Index files ("SHRCIDX3", in the conventions of `binfile`) hold the entries
as columns: magic, the model hash as text (the hash of the config keys that
change the stored vectors, empty when unknown), u32 entry count E, u32 shape
width and u32 appearance width, the E subject ids as text, the E u32 source
tracklet counts, then the (E, shape width) f32 shape block and the (E,
appearance width) f32 appearance block, row i entry i's. Centroids are
stored in 32-bit, so save -> load -> save is byte-stable after the first
quantization. "SHRCIDX1" files, which carry no model hash, and "SHRCIDX2"
files, which interleave each entry's fields, are rejected, and so is any
file that `register` and `save_index` cannot produce: no entries, a width of
0, an empty subject id, a source count of 0 or a non-finite vector.

`_check_index` reads the sections in file order and checks each one as it
reads it, a vector block with one `isfinite`, so the fault it raises is the
first in file order. `load_index` casts each block to float64 in one call.
`save_index` stacks each column of vectors and casts it to f32 once; vectors
of differing widths, or of other than one axis, cannot be written and are
refused before the parser runs over the bytes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .appearance import AttentionParams, average_aggregate, flatten_feature, mean_embedding, pyramid_aggregate
from .binfile import Reader, f32, text, u32
from .core import l2_normalize
from .encoders import CHUNK_ROWS, EncoderParams, encode_appearance, frame_chunks
from .exceptions import CorruptIndex, EmptyInput, InvalidInput
from .shape import ShapeEmbedding, ShapeModel

if TYPE_CHECKING:
    from .synth import TrackletRecord

INDEX_MAGIC = b"SHRCIDX3"
# the vector blocks, in file order
_VECTORS = ("shape", "appearance")
_RETIRED_MAGICS = {
    b"SHRCIDX1": "index has no model hash; re-run enroll to rebuild it",
    b"SHRCIDX2": "index interleaves its entries' fields; re-run enroll to rebuild it",
}


def chunk_frames(n_frames: int, group_size: int) -> list[list[int]]:
    """Index groups of length group_size covering a tracklet of n_frames.

    Fewer than group_size frames yield one group cycling 0..n-1; otherwise
    consecutive full groups, with a final partial group resampled cyclically
    from its own remainder indices.
    """
    if n_frames <= 0:
        raise EmptyInput(f"tracklet must have at least one frame, got {n_frames}")
    if n_frames < group_size:
        return [[i % n_frames for i in range(group_size)]]
    groups = []
    for start in range(0, n_frames, group_size):
        members = list(range(start, min(start + group_size, n_frames)))
        groups.append([members[i % len(members)] for i in range(group_size)])
    return groups


@dataclass(frozen=True)
class AppearanceModel:
    """Appearance backbone + attention weights + scoring-vector options."""

    encoder: EncoderParams
    attention: AttentionParams
    gamma: float = 0.0
    ta_target: str = "later"
    normalize_parts: bool = True
    use_attn: bool = True
    use_avg: bool = True

    def window_features(self, frames: np.ndarray, lengths: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Gamma-free stage over a window of consecutive tracklets' (T, H, W, 3)
        frames, joined on the first axis, `lengths` frames each: encode the
        window one frame chunk at a time, gather every tracklet's
        pyramid-sized groups at its frame offset, and reduce all of them to
        (pyramid aggregate, spatial average) C-vectors in one call each. Per
        tracklet, its (G, C) pyramid aggregates and (G, C) spatial averages."""
        if sum(lengths) != len(frames):
            raise InvalidInput(f"tracklet lengths {lengths} do not split a window of {len(frames)} frames")
        members, bounds = [], [0]
        for start, n in zip(itertools.accumulate([0] + lengths), lengths):
            members += [[start + i for i in group] for group in chunk_frames(n, self.attention.group_size)]
            bounds.append(len(members))
        chunks = frame_chunks(len(frames), frames.shape[1] * frames.shape[2])
        encoded = [encode_appearance(frames[c], self.encoder) for c in chunks]
        groups = (encoded[0] if len(encoded) == 1 else np.concatenate(encoded))[np.array(members)]
        attn = pyramid_aggregate(groups, self.attention, ta_target=self.ta_target)
        avg = average_aggregate(groups)
        return [(attn[a:b], avg[a:b]) for a, b in zip(bounds, bounds[1:])]

    def group_features(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`window_features` of one tracklet's (T, H, W, 3) frames: its (G, C)
        pyramid aggregates and (G, C) spatial averages."""
        return self.window_features(frames, [len(frames)])[0]

    def finish(self, groups: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Flatten every group's average with this model's gamma, then average
        over the groups: the (attn, avg) pair of C-vectors."""
        attn, avg = groups
        return mean_embedding((attn, flatten_feature(avg, self.gamma)))

    def embed_tracklet(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.finish(self.group_features(frames))

    def vector(self, emb: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Scoring vector of an (attn, avg) pair: both parts concatenated, a
        disabled part zeroed so the width never changes between ablations."""
        attn, avg = emb
        if self.normalize_parts:
            attn, avg = l2_normalize(attn), l2_normalize(avg)
        if not self.use_attn:
            attn = np.zeros_like(attn)
        if not self.use_avg:
            avg = np.zeros_like(avg)
        return np.concatenate([attn, avg])


@dataclass(frozen=True)
class IndexEntry:
    subject_id: str
    shape: np.ndarray
    appearance: np.ndarray
    source_count: int


@dataclass
class GalleryIndex:
    """Registered gallery: one entry per subject in centroid mode, one entry
    per tracklet (subject ids repeating) in per-tracklet mode. model_hash names
    the model that computed the vectors ("" when unknown)."""

    entries: list[IndexEntry] = field(default_factory=list)
    model_hash: str = ""

    def __len__(self) -> int:
        return len(self.entries)


def tracklet_windows(tracklets: Iterable[TrackletRecord]) -> Iterator[list[TrackletRecord]]:
    """Cut `tracklets` into windows of consecutive whole tracklets of one
    frame size: a window is yielded as soon as its pixel rows reach
    `CHUNK_ROWS`, before a tracklet of another frame size, and at the end.
    Only where the frame size changes is a tracklet read before the window
    it follows is yielded."""
    window: list[TrackletRecord] = []
    rows = 0
    for tracklet in tracklets:
        if window and tracklet.masks.shape[1:] != window[0].masks.shape[1:]:
            yield window
            window, rows = [], 0
        window.append(tracklet)
        rows += tracklet.masks.size
        if rows >= CHUNK_ROWS:
            yield window
            window, rows = [], 0
    if window:
        yield window


def encode_window(
    tracklets: list[TrackletRecord], shape_model: ShapeModel, appearance_model: AppearanceModel
) -> list[tuple[ShapeEmbedding, tuple[np.ndarray, np.ndarray]]]:
    """Both branches over a window of consecutive tracklets of one frame
    size, their frames joined on the first axis (a window of one is not
    copied): per tracklet, in order, its shape embedding and its (G, C)
    pyramid aggregates and spatial averages."""
    if not tracklets:
        raise EmptyInput("no tracklets to encode")
    size = tracklets[0].masks.shape[1:]
    for t in tracklets:
        if t.masks.shape[1:] != size:
            raise InvalidInput(f"tracklet {t.tracklet_id}: frames of {t.masks.shape[1:]} in a window of {size}")
    lengths = [len(t) for t in tracklets]

    def joined(name):
        arrays = [getattr(t, name) for t in tracklets]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    masks, appearance, body, skeleton = map(joined, ("masks", "appearance", "body", "skeleton"))
    shapes = shape_model.encode_window(masks, appearance, body, skeleton, lengths)
    return list(zip(shapes, appearance_model.window_features(appearance, lengths)))


def embed_windows(
    tracklets: Iterable[TrackletRecord], shape_model: ShapeModel, appearance_model: AppearanceModel, finish
) -> Iterator:
    """`finish(tracklet, shape_model, appearance_model, encoding)` of each of
    `tracklets` with its `encode_window` pair, in order, read, encoded and
    finished a window at a time (`tracklet_windows`)."""
    # `window` holds the last window's records until the next one is read:
    # dropped first, their pages could be trimmed from the heap and faulted
    # in again for the next read. Nothing holds them past that read: a
    # caller looping over (record, encoding) pairs would keep the last
    # record through the next window's encoding, about 1 MB more peak RSS
    # on 48-frame 32x32 tracklets
    for window in tracklet_windows(tracklets):
        yield from [
            finish(t, shape_model, appearance_model, e)
            for t, e in zip(window, encode_window(window, shape_model, appearance_model))
        ]


def tracklet_features(
    tracklet: TrackletRecord, shape_model: ShapeModel, appearance_model: AppearanceModel, encoding: tuple | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The gamma-free work on one tracklet: (shape vector, its (G, C)
    appearance group features before flattening), finished from its
    `encode_window` pair; without one, the tracklet is encoded alone. A
    model's `vector(finish(groups))` turns the groups into its appearance
    vector. An all-zero shape vector is refused: cosine scoring is undefined
    for it, so an index holding it could not be queried."""
    if encoding is None:
        (encoding,) = encode_window([tracklet], shape_model, appearance_model)
    shape, groups = encoding
    vec = shape.flatten()
    if not np.logical_or.reduce(vec, None):
        raise InvalidInput(
            f"tracklet {tracklet.tracklet_id}: shape vector is all zeros, and cosine similarity is "
            "undefined for a zero vector"
        )
    return vec, groups


def tracklet_embeddings(
    tracklet: TrackletRecord, shape_model: ShapeModel, appearance_model: AppearanceModel, encoding: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(shape vector, appearance vector) for one tracklet: `tracklet_features`,
    then the appearance model's group mean and scoring vector."""
    shape_vec, groups = tracklet_features(tracklet, shape_model, appearance_model, encoding)
    return shape_vec, appearance_model.vector(appearance_model.finish(groups))


def build_index(
    tracklets: list,
    embeddings: list[tuple[np.ndarray, np.ndarray]],
    centroid: bool = True,
) -> GalleryIndex:
    """Gallery index from each tracklet's (shape, appearance) vectors; records
    and manifest rows both serve as tracklets.

    Centroid mode averages each subject's tracklet embeddings into one entry,
    with `np.mean`'s bits (see the module docstring); otherwise every
    tracklet becomes its own entry and matching later takes the best score
    per subject.
    """
    if len(tracklets) == 0:
        raise EmptyInput("no tracklets to register")
    if len(embeddings) != len(tracklets):
        raise InvalidInput(f"{len(embeddings)} embeddings for {len(tracklets)} tracklets")
    # canonical order: the index (and the centroid summation order) must not
    # depend on how the caller happened to order the tracklets
    order = sorted(
        range(len(tracklets)), key=lambda i: (tracklets[i].subject_id, tracklets[i].tracklet_id)
    )

    if not centroid:
        entries = [
            IndexEntry(tracklets[i].subject_id, *embeddings[i], source_count=1) for i in order
        ]
        return GalleryIndex(entries=entries)

    by_subject: dict[str, list[int]] = {}
    for i in order:
        by_subject.setdefault(tracklets[i].subject_id, []).append(i)
    # subjects with one tracklet count k (and one vector shape) are averaged
    # as one (S, k, ...) block
    blocks: dict[tuple, list[str]] = {}
    for subject, members in by_subject.items():
        shape_vec, app_vec = embeddings[members[0]]
        blocks.setdefault((len(members), np.shape(shape_vec), np.shape(app_vec)), []).append(subject)
    centroids = {}
    for (k, *_), subjects in blocks.items():
        rows = [embeddings[i] for subject in subjects for i in by_subject[subject]]
        means = []
        for column in (0, 1):
            block = np.array([row[column] for row in rows], dtype=np.float64)
            # np.mean's own sum over k, then its one division
            means.append(np.add.reduce(block.reshape((len(subjects), k) + block.shape[1:]), 1) / k)
        centroids.update(zip(subjects, zip(*means)))
    entries = [
        IndexEntry(subject, *centroids[subject], source_count=len(members))
        for subject, members in by_subject.items()
    ]
    return GalleryIndex(entries=entries)


def register(
    tracklets: list[TrackletRecord],
    shape_model: ShapeModel,
    appearance_model: AppearanceModel,
    centroid: bool = True,
) -> GalleryIndex:
    """Embed every tracklet a window at a time (`embed_windows`) and build
    the gallery index (see build_index)."""
    embeddings = list(embed_windows(tracklets, shape_model, appearance_model, tracklet_embeddings))
    return build_index(tracklets, embeddings, centroid=centroid)


def _column(entries: list[IndexEntry], name: str, path) -> np.ndarray:
    """The `name` vectors of `entries` as one (E, D) little-endian f32 block
    (a value beyond the f32 range becomes inf, which the parser refuses),
    refused as InvalidInput at the first vector that is not one axis or
    whose width differs from entry 0's."""
    vectors = [getattr(e, name) for e in entries]
    try:
        block = f32(vectors)
    except ValueError:  # vectors of differing shapes do not stack
        block = None
    if block is None or block.ndim != 2:
        for i, vec in enumerate(vectors):
            if np.ndim(vec) != 1:
                raise InvalidInput(f"{path}: entry {i} {name} vector has shape {np.shape(vec)}, need one axis")
            width = len(vectors[0])
            if len(vec) != width:
                raise InvalidInput(f"{path}: entry {i} {name} width {len(vec)} differs from entry 0's {width}")
    return block


def save_index(index: GalleryIndex, path) -> None:
    """Write `index` to `path` (layout in the module docstring). Before `path`
    is opened, the bytes are checked as `load_index` checks them, and what it
    would refuse raises InvalidInput; so do the faults that cannot reach the
    bytes, in file order: a source count outside u32, then a vector that is
    not one axis or whose width differs from entry 0's."""
    entries = index.entries
    for i, e in enumerate(entries):
        if not 0 <= e.source_count < 2**32:
            raise InvalidInput(f"{path}: entry {i} has a source count of {e.source_count}")
    blocks = [_column(entries, name, path) for name in _VECTORS]
    # with no entries each block is empty and one axis: widths 0
    header = [INDEX_MAGIC, text(index.model_hash), u32(len(entries), *(b.shape[-1] for b in blocks))]
    ids = [text(e.subject_id) for e in entries]
    data = b"".join(header + ids + [u32(*(e.source_count for e in entries))] + [b.tobytes() for b in blocks])
    try:
        _check_index(data, path)
    except CorruptIndex as exc:
        raise InvalidInput(str(exc)) from None
    with open(path, "wb") as f:
        f.write(data)


def load_index(path) -> GalleryIndex:
    with open(path, "rb") as f:
        model_hash, subjects, counts, blocks = _check_index(f.read(), path)
    # checked before the cast, which warns on a signalling NaN
    shape, appearance = (block.astype(np.float64) for block in blocks)
    return GalleryIndex(entries=list(map(IndexEntry, subjects, shape, appearance, counts)), model_hash=model_hash)


def _check_index(data: bytes, path) -> tuple[str, list[str], tuple[int, ...], list[np.ndarray]]:
    """The model hash, subject ids, source counts and (E, D) f32 shape and
    appearance blocks of the index in `data`, each section checked as it is
    read: the CorruptIndex raised is the first fault in file order."""
    reader = Reader(data, path, INDEX_MAGIC, CorruptIndex, _RETIRED_MAGICS)
    model_hash = reader.text()
    count, *widths = reader.u32(3)
    if count == 0:
        raise reader.corrupt("index has no entries")
    if 0 in widths:
        raise reader.corrupt(f"index has empty {_VECTORS[widths.index(0)]} vectors")
    subjects = []
    for i in range(count):
        subjects.append(reader.text())
        if not subjects[i]:
            raise reader.corrupt(f"entry {i} has an empty subject id")
    counts = reader.u32(count)
    if 0 in counts:
        raise reader.corrupt(f"entry {counts.index(0)} has a source count of 0")
    blocks = []
    for name, width in zip(_VECTORS, widths):
        block = reader.array("<f4", count * width)
        finite = np.isfinite(block)
        if not np.logical_and.reduce(finite, None):
            raise reader.corrupt(f"entry {int(np.argmin(finite)) // width} has a non-finite {name} vector")
        blocks.append(block.reshape(count, width))
    reader.finish()
    return model_hash, subjects, counts, blocks
