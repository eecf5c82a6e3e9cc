"""Frame grouping, tracklet embedding, centroid registration, index files.

The tracklets embedded here are `synth.TrackletRecord`s, checked once where
they are built; this module only reads their arrays and ids, and no
per-frame object exists on the embed path.

The appearance branch consumes groups of 2**pyramid_levels frames: short
tracklets are cyclically resampled up to one group, long ones are cut into
consecutive groups with the final partial group resampled from its own
members. The shape branch pools over arbitrary lengths, so it always sees the
full sequence.

The appearance branch runs in two stages. `AppearanceModel.group_features`
encodes the frames of a tracklet chunk by chunk (`encoders.frame_chunks`),
joins the small encoded grids, gathers its G groups into one
(G, 2**pyramid_levels, h, w, C) array and reduces them to (G, C) pyramid
aggregates and (G, C) spatial averages; nothing in it depends on gamma.
`AppearanceModel.finish` flattens the averages with gamma and then averages
over the groups (flattening is nonlinear, so it comes before the mean), to
the (attn, avg) pair of C-vectors that `AppearanceModel.vector` turns into
the scoring vector. `embed_tracklet` is the two stages in a row; the gamma
sweep runs the first stage once per tracklet and the second once per gamma.
`register` (embedding, then `build_index`) is the library's one-call path;
the CLI embeds each tracklet as it reads it and calls `build_index`.

Index files ("SHRCIDX2", in the conventions of `binfile`): magic, the model
hash as text (the hash of the config keys that change the stored vectors,
empty when unknown), u32 entry count, then per entry the subject id as text,
u32 dim + f32 shape centroid, u32 dim + f32 appearance centroid, u32 source
tracklet count. Centroids are stored in 32-bit, so save -> load -> save is
byte-stable after the first quantization. "SHRCIDX1" files, which carry no
model hash, are rejected, and so is any file that `register` and
`save_index` cannot produce: no entries, an empty subject id, an empty or
non-finite vector, widths that differ between entries, or a source count of 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .appearance import AttentionParams, average_aggregate, flatten_feature, mean_embedding, pyramid_aggregate
from .binfile import Reader, f32, text, u32
from .core import l2_normalize
from .encoders import EncoderParams, encode_appearance, frame_chunks
from .exceptions import CorruptIndex, EmptyInput, InvalidInput
from .shape import ShapeModel

if TYPE_CHECKING:
    from .synth import TrackletRecord

INDEX_MAGIC = b"SHRCIDX2"
_RETIRED_MAGICS = {b"SHRCIDX1": "index has no model hash; re-run enroll to rebuild it"}


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

    def group_features(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gamma-free stage: encode the (T, H, W, 3) frames one frame chunk at
        a time, then the (G, C) pyramid aggregates and (G, C) spatial averages
        of the G pyramid-sized groups, all groups in one call each."""
        members = np.array(chunk_frames(len(frames), self.attention.group_size))
        chunks = frame_chunks(len(frames), frames.shape[1] * frames.shape[2])
        encoded = [encode_appearance(frames[c], self.encoder) for c in chunks]
        groups = (encoded[0] if len(encoded) == 1 else np.concatenate(encoded))[members]
        return pyramid_aggregate(groups, self.attention, ta_target=self.ta_target), average_aggregate(groups)

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


def _shape_vector(tracklet: TrackletRecord, shape_model: ShapeModel) -> np.ndarray:
    """The shape vector of one tracklet, refused when it is all zeros: cosine
    scoring is undefined for it, so an index holding it could not be queried."""
    vec = shape_model.embed(tracklet.masks, tracklet.appearance, tracklet.body, tracklet.skeleton).flatten()
    if not vec.any():
        raise InvalidInput(
            f"tracklet {tracklet.tracklet_id}: shape vector is all zeros, and cosine similarity is "
            "undefined for a zero vector"
        )
    return vec


def tracklet_embeddings(
    tracklet: TrackletRecord, shape_model: ShapeModel, appearance_model: AppearanceModel
) -> tuple[np.ndarray, np.ndarray]:
    """(shape vector, appearance vector) for one tracklet."""
    shape_vec = _shape_vector(tracklet, shape_model)
    app_vec = appearance_model.vector(appearance_model.embed_tracklet(tracklet.appearance))
    return shape_vec, app_vec


def tracklet_features(
    tracklet: TrackletRecord, shape_model: ShapeModel, appearance_model: AppearanceModel
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The gamma-free work on one tracklet: (shape vector, its (G, C)
    appearance group features before flattening). A model's
    `vector(finish(groups))` turns the groups into its appearance vector."""
    return _shape_vector(tracklet, shape_model), appearance_model.group_features(tracklet.appearance)


def build_index(
    tracklets: list,
    embeddings: list[tuple[np.ndarray, np.ndarray]],
    centroid: bool = True,
) -> GalleryIndex:
    """Gallery index from each tracklet's (shape, appearance) vectors; records
    and manifest rows both serve as tracklets.

    Centroid mode averages each subject's tracklet embeddings into one entry;
    otherwise every tracklet becomes its own entry and matching later takes
    the best score per subject.
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

    by_subject: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for i in order:
        by_subject.setdefault(tracklets[i].subject_id, []).append(embeddings[i])
    entries = []
    for subject, pairs in by_subject.items():
        shape_c = np.mean([p[0] for p in pairs], axis=0)
        app_c = np.mean([p[1] for p in pairs], axis=0)
        entries.append(
            IndexEntry(subject, shape=shape_c, appearance=app_c, source_count=len(pairs))
        )
    return GalleryIndex(entries=entries)


def register(
    tracklets: list[TrackletRecord],
    shape_model: ShapeModel,
    appearance_model: AppearanceModel,
    centroid: bool = True,
) -> GalleryIndex:
    """Embed every tracklet and build the gallery index (see build_index)."""
    embeddings = [tracklet_embeddings(t, shape_model, appearance_model) for t in tracklets]
    return build_index(tracklets, embeddings, centroid=centroid)


def save_index(index: GalleryIndex, path) -> None:
    """Write `index` to `path` (layout in the module docstring). Before `path`
    is opened, the bytes are parsed as `load_index` parses them, and what it
    would refuse raises InvalidInput; so do the two faults that cannot reach
    the bytes, a vector that is not one axis and a source count outside u32."""
    parts = [INDEX_MAGIC, text(index.model_hash), u32(len(index.entries))]
    for i, e in enumerate(index.entries):
        parts.append(text(e.subject_id))
        for name in ("shape", "appearance"):
            # a value beyond the f32 range becomes inf here, which the parser refuses
            vec = f32(getattr(e, name))
            if vec.ndim != 1:
                raise InvalidInput(f"{path}: entry {i} {name} vector has shape {vec.shape}, need one axis")
            parts += [u32(len(vec)), vec.tobytes()]
        if not 0 <= e.source_count < 2**32:
            raise InvalidInput(f"{path}: entry {i} has a source count of {e.source_count}")
        parts.append(u32(e.source_count))
    data = b"".join(parts)
    try:
        _parse_index(data, path)
    except CorruptIndex as exc:
        raise InvalidInput(str(exc)) from None
    with open(path, "wb") as f:
        f.write(data)


def load_index(path) -> GalleryIndex:
    with open(path, "rb") as f:
        return _parse_index(f.read(), path)


def _parse_index(data: bytes, path) -> GalleryIndex:
    reader = Reader(data, path, INDEX_MAGIC, CorruptIndex, _RETIRED_MAGICS)
    model_hash = reader.text()
    (count,) = reader.u32()
    if count == 0:
        raise reader.corrupt("index has no entries")
    entries = []
    for i in range(count):
        subject = reader.text()
        if not subject:
            raise reader.corrupt(f"entry {i} has an empty subject id")
        vecs = []
        for name in ("shape", "appearance"):
            (dim,) = reader.u32()
            message = f"entry {i} has an empty or non-finite {name} vector"
            vecs.append(reader.f32(dim, message))
            if dim == 0:
                raise reader.corrupt(message)
            width = len(getattr(entries[0], name)) if entries else dim
            if dim != width:
                raise reader.corrupt(f"entry {i} {name} width {dim} differs from entry 0's {width}")
        (k,) = reader.u32()
        if k == 0:
            raise reader.corrupt(f"entry {i} has a source count of 0")
        entries.append(IndexEntry(subject, shape=vecs[0], appearance=vecs[1], source_count=k))
    reader.finish()
    return GalleryIndex(entries=entries, model_hash=model_hash)
