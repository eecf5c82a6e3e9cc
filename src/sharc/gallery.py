"""Tracklet ingestion, frame grouping, centroid registration, index files.

The appearance branch consumes groups of 2**pyramid_levels frames: short
tracklets are cyclically resampled up to one group, long ones are cut into
consecutive groups with the final partial group resampled from its own
members. The shape branch pools over arbitrary lengths, so it always sees the
full sequence.

Index files ("SHRCIDX1"): little-endian; 8-byte magic, u32 entry count, then
per entry a u32 byte length + UTF-8 subject id, u32 dim + f32 shape centroid,
u32 dim + f32 appearance centroid, u32 source tracklet count. Centroids are
stored in 32-bit, so save -> load -> save is byte-stable after the first
quantization.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .appearance import AppearanceEmbedding, AttentionParams, appearance_embedding, mean_embedding
from .encoders import (
    EncoderParams,
    SilhouetteInput,
    SkeletonFrame,
    SmplParams,
    encode_appearance,
)
from .exceptions import CorruptIndex, EmptyInput, InvalidInput, SubjectMismatch
from .shape import ShapeModel

INDEX_MAGIC = b"SHRCIDX1"

MANIFEST_HEADER = ["tracklet_id", "subject_id", "clothing_id", "frames_path"]


@dataclass(frozen=True)
class TrackletRecord:
    """One person, one camera pass: aligned per-modality frame sequences."""

    tracklet_id: str
    subject_id: str
    clothing_id: str
    silhouettes: list[SilhouetteInput]
    smpls: list[SmplParams]
    skeletons: list[SkeletonFrame]
    appearance: list[np.ndarray]  # (H, W, 3) RGB frames

    def __post_init__(self):
        if not self.tracklet_id or not self.subject_id or not self.clothing_id:
            raise InvalidInput("tracklet, subject and clothing ids must be non-empty")
        n = len(self.silhouettes)
        if n == 0:
            raise EmptyInput(f"tracklet {self.tracklet_id} has no frames")
        if not (len(self.smpls) == len(self.skeletons) == len(self.appearance) == n):
            raise InvalidInput(
                f"tracklet {self.tracklet_id}: modality sequences disagree on length"
            )

    def __len__(self) -> int:
        return len(self.silhouettes)


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


def build_pseudo_video(stills: list[TrackletRecord]) -> TrackletRecord:
    """Join single-frame gallery stills of one subject into one tracklet.

    Frame order follows the input order; the result carries clothing id
    "mixed" because the stills need not share an outfit.
    """
    if len(stills) == 0:
        raise EmptyInput("no stills to combine")
    subjects = {s.subject_id for s in stills}
    if len(subjects) != 1:
        raise SubjectMismatch(f"stills span multiple subjects: {sorted(subjects)}")
    return TrackletRecord(
        tracklet_id=stills[0].tracklet_id + "+pseudo",
        subject_id=stills[0].subject_id,
        clothing_id="mixed",
        silhouettes=[f for s in stills for f in s.silhouettes],
        smpls=[f for s in stills for f in s.smpls],
        skeletons=[f for s in stills for f in s.skeletons],
        appearance=[f for s in stills for f in s.appearance],
    )


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

    def embed_tracklet(self, frames: list[np.ndarray]) -> AppearanceEmbedding:
        """Encode all frames once, aggregate per pyramid-sized group, average groups."""
        encoded = [encode_appearance(f, self.encoder) for f in frames]
        parts = [
            appearance_embedding(
                [encoded[i] for i in group],
                self.attention,
                gamma=self.gamma,
                ta_target=self.ta_target,
            )
            for group in chunk_frames(len(encoded), self.attention.group_size)
        ]
        return mean_embedding(parts)

    def vector(self, emb: AppearanceEmbedding) -> np.ndarray:
        return emb.vector(
            normalize_parts=self.normalize_parts,
            use_attn=self.use_attn,
            use_avg=self.use_avg,
        )


@dataclass(frozen=True)
class IndexEntry:
    subject_id: str
    shape: np.ndarray
    appearance: np.ndarray
    source_count: int


@dataclass
class GalleryIndex:
    """Registered gallery: one entry per subject in centroid mode, one entry
    per tracklet (subject ids repeating) in per-tracklet mode."""

    entries: list[IndexEntry] = field(default_factory=list)

    def subject_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.subject_id, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.entries)


def tracklet_embeddings(
    tracklet: TrackletRecord, shape_model: ShapeModel, appearance_model: AppearanceModel
) -> tuple[np.ndarray, np.ndarray]:
    """(shape vector, appearance vector) for one tracklet."""
    shape_vec = shape_model.embed(
        tracklet.silhouettes, tracklet.smpls, tracklet.skeletons
    ).flatten()
    app_vec = appearance_model.vector(appearance_model.embed_tracklet(tracklet.appearance))
    return shape_vec, app_vec


def register(
    tracklets: list[TrackletRecord],
    shape_model: ShapeModel,
    appearance_model: AppearanceModel,
    centroid: bool = True,
) -> GalleryIndex:
    """Embed every tracklet and build the gallery index.

    Centroid mode averages each subject's tracklet embeddings into one entry;
    otherwise every tracklet becomes its own entry and matching later takes
    the best score per subject.
    """
    if len(tracklets) == 0:
        raise EmptyInput("no tracklets to register")
    # canonical order: the index (and the centroid summation order) must not
    # depend on how the caller happened to order the tracklets
    ordered = sorted(tracklets, key=lambda t: (t.subject_id, t.tracklet_id))
    embs = [tracklet_embeddings(t, shape_model, appearance_model) for t in ordered]

    if not centroid:
        entries = [
            IndexEntry(t.subject_id, shape=s, appearance=a, source_count=1)
            for t, (s, a) in zip(ordered, embs)
        ]
        return GalleryIndex(entries=entries)

    by_subject: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for t, e in zip(ordered, embs):
        by_subject.setdefault(t.subject_id, []).append(e)
    entries = []
    for subject, pairs in by_subject.items():
        shape_c = np.mean([p[0] for p in pairs], axis=0)
        app_c = np.mean([p[1] for p in pairs], axis=0)
        entries.append(
            IndexEntry(subject, shape=shape_c, appearance=app_c, source_count=len(pairs))
        )
    return GalleryIndex(entries=entries)


def save_index(index: GalleryIndex, path) -> None:
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(struct.pack("<I", len(index.entries)))
        for e in index.entries:
            raw = e.subject_id.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            for vec in (e.shape, e.appearance):
                f.write(struct.pack("<I", vec.shape[0]))
                f.write(vec.astype("<f4").tobytes())
            f.write(struct.pack("<I", e.source_count))


def load_index(path) -> GalleryIndex:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(INDEX_MAGIC) or data[: len(INDEX_MAGIC)] != INDEX_MAGIC:
        raise CorruptIndex(f"{path}: bad index magic")
    off = len(INDEX_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CorruptIndex(f"{path}: truncated index")
        chunk = data[off : off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(count):
        (id_len,) = struct.unpack("<I", take(4))
        subject = take(id_len).decode("utf-8")
        vecs = []
        for _ in range(2):
            (dim,) = struct.unpack("<I", take(4))
            vecs.append(np.frombuffer(take(4 * dim), dtype="<f4").astype(np.float64))
        (k,) = struct.unpack("<I", take(4))
        entries.append(IndexEntry(subject, shape=vecs[0], appearance=vecs[1], source_count=k))
    if off != len(data):
        raise CorruptIndex(f"{path}: {len(data) - off} trailing bytes")
    return GalleryIndex(entries=entries)


@dataclass(frozen=True)
class ManifestRow:
    tracklet_id: str
    subject_id: str
    clothing_id: str
    frames_path: str


def write_manifest(rows: list[ManifestRow], path, header_comment: str | None = None) -> None:
    with open(path, "w", newline="") as f:
        if header_comment is not None:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(MANIFEST_HEADER)
        for r in rows:
            writer.writerow([r.tracklet_id, r.subject_id, r.clothing_id, r.frames_path])


def read_manifest(path) -> list[ManifestRow]:
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        while header is not None and header and header[0].startswith("#"):
            header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise InvalidInput(f"{path}: expected header {','.join(MANIFEST_HEADER)}")
        rows = []
        for line in reader:
            if len(line) != 4:
                raise InvalidInput(f"{path}: malformed row {line!r}")
            rows.append(ManifestRow(*line))
    return rows
