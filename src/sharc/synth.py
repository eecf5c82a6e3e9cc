"""Seeded synthetic dataset generator, and the tracklet record's whole format:
`TrackletRecord`, its body and skeleton widths, the shapes of its four arrays
(one function of (T, H, W), which the record's checks and the container reader
share) and the SHRCDAT4 container. It imports neither `gallery` nor `shape`.

Each subject gets a latent body shape, gait parameters, and an appearance
signature, all derived from (dataset seed, subject index). Frames for a
tracklet are drawn from an independent stream keyed by (seed, subject,
tracklet), so generation order does not matter and reruns are byte-identical.

Identity signal is injected into every modality: the latent shape drives the
body-model shape vector and the silhouette width profile, the gait parameters
drive joint trajectories and silhouette sway, and the appearance signature
drives the RGB texture. Clothing is an additive low-dimensional offset on the
appearance pattern plus a multiplicative perturbation of silhouette thickness,
so appearance matching degrades under clothes change while body shape mostly
survives. Noise knobs: silhouette pixel flip rate, keypoint jitter sigma
(also drives viewpoint wobble and body-parameter noise), and the clothing
shift magnitude (also scales a small per-frame texture noise).

Tracklet i of a subject wears clothing variant i mod clothing_variants, so
with tracklets_per_id <= clothing_variants no two tracklets of a subject
share an outfit and any gallery/query split is a clothes-change protocol.

A tracklet's stream holds the viewpoint yaw, then frame by frame the draws
that `_frame_draws` lists: the per-pixel ones, then the per-frame vectors.
`iter_dataset` generates consecutive tracklets as one block of at most
`encoders.CHUNK_ROWS` pixel rows (T*h*w per tracklet; a tracklet at or above
the budget is a block of its own). The per-frame vectors, (N, T, 85) body
vectors and (N, T, 51) skeletons, are computed over a leading tracklet axis
and all T frames at once. The (N, T, h, w) masks and (N, T, h, w, 3)
appearance are filled in passes of at most CHUNK_ROWS pixel rows, the
budget the encoders read them in: a block of short tracklets is one pass, a
48-frame 32x32 tracklet six passes of 8 frames. A pass mixes the stream
range of its frames, for every tracklet of the block, in one SplitMix64 call
(`prng.uniform_rows` from an offset), so the pixel temporaries beside the
records span one pass, whatever T is. A tracklet's bytes depend on neither
its block nor its passes. The block's records are yielded one at a time, so
`write_dataset` holds one block in memory. The SHRCDAT4 frame container
stores each of the four arrays as one section: the masks as one bit per
pixel, never the masked RGB, which the silhouette encoder derives from the
masks and the appearance frames.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .binfile import Reader, f32, u32
from .config import DatasetSpec
from .encoders import frame_chunks
from .exceptions import CorruptFile, EmptyInput, InvalidInput, ProtocolError
from .prng import SplitMix64, box_muller, derive_seed, normal_uniform_count, uniform_rows
from .tables import ManifestRow, check_manifest_row, read_manifest, write_manifest

DATA_MAGIC = b"SHRCDAT4"
_RETIRED_MAGICS = dict.fromkeys(
    (b"SHRCDAT1", b"SHRCDAT2", b"SHRCDAT3"), "frame containers are no longer read; re-run synth"
)

SIGNATURE_DIM = 6

SMPL_DIM = 3 + 10 + 72  # body vector: camera, shape, joint rotations

SKELETON_JOINTS = 17
# skeleton vector: x, y of each joint, then the joints' confidences
SKELETON_INPUT_DIM = SKELETON_JOINTS * 3

# (tag, record field, on-disk dtype) of the sections of a SHRCDAT4 container,
# in on-disk order; the masks' None is one bit per value (np.packbits)
_SECTIONS = ((1, "masks", None), (2, "body", "<f4"), (3, "skeleton", "<f4"), (4, "appearance", "<f4"))


def _record_shapes(t: int, h: int, w: int) -> dict[str, tuple[int, ...]]:
    """The shape of each of a record's four arrays, for T frames of H x W."""
    return {"masks": (t, h, w), "appearance": (t, h, w, 3), "body": (t, SMPL_DIM), "skeleton": (t, SKELETON_INPUT_DIM)}


@dataclass(frozen=True)
class TrackletRecord:
    """One person, one camera pass: one array per modality over its T frames.

    The skeleton row is the encoder's input order: x, y of each of the 17
    joints, then the 17 confidences. Every array is checked here, once for the
    whole tracklet; the encoders trust what a record holds.
    """

    tracklet_id: str
    subject_id: str
    clothing_id: str
    masks: np.ndarray  # (T, H, W), entries 0 or 1
    appearance: np.ndarray  # (T, H, W, 3) RGB in [0, 1]
    body: np.ndarray  # (T, 85): camera, shape, joint rotations
    skeleton: np.ndarray  # (T, 51)

    def __post_init__(self):
        if not self.tracklet_id or not self.subject_id or not self.clothing_id:
            raise InvalidInput("tracklet, subject and clothing ids must be non-empty")
        for name in ("masks", "appearance", "body", "skeleton"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        masks, app, body, skel = self.masks, self.appearance, self.body, self.skeleton
        if masks.ndim != 3:
            raise InvalidInput(f"tracklet {self.tracklet_id}: masks must be (T, H, W), got shape {masks.shape}")
        t = masks.shape[0]
        if t == 0:
            raise EmptyInput(f"tracklet {self.tracklet_id} has no frames")
        if masks.size == 0:
            raise InvalidInput(
                f"tracklet {self.tracklet_id}: frames must have at least one pixel, got {masks.shape[1]}x{masks.shape[2]}"
            )
        for name, shape in _record_shapes(*masks.shape).items():
            if getattr(self, name).shape != shape:
                raise InvalidInput(
                    f"tracklet {self.tracklet_id}: {name} must be {shape} to match {t} masks of "
                    f"{masks.shape[1]}x{masks.shape[2]}, got {getattr(self, name).shape}"
                )
        if not np.logical_and.reduce((masks == 0.0) | (masks == 1.0), None):
            raise InvalidInput(f"tracklet {self.tracklet_id}: mask entries must be 0 or 1")
        # the range check is the finiteness check too: the minimum and the
        # maximum carry a NaN, which fails both comparisons, and an infinity
        # fails one of them
        if not (np.minimum.reduce(app, None) >= 0.0 and np.maximum.reduce(app, None) <= 1.0):
            raise InvalidInput(f"tracklet {self.tracklet_id}: appearance entries must be finite and in [0, 1]")
        if not np.logical_and.reduce(np.isfinite(body), None):
            raise InvalidInput(f"tracklet {self.tracklet_id}: body parameters contain non-finite entries")
        if not np.logical_and.reduce(np.isfinite(skel), None):
            raise InvalidInput(f"tracklet {self.tracklet_id}: skeleton contains non-finite entries")
        conf = skel[:, 2 * SKELETON_JOINTS :]
        if np.minimum.reduce(conf, None) < 0.0 or np.maximum.reduce(conf, None) > 1.0:
            raise InvalidInput(f"tracklet {self.tracklet_id}: skeleton confidences must be in [0, 1]")

    def __len__(self) -> int:
        return self.masks.shape[0]


# canonical 17-joint layout (x, y), y up, unit height torso
_BASE_JOINTS = np.array(
    [
        [0.00, 0.90],  # nose
        [-0.04, 0.95],
        [0.04, 0.95],  # eyes
        [-0.10, 0.90],
        [0.10, 0.90],  # ears
        [-0.25, 0.60],
        [0.25, 0.60],  # shoulders
        [-0.33, 0.33],
        [0.33, 0.33],  # elbows
        [-0.40, 0.08],
        [0.40, 0.08],  # wrists
        [-0.15, 0.00],
        [0.15, 0.00],  # hips
        [-0.17, -0.50],
        [0.17, -0.50],  # knees
        [-0.18, -0.95],
        [0.18, -0.95],  # ankles
    ]
)
_SWING_JOINTS = np.array([7, 8, 9, 10, 13, 14, 15, 16])  # elbows, wrists, knees, ankles
_SWING_SIGN = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])


def subject_label(index: int) -> str:
    return f"s{index:03d}"


def _profile_rows(spec: DatasetSpec, subjects) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(latent shapes (10,), gait parameters (3,), appearance signatures
    (SIGNATURE_DIM,)), one row per entry of `subjects`, each from that
    subject's own stream. The gait parameters are the phase offset, the
    stride frequency and the swing amplitude."""
    u = uniform_rows([derive_seed(spec.seed, 1, s) for s in subjects], 13 + SIGNATURE_DIM)
    gait = np.stack([u[:, 10], 0.6 + (1.4 - 0.6) * u[:, 11], 0.05 + (0.15 - 0.05) * u[:, 12]], axis=1)
    return -1.0 + 2.0 * u[:, :10], gait, -1.0 + 2.0 * u[:, 13:]


def _outfit_rows(spec: DatasetSpec, outfits) -> tuple[np.ndarray, np.ndarray]:
    """(thickness multipliers, appearance offset vectors), one row per
    (subject index, variant) entry of `outfits`: a uniform in [-1, 1) scales
    the thickness, then SIGNATURE_DIM normals."""
    u = uniform_rows([derive_seed(spec.seed, 2, s, v) for s, v in outfits], 1 + normal_uniform_count(SIGNATURE_DIM))
    return 1.0 + 0.2 * (-1.0 + 2.0 * u[:, 0]), box_muller(u[:, 1:], SIGNATURE_DIM)


@functools.lru_cache(maxsize=4)
def _texture_basis(h: int, w: int) -> np.ndarray:
    """(SIGNATURE_DIM, h, w, 3) fixed sinusoidal patterns mixing space and
    channel; one read-only array per frame size, shared by every tracklet."""
    ys = np.linspace(0.0, 1.0, h)[:, None, None]
    xs = np.linspace(0.0, 1.0, w)[None, :, None]
    cs = np.arange(3)[None, None, :]
    basis = []
    for s in range(SIGNATURE_DIM):
        fy, fx = 1 + s % 3, 1 + (s // 2) % 3
        basis.append(np.sin(2 * np.pi * (fy * ys + 0.37 * s)) * np.cos(2 * np.pi * fx * xs) + 0.3 * np.sin(cs + s))
    basis = np.stack(basis)
    basis.flags.writeable = False
    return basis


def _silhouette_profile(h: int, latent: np.ndarray) -> np.ndarray:
    """Half-width per row in [0, 1] units of the grid width: head, torso, legs.

    `latent` may carry leading axes, one (h,) profile per latent shape.
    """
    rows = np.arange(h) / h
    width = np.where(rows < 0.2, 0.10, np.where(rows < 0.6, 0.22 + 0.05 * np.tanh(latent[..., 1, None]), 0.13))
    scale = 1.0 + 0.3 * np.tanh(latent[..., 0, None])
    return width * scale


# draws of a frame's stream, each (name, value count, normal)
_Draws = tuple[tuple[str, int, bool], ...]


def _frame_draws(spec: DatasetSpec) -> tuple[_Draws, _Draws]:
    """(per-pixel draws, per-frame vector draws) of one frame, each in stream
    order; a frame's stream holds its per-pixel draws, then its vector draws.

    A normal draw of n values takes `normal_uniform_count(n)` uniforms, the
    u1 half then the u2 half; the flips take one uniform per pixel. The flips
    and the appearance noise are drawn only when their knob is above 0.
    """
    hw = spec.height * spec.width
    pixel = []
    if spec.sil_flip_rate > 0.0:
        pixel.append(("flips", hw, False))
    if spec.appearance_shift > 0.0:
        pixel.append(("appearance", 3 * hw, True))
    return tuple(pixel), (("shape", 10, True), ("rotation", 72, True), ("joints", 2 * SKELETON_JOINTS, True))


def _uniform_count(draws: _Draws) -> int:
    return sum(normal_uniform_count(k) if normal else k for _, k, normal in draws)


def _take_draws(u: np.ndarray, draws: _Draws) -> dict[str, np.ndarray]:
    """name -> values of each draw, read in order off the last axis of u.
    `box_muller` runs on contiguous copies, so a value does not depend on
    the shape of u."""
    drawn, col = {}, 0
    for name, k, normal in draws:
        width = normal_uniform_count(k) if normal else k
        drawn[name] = box_muller(u[..., col : col + width], k) if normal else u[..., col : col + width]
        col += width
    return drawn


def _generate_block(spec: DatasetSpec, pairs: list[tuple[int, int]]) -> list[TrackletRecord]:
    """The records of consecutive (subject index, tracklet index) pairs, built
    as one block.

    Each tracklet's stream is the viewpoint yaw, then frame by frame the
    draws `_frame_draws` lists. The per-frame vectors (gait, body, skeleton)
    are computed once over a leading tracklet axis and all T frames. The
    per-pixel arrays, the (N, T, h, w) masks and (N, T, h, w, 3) appearance,
    are filled in passes: one frame range of the block at a time, at most
    CHUNK_ROWS pixel rows (`frame_chunks` of T over N*h*w pixels, so a block
    of short tracklets is one pass). A pass draws its frames' uniforms from
    the stream offset of its first frame and keeps their vector draws for
    the end, so its temporaries do not grow with T. `box_muller` runs on
    contiguous copies, so a tracklet's values depend on neither its block
    nor its passes. The texture product is a BLAS call and stays one per
    tracklet, whose rounding a batched product need not share.
    """
    n = len(pairs)
    t_count, h, w = spec.frames_per_tracklet, spec.height, spec.width
    subjects = [s for s, _ in pairs]
    variants = [t % spec.clothing_variants for _, t in pairs]
    # one profile row per distinct subject of the block, gathered per tracklet
    row_of = {s: i for i, s in enumerate(dict.fromkeys(subjects))}
    index = [row_of[s] for s in subjects]
    latent, gait_params, signature = (a[index] for a in _profile_rows(spec, list(row_of)))
    thickness, clothing_offset = _outfit_rows(spec, list(zip(subjects, variants)))

    seeds = [derive_seed(spec.seed, 3, s, t) for s, t in pairs]
    pixel_draws, vector_draws = _frame_draws(spec)
    pixel_width = _uniform_count(pixel_draws)
    frame_width = pixel_width + _uniform_count(vector_draws)
    yaw = spec.keypoint_jitter * (uniform_rows(seeds, 1)[:, 0] - 0.5)

    phase0, freq, amp = np.split(gait_params, 3, axis=1)
    width_mult = 1.0 - 0.2 * np.abs(np.sin(yaw))
    gait = 2.0 * np.pi * (freq * np.arange(t_count) / max(t_count, 2) + phase0)
    swing = amp * np.sin(gait)
    rows = np.arange(h) / h
    center = (0.5 * w + swing[..., None] * w * 0.5 * (1.0 - rows))[..., None]
    half_widths = (_silhouette_profile(h, latent) * thickness[:, None] * w * width_mult[:, None])[:, None, :, None]
    coeff = signature + spec.appearance_shift * clothing_offset
    basis = _texture_basis(h, w)
    pattern = np.stack([np.tensordot(c, basis, axes=1) for c in coeff])[:, None]
    modulation = (1.0 + 0.1 * np.sin(gait))[..., None, None, None]

    vector_u = np.empty((n, t_count, frame_width - pixel_width))
    for frames in frame_chunks(t_count, n * h * w):
        count = frames.stop - frames.start
        u = uniform_rows(seeds, count * frame_width, 1 + frames.start * frame_width)
        u = u.reshape(n, count, frame_width)
        vector_u[:, frames] = u[..., pixel_width:]
        drawn = _take_draws(u[..., :pixel_width], pixel_draws)
        if frames.start == 0:
            # The masks and the appearance outlive the block, so they are
            # allocated after the largest temporaries, the first pass's
            # uniforms and normals, and as one array. glibc returns the free
            # top of its heap to the system once it exceeds twice the largest
            # block it has unmapped. Allocated before the draws, they left
            # the temporaries on top, to be returned and faulted in again for
            # each block: 13.7k page faults against 9.2k in a `synth` of 600
            # 4-frame 16x16 tracklets. As two arrays they kept that threshold
            # low: 23.2k against 7.7k for 64 48-frame 32x32 tracklets.
            pixels = n * t_count * h * w
            store = np.empty(4 * pixels)
            masks = store[:pixels].reshape(n, t_count, h, w)
            appearance = store[pixels:].reshape(n, t_count, h, w, 3)

        # silhouette: column-symmetric body with gait sway, then pixel flips
        offset = np.arange(w) - center[:, frames]
        inside = np.abs(offset, out=offset) <= half_widths
        if "flips" in drawn:
            inside ^= drawn["flips"].reshape(n, count, h, w) < spec.sil_flip_rate
        masks[:, frames] = inside

        # appearance: signature texture + clothing offset, squashed into (0, 1)
        app = appearance[:, frames]
        if "appearance" in drawn:
            np.multiply(drawn["appearance"].reshape(app.shape), 0.1 * spec.appearance_shift, out=app)
            app += pattern
        else:
            app[...] = pattern
        app *= modulation[:, frames]
        np.tanh(app, out=app)
        app *= 0.5
        app += 0.5
    drawn = _take_draws(vector_u, vector_draws)

    # body model: latent shape plus gait-driven joint rotations
    cam = np.broadcast_to(np.stack([yaw, np.zeros(n), np.ones(n)], axis=1)[:, None], (n, t_count, 3))
    shape_noise = 0.1 * spec.keypoint_jitter * drawn["shape"]
    rot = np.zeros((n, t_count, 72))
    rot[..., 3:27:3] = swing[..., None] * np.sin(0.5 * np.arange(8))
    rot = rot + 0.1 * spec.keypoint_jitter * drawn["rotation"]
    body = np.concatenate([cam, latent[:, None] + shape_noise, rot], axis=2)

    # skeleton: scaled canonical joints, limbs swinging in anti-phase
    scale = 1.0 + 0.3 * np.tanh(latent[:, 0])
    joints = _BASE_JOINTS * scale[:, None, None]
    joints[..., 0] = joints[..., 0] * width_mult[:, None]
    joints = np.repeat(joints[:, None], t_count, axis=1)
    joints[..., _SWING_JOINTS, 0] += swing[..., None] * _SWING_SIGN
    noise = spec.keypoint_jitter * drawn["joints"].reshape(n, t_count, SKELETON_JOINTS, 2)
    joints = joints + noise
    conf = np.clip(1.0 - np.linalg.norm(noise, axis=3), 0.0, 1.0)
    skeleton = np.concatenate([joints.reshape(n, t_count, -1), conf], axis=2)

    return [
        TrackletRecord(
            tracklet_id=f"{subject_label(s)}_t{t:02d}",
            subject_id=subject_label(s),
            clothing_id=f"c{variant}",
            masks=masks[i],
            appearance=appearance[i],
            body=body[i],
            skeleton=skeleton[i],
        )
        for i, ((s, t), variant) in enumerate(zip(pairs, variants))
    ]


def generate_tracklet(spec: DatasetSpec, subject_index: int, tracklet_index: int) -> TrackletRecord:
    """All modality frames for one tracklet, from its own PRNG streams: a
    block of one."""
    if not 0 <= subject_index < spec.num_ids:
        raise InvalidInput(f"subject_index {subject_index} out of range [0, {spec.num_ids})")
    if not 0 <= tracklet_index < spec.tracklets_per_id:
        raise InvalidInput(f"tracklet_index {tracklet_index} out of range [0, {spec.tracklets_per_id})")
    return _generate_block(spec, [(subject_index, tracklet_index)])[0]


def iter_dataset(spec: DatasetSpec) -> Iterator[TrackletRecord]:
    """Every tracklet of every subject, subject-major order, one at a time.

    Consecutive tracklets are generated as one block of at most CHUNK_ROWS
    pixel rows, T*h*w per tracklet (`frame_chunks` packs them; a tracklet at
    or above the budget is a block of its own). A block is generated only
    when its first record is asked for, so one block is in memory at a time,
    and its pixel arrays are filled in passes of at most CHUNK_ROWS pixel
    rows, so a long tracklet's pixel temporaries span one pass.
    """
    pairs = [(s, t) for s in range(spec.num_ids) for t in range(spec.tracklets_per_id)]
    for block in frame_chunks(len(pairs), spec.frames_per_tracklet * spec.height * spec.width):
        yield from _generate_block(spec, pairs[block])


def generate_dataset(spec: DatasetSpec) -> list[TrackletRecord]:
    """Every tracklet of every subject, subject-major order."""
    return list(iter_dataset(spec))


def split_protocol(records: list, ratio: float, seed: int) -> tuple[list, list]:
    """Per-subject disjoint gallery/query split.

    `ratio` is the gallery fraction; each subject contributes
    clamp(round(ratio * k), 1, k - 1) of its k tracklets to the gallery after a
    seeded shuffle, so every query subject stays represented. Items only need
    `subject_id` and `tracklet_id` attributes (records and manifest rows both
    work).
    """
    if not 0.0 < ratio < 1.0:
        raise InvalidInput(f"ratio must be in (0, 1), got {ratio}")
    by_subject: dict[str, list] = {}
    for r in records:
        by_subject.setdefault(r.subject_id, []).append(r)
    gallery, query = [], []
    for subject in sorted(by_subject):
        items = sorted(by_subject[subject], key=lambda r: r.tracklet_id)
        k = len(items)
        if k < 2:
            raise ProtocolError(f"subject {subject} has {k} tracklet(s), need at least 2 to split")
        rng = SplitMix64(derive_seed(seed, 4, subject))
        for i in range(k - 1, 0, -1):  # Fisher-Yates
            j = int(rng.uniforms(1)[0] * (i + 1))
            items[i], items[j] = items[j], items[i]
        n_gal = min(max(int(round(ratio * k)), 1), k - 1)
        gallery.extend(items[:n_gal])
        query.extend(items[n_gal:])
    return gallery, query


# ---------------------------------------------------------------------------
# SHRCDAT4 container
# ---------------------------------------------------------------------------


def write_tracklet_frames(record: TrackletRecord, path) -> None:
    """Serialize one tracklet's frames, in the conventions of `binfile`.

    Layout: magic, u32 frame count, u32 height, u32 width, then four tagged
    sections for the whole tracklet, each a u32 tag, u32 value count, payload:
    the masks as bits (tag 1: `np.packbits`, most significant bit first,
    ceil(T*H*W / 8) bytes, the padding bits of the last byte zero), then as
    f32 the body vectors (2), the skeletons (3) and the appearance frames (4),
    frames in order within each. The masked RGB is not stored: it is the
    appearance frames times the masks, and the silhouette encoder derives it.
    A record with a value that is not finite as f32 raises InvalidInput
    before `path` is opened.
    """
    parts = [DATA_MAGIC, u32(*record.masks.shape)]
    for tag, name, dtype in _SECTIONS:
        values = getattr(record, name).reshape(-1)
        if dtype is None:
            payload = np.packbits(values.astype(np.uint8))
        else:
            payload = f32(values, f"tracklet {record.tracklet_id}: {name} entries are not finite as f32")
        parts += [u32(tag, values.size), payload]
    with open(path, "wb") as f:
        f.writelines(parts)


def read_tracklet_frames(path, tracklet_id: str, subject_id: str, clothing_id: str) -> TrackletRecord:
    """Parse a SHRCDAT4 container back into a tracklet record. A malformed
    container raises CorruptFile, and so does a set padding bit in the mask
    section, so every container read here is written back byte for byte;
    values the record refuses raise InvalidInput."""
    with open(path, "rb") as f:
        reader = Reader(f.read(), path, DATA_MAGIC, retired=_RETIRED_MAGICS)
    n_frames, h, w = reader.u32(3)
    if n_frames == 0:
        raise reader.corrupt("frame container holds no frames")
    if h == 0 or w == 0:
        raise reader.corrupt(f"frames are {h}x{w}, need at least one pixel")
    shapes = _record_shapes(n_frames, h, w)
    arrays = {}
    # a corrupt payload can hold a signalling NaN; the record refuses it as
    # non-finite, so its cast to float64 must not also print a warning
    with np.errstate(invalid="ignore"):
        for expected_tag, name, dtype in _SECTIONS:
            expected_count = math.prod(shapes[name])
            tag, count = reader.u32(2)
            if tag != expected_tag or count != expected_count:
                raise reader.corrupt(
                    f"expected section {expected_tag} with {expected_count} values, got tag {tag} with {count}"
                )
            if dtype is None:
                packed = reader.array(np.uint8, -(-count // 8))
                # the last byte's low 8 - count % 8 bits are padding (none when 8 divides count)
                if packed[-1] & (0xFF >> (count % 8 or 8)):
                    raise reader.corrupt("mask section sets a padding bit")
                values = np.unpackbits(packed, count=count)
            else:
                values = reader.array(dtype, count)
            arrays[name] = values.astype(np.float64).reshape(shapes[name])
    reader.finish()
    return TrackletRecord(tracklet_id=tracklet_id, subject_id=subject_id, clothing_id=clothing_id, **arrays)


def write_dataset(
    records: Iterable[TrackletRecord], out_dir, header_comment: str | None = None
) -> list[ManifestRow]:
    """Write frame containers plus the manifest `manifest.csv`; returns the
    manifest's rows.

    Each record's container is written as the record arrives, so an iterator
    such as `iter_dataset` keeps one block of tracklets in memory at a time.
    A container is named by its tracklet id, so a repeated id raises
    InvalidInput before the repeat can overwrite the first one's container;
    so does a row the manifest would refuse (a cell holding a comma, CR or
    LF, an id starting with `#`), before its container is written.

    frames_path entries are relative to the manifest's directory; the
    manifest starts with `header_comment`, if given, as a `#` line.
    """
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.csv")
    rows = []
    seen: set[str] = set()
    for rec in records:
        if rec.tracklet_id in seen:
            raise InvalidInput(f"{manifest_path}: tracklet {rec.tracklet_id!r} appears twice")
        seen.add(rec.tracklet_id)
        rel = os.path.join("frames", f"{rec.tracklet_id}.dat")
        row = ManifestRow(
            tracklet_id=rec.tracklet_id,
            subject_id=rec.subject_id,
            clothing_id=rec.clothing_id,
            frames_path=rel,
        )
        check_manifest_row(row, manifest_path)
        write_tracklet_frames(rec, os.path.join(out_dir, rel))
        rows.append(row)
    write_manifest(rows, manifest_path, header_comment)
    return rows


def load_dataset(manifest_path, rows: list[ManifestRow] | None = None) -> Iterator[TrackletRecord]:
    """Yield each tracklet named by a manifest, read when asked for; paths
    resolve against it. `rows` are the manifest's rows, if the caller has
    read them already."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    for row in read_manifest(manifest_path) if rows is None else rows:
        path = os.path.join(base, row.frames_path)
        # one stat for both checks, the one os.path.exists and isfile each make
        try:
            mode = os.stat(path).st_mode
        except (OSError, ValueError):
            raise CorruptFile(f"{manifest_path}: missing frame container {row.frames_path}") from None
        if not stat.S_ISREG(mode):
            raise CorruptFile(f"{manifest_path}: frame container {row.frames_path} is not a file")
        yield read_tracklet_frames(path, row.tracklet_id, row.subject_id, row.clothing_id)
