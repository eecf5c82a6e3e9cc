import itertools
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Iterator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sharc
import sharc.synth
from sharc.config import MAX_KEYPOINT_JITTER
from sharc.exceptions import CorruptFile, InvalidInput, ProtocolError
from sharc.encoders import CHUNK_ROWS
from sharc.prng import SplitMix64, derive_seed
from sharc.synth import (
    _BASE_JOINTS,
    _SWING_JOINTS,
    _SWING_SIGN,
    SIGNATURE_DIM,
    SKELETON_JOINTS,
    DatasetSpec,
    TrackletRecord,
    _profile_rows,
    _silhouette_profile,
    _texture_basis,
    generate_dataset,
    generate_tracklet,
    iter_dataset,
    load_dataset,
    read_tracklet_frames,
    split_protocol,
    subject_label,
    write_dataset,
    write_tracklet_frames,
)
from sharc.tables import ManifestRow, read_manifest


def _spec(**kw):
    base = dict(
        num_ids=3,
        tracklets_per_id=2,
        frames_per_tracklet=5,
        clothing_variants=2,
        sil_flip_rate=0.1,
        keypoint_jitter=0.2,
        appearance_shift=0.5,
        seed=42,
        height=12,
        width=10,
    )
    base.update(kw)
    return DatasetSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidInput):
            _spec(num_ids=0)
        with pytest.raises(InvalidInput):
            _spec(sil_flip_rate=1.5)
        with pytest.raises(InvalidInput):
            _spec(keypoint_jitter=-0.1)
        with pytest.raises(InvalidInput):
            _spec(height=3)
        for shift in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidInput, match="appearance_shift"):
                _spec(appearance_shift=shift)

    def test_keypoint_jitter_that_could_overflow_float32_is_rejected(self):
        _spec(keypoint_jitter=MAX_KEYPOINT_JITTER)
        for jitter in (MAX_KEYPOINT_JITTER * 1.001, 1e200, float("inf"), float("nan")):
            with pytest.raises(InvalidInput, match="keypoint_jitter"):
                _spec(keypoint_jitter=jitter)

    def test_subject_labels(self):
        assert subject_label(0) == "s000"
        assert subject_label(41) == "s041"


class TestGeneration:
    def test_fully_deterministic(self):
        a = generate_dataset(_spec())
        b = generate_dataset(_spec())
        assert [r.tracklet_id for r in a] == [r.tracklet_id for r in b]
        for ra, rb in zip(a, b):
            for name in ("masks", "appearance", "body", "skeleton"):
                np.testing.assert_array_equal(getattr(ra, name), getattr(rb, name))

    def test_generation_order_does_not_matter(self):
        spec = _spec()
        late = generate_tracklet(spec, 2, 1)
        again = generate_tracklet(spec, 2, 1)
        np.testing.assert_array_equal(late.masks[0], again.masks[0])

    def test_modality_invariants(self):
        spec = _spec()
        for rec in generate_dataset(spec):
            t = spec.frames_per_tracklet
            assert len(rec) == t
            assert rec.masks.shape == (t, spec.height, spec.width)
            assert set(np.unique(rec.masks)) <= {0.0, 1.0}
            assert rec.appearance.shape == (t, spec.height, spec.width, 3)
            assert np.all(rec.appearance >= 0.0) and np.all(rec.appearance <= 1.0)
            assert rec.body.shape == (t, 85)
            assert rec.skeleton.shape == (t, 51)
            conf = rec.skeleton[:, 34:]
            assert np.all((conf >= 0.0) & (conf <= 1.0))

    def test_identity_profiles_differ_between_subjects(self):
        spec = _spec()
        (latent0, _, signature0), (latent1, _, signature1) = _profile_rows(spec, [0]), _profile_rows(spec, [1])
        assert subject_label(0) != subject_label(1)
        assert not np.array_equal(latent0, latent1)
        assert not np.array_equal(signature0, signature1)

    def test_clothing_assignment_cycles_over_variants(self):
        spec = _spec(tracklets_per_id=4, clothing_variants=2, frames_per_tracklet=2)
        recs = [r for r in generate_dataset(spec) if r.subject_id == "s000"]
        assert [r.clothing_id for r in recs] == ["c0", "c1", "c0", "c1"]

    def test_clothes_change_alters_appearance_not_skeleton_scale(self):
        spec = _spec(tracklets_per_id=2, clothing_variants=2, sil_flip_rate=0.0,
                     keypoint_jitter=0.0, appearance_shift=1.0)
        a, b = generate_dataset(spec)[:2]
        assert a.subject_id == b.subject_id and a.clothing_id != b.clothing_id
        assert not np.array_equal(a.appearance[0], b.appearance[0])
        np.testing.assert_array_equal(a.skeleton[0, :34], b.skeleton[0, :34])

    def test_zero_noise_single_outfit_repeats_exactly(self):
        spec = _spec(clothing_variants=1, sil_flip_rate=0.0, keypoint_jitter=0.0,
                     appearance_shift=0.0)
        a, b = generate_dataset(spec)[:2]
        assert a.subject_id == b.subject_id
        np.testing.assert_array_equal(a.masks, b.masks)
        np.testing.assert_array_equal(a.appearance, b.appearance)
        np.testing.assert_array_equal(a.body, b.body)

    def test_index_bounds(self):
        spec = _spec()
        with pytest.raises(InvalidInput):
            generate_tracklet(spec, spec.num_ids, 0)
        with pytest.raises(InvalidInput):
            generate_tracklet(spec, 0, spec.tracklets_per_id)


def _normals(rng: SplitMix64, n: int) -> np.ndarray:
    """Box-Muller as one scalar-stream call: the u1 half, then the u2 half."""
    m = (n + 1) // 2
    u1 = np.maximum(rng.uniforms(m), 2.0**-53)
    u2 = rng.uniforms(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def _reference_tracklet(spec: DatasetSpec, subject_index: int, tracklet_index: int):
    """Reference generator: one draw per field and per frame, frames stacked.

    Returns (latent, gait params, signature) and the masks, appearance, body
    and skeleton arrays.
    """
    rng = SplitMix64(derive_seed(spec.seed, 1, subject_index))
    latent = rng.uniform_array(-1.0, 1.0, (10,))
    phase0 = rng.uniform_array(0.0, 1.0, (1,))[0]
    freq = rng.uniform_array(0.6, 1.4, (1,))[0]
    amp = rng.uniform_array(0.05, 0.15, (1,))[0]
    signature = rng.uniform_array(-1.0, 1.0, (SIGNATURE_DIM,))
    profile = (latent, np.array([phase0, freq, amp]), signature)

    rng = SplitMix64(derive_seed(spec.seed, 2, subject_index, tracklet_index % spec.clothing_variants))
    thickness = 1.0 + 0.2 * rng.uniform_array(-1.0, 1.0, (1,))[0]
    clothing_offset = _normals(rng, SIGNATURE_DIM)
    rng = SplitMix64(derive_seed(spec.seed, 3, subject_index, tracklet_index))
    h, w = spec.height, spec.width
    basis = _texture_basis(h, w)
    half_width = _silhouette_profile(h, latent) * thickness
    yaw = spec.keypoint_jitter * rng.uniform_array(-0.5, 0.5, (1,))[0]
    width_mult = 1.0 - 0.2 * abs(np.sin(yaw))

    masks, apps, bodies, skels = [], [], [], []
    t_count = spec.frames_per_tracklet
    for t in range(t_count):
        gait = 2.0 * np.pi * (freq * t / max(t_count, 2) + phase0)
        swing = amp * np.sin(gait)

        rows = np.arange(h) / h
        center = 0.5 * w + swing * w * 0.5 * (1.0 - rows)
        widths = half_width * w * width_mult
        xs = np.arange(w)[None, :]
        mask = (np.abs(xs - center[:, None]) <= widths[:, None]).astype(np.float64)
        if spec.sil_flip_rate > 0.0:
            flips = rng.uniform_array(0.0, 1.0, (h, w)) < spec.sil_flip_rate
            mask = np.where(flips, 1.0 - mask, mask)

        coeff = signature + spec.appearance_shift * clothing_offset
        pattern = np.tensordot(coeff, basis, axes=1)
        if spec.appearance_shift > 0.0:
            pattern = pattern + 0.1 * spec.appearance_shift * _normals(rng, h * w * 3).reshape(h, w, 3)
        modulation = 1.0 + 0.1 * np.sin(gait)
        masks.append(mask)
        apps.append(0.5 + 0.5 * np.tanh(pattern * modulation))

        cam = np.array([yaw, 0.0, 1.0])
        shape_noise = 0.1 * spec.keypoint_jitter * _normals(rng, 10)
        rot = np.zeros(72)
        rot[3:27:3] = swing * np.sin(0.5 * np.arange(8))
        rot = rot + 0.1 * spec.keypoint_jitter * _normals(rng, 72)
        bodies.append(np.concatenate([cam, latent + shape_noise, rot]))

        scale = 1.0 + 0.3 * np.tanh(latent[0])
        joints = _BASE_JOINTS * scale
        joints[:, 0] = joints[:, 0] * width_mult
        joints[_SWING_JOINTS, 0] += swing * _SWING_SIGN
        noise = spec.keypoint_jitter * _normals(rng, SKELETON_JOINTS * 2).reshape(SKELETON_JOINTS, 2)
        joints = joints + noise
        conf = np.clip(1.0 - np.linalg.norm(noise, axis=1), 0.0, 1.0)
        skels.append(np.concatenate([joints.reshape(-1), conf]))
    return profile, tuple(np.stack(a) for a in (masks, apps, bodies, skels))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 5x7 frames hold 105 RGB values, an odd count of appearance normals
@pytest.mark.parametrize("seed", [1, 20231015])
@pytest.mark.parametrize("frames", [1, 4])
@pytest.mark.parametrize(
    "flip, jitter, shift", list(itertools.product((0.0, 0.1), (0.0, 0.2), (0.0, 0.5)))
)
def test_tracklets_are_byte_equal_to_the_per_frame_reference(seed, frames, flip, jitter, shift):
    spec = _spec(num_ids=2, tracklets_per_id=3, frames_per_tracklet=frames, clothing_variants=2,
                 sil_flip_rate=flip, keypoint_jitter=jitter, appearance_shift=shift, seed=seed,
                 height=5, width=7)
    for s, t in itertools.product(range(spec.num_ids), range(spec.tracklets_per_id)):
        profile, arrays = _reference_tracklet(spec, s, t)
        for want, have in zip(profile, _profile_rows(spec, [s])):
            assert _same_bytes(want, have[0])
        rec = generate_tracklet(spec, s, t)
        for name, want in zip(("masks", "appearance", "body", "skeleton"), arrays):
            assert _same_bytes(getattr(rec, name), want), (s, t, name)


# (frames, height, width, subjects x tracklets, expected block sizes) under
# CHUNK_ROWS = 8192 pixel rows: three 2x32x40 tracklets (7,680 rows) fill a
# block, so eight end in a partial block of two; 9x32x32 tracklets (9,216
# rows) are each above the budget, and fill their arrays in passes of 8 and 1
# frames, 20x24x40 ones in passes of 8, 8 and 4 and 17x32x32 ones in 8, 8
# and 1; T = 1; and 5x7 frames hold 105 RGB values, an odd count of
# appearance normals, five tracklets of 40 frames to a block
_BLOCK_CASES = {
    "partial last block": (2, 32, 40, (4, 2), [3, 3, 2]),
    "each above the budget": (9, 32, 32, (2, 2), [1, 1, 1, 1]),
    "passes of 8, 8 and 4": (20, 24, 40, (2, 2), [1, 1, 1, 1]),
    "passes of 8, 8 and 1": (17, 32, 32, (2, 1), [1, 1]),
    "one frame": (1, 16, 16, (3, 3), [9]),
    "odd normal count": (40, 5, 7, (4, 3), [5, 5, 2]),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_blocks_are_byte_equal_to_the_per_frame_reference(case, monkeypatch):
    frames, height, width, (ids, per_id), sizes = _BLOCK_CASES[case]
    assert frames * height * width * sizes[0] <= max(CHUNK_ROWS, frames * height * width)
    spec = _spec(num_ids=ids, tracklets_per_id=per_id, frames_per_tracklet=frames, clothing_variants=2,
                 sil_flip_rate=0.1, keypoint_jitter=0.2, appearance_shift=0.5, seed=20231015,
                 height=height, width=width)
    blocks = []
    generate_block = sharc.synth._generate_block

    def logged(spec, pairs):
        blocks.append(len(pairs))
        return generate_block(spec, pairs)

    monkeypatch.setattr(sharc.synth, "_generate_block", logged)
    records = list(iter_dataset(spec))
    assert blocks == sizes
    pairs = list(itertools.product(range(ids), range(per_id)))
    assert [r.tracklet_id for r in records] == [f"{subject_label(s)}_t{t:02d}" for s, t in pairs]
    for rec, (s, t) in zip(records, pairs):
        _, arrays = _reference_tracklet(spec, s, t)
        for name, want in zip(("masks", "appearance", "body", "skeleton"), arrays):
            assert _same_bytes(getattr(rec, name), want), (s, t, name)


def test_a_block_draws_each_subject_profile_once(monkeypatch):
    # a subject's tracklets share its profile row: the block derives the
    # subject's stream once and gathers the row for each tracklet
    spec = _spec(num_ids=3, tracklets_per_id=3, frames_per_tracklet=2, height=4, width=4)
    drawn = []
    profile_rows = sharc.synth._profile_rows

    def logged(spec, subjects):
        drawn.append(list(subjects))
        return profile_rows(spec, subjects)

    monkeypatch.setattr(sharc.synth, "_profile_rows", logged)
    records = generate_dataset(spec)
    assert drawn == [[0, 1, 2]]
    for rec in records:
        s = int(rec.subject_id[1:])
        alone = generate_tracklet(spec, s, int(rec.tracklet_id[-2:]))
        for name in ("masks", "appearance", "body", "skeleton"):
            assert _same_bytes(getattr(rec, name), getattr(alone, name)), (rec.tracklet_id, name)


def test_a_long_tracklet_is_generated_in_a_bounded_working_set():
    # the pixel arrays are filled one pass of at most CHUNK_ROWS pixel rows at
    # a time, so beyond the record's own bytes the memory a tracklet needs
    # stops growing with its length; only the per-frame vectors (116
    # uniforms a frame) and the record's checks scale with T
    extra = {}
    for frames in (48, 96):
        spec = _spec(num_ids=1, frames_per_tracklet=frames, height=32, width=32, sil_flip_rate=0.05,
                     keypoint_jitter=0.05, appearance_shift=0.3, seed=1)
        generate_tracklet(spec, 0, 0)  # the texture basis is cached on first use
        tracemalloc.start()
        try:
            rec = generate_tracklet(spec, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra[frames] = peak - sum(getattr(rec, name).nbytes for name in ("masks", "appearance", "body", "skeleton"))
    assert abs(extra[96] - extra[48]) <= 128 * 1024, extra


def test_iter_dataset_generates_at_most_one_block_ahead(monkeypatch):
    spec = _spec(num_ids=4, tracklets_per_id=2, frames_per_tracklet=2, height=32, width=40)
    calls = []
    generate_block = sharc.synth._generate_block

    def counted(spec, pairs):
        calls.append(len(pairs))
        return generate_block(spec, pairs)

    monkeypatch.setattr(sharc.synth, "_generate_block", counted)
    yielded = 0
    for _ in iter_dataset(spec):
        yielded += 1
        # the block holding the record just yielded is the last one generated
        assert sum(calls[:-1]) < yielded <= sum(calls)
    assert calls == [3, 3, 2]


_SYNTH_SCRIPT = "import sys; from sharc.cli import main; sys.exit(main(sys.argv[1:]))"


def test_frames_do_not_depend_on_the_simd_level(tmp_path):
    # 3x16x16 tracklets pack ten to a block, so the twelve here make a full
    # and a partial block; numpy's AVX2 loops replace its AVX-512 ones where
    # the CPU has them, and the variable has no effect where it does not
    cfg = tmp_path / "packed.cfg"
    cfg.write_text("\n".join([
        "[dataset]", "num_ids = 6", "tracklets_per_id = 2", "frames_per_tracklet = 3",
        "clothing_variants = 2", "height = 16", "width = 16", "sil_flip_rate = 0.05",
        "keypoint_jitter = 0.05", "appearance_shift = 0.3", "[paths]", f"data_dir = {tmp_path / 'data'}", "",
    ]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sharc.__file__)))
    outs = []
    for features in ("", "X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        out = tmp_path / f"disabled-{len(outs)}"
        subprocess.run([sys.executable, "-c", _SYNTH_SCRIPT, "synth", "--config", str(cfg), "--out", str(out)],
                       env=env, capture_output=True, text=True, timeout=120, check=True)
        outs.append(out / "frames-0.shrc")
    raw = outs[0].read_bytes()
    # the trailer's record count: one container holds all twelve tracklets
    assert struct.unpack_from("<I", raw, len(raw) - 8) == (12,)
    assert raw == outs[1].read_bytes()


class TestSplitProtocol:
    def test_disjoint_covering_split(self):
        recs = generate_dataset(_spec(num_ids=4, tracklets_per_id=3))
        gal, qry = split_protocol(recs, ratio=0.5, seed=7)
        gal_ids = {r.tracklet_id for r in gal}
        qry_ids = {r.tracklet_id for r in qry}
        assert gal_ids.isdisjoint(qry_ids)
        assert gal_ids | qry_ids == {r.tracklet_id for r in recs}
        # both sides cover every subject
        assert {r.subject_id for r in gal} == {r.subject_id for r in recs}
        assert {r.subject_id for r in qry} == {r.subject_id for r in recs}

    def test_split_is_deterministic_and_seed_sensitive(self):
        recs = generate_dataset(_spec(num_ids=5, tracklets_per_id=4))
        a = split_protocol(recs, 0.5, seed=7)
        b = split_protocol(recs, 0.5, seed=7)
        assert [r.tracklet_id for r in a[0]] == [r.tracklet_id for r in b[0]]
        seeds = {tuple(r.tracklet_id for r in split_protocol(recs, 0.5, seed=s)[0]) for s in range(8)}
        assert len(seeds) > 1

    def test_ratio_extremes_keep_both_sides_nonempty(self):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=3))
        for ratio in (0.01, 0.99):
            gal, qry = split_protocol(recs, ratio, seed=1)
            assert len(gal) >= 2 and len(qry) >= 2

    def test_bad_inputs(self):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=1))
        with pytest.raises(ProtocolError):
            split_protocol(recs, 0.5, seed=1)
        with pytest.raises(InvalidInput):
            split_protocol(recs, 0.0, seed=1)
        with pytest.raises(InvalidInput):
            split_protocol(recs, 1.0, seed=1)


def _record_bytes(rec: TrackletRecord, tmp_path) -> bytes:
    """The bytes of `rec`'s record: a one-record container less its magic,
    table of contents and trailer."""
    p = tmp_path / "one.shrc"
    write_tracklet_frames([rec], p)
    raw = p.read_bytes()
    (toc_size,) = struct.unpack_from("<I", raw, len(raw) - 4)
    return raw[8 : len(raw) - 8 - toc_size]


def _container(*records: tuple[str | bytes, bytes], lengths: list[int] | None = None) -> bytes:
    """A container of (tracklet id, record bytes) pairs, laid out by hand;
    `lengths`, if given, are the record lengths its table of contents lists."""
    ids = [i if isinstance(i, bytes) else i.encode() for i, _ in records]
    lengths = [len(r) for _, r in records] if lengths is None else lengths
    toc = b"".join(struct.pack("<I", len(i)) + i + struct.pack("<I", n) for i, n in zip(ids, lengths))
    return b"SHRCDAT5" + b"".join(r for _, r in records) + toc + struct.pack("<II", len(records), len(toc))


class TestFrameContainer:
    def test_roundtrip_preserves_data_at_storage_precision(self, tmp_path):
        rec = generate_tracklet(_spec(), 1, 0)
        p = tmp_path / "t.shrc"
        write_tracklet_frames([rec], p)
        back = read_tracklet_frames(p, rec.tracklet_id, rec.subject_id, rec.clothing_id)
        assert back.tracklet_id == rec.tracklet_id
        assert len(back) == len(rec)
        np.testing.assert_array_equal(back.masks, rec.masks)  # 0/1 survives one bit
        for name in ("appearance", "body", "skeleton"):
            np.testing.assert_array_equal(
                getattr(back, name), getattr(rec, name).astype(np.float32).astype(np.float64)
            )

    def test_rewrite_is_byte_identical(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=2))
        p1, p2 = tmp_path / "a.shrc", tmp_path / "b.shrc"
        write_tracklet_frames(recs, p1)
        back = [read_tracklet_frames(p1, r.tracklet_id, r.subject_id, r.clothing_id) for r in recs]
        write_tracklet_frames(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        rec = generate_tracklet(_spec(), 0, 0)
        p = tmp_path / "t.shrc"
        write_tracklet_frames([rec], p)
        raw = p.read_bytes()
        for bad, message in [
            (b"NOTMAGIC" + raw[8:], "bad magic, not a SHRCDAT5 file"),
            (raw[:-3], None),
            (raw + b"\x00\x00", None),
            # the first section tag of the record
            (raw[:20] + b"\x09" + raw[21:], "expected section 1 with 600 values, got tag 9"),
        ]:
            p.write_bytes(bad)
            with pytest.raises(CorruptFile, match=message and re.escape(message)):
                read_tracklet_frames(p, rec.tracklet_id, "s", "c")

    def test_a_short_record_names_the_container_the_record_and_the_offset(self, tmp_path):
        record = _record_bytes(generate_tracklet(_spec(frames_per_tracklet=2, height=4, width=4), 0, 0), tmp_path)
        p = tmp_path / "t.shrc"
        # the table of contents agrees with the cut record, which ends 2 bytes
        # into its last field, the 2 * 4 * 4 * 3 f32 appearance values
        p.write_bytes(_container(("t", record[:-2])))
        with pytest.raises(CorruptFile, match=f"t.shrc: record 't': truncated at byte {len(record) - 4 * 96}$"):
            read_tracklet_frames(p, "t", "s", "c")
        p.write_bytes(_container(("t", record + b"\x00\x00")))
        with pytest.raises(CorruptFile, match="t.shrc: record 't': 2 trailing bytes$"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_zero_frames_is_corrupt(self, tmp_path):
        # a well-formed record header with frame count 0: the parser, not the
        # record it would build, must reject it
        p = tmp_path / "t.shrc"
        p.write_bytes(_container(("t", struct.pack("<III", 0, 12, 10))))
        with pytest.raises(CorruptFile, match="t.shrc: record 't': holds no frames"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_record_holds_one_array_per_modality(self, tmp_path):
        rec = generate_tracklet(_spec(), 1, 1)
        p = tmp_path / "t.shrc"
        write_tracklet_frames([rec], p)
        back = read_tracklet_frames(p, rec.tracklet_id, rec.subject_id, rec.clothing_id)
        t, h, w = len(rec), rec.masks.shape[1], rec.masks.shape[2]
        for r in (rec, back):
            assert r.masks.shape == (t, h, w) and r.appearance.shape == (t, h, w, 3)
            assert r.body.shape == (t, 85) and r.skeleton.shape == (t, 51)
            assert all(getattr(r, n).dtype == np.float64 for n in ("masks", "appearance", "body", "skeleton"))

    def test_layout_has_no_masked_rgb_section(self, tmp_path):
        spec = _spec()
        rec = generate_tracklet(spec, 0, 0)
        p = tmp_path / "t.shrc"
        write_tracklet_frames([rec], p)
        raw = p.read_bytes()
        assert raw[:8] == b"SHRCDAT5"
        t = len(rec)
        assert struct.unpack_from("<III", raw, 8) == (t, spec.height, spec.width)
        hw = spec.height * spec.width
        mask_bytes = -(-t * hw // 8)
        # (tag, value count, payload bytes) for the whole tracklet: masks as
        # bits, f32 body vectors, f32 skeletons, f32 appearance frames
        sections = [
            (1, t * hw, mask_bytes), (2, t * 85, t * 85 * 4), (3, t * 51, t * 51 * 4), (4, t * hw * 3, t * hw * 12)
        ]
        off = 20
        for tag, count, size in sections:
            assert struct.unpack_from("<II", raw, off) == (tag, count)
            off += 8 + size
        # then the table of contents, one id and one length, and the trailer
        toc = struct.pack("<I", 8) + b"s000_t00" + struct.pack("<I", off - 8)
        assert raw[off:] == toc + struct.pack("<II", 1, len(toc))
        # one bit per pixel, the first pixel in the most significant bit
        packed = np.frombuffer(raw, dtype="u1", count=mask_bytes, offset=28)
        bits = [(int(byte) >> (7 - k)) & 1 for byte in packed for k in range(8)]
        np.testing.assert_array_equal(np.array(bits[: t * hw]).reshape(t, spec.height, spec.width), rec.masks)
        assert not any(bits[t * hw :])
        skeleton = np.frombuffer(raw, dtype="<f4", count=t * 51, offset=28 + mask_bytes + 8 + t * 85 * 4 + 8)
        np.testing.assert_array_equal(skeleton.reshape(t, 51), rec.skeleton.astype(np.float32))

    def test_records_come_back_to_back_then_the_table_then_the_trailer(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=2))
        records = [_record_bytes(r, tmp_path) for r in recs]
        p = tmp_path / "t.shrc"
        write_tracklet_frames(recs, p)
        # each record is the bytes it has alone; the table lists them in order
        assert p.read_bytes() == _container(*((r.tracklet_id, b) for r, b in zip(recs, records)))
        assert len(records) == 4 and len(set(records)) == 4

    def test_an_empty_container_is_a_magic_and_a_trailer(self, tmp_path):
        p = tmp_path / "t.shrc"
        write_tracklet_frames([], p)
        assert p.read_bytes() == b"SHRCDAT5" + bytes(8)
        with pytest.raises(CorruptFile, match="t.shrc: holds no tracklet 't'$"):
            read_tracklet_frames(p, "t", "s", "c")

    @pytest.mark.parametrize("h, w", [(0, 10), (12, 0), (0, 0)])
    def test_zero_size_frames_are_corrupt(self, tmp_path, h, w):
        # a header and sections that agree with each other, but no pixels
        p = tmp_path / "t.shrc"
        body = struct.pack("<II", 1, 0) + struct.pack("<II", 2, 85) + bytes(4 * 85)
        body += struct.pack("<II", 3, 51) + bytes(4 * 51) + struct.pack("<II", 4, 0)
        p.write_bytes(_container(("t", struct.pack("<III", 1, h, w) + body)))
        with pytest.raises(CorruptFile, match=f"t.shrc: record 't': frames are {h}x{w}"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_shrcdat1_is_rejected_with_a_hint(self, tmp_path):
        # a well-formed container of the old layout: five f32 sections per
        # frame, the masked RGB among them
        rec = generate_tracklet(_spec(), 0, 0)
        h, w = rec.masks.shape[1:]
        parts = [b"SHRCDAT1", struct.pack("<III", len(rec), h, w)]
        for mask, app, body, skel in zip(rec.masks, rec.appearance, rec.body, rec.skeleton):
            for tag, values in enumerate((mask, app * mask[:, :, None], body, skel, app), start=1):
                flat = np.asarray(values, dtype="<f4").reshape(-1)
                parts.append(struct.pack("<II", tag, flat.size) + flat.tobytes())
        p = tmp_path / "old.dat"
        p.write_bytes(b"".join(parts))
        with pytest.raises(CorruptFile, match="old.dat: .*re-run synth"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_shrcdat2_is_rejected_with_a_hint(self, tmp_path):
        # a well-formed container of the per-frame layout: four sections per
        # frame, the mask as u8
        rec = generate_tracklet(_spec(), 0, 0)
        h, w = rec.masks.shape[1:]
        parts = [b"SHRCDAT2", struct.pack("<III", len(rec), h, w)]
        for frame in zip(rec.masks, rec.body, rec.skeleton, rec.appearance):
            for tag, (values, dtype) in enumerate(zip(frame, ("u1", "<f4", "<f4", "<f4")), start=1):
                flat = np.asarray(values, dtype=dtype).reshape(-1)
                parts.append(struct.pack("<II", tag, flat.size) + flat.tobytes())
        p = tmp_path / "old.dat"
        p.write_bytes(b"".join(parts))
        with pytest.raises(CorruptFile, match="old.dat: SHRCDAT2 .*re-run synth"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_shrcdat3_is_rejected_with_a_hint(self, tmp_path):
        # a well-formed container of the byte-per-pixel layout: the same four
        # sections for the whole tracklet, the masks as u8
        rec = generate_tracklet(_spec(), 0, 0)
        h, w = rec.masks.shape[1:]
        parts = [b"SHRCDAT3", struct.pack("<III", len(rec), h, w)]
        for tag, (values, dtype) in enumerate(
            zip((rec.masks, rec.body, rec.skeleton, rec.appearance), ("u1", "<f4", "<f4", "<f4")), start=1
        ):
            flat = np.asarray(values, dtype=dtype).reshape(-1)
            parts.append(struct.pack("<II", tag, flat.size) + flat.tobytes())
        p = tmp_path / "old.dat"
        p.write_bytes(b"".join(parts))
        with pytest.raises(CorruptFile, match="old.dat: SHRCDAT3 .*re-run synth"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_shrcdat4_is_rejected_with_a_hint(self, tmp_path):
        # a well-formed container of the one-file-per-tracklet layout: the
        # magic, then one record as this layout stores it, and no table
        p = tmp_path / "old.dat"
        p.write_bytes(b"SHRCDAT4" + _record_bytes(generate_tracklet(_spec(), 0, 0), tmp_path))
        with pytest.raises(CorruptFile, match="old.dat: SHRCDAT4 frame containers are no longer read; re-run synth$"):
            read_tracklet_frames(p, "s000_t00", "s", "c")

    def test_an_odd_size_mask_section_pads_with_zero_bits(self, tmp_path):
        # 1 frame of 3x3: 9 mask bits in 2 bytes, the last 7 bits padding
        masks = np.array([[[1, 0, 1], [1, 1, 0], [0, 0, 1]]], dtype=float)
        rec = TrackletRecord(
            "t", "s", "c", masks=masks, appearance=np.full((1, 3, 3, 3), 0.5),
            body=np.zeros((1, 85)), skeleton=np.zeros((1, 51)),
        )
        p = tmp_path / "odd.shrc"
        write_tracklet_frames([rec], p)
        raw = p.read_bytes()
        assert struct.unpack_from("<II", raw, 20) == (1, 9)
        assert raw[28:30] == bytes([0b10111000, 0b10000000])
        assert struct.unpack_from("<II", raw, 30) == (2, 85)
        back = read_tracklet_frames(p, "t", "s", "c")
        assert _same_bytes(back.masks, masks)
        write_tracklet_frames([back], tmp_path / "again.shrc")
        assert (tmp_path / "again.shrc").read_bytes() == raw
        for bit in range(7):
            bad = bytearray(raw)
            bad[29] |= 1 << bit
            p.write_bytes(bytes(bad))
            with pytest.raises(CorruptFile, match="odd.shrc: record 't': mask section sets a padding bit"):
                read_tracklet_frames(p, "t", "s", "c")

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize("name", ["body", "skeleton"])
    def test_a_record_beyond_f32_is_refused_and_leaves_no_container(self, tmp_path, name):
        first, second = generate_dataset(_spec(num_ids=1, frames_per_tracklet=2))
        values = getattr(second, name).copy()
        values[1, 3] = 1e39
        p = tmp_path / "t.shrc"
        with pytest.raises(InvalidInput, match=f"tracklet {second.tracklet_id}: {name} entries are not finite as f32"):
            write_tracklet_frames([first, replace(second, **{name: values})], p)
        assert not p.exists()

    def test_a_repeated_id_is_refused_and_leaves_no_container(self, tmp_path):
        first, second = generate_dataset(_spec(num_ids=1))
        p = tmp_path / "t.shrc"
        with pytest.raises(InvalidInput, match=f"t.shrc: tracklet '{first.tracklet_id}' appears twice"):
            write_tracklet_frames([first, replace(second, tracklet_id=first.tracklet_id)], p)
        assert not p.exists()

    def test_a_refusal_from_the_records_leaves_no_container(self, tmp_path):
        def records():
            yield generate_tracklet(_spec(), 0, 0)
            raise InvalidInput("the source refused")

        p = tmp_path / "t.shrc"
        with pytest.raises(InvalidInput, match="the source refused"):
            write_tracklet_frames(records(), p)
        assert not p.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda a, b: b"SHRCDAT5" + a[:4], "t.shrc: truncated at byte 12, before the trailer"),
            (lambda a, b: _container(("x", a), ("y", b))[:-4] + struct.pack("<I", 1 << 20), "does not fit in"),
            (lambda a, b: _container(("x", a), ("x", b)), "table of contents: tracklet 'x' is empty or repeated"),
            (lambda a, b: _container(("x", a), ("", b)), "table of contents: tracklet '' is empty or repeated"),
            (lambda a, b: _container((b"x\xff", a), ("y", b)), "table of contents: text field is not UTF-8"),
            # a trailer that counts one entry fewer, or one more, than the table holds
            (lambda a, b: _container(("x", a), ("y", b))[:-8] + struct.pack("<II", 1, 18),
             "table of contents: 9 trailing bytes"),
            (lambda a, b: _container(("x", a), ("y", b))[:-8] + struct.pack("<II", 3, 18),
             "table of contents: truncated at byte 18"),
            # lengths that end the records before or after the table starts
            (lambda a, b: _container(("x", a), ("y", b), lengths=[len(a), len(b) - 1]),
             f"records end at byte {8 + 2 * 1520 - 1}, the table of contents starts at {8 + 2 * 1520}"),
            (lambda a, b: _container(("x", a), ("y", b), lengths=[len(a) + 1, len(b)]),
             f"records end at byte {8 + 2 * 1520 + 1}, the table of contents starts at {8 + 2 * 1520}"),
        ],
        ids=["no_trailer", "table_overruns", "repeated_id", "empty_id", "id_not_utf8", "one_entry_fewer",
             "one_entry_more", "lengths_short", "lengths_long"],
    )
    def test_a_table_of_contents_that_does_not_tile_the_file_is_refused(self, tmp_path, damage, message):
        spec = _spec(frames_per_tracklet=2, height=4, width=4)
        a, b = (_record_bytes(generate_tracklet(spec, 0, t), tmp_path) for t in range(2))
        assert len(a) == len(b) == 1520
        p = tmp_path / "t.shrc"
        p.write_bytes(damage(a, b))
        with pytest.raises(CorruptFile, match=re.escape(message)):
            read_tracklet_frames(p, "x", "s", "c")

    def test_an_id_the_container_lacks_is_refused(self, tmp_path):
        p = tmp_path / "t.shrc"
        write_tracklet_frames([generate_tracklet(_spec(), 0, 0)], p)
        with pytest.raises(CorruptFile, match="t.shrc: holds no tracklet 's000_t01'$"):
            read_tracklet_frames(p, "s000_t01", "s", "c")


_SMALL_IDS = ("s000_t00", "s000_t01")


def _small_container(tmp_path) -> bytes:
    spec = _spec(frames_per_tracklet=2, height=4, width=4)
    p = tmp_path / "small.shrc"
    write_tracklet_frames([generate_tracklet(spec, 0, t) for t in range(2)], p)
    raw = p.read_bytes()
    assert raw[:8] == b"SHRCDAT5"
    return raw


def _read_or_refuse(path):
    """The small container's records, read as a manifest naming both reads
    them, or None when the reader refused the bytes."""
    rows = [ManifestRow(i, "s", "c", path.name) for i in _SMALL_IDS]
    try:
        return list(load_dataset(path.parent / "manifest.csv", rows))
    except (CorruptFile, InvalidInput):
        return None


def _refused_or_rewritten(path) -> bool:
    """True when the reader refuses the container at `path`, or reads records
    that the writer turns back into its bytes."""
    records = _read_or_refuse(path)
    if records is None:
        return True
    again = path.parent / "again.shrc"
    write_tracklet_frames(records, again)
    return again.read_bytes() == path.read_bytes()


class TestContainerFuzz:
    def test_every_truncation_is_refused(self, tmp_path):
        raw = _small_container(tmp_path)
        p = tmp_path / "cut.shrc"
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            assert _read_or_refuse(p) is None, n

    def test_signalling_nan_is_refused_without_a_warning(self, tmp_path):
        raw = bytearray(_small_container(tmp_path))
        # magic, record header, then two frames of 4x4 masks (4 bytes of
        # bits), body vectors and skeletons, then the first appearance value
        first_app = 20 + 8 + 2 * 16 // 8 + 8 + 2 * 4 * 85 + 8 + 2 * 4 * 51 + 8
        raw[first_app : first_app + 4] = struct.pack("<I", 0x7F800001)
        p = tmp_path / "snan.shrc"
        p.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                read_tracklet_frames(p, _SMALL_IDS[0], "s", "c")

    @pytest.mark.parametrize("section", ["body", "skeleton", "appearance"])
    def test_a_signalling_nan_in_any_f32_section_is_refused_without_a_warning(self, tmp_path, section):
        raw = bytearray(_small_container(tmp_path))
        # magic and record header, the masks' tag and count and 4 bytes of
        # bits, then each f32 section's tag and count and 2 frames of values
        offsets = {"body": 20 + 8 + 4 + 8}
        offsets["skeleton"] = offsets["body"] + 2 * 4 * 85 + 8
        offsets["appearance"] = offsets["skeleton"] + 2 * 4 * 51 + 8
        # the last value of the section's first frame
        first = offsets[section] + 4 * {"body": 84, "skeleton": 50, "appearance": 47}[section]
        raw[first : first + 4] = struct.pack("<I", 0x7FA00000)
        p = tmp_path / "snan.shrc"
        p.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                read_tracklet_frames(p, _SMALL_IDS[0], "s", "c")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_byte_mutation_is_refused_or_rewrites_to_the_same_bytes(self, tmp_path, data):
        raw = bytearray(_small_container(tmp_path))
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]), label="value")
        raw[pos] = value
        p = tmp_path / "mutated.shrc"
        p.write_bytes(bytes(raw))
        assert _refused_or_rewritten(p)
        for rec in _read_or_refuse(p) or []:
            assert isinstance(rec, TrackletRecord) and len(rec) == 2
            assert rec.masks.shape == (2, 4, 4) and rec.appearance.shape == (2, 4, 4, 3)
            assert set(np.unique(rec.masks)) <= {0.0, 1.0}
            app = rec.appearance
            assert np.all(np.isfinite(app)) and app.min() >= 0.0 and app.max() <= 1.0
            assert np.all(np.isfinite(rec.body)) and np.all(np.isfinite(rec.skeleton))
            conf = rec.skeleton[:, 34:]
            assert conf.min() >= 0.0 and conf.max() <= 1.0

    def test_every_byte_value_in_the_table_and_trailer_is_refused_or_rewrites(self, tmp_path):
        raw = _small_container(tmp_path)
        (toc_size,) = struct.unpack_from("<I", raw, len(raw) - 4)
        p = tmp_path / "mutated.shrc"
        for pos in range(len(raw) - 8 - toc_size, len(raw)):
            for value in range(256):
                if value != raw[pos]:
                    p.write_bytes(raw[:pos] + bytes([value]) + raw[pos + 1 :])
                    assert _refused_or_rewritten(p), (pos, value)


class TestDatasetIo:
    def test_write_then_load(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=3))
        rows = write_dataset(recs, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        assert rows == read_manifest(manifest)
        assert {row.frames_path for row in rows} == {"frames-0.shrc"}
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["frames-0.shrc", "manifest.csv"]
        loaded = list(load_dataset(manifest))
        assert [r.tracklet_id for r in loaded] == [r.tracklet_id for r in recs]
        assert [r.clothing_id for r in loaded] == [r.clothing_id for r in recs]
        for ra, rb in zip(recs, loaded):
            np.testing.assert_array_equal(rb.masks[0], ra.masks[0])

    def test_rows_out_of_file_order_read_the_generated_records(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=3, tracklets_per_id=3, frames_per_tracklet=3))
        rows = write_dataset(recs, tmp_path / "data")
        order = [5, 0, 8, 3, 1, 7, 2, 6, 4]
        loaded = load_dataset(tmp_path / "data" / "manifest.csv", [rows[i] for i in order])
        for i, back in zip(order, loaded, strict=True):
            want = recs[i]
            assert (back.tracklet_id, back.subject_id, back.clothing_id) == (
                want.tracklet_id, want.subject_id, want.clothing_id
            )
            for name in ("masks", "appearance", "body", "skeleton"):
                assert _same_bytes(getattr(back, name), getattr(want, name).astype(np.float32).astype(np.float64))

    def test_write_tracklet_frames_holds_one_record_at_a_time(self, tmp_path):
        # each record's f32 payloads are new arrays; a writer that kept them
        # until the end would peak at the sum of all 40 records, not at about
        # two records' worth
        base = generate_tracklet(_spec(frames_per_tracklet=8, height=16, width=16), 0, 0)
        payload = sum(getattr(base, n).size * 4 for n in ("appearance", "body", "skeleton"))
        records = (replace(base, tracklet_id=f"t{i:02d}") for i in range(40))
        tracemalloc.start()
        try:
            write_tracklet_frames(records, tmp_path / "t.shrc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * payload, (peak, payload)

    def test_load_dataset_holds_about_one_record_at_a_time(self, tmp_path):
        spec = _spec(num_ids=10, tracklets_per_id=4, frames_per_tracklet=8, height=16, width=16)
        write_dataset(iter_dataset(spec), tmp_path / "data")
        container = (tmp_path / "data" / "frames-0.shrc").stat().st_size
        one = generate_tracklet(spec, 0, 0)
        record = sum(getattr(one, n).nbytes for n in ("masks", "appearance", "body", "skeleton"))
        count = 0
        tracemalloc.start()
        try:
            for _ in load_dataset(tmp_path / "data" / "manifest.csv"):
                count += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the loop holds the last record while the next one is read: about
        # two records' float64 arrays, the bytes of one and its checks'
        # temporaries (2.9 records here), not the 14-record first container
        assert count == 40 and container > 12 * record
        assert peak < 4 * record, (peak, record, container)

    def test_load_dataset_opens_a_container_when_the_rows_move_to_it(self, tmp_path, monkeypatch):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=2))
        write_tracklet_frames(recs[:2], tmp_path / "a.shrc")
        write_tracklet_frames(recs[2:], tmp_path / "b.shrc")
        opened = []

        def logged_open(path, *args, **kwargs):
            # one container is open at a time
            assert all(f.closed for f in opened)
            opened.append(open(path, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sharc.synth, "open", logged_open, raising=False)
        for order, names in [((0, 1, 2, 3), ["a", "b"]), ((0, 2, 1, 3), ["a", "b", "a", "b"]), ((3, 2), ["b"])]:
            rows = [ManifestRow(recs[i].tracklet_id, "s", "c", "ab"[i // 2] + ".shrc") for i in order]
            opened.clear()
            loaded = list(load_dataset(tmp_path / "manifest.csv", rows))
            assert [r.tracklet_id for r in loaded] == [recs[i].tracklet_id for i in order]
            assert [os.path.basename(f.name) for f in opened] == [f"{name}.shrc" for name in names]
            assert all(f.closed for f in opened)
        # a reader left after its first record closes its container
        loaded = load_dataset(tmp_path / "manifest.csv", rows)
        next(loaded)
        assert not opened[-1].closed
        loaded.close()
        assert opened[-1].closed

    def test_write_dataset_closes_a_container_before_it_passes_container_bytes(self, tmp_path, monkeypatch):
        spec = _spec(num_ids=3, tracklets_per_id=2, frames_per_tracklet=2)
        recs = generate_dataset(spec)
        size = len(_record_bytes(recs[0], tmp_path))
        for limit, containers in [(1 << 20, [6]), (2 * size, [2, 2, 2]), (3 * size - 1, [2, 2, 2]), (size - 1, [1] * 6)]:
            monkeypatch.setattr(sharc.synth, "CONTAINER_BYTES", limit)
            out = tmp_path / str(limit)
            rows = write_dataset(iter_dataset(spec), out)
            names = [f"frames-{k}.shrc" for k in range(len(containers))]
            assert [row.frames_path for row in rows] == [n for n, c in zip(names, containers) for _ in range(c)]
            assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.csv"])
            for name, count in zip(names, containers):
                raw = (out / name).read_bytes()
                assert struct.unpack_from("<I", raw, len(raw) - 8) == (count,)
            for want, back in zip(recs, load_dataset(out / "manifest.csv"), strict=True):
                assert back.tracklet_id == want.tracklet_id
                assert _same_bytes(back.appearance, want.appearance.astype(np.float32).astype(np.float64))

    def test_write_dataset_writes_nothing_but_the_manifest_for_no_records(self, tmp_path):
        assert write_dataset([], tmp_path / "data") == []
        assert [p.name for p in (tmp_path / "data").iterdir()] == ["manifest.csv"]

    @pytest.mark.parametrize("limit", [1 << 20, 1])
    def test_write_dataset_refuses_a_record_beyond_f32_and_leaves_no_container(self, tmp_path, monkeypatch, limit):
        # at a limit of 1 byte each record has a container of its own, and
        # the two written before the refusal are removed too
        monkeypatch.setattr(sharc.synth, "CONTAINER_BYTES", limit)
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=2))
        body = recs[2].body.copy()
        body[0, 0] = 1e39
        with pytest.raises(InvalidInput, match="body entries are not finite as f32"):
            write_dataset(recs[:2] + [replace(recs[2], body=body)] + recs[3:], tmp_path / "data")
        assert list((tmp_path / "data").iterdir()) == []

    @pytest.mark.parametrize("limit", [1 << 20, 1])
    def test_a_repeated_tracklet_id_is_refused_and_leaves_no_container(self, tmp_path, monkeypatch, limit):
        # a table of contents could not tell the two records apart, nor could
        # the manifest, when they are in two containers
        monkeypatch.setattr(sharc.synth, "CONTAINER_BYTES", limit)
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=2))
        first = recs[0].tracklet_id
        assert recs[2].tracklet_id != first
        repeated = recs[:2] + [replace(recs[2], tracklet_id=first)] + recs[3:]
        with pytest.raises(InvalidInput, match=f"tracklet '{first}' appears twice"):
            write_dataset(repeated, tmp_path / "data")
        assert list((tmp_path / "data").iterdir()) == []

    @pytest.mark.parametrize("bad_id", ["s000,t01", "s000\rt01", "s000\nt01", "#s000_t01"])
    def test_a_tracklet_id_the_manifest_refuses_is_refused_before_its_record_is_written(
        self, tmp_path, monkeypatch, bad_id
    ):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=2))
        renamed = [recs[0], replace(recs[1], tracklet_id=bad_id)] + recs[2:]
        serialized, record_parts = [], sharc.synth._record_parts

        def logged_parts(record):
            serialized.append(record.tracklet_id)
            return record_parts(record)

        monkeypatch.setattr(sharc.synth, "_record_parts", logged_parts)
        reason = "would start a comment line" if bad_id[0] == "#" else "holds a comma, CR or LF"
        with pytest.raises(InvalidInput, match=re.escape(f"manifest.csv: tracklet {bad_id!r} {reason}")):
            write_dataset(renamed, tmp_path / "data")
        assert serialized == [recs[0].tracklet_id]
        assert list((tmp_path / "data").iterdir()) == []

    def test_streamed_records_equal_the_generated_list(self, tmp_path):
        spec = _spec(num_ids=2, tracklets_per_id=3, frames_per_tracklet=3)
        listed = generate_dataset(spec)
        streamed = iter_dataset(spec)
        assert not isinstance(streamed, list)
        streamed = list(streamed)
        assert [r.tracklet_id for r in streamed] == [r.tracklet_id for r in listed]
        for a, b in zip(listed, streamed):
            assert (a.subject_id, a.clothing_id) == (b.subject_id, b.clothing_id)
            for name in ("masks", "appearance", "body", "skeleton"):
                assert _same_bytes(getattr(a, name), getattr(b, name))
        write_dataset(listed, tmp_path / "listed")
        write_dataset(iter_dataset(spec), tmp_path / "streamed")
        for path in sorted((tmp_path / "listed").rglob("*.*")):
            twin = tmp_path / "streamed" / path.relative_to(tmp_path / "listed")
            assert path.read_bytes() == twin.read_bytes()

    def test_manifest_carries_the_header_comment(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        write_dataset(recs, tmp_path / "data", "sharc test")
        manifest = tmp_path / "data" / "manifest.csv"
        with open(manifest) as f:
            assert f.read().startswith("# sharc test\ntracklet_id,")
        assert [r.tracklet_id for r in load_dataset(manifest)] == [r.tracklet_id for r in recs]

    def test_load_dataset_reads_each_record_when_it_is_asked_for(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        write_dataset(recs, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        container = tmp_path / "data" / "frames-0.shrc"
        # the second record's first section tag
        raw = bytearray(container.read_bytes())
        second = 8 + len(_record_bytes(recs[0], tmp_path)) + 12
        assert raw[second] == 1
        raw[second] = 9
        container.write_bytes(bytes(raw))
        loaded = load_dataset(manifest)
        assert isinstance(loaded, Iterator) and not isinstance(loaded, list)
        assert next(loaded).tracklet_id == recs[0].tracklet_id
        with pytest.raises(CorruptFile, match=f"frames-0.shrc: record '{recs[1].tracklet_id}': expected section 1"):
            next(loaded)

    def test_a_manifest_id_the_container_lacks_names_the_manifest_and_the_id(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        rows = write_dataset(recs, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        rows = [rows[0], replace(rows[1], tracklet_id="s000_t07")]
        with pytest.raises(CorruptFile, match="manifest.csv: frame container frames-0.shrc holds no tracklet 's000_t07'$"):
            list(load_dataset(manifest, rows))

    def test_missing_container_reported(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        write_dataset(recs, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        (tmp_path / "data" / "frames-0.shrc").unlink()
        with pytest.raises(CorruptFile, match="manifest.csv: missing frame container frames-0.shrc$"):
            list(load_dataset(manifest))

    def test_container_path_naming_a_directory_is_corrupt(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        write_dataset(recs, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.csv"
        container = tmp_path / "data" / "frames-0.shrc"
        container.unlink()
        container.mkdir()
        with pytest.raises(CorruptFile, match="manifest.csv: frame container frames-0.shrc is not a file"):
            list(load_dataset(manifest))
