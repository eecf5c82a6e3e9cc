import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sharc.exceptions import CorruptFile, InvalidInput, ProtocolError
from sharc.gallery import TrackletRecord
from sharc.synth import (
    DatasetSpec,
    generate_dataset,
    generate_tracklet,
    identity_profile,
    load_dataset,
    read_tracklet_frames,
    split_protocol,
    subject_label,
    write_dataset,
    write_tracklet_frames,
)


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

    def test_subject_labels(self):
        assert subject_label(0) == "s000"
        assert subject_label(41) == "s041"


class TestGeneration:
    def test_fully_deterministic(self):
        a = generate_dataset(_spec())
        b = generate_dataset(_spec())
        assert [r.tracklet_id for r in a] == [r.tracklet_id for r in b]
        for ra, rb in zip(a, b):
            for fa, fb in zip(ra.silhouettes, rb.silhouettes):
                np.testing.assert_array_equal(fa.mask, fb.mask)
                np.testing.assert_array_equal(fa.masked_rgb, fb.masked_rgb)
            for fa, fb in zip(ra.smpls, rb.smpls):
                np.testing.assert_array_equal(fa.as_vector(), fb.as_vector())
            for fa, fb in zip(ra.skeletons, rb.skeletons):
                np.testing.assert_array_equal(fa.as_vector(), fb.as_vector())

    def test_generation_order_does_not_matter(self):
        spec = _spec()
        late = generate_tracklet(spec, 2, 1)
        again = generate_tracklet(spec, 2, 1)
        np.testing.assert_array_equal(late.silhouettes[0].mask, again.silhouettes[0].mask)

    def test_modality_invariants(self):
        spec = _spec()
        for rec in generate_dataset(spec):
            assert len(rec) == spec.frames_per_tracklet
            for sil in rec.silhouettes:
                assert sil.mask.shape == (spec.height, spec.width)
                assert set(np.unique(sil.mask)) <= {0.0, 1.0}
                assert np.all(sil.masked_rgb >= 0.0) and np.all(sil.masked_rgb <= 1.0)
                np.testing.assert_array_equal(sil.masked_rgb[sil.mask == 0.0], 0.0)
            for smpl in rec.smpls:
                assert smpl.as_vector().shape == (85,)
            for skel in rec.skeletons:
                assert skel.joints.shape == (17, 2)
                assert np.all((skel.confidence >= 0.0) & (skel.confidence <= 1.0))

    def test_identity_profiles_differ_between_subjects(self):
        spec = _spec()
        p0, p1 = identity_profile(spec, 0), identity_profile(spec, 1)
        assert p0.subject_id != p1.subject_id
        assert not np.array_equal(p0.latent_shape, p1.latent_shape)
        assert not np.array_equal(p0.appearance_signature, p1.appearance_signature)

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
        np.testing.assert_array_equal(a.skeletons[0].joints, b.skeletons[0].joints)

    def test_zero_noise_single_outfit_repeats_exactly(self):
        spec = _spec(clothing_variants=1, sil_flip_rate=0.0, keypoint_jitter=0.0,
                     appearance_shift=0.0)
        a, b = generate_dataset(spec)[:2]
        assert a.subject_id == b.subject_id
        for fa, fb in zip(a.silhouettes, b.silhouettes):
            np.testing.assert_array_equal(fa.mask, fb.mask)
            np.testing.assert_array_equal(fa.masked_rgb, fb.masked_rgb)
        for fa, fb in zip(a.smpls, b.smpls):
            np.testing.assert_array_equal(fa.as_vector(), fb.as_vector())

    def test_index_bounds(self):
        spec = _spec()
        with pytest.raises(InvalidInput):
            generate_tracklet(spec, spec.num_ids, 0)
        with pytest.raises(InvalidInput):
            generate_tracklet(spec, 0, spec.tracklets_per_id)


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


class TestFrameContainer:
    def test_roundtrip_preserves_data_at_storage_precision(self, tmp_path):
        rec = generate_tracklet(_spec(), 1, 0)
        p = tmp_path / "t.dat"
        write_tracklet_frames(rec, p)
        back = read_tracklet_frames(p, rec.tracklet_id, rec.subject_id, rec.clothing_id)
        assert back.tracklet_id == rec.tracklet_id
        assert len(back) == len(rec)
        for fa, fb in zip(rec.silhouettes, back.silhouettes):
            np.testing.assert_array_equal(fb.mask, fa.mask)  # 0/1 survives f32
            np.testing.assert_array_equal(
                fb.masked_rgb, fa.masked_rgb.astype(np.float32).astype(np.float64)
            )
        for fa, fb in zip(rec.smpls, back.smpls):
            np.testing.assert_array_equal(
                fb.as_vector(), fa.as_vector().astype(np.float32).astype(np.float64)
            )

    def test_rewrite_is_byte_identical(self, tmp_path):
        rec = generate_tracklet(_spec(), 0, 1)
        p1, p2 = tmp_path / "a.dat", tmp_path / "b.dat"
        write_tracklet_frames(rec, p1)
        back = read_tracklet_frames(p1, rec.tracklet_id, rec.subject_id, rec.clothing_id)
        write_tracklet_frames(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        rec = generate_tracklet(_spec(), 0, 0)
        p = tmp_path / "t.dat"
        write_tracklet_frames(rec, p)
        raw = p.read_bytes()

        p.write_bytes(b"NOTMAGIC" + raw[8:])
        with pytest.raises(CorruptFile):
            read_tracklet_frames(p, "t", "s", "c")

        p.write_bytes(raw[:-3])
        with pytest.raises(CorruptFile):
            read_tracklet_frames(p, "t", "s", "c")

        p.write_bytes(raw + b"\x00\x00")
        with pytest.raises(CorruptFile):
            read_tracklet_frames(p, "t", "s", "c")

        # flip the first section tag
        bad = bytearray(raw)
        bad[20] = 9
        p.write_bytes(bytes(bad))
        with pytest.raises(CorruptFile):
            read_tracklet_frames(p, "t", "s", "c")

    def test_zero_frames_is_corrupt(self, tmp_path):
        # a well-formed header with frame count 0: the parser, not the
        # record it would build, must reject it
        p = tmp_path / "t.dat"
        p.write_bytes(b"SHRCDAT2" + struct.pack("<III", 0, 12, 10))
        with pytest.raises(CorruptFile, match="t.dat: frame container holds no frames"):
            read_tracklet_frames(p, "t", "s", "c")


    def test_silhouettes_share_the_appearance_frames(self, tmp_path):
        rec = generate_tracklet(_spec(), 1, 1)
        p = tmp_path / "t.dat"
        write_tracklet_frames(rec, p)
        back = read_tracklet_frames(p, rec.tracklet_id, rec.subject_id, rec.clothing_id)
        for r in (rec, back):
            for sil, app in zip(r.silhouettes, r.appearance):
                assert sil.rgb is app

    def test_layout_has_no_masked_rgb_section(self, tmp_path):
        spec = _spec()
        rec = generate_tracklet(spec, 0, 0)
        p = tmp_path / "t.dat"
        write_tracklet_frames(rec, p)
        raw = p.read_bytes()
        assert raw[:8] == b"SHRCDAT2"
        assert struct.unpack_from("<III", raw, 8) == (len(rec), spec.height, spec.width)
        hw = spec.height * spec.width
        # (tag, value count, bytes per value) per frame: u8 mask, f32 body
        # params, f32 skeleton, f32 appearance frame
        sections = [(1, hw, 1), (2, 85, 4), (3, 51, 4), (4, hw * 3, 4)]
        off = 20
        for _ in range(len(rec)):
            for tag, count, size in sections:
                assert struct.unpack_from("<II", raw, off) == (tag, count)
                off += 8 + count * size
        assert off == len(raw)
        mask = np.frombuffer(raw, dtype="u1", count=hw, offset=28)
        np.testing.assert_array_equal(mask.reshape(spec.height, spec.width), rec.silhouettes[0].mask)

    @pytest.mark.parametrize("h, w", [(0, 10), (12, 0), (0, 0)])
    def test_zero_size_frames_are_corrupt(self, tmp_path, h, w):
        # a header and sections that agree with each other, but no pixels
        p = tmp_path / "t.dat"
        body = struct.pack("<II", 1, 0) + struct.pack("<II", 2, 85) + bytes(4 * 85)
        body += struct.pack("<II", 3, 51) + bytes(4 * 51) + struct.pack("<II", 4, 0)
        p.write_bytes(b"SHRCDAT2" + struct.pack("<III", 1, h, w) + body)
        with pytest.raises(CorruptFile, match=f"t.dat: frames are {h}x{w}"):
            read_tracklet_frames(p, "t", "s", "c")

    def test_shrcdat1_is_rejected_with_a_hint(self, tmp_path):
        # a well-formed container of the old layout: five f32 sections per
        # frame, the masked RGB among them
        rec = generate_tracklet(_spec(), 0, 0)
        h, w = rec.silhouettes[0].mask.shape
        parts = [b"SHRCDAT1", struct.pack("<III", len(rec), h, w)]
        for sil, smpl, skel, app in zip(rec.silhouettes, rec.smpls, rec.skeletons, rec.appearance):
            for tag, values in enumerate(
                (sil.mask, sil.masked_rgb, smpl.as_vector(), skel.as_vector(), app), start=1
            ):
                flat = np.asarray(values, dtype="<f4").reshape(-1)
                parts.append(struct.pack("<II", tag, flat.size) + flat.tobytes())
        p = tmp_path / "old.dat"
        p.write_bytes(b"".join(parts))
        with pytest.raises(CorruptFile, match="old.dat: .*re-run synth"):
            read_tracklet_frames(p, "t", "s", "c")


def _small_container(tmp_path) -> bytes:
    spec = _spec(frames_per_tracklet=2, height=4, width=4)
    p = tmp_path / "small.dat"
    write_tracklet_frames(generate_tracklet(spec, 0, 0), p)
    raw = p.read_bytes()
    assert raw[:8] == b"SHRCDAT2"
    return raw


def _read_or_refuse(path):
    """The parsed record, or None when the parser refused the bytes."""
    try:
        return read_tracklet_frames(path, "t", "s", "c")
    except (CorruptFile, InvalidInput):
        return None


class TestContainerFuzz:
    def test_every_truncation_is_refused(self, tmp_path):
        raw = _small_container(tmp_path)
        p = tmp_path / "cut.dat"
        for n in range(len(raw)):
            p.write_bytes(raw[:n])
            with pytest.raises((CorruptFile, InvalidInput)):
                read_tracklet_frames(p, "t", "s", "c")

    def test_signalling_nan_is_refused_without_a_warning(self, tmp_path):
        raw = bytearray(_small_container(tmp_path))
        first_app = 20 + 8 + 16 + 8 + 4 * 85 + 8 + 4 * 51 + 8  # first appearance value
        raw[first_app : first_app + 4] = struct.pack("<I", 0x7F800001)
        p = tmp_path / "snan.dat"
        p.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                read_tracklet_frames(p, "t", "s", "c")

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_byte_mutation_is_refused_or_valid(self, tmp_path, data):
        raw = bytearray(_small_container(tmp_path))
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]), label="value")
        raw[pos] = value
        p = tmp_path / "mutated.dat"
        p.write_bytes(bytes(raw))
        rec = _read_or_refuse(p)
        if rec is not None:
            assert isinstance(rec, TrackletRecord) and len(rec) == 2
            for sil, app in zip(rec.silhouettes, rec.appearance):
                assert sil.mask.shape == (4, 4) and sil.rgb is app
                assert set(np.unique(sil.mask)) <= {0.0, 1.0}
                assert np.all(np.isfinite(app)) and app.min() >= 0.0 and app.max() <= 1.0
            for smpl, skel in zip(rec.smpls, rec.skeletons):
                assert np.all(np.isfinite(smpl.as_vector())) and np.all(np.isfinite(skel.as_vector()))


class TestDatasetIo:
    def test_write_then_load(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=2, tracklets_per_id=2, frames_per_tracklet=3))
        manifest = write_dataset(recs, tmp_path / "data")
        loaded = load_dataset(manifest)
        assert [r.tracklet_id for r in loaded] == [r.tracklet_id for r in recs]
        assert [r.clothing_id for r in loaded] == [r.clothing_id for r in recs]
        for ra, rb in zip(recs, loaded):
            np.testing.assert_array_equal(rb.silhouettes[0].mask, ra.silhouettes[0].mask)

    def test_missing_container_reported(self, tmp_path):
        recs = generate_dataset(_spec(num_ids=1, tracklets_per_id=2, frames_per_tracklet=2))
        manifest = write_dataset(recs, tmp_path / "data")
        (tmp_path / "data" / "frames" / f"{recs[0].tracklet_id}.dat").unlink()
        with pytest.raises(CorruptFile):
            load_dataset(manifest)
