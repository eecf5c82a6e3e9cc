import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sharc.appearance import AttentionParams
from sharc.encoders import EncoderParams
from sharc.exceptions import CorruptIndex, EmptyInput, InvalidInput
from sharc.gallery import (
    AppearanceModel,
    GalleryIndex,
    IndexEntry,
    build_index,
    chunk_frames,
    load_index,
    register,
    save_index,
    tracklet_embeddings,
    tracklet_features,
)
from sharc.shape import ShapeModel
from sharc.synth import DatasetSpec, TrackletRecord, generate_dataset
from sharc.tables import ManifestRow, read_manifest, write_manifest


class TestChunking:
    def test_short_tracklet_cycles(self):
        assert chunk_frames(1, 8) == [[0] * 8]
        assert chunk_frames(5, 8) == [[0, 1, 2, 3, 4, 0, 1, 2]]

    def test_exact_group(self):
        assert chunk_frames(8, 8) == [list(range(8))]

    def test_remainder_cycles_within_itself(self):
        assert chunk_frames(9, 8) == [list(range(8)), [8] * 8]
        assert chunk_frames(20, 8) == [
            list(range(8)),
            list(range(8, 16)),
            [16, 17, 18, 19, 16, 17, 18, 19],
        ]

    def test_multiples(self):
        assert chunk_frames(16, 8) == [list(range(8)), list(range(8, 16))]

    def test_rejects_nonpositive(self):
        with pytest.raises(EmptyInput):
            chunk_frames(0, 8)

    def test_every_group_has_eight_indices(self):
        for n in range(1, 40):
            for group in chunk_frames(n, 8):
                assert len(group) == 8
                assert all(0 <= i < n for i in group)

    def test_group_of_four(self):
        assert chunk_frames(3, 4) == [[0, 1, 2, 0]]
        assert chunk_frames(4, 4) == [[0, 1, 2, 3]]
        assert chunk_frames(10, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 8, 9]]

    def test_group_of_sixteen(self):
        assert chunk_frames(5, 16) == [[0, 1, 2, 3, 4] * 3 + [0]]
        assert chunk_frames(16, 16) == [list(range(16))]
        assert chunk_frames(20, 16) == [list(range(16)), [16, 17, 18, 19] * 4]

    @pytest.mark.parametrize("group_size", [4, 16])
    def test_every_group_has_group_size_indices(self, group_size):
        for n in range(1, 3 * group_size):
            groups = chunk_frames(n, group_size)
            assert all(len(g) == group_size for g in groups)
            assert sorted({i for g in groups for i in g}) == list(range(n))


def _dataset(num_ids=3, tpi=2, frames=9, seed=77):
    return generate_dataset(
        DatasetSpec(
            num_ids=num_ids,
            tracklets_per_id=tpi,
            frames_per_tracklet=frames,
            clothing_variants=1,
            sil_flip_rate=0.0,
            keypoint_jitter=0.0,
            appearance_shift=0.0,
            seed=seed,
        )
    )


def _models(c=16, c_m=12):
    shape_model = ShapeModel(
        sil_encoder=EncoderParams.initialize((4, 8, c), seed=1),
        smpl_encoder=EncoderParams.initialize((85, 32, c), seed=2),
        skeleton_encoder=EncoderParams.initialize((51, 32, c_m), seed=3),
        bins=4,
    )
    app_model = AppearanceModel(
        encoder=EncoderParams.initialize((3, 8, c), seed=4),
        attention=AttentionParams.initialize(c, seed=5),
    )
    return shape_model, app_model


class TestRegister:
    def test_centroid_is_mean_of_tracklet_embeddings(self):
        recs = _dataset(num_ids=2, tpi=3)
        sm, am = _models()
        index = register(recs, sm, am, centroid=True)
        assert len(index) == 2
        subject = index.entries[0].subject_id
        own = sorted(
            (r for r in recs if r.subject_id == subject), key=lambda r: r.tracklet_id
        )
        embs = [tracklet_embeddings(r, sm, am) for r in own]
        np.testing.assert_array_equal(
            index.entries[0].shape, np.mean([e[0] for e in embs], axis=0)
        )
        np.testing.assert_array_equal(
            index.entries[0].appearance, np.mean([e[1] for e in embs], axis=0)
        )
        assert index.entries[0].source_count == 3

    def test_registration_order_does_not_matter(self):
        recs = _dataset(num_ids=3, tpi=2)
        sm, am = _models()
        a = register(recs, sm, am, centroid=True)
        b = register(list(reversed(recs)), sm, am, centroid=True)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.subject_id == eb.subject_id
            np.testing.assert_array_equal(ea.shape, eb.shape)
            np.testing.assert_array_equal(ea.appearance, eb.appearance)

    def test_per_tracklet_mode_keeps_every_entry(self):
        recs = _dataset(num_ids=2, tpi=3)
        sm, am = _models()
        index = register(recs, sm, am, centroid=False)
        assert len(index) == 6
        assert all(e.source_count == 1 for e in index.entries)
        assert [e.subject_id for e in index.entries] == ["s000"] * 3 + ["s001"] * 3

    def test_empty_rejected(self):
        sm, am = _models()
        with pytest.raises(EmptyInput):
            register([], sm, am)

    @pytest.mark.parametrize("centroid", [True, False])
    def test_build_index_from_embeddings_matches_register(self, centroid):
        recs = _dataset(num_ids=3, tpi=2)
        sm, am = _models()
        shuffled = recs[3:] + recs[:3]
        built = build_index(
            shuffled, [tracklet_embeddings(r, sm, am) for r in shuffled], centroid=centroid
        )
        registered = register(recs, sm, am, centroid=centroid)
        assert [e.subject_id for e in built.entries] == [e.subject_id for e in registered.entries]
        for eb, er in zip(built.entries, registered.entries):
            np.testing.assert_array_equal(eb.shape, er.shape)
            np.testing.assert_array_equal(eb.appearance, er.appearance)
            assert eb.source_count == er.source_count

    def test_build_index_needs_one_embedding_per_tracklet(self):
        recs = _dataset(num_ids=1, tpi=2)
        sm, am = _models()
        with pytest.raises(InvalidInput):
            build_index(recs, [tracklet_embeddings(recs[0], sm, am)])


class TestTwoStageEmbedding:
    def test_embed_tracklet_is_finish_of_group_features(self):
        rec = _dataset(num_ids=1, tpi=1, frames=11)[0]
        _, am = _models()
        groups = am.group_features(rec.appearance)
        # 11 frames: one full group of 8, one resampled
        assert [g.shape for g in groups] == [(2, 16), (2, 16)]
        for gamma in (1.0, 0.3, 0.0):
            model = replace(am, gamma=gamma)
            direct = model.embed_tracklet(rec.appearance)
            finished = model.finish(groups)
            assert [p.shape for p in finished] == [(16,), (16,)]
            np.testing.assert_array_equal(finished[0], direct[0])
            np.testing.assert_array_equal(finished[1], direct[1])

    def test_flattening_comes_before_the_group_mean(self):
        rec = _dataset(num_ids=1, tpi=1, frames=16)[0]
        _, am = _models()
        attn, avg = am.group_features(rec.appearance)
        _, flat_avg = replace(am, gamma=0.0).finish((attn, avg))
        expected = np.mean([np.sign(group) for group in avg], axis=0)
        np.testing.assert_array_equal(flat_avg, expected)

    def test_tracklet_features_give_tracklet_embeddings(self):
        rec = _dataset(num_ids=1, tpi=1)[0]
        sm, am = _models()
        shape, groups = tracklet_features(rec, sm, am)
        app = am.vector(am.finish(groups))
        want_shape, want_app = tracklet_embeddings(rec, sm, am)
        np.testing.assert_array_equal(shape, want_shape)
        np.testing.assert_array_equal(app, want_app)


def _entry(subject="s0", shape=(1.0, 2.0, 3.0), appearance=(0.5, 0.25), count=1):
    return IndexEntry(subject, np.array(shape, dtype=float), np.array(appearance, dtype=float), count)


def _raw_index(entries, model_hash="0123456789ab") -> bytes:
    """The SHRCIDX2 bytes of `entries` as given, with none of save_index's checks."""

    def text(value: str) -> bytes:
        return struct.pack("<I", len(value.encode())) + value.encode()

    parts = [b"SHRCIDX2", text(model_hash), struct.pack("<I", len(entries))]
    for e in entries:
        parts.append(text(e.subject_id))
        for vec in (e.shape, e.appearance):
            parts += [struct.pack("<I", len(vec)), np.asarray(vec, dtype="<f4").tobytes()]
        parts.append(struct.pack("<I", e.source_count))
    return b"".join(parts)


# indexes that load_index refuses, and the message it refuses each with
_UNLOADABLE = [
    ([], "index has no entries"),
    ([_entry(shape=())], "entry 0 has an empty or non-finite shape vector"),
    ([_entry(appearance=(0.5, np.nan))], "entry 0 has an empty or non-finite appearance vector"),
    ([_entry(), _entry("s1", shape=(np.inf, 1.0, 2.0))], "entry 1 has an empty or non-finite shape vector"),
    ([_entry(), _entry("s1", shape=(1.0, 2.0))], "entry 1 shape width 2 differs from entry 0's 3"),
    ([_entry(), _entry("s1", appearance=(1.0,))], "entry 1 appearance width 1 differs from entry 0's 2"),
    ([_entry(count=0)], "entry 0 has a source count of 0"),
    ([_entry(), _entry("")], "entry 1 has an empty subject id"),
]
_UNLOADABLE_IDS = ["no-entries", "zero-width", "nan", "inf", "shape-widths", "appearance-widths", "count-0", "empty-id"]


class TestIndexFile:
    def test_roundtrip(self, tmp_path):
        recs = _dataset(num_ids=2, tpi=2)
        sm, am = _models()
        index = register(recs, sm, am)
        path = tmp_path / "g.shrc"
        save_index(index, path)
        loaded = load_index(path)
        assert [e.subject_id for e in loaded.entries] == [e.subject_id for e in index.entries]
        for ea, eb in zip(index.entries, loaded.entries):
            # persisted as f32
            np.testing.assert_allclose(eb.shape, ea.shape, rtol=0, atol=1e-6)
            np.testing.assert_allclose(eb.appearance, ea.appearance, rtol=0, atol=1e-6)
            assert eb.source_count == ea.source_count
        # save(load(x)) is byte-stable
        path2 = tmp_path / "g2.shrc"
        save_index(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_model_hash_roundtrip(self, tmp_path):
        recs = _dataset(num_ids=1, tpi=2)
        sm, am = _models()
        index = register(recs, sm, am)
        assert index.model_hash == ""
        path = tmp_path / "g.shrc"
        save_index(replace(index, model_hash="0123456789ab"), path)
        assert path.read_bytes()[:24] == b"SHRCIDX2" + b"\x0c\x00\x00\x00" + b"0123456789ab"
        assert load_index(path).model_hash == "0123456789ab"

    def test_version_1_index_asks_for_a_new_enroll(self, tmp_path):
        p = tmp_path / "old.shrc"
        p.write_bytes(b"SHRCIDX1" + b"\x00" * 4)
        with pytest.raises(CorruptIndex, match="old.shrc: SHRCIDX1 index has no model hash; re-run enroll"):
            load_index(p)

    def test_text_that_is_not_utf8_is_corrupt(self, tmp_path):
        p = tmp_path / "x.shrc"
        p.write_bytes(b"SHRCIDX2" + b"\x01\x00\x00\x00\xff" + b"\x00" * 4)
        with pytest.raises(CorruptIndex, match="not UTF-8"):
            load_index(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.shrc"
        p.write_bytes(b"WRONGMAG" + b"\x00" * 8)
        with pytest.raises(CorruptIndex):
            load_index(p)

    def test_truncation_and_trailing(self, tmp_path):
        recs = _dataset(num_ids=1, tpi=2)
        sm, am = _models()
        p = tmp_path / "x.shrc"
        save_index(register(recs, sm, am), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(CorruptIndex):
            load_index(p)
        p.write_bytes(raw + b"\x00")
        with pytest.raises(CorruptIndex):
            load_index(p)

    def test_truncation_names_the_path_and_the_offset(self, tmp_path):
        p = tmp_path / "x.shrc"
        save_index(GalleryIndex(entries=[_entry()], model_hash="0123456789ab"), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-2])
        # the cut falls in the last field, the u32 source count
        with pytest.raises(CorruptIndex, match=f"x.shrc: truncated at byte {len(raw) - 4}$"):
            load_index(p)

    @pytest.mark.parametrize("entries, message", _UNLOADABLE, ids=_UNLOADABLE_IDS)
    def test_refuses_what_save_index_never_writes(self, tmp_path, entries, message):
        p = tmp_path / "bad.shrc"
        p.write_bytes(_raw_index(entries))
        with pytest.raises(CorruptIndex, match=f"bad.shrc: {message}"):
            load_index(p)

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "entries, message",
        _UNLOADABLE
        + [
            ([_entry(shape=(1.0, 1e39, 2.0))], "entry 0 has an empty or non-finite shape vector"),
            ([_entry(), _entry("s1", appearance=(-1e39, 0.5))], "entry 1 has an empty or non-finite appearance"),
            ([_entry(shape=((1.0, 2.0, 3.0),))], r"entry 0 shape vector has shape \(1, 3\), need one axis"),
        ],
        ids=_UNLOADABLE_IDS + ["f32-overflow", "f32-negative-overflow", "two-axes"],
    )
    def test_save_index_refuses_what_load_index_refuses(self, tmp_path, entries, message):
        p = tmp_path / "bad.shrc"
        with pytest.raises(InvalidInput, match=f"bad.shrc: {message}"):
            save_index(GalleryIndex(entries=entries, model_hash="0123456789ab"), p)
        assert not p.exists()

    @pytest.mark.parametrize("count", [-1, 2**32])
    def test_save_index_refuses_a_source_count_u32_cannot_hold(self, tmp_path, count):
        p = tmp_path / "bad.shrc"
        with pytest.raises(InvalidInput, match=f"bad.shrc: entry 0 has a source count of {count}$"):
            save_index(GalleryIndex(entries=[_entry(count=count)]), p)
        assert not p.exists()


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
class TestIndexFileFuzz:
    """Any damaged SHRCIDX2 file is refused as `CorruptIndex`, or it reads as
    an index that `save_index` writes back to the same bytes."""

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "index.shrc"
        entries = [_entry(), _entry("s1", shape=(-4.0, 0.5, 6.0), appearance=(0.125, 3.0), count=2)]
        save_index(GalleryIndex(entries=entries, model_hash="0123456789ab"), path)
        return path.read_bytes()

    @staticmethod
    def _refused_or_stable(tmp_path, raw):
        path = tmp_path / "damaged.shrc"
        path.write_bytes(raw)
        try:
            index = load_index(path)
        except CorruptIndex:
            return
        assert isinstance(index, GalleryIndex)
        again = tmp_path / "again.shrc"
        save_index(index, again)
        assert again.read_bytes() == raw

    def test_every_truncation_is_refused_or_stable(self, tmp_path):
        # every cut point, not a sample: the 2-entry file has 104 of them
        raw = self._saved(tmp_path)
        assert len(raw) == 104
        for n in range(len(raw)):
            self._refused_or_stable(tmp_path, raw[:n])

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_byte_mutation_is_refused_or_stable(self, tmp_path, data):
        raw = bytearray(self._saved(tmp_path))
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        # 0x7F or 0xFF in a float's high byte makes it inf or NaN when the next
        # byte's top bit is set
        values = st.sampled_from([0x00, 0x7F, 0x80, 0xFF]) | st.integers(0, 255)
        raw[pos] = data.draw(values.filter(lambda v: v != raw[pos]), label="value")
        self._refused_or_stable(tmp_path, bytes(raw))

    @pytest.mark.parametrize("entry, name", [(0, "shape"), (1, "appearance")])
    def test_signalling_nan_is_refused_without_a_warning(self, tmp_path, entry, name):
        raw = bytearray(self._saved(tmp_path))
        # magic, model hash and entry count; each entry is a 2-byte subject id,
        # 3 shape and 2 appearance floats and a count: 38 bytes
        off = 8 + 4 + 12 + 4 + 38 * entry + 4 + 2 + 4
        if name == "appearance":
            off += 12 + 4
        raw[off : off + 4] = struct.pack("<I", 0x7F800001)
        path = tmp_path / "snan.shrc"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndex, match=f"snan.shrc: entry {entry} has an empty or non-finite {name} vector"):
            load_index(path)


class TestManifest:
    def test_roundtrip_with_comment(self, tmp_path):
        rows = [
            ManifestRow("s000_t00", "s000", "c0", "frames/s000_t00.dat"),
            ManifestRow("s001_t00", "s001", "c1", "frames/s001_t00.dat"),
        ]
        p = tmp_path / "m.csv"
        write_manifest(rows, p, header_comment="tool 0.0 config=abc")
        assert p.read_text().startswith("# tool 0.0 config=abc\n")
        assert read_manifest(p) == rows

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInput):
            read_manifest(p)

    def test_rejects_a_repeated_tracklet(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "# c\ntracklet_id,subject_id,clothing_id,frames_path\n"
            "s000_t00,s000,c0,frames/s000_t00.dat\n"
            "s000_t01,s000,c0,frames/s000_t01.dat\n"
            "s000_t00,s000,c0,frames/s000_t00.dat\n"
        )
        # the comment is line 1 and the header line 2
        with pytest.raises(InvalidInput, match="m.csv: line 5 repeats tracklet 's000_t00' of line 3"):
            read_manifest(p)

    def test_write_refuses_a_repeated_tracklet(self, tmp_path):
        # read_manifest would refuse the file, so it is not written
        rows = [
            ManifestRow("t0", "s000", "c0", "frames/t0.dat"),
            ManifestRow("t1", "s000", "c0", "frames/t1.dat"),
            ManifestRow("t0", "s001", "c1", "frames/t0b.dat"),
        ]
        p = tmp_path / "m.csv"
        with pytest.raises(InvalidInput, match="m.csv: tracklet 't0' appears twice"):
            write_manifest(rows, p)
        assert not p.exists()

    def test_rejects_text_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"tracklet_id,subject_id,clothing_id,frames_path\ns\xff,s,c,f.dat\n")
        with pytest.raises(InvalidInput, match="m.csv: manifest is not UTF-8"):
            read_manifest(p)
