import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sharc.encoders import (
    ENCODER_MAGIC,
    EncoderParams,
    _grid_forward,
    encode_appearance,
    encode_silhouette,
    encode_skeleton_sequence,
    encode_smpl,
    load_encoder,
    save_encoder,
)
from sharc.exceptions import CorruptFile, DimMismatch, EmptyInput, InvalidInput
from sharc.synth import SKELETON_INPUT_DIM, TrackletRecord


def _sil(h=8, w=8):
    """(1, h, w) mask and (1, h, w, 3) RGB already zero outside it."""
    mask = ((np.indices((h, w)).sum(axis=0) % 3) == 0).astype(float)
    rgb = mask[:, :, None] * np.linspace(0.0, 1.0, h * w * 3).reshape(h, w, 3)
    return mask[None], rgb[None]


def _smpl():
    """(1, 85) body vector: camera, shape, joint rotations."""
    return np.concatenate(
        [np.array([0.1, -0.2, 0.3]), np.linspace(-1, 1, 10), np.sin(np.arange(72) * 0.1)]
    )[None]


def _record(**arrays):
    """A valid one-frame 4x4 record, with any of its arrays replaced."""
    fields = dict(
        masks=np.ones((1, 4, 4)),
        appearance=np.full((1, 4, 4, 3), 0.5),
        body=np.zeros((1, 85)),
        skeleton=np.full((1, SKELETON_INPUT_DIM), 0.5),
    )
    fields.update(arrays)
    return TrackletRecord(tracklet_id="t", subject_id="s", clothing_id="c", **fields)


class TestInputTypes:
    def test_silhouette_rejects_nonbinary_mask(self):
        with pytest.raises(InvalidInput):
            _record(masks=np.full((1, 4, 4), 0.5))

    def test_silhouette_rejects_rgb_out_of_range(self):
        with pytest.raises(InvalidInput):
            _record(appearance=np.full((1, 4, 4, 3), 1.5))

    def test_silhouette_keeps_the_frame_and_masks_it(self):
        mask = np.zeros((1, 4, 4))
        mask[0, 1:3, 1:3] = 1.0
        frame = np.full((1, 4, 4, 3), 0.25)
        rec = _record(masks=mask, appearance=frame)
        assert rec.appearance is frame  # the same array, not a copy
        # colour outside the mask never reaches the silhouette encoder
        other = frame.copy()
        other[mask == 0.0] = 0.75
        enc = EncoderParams.initialize((4, 6), seed=21)
        np.testing.assert_array_equal(
            encode_silhouette(rec.masks, other, enc), encode_silhouette(rec.masks, frame, enc)
        )
        np.testing.assert_array_equal(frame, 0.25)

    def test_stacked_layout(self):
        mask, rgb = _sil()
        enc = EncoderParams.initialize((4, 6, 8), seed=21)
        stacked = np.zeros((1, 8, 8, 4))
        stacked[..., 0] = mask
        stacked[..., 1:] = np.where(mask[..., None] == 1.0, rgb, 0.0)
        np.testing.assert_array_equal(encode_silhouette(mask, rgb, enc), _grid_forward(stacked, enc))

    def test_smpl_dims_enforced(self):
        with pytest.raises(InvalidInput):
            _record(body=np.zeros((1, 84)))
        with pytest.raises(InvalidInput):
            _record(body=np.zeros((2, 85)))
        assert _record(body=_smpl()).body.shape == (1, 85)

    def test_skeleton_dims_and_confidence(self):
        with pytest.raises(InvalidInput):
            _record(skeleton=np.zeros((1, 48)))
        with pytest.raises(InvalidInput):
            _record(skeleton=np.full((1, SKELETON_INPUT_DIM), 1.5))  # confidences above 1
        assert _record(skeleton=np.ones((1, SKELETON_INPUT_DIM))).skeleton.shape == (1, 51)

    def test_joint_coordinates_are_not_confidences(self):
        # x, y of the 17 joints come first and may leave [0, 1]
        skeleton = np.full((1, SKELETON_INPUT_DIM), 0.5)
        skeleton[0, :34] = -3.0
        _record(skeleton=skeleton)
        skeleton[0, 34] = -0.1
        with pytest.raises(InvalidInput, match="confidences"):
            _record(skeleton=skeleton)

    @pytest.mark.parametrize("name", ["appearance", "body", "skeleton"])
    def test_non_finite_entries_rejected(self, name):
        arr = getattr(_record(), name).copy()
        arr.reshape(-1)[0] = np.nan
        with pytest.raises(InvalidInput, match="finite"):
            _record(**{name: arr})

    def test_modalities_must_agree_on_frames(self):
        with pytest.raises(InvalidInput):
            _record(appearance=np.full((1, 4, 2, 3), 0.5))
        with pytest.raises(InvalidInput):
            _record(skeleton=np.full((2, SKELETON_INPUT_DIM), 0.5))
        with pytest.raises(InvalidInput):
            _record(masks=np.ones((4, 4)))

    def test_no_frames_rejected(self):
        with pytest.raises(EmptyInput):
            _record(masks=np.ones((0, 4, 4)), appearance=np.ones((0, 4, 4, 3)),
                    body=np.zeros((0, 85)), skeleton=np.zeros((0, 51)))

    @pytest.mark.parametrize("h, w", [(0, 3), (3, 0), (0, 0)])
    def test_frames_without_pixels_rejected(self, h, w):
        # InvalidInput naming the tracklet, not numpy's zero-size reduction error
        with pytest.raises(InvalidInput, match=rf"^tracklet t: frames must have at least one pixel, got {h}x{w}$"):
            _record(masks=np.ones((1, h, w)), appearance=np.ones((1, h, w, 3)))


class TestParams:
    def test_initialize_is_deterministic(self):
        a = EncoderParams.initialize((4, 6, 8), seed=3)
        b = EncoderParams.initialize((4, 6, 8), seed=3)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_initialize_bounds(self):
        p = EncoderParams.initialize((9, 5), seed=1)
        w, b = p.layers[0]
        assert w.shape == (5, 9) and b.shape == (5,)
        bound = 1.0 / 3.0  # 1/sqrt(fan_in)
        assert np.abs(w).max() <= bound and np.abs(b).max() <= bound

    def test_dims_properties(self):
        p = EncoderParams.initialize((4, 6, 8), seed=0)
        assert p.input_dim == 4 and p.output_dim == 8

    def test_rejects_inconsistent_layers(self):
        w1, b1 = np.zeros((6, 4)), np.zeros(6)
        w2, b2 = np.zeros((8, 5)), np.zeros(8)  # expects 6 inputs
        with pytest.raises(DimMismatch):
            EncoderParams(layers=((w1, b1), (w2, b2)))


class TestForward:
    def test_silhouette_output_shape_and_pooling(self):
        enc = EncoderParams.initialize((4, 6, 8), seed=21)
        out = encode_silhouette(*_sil(), enc)
        assert out.shape == (1, 2, 2, 8)

    def test_silhouette_golden_values(self):
        # frozen output of the committed seed; guards against silent changes
        # to initialization order or the forward pass
        enc = EncoderParams.initialize((4, 6, 8), seed=21)
        out = encode_silhouette(*_sil(), enc)[0]
        c00 = [0.26434253723408896, 0.0, 0.06918787484902808, 0.3545987236029784,
               0.3976584955559581, 0.2981803921051417, 0.0, 0.0]
        c11 = [0.2346447887233394, 0.0, 0.06740278993328563, 0.3568957739949148,
               0.39510534894481963, 0.2620972764669319, 0.0, 0.0]
        np.testing.assert_allclose(out[0, 0], c00, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[1, 1], c11, rtol=0, atol=1e-12)

    def test_odd_grid_rejected(self):
        enc = EncoderParams.initialize((4, 6), seed=21)
        mask = np.ones((1, 5, 8))
        rgb = np.zeros((1, 5, 8, 3))
        rgb[:] = 0.5
        with pytest.raises(DimMismatch):
            encode_silhouette(mask, rgb, enc)

    def test_smpl_broadcast_golden(self):
        enc = EncoderParams.initialize((85, 12, 8), seed=22)
        out = encode_smpl(_smpl(), enc)
        assert out.shape == (1, 8)  # one body vector per frame
        s00 = [0.0, 0.05976064086282433, 0.052674538698834525, 0.0,
               0.04801009990570841, 0.0, 0.0, 0.05696734396176384]
        np.testing.assert_allclose(out[0], s00, rtol=0, atol=1e-12)

    def test_skeleton_sequence_shape(self):
        enc = EncoderParams.initialize((SKELETON_INPUT_DIM, 10, 6), seed=4)
        frames = np.array([np.r_[np.full(34, 0.1 * t), np.full(17, 1.0)] for t in range(5)])
        out = encode_skeleton_sequence(frames, enc)
        assert out.shape == (5, 6)
        with pytest.raises(EmptyInput):
            encode_skeleton_sequence(np.zeros((0, 51)), enc)

    def test_appearance_encoder(self):
        enc = EncoderParams.initialize((3, 5, 7), seed=6)
        out = encode_appearance(np.full((1, 8, 8, 3), 0.25), enc)
        assert out.shape == (1, 2, 2, 7)

    def test_outputs_nonnegative(self):
        # every block ends in a ReLU
        enc = EncoderParams.initialize((4, 6, 8), seed=21)
        assert encode_silhouette(*_sil(), enc).min() >= 0.0


class TestSerialization:
    def test_roundtrip_exact_after_f32(self, tmp_path):
        p = EncoderParams.initialize((4, 6, 8), seed=9)
        path = tmp_path / "enc.bin"
        save_encoder(p, path)
        q = load_encoder(path)
        # weights are persisted as f32; saving the loaded params again must
        # be byte-identical (f32 -> f64 -> f32 is lossless)
        path2 = tmp_path / "enc2.bin"
        save_encoder(q, path2)
        assert path.read_bytes() == path2.read_bytes()
        for (wp, bp), (wq, bq) in zip(p.layers, q.layers):
            np.testing.assert_allclose(wq, wp, rtol=0, atol=1e-7)
            np.testing.assert_allclose(bq, bp, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("value", [1e39, -np.inf, np.nan])
    def test_save_refuses_weights_float32_cannot_hold(self, tmp_path, value):
        p = EncoderParams.initialize((4, 6, 8), seed=9)
        w, b = p.layers[1]
        w = w.copy()
        w[2, 3] = value
        bad = EncoderParams(layers=(p.layers[0], (w, b)))
        path = tmp_path / "enc.bin"
        with pytest.raises(InvalidInput, match="enc.bin: layer 1 has weights or biases that are not finite in float32"):
            save_encoder(bad, path)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CorruptFile):
            load_encoder(path)

    def test_truncated(self, tmp_path):
        p = EncoderParams.initialize((4, 6), seed=9)
        path = tmp_path / "enc.bin"
        save_encoder(p, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(CorruptFile):
            load_encoder(path)

    def test_truncation_names_the_path_and_the_offset(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(EncoderParams.initialize((4, 6), seed=9), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-2])
        # the cut falls in the last field, the 6 f32 biases
        with pytest.raises(CorruptFile, match=f"enc.bin: truncated at byte {len(raw) - 24}$"):
            load_encoder(path)

    def test_signalling_nan_is_refused_without_a_warning(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(EncoderParams.initialize((4, 6), seed=9), path)
        raw = bytearray(path.read_bytes())
        # the first weight, after the magic and the layer header
        raw[16:20] = struct.pack("<I", 0x7F800001)
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorruptFile, match="layer 0 has non-finite weights or biases"):
                load_encoder(path)

    @pytest.mark.parametrize(
        "layers, message",
        [
            ([(np.array([[1.0, np.nan]]), np.zeros(1))], "layer 0 has non-finite weights or biases"),
            ([(np.ones((2, 3)), np.zeros(2)), (np.ones((1, 2)), np.array([np.inf]))], "layer 1 has non-finite"),
            ([(np.ones((0, 3)), np.zeros(0))], "layer 0 is 0x3"),
            ([(np.ones((2, 3)), np.zeros(2)), (np.ones((2, 0)), np.zeros(2))], "layer 1 is 2x0"),
            ([(np.ones((2, 3)), np.zeros(2)), (np.ones((1, 4)), np.zeros(1))], "layer 1 takes 4 inputs, layer 0 emits 2"),
        ],
        ids=["nan-weight", "inf-bias", "no-rows", "no-columns", "width-mismatch"],
    )
    def test_refuses_layers_no_encoder_has(self, tmp_path, layers, message):
        path = tmp_path / "enc.bin"
        with open(path, "wb") as f:
            f.write(ENCODER_MAGIC)
            for w, b in layers:
                f.write(struct.pack("<II", *w.shape) + w.astype("<f4").tobytes() + b.astype("<f4").tobytes())
        with pytest.raises(CorruptFile, match=f"enc.bin: {message}"):
            load_encoder(path)


class TestEncoderFileFuzz:
    """Any damaged SHRCENC1 file is refused as `CorruptFile`, or it reads as
    parameters that `save_encoder` writes back to the same bytes."""

    @staticmethod
    def _saved(tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(EncoderParams.initialize((4, 6, 8), seed=9), path)
        return path.read_bytes()

    @staticmethod
    def _refused_or_stable(tmp_path, raw):
        path = tmp_path / "damaged.bin"
        path.write_bytes(raw)
        try:
            params = load_encoder(path)
        except CorruptFile:
            return
        assert isinstance(params, EncoderParams)
        again = tmp_path / "again.bin"
        save_encoder(params, again)
        assert again.read_bytes() == raw

    def test_every_truncation_is_refused_or_stable(self, tmp_path):
        # every cut point, not a sample: the 2-layer file has 368 of them
        raw = self._saved(tmp_path)
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
