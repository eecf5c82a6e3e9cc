import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sharc.config import MAX_KEYPOINT_JITTER, SECTIONS, build_appearance_model, build_shape_model, parse_config
from sharc.exceptions import ConfigError, InvalidInput
from sharc.synth import DatasetSpec


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, ""))
        assert cfg.dataset.num_ids == 8
        assert cfg.model.alpha == 0.1
        assert cfg.model.gamma == 0.0
        assert cfg.protocol.gallery_ratio == 0.5
        assert cfg.ablation.centroid is True
        assert cfg.paths.data_dir == "out"
        assert cfg.train.objective == "shape"

    def test_values_override_defaults(self, tmp_path):
        cfg = parse_config(
            _write(
                tmp_path,
                "[dataset]\nnum_ids = 5\nseed = 9\n\n"
                "[model]\nalpha = 0.25\nhpp_mode = mean\n\n"
                "[ablation]\ndrop_smpl = yes\nuse_avg = off\n",
            )
        )
        assert cfg.dataset.num_ids == 5
        assert cfg.dataset.seed == 9
        assert cfg.model.alpha == 0.25
        assert cfg.model.hpp_mode == "mean"
        assert cfg.ablation.drop_smpl is True
        assert cfg.ablation.use_avg is False

    def test_unknown_section_and_key_name_the_culprit(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[nonsense]\nx = 1\n"))
        assert err.value.field == "nonsense"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\nalpa = 0.1\n"))
        assert err.value.field == "model.alpa"

    def test_type_and_range_errors_name_the_field(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[dataset]\nnum_ids = many\n"))
        assert err.value.field == "dataset.num_ids"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\nalpha = 1.7\n"))
        assert err.value.field == "model.alpha"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\nnormalize_parts = maybe\n"))
        assert err.value.field == "model.normalize_parts"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\nta_target = sideways\n"))
        assert err.value.field == "model.ta_target"

    @pytest.mark.parametrize(
        "word, value",
        [("true", True), ("yes", True), ("on", True), ("1", True),
         ("false", False), ("no", False), ("off", False), ("0", False)],
    )
    @pytest.mark.parametrize("spell", [str.lower, str.upper, str.title], ids=["lower", "upper", "title"])
    def test_boolean_words_in_any_case_and_spacing(self, tmp_path, word, value, spell):
        cfg = parse_config(_write(tmp_path, f"[ablation]\ncentroid =  {spell(word)}  \t\ndrop_smpl={spell(word)}\n"))
        assert cfg.ablation.centroid is value
        assert cfg.ablation.drop_smpl is value

    @pytest.mark.parametrize("text", ["maybe", "2", "y", "t", "enabled"])
    def test_other_boolean_words_name_the_field(self, tmp_path, text):
        with pytest.raises(ConfigError, match=f"^ablation.use_attn: expected a boolean, got '{text}'$") as err:
            parse_config(_write(tmp_path, f"[ablation]\nuse_attn = {text}\n"))
        assert err.value.field == "ablation.use_attn"

    @pytest.mark.parametrize("value", ["1e200", "4e37", "inf", "nan"])
    def test_keypoint_jitter_that_could_overflow_float32_names_the_field(self, tmp_path, value):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, f"[dataset]\nkeypoint_jitter = {value}\n"))
        assert err.value.field == "dataset.keypoint_jitter"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "section, key", [("dataset", "appearance_shift"), ("train", "noise"), ("train", "lr")]
    )
    def test_non_finite_value_names_the_field(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, f"[{section}]\n{key} = {value}\n"))
        assert err.value.field == f"{section}.{key}"

    def test_keypoint_jitter_up_to_the_float32_bound_is_accepted(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[dataset]\nkeypoint_jitter = 3.9e37\n"))
        assert cfg.dataset.keypoint_jitter == 3.9e37

    def test_group_size_is_not_a_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\ngroup_size = 8\n"))
        assert err.value.field == "model.group_size"
        cfg = parse_config(_write(tmp_path, "[model]\npyramid_levels = 2\n"))
        assert build_appearance_model(cfg).attention.group_size == 4

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[dataset]\nheight = 12\n", "model.bins"),
            ("[dataset]\nheight = 20\n", "model.bins"),
            ("[dataset]\nheight = 18\n", "dataset.height"),
            ("[dataset]\nwidth = 10\n", "dataset.width"),
            # below the smallest frame grid a dataset accepts
            ("[dataset]\nheight = 2\n", "dataset.height"),
            ("[dataset]\nwidth = 2\n", "dataset.width"),
            ("[model]\nbins = 3\n", "model.bins"),
            # a DatasetSpec may hold one tracklet per subject, but a run cannot split it
            ("[dataset]\ntracklets_per_id = 1\n", "dataset.tracklets_per_id"),
            ("[train]\nobjective = appearance\nnum_ids = 1\n", "train.num_ids"),
        ],
    )
    def test_geometry_is_checked_at_parse_time(self, tmp_path, text, field):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.field == field

    def test_geometry_that_fits_is_accepted(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[dataset]\nheight = 24\nwidth = 12\n\n[model]\nbins = 6\n"))
        assert (cfg.dataset.height, cfg.dataset.width, cfg.model.bins) == (24, 12, 6)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("num_ids", 0),
            ("tracklets_per_id", 0),
            ("frames_per_tracklet", 0),
            ("clothing_variants", 0),
            ("sil_flip_rate", 1.5),
            ("keypoint_jitter", -0.1),
            ("appearance_shift", float("nan")),
            ("height", 3),
            ("width", 2),
        ],
    )
    def test_a_dataset_rule_refuses_a_config_and_a_spec_alike(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, f"[dataset]\n{key} = {value}\n"))
        assert err.value.field == f"dataset.{key}"
        with pytest.raises(InvalidInput, match=f"^{key} must be"):
            DatasetSpec(**{key: value})

    def test_one_training_class_is_accepted_under_the_shape_objective(self, tmp_path):
        assert parse_config(_write(tmp_path, "[train]\nnum_ids = 1\n")).train.num_ids == 1

    def test_unparseable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "no section header\n"))


class TestHash:
    def test_hash_ignores_formatting_but_not_values(self, tmp_path):
        a = parse_config(_write(tmp_path, "[model]\nalpha = 0.2\n", "a.cfg"))
        b = parse_config(
            _write(tmp_path, "; comment\n[model]\nalpha=0.2\n\n[dataset]\nnum_ids = 8\n", "b.cfg")
        )
        c = parse_config(_write(tmp_path, "[model]\nalpha = 0.3\n", "c.cfg"))
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 12
        assert set(a.hash()) <= set("0123456789abcdef")

    @pytest.mark.parametrize(
        "text, config_hash, model_hash",
        [
            ("", "6c76fdaa33a6", "ac976f5b1d76"),
            (
                "[dataset]\nnum_ids = 5\nkeypoint_jitter = 0.25\nheight = 24\n"
                "[model]\nhpp_mode = mean\ngamma = 0.5\nbins = 3\n[ablation]\ndrop_smpl = yes\n"
                "[paths]\ndata_dir = elsewhere\n[train]\nobjective = appearance\nlr = 0.01\n",
                "fa08f5282fc8",
                "6e16d5a3aba3",
            ),
        ],
        ids=["defaults", "one-key-per-section"],
    )
    def test_hashes_are_pinned(self, tmp_path, text, config_hash, model_hash):
        # every output file starts with the config hash and every index holds
        # the model hash, so a change to either orphans existing results
        cfg = parse_config(_write(tmp_path, text))
        assert (cfg.hash(), cfg.model_hash()) == (config_hash, model_hash)

    def test_resolved_items_are_sorted_and_complete(self, tmp_path):
        cfg = parse_config(_write(tmp_path, ""))
        items = cfg.resolved_items()
        keys = [k for k, _ in items]
        assert keys == sorted(keys)
        assert "model.alpha" in keys
        assert "paths.data_dir" in keys
        assert "train.steps" in keys

    @pytest.mark.parametrize(
        "text, changes",
        [
            ("[model]\nalpha = 0.7\n", False),
            ("[model]\nrescale_appearance = false\n", False),
            ("[dataset]\nnum_ids = 3\n[protocol]\nsplit_seed = 9\n[train]\nsteps = 7\n", False),
            ("[paths]\ndata_dir = elsewhere\n", False),
            ("[model]\nencoder_seed = 6\n", True),
            ("[model]\ngamma = 0.5\n", True),
            ("[model]\npyramid_levels = 2\n", True),
            ("[ablation]\ncentroid = false\n", True),
            ("[ablation]\ndrop_smpl = true\n", True),
        ],
    )
    def test_model_hash_covers_the_keys_that_change_stored_vectors(self, tmp_path, text, changes):
        base = parse_config(_write(tmp_path, "", "base.cfg")).model_hash()
        other = parse_config(_write(tmp_path, text, "other.cfg")).model_hash()
        assert (other != base) == changes
        assert len(base) == 12


class TestBuilders:
    def test_shape_model_respects_channel_config(self, tmp_path):
        cfg = parse_config(
            _write(
                tmp_path,
                "[dataset]\nheight = 24\n\n[model]\nchannels = 12\nmotion_channels = 10\nbins = 3\n",
            )
        )
        sm = build_shape_model(cfg)
        assert sm.sil_encoder.output_dim == 12
        assert sm.smpl_encoder.output_dim == 12
        assert sm.skeleton_encoder.output_dim == 10
        assert sm.bins == 3
        assert sm.motion_projection is not None  # 10 motion channels project to 12

    def test_appearance_model_gamma_override(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "[model]\ngamma = 0.2\n"))
        assert build_appearance_model(cfg).gamma == 0.2

    def test_builders_are_deterministic(self, tmp_path):
        cfg = parse_config(_write(tmp_path, ""))
        import numpy as np

        a, b = build_shape_model(cfg), build_shape_model(cfg)
        for (wa, ba), (wb, bb) in zip(a.sil_encoder.layers, b.sil_encoder.layers):
            np.testing.assert_array_equal(wa, wb)


def _readme_default(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"`{value}`" if isinstance(value, str) else repr(value)


def test_readme_key_table_lists_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `\[(\w+)\]` \| (.+) \|$", readme, flags=re.M))
    assert set(rows) == set(SECTIONS)
    for section, cls in SECTIONS.items():
        listed = re.findall(r"`(\w+)` \(([^)]+)\)", rows[section])
        declared = [(f.name, _readme_default(f.default)) for f in fields(cls)]
        assert listed == declared, section


def test_max_keypoint_jitter_is_the_float32_bound_without_numpy():
    # config spells the largest float32 as a hex literal so that parsing needs no numpy
    assert MAX_KEYPOINT_JITTER == float(np.finfo(np.float32).max) / 8.6
