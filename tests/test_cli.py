import errno
import filecmp
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

import sharc.gallery
import sharc.losses
import sharc.synth
import sharc.tables
from sharc.cli import main
from sharc.config import build_appearance_model, build_shape_model, parse_config
from sharc.encoders import CHUNK_ROWS
from sharc.gallery import register, save_index
from sharc.synth import load_dataset
from sharc.tables import read_manifest

SMALL_CFG = """
[dataset]
num_ids = 3
tracklets_per_id = 2
frames_per_tracklet = 6
height = 8
width = 8
seed = 13

[model]
bins = 2
channels = 8
motion_channels = 6

[train]
num_ids = 3
samples_per_id = 3
input_dim = 6
hidden_dim = 8
embed_dim = 6
steps = 5
"""


@pytest.fixture
def workspace(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    data_dir = tmp_path / "data"
    cfg_path.write_text(SMALL_CFG + f"\n[paths]\ndata_dir = {data_dir}\n")
    return cfg_path, data_dir, tmp_path


def _run(args):
    return main([str(a) for a in args])


def _expected_comment(cfg_path):
    from sharc import __version__

    return f"# sharc {__version__} config={parse_config(cfg_path).hash()}"


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        assert _run(["synth", "--config", tmp_path / "nope.cfg"]) == 2
        assert "missing file" in capsys.readouterr().err
        assert "nope.cfg" in str(tmp_path / "nope.cfg")

    def test_invalid_config_is_3_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nalpha = 1.7\n")
        assert _run(["synth", "--config", bad, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert "invalid config" in err and "model.alpha" in err

    def test_config_that_is_not_utf8_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[model]\nalpha = 0.5\n# caf\xe9\n")
        assert _run(["synth", "--config", bad, "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == "error: invalid config: (file): config is not UTF-8 text\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[]\nx = 1\n", "line: 1"),
            ("[dataset]\n  num_ids\n", "[line  2]"),
            ("[model]\n[model]\n", "[line  2]"),
            ("[model]\nalpha = 0.5\nalpha = 0.6\n", "[line  3]"),
        ],
        ids=["bad_section_header", "indented_key_with_no_value", "repeated_section", "repeated_key"],
    )
    def test_unparseable_config_is_3_in_one_line(self, tmp_path, capsys, text, line):
        # configparser's messages span up to three lines
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert _run(["synth", "--config", bad, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: (file): unparseable config: ") and err.count("\n") == 1
        assert line in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, out, bad, code",
        [
            ("run.cfg", "blocker", "blocker", errno.EEXIST),
            ("run.cfg", "blocker/run", "blocker/run", errno.ENOTDIR),
            (".", "run", ".", errno.EISDIR),
        ],
        ids=["out_names_a_file", "out_under_a_file", "config_names_a_directory"],
    )
    def test_path_the_command_cannot_use_is_2_naming_it(self, workspace, capsys, config, out, bad, code):
        _, _, tmp = workspace
        (tmp / "blocker").write_text("")
        assert _run(["synth", "--config", tmp / config, "--out", tmp / out]) == 2
        assert capsys.readouterr().err == f"error: {tmp / bad}: {os.strerror(code)}\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            # configparser's default section would feed num_ids to every section
            ("[DEFAULT]\nnum_ids = 3\n", "DEFAULT"),
            ("[paths]\ndata_dir =\n", "paths.data_dir"),
            # a group of 2 ** 40 frames, which enroll could never embed
            ("[model]\npyramid_levels = 40\n", "model.pyramid_levels"),
        ],
        ids=["default_section", "empty_data_dir", "pyramid_levels_40"],
    )
    def test_config_that_cannot_run_is_3_naming_the_field(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert _run(["synth", "--config", bad, "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err.startswith(f"error: invalid config: {field}: ")
        assert not (tmp_path / "o").exists()

    def test_unknown_key_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nwhatever = 1\n")
        assert _run(["synth", "--config", bad, "--out", tmp_path / "o"]) == 3
        assert "model.whatever" in capsys.readouterr().err

    def test_missing_inputs_are_2(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        # no dataset yet: enroll cannot find the gallery manifest
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        assert "gallery.csv" in capsys.readouterr().err
        # no index yet: query names it
        assert _run(["query", "--config", cfg_path, "--out", out]) == 2
        assert "index.shrc" in capsys.readouterr().err

    def test_malformed_query_manifest_is_2(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        (data_dir / "query.csv").write_text("id,who,outfit,where\n")
        capsys.readouterr()
        assert _run(["query", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "query.csv" in err
        assert "Traceback" not in err

    def test_a_query_row_starting_with_hash_is_a_comment(self, workspace):
        # every table skips `#` lines wherever they stand, so no query id
        # that a score file would read as a comment reaches the scores
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        lines = (data_dir / "query.csv").read_text().splitlines()
        commented = lines[2].split(",")[0]
        lines[2] = "#" + lines[2]
        (data_dir / "query.csv").write_text("\n".join(lines) + "\n")
        assert _run(["query", "--config", cfg_path, "--out", out]) == 0
        for name in ("scores_shape.csv", "scores_appearance.csv", "scores_fused.csv"):
            ids = [row.split(",")[0] for row in (out / name).read_text().splitlines()[2:]]
            assert ids == [row.split(",")[0] for row in lines[3:]], name
            assert commented not in ids and "#" + commented not in ids

    @pytest.mark.parametrize(
        "command, manifest",
        [("enroll", "gallery.csv"), ("query", "query.csv"), ("ablate-gamma", "query.csv"),
         ("ablate-alpha", "gallery.csv")],
    )
    def test_manifest_naming_no_tracklet_is_2_naming_it(self, workspace, capsys, command, manifest):
        # before, query wrote header-only score files that evaluate then
        # refused without naming a file, and enroll and the sweeps named none
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        lines = (data_dir / manifest).read_text().splitlines()
        (data_dir / manifest).write_text("\n".join(lines[:2]) + "\n")
        capsys.readouterr()
        assert _run([command, "--config", cfg_path, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {data_dir / manifest}: names no tracklets\n"
        assert not list(out.glob("scores_*.csv")) and not list(out.glob("ablate_*.csv"))

    def test_old_frame_container_is_2_with_a_hint(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        # the one-file-per-tracklet layout's magic over the dataset's container
        container = data_dir / "frames-0.shrc"
        container.write_bytes(b"SHRCDAT4" + container.read_bytes()[8:])
        capsys.readouterr()
        assert _run(["ablate-alpha", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert container.name in err and "re-run synth" in err and "Traceback" not in err

    def test_repeated_gallery_row_is_2(self, workspace, capsys):
        # before, the tracklet counted twice in its subject's centroid
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        lines = (data_dir / "gallery.csv").read_text().splitlines()
        (data_dir / "gallery.csv").write_text("\n".join(lines + [lines[2]]) + "\n")
        capsys.readouterr()
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        tracklet = lines[2].split(",")[0]
        assert f"gallery.csv: line {len(lines) + 1} repeats tracklet '{tracklet}' of line 3" in err
        assert not (out / "index.shrc").exists()

    def test_repeated_query_row_is_2_with_no_scores(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        lines = (data_dir / "query.csv").read_text().splitlines()
        (data_dir / "query.csv").write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n")
        capsys.readouterr()
        assert _run(["query", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "query.csv: line 4 repeats tracklet" in err
        assert not list(out.glob("scores_*.csv"))

    def test_manifest_that_is_not_utf8_is_2(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        raw = (data_dir / "gallery.csv").read_bytes()
        (data_dir / "gallery.csv").write_bytes(raw + b"s\xff_t00,s\xff,c0,frames/x.dat\n")
        capsys.readouterr()
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "gallery.csv: manifest is not UTF-8" in err

    def test_manifest_field_over_the_old_csv_limit_reads(self, workspace, capsys):
        # csv refused a field over 131,072 characters; the table reader has
        # no field limit, so the row reads and its missing container is named
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        lines = (data_dir / "gallery.csv").read_text().splitlines()
        frames_path = "frames/" + "x" * 200_000 + ".dat"
        (data_dir / "gallery.csv").write_text("\n".join(lines + [f"t,s000,c0,{frames_path}"]) + "\n")
        capsys.readouterr()
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert err.endswith(f"gallery.csv: missing frame container {frames_path}\n")
        assert not (out / "index.shrc").exists()

    def test_frames_path_naming_a_directory_is_2(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        frames_path = (data_dir / "gallery.csv").read_text().splitlines()[2].split(",")[3]
        (data_dir / frames_path).unlink()
        (data_dir / frames_path).mkdir()
        capsys.readouterr()
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert f"gallery.csv: frame container {frames_path} is not a file" in err

    def test_keypoint_jitter_that_overflows_float32_is_3(self, workspace, capsys):
        # before, synth wrote inf into the containers and exited 0
        cfg_path, data_dir, tmp = workspace
        cfg_path.write_text(cfg_path.read_text().replace("seed = 13", "seed = 13\nkeypoint_jitter = 1e200"))
        assert _run(["synth", "--config", cfg_path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid config: dataset.keypoint_jitter")
        assert captured.err.count("\n") == 1
        assert not data_dir.exists()

    def test_one_tracklet_per_subject_is_3_before_any_frame_is_written(self, workspace, capsys):
        # before, synth wrote every frame container, then failed to split them
        cfg_path, data_dir, tmp = workspace
        cfg_path.write_text(cfg_path.read_text().replace("tracklets_per_id = 2", "tracklets_per_id = 1"))
        assert _run(["synth", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: dataset.tracklets_per_id: ") and err.count("\n") == 1
        assert not data_dir.exists()

    def test_frame_size_the_encoders_cannot_split_is_3_at_parse_time(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        bad = tmp / "tall.cfg"
        bad.write_text(cfg_path.read_text().replace("height = 8\n", "height = 12\n"))
        out = tmp / "o"
        assert _run(["synth", "--config", bad, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: model.bins: ")
        assert "dataset.height = 12" in err and "Traceback" not in err
        assert not out.exists()  # rejected before the command ran

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], "line 3: expected"),
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",abc"] + lines[3:],
             "line 3: non-numeric score"),
            (lambda lines: lines[:2] + ["nobody," + lines[2].split(",", 1)[1]] + lines[3:],
             "query id 'nobody' is not in"),
            (lambda lines: lines + ["\udcff\udcfe"], "score file is not UTF-8 text"),
            (lambda lines: lines[:3] + [lines[2]] + lines[3:], "line 4 repeats query id 's00"),
            (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + "," + lines[1].split(",")[1]] + lines[2:],
             "line 2: gallery id 's000' appears twice"),
            (lambda lines: lines[:2], "holds no query rows"),
        ],
        ids=["short_row", "non_numeric", "unknown_query", "not_utf8", "repeated_query", "repeated_gallery",
             "no_rows"],
    )
    def test_corrupt_fused_scores_are_2(self, workspace, capsys, corrupt, message):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        for command in ("synth", "enroll", "query"):
            assert _run([command, "--config", cfg_path, "--out", data_dir if command == "synth" else out]) == 0
        fused = out / "scores_fused.csv"
        text = "\n".join(corrupt(fused.read_text().splitlines())) + "\n"
        fused.write_bytes(text.encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        assert _run(["evaluate", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "scores_fused.csv" in err and message in err
        assert "Traceback" not in err
        assert not (out / "report.txt").exists()

    def test_index_of_other_width_is_2(self, workspace, capsys):
        # refused by its model hash before any query is read; the width check
        # itself is covered in test_matcher
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        wide = tmp / "wide.cfg"
        wide.write_text(cfg_path.read_text().replace("channels = 8\n", "channels = 16\n"))
        assert parse_config(wide).model.channels == 16
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", wide, "--out", out]) == 0
        (data_dir / "query.csv").unlink()
        capsys.readouterr()
        assert _run(["query", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        enrolled, own = parse_config(wide).model_hash(), parse_config(cfg_path).model_hash()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert enrolled in err and own in err and "Traceback" not in err
        assert not (out / "scores_fused.csv").exists()

    def test_index_of_other_model_is_2_naming_both_hashes(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        other = tmp / "other.cfg"
        other.write_text(cfg_path.read_text().replace("[model]\n", "[model]\nencoder_seed = 6\n"))
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", other, "--out", out]) == 0
        capsys.readouterr()
        assert _run(["query", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        enrolled, own = parse_config(other).model_hash(), parse_config(cfg_path).model_hash()
        assert enrolled != own
        assert err.startswith("error: ") and err.count("\n") == 1
        assert enrolled in err and own in err and "Traceback" not in err
        assert not (out / "scores_fused.csv").exists()

    def test_all_zero_shape_vectors_are_2_before_any_index_is_written(self, workspace, capsys):
        # before, enroll wrote all-zero shape centroids and query then failed
        cfg_path, data_dir, tmp = workspace
        cfg_path.write_text(
            cfg_path.read_text().replace("bins = 2\nchannels = 8\nmotion_channels = 6",
                                         "bins = 1\nchannels = 1\nmotion_channels = 1")
        )
        assert parse_config(cfg_path).model.channels == 1
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        capsys.readouterr()
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tracklet s00") and err.count("\n") == 1
        assert "shape vector is all zeros" in err and "Traceback" not in err
        assert not (out / "index.shrc").exists()

    def test_signalling_nan_in_the_index_is_2_in_one_line(self, workspace, capsys):
        # before, numpy warned about the cast to float64 ahead of the error line
        cfg_path, data_dir, tmp = workspace
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", data_dir]) == 0
        index = data_dir / "index.shrc"
        raw = bytearray(index.read_bytes())
        # magic, model hash, entry count and widths, the subject ids and the
        # source counts: then entry 0's shape vector
        off = 8 + 4 + struct.unpack_from("<I", raw, 8)[0]
        (count,) = struct.unpack_from("<I", raw, off)
        off += 12
        for _ in range(count):
            off += 4 + struct.unpack_from("<I", raw, off)[0]
        off += 4 * count
        raw[off : off + 4] = struct.pack("<I", 0x7F800001)
        index.write_bytes(bytes(raw))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert _run(["query", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {index}: entry 0 has a non-finite shape vector\n"
        assert not (data_dir / "scores_fused.csv").exists()

    def test_index_queries_under_another_alpha(self, workspace):
        # alpha only weighs the scores; the stored vectors do not depend on it
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        other = tmp / "other.cfg"
        other.write_text(cfg_path.read_text().replace("[model]\n", "[model]\nalpha = 0.7\n"))
        assert parse_config(other).model_hash() == parse_config(cfg_path).model_hash()
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        assert _run(["query", "--config", other, "--out", out]) == 0


class TestPipeline:
    def test_full_run_produces_commented_tables(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        comment = _expected_comment(cfg_path)

        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        for name in ("manifest.csv", "gallery.csv", "query.csv"):
            text = (data_dir / name).read_text()
            assert text.startswith(comment + "\n"), name

        assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
        assert (out / "index.shrc").exists()

        assert _run(["query", "--config", cfg_path, "--out", out]) == 0
        for name in ("scores_shape.csv", "scores_appearance.csv", "scores_fused.csv"):
            assert (out / name).read_text().startswith(comment + "\n"), name

        assert _run(["evaluate", "--config", cfg_path, "--out", out]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert report[0] == comment
        assert report[1].startswith("rank_1=")
        assert report[-1].startswith("map=")
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[1] == "rank_1,rank_5,rank_10,rank_20,map"
        out_text = capsys.readouterr().out
        assert "rank_1=" in out_text and "map=" in out_text

    def test_out_defaults_to_config_data_dir(self, workspace):
        # a config-only session must read and write one directory
        cfg_path, data_dir, tmp = workspace
        for command in ("synth", "enroll", "query", "evaluate"):
            assert _run([command, "--config", cfg_path]) == 0
        for name in ("gallery.csv", "index.shrc", "scores_fused.csv", "report.csv"):
            assert (data_dir / name).exists(), name

    def test_rerun_is_byte_identical(self, workspace):
        cfg_path, data_dir, tmp = workspace
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        out1, out2 = tmp / "r1", tmp / "r2"
        for out in (out1, out2):
            assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
            assert _run(["query", "--config", cfg_path, "--out", out]) == 0
        for name in ("index.shrc", "scores_fused.csv"):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    # the windowed gallery's 10 tracklets of 5 frames of 16x16 are windows of
    # 7 and 3, and the 7th straddles a frame chunk
    @pytest.mark.parametrize(
        "drop, windowed",
        [
            pytest.param(drop, windowed, id=drop + "-windowed" * windowed)
            for windowed in (False, True)
            for drop in ("drop_silhouette", "drop_smpl", "drop_skeleton")
        ],
    )
    def test_register_with_config_built_models_writes_the_enrolled_index(self, workspace, drop, windowed):
        # the models that config builds apply the [ablation] drops themselves,
        # and register packs the windows enroll packs, so the library path
        # gives the CLI's index byte for byte
        cfg_path, data_dir, tmp = workspace
        text = cfg_path.read_text()
        if windowed:
            text = text.replace(
                "num_ids = 3\ntracklets_per_id = 2\nframes_per_tracklet = 6\nheight = 8\nwidth = 8\n",
                "num_ids = 10\ntracklets_per_id = 2\nframes_per_tracklet = 5\nheight = 16\nwidth = 16\n",
            )
        cfg_path.write_text(text + f"\n[ablation]\n{drop} = true\n")
        cfg = parse_config(cfg_path)
        assert cfg.dataset.num_ids == (10 if windowed else 3)
        assert _run(["synth", "--config", cfg_path]) == 0
        assert _run(["enroll", "--config", cfg_path]) == 0
        index = register(
            list(load_dataset(data_dir / "gallery.csv")),
            build_shape_model(cfg),
            build_appearance_model(cfg),
            centroid=cfg.ablation.centroid,
        )
        save_index(replace(index, model_hash=cfg.model_hash()), tmp / "library.shrc")
        assert (tmp / "library.shrc").read_bytes() == (data_dir / "index.shrc").read_bytes()

    @pytest.mark.parametrize("command, manifest", [("enroll", "gallery.csv"), ("evaluate", "query.csv")])
    def test_an_empty_manifest_cell_is_2_in_one_line_naming_the_file_and_line(
        self, workspace, capsys, command, manifest
    ):
        cfg_path, data_dir, tmp = workspace
        for step in ("synth", "enroll", "query"):
            assert _run([step, "--config", cfg_path]) == 0
        path = data_dir / manifest
        # line 3, after the comment and the header, is the first row
        lines = path.read_text().splitlines()
        tracklet, _, rest = lines[2].split(",", 2)
        lines[2] = f"{tracklet},,{rest}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run([command, "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: empty subject_id\n"

    def test_threads_do_not_change_results(self, workspace):
        cfg_path, data_dir, tmp = workspace
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        out1, out2 = tmp / "t1", tmp / "t4"
        assert _run(["enroll", "--config", cfg_path, "--out", out1]) == 0
        assert _run(["enroll", "--config", cfg_path, "--out", out2, "--threads", "4"]) == 0
        assert filecmp.cmp(out1 / "index.shrc", out2 / "index.shrc", shallow=False)


# frames per tracklet and frame side of each dataset: 6 frames of 8x8 (384
# pixel rows) put a whole manifest in one window; 12 of 16x16 (3,072) close
# a window at 3 tracklets, 9,216 rows, in frame chunks of 32 and 4 frames;
# 8 of 32x32 are the whole budget, a window each
WINDOW_DATASETS = {"one_window": (6, 8), "three_a_window": (12, 16), "budget": (8, 32)}


@pytest.mark.parametrize("dataset", list(WINDOW_DATASETS))
@pytest.mark.parametrize(
    "command, embed, manifests",
    [
        ("enroll", "tracklet_embeddings", ["gallery.csv"]),
        ("query", "tracklet_embeddings", ["query.csv"]),
        ("ablate-gamma", "tracklet_features", ["gallery.csv", "query.csv"]),
        ("ablate-alpha", "tracklet_features", ["gallery.csv", "query.csv"]),
    ],
)
def test_each_window_is_embedded_before_the_next_is_read(workspace, monkeypatch, command, embed, manifests, dataset):
    # only ids and vectors outlive a window: no command holds every record
    cfg_path, data_dir, tmp = workspace
    frames, side = WINDOW_DATASETS[dataset]
    cfg_path.write_text(
        cfg_path.read_text().replace(
            "tracklets_per_id = 2\nframes_per_tracklet = 6\nheight = 8\nwidth = 8\n",
            f"tracklets_per_id = 4\nframes_per_tracklet = {frames}\nheight = {side}\nwidth = {side}\n",
        )
    )
    out = tmp / "run"
    assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
    assert _run(["enroll", "--config", cfg_path, "--out", out]) == 0
    events, rows = [], {}
    load, embedded = sharc.synth.load_dataset, getattr(sharc.gallery, embed)

    def logged_load(*args):
        # load_dataset reads each record when it is asked for
        for record in load(*args):
            events.append(("read", record.tracklet_id))
            rows[record.tracklet_id] = record.masks.size
            yield record

    def logged_embed(record, *args):
        events.append(("embed", record.tracklet_id))
        return embedded(record, *args)

    monkeypatch.setattr(sharc.synth, "load_dataset", logged_load)
    monkeypatch.setattr(sharc.gallery, embed, logged_embed)
    assert _run([command, "--config", cfg_path, "--out", out]) == 0

    # a window is a run of reads and the run of embeds after it
    windows = []
    for kind, tracklet in events:
        if kind == "read" and (not windows or windows[-1][1]):
            windows.append(([], []))
        windows[-1][kind == "embed"].append(tracklet)
    per_manifest = [[row.tracklet_id for row in read_manifest(data_dir / name)] for name in manifests]
    ids = [tracklet for part in per_manifest for tracklet in part]
    # every tracklet is read once and embedded once, in manifest order, and
    # a window's reads all come before its embeds
    assert [tracklet for reads, _ in windows for tracklet in reads] == ids
    assert all(reads == embeds for reads, embeds in windows)
    # a window stops reading once it reaches the budget, and only the last
    # window of a manifest ends below it
    lasts = {part[-1] for part in per_manifest}
    for reads, _ in windows:
        assert sum(rows[t] for t in reads[:-1]) < CHUNK_ROWS
        assert sum(rows[t] for t in reads) >= CHUNK_ROWS or reads[-1] in lasts
        assert any(reads[0] in part and reads[-1] in part for part in per_manifest)
    if dataset == "budget":
        assert events == [(kind, tracklet) for tracklet in ids for kind in ("read", "embed")]
    else:
        assert len(windows) < len(ids)


def test_each_table_is_written_with_lf_endings(workspace):
    cfg_path, data_dir, tmp = workspace
    for command in ("synth", "enroll", "query", "evaluate", "ablate-gamma", "ablate-alpha", "train-toy"):
        assert _run([command, "--config", cfg_path]) == 0
    tables = sorted(p.name for p in data_dir.iterdir() if p.suffix in (".csv", ".txt"))
    assert tables == sorted(
        ["manifest.csv", "gallery.csv", "query.csv", "scores_shape.csv", "scores_appearance.csv",
         "scores_fused.csv", "report.txt", "report.csv", "ablate_gamma.csv", "ablate_alpha.csv", "loss_trace.csv"]
    )
    for name in tables:
        raw = (data_dir / name).read_bytes()
        assert raw.startswith(_expected_comment(cfg_path).encode() + b"\n") and raw.endswith(b"\n"), name
        assert b"\r" not in raw, name


@pytest.mark.parametrize(
    "setup, command, reads",
    [
        ([], "synth", {}),
        (["synth"], "enroll", {"gallery.csv": 1}),
        (["synth", "enroll"], "query", {"query.csv": 1}),
        (["synth", "enroll", "query"], "evaluate", {"scores_fused.csv": 1, "query.csv": 1}),
        (["synth"], "ablate-gamma", {"gallery.csv": 1, "query.csv": 1}),
    ],
    ids=["synth", "enroll", "query", "evaluate", "ablate-gamma"],
)
def test_each_command_reads_each_table_once(workspace, monkeypatch, setup, command, reads):
    # the manifest rows a command has written or read are passed on, not read again
    cfg_path, data_dir, tmp = workspace
    for name in setup:
        assert _run([name, "--config", cfg_path]) == 0
    read_table, names = sharc.tables.read_table, []

    def counted(path, *args):
        names.append(os.path.basename(path))
        return read_table(path, *args)

    monkeypatch.setattr(sharc.tables, "read_table", counted)
    assert _run([command, "--config", cfg_path]) == 0
    assert {name: names.count(name) for name in names} == reads


@pytest.mark.parametrize("levels", [2, 4])
def test_pipeline_runs_at_other_pyramid_depths(workspace, capsys, levels):
    # the appearance groups hold 2 ** levels frames: 4 frames split the
    # 6-frame tracklets into two groups, 16 resample them into one
    cfg_path, data_dir, tmp = workspace
    cfg_path.write_text(cfg_path.read_text().replace("[model]\n", f"[model]\npyramid_levels = {levels}\n"))
    assert parse_config(cfg_path).model.pyramid_levels == levels
    out = tmp / "run"
    assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
    for command in ("enroll", "query", "evaluate"):
        assert _run([command, "--config", cfg_path, "--out", out]) == 0, capsys.readouterr().err
    assert (out / "report.txt").read_text().splitlines()[1].startswith("rank_1=")


_CLI_SCRIPT = "import sys; from sharc.cli import main; sys.exit(main(sys.argv[1:]))"
# the same, then the sharc modules the command loaded, as the last stdout line
_LOADED_SCRIPT = (
    "import sys; from sharc.cli import main; code = main(sys.argv[1:]); "
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('sharc.')))); sys.exit(code)"
)


def _child(script, args, **env_vars):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sharc.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
                          timeout=120)


def test_score_files_are_utf8_whatever_the_locale(workspace):
    # under an ASCII locale query used to write its score files in the
    # locale's encoding, and stopped with a UnicodeEncodeError traceback
    cfg_path, data_dir, tmp = workspace
    out = tmp / "run"
    assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
    for name in ("gallery.csv", "query.csv"):
        path = data_dir / name
        path.write_text(path.read_text(encoding="utf-8").replace(",s000,", ",sé,"), encoding="utf-8")
    for command in ("enroll", "query", "evaluate"):
        done = _child(_CLI_SCRIPT, [command, "--config", cfg_path, "--out", out],
                      PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    for name in ("scores_shape.csv", "scores_appearance.csv", "scores_fused.csv"):
        header = (out / name).read_bytes().splitlines()[1]
        assert header.startswith(b"query_id,") and "sé".encode("utf-8") in header.split(b","), name
    assert (out / "report.csv").exists()


@pytest.mark.parametrize(
    "command, absent",
    [
        ("evaluate", ["sharc.gallery", "sharc.shape", "sharc.synth", "sharc.encoders", "sharc.losses",
                      "sharc.appearance", "sharc.core", "sharc.prng", "sharc.matcher"]),
        # train-toy writes its loss table through sharc.tables
        ("train-toy", ["sharc.gallery", "sharc.shape", "sharc.synth", "sharc.matcher", "sharc.metrics",
                       "sharc.appearance"]),
        ("synth", ["sharc.gallery", "sharc.shape", "sharc.matcher", "sharc.metrics", "sharc.losses"]),
    ],
)
def test_each_command_imports_only_what_it_runs(workspace, command, absent):
    # process start-up is most of evaluate's wall time
    cfg_path, data_dir, tmp = workspace
    if command == "evaluate":
        for setup in ("synth", "enroll", "query"):
            assert _run([setup, "--config", cfg_path]) == 0
    done = _child(_LOADED_SCRIPT, [command, "--config", cfg_path])
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    loaded = done.stdout.decode().splitlines()[-1].split()
    assert "sharc.cli" in loaded and "sharc.config" in loaded
    assert [m for m in absent if m in loaded] == []


def test_evaluate_runs_without_numpy(workspace):
    # evaluate reads the fused scores as lists and counts ranks over them
    cfg_path, data_dir, tmp = workspace
    for command in ("synth", "enroll", "query", "evaluate"):
        assert _run([command, "--config", cfg_path]) == 0
    out = tmp / "numpy_free"
    out.mkdir()
    (out / "scores_fused.csv").write_bytes((data_dir / "scores_fused.csv").read_bytes())
    script = (
        "import sys; sys.modules['numpy'] = None; from sharc.cli import main; code = main(sys.argv[1:]); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith(('numpy.', 'sharc.'))))); "
        "sys.exit(code)"
    )
    done = _child(script, ["evaluate", "--config", cfg_path, "--out", out])
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    loaded = done.stdout.decode().splitlines()[-1].split()
    assert "sharc.metrics" in loaded and "sharc.tables" in loaded and "sharc.matcher" not in loaded
    assert [m for m in loaded if m.startswith("numpy.")] == []
    for name in ("report.txt", "report.csv"):
        assert (out / name).read_bytes() == (data_dir / name).read_bytes(), name


def _replace_last_cell(line, cell):
    return line.rsplit(",", 1)[0] + "," + cell


@pytest.mark.parametrize(
    "damage_scores, damage_queries, message",
    [
        # a non-numeric cell (line 3) and an unknown query id (line 4)
        (lambda lines: lines[:2] + [_replace_last_cell(lines[2], "abc"), "nobody," + lines[3].split(",", 1)[1]]
         + lines[4:], lambda lines: lines, "{fused}: line 3: non-numeric score"),
        # a nan cell and a header whose gallery column no query's subject has
        (lambda lines: [lines[0], lines[1].replace(",s001", ",x001"), _replace_last_cell(lines[2], "nan")]
         + lines[3:], lambda lines: lines, "{fused}: line 3: non-finite score"),
        # an inf cell (line 3) and a non-numeric cell (line 4)
        (lambda lines: lines[:2] + [_replace_last_cell(lines[2], "-inf"), _replace_last_cell(lines[3], "abc")]
         + lines[4:], lambda lines: lines, "{fused}: line 3: non-finite score"),
        # a short row and a query manifest with a header and no rows
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], lambda lines: lines[:2],
         "{fused}: line 3: expected 4 cells, got 3"),
    ],
    ids=["non_numeric_and_unknown_query", "nan_and_unmatchable_column", "inf_and_non_numeric",
         "short_row_and_empty_query_manifest"],
)
def test_the_first_of_two_faults_is_reported(workspace, capsys, damage_scores, damage_queries, message):
    # evaluate reads the score file whole, then the query manifest, then
    # matches ids, then counts ranks: the first fault in that order is the one
    cfg_path, data_dir, tmp = workspace
    for command in ("synth", "enroll", "query"):
        assert _run([command, "--config", cfg_path]) == 0
    fused, query = data_dir / "scores_fused.csv", data_dir / "query.csv"
    for path, damage, header in ((fused, damage_scores, "query_id,"), (query, damage_queries, "tracklet_id,")):
        lines = damage(path.read_text().splitlines())
        assert lines[1].startswith(header)
        path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run(["evaluate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == f"error: {message.format(fused=fused)}\n"
    assert not (data_dir / "report.txt").exists()


def test_a_query_whose_subject_is_no_column_is_2_in_one_line(workspace, capsys):
    cfg_path, data_dir, tmp = workspace
    out = tmp / "run"
    for command in ("synth", "enroll", "query"):
        assert _run([command, "--config", cfg_path, "--out", data_dir if command == "synth" else out]) == 0
    fused = out / "scores_fused.csv"
    lines = fused.read_text().splitlines()
    assert lines[1] == "query_id,s000,s001,s002"
    fused.write_text("\n".join([lines[0], "query_id,s000,x001,s002"] + lines[2:]) + "\n")
    capsys.readouterr()
    assert _run(["evaluate", "--config", cfg_path, "--out", out]) == 2
    assert capsys.readouterr().err == "error: queries with no correct gallery entry: indices [1]\n"
    assert not (out / "report.txt").exists()


class TestSweepsAndTraining:
    def test_ablation_tables(self, workspace):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        assert _run(["ablate-gamma", "--config", cfg_path, "--out", out]) == 0
        lines = (out / "ablate_gamma.csv").read_text().splitlines()
        assert lines[1] == "gamma,rank1"
        assert len(lines) == 2 + 4
        assert lines[2].startswith("1.0,")

        assert _run(["ablate-alpha", "--config", cfg_path, "--out", out]) == 0
        lines = (out / "ablate_alpha.csv").read_text().splitlines()
        assert lines[1] == "alpha,rank1"
        assert len(lines) == 2 + 5
        for row in lines[2:]:
            rank1 = float(row.split(",")[1])
            assert 0.0 <= rank1 <= 1.0

    def test_train_toy_writes_trace_and_encoder(self, workspace, capsys):
        cfg_path, data_dir, tmp = workspace
        out = tmp / "run"
        assert _run(["train-toy", "--config", cfg_path, "--out", out]) == 0
        lines = (out / "loss_trace.csv").read_text().splitlines()
        assert lines[1] == "step,loss"
        assert len(lines) == 2 + 6  # initial loss plus 5 steps
        losses = [float(r.split(",")[1]) for r in lines[2:]]
        assert losses[-1] < losses[0]
        assert (out / "trained_encoder.shrcenc").exists()
        assert "final=" in capsys.readouterr().out

    @pytest.mark.parametrize("objective", ["shape", "appearance"])
    def test_train_toy_passes_its_gradient_check_at_data_seed_8(self, tmp_path, objective):
        # a hardest negative switches inside the +-1e-5 of one coordinate; the
        # check used to exit 2 here with a correct gradient
        cfg_path = tmp_path / "seed8.cfg"
        cfg_path.write_text(f"[train]\ndata_seed = 8\nobjective = {objective}\n")
        assert _run(["train-toy", "--config", cfg_path, "--out", tmp_path / "o"]) == 0

    def test_a_wrong_gradient_is_2_in_one_line(self, workspace, capsys, monkeypatch):
        right = sharc.losses._loss_and_grads

        def wrong(objective, x, labels, p, shapes, centers):
            loss, grad = right(objective, x, labels, p, shapes, centers)
            sharc.losses._views(grad, shapes)[1][...] *= -1.0
            return loss, grad

        monkeypatch.setattr(sharc.losses, "_loss_and_grads", wrong)
        cfg_path, data_dir, tmp = workspace
        assert _run(["train-toy", "--config", cfg_path, "--out", tmp / "o"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: analytic vs numerical gradient relative error \d\.\d{3}e[-+]\d{2} > 1\.0e-03\n", err
        )
        assert list((tmp / "o").iterdir()) == []

    @pytest.mark.parametrize("objective", ["shape", "appearance"])
    def test_diverging_training_prints_one_line(self, workspace, capsys, objective):
        cfg_path, data_dir, tmp = workspace
        cfg_path.write_text(
            cfg_path.read_text().replace("steps = 5", f"steps = 5\nlr = 1e300\nobjective = {objective}")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            assert _run(["train-toy", "--config", cfg_path, "--out", tmp / "o"]) == 2
        assert capsys.readouterr().err == "error: non-finite loss at step 1\n"

    def test_weights_that_overflow_float32_are_2_with_no_outputs(self, workspace, capsys):
        # before, the encoder file was written and load_encoder refused it
        cfg_path, data_dir, tmp = workspace
        cfg_path.write_text(cfg_path.read_text().replace("steps = 5", "steps = 3\nlr = 1e10"))
        out = tmp / "o"
        assert _run(["train-toy", "--config", cfg_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "trained_encoder.shrcenc: layer 0 has weights or biases that are not finite in float32" in err
        assert list(out.iterdir()) == []

    def test_modality_drop_changes_shape_scores_only(self, workspace):
        cfg_path, data_dir, tmp = workspace
        assert _run(["synth", "--config", cfg_path, "--out", data_dir]) == 0
        dropped_cfg = tmp / "drop.cfg"
        dropped_cfg.write_text(
            cfg_path.read_text() + "\n[ablation]\ndrop_smpl = true\n"
        )
        out_full, out_drop = tmp / "full", tmp / "drop"
        for cfg, out in ((cfg_path, out_full), (dropped_cfg, out_drop)):
            assert _run(["enroll", "--config", cfg, "--out", out]) == 0
            assert _run(["query", "--config", cfg, "--out", out]) == 0
        full_shape = (out_full / "scores_shape.csv").read_text().splitlines()[2:]
        drop_shape = (out_drop / "scores_shape.csv").read_text().splitlines()[2:]
        assert full_shape != drop_shape
        full_app = (out_full / "scores_appearance.csv").read_text().splitlines()[2:]
        drop_app = (out_drop / "scores_appearance.csv").read_text().splitlines()[2:]
        assert full_app == drop_app
