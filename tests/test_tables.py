import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sharc.exceptions import InvalidInput
from sharc.matcher import ScoreMatrix
from sharc.tables import ManifestRow, read_manifest, write_manifest, write_table

_COMMENT = "sharc 0.1.0 config=0123456789ab"
_ROWS = [
    ManifestRow("s000_t00", "s000", "c0", "frames/s000_t00.dat"),
    ManifestRow("s001_t01", "s001", "c1", "frames/s001_t01.dat"),
]


def _kept_lines(raw: bytes) -> bytes:
    """The lines a table reader keeps, each ended by \\n: no comment or blank
    line, and \\r\\n or \\r read as \\n."""
    text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return "".join(line + "\n" for line in text.split("\n") if line and not line.startswith("#")).encode()


@dataclass(frozen=True)
class _Format:
    read: object
    write: object  # (table, path, comment)
    sample: object  # the table the fuzz damages
    size: int  # of the sample's file, comment line included
    first_read: bytes  # the shortest prefix that reads ends where this starts
    mutations: bytes  # bytes that split, comment out or re-spell a cell
    # whether a table that reads is written back as the lines it was read from;
    # not for score files: `float` also reads spellings that `repr` never
    # writes, such as `1_0` and ` 1.0`
    byte_for_byte: bool


_FORMATS = {
    # a quote is a plain character: there is no quoting
    "manifest": _Format(
        read_manifest, lambda rows, path, comment=None: write_manifest(rows, path, comment),
        _ROWS[:1] + [ManifestRow("s001_t01", "s001", "c1", 'frames/"a b".dat')],
        152, b"\ns000_t00", b',\n\r#" ', True,
    ),
    # a cut inside or after the first row's last score reads, as a shorter
    # table or shorter numbers
    "score_file": _Format(
        ScoreMatrix.read_csv, lambda table, path, comment=None: table.write_csv(path, comment),
        ScoreMatrix(np.array([[0.5, -1.25e-7], [3.0, -0.0]]), ["q0", "q1"], ["s000", "s001"]),
        82, b".25e-07", b",\n\r# _e-.0", False,
    ),
}


@pytest.mark.parametrize("name", list(_FORMATS))
class TestTableFuzz:
    """Any damaged manifest or score file is refused as `InvalidInput`, or it
    reads as a table that the format's writer writes back to bytes it reads
    back unchanged; a manifest's are the damaged file's kept lines."""

    @staticmethod
    def _saved(tmp_path, fmt):
        path = tmp_path / "saved.csv"
        fmt.write(fmt.sample, path, _COMMENT)
        return path.read_bytes()

    @staticmethod
    def _refused_or_stable(tmp_path, fmt, raw):
        path, again, twice = tmp_path / "damaged.csv", tmp_path / "again.csv", tmp_path / "twice.csv"
        path.write_bytes(raw)
        try:
            table = fmt.read(path)
        except InvalidInput:
            return False
        fmt.write(table, again)
        if fmt.byte_for_byte:
            assert again.read_bytes() == _kept_lines(raw)
        fmt.write(fmt.read(again), twice)
        assert twice.read_bytes() == again.read_bytes()
        return True

    def test_every_truncation_is_refused_or_stable(self, tmp_path, name):
        # every cut point, not a sample
        fmt = _FORMATS[name]
        raw = self._saved(tmp_path, fmt)
        assert len(raw) == fmt.size
        read = [n for n in range(len(raw)) if self._refused_or_stable(tmp_path, fmt, raw[:n])]
        assert read[0] == raw.index(fmt.first_read) and read[-1] == len(raw) - 1

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_byte_mutation_is_refused_or_stable(self, tmp_path, name, data):
        fmt = _FORMATS[name]
        raw = bytearray(self._saved(tmp_path, fmt))
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        values = st.sampled_from(list(fmt.mutations)) | st.integers(0, 255)
        raw[pos] = data.draw(values.filter(lambda v: v != raw[pos]), label="value")
        self._refused_or_stable(tmp_path, fmt, bytes(raw))


@pytest.mark.parametrize(
    "row, comment, message",
    [
        (ManifestRow("t0", "s000", "c0", "frames/a,b.dat"), None, "frames_path 'frames/a,b.dat' holds a comma"),
        (ManifestRow("t0", "s\r0", "c0", "frames/t0.dat"), None, "subject_id 's\\r0' holds a comma, CR or LF"),
        (ManifestRow("t0", "s000", "c\n0", "frames/t0.dat"), None, "clothing_id 'c\\n0' holds a comma, CR or LF"),
        (ManifestRow("#t0", "s000", "c0", "frames/t0.dat"), None, "tracklet '#t0' would start a comment line"),
        # the comment line would be followed by an empty line
        (_ROWS[0], "sharc\n", "comment 'sharc\\n' holds CR or LF"),
    ],
    ids=["comma", "cr", "lf", "hash_tracklet", "empty_line"],
)
def test_write_manifest_refuses_a_line_it_would_not_read_back(tmp_path, row, comment, message):
    # the csv writer quoted the first three, and wrote the last two as lines
    # that read back as other rows or none
    path = tmp_path / "m.csv"
    with pytest.raises(InvalidInput, match=re.escape(f"m.csv: {message}")):
        write_manifest([row], path, header_comment=comment)
    assert not path.exists()


@pytest.mark.parametrize(
    "header, rows, message",
    [
        (["step", "loss"], [["0", "1.5"], ["1"]], "line '1' has 1 cells, not 2"),
        (["report"], [["rank_5=1.0"], [""]], "an empty line would be skipped as blank"),
        (["step", "step"], [], "column 'step' appears twice"),
    ],
    ids=["short_row", "empty_line", "repeated_column"],
)
def test_write_table_refuses_a_table_it_would_not_read_back(tmp_path, header, rows, message):
    path = tmp_path / "t.csv"
    with pytest.raises(InvalidInput, match=re.escape(f"t.csv: {message}")):
        write_table(path, "sharc", header, rows)
    assert not path.exists()


def test_a_manifest_with_crlf_row_endings_reads_the_same_rows(tmp_path):
    # the csv writer ended the comment line with \n and every other with \r\n
    old = tmp_path / "old.csv"
    old.write_bytes(
        f"# {_COMMENT}\ntracklet_id,subject_id,clothing_id,frames_path\r\n".encode()
        + b"".join(f"{r.tracklet_id},{r.subject_id},{r.clothing_id},{r.frames_path}\r\n".encode() for r in _ROWS)
    )
    assert read_manifest(old) == _ROWS
    new = tmp_path / "new.csv"
    write_manifest(_ROWS, new, header_comment=_COMMENT)
    assert new.read_bytes() == old.read_bytes().replace(b"\r", b"")
