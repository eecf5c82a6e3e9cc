"""sharc's text tables: manifests (`synth` writes them, every other data
command reads them), score files (`query` writes them, `evaluate` reads
them) and the report, sweep and loss tables.

A table is UTF-8 text with `\\n` line endings: an optional `# comment` line,
a header line, then one line per row, each line its cells joined by `,`.
There is no quoting. The reader skips `#` and blank lines wherever they
stand, and reads `\\r\\n` and `\\r` endings as `\\n`. The first cell of a row
is its key, and no key appears twice. `write_table` refuses, before it opens
the file, every line that `read_table` would not give back. Each format's
own rules (its header, its cells) stay with it. The module imports no numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .exceptions import InvalidInput

MANIFEST_HEADER = ["tracklet_id", "subject_id", "clothing_id", "frames_path"]


def _line(path, cells, width: int, nouns) -> str:
    """`cells` as one line, refused unless it reads back as `width` cells that
    start no comment; `nouns` name the cells in the refusal."""
    line = ",".join(cells)
    if line.count(",") == width - 1 and "\n" not in line and "\r" not in line and line[:1] not in ("", "#"):
        return line
    for noun, cell in zip(nouns, cells):
        if "," in cell or "\r" in cell or "\n" in cell:
            raise InvalidInput(f"{path}: {noun} {cell!r} holds a comma, CR or LF")
    if len(cells) != width:
        raise InvalidInput(f"{path}: line {line!r} has {len(cells)} cells, not {width}")
    if not line:
        raise InvalidInput(f"{path}: an empty line would be skipped as blank")
    raise InvalidInput(f"{path}: {nouns[0]} {cells[0]!r} would start a comment line")


def write_table(path, comment: str | None, header: list[str], rows, key="row key", column="column") -> None:
    """Write `# comment` (if given), `header` and each row of `rows` (a sequence
    of cells), in UTF-8 with `\\n` line endings.

    `key` names a row's first cell and `column` a header cell in the
    InvalidInput raised before the file is opened: a comment holding CR or
    LF; a cell holding a comma, CR or LF; a row of another width than the
    header; an empty line; a line that would start a comment; a repeated
    header cell or row key.
    """
    if comment is not None and ("\r" in comment or "\n" in comment):
        raise InvalidInput(f"{path}: comment {comment!r} holds CR or LF")
    width = len(header)
    lines = [] if comment is None else [f"# {comment}"]
    lines.append(_line(path, header, width, [column] * width))
    repeated = [cell for cell, n in Counter(header).items() if n > 1]
    if repeated:
        raise InvalidInput(f"{path}: {column} {repeated[0]!r} appears twice")
    nouns, seen = [key, *header[1:]], set()
    for cells in rows:
        lines.append(_line(path, cells, width, nouns))
        if cells[0] in seen:
            raise InvalidInput(f"{path}: {key} {cells[0]!r} appears twice")
        seen.add(cells[0])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_table(path, kind: str, key: str, check_header, parse_row) -> tuple[list[str], list]:
    """The header cells and `parse_row` of each row's cells, in file order.

    `check_header(cells)` and `parse_row(cells)` raise ValueError(reason) to
    refuse a line. Refused with InvalidInput: a file that is not UTF-8 text
    (`kind` names it); else the first faulty line in file order, naming it
    (a header `check_header` refuses, a row of another width than the
    header, a row `parse_row` refuses, a repeated key, which `key` names,
    with the line that held it first); else a file with no header.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}: {kind} is not UTF-8 text") from None
    header, rows, first_line = None, [], {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line[0] == "#":
            continue
        cells = line.split(",")
        try:
            if header is None:
                check_header(cells)
                header = cells
                continue
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
            rows.append(parse_row(cells))
        except ValueError as err:
            raise InvalidInput(f"{path}: line {lineno}: {err}") from None
        first = first_line.setdefault(cells[0], lineno)
        if first != lineno:
            raise InvalidInput(f"{path}: line {lineno} repeats {key} {cells[0]!r} of line {first}")
    if header is None:
        raise InvalidInput(f"{path}: no header line")
    return header, rows


@dataclass(frozen=True)
class ManifestRow:
    tracklet_id: str
    subject_id: str
    clothing_id: str
    frames_path: str


def _manifest_cells(row: ManifestRow, path) -> list[str]:
    """`row`'s cells; an empty one is refused, as `read_manifest` refuses it."""
    cells = [row.tracklet_id, row.subject_id, row.clothing_id, row.frames_path]
    if "" in cells:
        raise InvalidInput(f"{path}: tracklet {row.tracklet_id!r}: empty {MANIFEST_HEADER[cells.index('')]}")
    return cells


def check_manifest_row(row: ManifestRow, path) -> None:
    """Refuse `row` with the InvalidInput `write_manifest` would raise for its
    line in `path`; a repeated tracklet is left to the caller."""
    _line(path, _manifest_cells(row, path), len(MANIFEST_HEADER), ["tracklet", *MANIFEST_HEADER[1:]])


def write_manifest(rows: list[ManifestRow], path, header_comment: str | None = None) -> None:
    """Write one line per tracklet, refused as `write_table` refuses, or when
    a cell is empty."""
    write_table(path, header_comment, MANIFEST_HEADER, (_manifest_cells(r, path) for r in rows), key="tracklet")


def _manifest_header(cells: list[str]) -> None:
    if cells != MANIFEST_HEADER:
        raise ValueError(f"expected header {','.join(MANIFEST_HEADER)}")


def _manifest_row(cells: list[str]) -> ManifestRow:
    if "" in cells:
        raise ValueError(f"empty {MANIFEST_HEADER[cells.index('')]}")
    return ManifestRow(*cells)


def read_manifest(path) -> list[ManifestRow]:
    """The rows of a manifest, which must name each tracklet once and leave
    no cell empty.

    A repeated tracklet would otherwise be embedded twice: counted twice in
    its subject's centroid, or scored as two rows with one id.
    """
    return read_table(path, "manifest", "tracklet", _manifest_header, _manifest_row)[1]


def _score_header(cells: list[str]) -> None:
    if cells[0] != "query_id":
        raise ValueError("expected query_id header")
    if len(cells) == 1:
        raise ValueError("header names no gallery id")
    repeated = [g for g, n in Counter(cells[1:]).items() if n > 1]
    if repeated:
        raise ValueError(f"gallery id {repeated[0]!r} appears twice")


def _score_row(cells: list[str]) -> tuple[str, list[float]]:
    try:
        return cells[0], list(map(float, cells[1:]))
    except ValueError:
        raise ValueError("non-numeric score") from None


def read_scores(path) -> tuple[list[str], list[str], list[list[float]]]:
    """The query ids, the gallery ids and one row of Python floats per query
    of a score file, whose header is `query_id` and then the gallery ids.

    Refused with InvalidInput, in this order: what `read_table` refuses (a
    header naming no or a repeated gallery id, a non-numeric score, a
    repeated query id); a file with no query row; a non-finite score.
    """
    header, rows = read_table(path, "score file", "query id", _score_header, _score_row)
    if not rows:
        raise InvalidInput(f"{path}: holds no query rows")
    if not all(all(map(math.isfinite, scores)) for _, scores in rows):
        raise InvalidInput("scores contain non-finite entries")
    return [query for query, _ in rows], header[1:], [scores for _, scores in rows]
