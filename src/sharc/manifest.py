"""Manifest CSV files: one row per tracklet, naming its subject, its outfit
and its frame container. A manifest is UTF-8, may start with `#` comment
lines, and names each tracklet once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .exceptions import InvalidInput

MANIFEST_HEADER = ["tracklet_id", "subject_id", "clothing_id", "frames_path"]


@dataclass(frozen=True)
class ManifestRow:
    tracklet_id: str
    subject_id: str
    clothing_id: str
    frames_path: str


def write_manifest(rows: list[ManifestRow], path, header_comment: str | None = None) -> None:
    """Write the rows; a repeated tracklet id raises InvalidInput before the file is opened."""
    seen: set[str] = set()
    for r in rows:
        if r.tracklet_id in seen:
            raise InvalidInput(f"{path}: tracklet {r.tracklet_id!r} appears twice")
        seen.add(r.tracklet_id)
    with open(path, "w", newline="", encoding="utf-8") as f:
        if header_comment is not None:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(MANIFEST_HEADER)
        for r in rows:
            writer.writerow([r.tracklet_id, r.subject_id, r.clothing_id, r.frames_path])


def read_manifest(path) -> list[ManifestRow]:
    """The rows of a manifest, which must be UTF-8 and name each tracklet once.

    A repeated tracklet would otherwise be embedded twice: counted twice in
    its subject's centroid, or scored as two rows with one id.
    """
    rows = []
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            while header is not None and header and header[0].startswith("#"):
                header = next(reader, None)
            if header != MANIFEST_HEADER:
                raise InvalidInput(f"{path}: expected header {','.join(MANIFEST_HEADER)}")
            for line in reader:
                if len(line) != 4:
                    raise InvalidInput(f"{path}: malformed row {line!r}")
                row = ManifestRow(*line)
                if row.tracklet_id in first_line:
                    raise InvalidInput(
                        f"{path}: line {reader.line_num} repeats tracklet {row.tracklet_id!r} "
                        f"of line {first_line[row.tracklet_id]}"
                    )
                first_line[row.tracklet_id] = reader.line_num
                rows.append(row)
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}: manifest is not UTF-8 text") from None
    except csv.Error as err:  # a field longer than csv.field_size_limit()
        raise InvalidInput(f"{path}: line {reader.line_num}: {err}") from None
    return rows
