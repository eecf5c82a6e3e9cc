"""Score files: the UTF-8 CSV tables of query x gallery scores that `query`
writes and `evaluate` reads.

A file may hold `#` comment lines and blank lines anywhere. Its first other
line is the header, `query_id` and then the gallery ids; each line after it
is a query id and then one score per gallery id. `read_scores` parses and
validates a file into Python lists with no numpy, so `evaluate` runs on it
alone; `matcher.ScoreMatrix.read_csv` is a numpy array over its rows.
"""

from __future__ import annotations

import math
from collections import Counter

from .exceptions import InvalidInput


def read_scores(path) -> tuple[list[str], list[str], list[list[float]]]:
    """The query ids, the gallery ids and one row of Python floats per query.

    Refused with InvalidInput, in this order: a file that is not UTF-8 text;
    the first malformed line in file order (a header that is not `query_id`
    or names no or a repeated gallery id, a row of the wrong width, a
    non-numeric score, a repeated query id), naming its line; a file with no
    header or no query row, naming the file; and a non-finite score.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}: not a text file") from None
    query_ids, rows = [], []
    seen: set[str] = set()
    gallery_ids = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if gallery_ids is None:
            if cells[0] != "query_id":
                raise InvalidInput(f"{path}: expected query_id header")
            gallery_ids = cells[1:]
            if not gallery_ids:
                raise InvalidInput(f"{path}: line {lineno}: header names no gallery id")
            repeated = [g for g, n in Counter(gallery_ids).items() if n > 1]
            if repeated:
                raise InvalidInput(f"{path}: line {lineno}: gallery id {repeated[0]!r} appears twice")
            continue
        if len(cells) != len(gallery_ids) + 1:
            raise InvalidInput(f"{path}: line {lineno}: expected {len(gallery_ids) + 1} cells, got {len(cells)}")
        try:
            rows.append(list(map(float, cells[1:])))
        except ValueError:
            raise InvalidInput(f"{path}: line {lineno}: non-numeric score") from None
        if cells[0] in seen:
            raise InvalidInput(f"{path}: line {lineno}: query id {cells[0]!r} appears twice")
        seen.add(cells[0])
        query_ids.append(cells[0])
    if gallery_ids is None:
        raise InvalidInput(f"{path}: empty score file")
    if not query_ids:
        raise InvalidInput(f"{path}: holds no query rows")
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise InvalidInput("scores contain non-finite entries")
    return query_ids, gallery_ids, rows
