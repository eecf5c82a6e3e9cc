"""Retrieval evaluation: rank-k accuracy (CMC) and mean average precision.

Both metrics operate on ranked gallery id lists plus subject labels, so they
are independent of how the scores were produced. A query whose subject never
appears in the gallery has undefined metrics and raises UnmatchableQuery
unless the caller opts into skipping such queries.

The inputs are validated once and each ranked list is walked once, to the
0-based positions of its correct ids; every rank-k accuracy and every AP is
read from those positions. A list that holds none of its query's correct ids
(one shorter than the gallery, say) is a miss at every k and has no AP.

`evaluate_scores` gives the same report straight from a score table whose
columns are unique subject ids, as the CLI's are: each query has one correct
column, so its rank is a count and nothing is sorted. It takes any sequence
of rows of floats, a numpy matrix or the lists `tables.read_scores`
gives.

The module imports no numpy, so `evaluate` runs without it. Every mAP is
`_mean`, which sums in numpy's pairwise order and so has the bits of
`float(np.mean(...))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from .exceptions import InvalidInput, UnmatchableQuery

DEFAULT_RANKS = (1, 5, 10, 20)


def _pairwise_sum(xs: list[float]) -> float:
    """The sum of `xs` in the order of numpy's float64 `add.reduce`.

    Under 8 values: left to right from 0.0. Up to 128: 8 running sums, the
    k-th over every 8th value from xs[k], combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the values past
    the last full 8 left to right. Above 128: the sums of two halves, split
    at a multiple of 8.
    """
    n = len(xs)
    if n < 8:
        return reduce(add, xs, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, xs[k:end:8]) for k in range(8)]
        return reduce(add, xs[end:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def _mean(xs: list[float]) -> float:
    """`float(np.mean(xs))`, bit for bit; nan for no values."""
    return _pairwise_sum(xs) / len(xs) if xs else math.nan


def _correct_positions(ranked: list[str], label: str, gallery_labels: dict[str, str]) -> list[int]:
    """0-based positions, ascending, of the ids in `ranked` labelled `label`."""
    # count and index compare in C, faster than one Python comparison per id
    labels = list(map(gallery_labels.__getitem__, ranked))
    positions = []
    for _ in range(labels.count(label)):
        positions.append(labels.index(label, positions[-1] + 1 if positions else 0))
    return positions


def _matched(ranked_lists, query_labels, gallery_labels, skip_unmatchable) -> list[tuple[str, list[int]]]:
    """(label, correct-id positions) of each query whose label the gallery holds."""
    if len(ranked_lists) != len(query_labels):
        raise InvalidInput(f"{len(ranked_lists)} ranked lists but {len(query_labels)} query labels")
    matchable = set(gallery_labels.values())
    missing = [i for i, lab in enumerate(query_labels) if lab not in matchable]
    if missing and not skip_unmatchable:
        raise UnmatchableQuery(f"queries with no correct gallery entry: indices {missing}")
    if len(missing) == len(query_labels):
        raise InvalidInput("no matchable queries")
    pairs = zip(ranked_lists, query_labels)
    return [(lab, _correct_positions(r, lab, gallery_labels)) for r, lab in pairs if lab in matchable]


def _hit_rate(matched: list[tuple[str, list[int]]], k: int) -> float:
    if k < 1:
        raise InvalidInput(f"k must be positive, got {k}")
    return sum(1 for _, positions in matched if positions and positions[0] < k) / len(matched)


def _ap(label: str, positions: list[int]) -> float:
    """Precision at each correct position, summed in rank order, over their count."""
    if not positions:
        raise UnmatchableQuery(f"label {label!r} absent from the ranked list")
    return sum((hit + 1) / (pos + 1) for hit, pos in enumerate(positions)) / len(positions)


def cmc(
    ranked_lists: list[list[str]],
    query_labels: list[str],
    gallery_labels: dict[str, str],
    k: int,
    skip_unmatchable: bool = False,
) -> float:
    """Fraction of queries whose top-k ranked ids contain a correct subject."""
    return _hit_rate(_matched(ranked_lists, query_labels, gallery_labels, skip_unmatchable), k)


def average_precision(ranked: list[str], label: str, gallery_labels: dict[str, str]) -> float:
    """Precision averaged over the ranks of the correct entries."""
    return _ap(label, _correct_positions(ranked, label, gallery_labels))


def mean_average_precision(
    ranked_lists: list[list[str]],
    query_labels: list[str],
    gallery_labels: dict[str, str],
    skip_unmatchable: bool = False,
) -> float:
    matched = _matched(ranked_lists, query_labels, gallery_labels, skip_unmatchable)
    return _mean([_ap(*m) for m in matched])


@dataclass
class EvalReport:
    """Rank-k accuracies, mAP, and the per-query APs behind it."""

    rank_k: dict[int, float]
    map_score: float
    per_query_ap: list[float] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"rank_{k}={v!r}" for k, v in sorted(self.rank_k.items())]
        out.append(f"map={self.map_score!r}")
        return out

    def csv_rows(self) -> list[str]:
        header = ",".join([f"rank_{k}" for k in sorted(self.rank_k)] + ["map"])
        values = ",".join(
            [repr(self.rank_k[k]) for k in sorted(self.rank_k)] + [repr(self.map_score)]
        )
        return [header, values]


def evaluate_ranking(
    ranked_lists: list[list[str]],
    query_labels: list[str],
    gallery_labels: dict[str, str],
    skip_unmatchable: bool = False,
) -> EvalReport:
    """Rank-k accuracy at each of DEFAULT_RANKS, mAP and the per-query APs."""
    matched = _matched(ranked_lists, query_labels, gallery_labels, skip_unmatchable)
    rank_k = {k: _hit_rate(matched, k) for k in DEFAULT_RANKS}
    aps = [_ap(*m) for m in matched]
    return EvalReport(rank_k=rank_k, map_score=_mean(aps), per_query_ap=aps)


def evaluate_scores(scores, gallery_ids: list[str], query_labels: list[str]) -> EvalReport:
    """`evaluate_ranking(rank(...), query_labels, {g: g for g in gallery_ids})`
    for finite (Q, G) scores whose G columns are unique subject ids: Q rows
    of G floats, as a numpy matrix or as lists.

    A query's 0-based rank is the number of columns that beat its correct
    column under `rank`'s rule: a higher score, or an equal score and a
    smaller id. Its AP is then 1 / (rank + 1).
    """
    column = {g: j for j, g in enumerate(gallery_ids)}
    if len(column) != len(gallery_ids):
        raise InvalidInput("gallery ids must be unique")
    widths = sorted({len(row) for row in scores})
    if len(scores) != len(query_labels) or widths not in ([], [len(gallery_ids)]):
        raise InvalidInput(
            f"a table of {len(scores)} score rows of widths {widths} does not match "
            f"{len(query_labels)} queries x {len(gallery_ids)} ids"
        )
    if not all(all(map(math.isfinite, row)) for row in scores):
        raise InvalidInput("scores contain non-finite entries")
    missing = [i for i, lab in enumerate(query_labels) if lab not in column]
    if missing:
        raise UnmatchableQuery(f"queries with no correct gallery entry: indices {missing}")
    if not query_labels:
        raise InvalidInput("no matchable queries")
    positions = []
    for row, label in zip(scores, query_labels):
        target = row[column[label]]
        # the correct column and every column that may beat it: one pass
        # over the row, then list methods over the few it keeps
        at_least = [x for x in row if x >= target]
        ahead = len(at_least) - at_least.count(target)
        if len(at_least) - ahead > 1:
            ahead += sum(1 for x, g in zip(row, gallery_ids) if x == target and g < label)
        positions.append(ahead)
    aps = [1.0 / (p + 1) for p in positions]
    return EvalReport(
        rank_k={k: sum(p < k for p in positions) / len(aps) for k in DEFAULT_RANKS},
        map_score=_mean(aps),
        per_query_ap=aps,
    )
