"""Retrieval evaluation: rank-k accuracy (CMC) and mean average precision.

Both metrics operate on ranked gallery id lists plus subject labels, so they
are independent of how the scores were produced. A query whose subject never
appears in the gallery has undefined metrics and raises UnmatchableQuery
unless the caller opts into skipping such queries.

The inputs are validated once and each ranked list is walked once, to the
0-based positions of its correct ids; every rank-k accuracy and every AP is
read from those positions. A list that holds none of its query's correct ids
(one shorter than the gallery, say) is a miss at every k and has no AP.

`evaluate_scores` gives the same report straight from a score matrix whose
columns are unique subject ids, as the CLI's are: each query has one correct
column, so its rank is a count and nothing is sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInput, UnmatchableQuery

DEFAULT_RANKS = (1, 5, 10, 20)


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
    return float(np.mean([_ap(*m) for m in matched]))


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
    return EvalReport(rank_k=rank_k, map_score=float(np.mean(aps)), per_query_ap=aps)


def evaluate_scores(scores: np.ndarray, gallery_ids: list[str], query_labels: list[str]) -> EvalReport:
    """`evaluate_ranking(rank(...), query_labels, {g: g for g in gallery_ids})`
    for a finite (Q, G) score matrix whose G columns are unique subject ids.

    A query's 0-based rank is the number of columns that beat its correct
    column under `rank`'s rule: a higher score, or an equal score and a
    smaller id. Its AP is then 1 / (rank + 1).
    """
    column = {g: j for j, g in enumerate(gallery_ids)}
    if len(column) != len(gallery_ids):
        raise InvalidInput("gallery ids must be unique")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != (len(query_labels), len(gallery_ids)):
        raise InvalidInput(
            f"scores shape {s.shape} does not match {len(query_labels)} queries x {len(gallery_ids)} ids"
        )
    if not np.all(np.isfinite(s)):
        raise InvalidInput("scores contain non-finite entries")
    missing = [i for i, lab in enumerate(query_labels) if lab not in column]
    if missing:
        raise UnmatchableQuery(f"queries with no correct gallery entry: indices {missing}")
    if not query_labels:
        raise InvalidInput("no matchable queries")
    id_order = np.empty(len(gallery_ids), dtype=np.int64)
    id_order[sorted(range(len(gallery_ids)), key=gallery_ids.__getitem__)] = np.arange(len(gallery_ids))
    correct = np.array([column[lab] for lab in query_labels])
    target = s[np.arange(len(correct)), correct][:, None]
    ahead = (s > target) | ((s == target) & (id_order < id_order[correct][:, None]))
    positions = np.count_nonzero(ahead, axis=1)
    aps = (1.0 / (positions + 1)).tolist()
    return EvalReport(
        rank_k={k: int(np.count_nonzero(positions < k)) / len(aps) for k in DEFAULT_RANKS},
        map_score=float(np.mean(aps)),
        per_query_ap=aps,
    )
