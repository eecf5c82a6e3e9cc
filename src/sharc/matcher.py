"""Query-to-gallery scoring, weighted fusion, and ranked candidate lists.

Shape embeddings are compared by cosine similarity, appearance embeddings by
Euclidean distance. The two live on different scales, so before fusion the
appearance distances are negated and min-max rescaled to [0, 1] per query row
(an all-equal row maps to 0.5 everywhere); the raw negated-distance scale is
kept behind a flag. Fusion is the entrywise weighted average
alpha * shape + (1 - alpha) * appearance.

Scores are computed as whole (queries x entries) matrices. The queries and
the index entries are stacked once per call and validated once (finite, equal
widths, and for cosine no zero vector). The kernels make no BLAS call: they
use einsum without `optimize`, which sums in numpy's own fixed order, so the
score bytes do not depend on the BLAS thread count. Distances come from exact
differences, one query row at a time, never from the cancelling expansion
|q|^2 + |g|^2 - 2 q.g. `core.cosine_similarity` and `core.euclidean_distance`
compute the same cells one pair at a time; the two agree to within 1e-12.

`rank` orders a whole score matrix at once: one stable argsort of the negated
scores along each row, over the columns put in id order first.

`ScoreMatrix.write_csv` writes the score files that `query` leaves behind,
through `tables.write_table`. They are parsed in one place, the numpy-free
`tables.read_scores`: `ScoreMatrix.read_csv` is a matrix over its rows, and
`evaluate` uses its lists directly, so it never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import AlignmentError, DimMismatch, EmptyInput, InvalidInput
from .tables import read_scores, write_table

if TYPE_CHECKING:
    from .gallery import GalleryIndex


@dataclass
class ScoreMatrix:
    """Queries x gallery-subjects score table with its id axes."""

    scores: np.ndarray  # (Q, G) float64
    query_ids: list[str]
    gallery_ids: list[str]

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 2:
            raise InvalidInput(f"scores must be 2-D, got shape {s.shape}")
        if s.shape != (len(self.query_ids), len(self.gallery_ids)):
            raise InvalidInput(
                f"scores shape {s.shape} does not match {len(self.query_ids)} queries x "
                f"{len(self.gallery_ids)} gallery ids"
            )
        # a score file's header names its columns: with none, it would read
        # back as one column named ""
        if not self.gallery_ids:
            raise EmptyInput("a score table needs at least one gallery column")
        if not np.all(np.isfinite(s)):
            raise InvalidInput("scores contain non-finite entries")
        self.scores = s

    def write_csv(self, path, header_comment: str | None = None) -> None:
        """Comma-separated UTF-8 export: gallery ids as header, one row per
        query, refused as `tables.write_table` refuses."""
        # repr of a python float round-trips exactly; numpy scalars do not,
        # and tolist() gives python floats
        rows = ([qid, *map(repr, row)] for qid, row in zip(self.query_ids, self.scores.tolist()))
        header = ["query_id", *self.gallery_ids]
        write_table(path, header_comment, header, rows, key="query id", column="gallery id")

    @classmethod
    def read_csv(cls, path) -> "ScoreMatrix":
        """Inverse of write_csv: the table `tables.read_scores` reads, as a
        matrix, refused with the same InvalidInput messages."""
        query_ids, gallery_ids, rows = read_scores(path)
        return cls(scores=np.array(rows, dtype=np.float64), query_ids=query_ids, gallery_ids=gallery_ids)


def _matrix(vectors: list, name: str, dim: int) -> np.ndarray:
    """Stack 1-D vectors of width `dim` into one finite (N, dim) float64 matrix."""
    shapes = {np.shape(v) for v in vectors}
    if shapes - {(dim,)}:
        raise DimMismatch(f"{name} vectors have shapes {sorted(shapes)}, expected ({dim},)")
    m = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} vectors contain non-finite entries")
    return m


def _operands(
    queries: list[tuple[str, np.ndarray]], index: GalleryIndex, modality: str
) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray]:
    """Query matrix, entry matrix, subject ids and their segment starts.

    Entries are stacked grouped by subject, subjects in first-seen order, so
    subject k owns entry rows starts[k]:starts[k + 1].
    """
    if len(index.entries) == 0:
        raise EmptyInput("the gallery index has no entries")
    by_subject: dict[str, list[np.ndarray]] = {}
    for e in index.entries:
        by_subject.setdefault(e.subject_id, []).append(getattr(e, modality))
    entries = [v for vecs in by_subject.values() for v in vecs]
    dim = np.size(entries[0])
    if np.ndim(entries[0]) != 1 or dim == 0:
        raise InvalidInput(f"gallery {modality} vectors must be non-empty and 1-D")
    starts = np.cumsum([0] + [len(vecs) for vecs in by_subject.values()])[:-1]
    g = _matrix(entries, f"gallery {modality}", dim)
    q = _matrix([v for _, v in queries], f"query {modality}", dim)
    return q, g, list(by_subject), starts


def _unit_rows(m: np.ndarray, name: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("nd,nd->n", m, m))
    if np.any(norms == 0.0):
        raise InvalidInput(f"cosine similarity is undefined for a zero {name} vector")
    return m / norms[:, None]


def shape_scores(queries: list[tuple[str, np.ndarray]], index: GalleryIndex) -> ScoreMatrix:
    """Cosine similarity of each query shape embedding against each subject.

    A subject with several index entries (per-tracklet mode) scores as the max
    over its entries.
    """
    q, g, subjects, starts = _operands(queries, index, "shape")
    unit_q, unit_g = _unit_rows(q, "query"), _unit_rows(g, "gallery")
    cos = np.clip(np.einsum("qd,gd->qg", unit_q, unit_g), -1.0, 1.0)
    scores = np.maximum.reduceat(cos, starts, axis=1)
    return ScoreMatrix(scores=scores, query_ids=[qid for qid, _ in queries], gallery_ids=subjects)


def appearance_scores(
    queries: list[tuple[str, np.ndarray]], index: GalleryIndex, rescale: bool = True
) -> ScoreMatrix:
    """Euclidean-distance scores per subject, as similarities.

    Distances are negated (per-tracklet mode keeps the smallest distance per
    subject) and, unless rescale=False, min-max normalized to [0, 1] within
    each query row; a degenerate all-equal row becomes 0.5 everywhere.
    """
    q, g, subjects, starts = _operands(queries, index, "appearance")
    neg = np.empty((q.shape[0], g.shape[0]))
    for i, row in enumerate(q):
        diff = g - row
        neg[i] = -np.sqrt(np.einsum("gd,gd->g", diff, diff))
    sims = np.maximum.reduceat(neg, starts, axis=1)
    if rescale:
        lo = sims.min(axis=1, keepdims=True)
        hi = sims.max(axis=1, keepdims=True)
        span = hi - lo
        flat = span[:, 0] == 0.0
        span[flat] = 1.0
        sims = (sims - lo) / span
        sims[flat] = 0.5
    return ScoreMatrix(scores=sims, query_ids=[qid for qid, _ in queries], gallery_ids=subjects)


def fuse_scores(s_shape: ScoreMatrix, s_app: ScoreMatrix, alpha: float) -> ScoreMatrix:
    """Weighted average alpha * shape + (1 - alpha) * appearance, entrywise."""
    if not (0.0 <= alpha <= 1.0):
        raise InvalidInput(f"alpha must be in [0, 1], got {alpha}")
    if s_shape.query_ids != s_app.query_ids or s_shape.gallery_ids != s_app.gallery_ids:
        raise AlignmentError("score matrices disagree on query/gallery id order")
    fused = alpha * s_shape.scores + (1.0 - alpha) * s_app.scores
    return ScoreMatrix(scores=fused, query_ids=list(s_shape.query_ids), gallery_ids=list(s_shape.gallery_ids))


def rank(scores: ScoreMatrix) -> list[list[str]]:
    """Descending-score gallery id list per query; ties break by ascending id, then by column."""
    by_id = sorted(range(len(scores.gallery_ids)), key=scores.gallery_ids.__getitem__)
    order = np.argsort(-scores.scores[:, by_id], axis=1, kind="stable")
    return np.array([scores.gallery_ids[j] for j in by_id], dtype=object)[order].tolist()
