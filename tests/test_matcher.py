import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sharc
from sharc.core import cosine_similarity, euclidean_distance
from sharc.exceptions import AlignmentError, DimMismatch, EmptyInput, InvalidInput
from sharc.gallery import GalleryIndex, IndexEntry
from sharc.matcher import (
    ScoreMatrix,
    appearance_scores,
    fuse_scores,
    rank,
    shape_scores,
)


# the matrix kernels sum in another order than the scalar oracles
ORACLE_TOL = 1e-12


def _index(entries):
    return GalleryIndex(
        entries=[
            IndexEntry(subject_id=s, shape=np.asarray(sh, float), appearance=np.asarray(ap, float), source_count=1)
            for s, sh, ap in entries
        ]
    )


class TestScoreMatrix:
    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            ScoreMatrix(np.zeros((2, 3)), ["q0"], ["a", "b", "c"])
        with pytest.raises(InvalidInput):
            ScoreMatrix(np.array([[np.nan]]), ["q0"], ["a"])

    def test_a_table_with_no_gallery_column_is_refused(self):
        # its header would be "query_id,", which reads back as one gallery id ""
        with pytest.raises(EmptyInput, match="at least one gallery column"):
            ScoreMatrix(np.zeros((1, 0)), ["q0"], [])

    def test_csv_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        m = ScoreMatrix(rng.standard_normal((4, 3)) * 1e-7, [f"q{i}" for i in range(4)], ["a", "b", "c"])
        p = tmp_path / "s.csv"
        m.write_csv(p, header_comment="tool test")
        back = ScoreMatrix.read_csv(p)
        assert back.query_ids == m.query_ids
        assert back.gallery_ids == m.gallery_ids
        np.testing.assert_array_equal(back.scores, m.scores)
        assert p.read_text().startswith("# tool test\n")

    @pytest.mark.parametrize(
        "query_ids, gallery_ids, bad",
        [
            (["#q0"], ["a"], "query id '#q0'"),
            (["q,0"], ["a"], "query id 'q,0'"),
            (["q0"], ["a,b"], "gallery id 'a,b'"),
            (["q\n0"], ["a"], "query id 'q\\n0'"),
            (["q0"], ["a\r"], "gallery id 'a\\r'"),
            (["q0"], ["g", "h", "g"], "gallery id 'g' appears twice"),
            (["q0", "q1", "q0"], ["a"], "query id 'q0' appears twice"),
        ],
        ids=["hash_query", "comma_query", "comma_gallery", "newline_query", "return_gallery",
             "repeated_gallery", "repeated_query"],
    )
    def test_write_refuses_ids_that_cannot_round_trip(self, tmp_path, query_ids, gallery_ids, bad):
        p = tmp_path / "s.csv"
        m = ScoreMatrix(np.zeros((len(query_ids), len(gallery_ids))), query_ids, gallery_ids)
        with pytest.raises(InvalidInput, match=re.escape(bad)):
            m.write_csv(p)
        assert not p.exists()

    def test_gallery_id_may_start_with_hash(self, tmp_path):
        # gallery ids sit in the header row, after "query_id,"
        m = ScoreMatrix(np.ones((1, 2)), ["q0"], ["#a", "b"])
        p = tmp_path / "s.csv"
        m.write_csv(p)
        assert ScoreMatrix.read_csv(p).gallery_ids == ["#a", "b"]

    def test_read_rejects_missing_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("nope,a\nq0,1.0\n")
        with pytest.raises(InvalidInput):
            ScoreMatrix.read_csv(p)

    def test_read_rejects_a_header_with_no_gallery_id(self, tmp_path):
        # the table it would read has no column, and write_csv gives it back
        # as one column with an empty id
        p = tmp_path / "s.csv"
        p.write_text("query_id\nq0\n")
        with pytest.raises(InvalidInput, match="s.csv: line 1: header names no gallery id"):
            ScoreMatrix.read_csv(p)


class TestShapeScores:
    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(0)
        idx = _index([(f"s{i}", rng.standard_normal(6), rng.standard_normal(5)) for i in range(4)])
        queries = [(f"q{i}", rng.standard_normal(6)) for i in range(3)]
        m = shape_scores(queries, idx)
        for qi, (_, q) in enumerate(queries):
            for gi, e in enumerate(idx.entries):
                assert abs(m.scores[qi, gi] - cosine_similarity(q, e.shape)) <= ORACLE_TOL

    def test_multiple_entries_take_max(self):
        idx = _index(
            [
                ("s0", [1.0, 0.0], [0.0]),
                ("s0", [0.0, 1.0], [0.0]),
                ("s1", [-1.0, 0.0], [0.0]),
            ]
        )
        m = shape_scores([("q", np.array([1.0, 0.0]))], idx)
        assert m.gallery_ids == ["s0", "s1"]
        assert m.scores[0, 0] == 1.0  # max over the two s0 entries
        assert m.scores[0, 1] == -1.0


class TestAppearanceScores:
    def test_raw_scores_are_negated_distances(self):
        rng = np.random.default_rng(1)
        idx = _index([(f"s{i}", rng.standard_normal(3), rng.standard_normal(5)) for i in range(4)])
        queries = [(f"q{i}", rng.standard_normal(5)) for i in range(2)]
        m = appearance_scores(queries, idx, rescale=False)
        for qi, (_, q) in enumerate(queries):
            for gi, e in enumerate(idx.entries):
                assert abs(m.scores[qi, gi] - -euclidean_distance(q, e.appearance)) <= ORACLE_TOL

    def test_rescaled_rows_span_unit_interval(self):
        rng = np.random.default_rng(2)
        idx = _index([(f"s{i}", rng.standard_normal(3), rng.standard_normal(5)) for i in range(5)])
        queries = [(f"q{i}", rng.standard_normal(5)) for i in range(3)]
        m = appearance_scores(queries, idx)
        assert np.all(m.scores >= 0.0) and np.all(m.scores <= 1.0)
        np.testing.assert_array_equal(m.scores.min(axis=1), 0.0)
        np.testing.assert_array_equal(m.scores.max(axis=1), 1.0)

    def test_rescale_preserves_order(self):
        rng = np.random.default_rng(4)
        idx = _index([(f"s{i}", rng.standard_normal(3), rng.standard_normal(5)) for i in range(5)])
        queries = [("q0", rng.standard_normal(5))]
        raw = appearance_scores(queries, idx, rescale=False)
        scaled = appearance_scores(queries, idx)
        np.testing.assert_array_equal(np.argsort(raw.scores[0]), np.argsort(scaled.scores[0]))

    def test_degenerate_row_maps_to_half(self):
        idx = _index([("s0", [0.0], [1.0, 0.0]), ("s1", [0.0], [-1.0, 0.0])])
        m = appearance_scores([("q", np.array([0.0, 0.0]))], idx)
        np.testing.assert_array_equal(m.scores, [[0.5, 0.5]])


class TestPerTracklet:
    def test_non_adjacent_entries_match_scalar_max(self):
        rng = np.random.default_rng(7)
        order = ["b", "a", "b", "c", "a", "b"]
        idx = _index([(s, rng.standard_normal(6), rng.standard_normal(4)) for s in order])
        queries_shape = [(f"q{i}", rng.standard_normal(6)) for i in range(3)]
        queries_app = [(f"q{i}", rng.standard_normal(4)) for i in range(3)]
        m_shape = shape_scores(queries_shape, idx)
        m_app = appearance_scores(queries_app, idx, rescale=False)
        assert m_shape.gallery_ids == m_app.gallery_ids == ["b", "a", "c"]
        for gi, subject in enumerate(["b", "a", "c"]):
            mine = [e for e in idx.entries if e.subject_id == subject]
            for qi in range(3):
                best_cos = max(cosine_similarity(queries_shape[qi][1], e.shape) for e in mine)
                best_app = max(-euclidean_distance(queries_app[qi][1], e.appearance) for e in mine)
                assert abs(m_shape.scores[qi, gi] - best_cos) <= ORACLE_TOL
                assert abs(m_app.scores[qi, gi] - best_app) <= ORACLE_TOL


class TestValidation:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(8)

    def test_zero_shape_vectors_rejected(self, rng):
        idx = _index([("s0", rng.standard_normal(3), np.ones(2)), ("s1", np.zeros(3), np.ones(2))])
        with pytest.raises(InvalidInput):
            shape_scores([("q", rng.standard_normal(3))], idx)
        idx = _index([("s0", rng.standard_normal(3), np.ones(2))])
        with pytest.raises(InvalidInput):
            shape_scores([("q0", rng.standard_normal(3)), ("q1", np.zeros(3))], idx)

    @pytest.mark.parametrize("score", [shape_scores, appearance_scores])
    def test_non_finite_rejected(self, score):
        bad_gallery = _index([("s0", [np.inf, 1.0], [1.0, np.nan])])
        with pytest.raises(InvalidInput):
            score([("q", np.ones(2))], bad_gallery)
        good = _index([("s0", [1.0, 1.0], [1.0, 1.0])])
        with pytest.raises(InvalidInput):
            score([("q0", np.ones(2)), ("q1", np.array([1.0, np.nan]))], good)

    @pytest.mark.parametrize("score", [shape_scores, appearance_scores])
    def test_dim_mismatch_rejected(self, rng, score):
        idx = _index([("s0", rng.standard_normal(4), rng.standard_normal(4))])
        with pytest.raises(DimMismatch):
            score([("q", rng.standard_normal(3))], idx)
        ragged = _index([("s0", np.ones(4), np.ones(4)), ("s1", np.ones(5), np.ones(5))])
        with pytest.raises(DimMismatch):
            score([("q", rng.standard_normal(4))], ragged)


THREADS_SCRIPT = """
import sys
import numpy as np
from sharc.gallery import GalleryIndex, IndexEntry
from sharc.matcher import appearance_scores, shape_scores
rng = np.random.default_rng(20231015)
n = 201
index = GalleryIndex([IndexEntry(f"s{i}", rng.standard_normal(80), rng.standard_normal(32), 1) for i in range(n)])
shape_q = [(f"q{i}", rng.standard_normal(80)) for i in range(n)]
app_q = [(f"q{i}", rng.standard_normal(32)) for i in range(n)]
sys.stdout.buffer.write(shape_scores(shape_q, index).scores.tobytes())
sys.stdout.buffer.write(appearance_scores(app_q, index, rescale=False).scores.tobytes())
"""


def test_score_bytes_do_not_depend_on_blas_threads():
    # 201 rows do not split evenly over two threads; there a BLAS product
    # (q @ g.T) gives different bytes at one and at two threads
    src = str(Path(sharc.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, check=True, timeout=120
        )
        outputs.append(run.stdout)
    half = 201 * 201 * 8
    assert len(outputs[0]) == 2 * half
    assert outputs[0][:half] == outputs[1][:half]  # shape
    assert outputs[0][half:] == outputs[1][half:]  # appearance


class TestFusion:
    def _pair(self):
        rng = np.random.default_rng(5)
        q, g = [f"q{i}" for i in range(4)], [f"s{i}" for i in range(6)]
        a = ScoreMatrix(rng.standard_normal((4, 6)), q, g)
        b = ScoreMatrix(rng.standard_normal((4, 6)), q, g)
        return a, b

    def test_affine_combination(self):
        a, b = self._pair()
        for alpha in (0.1, 0.37, 0.9):
            fused = fuse_scores(a, b, alpha)
            np.testing.assert_array_equal(fused.scores, alpha * a.scores + (1 - alpha) * b.scores)

    def test_endpoint_degeneracy_is_exact(self):
        a, b = self._pair()
        np.testing.assert_array_equal(fuse_scores(a, b, 1.0).scores, a.scores)
        np.testing.assert_array_equal(fuse_scores(a, b, 0.0).scores, b.scores)

    def test_alpha_bounds(self):
        a, b = self._pair()
        with pytest.raises(InvalidInput):
            fuse_scores(a, b, -0.1)
        with pytest.raises(InvalidInput):
            fuse_scores(a, b, 1.5)

    def test_misaligned_axes_rejected(self):
        a, b = self._pair()
        swapped = ScoreMatrix(b.scores, b.query_ids, list(reversed(b.gallery_ids)))
        with pytest.raises(AlignmentError):
            fuse_scores(a, swapped, 0.5)


class TestRank:
    def test_descending_order(self):
        m = ScoreMatrix(np.array([[0.2, 0.9, 0.5]]), ["q"], ["a", "b", "c"])
        assert rank(m) == [["b", "c", "a"]]

    def test_ties_break_by_ascending_id(self):
        m = ScoreMatrix(np.array([[0.5, 0.5, 0.1]]), ["q"], ["zz", "aa", "mm"])
        assert rank(m) == [["aa", "zz", "mm"]]

    @staticmethod
    def _lexsort_oracle(m):
        """The per-row rank: lexsort by -score, then id, then column order."""
        ids = np.array(m.gallery_ids)
        return [[m.gallery_ids[j] for j in np.lexsort((ids, -row))] for row in m.scores]

    @pytest.mark.parametrize(
        "scores, gallery_ids",
        [
            # exact ties across many columns, ids in no particular column order
            (np.random.default_rng(3).integers(0, 3, (6, 40)) / 4.0, [f"g{(7 * i) % 40:02d}" for i in range(40)]),
            # 0.0 and -0.0 are one score: the tie breaks by id
            (np.array([[0.0, -0.0, 0.0, -0.0, 1.0], [-0.0, 0.0, -0.0, 0.0, -1.0]]), ["d", "b", "e", "a", "c"]),
            # unsorted ids, distinct scores
            (np.random.default_rng(4).standard_normal((5, 9)), ["z", "m", "a", "q", "b", "y", "c", "x", "n"]),
            # a repeated id
            (np.array([[0.5, 0.5, 0.5, 0.2]]), ["k", "j", "k", "a"]),
        ],
        ids=["many-ties", "signed-zeros", "unsorted-ids", "repeated-id"],
    )
    def test_matches_the_per_row_lexsort(self, scores, gallery_ids):
        m = ScoreMatrix(scores, [f"q{i}" for i in range(len(scores))], gallery_ids)
        assert rank(m) == self._lexsort_oracle(m)

    def test_each_row_is_a_permutation(self):
        rng = np.random.default_rng(6)
        ids = [f"s{i}" for i in range(7)]
        m = ScoreMatrix(rng.standard_normal((5, 7)), [f"q{i}" for i in range(5)], ids)
        for row in rank(m):
            assert sorted(row) == sorted(ids)


def test_fused_ranking_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    gallery = {f"s{i}": (rng.standard_normal(6), rng.standard_normal(5)) for i in range(8)}
    # exact ties in both modalities: they must break by ascending id
    gallery["s7"] = gallery["s2"]
    gallery["s0"] = gallery["s5"]
    ids = ["s7", "s3", "s0", "s6", "s2", "s1", "s5", "s4"]
    idx = _index([(g, *gallery[g]) for g in ids])
    queries = [(f"q{i}", rng.standard_normal(6), rng.standard_normal(5)) for i in range(6)]
    queries.append(("q_tie", *gallery["s2"]))
    alpha = 0.1
    s_shape = shape_scores([(q, sv) for q, sv, _ in queries], idx)
    s_app = appearance_scores([(q, av) for q, _, av in queries], idx)
    ranked = rank(fuse_scores(s_shape, s_app, alpha))

    expected = []
    for _, sv, av in queries:
        cos = [cosine_similarity(sv, gallery[g][0]) for g in ids]
        neg = [-euclidean_distance(av, gallery[g][1]) for g in ids]
        lo, hi = min(neg), max(neg)
        app = [(x - lo) / (hi - lo) for x in neg]
        fused = [alpha * c + (1.0 - alpha) * a for c, a in zip(cos, app)]
        expected.append([g for _, g in sorted(zip(fused, ids), key=lambda p: (-p[0], p[1]))])
    assert ranked == expected
    assert ranked[-1][:2] == ["s2", "s7"]
