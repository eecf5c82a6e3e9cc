import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharc.exceptions import InvalidInput, UnmatchableQuery
from sharc.matcher import ScoreMatrix, rank
from sharc.metrics import (
    DEFAULT_RANKS,
    EvalReport,
    average_precision,
    cmc,
    evaluate_ranking,
    evaluate_scores,
    _mean,
    mean_average_precision,
)


def _oracle_cmc(ranked_lists, query_labels, gallery_labels, k):
    hits = [
        any(gallery_labels[g] == lab for g in ranked[:k])
        for ranked, lab in zip(ranked_lists, query_labels)
    ]
    return sum(hits) / len(hits)


def _oracle_aps(ranked_lists, query_labels, gallery_labels):
    aps = []
    for ranked, lab in zip(ranked_lists, query_labels):
        rel = np.array([gallery_labels[g] == lab for g in ranked])
        cum = np.cumsum(rel)
        precision_at_hits = cum[rel] / (np.flatnonzero(rel) + 1)
        aps.append(precision_at_hits.mean())
    return aps


def _oracle_map(ranked_lists, query_labels, gallery_labels):
    return float(np.mean(_oracle_aps(ranked_lists, query_labels, gallery_labels)))


def _random_instance(rng, n_query=10, n_gallery=30):
    gallery_ids = [f"g{i}" for i in range(n_gallery)]
    subjects = [f"s{i}" for i in range(n_gallery // 3)]
    gallery_labels = {g: subjects[rng.integers(len(subjects))] for g in gallery_ids}
    present = sorted(set(gallery_labels.values()))
    query_labels = [present[rng.integers(len(present))] for _ in range(n_query)]
    scores = ScoreMatrix(
        rng.standard_normal((n_query, n_gallery)),
        [f"q{i}" for i in range(n_query)],
        gallery_ids,
    )
    return rank(scores), query_labels, gallery_labels


class TestCmc:
    def test_hand_case(self):
        ranked = [["a", "b", "c"], ["b", "a", "c"]]
        labels = ["x", "y"]
        gal = {"a": "x", "b": "y", "c": "z"}
        assert cmc(ranked, labels, gal, k=1) == 1.0
        ranked = [["b", "a", "c"], ["b", "a", "c"]]
        assert cmc(ranked, labels, gal, k=1) == 0.5
        assert cmc(ranked, labels, gal, k=2) == 1.0

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ranked, labels, gal = _random_instance(rng)
            for k in (1, 3, 10):
                assert cmc(ranked, labels, gal, k) == _oracle_cmc(ranked, labels, gal, k)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInput):
            cmc([["a"]], ["x"], {"a": "x"}, k=0)

    def test_unmatchable_query(self):
        ranked = [["a"], ["a"]]
        gal = {"a": "x"}
        with pytest.raises(UnmatchableQuery):
            cmc(ranked, ["x", "ghost"], gal, k=1)
        assert cmc(ranked, ["x", "ghost"], gal, k=1, skip_unmatchable=True) == 1.0


class TestAveragePrecision:
    def test_hand_case(self):
        # correct entries at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        gal = {"a": "x", "b": "y", "c": "x", "d": "z"}
        ap = average_precision(["a", "b", "c", "d"], "x", gal)
        assert ap == (1.0 + 2.0 / 3.0) / 2.0

    def test_perfect_retrieval(self):
        gal = {"a": "x", "b": "x", "c": "y"}
        assert average_precision(["a", "b", "c"], "x", gal) == 1.0

    def test_absent_label_raises(self):
        with pytest.raises(UnmatchableQuery):
            average_precision(["a"], "zz", {"a": "x"})

    def test_map_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            ranked, labels, gal = _random_instance(rng)
            got = mean_average_precision(ranked, labels, gal)
            assert got == pytest.approx(_oracle_map(ranked, labels, gal), abs=1e-15)


class TestEvalReport:
    def test_evaluate_ranking_assembles_both_metrics(self):
        rng = np.random.default_rng(13)
        ranked, labels, gal = _random_instance(rng)
        report = evaluate_ranking(ranked, labels, gal)
        assert tuple(report.rank_k) == DEFAULT_RANKS
        for k in DEFAULT_RANKS:
            assert report.rank_k[k] == cmc(ranked, labels, gal, k)
        assert report.map_score == mean_average_precision(ranked, labels, gal)
        assert len(report.per_query_ap) == len(labels)
        assert isinstance(report.map_score, float)
        assert all(isinstance(v, float) for v in report.rank_k.values())

    @pytest.mark.parametrize("skip_unmatchable", [False, True])
    def test_every_metric_equals_the_oracles(self, skip_unmatchable):
        # two to five gallery entries per subject (fewer than eight hits, so the
        # oracle's numpy mean sums in the same order as the sequential AP sum)
        rng = np.random.default_rng(14)
        for _ in range(20):
            gallery_labels = {}
            for s in range(6):
                for t in range(rng.integers(2, 6)):
                    gallery_labels[f"g{s}_{t}"] = f"s{s}"
            ids = list(gallery_labels)
            rng.shuffle(ids)
            labels = [f"s{rng.integers(6)}" for _ in range(12)]
            if skip_unmatchable:
                labels[::4] = ["ghost"] * len(labels[::4])
            scores = ScoreMatrix(rng.standard_normal((12, len(ids))), [f"q{i}" for i in range(12)], ids)
            ranked = rank(scores)
            report = evaluate_ranking(ranked, labels, gallery_labels, skip_unmatchable=skip_unmatchable)
            kept = [i for i, lab in enumerate(labels) if lab != "ghost"]
            kept_ranked, kept_labels = [ranked[i] for i in kept], [labels[i] for i in kept]
            assert tuple(report.rank_k) == DEFAULT_RANKS
            for k, value in report.rank_k.items():
                assert value == _oracle_cmc(kept_ranked, kept_labels, gallery_labels, k)
            # k = 40 is beyond every gallery here
            for k in (1, 2, 3, 5, 40):
                got = cmc(ranked, labels, gallery_labels, k, skip_unmatchable=skip_unmatchable)
                assert got == _oracle_cmc(kept_ranked, kept_labels, gallery_labels, k)
            assert report.per_query_ap == _oracle_aps(kept_ranked, kept_labels, gallery_labels)
            assert report.map_score == _oracle_map(kept_ranked, kept_labels, gallery_labels)

    def test_a_list_without_its_correct_ids_is_a_miss_and_has_no_ap(self):
        # the second list stops before its correct id
        gal = {"a": "x", "b": "y", "c": "y"}
        ranked = [["b", "a", "c"], ["b", "c"]]
        labels = ["x", "x"]
        assert cmc(ranked, labels, gal, k=3) == 0.5
        with pytest.raises(UnmatchableQuery, match="label 'x' absent from the ranked list"):
            average_precision(ranked[1], "x", gal)
        with pytest.raises(UnmatchableQuery, match="absent from the ranked list"):
            mean_average_precision(ranked, labels, gal)
        with pytest.raises(UnmatchableQuery, match="absent from the ranked list"):
            evaluate_ranking(ranked, labels, gal)

    def test_lines_and_csv_shapes(self):
        report = EvalReport(rank_k={1: 0.5, 5: 1.0}, map_score=0.75)
        assert report.lines() == ["rank_1=0.5", "rank_5=1.0", "map=0.75"]
        header, values = report.csv_rows()
        assert header == "rank_1,rank_5,map"
        assert values == "0.5,1.0,0.75"

    def test_lines_round_trip_through_float(self):
        report = EvalReport(rank_k={1: 1 / 3}, map_score=2 / 7)
        for line in report.lines():
            _, text = line.split("=")
            assert repr(float(text)) == text


def _ranked_report(scores, gallery_ids, labels):
    """The oracle: sort each row with `rank`, then evaluate the ranked lists."""
    matrix = ScoreMatrix(scores, [f"q{i}" for i in range(len(labels))], gallery_ids)
    return evaluate_ranking(rank(matrix), labels, {g: g for g in gallery_ids})


class TestEvaluateScores:
    """`evaluate_scores` counts each query's rank; `evaluate_ranking(rank(...))`
    sorts. Both must give the same report, float for float."""

    # the form in which the (Q, G) scores are passed: here the numpy matrix
    form = staticmethod(lambda scores: scores)

    @staticmethod
    def _case(rng, n_query, n_gallery, grid):
        # ids whose string order is not their column order: "s10" < "s2"
        gallery_ids = [f"s{i}" for i in rng.permutation(n_gallery)]
        scores = rng.standard_normal((n_query, n_gallery))
        if grid:
            scores = np.round(scores * grid) / grid
        labels = [gallery_ids[j] for j in rng.integers(n_gallery, size=n_query)]
        return scores, gallery_ids, labels

    @pytest.mark.parametrize("grid", [None, 4, 1], ids=["continuous", "quarters", "integers"])
    @pytest.mark.parametrize("n_query, n_gallery", [(1, 1), (1, 12), (7, 3), (40, 25), (60, 300)])
    def test_equals_sorting_on_seeded_matrices(self, grid, n_query, n_gallery):
        rng = np.random.default_rng(n_query * 1000 + n_gallery)
        for _ in range(5):
            scores, gallery_ids, labels = self._case(rng, n_query, n_gallery, grid)
            got = evaluate_scores(self.form(scores), gallery_ids, labels)
            want = _ranked_report(scores, gallery_ids, labels)
            assert got.rank_k == want.rank_k
            assert got.per_query_ap == want.per_query_ap
            assert got.map_score == want.map_score
            assert all(type(v) is float for v in [got.map_score, *got.rank_k.values(), *got.per_query_ap])

    def test_a_row_in_which_every_column_ties(self):
        rng = np.random.default_rng(5)
        scores, gallery_ids, labels = self._case(rng, 9, 30, None)
        scores[3] = 0.25
        scores[5] = -0.0
        got = evaluate_scores(self.form(scores), gallery_ids, labels)
        want = _ranked_report(scores, gallery_ids, labels)
        assert got == want
        # a tied row ranks its subject by id: as many columns ahead as smaller ids
        assert got.per_query_ap[3] == 1 / (1 + sorted(gallery_ids).index(labels[3]))

    def test_zero_and_negative_zero_tie(self):
        rng = np.random.default_rng(6)
        gallery_ids = [f"s{i}" for i in rng.permutation(16)]
        scores = rng.choice(np.array([0.0, -0.0, 0.5, -0.5]), size=(50, 16))
        labels = [gallery_ids[j] for j in rng.integers(16, size=50)]
        assert np.any(np.signbit(scores) & (scores == 0.0))
        got = evaluate_scores(self.form(scores), gallery_ids, labels)
        assert got == _ranked_report(scores, gallery_ids, labels)

    def test_a_query_whose_subject_is_no_column(self):
        scores, gallery_ids = np.zeros((3, 2)), ["a", "b"]
        with pytest.raises(UnmatchableQuery) as counted:
            evaluate_scores(self.form(scores), gallery_ids, ["a", "ghost", "x"])
        with pytest.raises(UnmatchableQuery) as ranked:
            _ranked_report(scores, gallery_ids, ["a", "ghost", "x"])
        assert str(counted.value) == str(ranked.value) == "queries with no correct gallery entry: indices [1, 2]"

    @pytest.mark.parametrize(
        "scores, gallery_ids, labels, message",
        [
            (np.zeros((1, 2)), ["a", "a"], ["a"], "gallery ids must be unique"),
            (np.zeros((2, 2)), ["a", "b"], ["a"], "does not match 1 queries x 2 ids"),
            (np.array([[0.0, np.nan]]), ["a", "b"], ["a"], "non-finite"),
            (np.zeros((0, 2)), ["a", "b"], [], "no matchable queries"),
        ],
        ids=["repeated_id", "wrong_shape", "nan", "no_queries"],
    )
    def test_refuses_what_it_cannot_rank(self, scores, gallery_ids, labels, message):
        with pytest.raises(InvalidInput, match=message):
            evaluate_scores(self.form(scores), gallery_ids, labels)


class TestEvaluateScoresOnLists(TestEvaluateScores):
    """The same cases with the scores as `tolist()` rows of Python floats,
    as `evaluate` reads them from a score file and the sweeps pass them."""

    form = staticmethod(lambda scores: scores.tolist())


# under 8, the 8 running sums, the first splits above 128, and past numpy's
# 8192-element buffer
_MEAN_LENGTHS = st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 20000])


@settings(max_examples=80, deadline=None)
@given(n=_MEAN_LENGTHS | st.integers(0, 300), normal=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_mean_has_the_bits_of_numpy_mean(n, normal, seed):
    xs = np.random.default_rng(seed).standard_normal(n).tolist() if normal else [1 / (k + 1) for k in range(n)]
    if n == 0:
        with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning):
            assert math.isnan(_mean(xs)) and math.isnan(float(np.mean(xs)))
    else:
        assert struct.pack("<d", _mean(xs)) == struct.pack("<d", float(np.mean(xs)))
