from __future__ import annotations

import math

import pytest

from orion.corpus import NOT_FOUND
from orion.engine import EpisodeResult
from orion.metrics import (
    analyze_behavior,
    detect_backtracking,
    evaluate_episodes,
    goodness_from_ranks,
    mrr,
    ndcg_at_k,
    query_length_stats,
    rank_stagnation,
    recall_at_k,
    success_at_k,
    turnwise_success_distribution,
)
from orion.trace import RetrievedDoc, SearchState, Turn

# grade 2 for c, grade 1 for a and x (x is never retrieved), grade 0 for z
GRADES = {"a": 1, "c": 2, "x": 1, "z": 0}
RANKING = ["a", "b", "c", "d"]


def episode(ranks, reason="budget_exhausted", queries=None, last_ids=()):
    """An episode whose turns carry the given target ranks and queries; the
    last turn retrieves `last_ids`."""
    queries = queries or [f"query {i}" for i in range(len(ranks))]
    turns = tuple(
        Turn(
            think=f"think {i}",
            query=q,
            results=tuple(RetrievedDoc(f"text of {d}", d, 0.5) for d in last_ids)
            if i == len(ranks) - 1 else (),
            target_rank=r,
        )
        for i, (r, q) in enumerate(zip(ranks, queries))
    )
    return EpisodeResult(
        SearchState(original_query="question", history=turns, terminal_reason=reason)
    )


class TestRankingMetrics:
    def test_ndcg_with_two_grades(self):
        # DCG@3 = (2^1 - 1)/log2(2) + (2^2 - 1)/log2(4); the ideal order is c, a, x
        idcg = 3.0 + 1.0 / math.log2(3) + 1.0 / math.log2(4)
        assert ndcg_at_k(RANKING, GRADES, 3) == pytest.approx((1.0 + 1.5) / idcg, abs=1e-12)

    def test_ndcg_cut_off_at_k(self):
        assert ndcg_at_k(RANKING, GRADES, 1) == pytest.approx(1.0 / 3.0, abs=1e-12)
        idcg = 3.0 + 1.0 / math.log2(3)
        assert ndcg_at_k(["b", "c"], GRADES, 2) == pytest.approx((3.0 / math.log2(3)) / idcg, abs=1e-12)

    def test_ndcg_of_the_ideal_order_is_one(self):
        assert ndcg_at_k(["c", "a", "x"], GRADES, 3) == pytest.approx(1.0, abs=1e-12)

    def test_ndcg_needs_a_positive_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k(RANKING, GRADES, 0)

    def test_recall(self):
        assert recall_at_k(RANKING, GRADES, 3) == pytest.approx(2 / 3)
        assert recall_at_k(RANKING, GRADES, 1) == pytest.approx(1 / 3)

    def test_success(self):
        assert success_at_k(RANKING, GRADES, 3) == 1.0
        assert success_at_k(["b", "z", "a"], GRADES, 2) == 0.0

    def test_mrr(self):
        assert mrr(["b", "c", "a"], GRADES, 3) == 0.5
        assert mrr(["b", "c", "a"], GRADES, 1) == 0.0
        # a grade-0 document is not relevant
        assert mrr(["z", "b", "a"], GRADES, 5) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("grades", [{}, {"a": 0, "b": 0}])
    def test_no_relevant_docs_score_zero(self, grades):
        for metric in (ndcg_at_k, recall_at_k, success_at_k, mrr):
            assert metric(RANKING, grades, 3) == 0.0

    def test_evaluate_reads_the_final_turn(self):
        won = episode([3, 0], "success", last_ids=("c", "a"))
        lost = episode([5], last_ids=("b", "d"))
        summary, rows = evaluate_episodes([("q1", won), ("q2", lost)], {"q1": GRADES, "q2": GRADES}, 2)
        # c then a: both relevant, and the ideal top 2 is c, a
        assert rows == [("q1", 1.0, 2 / 3, 1.0, 1.0), ("q2", 0.0, 0.0, 0.0, 0.0)]
        assert summary == {
            "k": 2, "queries": 2, "ndcg@2": 0.5, "recall@2": 1 / 3, "success@2": 0.5, "mrr": 0.5,
        }

    def test_evaluate_an_empty_log(self):
        assert evaluate_episodes([], {}, 3) == (
            {"k": 3, "queries": 0, "ndcg@3": 0.0, "recall@3": 0.0, "success@3": 0.0, "mrr": 0.0},
            [],
        )


class TestBacktracking:
    def test_one_interior_dip(self):
        assert detect_backtracking([0.0, -3.0, -1.0]) == 1

    def test_two_dips(self):
        assert detect_backtracking([-5.0, -1.0, -3.0, -2.0, -4.0, -1.0]) == 2

    def test_dips_are_strict(self):
        assert detect_backtracking([0.0, -1.0, -1.0, 0.0]) == 0

    def test_short_sequences(self):
        assert detect_backtracking([0.0]) == 0
        with pytest.raises(ValueError):
            detect_backtracking([])

    def test_absence_is_the_worst_goodness(self):
        goodness = goodness_from_ranks([3, NOT_FOUND, 0])
        assert goodness == [-3.0, -math.inf, -0.0]
        assert detect_backtracking(goodness) == 1

    @pytest.mark.parametrize(
        "ranks, dips",
        [([10, NOT_FOUND, 12], 1), ([NOT_FOUND, NOT_FOUND, 4], 0), ([4, NOT_FOUND, NOT_FOUND], 0)],
    )
    def test_absence_is_worse_than_any_rank(self, ranks, dips):
        # a corpus size stood in for absence before, and a too-small one hid this dip
        assert detect_backtracking(goodness_from_ranks(ranks)) == dips


class TestStagnation:
    @pytest.mark.parametrize(
        "ranks, strict, relaxed",
        [
            ([4, 4, 4], True, True),
            ([4, 4, 5], False, True),
            ([4, 5, 4], False, False),
            ([4], False, False),
        ],
    )
    def test_strict_and_relaxed(self, ranks, strict, relaxed):
        assert rank_stagnation(ranks) is strict
        assert rank_stagnation(ranks, relaxed=True) is relaxed

    def test_needs_ranks(self):
        with pytest.raises(ValueError):
            rank_stagnation([])


class TestEpisodeStatistics:
    def test_turnwise_success_distribution(self):
        episodes = [
            ("a", episode([0], "success")),
            ("b", episode([2, 0], "success")),
            ("c", episode([4, 1, 0], "success")),
            ("d", episode([5, 4, 0], "success")),
            ("e", episode([7, 7])),
        ]
        assert turnwise_success_distribution(episodes) == {1: 0.25, 2: 0.25, 3: 0.5}

    def test_turnwise_success_without_successes(self):
        assert turnwise_success_distribution([("a", episode([3]))]) == {}

    def test_query_length_quantiles(self):
        queries = ["ab", "abcd", "abcdef", "abcdefgh"]
        stats = query_length_stats([("a", episode([1, 1], queries=queries[:2])),
                                    ("b", episode([1, 1], queries=queries[2:]))])
        # midpoint interpolation over [2, 4, 6, 8]
        assert stats == {"p25": 3.0, "p50": 5.0, "p75": 7.0, "max": 8.0}

    def test_query_length_needs_queries(self):
        with pytest.raises(ValueError):
            query_length_stats([("a", episode([]))])


class TestAnalyzeBehavior:
    def test_episodes_without_ranks_are_skipped(self):
        episodes = [
            ("dip", episode([3, 5, 1])),
            ("flat", episode([2, 2])),
            ("no qrels", episode([None, None], queries=["a much longer query", "and another"])),
            ("partly ranked", episode([None, 3])),
            ("won", episode([0], "success")),
        ]
        summary = analyze_behavior(episodes)
        assert summary["episodes"] == 5
        assert summary["backtrack_rate"] == pytest.approx(1 / 3)
        assert summary["stagnation_rate"] == pytest.approx(1 / 3)
        assert summary["successful_episodes"] == 1
        assert summary["turnwise_success"] == {"1": 1.0}
        # unranked episodes still count toward the query lengths
        assert summary["query_length"]["max"] == len("a much longer query")

    def test_relaxed_stagnation(self):
        episodes = [("a", episode([4, 4, 5])), ("b", episode([1, 2]))]
        assert analyze_behavior(episodes)["stagnation_rate"] == 0.0
        assert analyze_behavior(episodes, relaxed_stagnation=True)["stagnation_rate"] == 0.5

    @pytest.mark.parametrize("episodes", [[], [("a", episode([], "policy_error"))]])
    def test_a_log_without_queries_has_no_query_lengths(self, episodes):
        summary = analyze_behavior(episodes)
        assert summary["query_length"] is None
        assert summary["episodes"] == len(episodes)

    def test_summary_flags_no_successes(self):
        summary = analyze_behavior([("a", episode([1, 2]))])
        assert summary["no_successes"] is True
        assert summary["turnwise_success"] == {}
