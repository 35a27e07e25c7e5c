"""IR effectiveness metrics and search-behavior analytics over episode logs.

Metrics use 1-based positions internally: nDCG@k with exponential gain
2^grade - 1 and log2(position+1) discounts, Recall@k, Success@k, and MRR.
Documents with grade >= 1 count as relevant.

Behavior analytics read the per-turn target ranks of an episode. Backtracking
is a dip in *goodness* (negative rank; absence maps to the worst value): a
turn whose goodness falls below both neighbors marks deterioration followed
by recovery. Stagnation is an episode whose rank never changes across two or
more turns (a relaxed any-consecutive-repeat variant sits behind a flag).

This module does no I/O: `evaluate_episodes` and `analyze_behavior` return
plain dicts and tuples, and the CLI writes them to files.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .corpus import NOT_FOUND
from .engine import EpisodeResult, relevant_docs


def ndcg_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    """DCG@k over IDCG@k with gain 2^grade - 1; 0 when nothing is relevant."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = 0.0
    for pos, doc_id in enumerate(ranking[:k], 1):
        grade = qrels.get(doc_id, 0)
        if grade > 0:
            dcg += (2.0**grade - 1.0) / math.log2(pos + 1)
    ideal = sorted((g for g in qrels.values() if g > 0), reverse=True)
    idcg = sum(
        (2.0**g - 1.0) / math.log2(pos + 1) for pos, g in enumerate(ideal[:k], 1)
    )
    return dcg / idcg if idcg > 0 else 0.0


def recall_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    relevant = relevant_docs(qrels)
    if not relevant:
        return 0.0
    return len(relevant.intersection(ranking[:k])) / len(relevant)


def success_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    relevant = relevant_docs(qrels)
    return 1.0 if relevant.intersection(ranking[:k]) else 0.0


def mrr(ranking: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    relevant = relevant_docs(qrels)
    for pos, doc_id in enumerate(ranking[:k], 1):
        if doc_id in relevant:
            return 1.0 / pos
    return 0.0


def final_ranking(result: EpisodeResult) -> list[str]:
    """Doc ids of the episode's final turn (the success turn when it won)."""
    last = result.trace.last_turn()
    if last is None:
        return []
    return [d.doc_id for d in last.results if d.doc_id is not None]


def evaluate_episodes(
    episodes: Sequence[tuple[str, EpisodeResult]],
    qrels: Mapping[str, Mapping[str, int]],
    k: int,
) -> tuple[dict, list[tuple[str, float, float, float, float]]]:
    """The `metrics.json` summary of an episode log at depth `k` (each
    metric's mean over the episodes, 0.0 for an empty log), and one
    (query_id, ndcg, recall, success, mrr) row per episode in log order."""
    rows = []
    for qid, result in episodes:
        ranking = final_ranking(result)
        grades = qrels.get(qid, {})
        rows.append((
            qid,
            ndcg_at_k(ranking, grades, k),
            recall_at_k(ranking, grades, k),
            success_at_k(ranking, grades, k),
            mrr(ranking, grades, k),
        ))

    def mean(column: int) -> float:
        return sum(row[column] for row in rows) / len(rows) if rows else 0.0

    summary = {
        "k": k,
        "queries": len(rows),
        f"ndcg@{k}": mean(1),
        f"recall@{k}": mean(2),
        f"success@{k}": mean(3),
        "mrr": mean(4),
    }
    return summary, rows


# --- behavioral analytics -------------------------------------------------------


def goodness_from_ranks(ranks: Sequence[int]) -> list[float]:
    """Per-turn goodness: negative rank, NOT_FOUND pinned to the worst value."""
    return [-math.inf if r == NOT_FOUND else -float(r) for r in ranks]


def detect_backtracking(goodness: Sequence[float]) -> int:
    """Count interior dips: g[i-1] > g[i] < g[i+1] (strict on both sides)."""
    if not goodness:
        raise ValueError("goodness sequence must be non-empty")
    return sum(
        1
        for i in range(1, len(goodness) - 1)
        if goodness[i - 1] > goodness[i] < goodness[i + 1]
    )


def rank_stagnation(ranks: Sequence[int], relaxed: bool = False) -> bool:
    """Strict: all turns share one rank (needs >= 2 turns).

    Relaxed: any consecutive repeat counts.
    """
    if not ranks:
        raise ValueError("rank sequence must be non-empty")
    if len(ranks) < 2:
        return False
    if relaxed:
        return any(a == b for a, b in zip(ranks, ranks[1:]))
    return all(r == ranks[0] for r in ranks[1:])


def turnwise_success_distribution(
    episodes: Sequence[tuple[str, EpisodeResult]]
) -> dict[int, float]:
    """Successful episodes bucketed by success turn, normalized; {} if none."""
    turns = [r.success_turn for _, r in episodes if r.succeeded]
    if not turns:
        return {}
    total = len(turns)
    hist: dict[int, float] = {}
    for t in sorted(set(turns)):
        hist[t] = turns.count(t) / total
    return hist


def query_length_stats(episodes: Sequence[tuple[str, EpisodeResult]]) -> dict[str, float]:
    """Quantiles (midpoint interpolation) of issued-query character counts:
    `p25`, `p50`, `p75` and `max`."""
    lengths = [len(turn.query) for _, result in episodes for turn in result.trace.history]
    if not lengths:
        raise ValueError("no queries in the episode log")
    arr = np.asarray(lengths, dtype=np.float64)
    p25, p50, p75 = np.quantile(arr, [0.25, 0.5, 0.75], method="midpoint")
    return {"p25": float(p25), "p50": float(p50), "p75": float(p75), "max": float(arr.max())}


def analyze_behavior(
    episodes: Sequence[tuple[str, EpisodeResult]],
    *,
    relaxed_stagnation: bool = False,
) -> dict:
    """The `behavior.json` summary of an episode log.

    Episodes without target ranks (no qrels) are skipped for backtracking and
    stagnation; they still contribute query lengths. A log that issued no
    query (every episode ended before its first turn) has no query lengths.
    """
    backtracked = 0
    stagnant = 0
    with_ranks = 0
    for _, result in episodes:
        ranks = [r for r in result.per_turn_ranks if r is not None]
        if len(ranks) != len(result.per_turn_ranks) or not ranks:
            continue
        with_ranks += 1
        if detect_backtracking(goodness_from_ranks(ranks)) >= 1:
            backtracked += 1
        if rank_stagnation(ranks, relaxed=relaxed_stagnation):
            stagnant += 1
    hist = turnwise_success_distribution(episodes)
    successes = sum(1 for _, r in episodes if r.succeeded)
    issued_queries = any(r.trace.history for _, r in episodes)
    return {
        "episodes": len(episodes),
        "backtrack_rate": backtracked / with_ranks if with_ranks else 0.0,
        "stagnation_rate": stagnant / with_ranks if with_ranks else 0.0,
        "turnwise_success": {str(turn): share for turn, share in hist.items()},
        "successful_episodes": successes,
        "no_successes": successes == 0,
        "query_length": query_length_stats(episodes) if issued_queries else None,
    }
