"""IR effectiveness metrics and search-behavior analytics over episode logs.

Metrics use 1-based positions internally: nDCG@k with exponential gain
2^grade - 1 and log2(position+1) discounts, Recall@k, Success@k, and MRR.
Documents with grade >= 1 count as relevant.

Behavior analytics read the per-turn target ranks of an episode. Backtracking
is a dip in *goodness* (negative rank; absence maps to the worst value): a
turn whose goodness falls below both neighbors marks deterioration followed
by recovery. Stagnation is an episode whose rank never changes across two or
more turns (a relaxed any-consecutive-repeat variant sits behind a flag).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
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


@dataclass(frozen=True)
class QueryMetrics:
    query_id: str
    ndcg: float
    recall: float
    success: float
    mrr: float


@dataclass(frozen=True)
class MetricsReport:
    k: int
    per_query: tuple[QueryMetrics, ...]

    def _mean(self, name: str) -> float:
        if not self.per_query:
            return 0.0
        return sum(getattr(row, name) for row in self.per_query) / len(self.per_query)

    def summary(self) -> dict:
        return {
            "k": self.k,
            "queries": len(self.per_query),
            f"ndcg@{self.k}": self._mean("ndcg"),
            f"recall@{self.k}": self._mean("recall"),
            f"success@{self.k}": self._mean("success"),
            "mrr": self._mean("mrr"),
        }


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
) -> MetricsReport:
    rows = []
    for qid, result in episodes:
        ranking = final_ranking(result)
        grades = qrels.get(qid, {})
        rows.append(
            QueryMetrics(
                query_id=qid,
                ndcg=ndcg_at_k(ranking, grades, k),
                recall=recall_at_k(ranking, grades, k),
                success=success_at_k(ranking, grades, k),
                mrr=mrr(ranking, grades, k),
            )
        )
    return MetricsReport(k=k, per_query=tuple(rows))


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


@dataclass(frozen=True)
class QuantileSummary:
    p25: float
    p50: float
    p75: float
    max: float

    def to_dict(self) -> dict:
        return {"p25": self.p25, "p50": self.p50, "p75": self.p75, "max": self.max}


def query_length_stats(episodes: Sequence[tuple[str, EpisodeResult]]) -> QuantileSummary:
    """Quantiles (midpoint interpolation) of issued-query character counts."""
    lengths = [len(turn.query) for _, result in episodes for turn in result.trace.history]
    if not lengths:
        raise ValueError("no queries in the episode log")
    arr = np.asarray(lengths, dtype=np.float64)
    p25, p50, p75 = np.quantile(arr, [0.25, 0.5, 0.75], method="midpoint")
    return QuantileSummary(p25=float(p25), p50=float(p50), p75=float(p75), max=float(arr.max()))


@dataclass(frozen=True)
class BehaviorReport:
    backtrack_rate: float
    stagnation_rate: float
    turnwise_success: dict[int, float]
    successful_episodes: int
    query_length: QuantileSummary | None  # None when the log issued no query
    episodes: int

    def summary(self) -> dict:
        return {
            "episodes": self.episodes,
            "backtrack_rate": self.backtrack_rate,
            "stagnation_rate": self.stagnation_rate,
            "turnwise_success": {str(k): v for k, v in sorted(self.turnwise_success.items())},
            "successful_episodes": self.successful_episodes,
            "no_successes": self.successful_episodes == 0,
            "query_length": None if self.query_length is None else self.query_length.to_dict(),
        }


def analyze_behavior(
    episodes: Sequence[tuple[str, EpisodeResult]],
    *,
    relaxed_stagnation: bool = False,
) -> BehaviorReport:
    """Aggregate the behavior measures over an episode log.

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
    return BehaviorReport(
        backtrack_rate=backtracked / with_ranks if with_ranks else 0.0,
        stagnation_rate=stagnant / with_ranks if with_ranks else 0.0,
        turnwise_success=hist,
        successful_episodes=successes,
        query_length=query_length_stats(episodes) if issued_queries else None,
        episodes=len(episodes),
    )


# --- report output --------------------------------------------------------------


def _write_summary(out_dir: str | Path, name: str, summary: dict, meta: dict | None) -> Path:
    """Write `meta` plus `summary` as the JSON file `name`; return the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {**(meta or {}), **summary}
    (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def write_metrics_report(report: MetricsReport, out_dir: str | Path, meta: dict | None = None) -> None:
    out = _write_summary(out_dir, "metrics.json", report.summary(), meta)
    lines = ["query-id\tndcg\trecall\tsuccess\tmrr"]
    for row in report.per_query:
        lines.append(
            f"{row.query_id}\t{row.ndcg:.6f}\t{row.recall:.6f}\t{row.success:.0f}\t{row.mrr:.6f}"
        )
    (out / "per_query.tsv").write_text("\n".join(lines) + "\n")


def write_behavior_report(report: BehaviorReport, out_dir: str | Path, meta: dict | None = None) -> None:
    """Write the behavior summary to behavior.json."""
    _write_summary(out_dir, "behavior.json", report.summary(), meta)
