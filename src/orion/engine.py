"""Multi-turn episode execution: one turn step, beam search and the greedy runner.

An episode repeats think/query/retrieve cycles until a target document lands
in the top-k or the turn budget runs out. `expand_turn` is the one turn step;
each candidate it returns is a search state ending with its new turn, and
every fact about a candidate is read off that turn. Beam search and grouped
collection (`rewards`) differ only in how they score and select candidates.
Beam search scores each candidate state by the policy's relevance confidence
(1/perplexity), pools candidates across beams, and keeps the top B; success
is checked on the survivors after pruning. The greedy runner is beam search
with B = M = 1. Relevance is asked only when a turn has more than one
candidate, so a greedy run, remote or scripted, never asks it.

Only the `<search_query>` content is embedded for retrieval; think spans never
reach the retriever. Each action costs one retrieval, logged in its turn. A
turn succeeds when its target rank is below k, the same fact as a target in
its top-k: the index derives both from one score order. A retrieval repeated
within the last `RETRIEVE_MEMO_SIZE` distinct ones (a GRPO group or beam turn
whose candidates issue the same query, archetypes that open with the user's
query) is answered from `Retriever`'s memo without a new embedding or scan.
Below that memo, `Retriever` keeps the score vectors of the last
`SCORE_MEMO_SIZE` queries it embedded, so greedy_hill's probes
(`best_similarity`) and the retrieval of the edit they chose share one
embedding and one scan. Next to them, `Retriever` remembers the
`clean_snippet` of the last `SNIPPET_MEMO_SIZE` documents it showed; a
snippet depends only on the document and `snippet_chars`, so a document that
comes back in a later result list is not cleaned again. Freezing a turn
still checks every result line for reserved tags, so a document holding one
fails each retrieval.
"""

from __future__ import annotations

import functools
import logging
from concurrent import futures
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusIndex, RankedResults
from .policy import Policy, PolicyError
from .trace import (
    DEFAULT_SNIPPET_CHARS,
    SearchState,
    TERMINAL_BUDGET,
    TERMINAL_POLICY_ERROR,
    TERMINAL_SUCCESS,
    Action,
    TraceDocument,
    TraceError,
    Turn,
    append_turn,
    clean_snippet,
    snapshot_results,
    trace_from_dict,
    trace_to_dict,
)

log = logging.getLogger(__name__)


# Distinct (query, k, targets) retrievals, score vectors, and documents'
# snippets a Retriever remembers. Score vectors are few: each is a float per
# document, and 64 of them raised the benchmark's peak RSS by a tenth.
RETRIEVE_MEMO_SIZE = 64
SCORE_MEMO_SIZE = 8
SNIPPET_MEMO_SIZE = 1024


class Retriever:
    """An index paired with the query embedder; one retrieval surface.

    `retrieve` keeps the results of the last `RETRIEVE_MEMO_SIZE` distinct
    (query, k, target set) keys in an LRU memo, so a repeated query costs
    neither an embedding nor a scan. Below it, the score vectors of the last
    `SCORE_MEMO_SIZE` distinct queries are kept read-only, so one query
    under another (k, target set), or retrieved after `best_similarity`
    probed it, is selected again from its vector without a new embedding or
    scan. `snippet` keeps the result lines of the last `SNIPPET_MEMO_SIZE`
    documents in a third LRU memo. The memos assume `embed` is a pure
    function of the text. They are safe to share across threads: two
    threads missing on one key both compute it, with equal results, and an
    exception is never stored, so a failed embedding is retried on the next
    call.
    """

    def __init__(
        self,
        index: CorpusIndex,
        embed: Callable[[str], np.ndarray],
        snippet_chars: int = DEFAULT_SNIPPET_CHARS,
    ):
        self.index = index
        self.embed = embed

        # closures, not bound methods, so the memos hold no reference back
        # to the Retriever and a dropped Retriever frees its index at once
        @functools.lru_cache(maxsize=SCORE_MEMO_SIZE)
        def scores(query: str) -> np.ndarray:
            vector = index.scores(embed(query))
            vector.flags.writeable = False
            return vector

        @functools.lru_cache(maxsize=RETRIEVE_MEMO_SIZE)
        def search(query: str, k: int, targets: frozenset[str]) -> RankedResults:
            return index.select(scores(query), k, targets)

        @functools.lru_cache(maxsize=SNIPPET_MEMO_SIZE)
        def snippet(doc_id: str) -> str:
            return clean_snippet(index.doc(doc_id).text, snippet_chars)

        self._scores = scores
        self._search = search
        self.snippet = snippet

    def retrieve(self, query: str, k: int, target_ids: Iterable[str] = ()) -> RankedResults:
        return self._search(query, k, frozenset(target_ids))

    def best_similarity(self, query: str) -> float:
        """Best corpus similarity for a query (greedy_hill's probe signal).

        The first maximum of the score vector, that is the smallest id among
        tied rows: the score `retrieve(query, 1)` would rank first, to the
        bit, without selecting a top-k.
        """
        s = self._scores(query)
        return float(s[np.argmax(s)])


@dataclass(frozen=True)
class EpisodeConfig:
    k: int = 5
    max_turns: int = 5
    target_ids: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_turns < 1:
            raise ValueError(f"max_turns must be >= 1, got {self.max_turns}")


@dataclass(frozen=True)
class EpisodeResult:
    """An episode: its trace, plus the per-turn survivor counts of a beam run.

    `succeeded`, `success_turn` and `per_turn_ranks` are read off the trace,
    so they cannot disagree with it.
    """

    trace: TraceDocument
    beam_sizes: tuple[int, ...] = ()  # per-turn survivor counts (beam runs only)

    @property
    def succeeded(self) -> bool:
        return self.trace.terminal_reason == TERMINAL_SUCCESS

    @property
    def success_turn(self) -> int | None:
        """1-based turn of the success (the trace's last), None without one."""
        return len(self.trace.state.history) if self.succeeded else None

    @property
    def per_turn_ranks(self) -> tuple[int | None, ...]:
        return tuple(t.target_rank for t in self.trace.state.history)


def check_success(turn: Turn, k: int) -> bool:
    """True iff the turn's retrieval put a target in its top-k: a best target
    rank in [0, k). A turn retrieved without targets never succeeds."""
    return turn.target_rank is not None and 0 <= turn.target_rank < k


def execute_action(retriever: Retriever, action: Action, config: EpisodeConfig) -> Turn:
    """Retrieve for an action and freeze the completed turn."""
    results = retriever.retrieve(action.query, config.k, config.target_ids)
    snippets = {e.doc_id: retriever.snippet(e.doc_id) for e in results.entries}
    return Turn(
        think=action.think,
        query=action.query,
        results=snapshot_results(results, snippets),
        sim_to_target=results.target_sim,
        target_rank=results.target_rank,
    )


def expand_turn(
    policy: Policy, retriever: Retriever, states: Sequence[SearchState], n: int, config: EpisodeConfig
) -> list[SearchState]:
    """The turn step: propose `n` actions per state and retrieve each once.

    Each candidate is a state ending with its new turn, in state order, then
    action order; a state whose `propose` raises `PolicyError` contributes
    none.
    """
    candidates = []
    for state in states:
        try:
            actions = policy.propose(state, n)
        except PolicyError as exc:
            log.warning("expansion failed at turn %d: %s", len(state.history) + 1, exc)
            continue
        for action in actions:
            turn = execute_action(retriever, action, config)
            candidates.append(append_turn(state, turn, config.max_turns))
    return candidates


def _result(state: SearchState, reason: str, beam_sizes: Sequence[int]) -> EpisodeResult:
    return EpisodeResult(TraceDocument(state=state, terminal_reason=reason), tuple(beam_sizes))


def run_episode(
    policy: Policy, retriever: Retriever, q0: str, config: EpisodeConfig
) -> EpisodeResult:
    """Greedy multi-turn episode: beam search with one beam and one candidate
    per turn, stopping on success. Its result carries no beam sizes."""
    return replace(beam_search(policy, retriever, q0, 1, 1, config), beam_sizes=())


def beam_search(
    policy: Policy,
    retriever: Retriever,
    q0: str,
    beam_size: int,
    expansion: int,
    config: EpisodeConfig,
) -> EpisodeResult:
    """Best-first beam search over think/query continuations.

    Per turn, every live beam proposes `expansion` candidate actions; each
    candidate retrieves, extends the state, and is scored by
    1/relevance-perplexity. Candidates pool across beams, survivors are the
    top `beam_size` by confidence (ties broken by lexicographic query), and
    the search returns the best successful survivor immediately, else the
    highest-confidence beam at the budget.

    A lone candidate is not scored. A policy error on a candidate removes
    only that candidate; if a whole turn yields none, the episode ends as
    policy_error.
    """
    if beam_size < 1 or expansion < 1:
        raise ValueError("beam_size and expansion must be >= 1")
    beams = [SearchState(original_query=q0)]
    sizes: list[int] = []
    for t in range(1, config.max_turns + 1):
        candidates = expand_turn(policy, retriever, beams, expansion, config)
        if len(candidates) > 1:
            scored = []
            for c in candidates:
                try:
                    ppl = policy.relevance_perplexity(c)
                except PolicyError as exc:
                    log.warning("candidate dropped at turn %d: %s", t, exc)
                    continue
                scored.append(((-1.0 / ppl, c.last_turn().query), c))
            candidates = [c for _, c in sorted(scored, key=lambda kc: kc[0])]
        if not candidates:
            # survivors are sorted by confidence, so the first is the most confident
            return _result(beams[0], TERMINAL_POLICY_ERROR, sizes)
        beams = candidates[:beam_size]
        sizes.append(len(beams))
        winners = [s for s in beams if check_success(s.last_turn(), config.k)]
        if winners:
            return _result(winners[0], TERMINAL_SUCCESS, sizes)
    return _result(beams[0], TERMINAL_BUDGET, sizes)


# --- batch running and the episode log ----------------------------------------


def episode_to_dict(query_id: str, result: EpisodeResult) -> dict:
    return {
        "query_id": query_id,
        "terminal_reason": result.trace.terminal_reason,
        "success_turn": result.success_turn,
        "per_turn_ranks": list(result.per_turn_ranks),
        "beam_sizes": list(result.beam_sizes),
        "trace": trace_to_dict(result.trace),
    }


def episode_from_dict(obj: dict) -> tuple[str, EpisodeResult]:
    """Read an `episode_to_dict` record back. Its `success_turn` and
    `per_turn_ranks`, when present, must agree with its trace (TraceError)."""
    result = EpisodeResult(trace_from_dict(obj["trace"]), tuple(obj.get("beam_sizes", [])))
    derived = {"success_turn": result.success_turn, "per_turn_ranks": list(result.per_turn_ranks)}
    for key in derived:
        if key in obj and obj[key] != derived[key]:
            raise TraceError(f"logged {key} {obj[key]!r} contradicts the trace ({derived[key]!r})")
    return obj["query_id"], result


def relevant_docs(grades: Mapping[str, int]) -> frozenset[str]:
    """Docs graded >= 1: a query's episode targets, and what the IR metrics count relevant."""
    return frozenset(d for d, g in grades.items() if g >= 1)


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """`[fn(x) for x in items]`, on `workers` threads when workers > 1; results
    keep the input order and the first exception in input order propagates."""
    if workers <= 1:
        return [fn(x) for x in items]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_batch(
    queries: Sequence[tuple[str, str]],
    qrels: dict[str, dict[str, int]],
    policy_for: Callable[[str], Policy],
    retriever: Retriever,
    config: EpisodeConfig,
    *,
    beam_size: int | None = None,
    expansion: int = 1,
    workers: int = 1,
) -> list[tuple[str, EpisodeResult]]:
    """Run one episode per query, in input order.

    `policy_for(query_id)` builds the per-episode policy (scripted policies
    get their per-episode seed there). Targets are the qrels docs with
    relevance >= 1. Results keep the input order even under a worker pool.
    """

    def one(item: tuple[str, str]) -> tuple[str, EpisodeResult]:
        qid, text = item
        targets = relevant_docs(qrels.get(qid, {}))
        cfg = EpisodeConfig(k=config.k, max_turns=config.max_turns, target_ids=targets)
        policy = policy_for(qid)
        if beam_size is None:
            return qid, run_episode(policy, retriever, text, cfg)
        return qid, beam_search(policy, retriever, text, beam_size, expansion, cfg)

    return ordered_map(one, queries, workers)
