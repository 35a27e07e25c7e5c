"""Multi-turn episode execution: one turn loop, and how each run prunes it.

`run_turns` is the one think/query/retrieve loop. Each turn, every live
search state proposes actions, each action is retrieved once, and each
candidate is a state ending with its new turn; every fact about a candidate
is read off that turn. A run's `keep` rule picks the states that go on: the
greedy runner keeps its one candidate, beam search the top B distinct ones
by relevance confidence (1/perplexity, asked only when a turn has several
distinct candidates, so a greedy run never asks it), and grouped collection
(`rewards`) the one candidate it selects by reward. The loop alone ends an
episode: success when a survivor's turn puts a target in its top-k,
policy_error (keeping the previous best state) when none survives, and
budget_exhausted (keeping the best survivor) when the turns run out.

The trace an episode returns is that state with its terminal reason set: one
`SearchState` type serves the policies mid-episode and the logs after it.

Only the `<search_query>` content is embedded for retrieval; think spans never
reach the retriever. Each action costs one retrieval, logged in its turn, and
each retrieval is at most one `CorpusIndex.search`, the index's one scoring
call. A turn succeeds when its target rank is below k, the same fact as a
target in its top-k: the search reads both off one score order.

`Retriever` keeps three memos. A retrieval repeated within the last
`RETRIEVE_MEMO_SIZE` distinct ones (a GRPO group or beam turn whose
candidates issue the same query, archetypes that open with the user's query)
is answered without a new embedding or search. The embeddings of the last
`EMBED_MEMO_SIZE` queries are kept, so greedy_hill's probes
(`best_similarity`) and the retrieval of the edit they chose share one
embedding; each searches on its own, as a search costs far less than an
embedding call to a service. The `clean_snippet` of the last
`SNIPPET_MEMO_SIZE` documents shown is kept too; a snippet depends only on
the document and `snippet_chars`, so a document that comes back in a later
result list is not cleaned again. Freezing a turn still checks every result
line for reserved tags, so a document holding one fails each retrieval.

`run_queries` is the one batch driver, with the one per-query error boundary,
for the CLI and `run_batch` alike; `episode_job` is its greedy/beam job.
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
    TraceError,
    Turn,
    append_turn,
    clean_snippet,
    snapshot_results,
    trace_from_dict,
    trace_to_dict,
)

log = logging.getLogger(__name__)


# Distinct (query, k, targets) retrievals, query embeddings, and documents'
# snippets a Retriever remembers.
RETRIEVE_MEMO_SIZE = 64
EMBED_MEMO_SIZE = 8
SNIPPET_MEMO_SIZE = 1024


class Retriever:
    """An index paired with the query embedder; one retrieval surface.

    `retrieve` keeps the results of the last `RETRIEVE_MEMO_SIZE` distinct
    (query, k, target set) keys in an LRU memo, so a repeated query costs
    neither an embedding nor a scan. Each miss is one `CorpusIndex.search`.
    Below it, the embeddings of the last `EMBED_MEMO_SIZE` distinct queries
    are kept: one query under another (k, target set), or retrieved after
    `best_similarity` probed it, is scanned again but not embedded again (an
    HTTP call under the service backend, where a scan costs tens of µs).
    `snippet` keeps the result lines of the last `SNIPPET_MEMO_SIZE`
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
        @functools.lru_cache(maxsize=EMBED_MEMO_SIZE)
        def embedding(query: str) -> np.ndarray:
            return embed(query)

        @functools.lru_cache(maxsize=RETRIEVE_MEMO_SIZE)
        def search(query: str, k: int, targets: frozenset[str]) -> RankedResults:
            return index.search(embedding(query), k, targets)

        @functools.lru_cache(maxsize=SNIPPET_MEMO_SIZE)
        def snippet(doc_id: str) -> str:
            return clean_snippet(index.doc(doc_id).text, snippet_chars)

        self._embedding = embedding
        self._search = search
        self.snippet = snippet

    def retrieve(self, query: str, k: int, target_ids: Iterable[str] = ()) -> RankedResults:
        return self._search(query, k, frozenset(target_ids))

    def best_similarity(self, query: str) -> float:
        """Best corpus similarity for a query (greedy_hill's probe signal):
        the score `retrieve(query, 1)` ranks first, from a top-1 search of
        the memoised embedding. No result memo entry is made."""
        return self.index.search(self._embedding(query), 1).entries[0].score


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

    trace: SearchState
    beam_sizes: tuple[int, ...] = ()  # per-turn survivor counts (beam runs only)

    @property
    def succeeded(self) -> bool:
        return self.trace.terminal_reason == TERMINAL_SUCCESS

    @property
    def success_turn(self) -> int | None:
        """1-based turn of the success (the trace's last), None without one."""
        return len(self.trace.history) if self.succeeded else None

    @property
    def per_turn_ranks(self) -> tuple[int | None, ...]:
        return tuple(t.target_rank for t in self.trace.history)


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


def run_turns(
    policy: Policy,
    retriever: Retriever,
    q0: str,
    n: int,
    config: EpisodeConfig,
    keep: Callable[[int, list[SearchState]], list[SearchState]],
) -> SearchState:
    """The episode loop (see the module docstring). `keep(turn, candidates)`
    gets the turn's candidates in state order, then action order, and
    returns the states that go on, best first. A state whose `propose`
    raises `PolicyError` contributes no candidate.
    """
    states = [SearchState(original_query=q0)]
    for t in range(1, config.max_turns + 1):
        candidates = []
        for state in states:
            try:
                actions = policy.propose(state, n)
            except PolicyError as exc:
                log.warning("expansion failed at turn %d: %s", t, exc)
                continue
            for action in actions:
                turn = execute_action(retriever, action, config)
                candidates.append(append_turn(state, turn, config.max_turns))
        survivors = keep(t, candidates)
        if not survivors:
            return replace(states[0], terminal_reason=TERMINAL_POLICY_ERROR)
        states = survivors
        for state in states:
            if check_success(state.last_turn(), config.k):
                return replace(state, terminal_reason=TERMINAL_SUCCESS)
    return replace(states[0], terminal_reason=TERMINAL_BUDGET)


def run_episode(
    policy: Policy, retriever: Retriever, q0: str, config: EpisodeConfig
) -> EpisodeResult:
    """Greedy episode: one candidate per turn, and it goes on."""
    return EpisodeResult(run_turns(policy, retriever, q0, 1, config, lambda _t, c: c))


def beam_search(
    policy: Policy,
    retriever: Retriever,
    q0: str,
    beam_size: int,
    expansion: int,
    config: EpisodeConfig,
) -> EpisodeResult:
    """Beam search: each of the B beams proposes M candidates per turn, and
    the top B of the distinct pooled candidates by 1/relevance-perplexity go
    on (ties by query).

    A candidate equal to an earlier one is dropped before any is scored, so
    the beams hold distinct states. A lone candidate is not scored; a
    candidate whose relevance call raises `PolicyError` is dropped.
    `beam_sizes` counts each turn's survivors.
    """
    if beam_size < 1 or expansion < 1:
        raise ValueError("beam_size and expansion must be >= 1")
    sizes: list[int] = []

    def keep(t: int, candidates: list[SearchState]) -> list[SearchState]:
        candidates = list(dict.fromkeys(candidates))
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
        survivors = candidates[:beam_size]
        if survivors:
            sizes.append(len(survivors))
        return survivors

    trace = run_turns(policy, retriever, q0, expansion, config, keep)
    return EpisodeResult(trace, tuple(sizes))


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


def run_queries(
    queries: Sequence[tuple[str, str]], qrels: Mapping[str, Mapping[str, int]],
    config: EpisodeConfig, job: Callable[[str, str, EpisodeConfig], object], workers: int = 1,
) -> list:
    """The batch driver: `job(query_id, text, episode_config)` per query, the
    config being `config` with the query's graded >= 1 docs as targets, on
    `workers` threads, outcomes in input order. A job that raises an
    `Exception` costs only its query: its outcome is the exception."""

    def attempt(item: tuple[str, str]):
        qid, text = item
        try:
            return job(qid, text, replace(config, target_ids=relevant_docs(qrels.get(qid, {}))))
        except Exception as exc:  # one failed query must not lose the batch
            log.debug("query %s failed", qid, exc_info=exc)
            return exc

    if workers <= 1:
        return [attempt(item) for item in queries]
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(attempt, queries))


def episode_job(
    policy_for: Callable[[str], Policy], retriever: Retriever, beam_size: int | None = None,
    expansion: int = 1,
) -> Callable[[str, str, EpisodeConfig], tuple[str, EpisodeResult]]:
    """The greedy/beam `run_queries` job: `(query_id, result)` of a greedy
    episode, or of a beam search when `beam_size` is given, under the policy
    `policy_for(query_id)` builds (a scripted one seeded per episode)."""

    def job(qid: str, text: str, config: EpisodeConfig) -> tuple[str, EpisodeResult]:
        if beam_size is None:
            return qid, run_episode(policy_for(qid), retriever, text, config)
        return qid, beam_search(policy_for(qid), retriever, text, beam_size, expansion, config)

    return job


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
    """`run_queries` over `episode_job`: one episode per query, in input
    order. Every query runs; then the first failure in input order is raised."""
    job = episode_job(policy_for, retriever, beam_size, expansion)
    outcomes = run_queries(queries, qrels, config, job, workers)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
