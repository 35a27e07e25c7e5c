"""Archetype-driven trajectory generation and balanced SFT dataset assembly.

Trajectories from the ten scripted behaviors stand in for external-model
traces. A pool record is a source tag (the archetype kind that produced it)
plus the episode's trace, capped at five turns; the pool schema is a
projection of that trace: original query, source tag, terminal reason, and
per turn (think, query, result ids and texts, similarity-to-target, target
rank). orion writes pool files and never reads them back.

Dataset sampling splits the requested total evenly over the sources, one
extra record each to the first `total % n` sources of a seeded order, and
emits masked training records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .archetypes import PolicyResources, derive_rng
from .engine import EpisodeConfig, Retriever, run_episode
from .policy import DEFAULT_MAX_QUERY_CHARS, ArchetypeConfig, ScriptedPolicy
from .rewards import TrainingRecord, clamp_cosine, make_training_record
from .trace import SearchState

MAX_POOL_TURNS = 5


class PoolError(ValueError):
    """Malformed pool records or unsatisfiable sampling quotas."""


@dataclass(frozen=True)
class PoolRecord:
    """One multi-turn trace from one source, the archetype kind that produced it."""

    source: str
    trace: SearchState

    def __post_init__(self) -> None:
        turns = self.trace.history
        if len(turns) > MAX_POOL_TURNS:
            raise PoolError(f"pool records hold at most {MAX_POOL_TURNS} turns")
        for t in turns:
            if t.sim_to_target is not None:
                clamp_cosine(t.sim_to_target, PoolError)

    @property
    def q0(self) -> str:
        return self.trace.original_query

    @property
    def terminal_reason(self) -> str | None:
        return self.trace.terminal_reason

    def dedup_key(self) -> tuple[str, str, str]:
        first = self.trace.history[:1]
        return (self.q0, self.source, first[0].query if first else "")

    def to_dict(self) -> dict:
        """The pool schema: the trace's turns without scores, a missing doc
        id written as "", and the target cosine clamped to [-1, 1]."""
        return {
            "q0": self.q0,
            "source": self.source,
            "terminal_reason": self.terminal_reason,
            "turns": [
                {
                    "think": t.think,
                    "query": t.query,
                    "result_ids": [d.doc_id or "" for d in t.results],
                    "result_texts": [d.text for d in t.results],
                    "cos": None if t.sim_to_target is None else clamp_cosine(t.sim_to_target, PoolError),
                    "rank": t.target_rank,
                }
                for t in self.trace.history
            ],
        }


def generate_trajectory(
    archetype: ArchetypeConfig,
    q0: str,
    retriever: Retriever,
    resources: PolicyResources,
    target_ids: Iterable[str],
    k: int = 5,
    max_turns: int = MAX_POOL_TURNS,
    max_query_chars: int = DEFAULT_MAX_QUERY_CHARS,
) -> PoolRecord:
    """Run one scripted episode and project it to a pool record."""
    config = EpisodeConfig(
        k=k, max_turns=min(max_turns, MAX_POOL_TURNS), target_ids=frozenset(target_ids)
    )
    policy = ScriptedPolicy(archetype, resources, max_query_chars=max_query_chars)
    return PoolRecord(archetype.kind, run_episode(policy, retriever, q0, config).trace)


@dataclass
class Pool:
    """Deduplicated trace pool."""

    records: list[PoolRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def assemble_pool(records: Iterable[PoolRecord]) -> Pool:
    """Deduplicate by (q0, source, first turn query), keeping first seen."""
    seen: set[tuple[str, str, str]] = set()
    kept: list[PoolRecord] = []
    for rec in records:
        key = rec.dedup_key()
        if key in seen:
            continue
        seen.add(key)
        kept.append(rec)
    return Pool(records=kept)


def sample_sft_dataset(
    records: Iterable[PoolRecord], sources: Iterable[str], total: int, seed: int = 0
) -> list[TrainingRecord]:
    """Draw `total` pool records spread evenly over `sources` and emit them as
    masked training records.

    Each source gets `total // n` records, and the `total % n` sources that
    come first by a seeded jitter (one draw per source, in sorted order) get
    one more. Each source then samples without replacement, in sorted order,
    from its records sorted by `dedup_key`. Raises PoolError for a total
    below 1, no sources, a repeated source, or a source with too few records.
    """
    keys = sorted(sources)
    if total < 1:
        raise PoolError(f"total must be >= 1, got {total}")
    if not keys:
        raise PoolError("sampling needs at least one source")
    if len(set(keys)) < len(keys):
        raise PoolError(f"sources repeat: {keys}")
    rng = derive_rng(seed, "sft-sample")
    jitter = {k: rng.random() for k in keys}
    quotas = dict.fromkeys(keys, total // len(keys))
    for k in sorted(keys, key=jitter.__getitem__)[: total % len(keys)]:
        quotas[k] += 1
    by_source: dict[str, list[PoolRecord]] = {k: [] for k in keys}
    for rec in records:
        if rec.source in by_source:
            by_source[rec.source].append(rec)
    sampled: list[TrainingRecord] = []
    for source in keys:
        want = quotas[source]
        have = sorted(by_source[source], key=PoolRecord.dedup_key)
        if want > len(have):
            raise PoolError(
                f"insufficient pool for source {source!r}: need {want}, have {len(have)}"
            )
        sampled += [make_training_record(rec.trace) for rec in rng.sample(have, want)]
    return sampled
