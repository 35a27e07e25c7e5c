"""Archetype-driven trajectory generation and balanced SFT dataset assembly.

Trajectories from the ten scripted behaviors stand in for external-model
traces when no remote backend is configured. A pool record is a source tag
plus the episode's trace, capped at five turns; the pool schema is a
projection of that trace: original query, source tag, terminal reason, and
per turn (think, query, result ids and texts, similarity-to-target, target
rank). orion writes pool files and never reads them back.

Dataset sampling apportions the requested total over sources by the
largest-remainder rule (seeded tie-break among equal remainders) and emits
masked training records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .archetypes import PolicyResources, derive_rng
from .engine import EpisodeConfig, Retriever, run_episode
from .policy import DEFAULT_MAX_QUERY_CHARS, ArchetypeConfig, ScriptedPolicy
from .rewards import GrpoConfig, TrainingRecord, clamp_cosine, make_training_record
from .trace import TraceDocument

MAX_POOL_TURNS = 5


class PoolError(ValueError):
    """Malformed pool records or unsatisfiable sampling quotas."""


@dataclass(frozen=True)
class PoolRecord:
    """One multi-turn trace from one source (model name or archetype kind)."""

    source: str
    trace: TraceDocument

    def __post_init__(self) -> None:
        turns = self.trace.state.history
        if len(turns) > MAX_POOL_TURNS:
            raise PoolError(f"pool records hold at most {MAX_POOL_TURNS} turns")
        for t in turns:
            if t.sim_to_target is not None:
                clamp_cosine(t.sim_to_target, PoolError)

    @property
    def q0(self) -> str:
        return self.trace.state.original_query

    @property
    def terminal_reason(self) -> str | None:
        return self.trace.terminal_reason

    def dedup_key(self) -> tuple[str, str, str]:
        first = self.trace.state.history[:1]
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
                for t in self.trace.state.history
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

    def by_source(self) -> dict[str, list[PoolRecord]]:
        grouped: dict[str, list[PoolRecord]] = {}
        for rec in self.records:
            grouped.setdefault(rec.source, []).append(rec)
        return grouped

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


@dataclass(frozen=True)
class DatasetManifest:
    """Requested dataset composition: per-source proportions and a total."""

    proportions: Mapping[str, float]
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise PoolError(f"total must be >= 1, got {self.total}")
        if not self.proportions:
            raise PoolError("manifest needs at least one source")
        s = sum(self.proportions.values())
        if abs(s - 1.0) > 1e-9:
            raise PoolError(f"proportions must sum to 1, got {s}")
        if any(p < 0 for p in self.proportions.values()):
            raise PoolError("proportions must be non-negative")


def apportion(
    proportions: Mapping[str, float], total: int, rng: random.Random
) -> dict[str, int]:
    """Largest-remainder apportionment with a seeded tie-break.

    Sources get the floor of their exact quota; leftover units go to the
    largest fractional remainders, equal remainders ordered by the rng.
    """
    keys = sorted(proportions)
    exact = {k: proportions[k] * total for k in keys}
    counts = {k: int(exact[k]) for k in keys}
    leftover = total - sum(counts.values())
    jitter = {k: rng.random() for k in keys}
    order = sorted(keys, key=lambda k: (-(exact[k] - counts[k]), jitter[k]))
    for k in order[:leftover]:
        counts[k] += 1
    return counts


def sample_sft_dataset(
    pool: Pool,
    manifest: DatasetManifest,
    seed: int = 0,
    grpo: GrpoConfig | None = None,
) -> list[TrainingRecord]:
    """Draw a dataset matching the manifest and emit masked training records.

    Per-source sampling is without replacement over the pool records of that
    source (sorted for determinism, then shuffled by the seeded rng). Raises
    when any quota exceeds the available records.
    """
    rng = derive_rng(seed, "sft-sample")
    quotas = apportion(manifest.proportions, manifest.total, rng)
    by_source = pool.by_source()
    records: list[TrainingRecord] = []
    for source in sorted(quotas):
        want = quotas[source]
        have = sorted(by_source.get(source, []), key=lambda r: r.dedup_key())
        if want > len(have):
            raise PoolError(
                f"insufficient pool for source {source!r}: need {want}, have {len(have)}"
            )
        picked = rng.sample(have, want)
        for rec in picked:
            records.append(make_training_record(rec.trace, (), grpo))
    return records
