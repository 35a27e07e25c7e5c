"""Turn-level rewards, group-relative advantages, and trainer-ready exports.

The reward for one candidate query combines two equally weighted signals,
each normalized to [0, 1]:

* similarity: the best retrieved document's cosine similarity, mapped
  identically for non-negative values and as (sim+1)/2 for negative ones;
* rank: 1 - rank/|C| for a 0-based corpus rank, and 0 when the document is
  absent (NOT_FOUND).

Both signals are read off the candidate's logged turn: no candidate is
scored against the corpus a second time. A group (`GroupSample`) holds its
candidates' turns with their reward breakdowns, and its logged candidate
records are projected from them.

Advantages are group-relative: reward minus the group mean, or z-scores under
the optional normalization mode (guarded to all-zero when the group standard
deviation vanishes). Candidate selection is argmax by default, with the
proportional-sampling variant behind a flag; both appear in the source
algorithms and the conflict is surfaced here rather than resolved.

Exports serialize traces with character-offset mask spans: think and query
contents plus their closing tags train; user_query and top_k_response spans
(tags included), opening tags, and separators are masked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import NOT_FOUND
from .engine import EpisodeConfig, Retriever, run_turns
from .engine import execute_action  # not called here; perfbench/tracer.py patches it
from .policy import Policy
from .trace import (
    SearchState,
    Turn,
    append_turn,  # not called here; perfbench/tracer.py patches it
    serialize_spans,
    serialize_trace,
)

ZSCORE_GUARD = 1e-8
COSINE_ROUNDING = 1e-9  # how far past [-1, 1] a computed cosine may round
DEFAULT_BETA = 0.1  # KL coefficient echoed for the external trainer
DEFAULT_GROUP_SIZE = 4


class RewardError(ValueError):
    """Out-of-range reward inputs."""


def clamp_cosine(sim: float, error: type[Exception]) -> float:
    """A computed cosine similarity, clamped to [-1, 1].

    A float64 cosine of two parallel vectors can round to a few ulps past
    +-1 (a query equal to a document scores 1.0000000000000002); values within
    `COSINE_ROUNDING` of the range are clamped to it. Any other value,
    NaN included, raises `error`.
    """
    if not -1.0 - COSINE_ROUNDING <= sim <= 1.0 + COSINE_ROUNDING:
        raise error(f"cosine {sim} outside [-1, 1]")
    return min(max(sim, -1.0), 1.0)


def normalize_similarity(sim: float) -> float:
    """Map a cosine similarity in [-1, 1] to [0, 1] (clamped by `clamp_cosine`)."""
    sim = clamp_cosine(sim, RewardError)
    return sim if sim >= 0.0 else (sim + 1.0) / 2.0


def normalize_rank(rank: int, corpus_size: int) -> float:
    """Map a 0-based corpus rank to [0, 1]; NOT_FOUND maps to 0."""
    if corpus_size < 1:
        raise RewardError(f"corpus size must be >= 1, got {corpus_size}")
    if rank == NOT_FOUND:
        return 0.0
    if not 0 <= rank < corpus_size:
        raise RewardError(f"rank {rank} outside [0, {corpus_size})")
    return 1.0 - rank / corpus_size


@dataclass(frozen=True)
class RewardBreakdown:
    raw_sim: float
    sim_norm: float
    rank: int
    rank_norm: float
    reward: float

    def to_dict(self) -> dict:
        return {
            "raw_sim": self.raw_sim,
            "sim_norm": self.sim_norm,
            "rank": self.rank,
            "rank_norm": self.rank_norm,
            "reward": self.reward,
        }


def turn_reward(sim: float, rank: int, corpus_size: int) -> RewardBreakdown:
    """Compose the turn reward: 0.5 * sim_norm + 0.5 * rank_norm, exactly."""
    sim_norm = normalize_similarity(sim)
    rank_norm = normalize_rank(rank, corpus_size)
    return RewardBreakdown(
        raw_sim=sim,
        sim_norm=sim_norm,
        rank=rank,
        rank_norm=rank_norm,
        reward=0.5 * sim_norm + 0.5 * rank_norm,
    )


def group_advantages(
    rewards: Sequence[float], mode: str = "mean_center"
) -> list[float]:
    """Group-relative advantages: mean-centered or z-scored.

    z_score divides by the sample standard deviation; when it falls under
    the guard the advantages are all zero.
    """
    if len(rewards) < 2:
        raise RewardError(f"group size must be >= 2, got {len(rewards)}")
    mean = sum(rewards) / len(rewards)
    centered = [r - mean for r in rewards]
    if mode == "mean_center":
        return centered
    if mode == "z_score":
        var = sum(c * c for c in centered) / (len(rewards) - 1)
        std = math.sqrt(var)
        if std < ZSCORE_GUARD:
            return [0.0] * len(rewards)
        return [c / std for c in centered]
    raise RewardError(f"unknown advantage mode {mode!r}")


SELECTION_MODES = ("argmax", "proportional")  # the modes `select_candidate` takes


def select_candidate(
    rewards: Sequence[float], mode: str = "argmax", rng: random.Random | None = None
) -> int:
    """Pick the candidate that advances the context.

    argmax breaks ties toward the lowest index; proportional samples index i
    with probability R_i / sum(R) (uniform when the sum is zero) and requires
    non-negative rewards plus an RNG.
    """
    if not rewards:
        raise RewardError("cannot select from an empty reward list")
    if mode == "argmax":
        return max(range(len(rewards)), key=lambda i: (rewards[i], -i))
    if mode == "proportional":
        if rng is None:
            raise RewardError("proportional selection needs an rng")
        if any(r < 0 for r in rewards):
            raise RewardError("proportional selection needs non-negative rewards")
        total = sum(rewards)
        if total == 0.0:
            return rng.randrange(len(rewards))
        u = rng.random() * total
        acc = 0.0
        for i, r in enumerate(rewards):
            acc += r
            if u < acc:
                return i
        return len(rewards) - 1
    raise RewardError(f"unknown selection mode {mode!r}")


# --- grouped collection ---------------------------------------------------------


@dataclass(frozen=True)
class GroupSample:
    """One turn's G candidate turns, their rewards and advantages, and the
    index of the one that advanced the context."""

    turns: tuple[Turn, ...]
    breakdowns: tuple[RewardBreakdown, ...]
    advantages: tuple[float, ...]
    selected: int

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {
                    "think": turn.think,
                    "query": turn.query,
                    "result_ids": [d.doc_id for d in turn.results],
                    **breakdown.to_dict(),
                }
                for turn, breakdown in zip(self.turns, self.breakdowns)
            ],
            "advantages": list(self.advantages),
            "selected": self.selected,
        }


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = DEFAULT_GROUP_SIZE
    selection: str = "argmax"  # or "proportional"
    advantage_mode: str = "mean_center"  # or "z_score"
    beta: float = DEFAULT_BETA

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise RewardError(f"group size must be >= 2, got {self.group_size}")


def candidate_signals(turn: Turn) -> tuple[float, int]:
    """(similarity, rank) feeding the reward for one candidate's turn.

    Similarity is the best retrieved document's score (`Turn.best_score`, 0.0
    without results). Rank is the best ground-truth target's corpus rank when
    the retrieval was given targets; otherwise the rank of the best-similarity
    document, which is 0 under this exact retriever by definition.
    """
    sim = turn.best_score()
    rank = turn.target_rank if turn.target_rank is not None else 0
    return sim, rank


def collect_grouped_episode(
    policy: Policy,
    retriever: Retriever,
    q0: str,
    config: EpisodeConfig,
    grpo: GrpoConfig,
    rng: random.Random,
) -> tuple[SearchState, list[GroupSample]]:
    """Grouped sampling: per turn, reward G candidates and advance one.

    The episode loop is `engine.run_turns`; each turn's group is recorded
    here, and only its selected candidate goes on.
    """
    groups: list[GroupSample] = []
    corpus_size = len(retriever.index)

    def keep(_t: int, candidates: list[SearchState]) -> list[SearchState]:
        if not candidates:
            return []
        turns = tuple(c.last_turn() for c in candidates)
        breakdowns = tuple(turn_reward(*candidate_signals(t), corpus_size) for t in turns)
        rewards = [b.reward for b in breakdowns]
        advantages = group_advantages(rewards, grpo.advantage_mode)
        selected = select_candidate(rewards, grpo.selection, rng)
        groups.append(GroupSample(turns, breakdowns, tuple(advantages), selected))
        return [candidates[selected]]

    trace = run_turns(policy, retriever, q0, grpo.group_size, config, keep)
    return trace, groups


# --- masked training-record export ----------------------------------------------


def mask_spans(trace: SearchState) -> list[tuple[int, int, bool]]:
    """Character-offset (start, end, trainable) spans partitioning the text."""
    spans = []
    offset = 0
    for span in serialize_spans(trace):
        end = offset + len(span.text)
        spans.append((offset, end, span.trainable))
        offset = end
    return spans


@dataclass(frozen=True)
class TrainingRecord:
    text: str
    spans: tuple[tuple[int, int, bool], ...]
    groups: tuple[GroupSample, ...] = ()
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "spans": [list(s) for s in self.spans],
            "groups": [g.to_dict() for g in self.groups],
            "config": dict(self.config),
        }


def make_training_record(
    trace: SearchState,
    groups: Sequence[GroupSample] = (),
    grpo: GrpoConfig | None = None,
) -> TrainingRecord:
    grpo = grpo or GrpoConfig()
    return TrainingRecord(
        text=serialize_trace(trace),
        spans=tuple(mask_spans(trace)),
        groups=tuple(groups),
        config={
            "group_size": grpo.group_size,
            "beta": grpo.beta,
            "z_score": grpo.advantage_mode == "z_score",
            "selection": grpo.selection,
        },
    )
