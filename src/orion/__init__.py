"""Orion: an adaptive multi-turn dense retrieval engine.

Retrieval as a test-time search loop: structured think/query/retrieve turns
over a flat cosine index, scripted behavioral policies or a remote LLM,
beam-search inference with confidence pruning, turn-level rewards with
group-relative advantages, synthetic trajectory generation, and an IR plus
behavior analytics harness.
"""

from .config import ENGINE_VERSION as __version__
from .corpus import (
    NOT_FOUND,
    CorpusIndex,
    Document,
    RankedResults,
    build_index,
)
from .engine import EpisodeConfig, EpisodeResult, Retriever, beam_search, check_success, run_episode
from .policy import Action, ArchetypeConfig, PolicyError, RemotePolicy, ScriptedPolicy
from .rewards import group_advantages, normalize_rank, normalize_similarity, select_candidate, turn_reward
from .trace import (
    SearchState,
    TraceDocument,
    Turn,
    append_turn,
    render_prompt,
    serialize_trace,
)

__all__ = [
    "__version__",
    "NOT_FOUND",
    "CorpusIndex",
    "Document",
    "RankedResults",
    "build_index",
    "EpisodeConfig",
    "EpisodeResult",
    "Retriever",
    "beam_search",
    "check_success",
    "run_episode",
    "Action",
    "ArchetypeConfig",
    "PolicyError",
    "RemotePolicy",
    "ScriptedPolicy",
    "group_advantages",
    "normalize_rank",
    "normalize_similarity",
    "select_candidate",
    "turn_reward",
    "SearchState",
    "TraceDocument",
    "Turn",
    "append_turn",
    "render_prompt",
    "serialize_trace",
]
