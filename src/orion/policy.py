"""Policies that produce (think, query) actions and relevance confidences.

Two backends share one interface:

* `ScriptedPolicy` drives one of the ten behavioral archetypes. It is a pure
  function of (config, state): it draws no randomness of its own, and the one
  behavior that does (random_walk) seeds its generator from the seed and the
  state's query chain, so repeated calls agree byte-for-byte.
* `RemotePolicy` talks to a chat-completions endpoint, eliciting the think
  span and the query in two stages (either via the structured-tag prompt or
  the two-phase plain-text baseline prompts). Relevance confidence comes from
  true perplexity over the model's relevance judgment, which requires the
  endpoint to return token log-probabilities.

Scripted backends have no language model, so their confidence surrogate is
the pseudo-perplexity exp(1 - best_similarity): better retrieval means lower
perplexity, preserving the ordering semantics of the real signal.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from typing import Protocol, Sequence

from .archetypes import ArchetypeConfig, PolicyResources, archetype_step
from .archetypes import derive_rng  # not used here; perfbench/workloads.py imports it from here
from .embed import post_json
from .trace import (
    Action,
    SearchState,
    numbered_results,
    render_prompt,
    reserved_literal,
    serialize_trace,
)

API_KEY_ENV = "ORION_API_KEY"
DEFAULT_MAX_QUERY_CHARS = 300
REMOTE_TEMPERATURE = 0.7
REMOTE_MAX_TOKENS = 512
REMOTE_MODES = ("structured", "baseline")

RELEVANCE_PROMPT = (
    "Given turn {t} and search query {query}, the retrieved documents are "
    "relevant to the user query {q0}."
)


class PolicyError(RuntimeError):
    """The policy could not produce a usable action."""


class CapabilityError(RuntimeError):
    """The remote endpoint lacks a required capability (e.g. logprobs).

    Not a PolicyError: the endpoint lacks it for every candidate, so beam
    search does not drop candidates one by one; the query fails.
    """


def clip_query(query: str, max_chars: int = DEFAULT_MAX_QUERY_CHARS) -> str:
    """Bound a query's length, cutting at a word boundary when possible."""
    query = query.strip()
    if len(query) <= max_chars:
        return query
    cut = query[:max_chars]
    if " " in cut:
        cut = cut[: cut.rindex(" ")]
    return cut.strip() or query[:max_chars]


def pseudo_perplexity(best_sim: float) -> float:
    """Scripted confidence surrogate: exp(1 - s), s clamped to [-1, 1]."""
    return math.exp(1.0 - max(-1.0, min(1.0, best_sim)))


def perplexity_from_logprobs(logprobs: Sequence[float]) -> float:
    """exp of the negative mean token log-probability; inf where exp
    overflows, which ranks the candidate behind every other."""
    if not logprobs:
        raise ValueError("perplexity needs at least one token log-probability")
    try:
        return math.exp(-sum(logprobs) / len(logprobs))
    except OverflowError:
        return math.inf


class Policy(Protocol):
    """Proposes actions; `relevance_perplexity` judges a candidate state's
    last turn against the original query (lower is more confident)."""

    def propose(self, state: SearchState, n: int) -> list[Action]: ...

    def relevance_perplexity(self, state: SearchState) -> float: ...


class ScriptedPolicy:
    def __init__(
        self,
        config: ArchetypeConfig,
        resources: PolicyResources,
        max_query_chars: int = DEFAULT_MAX_QUERY_CHARS,
    ):
        if config.kind == "greedy_hill" and resources.probe is None:
            raise ValueError("greedy_hill needs PolicyResources.probe")
        self.config = config
        self.resources = resources
        self.max_query_chars = max_query_chars

    def propose(self, state: SearchState, n: int) -> list[Action]:
        if n < 1:
            raise ValueError("n must be >= 1")
        return [
            replace(step, query=clip_query(step.query, self.max_query_chars))
            for step in (archetype_step(self.config, state, self.resources, i) for i in range(n))
        ]

    def relevance_perplexity(self, state: SearchState) -> float:
        return pseudo_perplexity(state.last_turn().best_score())


# --- two-phase baseline prompts ------------------------------------------------


def _baseline_header(q0: str) -> str:
    return (
        "This is an information retrieval task. Your goal is to find documents "
        f'that are relevant to this target query: "{q0}"\n\n'
    )


def _baseline_turns(state: SearchState, k: int) -> str:
    blocks = []
    for i, turn in enumerate(state.history, 1):
        blocks.append(
            f"Turn {i} Analysis: {turn.think}\n"
            f"Turn {i} Search Query: {turn.query}\n"
            f"Top-{k} results:\n{numbered_results(turn)}\n"
        )
    return "".join(blocks)


def planning_phase_prompt(state: SearchState, k: int = 5) -> str:
    """Baseline planning-phase prompt (two-sentence analysis elicitation)."""
    return (
        _baseline_header(state.original_query)
        + _baseline_turns(state, k)
        + "Analyze the search results from your previous query. Write exactly 2 "
        "sentences (under 40 words total) explaining what happened and how you "
        "plan on improving the search query to better retrieve the target "
        "document based on the user query."
    )


def search_query_phase_prompt(state: SearchState, analysis: str, k: int = 5) -> str:
    """Baseline search-query-phase prompt (plain-text query elicitation)."""
    n = len(state.history) + 1
    return (
        _baseline_header(state.original_query)
        + _baseline_turns(state, k)
        + f"Turn {n} Analysis: {analysis}\n"
        "Based on your analysis above, generate a new search query to find the "
        "target documents. Output ONLY the search query text. No explanations, "
        "no quotes, no formatting, no XML tags, no JSON - just plain text for "
        "semantic similarity search."
    )


# --- remote backend -------------------------------------------------------------


def _strip_tags(text: str, closing_tag: str) -> str:
    """Take content up to an echoed closing tag, dropping stray whitespace."""
    if closing_tag in text:
        text = text.split(closing_tag, 1)[0]
    return text.strip()


class RemotePolicy:
    """Chat-completions client for an external LLM policy.

    `mode="structured"` elicits think/query with the structured-tag prompt
    renders; `mode="baseline"` uses the two-phase plain-text prompts. One
    retry on malformed output, then PolicyError. Every request is one user
    message. `relevance_perplexity(state)` asks `RELEVANCE_PROMPT` about the
    state's last turn and reads the answer's token log-probabilities.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        *,
        mode: str = "structured",
        k: int = 5,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_query_chars: int = DEFAULT_MAX_QUERY_CHARS,
        post=None,
    ):
        if mode not in REMOTE_MODES:
            raise ValueError(f"unknown remote mode {mode!r}")
        self.endpoint = endpoint
        self.model = model
        self.mode = mode
        self.k = k
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.max_query_chars = max_query_chars
        self._post = post or self._requests_post

    def _requests_post(self, payload: dict) -> dict:
        return post_json(self.endpoint, payload, self.api_key, self.timeout, PolicyError)

    def _complete(self, prompt: str, want_logprobs: bool = False) -> tuple[str, list[float] | None]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": REMOTE_TEMPERATURE,
            "max_tokens": REMOTE_MAX_TOKENS,
        }
        if want_logprobs:
            payload["logprobs"] = True
        body = self._post(payload)
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            content = (choice.get("logprobs") or {}).get("content") if want_logprobs else None
            logprobs = [item["logprob"] for item in content] if content else None
            if not isinstance(text, str):
                raise TypeError(f"content {text!r} is not text")
            # a log-probability above 0 would make a perplexity below 1
            if not all(type(v) in (int, float) and math.isfinite(v) and v <= 0 for v in logprobs or ()):
                raise ValueError(f"logprobs {logprobs!r} are not all finite numbers <= 0")
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise PolicyError(f"malformed completion response: {exc}") from exc
        if want_logprobs and not logprobs:
            raise CapabilityError("endpoint returned no token log-probabilities")
        return text, logprobs

    def _elicit_once(self, state: SearchState) -> Action | None:
        if self.mode == "structured":
            think_raw, _ = self._complete(render_prompt(state, "think"))
            think = _strip_tags(think_raw, "</think>")
            if not think or reserved_literal(think):
                return None
            query_raw, _ = self._complete(render_prompt(state, "search_query", think=think))
            query = _strip_tags(query_raw, "</search_query>")
        else:
            think_raw, _ = self._complete(planning_phase_prompt(state, self.k))
            think = think_raw.strip()
            if not think or reserved_literal(think):
                return None
            query_raw, _ = self._complete(search_query_phase_prompt(state, think, self.k))
            query = query_raw.strip()
        query = " ".join(query.split())
        if not query or reserved_literal(query):
            return None
        return Action(think=think, query=clip_query(query, self.max_query_chars))

    def propose(self, state: SearchState, n: int) -> list[Action]:
        actions = []
        for _ in range(n):
            action = self._elicit_once(state)
            if action is None:  # one retry on malformed output
                action = self._elicit_once(state)
            if action is None:
                raise PolicyError("remote output had no parseable query after retry")
            actions.append(action)
        return actions

    def relevance_perplexity(self, state: SearchState) -> float:
        prompt = (
            serialize_trace(state)
            + "\n\n"
            + RELEVANCE_PROMPT.format(
                t=len(state.history), query=state.last_turn().query, q0=state.original_query
            )
        )
        _, logprobs = self._complete(prompt, want_logprobs=True)
        assert logprobs is not None
        return perplexity_from_logprobs(logprobs)
