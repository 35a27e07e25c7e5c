"""The structured multi-turn search trace format.

A trace is one user query followed by completed turns, each delimited by the
four structural tag pairs:

    <user_query>...</user_query>

    <think>...</think>

    <search_query>...</search_query>

    <top_k_response>
    1. first result text
    2. second result text
    </top_k_response>

Spans are separated by exactly one blank line; retrieved results render as a
numbered list of document texts (scores and ids are kept internally but never
rendered). Tag contents are stored verbatim; content containing a literal tag
string is rejected at construction so the grammar stays unambiguous.

A trace is a `SearchState`: the user query, its completed turns, and a
terminal reason that is None while the episode runs and is set when it ends.
A state that has one takes no more turns.

The text format is intentionally lossy (it is what a model sees); the JSON
codec (`trace_to_dict` / `trace_from_dict`) is the lossless log format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Mapping

from .corpus import NOT_FOUND, RankedResults

TAG_USER = "user_query"
TAG_THINK = "think"
TAG_QUERY = "search_query"
TAG_TOPK = "top_k_response"

_ALL_TAG_LITERALS = tuple(
    f"<{t}>" for t in (TAG_USER, TAG_THINK, TAG_QUERY, TAG_TOPK)
) + tuple(f"</{t}>" for t in (TAG_USER, TAG_THINK, TAG_QUERY, TAG_TOPK))

SEP = "\n\n"

TERMINAL_SUCCESS = "success"
TERMINAL_BUDGET = "budget_exhausted"
TERMINAL_POLICY_ERROR = "policy_error"
_TERMINAL_REASONS = (TERMINAL_SUCCESS, TERMINAL_BUDGET, TERMINAL_POLICY_ERROR)

DEFAULT_MAX_TURNS = 5
DEFAULT_SNIPPET_CHARS = 512


class TraceError(ValueError):
    """Malformed trace content or structure."""


class BudgetExceededError(TraceError):
    """Appending a turn would exceed the turn budget."""


def reserved_literal(text: str) -> str | None:
    """The first reserved tag literal found in `text`, or None."""
    if "<" not in text:  # every reserved literal starts with "<"
        return None
    return next((literal for literal in _ALL_TAG_LITERALS if literal in text), None)


def _check_content(label: str, text: str) -> None:
    literal = reserved_literal(text)
    if literal is not None:
        raise TraceError(f"{label} contains reserved tag literal {literal!r}")


def clean_snippet(text: str, budget: int = DEFAULT_SNIPPET_CHARS) -> str:
    """Collapse a document text to one bounded line for the results list."""
    flat = " ".join(text.split())
    return flat[:budget]


@dataclass(frozen=True)
class RetrievedDoc:
    """One rendered result line; id/score are None when not known."""

    text: str
    doc_id: str | None = None
    score: float | None = None

    def __post_init__(self) -> None:
        _check_content("result text", self.text)
        if "\n" in self.text:
            raise TraceError("result text must be a single line (see clean_snippet)")


@dataclass(frozen=True)
class Action:
    """One proposed step: a reasoning span and the query to issue."""

    think: str
    query: str

    def __post_init__(self) -> None:
        if not self.query.strip():
            raise ValueError("action query must be non-empty")


@dataclass(frozen=True)
class Turn:
    """One completed think/query/retrieve cycle."""

    think: str
    query: str
    results: tuple[RetrievedDoc, ...]
    sim_to_target: float | None = None
    target_rank: int | None = None  # 0-based, NOT_FOUND, or None when unknown

    def __post_init__(self) -> None:
        if not self.think:
            raise TraceError("completed turn needs a non-empty think span")
        if not self.query:
            raise TraceError("completed turn needs a non-empty query")
        _check_content("think", self.think)
        _check_content("query", self.query)
        if self.target_rank is not None and self.target_rank < NOT_FOUND:
            raise TraceError(f"invalid target rank {self.target_rank}")

    def best_score(self) -> float:
        """The highest result score, 0.0 when no result is scored."""
        return max((d.score for d in self.results if d.score is not None), default=0.0)


def snapshot_results(
    results: RankedResults, snippets: Mapping[str, str]
) -> tuple[RetrievedDoc, ...]:
    """Freeze retrieval output into renderable result lines, each showing its
    document's `clean_snippet`."""
    return tuple(
        RetrievedDoc(text=snippets[e.doc_id], doc_id=e.doc_id, score=e.score)
        for e in results.entries
    )


@dataclass(frozen=True)
class SearchState:
    """Original query, the ordered history of completed turns, and the
    episode's terminal outcome (None until the episode ends)."""

    original_query: str
    history: tuple[Turn, ...] = ()
    terminal_reason: str | None = None

    def __post_init__(self) -> None:
        if not self.original_query:
            raise TraceError("original query must be non-empty")
        _check_content("user query", self.original_query)
        if self.terminal_reason is not None and self.terminal_reason not in _TERMINAL_REASONS:
            raise TraceError(f"unknown terminal reason {self.terminal_reason!r}")

    def last_turn(self) -> Turn | None:
        return self.history[-1] if self.history else None


def append_turn(state: SearchState, turn: Turn, max_turns: int = DEFAULT_MAX_TURNS) -> SearchState:
    """Return a new state with the turn appended; prior turns are untouched.
    An ended state (one with a terminal reason) takes no turn."""
    if state.terminal_reason is not None:
        raise TraceError(f"the episode has ended ({state.terminal_reason})")
    if len(state.history) >= max_turns:
        raise BudgetExceededError(
            f"turn budget exhausted ({len(state.history)}/{max_turns})"
        )
    return replace(state, history=state.history + (turn,))


# --- serialization -----------------------------------------------------------


@dataclass(frozen=True)
class TraceSpan:
    text: str
    trainable: bool


def numbered_results(turn: Turn) -> str:
    """The turn's result texts as a list numbered from 1, one line each."""
    return "".join(f"{i}. {doc.text}\n" for i, doc in enumerate(turn.results, 1))


def serialize_spans(trace: SearchState) -> list[TraceSpan]:
    """The serialized text as labeled spans (trainable vs masked).

    Trainable: think contents, query contents, and the two closing tags
    `</think>` / `</search_query>`. Everything else — the full user_query and
    top_k_response spans including their tags, the opening `<think>` and
    `<search_query>` tags, and inter-span separators — is masked.
    """
    q0 = trace.original_query
    spans = [TraceSpan(f"<{TAG_USER}>{q0}</{TAG_USER}>", False)]
    for turn in trace.history:
        spans.extend(
            [
                TraceSpan(SEP, False),
                TraceSpan(f"<{TAG_THINK}>", False),
                TraceSpan(turn.think, True),
                TraceSpan(f"</{TAG_THINK}>", True),
                TraceSpan(SEP, False),
                TraceSpan(f"<{TAG_QUERY}>", False),
                TraceSpan(turn.query, True),
                TraceSpan(f"</{TAG_QUERY}>", True),
                TraceSpan(SEP, False),
                TraceSpan(f"<{TAG_TOPK}>\n{numbered_results(turn)}</{TAG_TOPK}>", False),
            ]
        )
    return spans


def serialize_trace(trace: SearchState) -> str:
    """Render the canonical text form of a trace (its terminal reason is not shown)."""
    return "".join(span.text for span in serialize_spans(trace))


def render_prompt(
    state: SearchState,
    elicit: Literal["think", "search_query"] = "think",
    think: str | None = None,
) -> str:
    """Model-facing prompt: the serialized state plus one opening tag.

    Eliciting reasoning appends an opening `<think>`; eliciting a query
    requires the already-generated think text and appends the closed think
    span followed by an opening `<search_query>`.
    """
    base = serialize_trace(state)
    if elicit == "think":
        return f"{base}{SEP}<{TAG_THINK}>"
    if elicit == "search_query":
        if think is None:
            raise ValueError("eliciting a query requires the think text")
        _check_content("think", think)
        return f"{base}{SEP}<{TAG_THINK}>{think}</{TAG_THINK}>{SEP}<{TAG_QUERY}>"
    raise ValueError(f"unknown elicitation target {elicit!r}")


# --- JSON codec (lossless log form) ------------------------------------------


def trace_to_dict(trace: SearchState) -> dict:
    return {
        "original_query": trace.original_query,
        "terminal_reason": trace.terminal_reason,
        "turns": [
            {
                "think": t.think,
                "query": t.query,
                "results": [
                    {"doc_id": d.doc_id, "score": d.score, "text": d.text} for d in t.results
                ],
                "sim_to_target": t.sim_to_target,
                "target_rank": t.target_rank,
            }
            for t in trace.history
        ],
    }


def trace_from_dict(obj: dict) -> SearchState:
    turns = tuple(
        Turn(
            think=t["think"],
            query=t["query"],
            results=tuple(
                RetrievedDoc(text=d["text"], doc_id=d.get("doc_id"), score=d.get("score"))
                for d in t["results"]
            ),
            sim_to_target=t.get("sim_to_target"),
            target_rank=t.get("target_rank"),
        )
        for t in obj["turns"]
    )
    return SearchState(
        original_query=obj["original_query"],
        history=turns,
        terminal_reason=obj.get("terminal_reason"),
    )
