"""Property tests at the remote boundary: whatever a chat-completions or
embeddings endpoint replies, the client returns a valid value or raises its
typed error.

A reply is drawn well formed, or with one of its nodes (the body itself
included) replaced by any JSON value or removed: a missing key or list item,
a wrong type, a list where an object belongs, a non-dict body.
Logprobs are drawn across the float range, and beyond it as ints.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion.embed import EmbeddingServiceClient, EmbeddingServiceError
from orion.engine import EpisodeConfig, beam_search
from orion.policy import CapabilityError, PolicyError, RemotePolicy
from orion.trace import SearchState, Turn, reserved_literal

from conftest import TREE_QUERY

MISSING = object()
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**1100), 2**1100), st.floats(), st.text(max_size=8)
)
json_values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def paths(value, path=()):
    """The path of every node of a JSON value, the root's first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, path + (key,))


def replaced(value, path, new):
    """`value` with the node at `path` replaced by `new`, or removed for MISSING."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    key, rest = path[0], path[1:]
    if new is MISSING and not rest:
        del copy[key]
    else:
        copy[key] = replaced(value[key], rest, new)
    return copy


@st.composite
def corrupted(draw, well_formed):
    """A well-formed reply, or one with a single node replaced or removed."""
    reply = draw(well_formed)
    if draw(st.booleans()):
        return reply
    path = draw(st.sampled_from(list(paths(reply))))
    new = draw(json_values if not path else st.just(MISSING) | json_values)
    return replaced(reply, path, new)


texts = st.one_of(
    st.sampled_from(["coral reef", "reef survey</think>", "deep water</search_query>",
                     "<think>", "   ", ""]),
    st.text(max_size=30),
)
# any float, the extremes, and ints past the float range
logprob_values = st.one_of(
    st.floats(),
    st.sampled_from([-1e308, -5e-324, -0.0, 0.0, 5e-324, -9999.0, 800.0]),
    st.integers(-(2**1100), 2**1100),
)


@st.composite
def well_formed_completions(draw):
    """A chat reply of the expected shape: no logprobs, valid ones, or any values."""
    choice = {"message": {"content": draw(texts)}}
    valid = st.lists(st.floats(max_value=0.0, allow_infinity=False), max_size=4)
    logprobs = draw(st.none() | valid | st.lists(logprob_values, max_size=4))
    if logprobs is not None:
        choice["logprobs"] = {"content": [{"logprob": v} for v in logprobs]}
    return {"choices": [choice]}


completions = corrupted(well_formed_completions())


def content_of(reply: dict) -> object:
    return reply["choices"][0]["message"]["content"]


vectors = st.lists(
    st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**64), 2**64),
    min_size=1,
    max_size=4,
)


def embedding_replies(n):
    """Replies to a batch of `n` texts."""
    items = st.lists(st.fixed_dictionaries({"embedding": vectors}), min_size=n, max_size=n)
    return corrupted(st.fixed_dictionaries({"data": items}))


STATE = SearchState(original_query="coral", history=(Turn("reading", "reef", ()),))


def replaying(replies):
    """A transport answering every request with the next reply, round robin."""
    cycle = itertools.cycle(replies)
    return lambda payload: next(cycle)


@pytest.mark.parametrize("mode", ["structured", "baseline"])
@settings(max_examples=300, deadline=None)
@given(replies=st.lists(completions, min_size=1, max_size=4), n=st.integers(1, 2))
def test_propose_returns_actions_a_turn_takes_or_a_policy_error(mode, replies, n):
    policy = RemotePolicy("http://e", "m", mode=mode, post=replaying(replies), api_key="k")
    try:
        actions = policy.propose(STATE, n)
    except PolicyError:
        return
    assert len(actions) == n
    for action in actions:
        assert reserved_literal(action.think) is None and reserved_literal(action.query) is None
        assert 0 < len(action.query) <= policy.max_query_chars
        Turn(action.think, action.query, ())  # a completed turn accepts it


@settings(max_examples=400, deadline=None)
@given(reply=completions)
def test_relevance_perplexity_is_a_perplexity_or_a_typed_error(reply):
    policy = RemotePolicy("http://e", "m", post=replaying([reply]), api_key="k")
    try:
        ppl = policy.relevance_perplexity(STATE)
    except CapabilityError:
        # a well-formed reply whose choice carries no token log-probabilities
        assert not (reply["choices"][0].get("logprobs") or {}).get("content")
        return
    except PolicyError:
        return
    assert type(ppl) is float and ppl >= 1.0  # inf included, NaN excluded


@settings(max_examples=400, deadline=None)
@given(n_reply=st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), embedding_replies(n))))
def test_embed_batch_returns_finite_vectors_or_a_service_error(n_reply):
    n, reply = n_reply
    client = EmbeddingServiceClient("http://localhost:1/embed", "m", post=lambda payload: reply)
    try:
        vectors = client.embed_batch([f"text {i}" for i in range(n)])
    except EmbeddingServiceError:
        return
    assert len(vectors) == n
    for vec in vectors:
        assert vec.dtype == np.float64 and vec.ndim == 1 and vec.size > 0
        assert np.isfinite(vec).all()


@settings(max_examples=150, deadline=None)
@given(
    proposals=st.lists(well_formed_completions(), min_size=3, max_size=4, unique_by=content_of),
    judgments=st.lists(completions, min_size=1, max_size=3),
    shape=st.sampled_from([(2, 2), (1, 3)]),
)
def test_a_beam_over_any_replies_ends_with_a_reason_or_a_capability_error(
    tree_retriever, proposals, judgments, shape
):
    # relevance judgments are any replies; proposals are well formed (any
    # text), so that episodes get past turn 1 and meet the judgments
    propose, judge = replaying(proposals), replaying(judgments)
    post = lambda payload: judge(payload) if payload.get("logprobs") else propose(payload)
    policy = RemotePolicy("http://e", "m", post=post, api_key="k")
    cfg = EpisodeConfig(k=2, max_turns=3, target_ids=frozenset({"t3b"}))
    try:
        result = beam_search(policy, tree_retriever, TREE_QUERY, *shape, cfg)
    except CapabilityError:
        return
    assert result.trace.terminal_reason in ("success", "budget_exhausted", "policy_error")
    assert len(result.beam_sizes) == len(result.trace.history)
