from __future__ import annotations

import gc
import json
import math
import re
import struct
import sys
import threading
import weakref
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion import engine
from orion.archetypes import BEHAVIORS, KINDS, PolicyResources, derive_rng
from orion.corpus import NOT_FOUND, CorpusIndex
from orion.engine import (
    EMBED_MEMO_SIZE,
    RETRIEVE_MEMO_SIZE,
    SNIPPET_MEMO_SIZE,
    EpisodeConfig,
    EpisodeResult,
    Retriever,
    beam_search,
    check_success,
    episode_from_dict,
    episode_to_dict,
    execute_action,
    run_batch,
    run_episode,
    run_queries,
)
from orion.policy import Action, ArchetypeConfig, PolicyError, RemotePolicy, ScriptedPolicy
from orion.rewards import (
    GrpoConfig,
    candidate_signals,
    collect_grouped_episode,
    group_advantages,
    select_candidate,
    turn_reward,
)
from orion.trace import (
    SearchState,
    TraceError,
    Turn,
    append_turn,
    clean_snippet,
    serialize_trace,
)

from conftest import TREE_DOCS, TREE_QUERY, axis, make_stub_retriever, mix


class ConstantPolicy:
    """Re-issues one query forever; pseudo-perplexity confidence."""

    def __init__(self, query: str):
        self.query = query

    def propose(self, state, n):
        return [Action(think="staying the course", query=self.query)] * n

    def relevance_perplexity(self, state):
        return math.exp(1.0 - state.last_turn().best_score())


class TablePolicy:
    """Actions scripted by (turn index, previous query)."""

    def __init__(self, table: dict[tuple[int, str], list[str]]):
        self.table = table

    def propose(self, state, n):
        prev = state.last_turn().query if state.history else ""
        queries = self.table[(len(state.history) + 1, prev)]
        if len(queries) < n:
            queries = queries + [queries[-1]] * (n - len(queries))
        return [Action(think=f"considering {q}", query=q) for q in queries[:n]]

    def relevance_perplexity(self, state):
        return math.exp(1.0 - state.last_turn().best_score())


class FailAtTurnPolicy:
    """Delegates to a policy until turn `fail_turn`, where `propose` starts failing."""

    def __init__(self, inner, fail_turn: int):
        self.inner = inner
        self.fail_turn = fail_turn

    def propose(self, state, n):
        if len(state.history) + 1 >= self.fail_turn:
            raise PolicyError("scripted failure")
        return self.inner.propose(state, n)

    def relevance_perplexity(self, state):
        return self.inner.relevance_perplexity(state)


class CountingRelevance:
    """Delegates to a policy and counts relevance calls, failing them if asked."""

    def __init__(self, inner, fail: bool = False):
        self.inner = inner
        self.fail = fail
        self.calls = 0

    def propose(self, state, n):
        return self.inner.propose(state, n)

    def relevance_perplexity(self, state):
        self.calls += 1
        if self.fail:
            raise PolicyError("no confidence for this candidate")
        return self.inner.relevance_perplexity(state)


def reference_greedy(policy, retriever, q0, config):
    """The greedy loop written out: (trace, success_turn, per_turn_ranks).

    Success is a target among the top-k entries of the turn's retrieval, not
    the engine's target-rank rule, so comparing the two checks that rule.
    """
    state = SearchState(original_query=q0)
    reason, success_turn = "budget_exhausted", None
    for t in range(1, config.max_turns + 1):
        try:
            action = policy.propose(state, 1)[0]
        except PolicyError:
            reason = "policy_error"
            break
        state = append_turn(state, execute_action(retriever, action, config), config.max_turns)
        results = retriever.retrieve(action.query, config.k, config.target_ids)
        if any(e.doc_id in config.target_ids for e in results.entries[: config.k]):
            reason, success_turn = "success", t
            break
    ranks = tuple(t.target_rank for t in state.history)
    return replace(state, terminal_reason=reason), success_turn, ranks


def hit(turn, config):
    """A target among the turn's top-k results: the success rule the oracles use."""
    return any(d.doc_id in config.target_ids for d in turn.results[: config.k])


def reference_beam(policy, retriever, q0, beam_size, expansion, config):
    """The beam loop written out: an `EpisodeResult` with its beam sizes.
    A candidate equal to an earlier one of its turn is dropped before scoring."""
    beams = [SearchState(original_query=q0)]
    sizes = []
    for _t in range(1, config.max_turns + 1):
        candidates = []
        for state in beams:
            try:
                actions = policy.propose(state, expansion)
            except PolicyError:
                continue
            for action in actions:
                turn = execute_action(retriever, action, config)
                candidates.append(append_turn(state, turn, config.max_turns))
        candidates = [c for i, c in enumerate(candidates) if c not in candidates[:i]]
        if len(candidates) > 1:
            scored = []
            for c in candidates:
                try:
                    ppl = policy.relevance_perplexity(c)
                except PolicyError:
                    continue
                scored.append(((-1.0 / ppl, c.last_turn().query), c))
            candidates = [c for _, c in sorted(scored, key=lambda kc: kc[0])]
        if not candidates:
            return EpisodeResult(replace(beams[0], terminal_reason="policy_error"), tuple(sizes))
        beams = candidates[:beam_size]
        sizes.append(len(beams))
        for state in beams:
            if hit(state.last_turn(), config):
                return EpisodeResult(replace(state, terminal_reason="success"), tuple(sizes))
    return EpisodeResult(replace(beams[0], terminal_reason="budget_exhausted"), tuple(sizes))


def reference_grouped(policy, retriever, q0, config, grpo, rng):
    """The grouped loop written out: (trace, the logged group dicts)."""
    state = SearchState(original_query=q0)
    groups = []
    reason = "budget_exhausted"
    for _t in range(1, config.max_turns + 1):
        try:
            actions = policy.propose(state, grpo.group_size)
        except PolicyError:
            reason = "policy_error"
            break
        turns = [execute_action(retriever, a, config) for a in actions]
        breakdowns = [turn_reward(*candidate_signals(t), len(retriever.index)) for t in turns]
        rewards = [b.reward for b in breakdowns]
        selected = select_candidate(rewards, grpo.selection, rng)
        groups.append(
            {
                "candidates": [
                    {
                        "think": t.think,
                        "query": t.query,
                        "result_ids": [d.doc_id for d in t.results],
                        **b.to_dict(),
                    }
                    for t, b in zip(turns, breakdowns)
                ],
                "advantages": group_advantages(rewards, grpo.advantage_mode),
                "selected": selected,
            }
        )
        state = append_turn(state, turns[selected], config.max_turns)
        if hit(turns[selected], config):
            reason = "success"
            break
    return replace(state, terminal_reason=reason), groups


# target sets: none, one, several, an absent id alone and beside a present one
TARGET_SETS = [(), ("t2",), ("t3a", "t3b", "o1"), ("ghost",), ("t3b", "ghost")]


def drawn_policy(resources, kind, seed, fail_turn, failing_relevance=False):
    policy = ScriptedPolicy(ArchetypeConfig(kind=kind, seed=seed), resources)
    if fail_turn is not None:
        policy = FailAtTurnPolicy(policy, fail_turn)
    if failing_relevance:
        policy = CountingRelevance(policy, fail=True)
    return policy


def turn_with_rank(rank):
    return Turn(think="t", query="q", results=(), target_rank=rank)


class TestCheckSuccess:
    def test_rank_four_inside_k5(self):
        assert check_success(turn_with_rank(4), k=5)

    def test_rank_five_outside_k5(self):
        assert not check_success(turn_with_rank(5), k=5)

    def test_empty_target_set(self):
        # a retrieval without targets logs no rank; one whose targets are all
        # outside the index logs NOT_FOUND
        assert not check_success(turn_with_rank(None), k=5)
        assert not check_success(turn_with_rank(NOT_FOUND), k=5)


# --- greedy episodes --------------------------------------------------------------


def immediate_hit_retriever():
    docs = {"hit": axis(4, 1), "miss1": axis(4, 2), "miss2": axis(4, 3)}
    queries = {"find it": axis(4, 1)}
    return make_stub_retriever(docs, queries)


class TestRunEpisode:
    def test_immediate_hit(self):
        retriever = immediate_hit_retriever()
        policy = ConstantPolicy("find it")
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"hit"}))
        result = run_episode(policy, retriever, "find it", cfg)
        assert result.trace.terminal_reason == "success"
        assert result.success_turn == 1
        assert result.per_turn_ranks == (0,)

    def test_constant_policy_exhausts_budget_at_rank_seven(self):
        # ten docs; the constant query likes the target eighth-most
        dim = 11
        docs = {f"d{i}": axis(dim, i + 1) for i in range(10)}
        weights = [0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5]
        queries = {"stuck": mix(dim, *((i + 1, w) for i, w in enumerate(weights)))}
        retriever = make_stub_retriever(docs, queries)
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"d7"}))
        result = run_episode(ConstantPolicy("stuck"), retriever, "stuck", cfg)
        assert result.trace.terminal_reason == "budget_exhausted"
        assert result.per_turn_ranks == (7, 7, 7, 7, 7)
        assert result.success_turn is None

    def test_depth_first_succeeds_at_turn_two_on_tree(self, tree_retriever, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t2"}))
        result = run_episode(policy, tree_retriever, TREE_QUERY, cfg)
        assert result.trace.terminal_reason == "success"
        assert result.success_turn == 2
        assert result.per_turn_ranks == (5, 0)

    def test_policy_error_keeps_partial_trace(self):
        retriever = immediate_hit_retriever()
        policy = FailAtTurnPolicy(ConstantPolicy("find it"), fail_turn=2)
        cfg = EpisodeConfig(k=1, max_turns=5, target_ids=frozenset({"miss1"}))
        result = run_episode(policy, retriever, "find it", cfg)
        assert result.trace.terminal_reason == "policy_error"
        assert len(result.trace.history) == 1

    def test_success_short_circuits(self, tree_retriever, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t2"}))
        result = run_episode(policy, tree_retriever, TREE_QUERY, cfg)
        assert len(result.trace.history) == result.success_turn


# --- beam search ------------------------------------------------------------------


def two_branch_fixture():
    """Hand-built corpus where only the low-confidence branch reaches the target.

    Queries embed as s * e_doc + sqrt(1-s^2) * e_aux so each has an exact
    cosine s with its intended document and 0 with everything else. The bright
    branch scores 0.9 then plateaus at 0.5; the dim branch starts at 0.3,
    rises to 0.6, and hits the target (cosine 0.9) at turn 3.
    """
    dim = 12
    docs = {
        "da1": axis(dim, 1), "da2": axis(dim, 2), "da3": axis(dim, 3),
        "da4": axis(dim, 4), "da5": axis(dim, 5),
        "pa1": axis(dim, 6), "pa2": axis(dim, 7),
        "ja1": axis(dim, 8), "ja2": axis(dim, 9),
        "zz-target": axis(dim, 10),
    }

    def q(doc_axis: int, s: float):
        return mix(dim, (doc_axis, s), (0, math.sqrt(1 - s * s)))

    queries = {
        "bright start": q(1, 0.9),
        "dim start": q(6, 0.3),
        "bright deeper": q(2, 0.5),
        "bright alt": q(3, 0.45),
        "dim deeper": q(7, 0.6),
        "dim noise": q(8, 0.2),
        "bright deepest": q(4, 0.5),
        "bright stuck": q(5, 0.45),
        "dim target": q(10, 0.9),
        "dim dud": q(9, 0.2),
        "bright loop4": q(2, 0.5),
        "bright fade4": q(3, 0.45),
        "bright loop5": q(4, 0.5),
        "bright fade5": q(5, 0.45),
    }
    table = {
        (1, ""): ["bright start", "dim start"],
        (2, "bright start"): ["bright deeper", "bright alt"],
        (2, "dim start"): ["dim deeper", "dim noise"],
        (3, "bright deeper"): ["bright deepest", "bright stuck"],
        (3, "dim deeper"): ["dim target", "dim dud"],
        (3, "dim noise"): ["dim dud", "dim dud"],
        (4, "bright deepest"): ["bright loop4", "bright fade4"],
        (5, "bright loop4"): ["bright loop5", "bright fade5"],
    }
    retriever = make_stub_retriever(docs, queries)
    cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"zz-target"}))
    return retriever, TablePolicy(table), cfg


class TestBeamSearch:
    def test_wide_beam_keeps_the_low_similarity_branch_alive(self):
        retriever, policy, cfg = two_branch_fixture()
        result = beam_search(policy, retriever, "root question", 2, 2, cfg)
        assert result.trace.terminal_reason == "success"
        assert result.success_turn == 3
        assert [t.query for t in result.trace.history] == [
            "dim start", "dim deeper", "dim target",
        ]

    def test_narrow_beam_follows_the_bright_decoy_and_fails(self):
        retriever, policy, cfg = two_branch_fixture()
        result = beam_search(policy, retriever, "root question", 1, 2, cfg)
        assert result.trace.terminal_reason == "budget_exhausted"
        assert result.success_turn is None
        assert result.trace.history[0].query == "bright start"

    def test_beam_count_bounded_by_b(self):
        retriever, policy, cfg = two_branch_fixture()
        result = beam_search(policy, retriever, "root question", 2, 2, cfg)
        assert result.beam_sizes and all(size <= 2 for size in result.beam_sizes)

    def test_survivors_are_top_b_by_pseudo_perplexity(self):
        # four candidates with similarities .9/.2/.6/.5: survivors .9 and .6
        dim = 6
        docs = {f"d{i}": axis(dim, i + 1) for i in range(4)}
        queries = {
            "q-hi": mix(dim, (1, 0.9), (0, math.sqrt(1 - 0.81))),
            "q-lo": mix(dim, (2, 0.2), (0, math.sqrt(1 - 0.04))),
            "q-mid": mix(dim, (3, 0.6), (0, 0.8)),
            "q-half": mix(dim, (4, 0.5), (0, math.sqrt(0.75))),
        }
        retriever = make_stub_retriever(docs, queries)
        policy = TablePolicy({(1, ""): ["q-hi", "q-lo", "q-mid", "q-half"]})
        cfg = EpisodeConfig(k=2, max_turns=1, target_ids=frozenset())
        result = beam_search(policy, retriever, "root", 2, 4, cfg)
        # the returned beam is the best survivor; sizes confirm pruning to B
        assert result.beam_sizes == (2,)
        assert result.trace.history[0].query == "q-hi"

    def test_degenerate_beam_equals_greedy_runner(self, tree_retriever, tree_resources):
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t3b"}))
        policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=9), tree_resources)
        greedy = run_episode(policy, tree_retriever, TREE_QUERY, cfg)
        beamed = beam_search(policy, tree_retriever, TREE_QUERY, 1, 1, cfg)
        assert beamed.trace == greedy.trace
        assert serialize_trace(beamed.trace) == serialize_trace(greedy.trace)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**16),
        target=st.sampled_from([d.doc_id for d in TREE_DOCS] + ["ghost"]),
        k=st.integers(1, 5),
        max_turns=st.integers(1, 5),
    )
    def test_one_beam_one_candidate_is_the_greedy_loop(
        self, tree_retriever, tree_resources, kind, seed, target, k, max_turns
    ):
        policy = ScriptedPolicy(ArchetypeConfig(kind=kind, seed=seed), tree_resources)
        cfg = EpisodeConfig(k=k, max_turns=max_turns, target_ids=frozenset({target}))
        want = reference_greedy(policy, tree_retriever, TREE_QUERY, cfg)
        greedy = run_episode(policy, tree_retriever, TREE_QUERY, cfg)
        beamed = beam_search(policy, tree_retriever, TREE_QUERY, 1, 1, cfg)
        for result in (greedy, beamed):
            assert (result.trace, result.success_turn, result.per_turn_ranks) == want
        assert greedy.beam_sizes == ()
        assert beamed.beam_sizes == (1,) * len(beamed.per_turn_ranks)

    @pytest.mark.parametrize("fail", [False, True])
    def test_a_lone_candidate_is_never_scored(self, tree_retriever, tree_resources, fail):
        inner = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t3b"}))
        plain = run_episode(inner, tree_retriever, TREE_QUERY, cfg)
        counting = CountingRelevance(inner, fail)
        assert run_episode(counting, tree_retriever, TREE_QUERY, cfg) == plain
        assert beam_search(counting, tree_retriever, TREE_QUERY, 3, 1, cfg).trace == plain.trace
        assert counting.calls == 0

    def test_every_candidate_is_scored_when_there_are_several(self, tree_retriever, tree_resources):
        inner = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)
        counting = CountingRelevance(inner)
        cfg = EpisodeConfig(k=5, max_turns=3, target_ids=frozenset({"ghost"}))
        result = beam_search(counting, tree_retriever, TREE_QUERY, 1, 2, cfg)
        assert counting.calls == 2 * len(result.beam_sizes) == 6

    def test_candidate_failure_removes_only_that_candidate(self):
        retriever, policy, cfg = two_branch_fixture()

        class FlakyConfidence(TablePolicy):
            def relevance_perplexity(self, state):
                if state.last_turn().query == "bright start":
                    raise PolicyError("cannot judge this one")
                return super().relevance_perplexity(state)

        flaky = FlakyConfidence(policy.table)
        result = beam_search(flaky, retriever, "root question", 2, 2, cfg)
        # bright branch died at turn 1, dim branch still wins
        assert result.trace.terminal_reason == "success"
        assert result.trace.history[0].query == "dim start"

    def test_all_candidates_failing_ends_policy_error(self):
        retriever, _, cfg = two_branch_fixture()
        failing = FailAtTurnPolicy(ConstantPolicy("bright start"), fail_turn=1)
        result = beam_search(failing, retriever, "root question", 2, 2, cfg)
        assert result.trace.terminal_reason == "policy_error"
        assert result.trace.history == ()

    @pytest.mark.parametrize(
        "bright_logprob, order",
        [(-9999.0, ["q-mid", "q-lo", "q-hi"]), (800.0, ["q-mid", "q-lo"])],
        ids=["overflow", "positive"],
    )
    def test_an_extreme_logprob_costs_only_its_candidate(self, bright_logprob, order):
        # exp(9999) overflows: that candidate's perplexity is inf, so it ranks
        # last; a logprob above 0 is a malformed reply, so it is dropped
        dim = 6
        docs = {f"d{i}": axis(dim, i + 1) for i in range(3)}
        queries = {
            "q-hi": mix(dim, (1, 0.9), (0, math.sqrt(1 - 0.81))),
            "q-mid": mix(dim, (2, 0.6), (0, 0.8)),
            "q-lo": mix(dim, (3, 0.2), (0, math.sqrt(1 - 0.04))),
        }
        logprobs = {"q-hi": [bright_logprob], "q-mid": [-1.0], "q-lo": [-2.0]}

        def reply(payload):
            query = re.search(r"search query (\S+), the", payload["messages"][0]["content"])[1]
            content = [{"logprob": lp} for lp in logprobs[query]]
            return {"choices": [{"message": {"content": "yes"}, "logprobs": {"content": content}}]}

        judge = RemotePolicy("http://e", "m", post=reply, api_key="k")
        proposed_from = []

        class RemoteJudged(TablePolicy):
            def propose(self, state, n):
                if state.history:
                    proposed_from.append(state.last_turn().query)
                return super().propose(state, n)

            def relevance_perplexity(self, state):
                return judge.relevance_perplexity(state)

        policy = RemoteJudged({(1, ""): ["q-hi", "q-mid", "q-lo"], **{(2, q): [q] for q in queries}})
        cfg = EpisodeConfig(k=2, max_turns=2, target_ids=frozenset())
        result = beam_search(policy, make_stub_retriever(docs, queries), "root", 3, 3, cfg)
        assert result.trace.terminal_reason == "budget_exhausted"
        assert proposed_from == order  # the survivors of turn 1, best first
        assert [t.query for t in result.trace.history] == ["q-mid", "q-mid"]

    def test_tie_break_is_lexicographic_on_query(self):
        dim = 4
        docs = {"d1": axis(dim, 1), "d2": axis(dim, 2)}
        queries = {
            "zeta": mix(dim, (1, 0.5), (0, math.sqrt(0.75))),
            "alpha": mix(dim, (2, 0.5), (0, math.sqrt(0.75))),
        }
        retriever = make_stub_retriever(docs, queries)
        policy = TablePolicy({(1, ""): ["zeta", "alpha"]})
        cfg = EpisodeConfig(k=1, max_turns=1, target_ids=frozenset())
        result = beam_search(policy, retriever, "root", 1, 2, cfg)
        assert result.trace.history[0].query == "alpha"

    @pytest.mark.parametrize("kind", [k for k in KINDS if BEHAVIORS[k][2] is not None])
    def test_beams_hold_distinct_states(self, tree_retriever, tree_resources, kind):
        # a kind with an opening issues q0 for each turn-1 candidate: the
        # copies go on as one beam, and from turn 2 on the B beams differ
        proposing = defaultdict(list)  # turn -> the states proposing at it

        class Recording(ScriptedPolicy):
            def propose(self, state, n):
                proposing[len(state.history) + 1].append(state)
                return super().propose(state, n)

        policy = Recording(ArchetypeConfig(kind=kind, seed=4), tree_resources)
        cfg = EpisodeConfig(k=1, max_turns=4, target_ids=frozenset({"ghost"}))
        result = beam_search(policy, tree_retriever, TREE_QUERY, 2, 2, cfg)
        assert len(proposing[2]) == 1
        for t in (3, 4):
            assert len(set(proposing[t])) == len(proposing[t]) == 2
        assert result.beam_sizes == (1, 2, 2, 2)


class TestRunBatch:
    def test_order_preserved_and_targets_from_qrels(self, tree_retriever, tree_resources):
        queries = [("q1", TREE_QUERY), ("q2", TREE_QUERY)]
        qrels = {"q1": {"t2": 1, "o1": 0}, "q2": {"t3b": 2}}

        def policy_for(qid):
            return ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=5), tree_resources)

        results = run_batch(
            queries, qrels, policy_for, tree_retriever, EpisodeConfig(k=5, max_turns=5)
        )
        assert [qid for qid, _ in results] == ["q1", "q2"]
        assert results[0][1].trace.terminal_reason == "success"

    def test_parallel_matches_serial(self, tree_retriever, tree_resources):
        queries = [(f"q{i}", TREE_QUERY) for i in range(4)]
        qrels = {f"q{i}": {"t2": 1} for i in range(4)}

        def policy_for(qid):
            return ScriptedPolicy(ArchetypeConfig(kind="adaptive_context", seed=3), tree_resources)

        serial = run_batch(queries, qrels, policy_for, tree_retriever, EpisodeConfig())
        parallel = run_batch(
            queries, qrels, policy_for, tree_retriever, EpisodeConfig(), workers=3
        )
        assert [(q, r.trace) for q, r in serial] == [(q, r.trace) for q, r in parallel]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_the_first_failure_in_input_order_is_raised_once_every_query_ran(
        self, tree_retriever, tree_resources, workers
    ):
        queries = [(f"q{i}", TREE_QUERY) for i in range(5)]
        asked, q3_failed = [], threading.Event()

        def policy_for(qid):
            asked.append(qid)
            if qid == "q1":  # on threads, q3 fails first
                q3_failed.wait(timeout=10 if workers > 1 else 0)
                raise ValueError("no policy for q1")
            if qid == "q3":
                q3_failed.set()
                raise ValueError("no policy for q3")
            return ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)

        with pytest.raises(ValueError, match="no policy for q1"):
            run_batch(queries, {}, policy_for, tree_retriever, EpisodeConfig(), workers=workers)
        assert sorted(asked) == [qid for qid, _ in queries]

    def test_episodes_are_run_by_the_module_functions_of_the_call(self, tree_retriever, monkeypatch):
        # a wrapper set on `engine.run_episode` or `engine.beam_search` runs
        calls = Counter()

        def counted(name):
            inner = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in ("run_episode", "beam_search"):
            monkeypatch.setattr(engine, name, counted(name))
        policy_for = lambda qid: ConstantPolicy(TREE_QUERY)
        run_batch([("q1", TREE_QUERY)], {}, policy_for, tree_retriever, EpisodeConfig(max_turns=1))
        run_batch([("q1", TREE_QUERY)], {}, policy_for, tree_retriever, EpisodeConfig(max_turns=1), beam_size=2)
        assert calls == {"run_episode": 1, "beam_search": 1}


class TestRunQueries:
    @settings(max_examples=80, deadline=None)
    @given(
        order=st.permutations(range(6)),
        n=st.integers(0, 6),
        failing=st.sets(st.sampled_from([f"q{i}" for i in range(6)])),
        qrels=st.dictionaries(
            st.sampled_from([f"q{i}" for i in range(6)]),
            st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(-1, 3), max_size=3),
        ),
        workers=st.sampled_from([1, 2, 4]),
        k=st.integers(1, 9),
        max_turns=st.integers(1, 9),
    )
    def test_outcomes_are_a_serial_loops(self, order, n, failing, qrels, workers, k, max_turns):
        queries = [(f"q{i}", f"text {i}") for i in order[:n]]

        def job(qid, text, config):
            if qid in failing:
                raise ValueError(f"{qid} failed")
            return qid, text, config

        serial = []
        for qid, text in queries:
            targets = frozenset(d for d, grade in qrels.get(qid, {}).items() if grade >= 1)
            try:
                serial.append(job(qid, text, EpisodeConfig(k, max_turns, targets)))
            except Exception as exc:
                serial.append(exc)
        # the given config's own targets are replaced by each query's
        config = EpisodeConfig(k, max_turns, frozenset({"a"}))
        got = run_queries(queries, qrels, config, job, workers)

        def plain(outcome):
            return (type(outcome), str(outcome)) if isinstance(outcome, Exception) else outcome

        assert [plain(o) for o in got] == [plain(o) for o in serial]


@pytest.mark.parametrize("kind", ["depth_first", "random_walk"])
def test_episode_log_record_round_trips(tree_retriever, tree_resources, kind):
    policy = ScriptedPolicy(ArchetypeConfig(kind=kind, seed=2), tree_resources)
    cfg = EpisodeConfig(k=5, max_turns=3, target_ids=frozenset({"t2"}))
    result = beam_search(policy, tree_retriever, TREE_QUERY, 2, 2, cfg)
    record = episode_to_dict("q1", result)
    assert record["success_turn"] == result.success_turn
    assert record["per_turn_ranks"] == [t.target_rank for t in result.trace.history]
    assert episode_from_dict(json.loads(json.dumps(record))) == ("q1", result)


def test_episode_log_record_must_agree_with_its_trace(tree_retriever, tree_resources):
    policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=1), tree_resources)
    cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t2"}))
    record = episode_to_dict("q1", run_episode(policy, tree_retriever, TREE_QUERY, cfg))
    assert record["success_turn"] == 2
    with pytest.raises(TraceError, match="success_turn"):
        episode_from_dict({**record, "success_turn": 1})
    with pytest.raises(TraceError, match="per_turn_ranks"):
        episode_from_dict({**record, "per_turn_ranks": [5]})
    # records without the derived fields are read from the trace alone
    del record["success_turn"], record["per_turn_ranks"]
    assert episode_from_dict(record)[1].success_turn == 2


def test_not_found_rank_recorded_for_absent_target():
    docs = {"d1": axis(3, 1), "d2": axis(3, 2)}
    queries = {"find": axis(3, 1)}
    retriever = make_stub_retriever(docs, queries)
    cfg = EpisodeConfig(k=1, max_turns=1, target_ids=frozenset({"ghost"}))
    result = run_episode(ConstantPolicy("find"), retriever, "find", cfg)
    assert result.per_turn_ranks == (NOT_FOUND,)


@pytest.mark.parametrize("fail_turn", [1, 2])
def test_grouped_collection_ends_as_policy_error_when_propose_fails(tree_retriever, fail_turn):
    cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"ghost"}))
    trace, groups = collect_grouped_episode(
        FailAtTurnPolicy(ConstantPolicy(TREE_QUERY), fail_turn), tree_retriever, TREE_QUERY, cfg,
        GrpoConfig(group_size=3), derive_rng(0, "fail"),
    )
    assert trace.terminal_reason == "policy_error"
    assert len(groups) == len(trace.history) == fail_turn - 1


class TestTheWrittenOutLoops:
    """Beam and grouped runs on the tree corpus equal their written-out loops."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**16),
        shape=st.sampled_from([(1, 2), (2, 2), (3, 1), (2, 3)]),
        targets=st.sampled_from(TARGET_SETS),
        k=st.integers(1, 5),
        max_turns=st.integers(1, 4),
        fail_turn=st.sampled_from([None, 1, 2]),
        failing_relevance=st.booleans(),
    )
    def test_beam_search(
        self, tree_retriever, tree_resources, kind, seed, shape, targets, k, max_turns,
        fail_turn, failing_relevance,
    ):
        cfg = EpisodeConfig(k=k, max_turns=max_turns, target_ids=frozenset(targets))
        policy = drawn_policy(tree_resources, kind, seed, fail_turn, failing_relevance)
        want = reference_beam(policy, tree_retriever, TREE_QUERY, *shape, cfg)
        assert beam_search(policy, tree_retriever, TREE_QUERY, *shape, cfg) == want

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**16),
        group_size=st.sampled_from([2, 3, 4]),
        selection=st.sampled_from(["argmax", "proportional"]),
        advantage_mode=st.sampled_from(["mean_center", "z_score"]),
        targets=st.sampled_from(TARGET_SETS),
        k=st.integers(1, 5),
        max_turns=st.integers(1, 4),
        fail_turn=st.sampled_from([None, 1, 2]),
    )
    def test_grouped_collection(
        self, tree_retriever, tree_resources, kind, seed, group_size, selection,
        advantage_mode, targets, k, max_turns, fail_turn,
    ):
        cfg = EpisodeConfig(k=k, max_turns=max_turns, target_ids=frozenset(targets))
        grpo = GrpoConfig(group_size=group_size, selection=selection, advantage_mode=advantage_mode)
        policy = drawn_policy(tree_resources, kind, seed, fail_turn)
        want = reference_grouped(
            policy, tree_retriever, TREE_QUERY, cfg, grpo, derive_rng(seed, "grpo")
        )
        trace, groups = collect_grouped_episode(
            policy, tree_retriever, TREE_QUERY, cfg, grpo, derive_rng(seed, "grpo")
        )
        assert (trace, [g.to_dict() for g in groups]) == want


# --- the retrieval memo ------------------------------------------------------------


class CountingEmbedder:
    """Wraps an embedder and counts its calls per text; can fail on chosen calls."""

    def __init__(self, inner, fail_calls: int = 0):
        self.inner = inner
        self.calls: Counter[str] = Counter()
        self.fail_calls = fail_calls

    def __call__(self, text: str):
        self.calls[text] += 1
        if self.fail_calls:
            self.fail_calls -= 1
            raise ConnectionError("embedding service unavailable")
        return self.inner(text)


def counting_retriever(tree_retriever, fail_calls: int = 0) -> tuple[Retriever, CountingEmbedder]:
    embed = CountingEmbedder(tree_retriever.embed, fail_calls)
    return Retriever(tree_retriever.index, embed), embed


class TestRetrieverMemo:
    def test_grouped_candidates_repeating_q0_embed_it_once(self, tree_retriever, tree_resources):
        retriever, embed = counting_retriever(tree_retriever)
        policy = ScriptedPolicy(ArchetypeConfig(kind="adaptive_context", seed=3), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=1, target_ids=frozenset({"t3b"}))
        _, groups = collect_grouped_episode(
            policy, retriever, TREE_QUERY, cfg, GrpoConfig(group_size=4), derive_rng(0, "memo")
        )
        assert [t.query for t in groups[0].turns] == [TREE_QUERY] * 4
        assert embed.calls == {TREE_QUERY: 1}

    def test_beam_embeds_each_distinct_query_once_per_turn(self, tree_retriever):
        retriever, embed = counting_retriever(tree_retriever)
        a, b = "machine learning neural", "machine learning transformers"
        c, d = "neural transformers attention", "transformers attention heads"
        # both survivors of turn 1 propose the same two queries at turn 2
        policy = TablePolicy({(1, ""): [a, b], (2, a): [c, d], (2, b): [c, d]})
        cfg = EpisodeConfig(k=2, max_turns=2)
        result = beam_search(policy, retriever, "root", 2, 2, cfg)
        assert result.beam_sizes == (2, 2)
        assert embed.calls == {a: 1, b: 1, c: 1, d: 1}

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("targets", [(), ("t2",), ("t3a", "o1", "missing")])
    def test_a_hit_equals_a_fresh_search(self, tree_retriever, k, targets):
        retriever, embed = counting_retriever(tree_retriever)
        first = retriever.retrieve(TREE_QUERY, k, targets)
        hit = retriever.retrieve(TREE_QUERY, k, list(reversed(targets)))
        fresh = tree_retriever.index.search(embed.inner(TREE_QUERY), k, targets)
        assert embed.calls[TREE_QUERY] == 1
        assert hit is first
        assert (hit.entries, hit.target_sim, hit.target_rank) == (
            fresh.entries, fresh.target_sim, fresh.target_rank
        )

    def test_k_and_target_set_are_part_of_the_key(self, tree_retriever):
        # while the query's embedding is remembered, its four keys share
        # it, and each key still gets its own answer
        retriever, embed = counting_retriever(tree_retriever)
        keys = [(5, ()), (1, ()), (5, frozenset({"t2"})), (5, ["o1"])]
        plain, top1, targeted, other = [retriever.retrieve(TREE_QUERY, k, t) for k, t in keys]
        assert embed.calls[TREE_QUERY] == 1
        assert retriever._search.cache_info().misses == 4
        vector = embed.inner(TREE_QUERY)
        for (k, t), got in zip(keys, (plain, top1, targeted, other)):
            assert got == tree_retriever.index.search(vector, k, t)
        assert len(plain.entries) == 5 and len(top1.entries) == 1
        assert plain.target_rank is None and targeted.target_rank is not None
        assert (targeted.target_rank, other.target_rank) == (6, 5)
        assert retriever.retrieve(TREE_QUERY, 5, ("t2", "t2")) is targeted
        assert embed.calls[TREE_QUERY] == 1

    @pytest.mark.parametrize("others, embeds", [(EMBED_MEMO_SIZE - 1, 1), (EMBED_MEMO_SIZE, 2)])
    def test_a_new_key_re_embeds_once_the_embedding_is_evicted(self, tree_retriever, others, embeds):
        retriever, embed = counting_retriever(tree_retriever)
        retriever.retrieve(TREE_QUERY, 5)
        for i in range(others):
            retriever.retrieve(f"machine learning {i}", 5)
        retriever.retrieve(TREE_QUERY, 3)
        assert embed.calls[TREE_QUERY] == embeds
        assert retriever._embedding.cache_info().currsize == min(others + 1, EMBED_MEMO_SIZE)

    def test_each_memo_miss_is_one_search(self, tree_retriever, monkeypatch):
        retriever, embed = counting_retriever(tree_retriever)
        searches = []
        search = CorpusIndex.search
        monkeypatch.setattr(
            CorpusIndex, "search", lambda index, *args: searches.append(args) or search(index, *args)
        )
        calls = [
            ("retrieve", TREE_QUERY, 5, ()),
            ("retrieve", TREE_QUERY, 5, ("t2",)),
            ("retrieve", TREE_QUERY, 5, ()),  # a hit
            ("best_similarity", TREE_QUERY),
            ("best_similarity", TREE_QUERY),  # a probe is never a hit
            ("retrieve", "machine learning neural", 1, ()),
            ("retrieve", TREE_QUERY, 1, ()),
        ]
        for name, *args in calls:
            getattr(retriever, name)(*args)
        assert retriever._search.cache_info().misses == 4
        assert len(searches) == 4 + 2
        assert embed.calls == {TREE_QUERY: 1, "machine learning neural": 1}

    def test_a_greedy_hill_step_embeds_each_probe_once_and_retrieves_from_its_embedding(
        self, tree_retriever, tree_vocab, monkeypatch
    ):
        retriever, embed = counting_retriever(tree_retriever)
        scans = []
        search = CorpusIndex.search
        monkeypatch.setattr(
            CorpusIndex, "search", lambda index, q, *args: scans.append(q) or search(index, q, *args)
        )
        probed = []
        resources = PolicyResources(
            vocab=tree_vocab, probe=lambda q: probed.append(q) or retriever.best_similarity(q)
        )
        policy = ScriptedPolicy(ArchetypeConfig(kind="greedy_hill", seed=0), resources)
        cfg = EpisodeConfig(k=3, max_turns=2, target_ids=frozenset({"ghost"}))
        trace = run_episode(policy, retriever, TREE_QUERY, cfg).trace
        issued = [t.query for t in trace.history]
        assert len(issued) == 2 and len(probed) == 6
        assert set(issued) <= set(probed)
        assert embed.calls == Counter(probed) == Counter(set(probed))
        # one scan per probe and one per retrieval, each of a memoised embedding
        assert len(scans) == len(probed) + len(issued)
        assert {id(q) for q in scans} == {id(retriever._embedding(q)) for q in probed}
        # the episode a probe that selects a top-1 from a fresh search gives
        fresh = PolicyResources(
            vocab=tree_vocab,
            probe=lambda q: retriever.index.search(embed.inner(q), 1).entries[0].score,
        )
        policy = ScriptedPolicy(ArchetypeConfig(kind="greedy_hill", seed=0), fresh)
        plain = run_episode(policy, Retriever(retriever.index, embed.inner), TREE_QUERY, cfg)
        assert serialize_trace(plain.trace) == serialize_trace(trace)

    @pytest.mark.parametrize("distinct, embeds", [(RETRIEVE_MEMO_SIZE, 1), (RETRIEVE_MEMO_SIZE + 1, 2)])
    def test_the_least_recent_query_is_evicted_past_the_bound(self, tree_retriever, distinct, embeds):
        retriever, embed = counting_retriever(tree_retriever)
        queries = [f"machine learning {i}" for i in range(distinct)]
        for q in queries:
            retriever.retrieve(q, 5)
        retriever.retrieve(queries[0], 5)
        assert embed.calls[queries[0]] == embeds

    @settings(max_examples=200, deadline=None)
    @given(case=st.data())
    def test_best_similarity_is_the_top_1_score_to_the_bit(self, case):
        # tie-heavy corpora: few distinct small-integer rows; in the zero
        # case every row is orthogonal to the query, so every score is zero
        dim = case.draw(st.integers(2, 4))
        zero = case.draw(st.booleans())
        free = st.lists(st.integers(-2, 2), min_size=dim - zero, max_size=dim - zero).filter(any)
        rows = case.draw(st.lists(free, min_size=1, max_size=3))
        n = case.draw(st.integers(1, 10))
        docs = {f"d{i}": [0] * zero + case.draw(st.sampled_from(rows)) for i in range(n)}
        query = [1] + [0] * (dim - 1) if zero else case.draw(free)
        retriever = make_stub_retriever(docs, {"q": query})
        got = retriever.best_similarity("q")
        top = make_stub_retriever(docs, {"q": query}).retrieve("q", 1).entries[0].score
        assert struct.pack("<d", got) == struct.pack("<d", top)
        assert got == retriever.retrieve("q", 1).entries[0].score
        if zero:
            assert got == 0.0

    def test_a_failed_embedding_is_retried(self, tree_retriever):
        retriever, embed = counting_retriever(tree_retriever, fail_calls=1)
        with pytest.raises(ConnectionError):
            retriever.retrieve(TREE_QUERY, 5)
        assert retriever.retrieve(TREE_QUERY, 5) == tree_retriever.retrieve(TREE_QUERY, 5)
        assert embed.calls[TREE_QUERY] == 2

    def test_threads_sharing_the_memo_get_fresh_search_results(self, tree_retriever):
        # more distinct queries than the memo holds, so threads also race on evictions
        queries = [f"machine learning {i % (RETRIEVE_MEMO_SIZE + 16)}" for i in range(1600)]
        index, embed = tree_retriever.index, tree_retriever.embed
        expected = {q: index.search(embed(q), 3, ("t2",)) for q in set(queries)}
        retriever = Retriever(index, embed)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(retriever.retrieve, q, 3, ("t2",)) for q in queries]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[q] for q in queries]
        assert retriever._search.cache_info().currsize == RETRIEVE_MEMO_SIZE

    def test_a_dropped_retriever_is_freed_without_the_cycle_collector(self, tree_retriever):
        retriever, _ = counting_retriever(tree_retriever)
        retriever.retrieve(TREE_QUERY, 5)
        ref = weakref.ref(retriever)
        gc.disable()
        try:
            del retriever
            assert ref() is None
        finally:
            gc.enable()


# --- the snippet memo ---------------------------------------------------------------


def snippet_retrievers(texts: dict[str, str], budgets: tuple[int, ...]) -> list[Retriever]:
    """Retrievers with the given snippet budgets over one index; the query
    `d<i>` ranks doc `d<i>` first."""
    dim = len(texts)
    docs = {doc_id: axis(dim, i) for i, doc_id in enumerate(texts)}
    stub = make_stub_retriever(docs, dict(docs), texts)
    return [Retriever(stub.index, stub.embed, snippet_chars=b) for b in budgets]


def wide_retriever(n: int) -> Retriever:
    """A 9-character snippet budget over `n` two-dimensional documents."""
    docs = {f"d{i}": [1.0, float(i)] for i in range(n)}
    stub = make_stub_retriever(docs, {}, {d: f"text  of\n{d}" for d in docs})
    return Retriever(stub.index, stub.embed, snippet_chars=9)


class TestSnippetMemo:
    def test_each_retriever_logs_its_own_budget_over_one_index(self):
        texts = {
            "d0": "  Solar\tpanels\n on   rooftops  " * 8,
            "d1": "wind turbines offshore " * 12,
            "d2": "short",
        }
        budgets = (7, 40, 512)
        retrievers = snippet_retrievers(texts, budgets)
        cfg = EpisodeConfig(k=3, max_turns=1)
        for _ in range(2):  # the second round is answered from the memos
            for retriever, budget in zip(retrievers, budgets):
                for query in texts:
                    turn = execute_action(retriever, Action("look", query), cfg)
                    assert turn.results[0].doc_id == query
                    assert [d.text for d in turn.results] == [
                        clean_snippet(texts[d.doc_id], budget) for d in turn.results
                    ]
        assert [r.snippet.cache_info().hits for r in retrievers] == [2 * 3 * 3 - 3] * 3

    def test_a_reserved_tag_fails_every_retrieval_of_its_document(self):
        texts = {"clean": "solar panels", "tagged": "see the <think> span"}
        [retriever] = snippet_retrievers(texts, (512,))
        cfg = EpisodeConfig(k=1, max_turns=1)
        for _ in range(3):
            with pytest.raises(TraceError, match="reserved tag literal"):
                execute_action(retriever, Action("look", "tagged"), cfg)
            assert execute_action(retriever, Action("look", "clean"), cfg).results[0].text == "solar panels"

    def test_the_memo_is_bounded(self):
        retriever = wide_retriever(SNIPPET_MEMO_SIZE + 1)
        for i in range(SNIPPET_MEMO_SIZE + 1):
            retriever.snippet(f"d{i}")
        retriever.snippet("d0")
        assert retriever.snippet.cache_info().currsize == SNIPPET_MEMO_SIZE
        assert retriever.snippet.cache_info().hits == 0

    def test_threads_sharing_the_memo_get_each_documents_snippet(self):
        # more documents than the memo holds, so threads also race on evictions
        n = SNIPPET_MEMO_SIZE + 16
        retriever = wide_retriever(n)
        doc_ids = [f"d{(7 * i) % n}" for i in range(4 * n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(retriever.snippet, d) for d in doc_ids]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [clean_snippet(f"text  of\n{d}", 9) for d in doc_ids]
