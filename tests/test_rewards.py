from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from orion.archetypes import derive_rng
from orion.corpus import NOT_FOUND
from orion.engine import EpisodeConfig, execute_action
from orion.policy import Action, ArchetypeConfig, ScriptedPolicy
from orion.rewards import (
    GrpoConfig,
    RewardError,
    collect_grouped_episode,
    group_advantages,
    make_training_record,
    mask_spans,
    normalize_rank,
    normalize_similarity,
    select_candidate,
    turn_reward,
    candidate_signals,
)
from orion.trace import RetrievedDoc, SearchState, Turn, serialize_trace

from conftest import TREE_QUERY, axis, make_stub_retriever


def candidate_turn(retriever, targets=frozenset()):
    """The top-1 turn a candidate issuing query "q" logs."""
    return execute_action(retriever, Action("t", "q"), EpisodeConfig(k=1, target_ids=targets))


class TestNormalizers:
    def test_similarity_identity_branch(self):
        assert normalize_similarity(0.6) == 0.6

    def test_similarity_negative_branch(self):
        assert normalize_similarity(-1.0) == 0.0
        assert normalize_similarity(-0.5) == 0.25

    def test_similarity_out_of_range(self):
        with pytest.raises(RewardError):
            normalize_similarity(1.5)
        with pytest.raises(RewardError):
            normalize_similarity(-1.0 - 1e-6)

    def test_similarity_rounded_past_the_range_is_clamped(self):
        assert normalize_similarity(1.0 + 2**-52) == 1.0
        assert normalize_similarity(-1.0 - 2**-52) == 0.0

    def test_a_query_equal_to_a_document_gets_a_reward(self):
        # this pair's float64 cosine rounds to 1.0000000000000002
        vec = [0.1, 0.1, 3.0]
        retriever = make_stub_retriever({"d": vec}, {"q": vec})
        sim, rank = candidate_signals(candidate_turn(retriever))
        assert sim > 1.0
        assert turn_reward(sim, rank, 1).reward == pytest.approx(1.0)

    def test_rank_top_position(self):
        assert normalize_rank(0, 1000) == 1.0

    def test_rank_not_found(self):
        assert normalize_rank(NOT_FOUND, 1000) == 0.0

    def test_rank_formula(self):
        assert normalize_rank(49, 100) == pytest.approx(0.51)

    def test_rank_beyond_corpus(self):
        with pytest.raises(RewardError):
            normalize_rank(100, 100)


class TestTurnReward:
    def test_both_components_maximal(self):
        assert turn_reward(1.0, 0, 1000).reward == 1.0

    def test_both_components_minimal(self):
        assert turn_reward(-1.0, NOT_FOUND, 10).reward == 0.0

    def test_hand_composed_value(self):
        # 0.5 * 0.6 + 0.5 * (1 - 49/100) = 0.3 + 0.255
        breakdown = turn_reward(0.6, 49, 100)
        assert breakdown.reward == pytest.approx(0.555)
        assert breakdown.sim_norm == 0.6
        assert breakdown.rank_norm == pytest.approx(0.51)

    def test_exact_composition(self):
        rng = random.Random(2)
        for _ in range(200):
            sim = rng.uniform(-1, 1)
            size = rng.randint(1, 500)
            rank = rng.choice([NOT_FOUND, rng.randrange(size)])
            b = turn_reward(sim, rank, size)
            assert b.reward == 0.5 * b.sim_norm + 0.5 * b.rank_norm


class TestGroupAdvantages:
    def test_uniform_rewards_center_to_zero(self):
        assert group_advantages([1, 1, 1, 1]) == [0, 0, 0, 0]

    def test_hand_centered_values(self):
        adv = group_advantages([0.8, 0.6, 0.4, 0.2])
        assert adv == pytest.approx([0.3, 0.1, -0.1, -0.3])

    def test_zscore_guard_on_degenerate_variance(self):
        assert group_advantages([1, 1, 1, 1], mode="z_score") == [0, 0, 0, 0]

    def test_zscore_sample_std_is_one(self):
        adv = group_advantages([0.9, 0.4, 0.1, 0.7], mode="z_score")
        mean = sum(adv) / len(adv)
        std = math.sqrt(sum((a - mean) ** 2 for a in adv) / (len(adv) - 1))
        assert std == pytest.approx(1.0, abs=1e-9)

    def test_group_too_small(self):
        with pytest.raises(RewardError, match=">= 2"):
            group_advantages([1.0])


class TestSelectCandidate:
    def test_argmax_tie_breaks_low_index(self):
        assert select_candidate([0.2, 0.9, 0.9]) == 1

    def test_argmax_affine_invariance(self):
        rng = random.Random(4)
        for _ in range(100):
            rewards = [rng.random() for _ in range(5)]
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-2, 2)
            scaled = [a * r + b for r in rewards]
            assert select_candidate(rewards) == select_candidate(scaled)

    def test_proportional_uniform_fallback(self):
        rng = random.Random(11)
        counts = Counter(select_candidate([0, 0, 0], "proportional", rng) for _ in range(9999))
        expected = 9999 / 3
        chi2 = sum((counts[i] - expected) ** 2 / expected for i in range(3))
        assert chi2 < 13.816  # df=2 at alpha=0.001

    def test_proportional_matches_reward_ratio(self):
        rng = random.Random(17)
        hits = sum(select_candidate([1, 3], "proportional", rng) == 1 for _ in range(10000))
        assert abs(hits / 10000 - 0.75) < 0.02

    def test_empty_rewards(self):
        with pytest.raises(RewardError, match="empty"):
            select_candidate([])

    def test_proportional_rejects_negative(self):
        with pytest.raises(RewardError, match="non-negative"):
            select_candidate([0.5, -0.1], "proportional", random.Random(0))


# --- masking ---------------------------------------------------------------------


def one_turn_trace():
    turn = Turn(
        think="reasoned here",
        query="refined query",
        results=(RetrievedDoc(text="first doc"), RetrievedDoc(text="second doc")),
    )
    return SearchState(
        original_query="the question", history=(turn,), terminal_reason="budget_exhausted"
    )


class TestMaskSpans:
    def test_one_turn_trainable_span_structure(self):
        trace = one_turn_trace()
        text = serialize_trace(trace)
        spans = mask_spans(trace)
        trainable = [(text[s:e]) for s, e, flag in spans if flag]
        assert trainable == ["reasoned here", "</think>", "refined query", "</search_query>"]

    def test_empty_history_has_no_trainable_spans(self):
        trace = SearchState(original_query="q")
        assert all(not flag for _, _, flag in mask_spans(trace))

    def test_spans_partition_text(self):
        trace = one_turn_trace()
        text = serialize_trace(trace)
        spans = mask_spans(trace)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(text)
        for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
            assert e1 == s2
        assert "".join(text[s:e] for s, e, _ in spans) == text

    def test_masked_regions_cover_structure(self):
        trace = one_turn_trace()
        text = serialize_trace(trace)
        masked = "".join(text[s:e] for s, e, flag in mask_spans(trace) if not flag)
        assert "<user_query>the question</user_query>" in masked
        assert "<top_k_response>" in masked and "</top_k_response>" in masked
        assert "<think>" in masked and "<search_query>" in masked


class TestTrainingRecords:
    def test_record_shape(self):
        record = make_training_record(one_turn_trace(), (), GrpoConfig(group_size=4))
        obj = record.to_dict()
        assert obj["text"] == serialize_trace(one_turn_trace())
        assert obj["config"] == {
            "group_size": 4,
            "beta": 0.1,
            "z_score": False,
            "selection": "argmax",
        }
        assert all(len(span) == 3 for span in obj["spans"])


# --- grouped collection ------------------------------------------------------------


class TestCollectGrouped:
    def test_groups_cover_turns_and_advantages_center(self, tree_retriever, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind="breadth_first", seed=2), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=2, target_ids=frozenset({"t3b"}))
        grpo = GrpoConfig(group_size=4)
        trace, groups = collect_grouped_episode(
            policy, tree_retriever, TREE_QUERY, cfg, grpo, derive_rng(0, "t")
        )
        assert 1 <= len(groups) <= 2
        assert len(trace.history) == len(groups)
        for turn, group in zip(trace.history, groups):
            assert len(group.turns) == len(group.breakdowns) == 4
            assert sum(group.advantages) == pytest.approx(0.0, abs=1e-9)
            rewards = [b.reward for b in group.breakdowns]
            assert group.selected == max(range(4), key=lambda i: (rewards[i], -i))
            assert group.turns[group.selected] is turn

    def test_success_stops_collection(self, tree_retriever, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=2), tree_resources)
        cfg = EpisodeConfig(k=5, max_turns=5, target_ids=frozenset({"t2"}))
        trace, groups = collect_grouped_episode(
            policy, tree_retriever, TREE_QUERY, cfg, GrpoConfig(), derive_rng(1, "t")
        )
        assert trace.terminal_reason == "success"
        assert len(groups) < 5

    def test_signals_use_target_rank_when_targets_known(self):
        docs = {"d1": axis(3, 1), "d2": axis(3, 2)}
        queries = {"q": axis(3, 1)}
        retriever = make_stub_retriever(docs, queries)
        sim, rank = candidate_signals(candidate_turn(retriever, frozenset({"d2"})))
        assert sim == pytest.approx(1.0)
        assert rank == 1  # d2 is second in the full ordering

    def test_signals_fall_back_to_best_doc_rank(self):
        docs = {"d1": axis(3, 1), "d2": axis(3, 2)}
        queries = {"q": axis(3, 1)}
        retriever = make_stub_retriever(docs, queries)
        sim, rank = candidate_signals(candidate_turn(retriever))
        assert rank == 0  # best-similarity doc is rank 0 under an exact retriever
