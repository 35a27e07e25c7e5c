from __future__ import annotations

import math
import random

import pytest

from orion.archetypes import FAILURE_MARKER, KINDS, PolicyResources
from orion.corpus import Document
from orion.policy import (
    Action,
    ArchetypeConfig,
    CapabilityError,
    PolicyError,
    RemotePolicy,
    ScriptedPolicy,
    archetype_step,
    clip_query,
    derive_rng,
    perplexity_from_logprobs,
    planning_phase_prompt,
    pseudo_perplexity,
    search_query_phase_prompt,
)
from orion.trace import RetrievedDoc, SearchState, Turn
from orion.vocab import TfidfTable

from conftest import TREE_QUERY


def state_with_sims(sims, q0="original question", queries=None, texts=None):
    """A state whose per-turn best similarities are exactly `sims`."""
    turns = []
    for i, s in enumerate(sims):
        text = (texts or {}).get(i, f"result text turn {i}")
        turns.append(
            Turn(
                think=f"step {i}",
                query=(queries or {}).get(i, f"issued query {i}"),
                results=(RetrievedDoc(text=text, doc_id=f"d{i}", score=s),),
            )
        )
    return SearchState(original_query=q0, history=tuple(turns))


class TestPerplexity:
    def test_uniform_half_probability(self):
        logp = [math.log(0.5)] * 7
        assert perplexity_from_logprobs(logp) == pytest.approx(2.0, abs=1e-12)

    def test_certain_tokens(self):
        assert perplexity_from_logprobs([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_pseudo_perplexity_formula(self):
        # declared surrogate: exp(1 - s); at s=0.8 that is exp(0.2)
        assert pseudo_perplexity(0.8) == pytest.approx(math.exp(0.2), abs=1e-12)

    def test_pseudo_perplexity_clamps(self):
        assert pseudo_perplexity(2.0) == pytest.approx(1.0)
        assert pseudo_perplexity(-5.0) == pytest.approx(math.exp(2.0))

    def test_monotone_in_similarity(self):
        sims = [-1.0, -0.3, 0.0, 0.4, 0.9, 1.0]
        ppls = [pseudo_perplexity(s) for s in sims]
        assert ppls == sorted(ppls, reverse=True)

    def test_scripted_relevance_uses_turn_results(self, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind="adaptive_context"), tree_resources)
        state = state_with_sims([0.8, 0.2])
        first = SearchState(state.original_query, state.history[:1])
        assert policy.relevance_perplexity(first) == pytest.approx(math.exp(0.2))
        assert policy.relevance_perplexity(state) == pytest.approx(math.exp(0.8))


def test_derive_rng_is_pinned():
    # a changed seed derivation would change every GRPO selection and random walk
    assert derive_rng(0, "grpo-select", "q1").random() == 0.8120563804613088


class TestArchetypeConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown archetype"):
            ArchetypeConfig(kind="clever_search")

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown params"):
            ArchetypeConfig(kind="adaptive_context", params={"beam": 1})

    def test_defaults_merged(self):
        cfg = ArchetypeConfig(kind="greedy_hill", params={"candidates": 5})
        assert cfg.params["candidates"] == 5

    @pytest.mark.parametrize(
        "kind, params",
        [("breadth_first", {"fanout": 1}), ("early_success", {"good_sim": 1}),
         ("best_first", {"pool_size": 0, "try_threshold": -0.5})],
    )
    def test_a_knob_takes_its_defaults_type(self, kind, params):
        # an int is a float knob's value as given: params are hashed as given
        assert ArchetypeConfig(kind=kind, params=params).params.items() >= params.items()

    @pytest.mark.parametrize(
        "params, message",
        [({"candidates": 2.0}, "must be an int >= 1, got 2.0"),
         ({"candidates": False}, "must be an int >= 1, got False"),
         ({"candidates": -1}, "must be an int >= 1, got -1")],
    )
    def test_a_knob_of_another_type_is_refused(self, params, message):
        with pytest.raises(ValueError, match=message):
            ArchetypeConfig(kind="greedy_hill", params=params)

    @pytest.mark.parametrize(
        "kind, knob, floor",
        [("adaptive_context", "adopt_terms", 1), ("random_walk", "neighbor_pool", 1),
         ("breadth_first", "fanout", 1), ("wrong_direction", "drift_rank", 1),
         ("greedy_hill", "candidates", 1), ("best_first", "pool_size", 0)],
    )
    def test_a_count_knob_below_its_floor_is_refused(self, kind, knob, floor):
        # at 0, adopt_terms adopted the whole ranking and the other counts
        # left every later turn a fallback; a pool of q0 alone is a pool
        assert ArchetypeConfig(kind=kind, params={knob: floor}).params[knob] == floor
        with pytest.raises(ValueError, match=f"{kind} param '{knob}' must be an int >= {floor}, "
                                             f"got {floor - 1}"):
            ArchetypeConfig(kind=kind, params={knob: floor - 1})


class TestPropose:
    def test_depth_first_turn_one_hand_simulated(self, tree_resources):
        # documented rule: head phrase of q0 plus its first corpus expansion;
        # head("machine learning for beginners") = "machine learning",
        # first expansion in the tree corpus = "neural"
        policy = ScriptedPolicy(ArchetypeConfig(kind="depth_first", seed=3), tree_resources)
        actions = policy.propose(SearchState(original_query=TREE_QUERY), 1)
        assert actions[0].query == "machine learning neural"

    @pytest.mark.parametrize("kind", KINDS)
    def test_determinism_across_calls(self, kind, tree_resources):
        policy = ScriptedPolicy(ArchetypeConfig(kind=kind, seed=11), tree_resources)
        state = SearchState(original_query=TREE_QUERY)
        first = policy.propose(state, 3)
        second = policy.propose(state, 3)
        assert first == second

    def test_query_length_bound(self, tree_resources):
        policy = ScriptedPolicy(
            ArchetypeConfig(kind="adaptive_context", seed=1), tree_resources, max_query_chars=18
        )
        state = state_with_sims([0.4], queries={0: "machine learning"}, texts={0: "machine learning neural transformers"})
        for action in policy.propose(state, 2):
            assert len(action.query) <= 18

    def test_clip_query_prefers_word_boundary(self):
        assert clip_query("alpha beta gamma", 12) == "alpha beta"
        assert clip_query("short", 10) == "short"

    def test_action_requires_query(self):
        with pytest.raises(ValueError, match="non-empty"):
            Action(think="t", query="   ")


# A q0 that a format or %-interpolation of an already-rendered think would garble.
ODD_QUERY = "machine learning {for} 'beginners' {q0} at 100%s"

# The opening thinks, kept byte for byte from before the openings became a column
# of `BEHAVIORS`; the seven kinds that open with q0 issue it as is.
OPENS_WITH_Q0 = {
    "adaptive_context": {
        TREE_QUERY: "Probe the corpus with the user's own wording for 'machine learning for "
        "beginners' and learn keywords from whatever comes back.",
        ODD_QUERY: "Probe the corpus with the user's own wording for 'machine learning {for} "
        "'beginners' {q0} at 100%s' and learn keywords from whatever comes back.",
    },
    "random_walk": "No firm plan; start from the given query and wander from there.",
    "breadth_first": "Map the territory first: issue the original query, then cover each "
    "sibling subtopic before drilling into any of them.",
    "wrong_direction": "Follow whatever looks interesting and stay alert for signs the search "
    "is going wrong.",
    "early_success": "Try the original query first; if the results already look successful "
    "there is no reason to change course, only to refine lightly.",
    "exploitation_heavy": "Find one query that works and keep optimizing it rather than "
    "exploring alternatives.",
    "multi_beam": "Running parallel lanes over this topic; lane one starts from the original "
    "query.",
}

# The other three kinds' own first moves, variants 0-2, on the tree corpus.
OWN_OPENINGS = {
    ("depth_first", TREE_QUERY): [
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'neural'.", "machine learning neural"),
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'transformers'.", "machine learning transformers"),
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'attention'.", "machine learning attention"),
    ],
    ("greedy_hill", TREE_QUERY): [
        ("Tested 3 candidate refinements of 'machine learning for beginners'; 'neural' "
         "retrieved best (similarity 0.671), so climbing that way.",
         "machine learning for beginners neural"),
        ("Tested 3 candidate refinements of 'machine learning for beginners'; 'transformers' "
         "retrieved best (similarity 0.600), so climbing that way.",
         "machine learning for beginners transformers"),
        ("Tested 3 candidate refinements of 'machine learning for beginners'; 'attention' "
         "retrieved best (similarity 0.548), so climbing that way.",
         "machine learning for beginners attention"),
    ],
    ("best_first", TREE_QUERY): [
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning for beginners"),
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning for beginners neural"),
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning for beginners transformers"),
    ],
    ("depth_first", ODD_QUERY): [
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'neural'.", "machine learning neural"),
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'transformers'.", "machine learning transformers"),
        ("Commit to one line of attack: start from 'machine learning' and keep specializing, "
         "first with 'attention'.", "machine learning attention"),
    ],
    ("greedy_hill", ODD_QUERY): [
        ("Tested 3 candidate refinements of 'machine learning {for} 'beginners' {q0} at "
         "100%s'; 'neural' retrieved best (similarity 0.500), so climbing that way.",
         "machine learning {for} 'beginners' {q0} at 100%s neural"),
        ("Tested 3 candidate refinements of 'machine learning {for} 'beginners' {q0} at "
         "100%s'; 'transformers' retrieved best (similarity 0.447), so climbing that way.",
         "machine learning {for} 'beginners' {q0} at 100%s transformers"),
        ("Tested 3 candidate refinements of 'machine learning {for} 'beginners' {q0} at "
         "100%s'; 'attention' retrieved best (similarity 0.408), so climbing that way.",
         "machine learning {for} 'beginners' {q0} at 100%s attention"),
    ],
    ("best_first", ODD_QUERY): [
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning {for} 'beginners' {q0} at 100%s"),
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning {for} 'beginners' {q0} at 100%s neural"),
        ("Holding 4 candidate directions; starting with the most direct one and ranking the "
         "rest as evidence arrives.", "machine learning {for} 'beginners' {q0} at 100%s transformers"),
    ],
}


def test_the_pins_cover_every_kind():
    assert set(OPENS_WITH_Q0) | {kind for kind, _ in OWN_OPENINGS} == set(KINDS)


@pytest.mark.parametrize("q0", [TREE_QUERY, ODD_QUERY], ids=["tree", "odd"])
@pytest.mark.parametrize("kind", KINDS)
def test_turn_one_actions_are_pinned(tree_resources, kind, q0):
    policy = ScriptedPolicy(ArchetypeConfig(kind=kind, seed=7), tree_resources)
    actions = [(a.think, a.query) for a in policy.propose(SearchState(original_query=q0), 3)]
    if kind in OPENS_WITH_Q0:
        think = OPENS_WITH_Q0[kind]
        want = [(think[q0] if isinstance(think, dict) else think, q0)] * 3
    else:
        want = OWN_OPENINGS[kind, q0]
    assert actions == want


@pytest.mark.parametrize("kind", OPENS_WITH_Q0)
def test_an_opening_query_is_clipped(tree_resources, kind):
    policy = ScriptedPolicy(ArchetypeConfig(kind=kind), tree_resources, max_query_chars=18)
    [action] = policy.propose(SearchState(original_query=TREE_QUERY), 1)
    assert action.query == clip_query(TREE_QUERY, 18) == "machine learning"


class TestArchetypeSteps:
    def test_adaptive_context_adopts_dominant_term(self):
        docs = [
            Document("d1", "climate change carbon emissions"),
            Document("d2", "climate policy debate"),
            Document("d3", "ocean temperature rise"),
        ]
        res = PolicyResources(vocab=TfidfTable.from_documents(docs))
        state = state_with_sims(
            [0.4],
            q0="climate change",
            queries={0: "climate change"},
            texts={0: "carbon carbon emissions carbon climate"},
        )
        cfg = ArchetypeConfig(kind="adaptive_context")
        action = archetype_step(cfg, state, res, random.Random(0))
        assert "carbon" in action.query
        assert action.query.startswith("climate change")

    def test_greedy_hill_picks_argmax_edit(self):
        docs = [
            Document("d1", "base query alpha"),
            Document("d2", "base query beta"),
            Document("d3", "base query gamma"),
        ]
        res = PolicyResources(
            vocab=TfidfTable.from_documents(docs),
            probe={
                "base query alpha": 0.2,
                "base query beta": 0.5,
                "base query gamma": 0.4,
            }.__getitem__,
        )
        cfg = ArchetypeConfig(kind="greedy_hill")
        action = archetype_step(cfg, SearchState(original_query="base query"), res, random.Random(0))
        assert action.query == "base query beta"

    def test_wrong_direction_diagnoses_similarity_drop(self, tree_resources):
        state = state_with_sims([0.8, 0.3], queries={0: "good query", 1: "bad tangent"})
        cfg = ArchetypeConfig(kind="wrong_direction")
        action = archetype_step(cfg, state, tree_resources, random.Random(0))
        assert FAILURE_MARKER in action.think
        assert "bad tangent" in action.think

    def test_early_success_turn_one_mentions_success(self, tree_resources):
        cfg = ArchetypeConfig(kind="early_success")
        action = archetype_step(
            cfg, SearchState(original_query="anything"), tree_resources, random.Random(0)
        )
        assert "success" in action.think.lower()
        assert action.query == "anything"

    def test_depth_first_backtracks_on_drop(self, tree_resources):
        # the drop removes the last specialization and takes a sibling branch
        state = state_with_sims(
            [0.9, 0.2],
            q0=TREE_QUERY,
            queries={0: "machine learning neural", 1: "machine learning neural alpha"},
        )
        cfg = ArchetypeConfig(kind="depth_first")
        action = archetype_step(cfg, state, tree_resources, random.Random(0))
        assert action.query.startswith("machine learning neural ")
        assert not action.query.endswith("alpha")
        assert "backing up" in action.think

    def test_variants_shift_choices(self, tree_resources):
        cfg = ArchetypeConfig(kind="depth_first")
        state = SearchState(original_query=TREE_QUERY)
        a0 = archetype_step(cfg, state, tree_resources, random.Random(0), variant=0)
        a1 = archetype_step(cfg, state, tree_resources, random.Random(0), variant=1)
        assert a0.query != a1.query

    # Terms absent from the tree corpus share one idf, so a result text's
    # top_terms rank by count: kiwi (3), mango (2), papaya (1).
    FRUIT = "kiwi kiwi kiwi mango mango papaya"

    @pytest.mark.parametrize("variant, term", [(0, "kiwi"), (1, "mango")])
    def test_early_success_refines_the_last_query_while_scores_rise(
        self, tree_resources, variant, term
    ):
        state = state_with_sims([0.3, 0.6], queries={1: "second try"}, texts={1: self.FRUIT})
        action = archetype_step(
            ArchetypeConfig(kind="early_success"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"second try {term}"
        assert "already successful" in action.think

    @pytest.mark.parametrize("variant, term", [(0, "kiwi"), (1, "mango")])
    def test_early_success_returns_to_the_best_query_after_a_detour(
        self, tree_resources, variant, term
    ):
        state = state_with_sims(
            [0.3, 0.7, 0.5],
            queries={1: "best try", 2: "detour try"},
            texts={1: self.FRUIT, 2: "papaya papaya papaya papaya"},
        )
        action = archetype_step(
            ArchetypeConfig(kind="early_success"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"best try {term}"
        assert "detour underperformed" in action.think

    @pytest.mark.parametrize("variant, term", [(0, "kiwi"), (1, "mango")])
    def test_exploitation_heavy_refines_the_best_turn_from_its_top_result(
        self, tree_resources, variant, term
    ):
        state = state_with_sims([0.5, 0.9, 0.4], queries={1: "best try"}, texts={1: self.FRUIT})
        action = archetype_step(
            ArchetypeConfig(kind="exploitation_heavy"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"best try {term}"

    @pytest.mark.parametrize("variant, term", [(0, "transformers"), (1, "attention")])
    def test_exploitation_heavy_falls_back_to_an_expansion(self, tree_resources, variant, term):
        # the top result has no unused keyword; "machine learning neural" expands
        # to transformers (3 docs), attention (2), then the single-doc terms
        state = state_with_sims(
            [0.9, 0.4],
            queries={0: "machine learning neural"},
            texts={0: "machine learning neural"},
        )
        action = archetype_step(
            ArchetypeConfig(kind="exploitation_heavy"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"machine learning neural {term}"

    @pytest.mark.parametrize("variant, term", [(0, "neural"), (1, "transformers")])
    def test_best_first_promotes_an_unissued_hypothesis(self, tree_resources, variant, term):
        # pool: q0 plus its top three expansions, neural, transformers, attention
        state = state_with_sims([0.2], q0=TREE_QUERY, queries={0: TREE_QUERY})
        action = archetype_step(
            ArchetypeConfig(kind="best_first"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"{TREE_QUERY} {term}"
        assert "promoting the next one" in action.think

    @pytest.mark.parametrize("variant, term", [(0, "kiwi"), (1, "mango")])
    @pytest.mark.parametrize(
        "sims, queries",
        [
            # above try_threshold: the best turn is refined
            ([0.2, 0.6, 0.5], {0: TREE_QUERY, 1: "best hypothesis"}),
            # below it, but every hypothesis is issued
            (
                [0.3, 0.35, 0.2, 0.1],
                {0: TREE_QUERY, 1: f"{TREE_QUERY} neural",
                 2: f"{TREE_QUERY} transformers", 3: f"{TREE_QUERY} attention"},
            ),
        ],
    )
    def test_best_first_otherwise_refines_the_best_turn(
        self, tree_resources, sims, queries, variant, term
    ):
        state = state_with_sims(sims, q0=TREE_QUERY, queries=queries, texts={1: self.FRUIT})
        action = archetype_step(
            ArchetypeConfig(kind="best_first"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"{queries[1]} {term}"
        assert "leads the pool" in action.think

    @pytest.mark.parametrize("variant, term", [(0, "kiwi"), (1, "mango")])
    def test_wrong_direction_anchors_on_the_earliest_best_turn(
        self, tree_resources, variant, term
    ):
        state = state_with_sims(
            [0.6, 0.6, 0.3], texts={0: self.FRUIT, 1: "papaya papaya papaya papaya"}
        )
        action = archetype_step(
            ArchetypeConfig(kind="wrong_direction"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"original question {term}"
        assert FAILURE_MARKER in action.think

    @pytest.mark.parametrize(
        "variant, expected",
        [
            (0, ["", " neural", " transformers", " kiwi"]),
            (1, ["", " transformers", " attention", " mango"]),
        ],
    )
    def test_multi_beam_advances_three_lanes(self, tree_resources, variant, expected):
        # lane 0 folds a result keyword into q0; lanes 1 and 2 take q0's first
        # and second expansion (neural, transformers, attention), shifted by variant
        cfg = ArchetypeConfig(kind="multi_beam")
        for turns, suffix in enumerate(expected):
            state = state_with_sims([0.5] * turns, q0=TREE_QUERY, texts={2: self.FRUIT})
            action = archetype_step(cfg, state, tree_resources, random.Random(0), variant)
            assert action.query == TREE_QUERY + suffix

    @pytest.mark.parametrize("variant, term", [(0, "extra"), (1, "guide")])
    def test_breadth_first_deepens_the_best_sibling(self, tree_resources, variant, term):
        # siblings of "machine learning": neural, transformers, attention. Turn 1
        # (q0 itself) is not a sibling, so its higher score does not count.
        # "machine learning transformers" matches t2, t3a, t3b; attention is
        # used, and the single-doc terms tie, so they come alphabetically.
        state = state_with_sims(
            [0.9, 0.4, 0.8, 0.3],
            q0="machine learning",
            queries={
                0: "machine learning",
                1: "machine learning neural",
                2: "machine learning transformers",
                3: "machine learning attention",
            },
        )
        action = archetype_step(
            ArchetypeConfig(kind="breadth_first"), state, tree_resources, random.Random(0), variant
        )
        assert action.query == f"machine learning transformers {term}"
        assert "All branches visited" in action.think

    def test_greedy_hill_requires_probe(self, tree_vocab):
        res = PolicyResources(vocab=tree_vocab, probe=None)
        with pytest.raises(ValueError, match="probe"):
            ScriptedPolicy(ArchetypeConfig(kind="greedy_hill"), res)

    def test_degenerate_state_falls_back_to_q0(self, tree_vocab):
        # a query with no content tokens leaves random_walk nothing to swap
        res = PolicyResources(vocab=tree_vocab)
        state = state_with_sims([0.1], q0="zz qq", queries={0: "of the"})
        action = archetype_step(
            ArchetypeConfig(kind="random_walk"), state, res, random.Random(0)
        )
        assert action.query == "zz qq"
        assert "dead end" in action.think.lower()


class TestBaselinePrompts:
    def test_planning_prompt_shape(self):
        state = state_with_sims([0.5], queries={0: "first query"})
        prompt = planning_phase_prompt(state, k=5)
        assert prompt.startswith(
            'This is an information retrieval task. Your goal is to find documents '
            'that are relevant to this target query: "original question"'
        )
        assert "Turn 1 Analysis: step 0" in prompt
        assert "Turn 1 Search Query: first query" in prompt
        assert "Top-5 results:" in prompt
        assert prompt.endswith("based on the user query.")

    def test_each_turn_numbers_its_results_from_one(self):
        turn = Turn(think="th", query="qq", results=(RetrievedDoc("alpha"), RetrievedDoc("beta")))
        prompt = planning_phase_prompt(SearchState("Q", (turn, turn)), k=3)
        for i in (1, 2):
            block = f"Turn {i} Analysis: th\nTurn {i} Search Query: qq\nTop-3 results:\n1. alpha\n2. beta\n\n"
            assert block in prompt

    def test_query_prompt_mentions_current_analysis(self):
        state = state_with_sims([0.5])
        prompt = search_query_phase_prompt(state, "fresh analysis", k=5)
        assert "Turn 2 Analysis: fresh analysis" in prompt
        assert prompt.endswith("just plain text for semantic similarity search.")


class FakeTransport:
    """Scripted chat endpoint: pops canned responses per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.payloads = []

    def __call__(self, payload):
        self.payloads.append(payload)
        if not self.responses:
            raise AssertionError("no canned responses left")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def chat_response(text, logprobs=None):
    choice = {"message": {"content": text}}
    if logprobs is not None:
        choice["logprobs"] = {"content": [{"logprob": lp} for lp in logprobs]}
    return {"choices": [choice]}


class TestRemotePolicy:
    def test_two_stage_elicitation(self):
        transport = FakeTransport(
            [chat_response("I should narrow this down.</think>"), chat_response("narrow query</search_query>")]
        )
        policy = RemotePolicy("http://e", "m", post=transport, api_key="k")
        actions = policy.propose(SearchState(original_query="broad topic"), 1)
        assert actions == [Action(think="I should narrow this down.", query="narrow query")]
        for payload in transport.payloads:
            assert set(payload) == {"model", "messages", "temperature", "max_tokens"}
            assert (payload["model"], payload["temperature"], payload["max_tokens"]) == ("m", 0.7, 512)
            assert [m["role"] for m in payload["messages"]] == ["user"]
        assert "<think>" in transport.payloads[0]["messages"][0]["content"]
        assert transport.payloads[1]["messages"][0]["content"].endswith("<search_query>")

    def test_malformed_output_retries_then_fails(self):
        transport = FakeTransport(
            [
                chat_response("thinking"), chat_response(""),  # first attempt: empty query
                chat_response("thinking"), chat_response("   "),  # retry: still empty
            ]
        )
        policy = RemotePolicy("http://e", "m", post=transport, api_key="k")
        with pytest.raises(PolicyError, match="no parseable query"):
            policy.propose(SearchState(original_query="q"), 1)

    def test_transport_failure_propagates_as_policy_error(self):
        transport = FakeTransport([PolicyError("remote transport failure: boom")])
        policy = RemotePolicy("http://e", "m", post=transport, api_key="k")
        with pytest.raises(PolicyError, match="transport"):
            policy.propose(SearchState(original_query="q"), 1)

    def test_relevance_perplexity_from_logprobs(self):
        lp = [math.log(0.5)] * 4
        transport = FakeTransport([chat_response("relevant.", logprobs=lp)])
        policy = RemotePolicy("http://e", "m", post=transport, api_key="k")
        state = state_with_sims([0.5, 0.4], q0="q0", queries={1: "q2"})
        assert policy.relevance_perplexity(state) == pytest.approx(2.0)
        payload = transport.payloads[0]
        assert payload["logprobs"] is True
        prompt = payload["messages"][-1]["content"]
        assert prompt.endswith(
            "\n\nGiven turn 2 and search query q2, the retrieved documents are "
            "relevant to the user query q0."
        )

    def test_missing_logprobs_is_capability_error(self):
        transport = FakeTransport([chat_response("relevant.")])
        policy = RemotePolicy("http://e", "m", post=transport, api_key="k")
        state = state_with_sims([0.5])
        with pytest.raises(CapabilityError, match="log-probabilities"):
            policy.relevance_perplexity(state)

    def test_baseline_mode_uses_two_phase_prompts(self):
        transport = FakeTransport(
            [chat_response("Two sentences of analysis."), chat_response("plain text query")]
        )
        policy = RemotePolicy("http://e", "m", mode="baseline", post=transport, api_key="k")
        actions = policy.propose(SearchState(original_query="target info"), 1)
        assert actions[0].query == "plain text query"
        first = transport.payloads[0]["messages"][-1]["content"]
        assert first.startswith("This is an information retrieval task.")


def test_default_transport_sends_bearer_and_types_failures(monkeypatch):
    import requests

    from orion.embed import EmbeddingServiceClient, EmbeddingServiceError

    bodies = {
        "http://embed": {"data": [{"embedding": [0.6, 0.8]}]},
        "http://chat": chat_response("relevant.", logprobs=[math.log(0.5)]),
    }
    sent = []

    class Reply:
        def __init__(self, url):
            self.url = url

        def raise_for_status(self):
            pass

        def json(self):
            return bodies[self.url]

    def accept(url, json, headers, timeout):
        sent.append((url, headers["Authorization"], timeout))
        return Reply(url)

    def refuse(url, json, headers, timeout):
        raise requests.ConnectionError("connection refused")

    embedder = EmbeddingServiceClient("http://embed", "m", api_key="ek", timeout=5.0)
    policy = RemotePolicy("http://chat", "m", api_key="pk", timeout=7.0)
    monkeypatch.setattr(requests, "post", accept)
    assert list(embedder("text")) == [0.6, 0.8]
    assert policy.relevance_perplexity(state_with_sims([0.5])) == pytest.approx(2.0)
    assert sent == [("http://embed", "Bearer ek", 5.0), ("http://chat", "Bearer pk", 7.0)]

    monkeypatch.setattr(requests, "post", refuse)
    with pytest.raises(EmbeddingServiceError, match="connection refused"):
        embedder("text")
    with pytest.raises(PolicyError, match="connection refused"):
        policy.propose(SearchState(original_query="q"), 1)
