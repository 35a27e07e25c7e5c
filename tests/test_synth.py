from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from orion.archetypes import FAILURE_MARKER, PolicyResources, derive_rng
from orion.corpus import Document, build_index
from orion.embed import HashEmbedder
from orion.engine import Retriever
from orion.policy import ArchetypeConfig
from orion.synth import (
    PoolError,
    PoolRecord,
    assemble_pool,
    generate_trajectory,
    sample_sft_dataset,
)
from orion.trace import RetrievedDoc, SearchState, Turn, serialize_trace
from orion.vocab import TfidfTable

from conftest import TREE_DOCS, cosine_similarity, tree_retriever  # noqa: F401  (fixture re-export)
from trace_parser import parse_trace


def make_record(q0="question", source="model-a", first_query="q1", n_turns=1, cos=0.5):
    turns = tuple(
        Turn(
            think=f"think {i}",
            query=first_query if i == 0 else f"q{i + 1}",
            results=(RetrievedDoc(text="text of d1", doc_id="d1", score=0.7),),
            sim_to_target=cos,
            target_rank=2,
        )
        for i in range(n_turns)
    )
    state = SearchState(original_query=q0, history=turns, terminal_reason="budget_exhausted")
    return PoolRecord(source, state)


@pytest.fixture(scope="module")
def drift_world():
    """Corpus where the wandering behavior's drift provably drops similarity."""
    docs = [
        Document("s1", "solar energy panels"),
        Document("s2", "solar energy storage"),
        Document("s3", "solar energy grid"),
        Document("s4", "solar energy community program subsidy review"),
        Document("s5", "wind turbines offshore"),
    ]
    embedder = HashEmbedder(dim=1024)
    index = build_index(docs, {d.doc_id: embedder(d.text) for d in docs})
    retriever = Retriever(index, embedder)
    resources = PolicyResources(
        vocab=TfidfTable.from_documents(docs), probe=retriever.best_similarity
    )
    return retriever, resources


class TestGenerateTrajectory:
    def test_early_success_one_turn_record_notes_success(self, tree_retriever, tree_resources):
        arch = ArchetypeConfig(kind="early_success", seed=4)
        record = generate_trajectory(
            arch, "machine learning neural alpha", tree_retriever, tree_resources, {"f1"}
        )
        turns = record.to_dict()["turns"]
        assert record.terminal_reason == "success"
        assert len(turns) == 1
        assert "success" in turns[0]["think"].lower()
        assert turns[0]["rank"] == 0

    def test_wrong_direction_diagnoses_after_drop(self, drift_world):
        retriever, resources = drift_world
        arch = ArchetypeConfig(kind="wrong_direction", seed=0)
        record = generate_trajectory(
            arch, "solar energy", retriever, resources, {"s5"}, k=1, max_turns=3
        )
        turns = record.to_dict()["turns"]
        assert len(turns) == 3
        assert FAILURE_MARKER in turns[2]["think"]

    def test_fixed_seed_repeats_identically(self, tree_retriever, tree_resources):
        arch = ArchetypeConfig(kind="random_walk", seed=123)
        first = generate_trajectory(arch, "machine learning", tree_retriever, tree_resources, {"t2"})
        second = generate_trajectory(arch, "machine learning", tree_retriever, tree_resources, {"t2"})
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_metrics_agree_with_recomputation(self, tree_retriever, tree_resources):
        arch = ArchetypeConfig(kind="adaptive_context", seed=9)
        record = generate_trajectory(arch, "machine learning", tree_retriever, tree_resources, {"t2"})
        turns = record.to_dict()["turns"]
        assert turns
        # independent oracle: pairwise cosines of fresh embeddings; the rank may
        # fall anywhere among the docs scoring within 1e-9 of the target
        embed = HashEmbedder(dim=2048)
        for turn in turns:
            q = embed(turn["query"])
            cos = {d.doc_id: cosine_similarity(q, embed(d.text)) for d in TREE_DOCS}
            assert turn["cos"] == pytest.approx(cos["t2"], abs=1e-9)
            above = sum(c > cos["t2"] + 1e-9 for c in cos.values())
            level = sum(c >= cos["t2"] - 1e-9 for c in cos.values())
            assert above <= turn["rank"] < level

    def test_record_round_trips_through_trace_protocol(self, tree_retriever, tree_resources):
        arch = ArchetypeConfig(kind="breadth_first", seed=1)
        record = generate_trajectory(arch, "machine learning", tree_retriever, tree_resources, {"t3a"})
        parsed = parse_trace(serialize_trace(record.trace))
        pool_turns = record.to_dict()["turns"]
        assert parsed.original_query == record.q0
        assert len(parsed.history) == len(pool_turns)
        for parsed_turn, pool_turn in zip(parsed.history, pool_turns):
            assert parsed_turn.think == pool_turn["think"]
            assert parsed_turn.query == pool_turn["query"]
            assert [d.text for d in parsed_turn.results] == pool_turn["result_texts"]

    def test_a_query_equal_to_its_target_gets_a_record(self, tree_retriever, tree_resources):
        # t2 scores 1.0000000000000002 against its own text: a rounding past 1
        # that the trace keeps and the pool schema clamps
        arch = ArchetypeConfig(kind="adaptive_context", seed=0)
        text = next(d.text for d in TREE_DOCS if d.doc_id == "t2")
        record = generate_trajectory(arch, text, tree_retriever, tree_resources, {"t2"})
        assert record.trace.history[0].sim_to_target > 1.0
        assert record.terminal_reason == "success"
        assert record.to_dict()["turns"][0]["cos"] == 1.0


class TestPoolSchema:
    def test_to_dict_projects_the_trace(self):
        docs = (RetrievedDoc("text of d1", "d1", 0.7), RetrievedDoc("parsed back", None, None))
        turn = Turn("think", "query", docs, sim_to_target=-0.25, target_rank=-1)
        trace = SearchState("question", (turn,), terminal_reason="budget_exhausted")
        assert PoolRecord("model-a", trace).to_dict() == {
            "q0": "question",
            "source": "model-a",
            "terminal_reason": "budget_exhausted",
            "turns": [{
                "think": "think",
                "query": "query",
                "result_ids": ["d1", ""],
                "result_texts": ["text of d1", "parsed back"],
                "cos": -0.25,
                "rank": -1,
            }],
        }

    def test_cosine_rounded_past_the_range_is_clamped(self):
        assert make_record(cos=1.0 + 2**-52).to_dict()["turns"][0]["cos"] == 1.0
        assert make_record(cos=-1.0 - 2**-52).to_dict()["turns"][0]["cos"] == -1.0

    def test_record_without_turns(self):
        record = PoolRecord("model-a", SearchState("question"))
        assert record.dedup_key() == ("question", "model-a", "")
        assert record.to_dict()["turns"] == []


class TestAssemblePool:
    def test_dedup_identical_records(self):
        record = make_record()
        pool = assemble_pool([record, record])
        assert len(pool) == 1

    def test_eight_sources_one_query(self):
        records = [make_record(source=f"model-{i}") for i in range(8)]
        pool = assemble_pool(records)
        assert len(pool) == 8
        assert [r.q0 for r in pool.records] == ["question"] * 8

    def test_empty_input(self):
        assert len(assemble_pool([])) == 0

    def test_distinct_first_queries_kept(self):
        a = make_record(first_query="one way")
        b = make_record(first_query="другой way")
        assert len(assemble_pool([a, b])) == 2


def sft_pool(sources, per_source):
    """`per_source` records of each source; a record's first query names its source."""
    return [
        make_record(q0=f"query {i}", source=source, first_query=f"{source} q{i}")
        for source in sources
        for i in range(per_source)
    ]


def counts_by_source(records, sources):
    return Counter(next(s for s in sources if f"{s} q" in r.text) for r in records)


class TestApportion:
    """How `sample_sft_dataset` splits its total over its sources."""

    def test_exact_quarters(self):
        sources = [f"s{i}" for i in range(4)]
        records = sample_sft_dataset(sft_pool(sources, 30), sources, 100)
        assert counts_by_source(records, sources) == dict.fromkeys(sources, 25)

    def test_ten_sources_ten_percent(self):
        sources = [f"arch{i}" for i in range(10)]
        records = sample_sft_dataset(sft_pool(sources, 12), sources, 100)
        assert counts_by_source(records, sources) == dict.fromkeys(sources, 10)

    def test_largest_remainder_with_tie_break(self):
        # 7 over 3 sources: 2 each, and the seed alone picks who gets the 3rd
        sources = ["a", "b", "c"]
        pool = sft_pool(sources, 5)
        winners = set()
        for seed in range(12):
            counts = counts_by_source(sample_sft_dataset(pool, sources, 7, seed=seed), sources)
            assert sorted(counts.values()) == [2, 2, 3]
            # the first draw of the seeded rng, one per sorted source, orders them
            rng = derive_rng(seed, "sft-sample")
            jitter = {s: rng.random() for s in sources}
            assert counts[min(sources, key=jitter.__getitem__)] == 3
            shuffled = sample_sft_dataset(pool[::-1], ["c", "a", "b"], 7, seed=seed)
            assert counts_by_source(shuffled, sources) == counts
            winners |= {s for s, c in counts.items() if c == 3}
        assert winners == set(sources)

    def test_matches_enumeration_oracle(self):
        # every valid even split, enumerated independently: each source gets
        # the floor, and some `total % n` of them get one more
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 5)
            sources = [f"s{i}" for i in range(n)]
            total = rng.randint(1, 40)
            floor, leftover = divmod(total, n)
            valid = [
                {s: floor + (s in extra) for s in sources}
                for extra in itertools.combinations(sources, leftover)
            ]
            pool = sft_pool(sources, floor + 1)
            records = sample_sft_dataset(pool, sources, total, seed=rng.randint(0, 999))
            counts = counts_by_source(records, sources)
            assert len(records) == total
            assert {s: counts[s] for s in sources} in valid


class TestSampleSftDataset:
    def test_exact_quotas_over_four_sources(self):
        sources = [f"set{i}" for i in range(4)]
        records = sample_sft_dataset(sft_pool(sources, 30), sources, 100, seed=7)
        assert len(records) == 100
        assert len({r.text for r in records}) == 100

    def test_insufficient_pool(self):
        with pytest.raises(PoolError, match=r"insufficient pool for source 'only': need 10, have 3"):
            sample_sft_dataset(sft_pool(["only"], 3), ["only"], 10, seed=0)

    def test_a_source_without_records_is_short_only_when_it_gets_a_record(self):
        pool = sft_pool(["a"], 3)
        outcomes = set()
        for seed in range(12):
            try:
                records = sample_sft_dataset(pool, ["a", "b"], 1, seed=seed)
            except PoolError as exc:
                assert "insufficient pool for source 'b': need 1, have 0" in str(exc)
                outcomes.add("b")
            else:
                assert counts_by_source(records, ["a"]) == {"a": 1}
                outcomes.add("a")
        assert outcomes == {"a", "b"}

    def test_records_of_other_sources_are_ignored(self):
        mine = sft_pool(["a", "b"], 4)
        others = sft_pool(["c", "zz"], 4)
        want = [r.text for r in sample_sft_dataset(mine, ["a", "b"], 5, seed=2)]
        assert [r.text for r in sample_sft_dataset(others + mine, ["a", "b"], 5, seed=2)] == want

    @pytest.mark.parametrize(
        "sources, total, message",
        [(["a"], 0, "total must be >= 1, got 0"), (["a"], -3, "total must be >= 1, got -3"),
         ([], 4, "at least one source"), (["a", "b", "a"], 4, "sources repeat")],
        ids=["zero", "negative", "no-sources", "repeated"],
    )
    def test_an_unsatisfiable_request_is_refused(self, sources, total, message):
        with pytest.raises(PoolError, match=message):
            sample_sft_dataset(sft_pool(["a", "b"], 5), sources, total)

    def test_records_carry_masked_spans(self):
        for record in sample_sft_dataset(sft_pool(["src"], 4), ["src"], 2, seed=1):
            assert record.spans[0][0] == 0
            assert record.spans[-1][1] == len(record.text)
            assert any(flag for _, _, flag in record.spans)

    def test_deterministic_for_seed(self):
        pool = sft_pool(["a", "b"], 5)
        first = [r.text for r in sample_sft_dataset(pool, ["a", "b"], 6, seed=3)]
        second = [r.text for r in sample_sft_dataset(pool, ["a", "b"], 6, seed=3)]
        assert first == second


class TestManifestValidation:
    def test_pool_record_turn_cap(self):
        with pytest.raises(PoolError, match="at most 5"):
            make_record(n_turns=6)

    def test_cos_range_checked(self):
        with pytest.raises(PoolError, match="cosine"):
            make_record(cos=1.5)
        with pytest.raises(PoolError, match="cosine"):
            make_record(cos=float("nan"))
