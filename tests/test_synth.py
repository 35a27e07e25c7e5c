from __future__ import annotations

import itertools
import random

import pytest

from orion.archetypes import FAILURE_MARKER, PolicyResources
from orion.corpus import Document, build_index
from orion.embed import HashEmbedder
from orion.engine import Retriever
from orion.policy import ArchetypeConfig
from orion.synth import (
    DatasetManifest,
    PoolError,
    PoolRecord,
    apportion,
    assemble_pool,
    generate_trajectory,
    sample_sft_dataset,
)
from orion.trace import RetrievedDoc, SearchState, TraceDocument, Turn, serialize_trace
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
    state = SearchState(original_query=q0, history=turns)
    return PoolRecord(source, TraceDocument(state=state, terminal_reason="budget_exhausted"))


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
        assert parsed.state.original_query == record.q0
        assert len(parsed.state.history) == len(pool_turns)
        for parsed_turn, pool_turn in zip(parsed.state.history, pool_turns):
            assert parsed_turn.think == pool_turn["think"]
            assert parsed_turn.query == pool_turn["query"]
            assert [d.text for d in parsed_turn.results] == pool_turn["result_texts"]

    def test_a_query_equal_to_its_target_gets_a_record(self, tree_retriever, tree_resources):
        # t2 scores 1.0000000000000002 against its own text: a rounding past 1
        # that the trace keeps and the pool schema clamps
        arch = ArchetypeConfig(kind="adaptive_context", seed=0)
        text = next(d.text for d in TREE_DOCS if d.doc_id == "t2")
        record = generate_trajectory(arch, text, tree_retriever, tree_resources, {"t2"})
        assert record.trace.state.history[0].sim_to_target > 1.0
        assert record.terminal_reason == "success"
        assert record.to_dict()["turns"][0]["cos"] == 1.0


class TestPoolSchema:
    def test_to_dict_projects_the_trace(self):
        docs = (RetrievedDoc("text of d1", "d1", 0.7), RetrievedDoc("parsed back", None, None))
        turn = Turn("think", "query", docs, sim_to_target=-0.25, target_rank=-1)
        trace = TraceDocument(SearchState("question", (turn,)), terminal_reason="budget_exhausted")
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
        record = PoolRecord("model-a", TraceDocument(SearchState("question")))
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


class TestApportion:
    def test_exact_quarters(self):
        props = {f"s{i}": 0.25 for i in range(4)}
        counts = apportion(props, 100, random.Random(0))
        assert all(c == 25 for c in counts.values())

    def test_ten_sources_ten_percent(self):
        props = {f"arch{i}": 0.1 for i in range(10)}
        counts = apportion(props, 100, random.Random(0))
        assert all(c == 10 for c in counts.values())

    def test_largest_remainder_with_tie_break(self):
        props = {"a": 0.5, "b": 0.5}
        counts = apportion(props, 7, random.Random(3))
        assert sorted(counts.values()) == [3, 4]
        again = apportion(props, 7, random.Random(3))
        assert counts == again

    def test_matches_enumeration_oracle(self):
        # every valid largest-remainder allocation, enumerated independently
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 5)
            weights = [rng.randint(1, 9) for _ in range(n)]
            total_w = sum(weights)
            props = {f"s{i}": w / total_w for i, w in enumerate(weights)}
            total = rng.randint(1, 40)
            exact = {k: props[k] * total for k in props}
            floors = {k: int(exact[k]) for k in exact}
            leftover = total - sum(floors.values())
            remainders = {k: exact[k] - floors[k] for k in exact}
            valid = set()
            for extra in itertools.combinations(sorted(props), leftover):
                lowest_in = min((remainders[k] for k in extra), default=1.0)
                highest_out = max(
                    (remainders[k] for k in props if k not in extra), default=0.0
                )
                if lowest_in >= highest_out - 1e-12:
                    counts = dict(floors)
                    for k in extra:
                        counts[k] += 1
                    valid.add(tuple(sorted(counts.items())))
            got = apportion(props, total, random.Random(rng.randint(0, 999)))
            assert sum(got.values()) == total
            assert tuple(sorted(got.items())) in valid


class TestSampleSftDataset:
    def make_pool(self, sources, per_source):
        records = []
        for source in sources:
            for i in range(per_source):
                records.append(
                    make_record(q0=f"query {i}", source=source, first_query=f"{source} q{i}")
                )
        return assemble_pool(records)

    def test_exact_quotas_over_four_sources(self):
        pool = self.make_pool([f"set{i}" for i in range(4)], 30)
        manifest = DatasetManifest({f"set{i}": 0.25 for i in range(4)}, 100)
        records = sample_sft_dataset(pool, manifest, seed=7)
        assert len(records) == 100

    def test_insufficient_pool(self):
        pool = self.make_pool(["only"], 3)
        manifest = DatasetManifest({"only": 1.0}, 10)
        with pytest.raises(PoolError, match="insufficient pool"):
            sample_sft_dataset(pool, manifest, seed=0)

    def test_records_carry_masked_spans(self):
        pool = self.make_pool(["src"], 4)
        manifest = DatasetManifest({"src": 1.0}, 2)
        for record in sample_sft_dataset(pool, manifest, seed=1):
            assert record.spans[0][0] == 0
            assert record.spans[-1][1] == len(record.text)
            assert any(flag for _, _, flag in record.spans)

    def test_deterministic_for_seed(self):
        pool = self.make_pool(["a", "b"], 5)
        manifest = DatasetManifest({"a": 0.5, "b": 0.5}, 6)
        first = [r.text for r in sample_sft_dataset(pool, manifest, seed=3)]
        second = [r.text for r in sample_sft_dataset(pool, manifest, seed=3)]
        assert first == second


class TestManifestValidation:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(PoolError, match="sum to 1"):
            DatasetManifest({"a": 0.7, "b": 0.2}, 10)

    def test_pool_record_turn_cap(self):
        with pytest.raises(PoolError, match="at most 5"):
            make_record(n_turns=6)

    def test_cos_range_checked(self):
        with pytest.raises(PoolError, match="cosine"):
            make_record(cos=1.5)
        with pytest.raises(PoolError, match="cosine"):
            make_record(cos=float("nan"))
