from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion.corpus import (
    NOT_FOUND,
    CorpusError,
    Document,
    ScoredDoc,
    build_index,
)

from conftest import cosine_similarity, doc_ids


def brute_force_ranking(doc_vectors: dict[str, list[float]], query: list[float]):
    """Independent oracle: pure-python cosine over every doc, full sort."""

    def cos(a, b):
        dot = sum(x * y for x, y in zip(a, b))
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(y * y for y in b))
        return dot / (na * nb)

    scored = [(doc_id, cos(vec, query)) for doc_id, vec in doc_vectors.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def docs_for(vectors: dict[str, list[float]]):
    return [Document(doc_id, f"text {doc_id}") for doc_id in vectors]


def argsort_search(index, query, k: int, targets=frozenset()):
    """Reference selection: a full stable argsort of the index's own score
    vector, so the result must match `search` bit for bit. Returns
    (entries, target_sim, target_rank)."""
    scores = index._scores(query)
    order = np.argsort(-scores, kind="stable")
    entries = tuple(ScoredDoc(index._ids[i], float(scores[i])) for i in order[:k])
    if not targets:
        return entries, None, None
    positions = [pos for pos, i in enumerate(order) if index._ids[i] in targets]
    if not positions:
        return entries, None, NOT_FOUND
    return entries, float(scores[order[positions[0]]]), positions[0]


class TestBuildIndex:
    def test_count_preserved(self):
        vectors = {"d1": [1, 0, 0, 0], "d2": [0, 1, 0, 0], "d3": [0, 0, 1, 0]}
        index = build_index(docs_for(vectors), vectors)
        assert len(index) == 3

    def test_missing_embedding(self):
        docs = docs_for({"d1": [1.0], "d2": [1.0]})
        with pytest.raises(CorpusError, match="missing embedding"):
            build_index(docs, {"d1": [1.0, 0.0]})

    def test_duplicate_id(self):
        docs = [Document("d1", "a"), Document("d1", "b")]
        with pytest.raises(CorpusError, match="duplicate id"):
            build_index(docs, {"d1": [1.0, 0.0]})

    def test_dimension_mismatch(self):
        vectors = {"d1": [1.0, 0.0], "d2": [1.0, 0.0, 0.0]}
        with pytest.raises(CorpusError, match="dimension mismatch"):
            build_index(docs_for(vectors), vectors)

    def test_embeddings_for_unknown_docs_rejected(self):
        vectors = {"d1": [1.0, 0.0]}
        extra = {**vectors, "zz": [1.0, 1.0], "x": [0.0, 1.0], "y": [1.0, 2.0], "w": [2.0, 1.0]}
        with pytest.raises(CorpusError, match=r"4 embeddings for docs not in the corpus, "
                                              r"first \['w', 'x', 'y'\]"):
            build_index(docs_for(vectors), extra)

    def test_embedding_of_gives_back_the_input(self):
        rng = np.random.default_rng(4)
        vectors = {f"d{i}": rng.normal(size=6) * 10.0 ** rng.integers(-3, 4) for i in range(30)}
        widened = {k: v.astype(np.float32).astype(np.float64) for k, v in vectors.items()}
        index = build_index(docs_for(vectors), vectors)
        from_f32 = build_index(docs_for(widened), widened)
        for doc_id, vec in vectors.items():
            np.testing.assert_array_max_ulp(index.embedding_of(doc_id), vec, maxulp=2)
            f32 = from_f32.embedding_of(doc_id).astype(np.float32)
            assert f32.tobytes() == widened[doc_id].astype(np.float32).tobytes()

    def test_non_finite_embedding_rejected(self):
        vectors = {"d1": [1.0, float("nan")]}
        with pytest.raises(CorpusError, match="non-finite"):
            build_index(docs_for(vectors), vectors)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_identical(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        # dot/(|a||b|) = 1/sqrt(2) = 0.70710678...
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
            assert cosine_similarity(a, 3.7 * b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-12
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(CorpusError, match="zero-norm"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(CorpusError, match="dimension mismatch"):
            cosine_similarity([1.0], [1.0, 0.0])


class TestSearch:
    def test_self_match_dominates(self):
        vectors = {"d1": [1.0, 0.2], "d2": [0.3, 1.0], "d3": [-1.0, 0.5]}
        index = build_index(docs_for(vectors), vectors)
        results = index.search([0.3, 1.0], k=1)
        assert doc_ids(results) == ["d2"]
        assert results.entries[0].score == pytest.approx(1.0, abs=1e-12)

    def test_k_larger_than_corpus(self):
        vectors = {"d1": [1.0, 0.0], "d2": [0.0, 1.0]}
        index = build_index(docs_for(vectors), vectors)
        assert len(index.search([1.0, 1.0], k=10)) == 2

    def test_matches_brute_force_on_random_corpus(self):
        rng = random.Random(13)
        vectors = {
            f"doc-{i:02d}": [rng.gauss(0, 1) for _ in range(8)] for i in range(20)
        }
        index = build_index(docs_for(vectors), vectors)
        query = [rng.gauss(0, 1) for _ in range(8)]
        expected = brute_force_ranking(vectors, query)[:5]
        got = index.search(query, k=5)
        assert doc_ids(got) == [d for d, _ in expected]
        for entry, (_, score) in zip(got.entries, expected):
            assert entry.score == pytest.approx(score, abs=1e-9)

    def test_reported_score_equals_cosine(self):
        rng = random.Random(5)
        vectors = {f"d{i}": [rng.uniform(-1, 1) for _ in range(4)] for i in range(10)}
        index = build_index(docs_for(vectors), vectors)
        query = [0.5, -0.25, 1.0, 0.1]
        for entry in index.search(query, k=10).entries:
            assert entry.score == pytest.approx(
                cosine_similarity(query, vectors[entry.doc_id]), abs=1e-9
            )

    def test_prefix_property(self):
        rng = random.Random(99)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(5)] for i in range(15)}
        index = build_index(docs_for(vectors), vectors)
        query = [rng.gauss(0, 1) for _ in range(5)]
        big = index.search(query, k=12)
        for k in (1, 3, 7, 12):
            assert index.search(query, k=k).entries == big.entries[:k]

    def test_tie_break_ascending_id(self):
        vectors = {"zed": [1.0, 0.0], "abc": [1.0, 0.0], "mid": [0.0, 1.0]}
        index = build_index(docs_for(vectors), vectors)
        assert doc_ids(index.search([1.0, 0.0], k=3)) == ["abc", "zed", "mid"]

    def test_top_k_boundary_inside_a_tie_group(self):
        vectors = {"d": [1, 1], "a": [0, 1], "c": [1, 1], "e": [1, 0], "b": [1, 1]}
        index = build_index(docs_for(vectors), vectors)
        full = ["e", "b", "c", "d", "a"]
        for k in range(1, 7):
            assert doc_ids(index.search([1, 0], k)) == full[:k]

    def test_rebuild_determinism(self):
        rng = random.Random(3)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(6)] for i in range(12)}
        query = [rng.gauss(0, 1) for _ in range(6)]
        a = build_index(docs_for(vectors), vectors).search(query, 6)
        b = build_index(docs_for(vectors), vectors).search(query, 6)
        assert a == b


class TestRankOf:
    """Target rank and similarity, derived by `search` from its one scan."""

    def test_best_match_is_rank_zero(self):
        vectors = {"d1": [1.0, 0.0], "d2": [0.0, 1.0]}
        index = build_index(docs_for(vectors), vectors)
        assert index.search([0.1, 1.0], 1, {"d2"}).target_rank == 0

    def test_absent_target(self):
        vectors = {"d1": [1.0, 0.0]}
        index = build_index(docs_for(vectors), vectors)
        results = index.search([1.0, 0.0], 1, {"ghost"})
        assert results.target_rank == NOT_FOUND
        assert results.target_sim is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(21)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(4)] for i in range(10)}
        index = build_index(docs_for(vectors), vectors)
        query = [rng.gauss(0, 1) for _ in range(4)]
        oracle = brute_force_ranking(vectors, query)
        for pos, (doc_id, score) in enumerate(oracle):
            results = index.search(query, 1, {doc_id})
            assert results.target_rank == pos
            assert results.target_sim == pytest.approx(score, abs=1e-12)

    def test_consistent_with_search(self):
        rng = random.Random(8)
        vectors = {f"d{i}": [rng.gauss(0, 1) for _ in range(4)] for i in range(12)}
        index = build_index(docs_for(vectors), vectors)
        query = [rng.gauss(0, 1) for _ in range(4)]
        ids = doc_ids(index.search(query, k=6))
        for pos, doc_id in enumerate(ids):
            assert index.search(query, 6, {doc_id}).target_rank == pos


@st.composite
def tie_heavy_case(draw):
    """Few distinct small-integer rows repeated under shuffled ids, a query,
    a depth, and a target set that may name ids outside the corpus."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    distinct = draw(st.lists(vec, min_size=1, max_size=3))
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"d{i:02d}" for i in range(n)]))
    vectors = {doc_id: draw(st.sampled_from(distinct)) for doc_id in ids}
    targets = draw(st.sets(st.sampled_from(ids + ["ghost", "zz"]), max_size=4))
    return vectors, draw(vec), draw(st.integers(1, n + 1)), targets


@settings(max_examples=300, deadline=None)
@given(tie_heavy_case())
def test_target_metrics_match_a_full_ordering(case):
    vectors, query, k, targets = case
    index = build_index(docs_for(vectors), vectors)
    results = index.search(query, k, targets)
    assert results.entries == index.search(query, k).entries

    full = index.search(query, len(vectors)).entries
    for e in full:
        assert e.score == pytest.approx(cosine_similarity(query, vectors[e.doc_id]), abs=1e-12)
    ordering = [e.doc_id for e in sorted(full, key=lambda e: (-e.score, e.doc_id))]
    assert [e.doc_id for e in full] == ordering

    indexed = targets & vectors.keys()
    if not targets:
        assert (results.target_sim, results.target_rank) == (None, None)
    elif not indexed:
        assert (results.target_sim, results.target_rank) == (None, NOT_FOUND)
    else:
        assert results.target_rank == min(ordering.index(t) for t in indexed)
        best = max(cosine_similarity(query, vectors[t]) for t in indexed)
        assert results.target_sim == pytest.approx(best, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_case())
def test_search_matches_a_full_stable_argsort(case):
    """Every depth from 1 to n + 1, so k = 1, k = n, k > n and each k whose
    boundary falls inside a tie group are all compared. A target rank in
    [0, k) (the engine's success rule) is the same fact as a target among
    the top-k entries."""
    vectors, query, _, targets = case
    index = build_index(docs_for(vectors), vectors)
    for k in range(1, len(vectors) + 2):
        results = index.search(query, k, targets)
        got = (results.entries, results.target_sim, results.target_rank)
        assert got == argsort_search(index, query, k, targets)
        in_top_k = any(e.doc_id in targets for e in results.entries[:k])
        rank = results.target_rank
        assert (rank is not None and 0 <= rank < k) == in_top_k
