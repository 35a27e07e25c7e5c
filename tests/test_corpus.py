from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion import corpus
from orion.corpus import (
    NOT_FOUND,
    CorpusError,
    Document,
    build_index,
)
from orion.engine import Retriever

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


def full_scan(index, query) -> np.ndarray:
    """The full scan every logged score must equal to the bit: the
    C-contiguous unit matrix times the unit query, one BLAS matvec over
    every row and dimension."""
    q = np.asarray(query, dtype=np.float64)
    return np.ascontiguousarray(index._ut.T) @ (q / np.linalg.norm(q))


def argsort_search(index, query, k: int, targets=frozenset()):
    """Reference selection: a full stable argsort of the full scan. Returns
    (entries, target_sim, target_rank) with each score as `float.hex`, so
    that a comparison is bit for bit, the sign of a zero included."""
    scores = full_scan(index, query)
    order = np.argsort(-scores, kind="stable")
    entries = tuple((index._ids[i], float(scores[i]).hex()) for i in order[:k])
    if not targets:
        return entries, None, None
    positions = [pos for pos, i in enumerate(order) if index._ids[i] in targets]
    if not positions:
        return entries, None, NOT_FOUND
    return entries, float(scores[order[positions[0]]]).hex(), positions[0]


def as_bits(results):
    """`RankedResults` in `argsort_search`'s form."""
    sim = None if results.target_sim is None else results.target_sim.hex()
    return tuple((e.doc_id, e.score.hex()) for e in results.entries), sim, results.target_rank


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
    boundary falls inside a tie group are all compared, bit for bit, with a
    full scan. A target rank in [0, k) (the engine's success rule) is the
    same fact as a target among the top-k entries."""
    vectors, query, _, targets = case
    index = build_index(docs_for(vectors), vectors)
    for k in range(1, len(vectors) + 2):
        results = index.search(query, k, targets)
        assert as_bits(results) == argsort_search(index, query, k, targets)
        in_top_k = any(e.doc_id in targets for e in results.entries[:k])
        rank = results.target_rank
        assert (rank is not None and 0 <= rank < k) == in_top_k


@settings(max_examples=200, deadline=None)
@given(tie_heavy_case())
def test_select_over_scores_equals_search(case):
    """`search` is `select` over the query's screen; one read-only screen
    serves every (k, targets) selection, matches the full scan bit for bit
    and is left as it was."""
    vectors, query, _, targets = case
    index = build_index(docs_for(vectors), vectors)
    screen = index.scores(query)
    before = [a.tobytes() for a in (screen.query, screen.dims, screen.scores)]
    assert not any(a.flags.writeable for a in (screen.query, screen.dims, screen.scores))
    for k in range(1, len(vectors) + 2):
        for tset in (frozenset(), targets):
            got = index.select(screen, k, tset)
            assert got == index.search(query, k, tset)
            assert as_bits(got) == argsort_search(index, query, k, tset)
    assert [a.tobytes() for a in (screen.query, screen.dims, screen.scores)] == before


# --- the screen against the full scan -----------------------------------------

ROW_KINDS = ("normal", "small", "repeat", "nudge", "untouched", "cancel")


@st.composite
def screened_case(draw):
    """A corpus built to land rows in the screen's band: exact ties
    (repeated and small-integer rows), near-ties inside eps (a repeated row
    with one value moved by an ulp), zero plateaus (rows with nothing, or
    only -0.0, on the query's dimensions), rows whose products cancel
    exactly (a ±1 query), n over every residue mod 4, dims 1-20 and 384,
    and targets that may lie outside the corpus. Returns (vectors, query,
    targets)."""
    dim = draw(st.one_of(st.integers(1, 20), st.just(384)))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.one_of(st.integers(1, min(dim, 6)), st.just(dim)))
    qdims = rng.choice(dim, width, replace=False)
    query = np.zeros(dim)
    signs = draw(st.booleans())
    query[qdims] = rng.choice([-1.0, 1.0], width) if signs else rng.normal(size=width)
    off = np.setdiff1d(np.arange(dim), qdims)
    rows: list[np.ndarray] = []
    for _ in range(n):
        kind = draw(st.sampled_from(ROW_KINDS))
        row = rng.normal(size=dim)
        if kind == "small":
            row = rng.integers(-2, 3, size=dim).astype(float)
            row[rng.integers(dim)] = 1.0
        elif kind in ("repeat", "nudge") and rows:
            row = rows[rng.integers(len(rows))].copy()
            if kind == "nudge":
                j = rng.integers(dim)
                row[j] = np.nextafter(row[j], rng.choice([-np.inf, np.inf]))
        elif kind == "untouched" and off.size:
            row[qdims] = -0.0 if rng.random() < 0.5 else 0.0
        elif kind == "cancel" and width >= 2:
            a, b = qdims[:2]
            row[qdims] = 0.0
            row[a], row[b] = query[b], -query[a]
        if not row.any():
            row[rng.integers(dim)] = 1.0
        rows.append(row)
    ids = draw(st.permutations([f"d{i:02d}" for i in range(n)]))
    vectors = dict(zip(ids, rows))
    targets = draw(st.sets(st.sampled_from(ids + ["ghost"]), max_size=4))
    return vectors, query, targets


@settings(max_examples=300, deadline=None)
@given(screened_case())
def test_select_and_best_similarity_match_the_full_scan_to_the_bit(case):
    """Entries, target similarity, target rank and the best score, at every
    depth, equal the full scan's bit for bit; every screen score is within
    eps of it."""
    vectors, query, targets = case
    index = build_index(docs_for(vectors), vectors)
    screen = index.scores(query)
    full = full_scan(index, query)
    assert np.all(np.abs(screen.scores - full) <= index.eps)
    for k in range(1, len(vectors) + 2):
        for tset in (frozenset(), targets):
            assert as_bits(index.select(screen, k, tset)) == argsort_search(index, query, k, tset)
    retriever = Retriever(index, lambda text: query)
    assert retriever.best_similarity("q").hex() == float(full[np.argmax(full)]).hex()


def test_best_similarity_is_the_full_scans_where_the_screen_differs():
    """Seeded corpora whose best row screens to other bits than the full
    scan gives it (most of them, here): the probe reports the full scan's."""
    differ = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        vectors = {f"d{i:02d}": rng.normal(size=384) for i in range(40)}
        query = np.zeros(384)
        query[rng.choice(384, 12, replace=False)] = rng.normal(size=12)
        index = build_index(docs_for(vectors), vectors)
        best = float(full_scan(index, query).max())
        differ += float(index.scores(query).scores.max()).hex() != best.hex()
        assert Retriever(index, lambda text: query).best_similarity("q").hex() == best.hex()
    assert differ


@pytest.mark.parametrize("nonzero", [1, 5, 128, 129, 384])
def test_the_screen_copies_at_most_the_querys_nonzero_rows(nonzero):
    """A sparse query copies its nonzero rows of the transposed matrix; one
    nonzero on more than a third of the dimensions copies none of them."""
    rng = np.random.default_rng(2)
    vectors = {f"d{i:04d}": rng.normal(size=384) for i in range(2000)}
    index = build_index(docs_for(vectors), vectors)
    query = np.zeros(384)
    query[rng.choice(384, nonzero, replace=False)] = 1.0
    tracemalloc.start()
    index.scores(query)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    copied = nonzero if 3 * nonzero <= 384 else 0
    assert peak <= (copied + 1) * 2000 * 8 + 64 * 1024


def test_build_index_gives_every_block_the_whole_matrix_bits(monkeypatch):
    rng = np.random.default_rng(11)
    vectors = {f"d{i:02d}": rng.normal(size=7) * 10.0 ** rng.integers(-3, 4) for i in range(11)}
    matrix = np.vstack([vectors[d] for d in sorted(vectors)])
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    for block in (1, 3, 4, 11, 1024):
        monkeypatch.setattr(corpus, "BUILD_BLOCK", block)
        index = build_index(docs_for(vectors), vectors)
        assert index._ut.flags.c_contiguous and index._ut.shape == (7, 11)
        assert index._ut.T.tobytes() == np.ascontiguousarray(unit).tobytes()


def test_a_zero_norm_embedding_is_named_across_blocks(monkeypatch):
    monkeypatch.setattr(corpus, "BUILD_BLOCK", 2)
    vectors = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [1.0, 1.0], "d": [0.0, 0.0]}
    with pytest.raises(CorpusError, match=r"zero-norm embedding for docs \['b', 'd'\]"):
        build_index(docs_for(vectors), vectors)


# Plain numpy under one BLAS thread: the padding rule against one full
# matvec per shape, over every row of the small shapes and samples of the
# large ones.
CANARY = """
import sys
import numpy as np
from orion.corpus import padded_gather

rng = np.random.default_rng(0)
bad = []
for n in [*range(1, 41), 97, 1001, 5000]:
    for dim in [*range(1, 21), 127, 128, 383, 384]:
        u = rng.normal(size=(n, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        q = rng.normal(size=dim)
        q[rng.random(dim) < 0.5] = 0.0
        q[rng.integers(dim)] = 1.0
        q /= np.linalg.norm(q)
        full = u @ q
        sets = [[i] for i in range(n)] if n <= 40 else [
            np.unique(rng.integers(0, n, size=rng.integers(1, 9))).tolist() for _ in range(20)
        ] + [list(range(n - 9, n))]
        for rows in sets:
            gather, at = padded_gather(n, rows)
            got = (np.ascontiguousarray(u[gather]) @ q)[at]
            bad += [(n, dim, r) for r, same in zip(rows, got == full[rows]) if not same]
print(len(bad), bad[:5])
sys.exit(1 if bad else 0)
"""


def test_the_padding_rule_gives_each_row_the_full_matvecs_bits():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, "-c", CANARY], env=env, capture_output=True, text=True)
    assert done.returncode == 0, (
        "this host's BLAS rounds a row differently depending on where the row sits in "
        "the block, so logged scores would no longer match a full scan "
        f"(mismatched rows, first as (n, dim, row)): {done.stdout}{done.stderr}"
    )
