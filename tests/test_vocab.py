from __future__ import annotations

import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion.corpus import Document
from orion.vocab import RANKING_MEMO_SIZE, TERM_VECTOR_MEMO_SIZE, TfidfTable, head_phrase, tokenize


def test_tokenize_drops_stopwords_and_short_tokens():
    assert tokenize("The rate of X in an engine!") == ["rate", "engine"]


def test_head_phrase_stops_at_first_stopword():
    assert head_phrase("machine learning for beginners") == ["machine", "learning"]
    assert head_phrase("the solar panels at home") == ["solar", "panels"]
    assert head_phrase("of the and") == []


def test_top_terms_ranked_by_tf_idf_with_term_tie_break():
    docs = [
        Document("d1", "carbon carbon emissions climate"),
        Document("d2", "climate change policy"),
        Document("d3", "weather patterns climate"),
    ]
    table = TfidfTable.from_documents(docs)
    # in this text carbon has tf 2 and higher idf than climate (df 3)
    assert table.top_terms(["carbon carbon climate"], 1) == ["carbon"]
    # counts add up across texts
    assert table.top_terms(["carbon climate", "carbon"], 1) == ["carbon"]
    # exact ties fall back to alphabetical order
    assert table.top_terms(["zz aa"], 2) == ["aa", "zz"]
    assert table.top_terms([], 2) == table.top_terms([""], 2) == []


def test_top_terms_breaks_wide_ties_by_term():
    # 60 terms with one df and one count tie on score; a sort that is not
    # stable on (score, term) shows on this many
    words = [f"w{i:02d}x" for i in range(60)]
    table = TfidfTable.from_documents([Document(f"d{i}", w) for i, w in enumerate(words)])
    shuffled = words[1::2] + words[::2]
    texts = [" ".join(shuffled[:30]), " ".join(shuffled[30:]), "w59x"]
    oracle = CounterTable([[w] for w in words])
    assert table.top_terms(texts, 60) == oracle.top_terms(" ".join(texts), 60)
    assert table.top_terms(texts, 60) == ["w59x"] + words[:59]


def test_top_terms_takes_a_sequence_of_texts_not_one_str():
    table = TfidfTable.from_documents([Document("d1", "carbon climate")])
    with pytest.raises(TypeError, match="sequence of texts"):
        table.top_terms("carbon", 1)


def test_expansions_exclude_query_tokens(tree_vocab):
    exps = tree_vocab.expansions("machine learning", 3)
    assert exps[0] == "neural"
    assert "machine" not in exps and "learning" not in exps


def test_expansions_fall_back_to_any_token_match():
    docs = [
        Document("d1", "solar panels rooftop"),
        Document("d2", "wind turbines offshore"),
    ]
    table = TfidfTable.from_documents(docs)
    # no doc contains both tokens; any-match docs still provide terms
    exps = table.expansions("solar wind", 4)
    assert set(exps) <= {"panels", "rooftop", "turbines", "offshore"}
    assert exps


def test_expansions_empty_for_stopword_query():
    table = TfidfTable.from_documents([Document("d1", "alpha beta")])
    assert table.expansions("the of", 3) == []


def test_neighbors_come_from_cooccurring_docs():
    docs = [
        Document("d1", "solar panels rooftop energy"),
        Document("d2", "solar energy storage"),
        Document("d3", "wind turbines"),
    ]
    table = TfidfTable.from_documents(docs)
    neigh = table.neighbors("solar", 5)
    assert "energy" in neigh
    assert "turbines" not in neigh  # never co-occurs with solar


class CounterTable:
    """Reference: scan every document set and sum a Counter per matching row."""

    def __init__(self, doc_tokens: list[list[str]]):
        self._doc_tokens = doc_tokens
        self._doc_sets = [set(toks) for toks in doc_tokens]
        self.n_docs = len(doc_tokens)
        df: Counter[str] = Counter()
        for toks in self._doc_sets:
            df.update(toks)
        self._idf = {
            term: math.log(self.n_docs / (1 + count)) + 1.0 for term, count in df.items()
        }

    def idf(self, term: str) -> float:
        return self._idf.get(term, math.log(float(self.n_docs)) + 1.0)

    def _ranked(self, scores: Counter[str], j: int, exclude: set[str]) -> list[str]:
        ranked = sorted(
            ((term, s) for term, s in scores.items() if term not in exclude and s > 0),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return [term for term, _ in ranked[:j]]

    def top_terms(self, text: str, j: int, exclude=()) -> list[str]:
        tf = Counter(tokenize(text))
        scores = Counter({term: count * self.idf(term) for term, count in tf.items()})
        return self._ranked(scores, j, set(exclude))

    def expansions(self, query_text: str, j: int, exclude=()) -> list[str]:
        qtokens = set(tokenize(query_text))
        if not qtokens:
            return []
        rows = [i for i, s in enumerate(self._doc_sets) if qtokens <= s]
        if not rows:
            rows = [i for i, s in enumerate(self._doc_sets) if qtokens & s]
        scores: Counter[str] = Counter()
        for i in rows:
            for term, count in Counter(self._doc_tokens[i]).items():
                scores[term] += count * self.idf(term)
        return self._ranked(scores, j, qtokens | set(exclude))

    def neighbors(self, term: str, j: int, exclude=()) -> list[str]:
        rows = [i for i, s in enumerate(self._doc_sets) if term in s]
        scores: Counter[str] = Counter()
        for i in rows:
            for other, count in Counter(self._doc_tokens[i]).items():
                scores[other] += count * self.idf(other)
        return self._ranked(scores, j, {term} | set(exclude))


# A small vocabulary, so tokens repeat within documents and tf*idf ties are common;
# "the" and "of" are stopwords, "zz" is never in a document.
WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "the", "of"]
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
queries = st.lists(st.sampled_from(WORDS + ["zz"]), max_size=4).map(" ".join)
excludes = st.lists(st.sampled_from(WORDS + ["zz"]), max_size=3)
J_VALUES = (-1, 0, 1, 3, 50)
# result snippets: whole texts, texts cut mid-word at a character budget (so
# some tokens are not in the table) and empty texts, drawn from a small pool
# so that a list repeats some of them
snippet = st.one_of(
    texts, st.tuples(texts, st.integers(0, 30)).map(lambda tb: tb[0][: tb[1]]), st.just("")
)
snippet_lists = st.lists(snippet, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(
    docs=st.lists(texts, min_size=1, max_size=12),
    query=queries,
    exclude=excludes,
    snippets=snippet_lists,
)
def test_index_matches_the_counter_oracle(docs, query, exclude, snippets):
    documents = [Document(f"d{i}", text) for i, text in enumerate(docs)]
    table = TfidfTable.from_documents(documents)
    oracle = CounterTable([tokenize(f"{d.title} {d.text}") for d in documents])
    # the query's own tokens in the exclude list, as the archetypes pass them
    overlapping = exclude + tokenize(query)[:1]
    for word in WORDS + ["zz"]:
        assert table.idf(word) == oracle.idf(word)
    for j in J_VALUES:
        for ex in (exclude, overlapping):
            want = oracle.expansions(query, j, ex)
            got = table.expansions(query, j, ex)
            assert got == want
            got.append("mutated")  # the caller's list is its own, not the memo's
            assert table.expansions(query, j, ex) == want
            assert table.top_terms([query], j, ex) == oracle.top_terms(query, j, ex)
        # the excludes may hold cut words the table lacks, as a query over snippets can
        for ex in (exclude, overlapping, exclude + tokenize(" ".join(snippets))[-1:]):
            want = oracle.top_terms(" ".join(snippets), j, ex)
            got = table.top_terms(snippets, j, ex)
            assert got == want
            got.append("mutated")  # the caller's list is its own, not the memo's
            assert table.top_terms(snippets, j, ex) == want
    # every j and exclude after the first is a memo hit for the query's
    # ranking; then neighbors, in two rounds over every (j, exclude), the
    # second in reverse order, where only the first round ranks a token set
    for round_js in (J_VALUES, J_VALUES[::-1]):
        for j in round_js:
            for word in WORDS + ["zz"]:
                for ex in (exclude, exclude + [word]):
                    assert table.neighbors(word, j, ex) == oracle.neighbors(word, j, ex)
        if round_js is J_VALUES:
            misses = table._cooccurrence.cache_info().misses
            assert misses <= 1 + len(WORDS) + 1  # the query's tokens, then one per word
    assert table._cooccurrence.cache_info().misses == misses


def test_index_matches_the_oracle_on_named_cases():
    docs = [
        Document("d1", "solar panels rooftop solar"),
        Document("d2", "wind turbines offshore wind"),
        Document("d3", "solar wind hybrid"),
        Document("d4", "rooftop turbines"),
    ]
    table = TfidfTable.from_documents(docs)
    oracle = CounterTable([tokenize(d.text) for d in docs])
    cases = [
        ("unknown", "zz yy"),
        ("stopwords only", "the of and"),
        ("any-token fallback", "panels offshore"),
        ("all tokens in one doc", "solar wind"),
        ("one unknown token", "solar zz"),
    ]
    for _, query in cases:
        for j in J_VALUES:
            for ex in ((), ("solar",), ("rooftop", "zz")):
                assert table.expansions(query, j, ex) == oracle.expansions(query, j, ex)
    assert table.expansions("panels offshore", 50) == oracle.expansions("panels offshore", 50) != []
    assert table.expansions("zz yy", 3) == table.expansions("the of", 3) == []
    assert table.neighbors("zz", 3) == []


def test_variants_of_one_state_share_one_ranking():
    table = TfidfTable.from_documents([Document("d1", "solar panels rooftop"), Document("d2", "wind")])
    texts = ("solar panels", "rooftop solar", "solar panels")
    rankings = [table.top_terms(list(texts), j, exclude=["wind"]) for j in (1, 2, 3, 4)]
    assert rankings[:3] == [["solar"], ["solar", "panels"], ["solar", "panels", "rooftop"]]
    assert rankings[3] == rankings[2]
    info = table._ranking.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_expansions_and_neighbors_share_one_ranking_per_token_set():
    table = TfidfTable.from_documents(
        [Document("d1", "solar panels rooftop"), Document("d2", "solar wind"), Document("d3", "wind")]
    )
    assert table.neighbors("solar", 5) == table.expansions("the solar", 5) == [
        "panels", "rooftop", "wind"
    ]
    assert table.expansions("solar of solar", 1, exclude=["panels"]) == ["rooftop"]
    assert table.neighbors("solar", -1, exclude=["zz"]) == ["panels", "rooftop"]
    assert table.expansions("wind solar", 0) == []
    assert table.expansions("solar wind", 3) == []  # d2's only terms are the query's
    info = table._cooccurrence.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    ranking = table._cooccurrence(frozenset({"solar"}))
    assert ranking.dtype == np.int32 and not ranking.flags.writeable


def test_a_dropped_table_is_freed_without_the_cycle_collector():
    table = TfidfTable.from_documents([Document("d1", "solar panels rooftop")])
    table.top_terms(["solar panels"], 1)
    table.expansions("solar", 1)
    ref = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert ref() is None
    finally:
        gc.enable()


def test_threads_sharing_the_memos_get_the_oracle_ranking():
    # more texts and (texts, exclude) keys than the memos hold, so threads also
    # race on evictions; the x<i> tokens are not in the table
    words = [f"w{i}" for i in range(40)]
    table = TfidfTable.from_documents(
        [Document(f"d{i}", " ".join(words[i : i + 3 + i % 4])) for i in range(40)]
    )
    oracle = CounterTable([tokenize(" ".join(words[i : i + 3 + i % 4])) for i in range(40)])
    n = TERM_VECTOR_MEMO_SIZE + 16
    texts = [f"{words[i % 40]} {words[(3 * i) % 40]} {words[(7 * i) % 40]} x{i}" for i in range(n)]
    calls = [((texts[i], texts[(i + 1) % n]), 3, (words[i % 40],)) for i in range(n)] * 2
    calls = [("top_terms", t, j, ex) for t, j, ex in calls]
    # and more token sets than the co-occurrence memo holds, through both views
    m = RANKING_MEMO_SIZE + 16
    pairs = [f"{words[i % 40]} {words[(i // 40) % 40]}" for i in range(m)]
    calls += [("expansions", pairs[i], 2 + i % 3, (words[(5 * i) % 40],)) for i in range(m)] * 2
    calls += [("neighbors", words[i % 40], 1 + i % 4, (words[(3 * i) % 40],)) for i in range(m)] * 2
    want = [
        getattr(oracle, name)(" ".join(arg) if name == "top_terms" else arg, j, ex)
        for name, arg, j, ex in calls
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(getattr(table, name), arg, j, ex) for name, arg, j, ex in calls]
            got = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
