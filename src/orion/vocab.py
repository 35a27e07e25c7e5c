"""Corpus-derived term statistics backing the scripted search behaviors.

Built once at index time; gives archetypes their expansion terms, subtopic
siblings, and neighbor substitutions. Scoring is tf * idf with descending
score and ascending-term tie-breaks, so every archetype decision is exactly
reproducible by hand.

`TfidfTable` keeps an inverted index, built once and never the documents'
token lists:

* term ids, assigned in sorted string order, so id order is term order;
* a doc -> term CSR (`_row_ptr`, `_row_terms`, `_row_weights`) whose weight
  is the term's count in the row times its idf, a float64 multiply;
* term -> row postings, also CSR (`_post_ptr`, `_post_rows`), rows ascending;
* one idf per term, `log(n / (1 + df)) + 1` from `math.log` on Python ints
  (not `np.log`, whose vectorised path may differ in the last bit).

`expansions` and `neighbors` select rows from the postings, then sum the
weights of those rows' CSR slices per term with one `np.bincount`. The slices
are concatenated in ascending row order and `bincount` adds in input order,
so each term's score is `0 + w_r1 + w_r2 + ...` over ascending rows: the same
additions, in the same order, as summing a Counter row by row, and so the
same floats to the last bit. Terms are then ranked with
`np.lexsort((ids, -scores))`; id order is term order, so ties go to the
smaller term.

`top_terms` reads a turn's result snippets as one text, their `" ".join`: the
space only separates tokens, so the joined text's tokens are the snippets'
tokens in order. Two per-table LRU memos keep a turn's text work to once:

* per text (`TERM_VECTOR_MEMO_SIZE`), its term vector: the ids of its known
  tokens, one per occurrence, and the tokens the table lacks, such as a word
  cut at the snippet budget;
* per (texts, exclude) (`RANKING_MEMO_SIZE`), the full ranking; `j` only
  slices it, so the proposals of one search state share one ranking.

A term's count comes from one `np.unique` over the texts' ids, and its score
is `count * idf`, one float64 multiply of an exact integer: the multiply a
`Counter` count times the Python idf does. A token the table lacks scores
`count * unseen idf` in Python. Known terms are ranked with the same lexsort
as above, and the lacking tokens are merged in by the same (score desc, term
asc) key, so `top_terms` returns, bit for bit, what sorting the joined
text's `Counter` returns. The counts stay sparse: a dense count per term of
the corpus would allocate a vocabulary-sized array on every ranking.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Document

# Distinct texts whose term vectors, and distinct (texts, exclude) pairs whose
# keyword rankings, a TfidfTable remembers.
TERM_VECTOR_MEMO_SIZE = 1024
RANKING_MEMO_SIZE = 64
_NO_IDS = np.zeros(0, np.int32)

_TOKEN_RE = re.compile(r"[a-z0-9]+")

STOPWORDS = frozenset(
    """a an the and or not of in on for to is are was were be been being with by
    at from as that this these those it its do does did how what which who whom
    why when where can could should would will shall may might must about into
    over under between against during before after above below up down out off
    than then so if but nor no yes all any both each few more most other some
    such only own same too very s t just don now""".split()
)


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, stopwords and single characters dropped."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2 and t not in STOPWORDS]


def head_phrase(text: str) -> list[str]:
    """Leading run of content tokens (stops at the first stopword after one)."""
    tokens = _TOKEN_RE.findall(text.lower())
    head: list[str] = []
    for tok in tokens:
        if tok in STOPWORDS or len(tok) < 2:
            if head:
                break
            continue
        head.append(tok)
    return head


def _keyword_ranking(
    ids: dict[str, int], terms: list[str], idf: np.ndarray, unseen_idf: float
) -> Callable[[tuple[str, ...], frozenset[str]], tuple[str, ...]]:
    """`top_terms`' memoised full ranking over one table's term ids and idfs.

    Closures, not bound methods, so the memos hold no reference back to the
    table and a dropped table is freed at once.
    """

    @functools.lru_cache(maxsize=TERM_VECTOR_MEMO_SIZE)
    def term_vector(text: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """The ids of a text's known tokens and its tokens the table lacks,
        one entry per occurrence."""
        tokens = tokenize(text)
        known = [i for t in tokens if (i := ids.get(t)) is not None]
        return np.array(known, np.int32), tuple(t for t in tokens if t not in ids)

    @functools.lru_cache(maxsize=RANKING_MEMO_SIZE)
    def ranking(texts: tuple[str, ...], exclude: frozenset[str]) -> tuple[str, ...]:
        """Every term of the joined texts with a positive tf*idf, ranked."""
        vectors = [term_vector(text) for text in texts]
        found = np.concatenate([_NO_IDS, *(known for known, _ in vectors)])
        term_ids, counts = np.unique(found, return_counts=True)
        scores = counts * idf[term_ids]  # positive: an idf is at least 1 - log(2)
        order = np.lexsort((term_ids, -scores))
        dropped = {ids.get(t) for t in exclude}
        scored = [
            (-score, terms[i])
            for score, i in zip(scores[order].tolist(), term_ids[order].tolist())
            if i not in dropped
        ]
        unknown = Counter(t for _, missing in vectors for t in missing if t not in exclude)
        if unknown and unseen_idf > 0:
            # merged by the known terms' key, (-score, term)
            scored += [(-c * unseen_idf, t) for t, c in unknown.items()]
            scored.sort()
        return tuple(t for _, t in scored)

    return ranking


class TfidfTable:
    """Term statistics over one corpus: idf, postings and per-doc tf*idf weights."""

    def __init__(self, doc_tokens: Iterable[list[str]]):
        first_seen: defaultdict[str, int] = defaultdict()
        first_seen.default_factory = first_seen.__len__  # a new term gets the next id
        tokens = array("q")  # every token of every doc, as first-seen ids
        ends = array("q")  # where each doc's tokens end
        for toks in doc_tokens:
            tokens.extend(map(first_seen.__getitem__, toks))
            ends.append(len(tokens))
        self.n_docs = n = len(ends)
        self._terms = sorted(first_seen)
        n_terms = len(self._terms)
        self._ids = dict(zip(self._terms, range(n_terms)))
        renumber = np.fromiter(map(self._ids.__getitem__, first_seen), np.int64, n_terms)
        del first_seen
        token_rows = np.repeat(np.arange(n), np.diff(np.frombuffer(ends, np.int64), prepend=0))
        # one (row, term) pair per distinct term of a row, ascending, with its count
        pairs, counts = np.unique(
            token_rows * n_terms + renumber[np.frombuffer(tokens, np.int64)], return_counts=True
        )
        del tokens, token_rows
        rows, self._row_terms = np.divmod(pairs, n_terms)
        self._row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        df = np.bincount(self._row_terms, minlength=n_terms)
        self._idf = [math.log(n / (1 + d)) + 1.0 for d in df.tolist()]
        idf = np.array(self._idf)
        self._row_weights = counts.astype(np.float64) * idf[self._row_terms]
        # (term, row) keys are distinct, so sorting them lists each term's rows ascending
        self._post_rows = rows[np.argsort(self._row_terms * n + rows)]
        self._post_ptr = np.concatenate(([0], np.cumsum(df)))
        # 0.0 for an empty corpus, where log(0) is undefined and no term scores
        self._unseen_idf = math.log(float(n)) + 1.0 if n else 0.0
        self._ranking = _keyword_ranking(self._ids, self._terms, idf, self._unseen_idf)

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "TfidfTable":
        return cls(tokenize(f"{d.title} {d.text}") for d in documents)

    def idf(self, term: str) -> float:
        i = self._ids.get(term)
        return self._unseen_idf if i is None else self._idf[i]

    def _postings(self, term: str) -> np.ndarray:
        """Ascending rows of the documents containing `term`."""
        i = self._ids.get(term)
        if i is None:
            return self._post_rows[:0]
        return self._post_rows[self._post_ptr[i] : self._post_ptr[i + 1]]

    def _ranked_rows(self, rows: np.ndarray, j: int, exclude: set[str]) -> list[str]:
        """Top-j terms by tf*idf summed over ascending `rows`, ties by term."""
        starts = self._row_ptr[rows]
        lengths = self._row_ptr[rows + 1] - starts
        # positions of the rows' CSR slices, concatenated in row order
        pos = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        scores = np.bincount(self._row_terms[pos], self._row_weights[pos])
        drop = [i for t in exclude if (i := self._ids.get(t)) is not None and i < len(scores)]
        scores[drop] = 0.0
        cand = np.flatnonzero(scores > 0)
        order = cand[np.lexsort((cand, -scores[cand]))]
        return [self._terms[i] for i in order[:j].tolist()]

    def top_terms(self, texts: Sequence[str], j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Top-j tf*idf terms of some texts, read as one text (`" ".join`),
        highest score first, ties by term."""
        if isinstance(texts, str):
            raise TypeError("top_terms takes a sequence of texts, not one str")
        return list(self._ranking(tuple(texts), frozenset(exclude))[:j])

    def expansions(self, query_text: str, j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Corpus terms that best extend a query.

        Scored by summed tf*idf over documents containing every query token
        (falling back to any-token matches when no document has them all).
        Query tokens themselves are never returned.
        """
        qtokens = set(tokenize(query_text))
        if not qtokens:
            return []
        postings = sorted((self._postings(t) for t in qtokens), key=len)
        rows = postings[0]
        for other in postings[1:]:
            if not len(rows):
                break
            rows = np.intersect1d(rows, other, assume_unique=True)
        if not len(rows):
            rows = np.unique(np.concatenate(postings))
        return self._ranked_rows(rows, j, qtokens | set(exclude))

    def neighbors(self, term: str, j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Terms co-occurring with `term`, scored by summed tf*idf."""
        return self._ranked_rows(self._postings(term), j, {term} | set(exclude))
