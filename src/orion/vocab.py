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
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter, defaultdict
from typing import Iterable

import numpy as np

from .corpus import Document

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
        self._row_weights = counts.astype(np.float64) * np.array(self._idf)[self._row_terms]
        # (term, row) keys are distinct, so sorting them lists each term's rows ascending
        self._post_rows = rows[np.argsort(self._row_terms * n + rows)]
        self._post_ptr = np.concatenate(([0], np.cumsum(df)))
        # 0.0 for an empty corpus, where log(0) is undefined and no term scores
        self._unseen_idf = math.log(float(n)) + 1.0 if n else 0.0

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

    def top_terms(self, text: str, j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Top-j tf*idf terms of a text, highest score first, ties by term."""
        excluded = set(exclude)
        scores = [
            (term, count * self.idf(term))
            for term, count in Counter(tokenize(text)).items()
            if term not in excluded
        ]
        ranked = sorted((kv for kv in scores if kv[1] > 0), key=lambda kv: (-kv[1], kv[0]))
        return [term for term, _ in ranked[:j]]

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
