"""Corpus-derived term statistics backing the scripted search behaviors.

Built once at index time; gives archetypes their expansion terms, subtopic
siblings, and neighbor substitutions. Scoring is tf * idf with descending
score and ascending-term tie-breaks, so every archetype decision is exactly
reproducible by hand.

`words(text)` is the package's one word splitter: the lowercase runs of
`[a-z0-9]`, exactly what `re.findall(r"[a-z0-9]+", text.lower())` returns. It
runs in C string methods: lowercase, encode as ASCII with every other code
point (a lone surrogate included) replaced by `?`, map each byte outside
`[a-z0-9]` to a space with one `bytes.translate`, decode and `split()`.
Lowercasing comes first on both sides, so a character that lowercases into
ASCII (the Kelvin sign to `k`) counts on both; every other character, `?`
included, becomes a space, and so separates words as it fails to match the
regex. `tokenize` drops stopwords and one-character words by one set lookup:
a word is a non-empty `[a-z0-9]` run, so "shorter than two" is "one of the
36 one-character words".

`TfidfTable` keeps an inverted index, built once and never the documents'
token lists:

* term ids, assigned in sorted string order, so id order is term order;
* a doc -> term CSR (`_row_ptr`, `_row_terms`, `_row_weights`) whose weight
  is the term's count in the row times its idf, a float64 multiply;
* term -> row postings, also CSR (`_post_ptr`, `_post_rows`), rows ascending;
* one idf per term, `log(n / (1 + df)) + 1` from `math.log` on Python ints
  (not `np.log`, whose vectorised path may differ in the last bit).

`expansions(q)` and `neighbors(t)` are two views of one co-occurrence
ranking, keyed by a token set: the query's tokens, or `{t}`. It selects the
rows holding every token (else any token) from the postings, then sums the
weights of those rows' CSR slices per term with one `np.bincount`. The slices
are concatenated in ascending row order and `bincount` adds in input order,
so each term's score is `0 + w_r1 + w_r2 + ...` over ascending rows: the same
additions, in the same order, as summing a Counter row by row, and so the
same floats to the last bit. Terms are then ranked with
`np.lexsort((ids, -scores))`; id order is term order, so ties go to the
smaller term. A per-table LRU memo (`RANKING_MEMO_SIZE`) keeps the full
ranking of each token set as a read-only int32 array of term ids, whatever
`j` and `exclude` a call asks for, so the behaviours that ask about one query
again and again rank it once.

`top_terms` reads a turn's result snippets as one text, their `" ".join`: the
space only separates tokens, so the joined text's tokens are the snippets'
tokens in order. A per-table LRU memo (`TERM_VECTOR_MEMO_SIZE`) keeps each
text's term vector: the ids of its known tokens, one per occurrence, and the
tokens the table lacks, such as a word cut at the snippet budget. Each call
then ranks its texts afresh. A term's count comes from one `np.unique` over
the texts' ids, and its score is `count * idf`, one float64 multiply of an
exact integer: the multiply a `Counter` count times the Python idf does. A
token the table lacks scores `count * unseen idf` in Python. Known terms are
ranked with the same lexsort as above. The counts stay sparse: a dense count
per term of the corpus would allocate a vocabulary-sized array on every
ranking.

All three lookups read a ranking by one rule (`_top`). A call leaves out a
set `drop` of ids: the excluded terms, and for a co-occurrence ranking the
key's own tokens. A ranking holds each id once, so at most `len(drop)` of
its first `j + len(drop)` ids are left out. Only that prefix (the whole
ranking for a negative `j`) is turned into strings; the dropped ids leave
it, and the rest is sliced `[:j]`. The tokens `top_terms`' table lacks are
merged into that prefix by the same (score desc, term asc) key, so
`top_terms` returns, bit for bit, what sorting the joined text's `Counter`
returns.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter, defaultdict
from itertools import filterfalse
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Document

# Distinct texts whose term vectors, and distinct token sets whose
# co-occurrence rankings, a TfidfTable remembers.
TERM_VECTOR_MEMO_SIZE = 1024
RANKING_MEMO_SIZE = 64
_NO_IDS = np.zeros(0, np.int32)
_NO_IDS.flags.writeable = False

_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"
# `words`' byte map: every byte but [a-z0-9] becomes a space
_SEPARATORS = bytes(b if chr(b) in _WORD_CHARS else ord(" ") for b in range(256))

STOPWORDS = frozenset(
    """a an the and or not of in on for to is are was were be been being with by
    at from as that this these those it its do does did how what which who whom
    why when where can could should would will shall may might must about into
    over under between against during before after above below up down out off
    than then so if but nor no yes all any both each few more most other some
    such only own same too very s t just don now""".split()
)
# what `tokenize` drops: the stopwords and every one-character word
_DROPPED = STOPWORDS | frozenset(_WORD_CHARS)


def words(text: str) -> list[str]:
    """Lowercase alphanumeric runs: the one word splitter of the package,
    shared by the term statistics and `HashEmbedder`."""
    return text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode("ascii").split()


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, stopwords and single characters dropped."""
    return list(filterfalse(_DROPPED.__contains__, words(text)))


def head_phrase(text: str) -> list[str]:
    """Leading run of content tokens (stops at the first stopword after one)."""
    tokens = words(text)
    head: list[str] = []
    for tok in tokens:
        if tok in _DROPPED:
            if head:
                break
            continue
        head.append(tok)
    return head


def _term_vectors(ids: dict[str, int]) -> Callable[[str], tuple[np.ndarray, tuple[str, ...]]]:
    """`top_terms`' memoised term vectors over one table's term ids.

    A closure, not a bound method, so the memo holds no reference back to
    the table and a dropped table is freed at once.
    """

    @functools.lru_cache(maxsize=TERM_VECTOR_MEMO_SIZE)
    def term_vector(text: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """The ids of a text's known tokens and its tokens the table lacks,
        one entry per occurrence."""
        tokens = tokenize(text)
        known = [i for t in tokens if (i := ids.get(t)) is not None]
        return np.array(known, np.int32), tuple(t for t in tokens if t not in ids)

    return term_vector


def _cooccurrence_ranking(
    ids: dict[str, int],
    post_ptr: np.ndarray,
    post_rows: np.ndarray,
    row_ptr: np.ndarray,
    row_terms: np.ndarray,
    row_weights: np.ndarray,
) -> Callable[[frozenset[str]], np.ndarray]:
    """`expansions`' and `neighbors`' memoised ranking over one table's CSRs.

    A closure, like `_term_vectors`, so the memo holds no reference back to
    the table.
    """

    def postings(term: str) -> np.ndarray:
        """Ascending rows of the documents containing `term`."""
        i = ids.get(term)
        return post_rows[:0] if i is None else post_rows[post_ptr[i] : post_ptr[i + 1]]

    @functools.lru_cache(maxsize=RANKING_MEMO_SIZE)
    def ranking(tokens: frozenset[str]) -> np.ndarray:
        """Ids of the terms with a positive tf*idf summed over the rows holding
        every token (else any token), highest first, ties by id."""
        if not tokens:
            return _NO_IDS
        lists = sorted(map(postings, tokens), key=len)
        rows = lists[0]
        for other in lists[1:]:
            if not len(rows):
                break
            rows = np.intersect1d(rows, other, assume_unique=True)
        if not len(rows):
            rows = np.unique(np.concatenate(lists))
        starts = row_ptr[rows]
        lengths = row_ptr[rows + 1] - starts
        # positions of the rows' CSR slices, concatenated in row order
        pos = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        scores = np.bincount(row_terms[pos], row_weights[pos])
        cand = np.flatnonzero(scores > 0)
        order = cand[np.lexsort((cand, -scores[cand]))].astype(np.int32)
        order.flags.writeable = False
        return order

    return ranking


class TfidfTable:
    """Term statistics over one corpus: idf, postings and per-doc tf*idf weights."""

    def __init__(self, doc_tokens: Iterable[Iterable[str]]):
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
        self._idf = np.array([math.log(n / (1 + d)) + 1.0 for d in df.tolist()])
        self._row_weights = counts.astype(np.float64) * self._idf[self._row_terms]
        # (term, row) keys are distinct, so sorting them lists each term's rows ascending
        self._post_rows = rows[np.argsort(self._row_terms * n + rows)]
        self._post_ptr = np.concatenate(([0], np.cumsum(df)))
        # 0.0 for an empty corpus, where log(0) is undefined and no term scores
        self._unseen_idf = math.log(float(n)) + 1.0 if n else 0.0
        self._term_vector = _term_vectors(self._ids)
        self._cooccurrence = _cooccurrence_ranking(
            self._ids, self._post_ptr, self._post_rows,
            self._row_ptr, self._row_terms, self._row_weights,
        )

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "TfidfTable":
        # each doc's tokens go straight into the id loop, with no list between
        return cls(filterfalse(_DROPPED.__contains__, words(f"{d.title} {d.text}")) for d in documents)

    def _top(self, ranked: np.ndarray, j: int, drop: set[int], scores=None, unknown=()) -> list[str]:
        """The top j of the term ids `ranked` (best first), leaving out the ids
        in `drop`.

        At most len(drop) of the first j + len(drop) ids are left out, so only
        that prefix (all of `ranked`, for a negative j) becomes strings.
        `unknown` holds (-score, term) pairs of tokens the table lacks; they
        are merged into the prefix by that key, `scores[k]` being the score of
        `ranked[k]`.
        """
        if j >= 0:
            ranked = ranked[: j + len(drop)]
        if not unknown:
            return [self._terms[i] for i in ranked.tolist() if i not in drop][:j]
        scored = [
            (-score, self._terms[i])
            for score, i in zip(scores[: len(ranked)].tolist(), ranked.tolist())
            if i not in drop
        ]
        return [t for _, t in sorted([*scored, *unknown])][:j]

    def _ids_of(self, terms: Iterable[str]) -> set[int]:
        return {i for t in terms if (i := self._ids.get(t)) is not None}

    def top_terms(self, texts: Sequence[str], j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Top-j tf*idf terms of some texts, read as one text (`" ".join`),
        highest score first, ties by term."""
        if isinstance(texts, str):
            raise TypeError("top_terms takes a sequence of texts, not one str")
        exclude = frozenset(exclude)
        vectors = [self._term_vector(text) for text in texts]
        found = np.concatenate([_NO_IDS, *(known for known, _ in vectors)])
        term_ids, counts = np.unique(found, return_counts=True)
        scores = counts * self._idf[term_ids]  # positive: an idf is at least 1 - log(2)
        order = np.lexsort((term_ids, -scores))
        unknown = Counter(t for _, missing in vectors for t in missing if t not in exclude)
        # a lacking token scores 0.0 only in an empty corpus, where no term scores
        pairs = [(-c * self._unseen_idf, t) for t, c in unknown.items()] if self._unseen_idf > 0 else []
        return self._top(term_ids[order], j, self._ids_of(exclude), scores[order], pairs)

    def _cooccurring(self, tokens: frozenset[str], j: int, exclude: Iterable[str]) -> list[str]:
        """Top-j of the co-occurrence ranking of `tokens`, leaving out the
        tokens themselves and `exclude`."""
        return self._top(self._cooccurrence(tokens), j, self._ids_of(tokens.union(exclude)))

    def expansions(self, query_text: str, j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Corpus terms that best extend a query.

        Scored by summed tf*idf over documents containing every query token
        (falling back to any-token matches when no document has them all).
        Query tokens themselves are never returned.
        """
        return self._cooccurring(frozenset(tokenize(query_text)), j, exclude)

    def neighbors(self, term: str, j: int, exclude: Iterable[str] = ()) -> list[str]:
        """Terms co-occurring with `term`, scored by summed tf*idf: the
        expansions of a query whose one token is `term`."""
        return self._cooccurring(frozenset((term,)), j, exclude)
