"""Document corpus with a flat (exhaustive) cosine-similarity index.

The index is the reference retrieval backend: every search is an exact scan
over the full matrix of unit-normalised embeddings, scored by cosine
similarity, with ties broken by ascending document id. `CorpusIndex.search` is
the one method that scores a query: the top-k and, when targets are given, the
best target similarity and rank all come from that single score vector. The
top-k is picked by a partial selection (exact flat inner-product search, as in
FAISS `IndexFlatIP`), widened to every score tied with the k-th, so only the
selected rows are sorted. The index is immutable after construction and safe
for concurrent readers.

Ranks are 0-based everywhere; absence of a document is the ``NOT_FOUND``
sentinel, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

NOT_FOUND = -1


class CorpusError(ValueError):
    """Raised for malformed corpora: duplicate ids, missing or bad embeddings."""


@dataclass(frozen=True)
class Document:
    """One corpus unit: unique id, body text, optional title."""

    doc_id: str
    text: str
    title: str = ""

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise CorpusError("document id must be non-empty")
        if not self.text:
            raise CorpusError(f"document {self.doc_id!r} has empty text")


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedResults:
    """Top-k retrieval output: entries sorted by score desc, id asc on ties.

    When the search was given targets, `target_sim` is the best cosine to any
    indexed target (None if none is indexed) and `target_rank` the best
    target's 0-based corpus rank (NOT_FOUND if none is indexed); both are None
    for a search without targets.
    """

    entries: tuple[ScoredDoc, ...]
    k: int
    target_sim: float | None = None
    target_rank: int | None = None

    def __len__(self) -> int:
        return len(self.entries)


def as_embedding(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and coerce a vector to a 1-D float64 array.

    Raises CorpusError for values numpy cannot convert to float64, for any
    shape other than a non-empty vector, and for non-finite entries.
    """
    try:
        vec = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"embedding is not a vector of numbers: {exc}") from exc
    if vec.ndim != 1 or vec.size == 0:
        raise CorpusError(f"embedding must be a non-empty 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise CorpusError("embedding contains non-finite values")
    return vec


@dataclass(frozen=True, eq=False)
class CorpusIndex:
    """Immutable flat index over a document corpus.

    Rows are stored in ascending-id order, so ordering by (-score, row) is
    ordering by score descending, then doc id ascending. The index keeps one
    matrix, the unit rows, plus each row's norm to give back the embedding.
    """

    documents: tuple[Document, ...]
    dim: int
    _unit: np.ndarray = field(repr=False)          # (n, dim) float64 unit rows, id-ascending
    _norms: np.ndarray = field(repr=False)         # (n,) float64 norm of each input row
    _row_of: dict[str, int] = field(repr=False)
    _ids: tuple[str, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.documents)

    def doc(self, doc_id: str) -> Document:
        return self.documents[self._row_of[doc_id]]

    def embedding_of(self, doc_id: str) -> np.ndarray:
        """The document's embedding, rebuilt as unit row times norm.

        That is within about one ulp of the vector given to `build_index`, and
        equal to it after a float32 cast (as `dataio.write_embeddings` does)
        when the input was float32 widened to float64, as ORNE vectors are.
        """
        row = self._row_of[doc_id]
        return self._unit[row] * self._norms[row]

    def _scores(self, query_emb: Sequence[float] | np.ndarray) -> np.ndarray:
        q = as_embedding(query_emb)
        if q.shape[0] != self.dim:
            raise CorpusError(f"query dim {q.shape[0]} does not match index dim {self.dim}")
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise CorpusError("cosine similarity undefined for zero-norm query")
        return self._unit @ (q / qn)

    def search(
        self,
        query_emb: Sequence[float] | np.ndarray,
        k: int,
        target_ids: Iterable[str] = (),
    ) -> RankedResults:
        """Exact top-k by cosine similarity; ties broken by ascending doc id.

        A target's rank is its position in the full ordering: the count of
        higher scores plus the count of equal scores on smaller ids. The target
        with the highest score, then the smallest id, has the lowest rank.
        """
        if k < 1:
            raise CorpusError(f"k must be >= 1, got {k}")
        scores = self._scores(query_emb)
        n = scores.shape[0]
        kk = min(k, n)
        if kk < n:
            # every score tied with the k-th is kept, so the id tie-break
            # below picks among all of them
            kth = np.partition(scores, n - kk)[n - kk]
            rows = np.flatnonzero(scores >= kth)
        else:
            rows = np.arange(n)
        order = rows[np.lexsort((rows, -scores[rows]))][:kk]
        entries = tuple(ScoredDoc(self._ids[i], float(scores[i])) for i in order)
        targets = set(target_ids)
        if not targets:
            return RankedResults(entries=entries, k=k)
        rows = sorted(self._row_of[t] for t in targets if t in self._row_of)
        if not rows:
            return RankedResults(entries=entries, k=k, target_rank=NOT_FOUND)
        # argmax takes the first maximum, i.e. the smallest id among tied targets
        best = rows[int(np.argmax(scores[rows]))]
        s = scores[best]
        rank = int(np.count_nonzero(scores > s)) + int(np.count_nonzero(scores[:best] == s))
        return RankedResults(entries=entries, k=k, target_sim=float(s), target_rank=rank)


def build_index(
    documents: Iterable[Document],
    embeddings: Mapping[str, Sequence[float] | np.ndarray],
) -> CorpusIndex:
    """Build an immutable flat index.

    Every document must have exactly one embedding and all embeddings must
    share one dimension; duplicate ids and embeddings for ids that are not in
    the corpus are rejected.
    """
    docs = sorted(documents, key=lambda d: d.doc_id)
    if not docs:
        raise CorpusError("corpus is empty")
    seen: set[str] = set()
    for d in docs:
        if d.doc_id in seen:
            raise CorpusError(f"duplicate id {d.doc_id!r}")
        seen.add(d.doc_id)
    unknown = sorted(set(embeddings) - seen)
    if unknown:
        raise CorpusError(
            f"{len(unknown)} embeddings for docs not in the corpus, first {unknown[:3]}"
        )

    vectors: list[np.ndarray] = []
    dim: int | None = None
    for d in docs:
        if d.doc_id not in embeddings:
            raise CorpusError(f"missing embedding for doc {d.doc_id!r}")
        try:
            vec = as_embedding(embeddings[d.doc_id])
        except CorpusError as exc:
            raise CorpusError(f"doc {d.doc_id!r}: {exc}") from exc
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise CorpusError(
                f"dimension mismatch for doc {d.doc_id!r}: {vec.shape[0]} vs {dim}"
            )
        vectors.append(vec)
    assert dim is not None

    matrix = np.vstack(vectors)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        bad = [docs[i].doc_id for i in np.nonzero(norms[:, 0] == 0.0)[0]]
        raise CorpusError(f"zero-norm embedding for docs {bad}")
    matrix /= norms

    return CorpusIndex(
        documents=tuple(docs),
        dim=dim,
        _unit=matrix,
        _norms=norms[:, 0],
        _row_of={d.doc_id: i for i, d in enumerate(docs)},
        _ids=tuple(d.doc_id for d in docs),
    )
