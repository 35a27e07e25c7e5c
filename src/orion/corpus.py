"""Document corpus with a flat (exhaustive) cosine-similarity index.

The index is the reference retrieval backend: every search is exact over the
full corpus, scored by cosine similarity, with ties broken by ascending
document id (exact flat inner-product search, as in FAISS `IndexFlatIP`).
Ranks are 0-based everywhere; absence of a document is the ``NOT_FOUND``
sentinel, not an error.

A logged score is, to the bit, the one a full BLAS scan of the C-contiguous
unit matrix gives: ``unit @ q̂`` with ``q̂ = q / ‖q‖``. `CorpusIndex.search`,
the one method that scores a query, computes it for only the few rows that
reach an answer, in one pass:

* **Sparse screen.** The index keeps the unit matrix transposed (``UT``,
  dim × n) and sums each row over the query's nonzero dimensions only,
  ``q̂[nz] @ UT[nz]``. A hashed bag-of-words query touches a handful of the
  dimensions (signed feature hashing, Weinberger et al., arXiv:0902.2206),
  so this reads a small slice of the matrix. A query nonzero on more than a
  third of the dimensions (a dense service embedding, say) is screened as
  ``q̂ @ UT`` in place: copying its rows would cost more than reading the
  whole matrix. Each side of a dot product of unit vectors errs by at most
  γ_dim·Σ|u_j q̂_j| ≤ γ_dim, so every screen score is within
  ``eps = 4·dim·2⁻⁵³`` of the full scan's.
* **Band.** Exact scores overwrite the screen where it cannot decide: the
  rows within ``2·eps`` of the k-th screen score (and above it), and, with
  targets, the rows within ``2·eps`` of the best target's screen score. The
  top-k, the best target and its rank are then read off the patched vector
  by the plain rules. Every other row is more than ``eps`` from each answer,
  so it compares with it the same way whatever its last bits are. A row the
  query does not touch scores exactly +0.0 on both sides and is never
  recomputed.
* **Padding rule.** The exact scores come from one gather per search,
  ``UT.T[rows] @ q̂``, padded to a multiple of 4 rows; when it needs any of
  the matrix's last ``n % 4`` rows, it ends with those rows and the 4 before
  them. OpenBLAS's ``dgemv_t`` computes 4 rows per kernel call and the last
  ``n % 4`` in smaller kernels, and a row gets the same bits whenever it
  meets the same kernel, so the gather reproduces the full scan's bits. That
  rests on the library's blocking, not on IEEE arithmetic alone, so
  `tests/test_corpus.py` checks it against one full scan as a canary. The
  reference is the single-threaded full scan, and logged scores no longer
  depend on the BLAS thread count: the gathers are far too small for
  OpenBLAS to split across threads. A full scan it does split (2501 × 384
  with 2 threads, for one) can differ from the single-threaded one in the
  last bit of a few rows, so logs a full scan wrote on a large corpus with
  several BLAS threads may differ from these in the last bit. Once logged
  scores are defined by a fixed-order sum of their own, the band and the
  rule go away.

`build_index` checks the embeddings a block of rows at a time: a block of
number arrays of the first document's length costs one stack and one
finiteness test. Only a block that fails the check is checked again one
document at a time, so that the error still names the document whose
embedding is missing, not a vector of numbers, of the wrong length or not
finite. Zero norms are named from the norms the normalisation computes.

The index is immutable after construction and safe for concurrent readers:
each search screens into an array of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

NOT_FOUND = -1

# rows `build_index` normalises at a time
BUILD_BLOCK = 1024


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
    target_sim: float | None = None
    target_rank: int | None = None


def as_embedding(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and coerce a vector to a 1-D float64 array.

    Raises CorpusError for values that are not numbers, for any shape other
    than a non-empty vector, and for non-finite entries. "Not numbers" is
    read off the dtype numpy infers: a string, bool or complex dtype is
    refused, so a JSON vector of strings or of booleans is an error, not a
    vector of their float values. Ints convert to the nearest float64; ints
    beyond int64 infer an object dtype and are accepted the same way, while
    an object dtype holding anything but Python ints and floats (None, a
    string) is refused. Input that is not an ndarray is also refused if any
    element is a bool. An ndarray of numbers costs only the dtype check.
    """
    try:
        vec = np.asarray(values)
        kind = vec.dtype.kind
        if kind not in "fiuO" or (kind == "O" and not {type(x) for x in vec.flat} <= {int, float}):
            raise TypeError(f"dtype {vec.dtype}")
        # a boolean among numbers infers a number dtype
        if vec.ndim == 1 and not isinstance(values, np.ndarray):
            if not {bool, np.bool_}.isdisjoint(map(type, values)):
                raise TypeError("a boolean element")
        vec = vec.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorpusError(f"embedding is not a vector of numbers: {exc}") from exc
    if vec.ndim != 1 or vec.size == 0:
        raise CorpusError(f"embedding must be a non-empty 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise CorpusError("embedding contains non-finite values")
    return vec


def padded_gather(n: int, rows: list[int]) -> tuple[list[int], list[int]]:
    """The padding rule: which rows of an n-row matrix to gather so that a
    matvec over the gathered rows gives each of `rows` (ascending) the bits
    of the full matvec, and where each of `rows` lands in the gather.

    Rows before the last n % 4 are padded to a multiple of 4 with copies of
    the first; if any of the last n % 4 is wanted, the gather ends with
    those rows and the 4 before them.
    """
    cut = n - n % 4
    head = [r for r in rows if r < cut]
    gather = head + head[:1] * (-len(head) % 4)
    at = list(range(len(head)))
    if len(head) < len(rows):
        gather += range(max(cut - 4, 0), n)
        at += [len(gather) - n + r for r in rows[len(head) :]]
    return gather, at


@dataclass(frozen=True, eq=False)
class CorpusIndex:
    """Immutable flat index over a document corpus.

    Rows are stored in ascending-id order, so ordering by (-score, row) is
    ordering by score descending, then doc id ascending. The index keeps one
    matrix, the unit rows transposed, plus each row's norm to give back the
    embedding.
    """

    documents: tuple[Document, ...]
    dim: int
    _ut: np.ndarray = field(repr=False)            # (dim, n) float64 unit rows as columns, id-ascending
    _norms: np.ndarray = field(repr=False)         # (n,) float64 norm of each input row
    _row_of: dict[str, int] = field(repr=False)
    _ids: tuple[str, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def eps(self) -> float:
        """Bound on |screen score - full-scan score| for any row."""
        return 4 * self.dim * 2.0**-53

    def doc(self, doc_id: str) -> Document:
        return self.documents[self._row_of[doc_id]]

    def embedding_of(self, doc_id: str) -> np.ndarray:
        """The document's embedding, rebuilt as unit row times norm.

        That is within about one ulp of the vector given to `build_index`, and
        equal to it after a float32 cast (as `dataio.write_embeddings` does)
        when the input was float32, as ORNE vectors are: `build_index` widens
        them to float64 when it stacks them, and keeps no float32 copy.
        """
        row = self._row_of[doc_id]
        return self._ut[:, row] * self._norms[row]

    def _screen(
        self, query_emb: Sequence[float] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit query, its nonzero dimensions ascending, every row's screen
        score). A sparse query copies only its nonzero rows of the transposed
        matrix; one nonzero on more than a third of the dimensions reads the
        whole matrix in place."""
        q = as_embedding(query_emb)
        if q.shape[0] != self.dim:
            raise CorpusError(f"query dim {q.shape[0]} does not match index dim {self.dim}")
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise CorpusError("cosine similarity undefined for zero-norm query")
        unit = q / qn
        dims = np.flatnonzero(unit)
        if 3 * dims.size > self.dim:
            # copy and read cost the same near a third of the dims, timed at
            # 5000 x 384 and 2000 x 128; a dense service embedding copying
            # every row would cost about 3x the in-place read
            return unit, dims, unit @ self._ut
        return unit, dims, unit[dims] @ self._ut[dims]

    def _exact(
        self, unit: np.ndarray, dims: np.ndarray, screen: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The full-scan scores of `rows` (ascending), to the bit.

        A row whose screen score is not 0.0 touches the query; of the rest,
        those with a nonzero value on one of the query's dimensions do too.
        An untouched row scores +0.0 and is not recomputed. The touched ones
        are recomputed in one gather by the padding rule.
        """
        exact = np.zeros(rows.size)
        touched = screen[rows] != 0.0
        if not touched.all():
            zero = ~touched
            touched[zero] = np.any(self._ut[np.ix_(dims, rows[zero])] != 0.0, axis=0)
        todo = rows[touched].tolist()
        if todo:
            gather, at = padded_gather(len(self), todo)
            exact[touched] = (self._ut.T[gather] @ unit)[at]
        return exact

    def search(
        self,
        query_emb: Sequence[float] | np.ndarray,
        k: int,
        target_ids: Iterable[str] = (),
    ) -> RankedResults:
        """Exact top-k by cosine similarity, ties broken by ascending doc id,
        plus the best target's similarity and rank (see the module docstring).

        A target's rank is its position in the full ordering: the count of
        higher scores plus the count of equal scores on smaller ids. The target
        with the highest score, then the smallest id, has the lowest rank.
        """
        if k < 1:
            raise CorpusError(f"k must be >= 1, got {k}")
        unit, dims, s = self._screen(query_emb)
        n = s.shape[0]
        kk = min(k, n)
        band = 2 * self.eps
        # every row that may tie with or pass the k-th, so the id tie-break
        # below picks among all of them (every row, when k covers the corpus)
        kth = s.max() if kk == 1 else np.partition(s, n - kk)[n - kk]
        band_rows = s >= kth - band
        top = np.flatnonzero(band_rows)
        targets = set(target_ids)
        trows = np.array(sorted(self._row_of[t] for t in targets if t in self._row_of), dtype=int)
        rows = top
        if trows.size:
            # and the rows that may tie with or pass the best target
            near = s[trows].max()
            band_rows |= (s >= near - band) & (s <= near + band)
            rows = np.flatnonzero(band_rows)
        # the screen is this call's own: patch both bands with exact scores; a
        # row outside them is more than eps from every answer, so it compares
        # with each the same way whether its score is exact or not
        s[rows] = self._exact(unit, dims, s, rows)
        order = np.lexsort((top, -s[top]))[:kk]
        entries = tuple(ScoredDoc(self._ids[i], float(s[i])) for i in top[order].tolist())
        if not targets:
            return RankedResults(entries=entries)
        if not trows.size:
            return RankedResults(entries=entries, target_rank=NOT_FOUND)
        # argmax takes the first maximum, i.e. the smallest id among tied targets
        best = trows[np.argmax(s[trows])]
        b = s[best]
        rank = int(np.count_nonzero(s > b)) + int(np.count_nonzero(s[:best] == b))
        return RankedResults(entries=entries, target_sim=float(b), target_rank=rank)


Embeddings = Mapping[str, Sequence[float] | np.ndarray]


def _checked(doc: Document, embeddings: Embeddings, dim: int | None) -> np.ndarray:
    """`doc`'s embedding by the rules of `as_embedding`, of length `dim`
    (None: any length), or a CorpusError that names the doc."""
    if doc.doc_id not in embeddings:
        raise CorpusError(f"missing embedding for doc {doc.doc_id!r}")
    try:
        vec = as_embedding(embeddings[doc.doc_id])
    except CorpusError as exc:
        raise CorpusError(f"doc {doc.doc_id!r}: {exc}") from exc
    if dim is not None and vec.shape[0] != dim:
        raise CorpusError(f"dimension mismatch for doc {doc.doc_id!r}: {vec.shape[0]} vs {dim}")
    return vec


def _stacked(docs: Sequence[Document], embeddings: Embeddings, dim: int) -> np.ndarray:
    """The embeddings of `docs` as the float64 rows of a new array; float32
    vectors (ORNE views) widen exactly.

    A block of number arrays of length `dim` is checked as a whole, by one
    finiteness test. Any other block (one with a missing doc, a list, or a
    row that fails) is checked one doc at a time, so that an error names the
    first doc at fault.
    """
    vectors = [embeddings.get(d.doc_id) for d in docs]
    if all(isinstance(v, np.ndarray) and v.dtype.kind in "fiu" and v.shape == (dim,) for v in vectors):
        block = np.array(vectors, dtype=np.float64)
        if np.isfinite(block).all():
            return block
    return np.array([_checked(d, embeddings, dim) for d in docs])


def build_index(documents: Iterable[Document], embeddings: Embeddings) -> CorpusIndex:
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

    # checked and normalised a block of rows at a time: beside the caller's
    # embeddings, a whole-matrix build (stack, divide, transpose) would hold
    # a third full copy, this holds two; a row's norm and divide do not
    # depend on the rows around it, so every unit value has the bits a
    # whole-matrix build gives
    n = len(docs)
    dim = _checked(docs[0], embeddings, None).shape[0]
    ut = np.empty((dim, n))
    norms = np.empty(n)
    bad: list[str] = []
    for lo in range(0, n, BUILD_BLOCK):
        block = _stacked(docs[lo : lo + BUILD_BLOCK], embeddings, dim)
        bnorms = np.linalg.norm(block, axis=1, keepdims=True)
        bad += [docs[lo + i].doc_id for i in np.flatnonzero(bnorms[:, 0] == 0.0)]
        if not bad:
            block /= bnorms
            ut[:, lo : lo + BUILD_BLOCK] = block.T
            norms[lo : lo + BUILD_BLOCK] = bnorms[:, 0]
    if bad:
        raise CorpusError(f"zero-norm embedding for docs {bad}")

    return CorpusIndex(
        documents=tuple(docs),
        dim=dim,
        _ut=ut,
        _norms=norms,
        _row_of={d.doc_id: i for i, d in enumerate(docs)},
        _ids=tuple(d.doc_id for d in docs),
    )
