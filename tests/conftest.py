from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from orion.archetypes import PolicyResources
from orion.corpus import CorpusError, Document, RankedResults, as_embedding, build_index
from orion.embed import HashEmbedder
from orion.engine import Retriever
from orion.vocab import TfidfTable

# A three-level topic tree: five breadth fillers at depth one, one depth-two
# document, two depth-three documents, and two off-path documents. Expansion
# chains are unambiguous by construction: "neural" co-occurs with the head in
# eight docs, "transformers" in three, "attention" in two.
TREE_DOCS = [
    Document("f1", "machine learning neural alpha"),
    Document("f2", "machine learning neural bravo"),
    Document("f3", "machine learning neural carol"),
    Document("f4", "machine learning neural delta"),
    Document("f5", "machine learning neural echos"),
    Document("t2", "machine learning neural transformers guide"),
    Document("t3a", "machine learning neural transformers attention layers"),
    Document("t3b", "machine learning neural transformers attention heads extra"),
    Document("o1", "machine learning decision trees ensemble"),
    Document("o2", "machine learning clustering unsupervised methods"),
]

TREE_QUERY = "machine learning for beginners"

# Text a splitter must get right: case, digits, punctuation and runs of
# separators, letters that lowercase to more than one code point (U+0130) or
# into ASCII (the Kelvin sign U+212A), other non-ASCII letters and lone
# surrogates, among arbitrary code points.
HARD_PIECES = [
    "The", "OF", "a", "X", "don", "Solar", "PANELS", "42", "b2B", "x86_64", "C++", "e-mail",
    "U.S.A.", "  ", "--", "\t\n", "!?", "é", "ß", "Straße", "café", "\u0130", "\u0130stanbul",
    "\u212a", "\u212aelvin", "\ud800", "\udfff", "\U0001f600",
]
hard_texts = st.lists(
    st.one_of(st.sampled_from(HARD_PIECES), st.text(max_size=6)), max_size=14
).flatmap(lambda pieces: st.sampled_from(["", " ", "-"]).map(lambda sep: sep.join(pieces)))


@pytest.fixture(scope="session")
def tree_retriever() -> Retriever:
    embedder = HashEmbedder(dim=2048)
    embeddings = {d.doc_id: embedder(d.text) for d in TREE_DOCS}
    index = build_index(TREE_DOCS, embeddings)
    return Retriever(index, embedder)


@pytest.fixture(scope="session")
def tree_vocab() -> TfidfTable:
    return TfidfTable.from_documents(TREE_DOCS)


@pytest.fixture(scope="session")
def tree_resources(tree_retriever, tree_vocab) -> PolicyResources:
    return PolicyResources(vocab=tree_vocab, probe=tree_retriever.best_similarity)


def make_stub_retriever(
    doc_vectors: dict[str, np.ndarray | list[float]],
    query_vectors: dict[str, np.ndarray | list[float]],
    texts: dict[str, str] | None = None,
) -> Retriever:
    """Retriever over hand-set vectors; queries embed by exact text lookup."""
    texts = texts or {}
    docs = [Document(doc_id, texts.get(doc_id, f"text of {doc_id}")) for doc_id in doc_vectors]
    index = build_index(docs, {k: np.asarray(v, dtype=float) for k, v in doc_vectors.items()})

    def embed(text: str) -> np.ndarray:
        return np.asarray(query_vectors[text], dtype=float)

    return Retriever(index, embed)


def axis(dim: int, i: int, scale: float = 1.0) -> np.ndarray:
    vec = np.zeros(dim)
    vec[i] = scale
    return vec


def mix(dim: int, *components: tuple[int, float]) -> np.ndarray:
    vec = np.zeros(dim)
    for i, w in components:
        vec[i] = w
    return vec


def write_corpus(docs: Iterable[Document], path: str | Path) -> None:
    """Write a JSON Lines corpus that `dataio.read_corpus` reads back."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"_id": d.doc_id, "title": d.title, "text": d.text}) + "\n")


def doc_ids(results: RankedResults) -> list[str]:
    return [e.doc_id for e in results.entries]


def cosine_similarity(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Raises CorpusError on dimension mismatch or a zero-norm input.
    """
    va, vb = as_embedding(a), as_embedding(b)
    if va.shape != vb.shape:
        raise CorpusError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise CorpusError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(va, vb) / (na * nb))
