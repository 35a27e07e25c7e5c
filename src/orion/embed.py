"""Query/document embedders: a deterministic hashing embedder and a service client.

The engine never trains or hosts an embedding model. Corpus vectors normally
come from precomputed files; for live query embedding there are two backends:

* ``HashEmbedder`` — signed feature-hashing bag of words. Fully deterministic
  (its only state is a memo of token hashes), which makes desk-scale
  experiments reproducible bit-for-bit.
* ``EmbeddingServiceClient`` — POSTs ``{"input": [...texts], "model": name}``
  to a configurable endpoint and expects ``{"data": [{"embedding": [...]}]}``.
  The API key is read from ``ORION_EMBED_API_KEY`` unless given explicitly.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Sequence

import numpy as np

from .corpus import CorpusError, as_embedding
from .vocab import words

EMBED_KEY_ENV = "ORION_EMBED_API_KEY"


class EmbeddingServiceError(RuntimeError):
    """Transport failure or malformed response from the embedding service."""


def post_json(
    url: str, payload: dict, api_key: str | None, timeout: float, error: type[Exception]
) -> dict:
    """POST `payload` as JSON and return the decoded reply.

    The API key, when set, goes in a bearer header. Any transport, HTTP-status
    or JSON-decode failure is re-raised as `error`.
    """
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        resp.raise_for_status()
        return resp.json()
    except requests.RequestException as exc:  # transport, HTTP status, or JSON decode
        raise error(f"request to {url} failed: {exc}") from exc


class HashEmbedder:
    """Signed feature-hashing bag-of-words embedder.

    Each token (`vocab.words`, the word splitter the term statistics use) is
    hashed (sha1, stable across processes) to a bucket and a sign; token
    counts accumulate and the vector is L2-normalized. Signed hashing keeps
    E[collision noise] near zero and produces vectors whose cosines can go
    negative, exercising both similarity branches downstream (feature
    hashing, Weinberger et al., arXiv:0902.2206).

    Each instance memoises token -> (bucket, sign), so a token is hashed once
    per embedder; the memo grows with the vocabulary it has seen. Vectors are
    unchanged: a bucket sums +-1.0 values, which is exact in any order.
    Threads may share an instance: a race only hashes a token twice, to the
    same value.
    """

    def __init__(self, dim: int = 384):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._memo: dict[str, tuple[int, float]] = {}

    def _hash(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "little") % self.dim
        return bucket, 1.0 if digest[8] % 2 == 0 else -1.0

    def __call__(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        memo = self._memo
        for token in words(text):
            hashed = memo.get(token)
            if hashed is None:
                hashed = memo[token] = self._hash(token)
            bucket, sign = hashed
            vec[bucket] += sign
        if not vec.any():
            # keep zero-information queries embeddable: a fixed fallback bucket
            vec[0] = 1.0
        return vec / np.linalg.norm(vec)

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self(text) for text in texts]


class EmbeddingServiceClient:
    """Client for the prevailing embeddings wire convention."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        post: Callable[..., dict] | None = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(EMBED_KEY_ENV)
        self.timeout = timeout
        self._post = post or self._requests_post

    def _requests_post(self, payload: dict) -> dict:
        return post_json(self.endpoint, payload, self.api_key, self.timeout, EmbeddingServiceError)

    def embed_batch(self, texts: Sequence[str]) -> list[np.ndarray]:
        payload = {"input": list(texts), "model": self.model}
        body = self._post(payload)
        try:
            vectors = [item["embedding"] for item in body["data"]]
        except (KeyError, TypeError) as exc:
            raise EmbeddingServiceError(f"malformed embedding response: {exc}") from exc
        if len(vectors) != len(texts):
            raise EmbeddingServiceError(f"expected {len(texts)} embeddings, got {len(vectors)}")
        for i, values in enumerate(vectors):
            try:
                vectors[i] = as_embedding(values)
            except CorpusError as exc:
                raise EmbeddingServiceError(f"embedding {i} from {self.endpoint}: {exc}") from exc
        return vectors

    def __call__(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]
