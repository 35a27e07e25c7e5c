"""Query/document embedders: a deterministic hashing embedder and a service client.

The engine never trains or hosts an embedding model. Corpus vectors normally
come from precomputed files; for live query embedding there are two backends:

* ``HashEmbedder`` — signed feature-hashing bag of words. Fully deterministic
  (its only state is a memo of token codes), which makes desk-scale
  experiments reproducible bit-for-bit.
* ``EmbeddingServiceClient`` — POSTs ``{"input": [...texts], "model": name}``
  to a configurable endpoint and expects ``{"data": [{"embedding": [...]}]}``.
  The API key is read from ``ORION_EMBED_API_KEY`` unless given explicitly.

A ``HashEmbedder`` memoises each token as one int code, its bucket plus
``dim`` when its sign is negative, so a token is hashed once per embedder. A
call counts its tokens' codes with one ``np.bincount`` over ``2 * dim`` slots
and subtracts the negative counts from the positive ones, into float64. That
gives each bucket, to the bit, the float that adding +-1.0 per token to +0.0
gives, in any order: every partial sum is a small integer, exact in float64,
and signs that cancel leave +0.0, never -0.0. The norm the vector is divided
by is also the test for the fallback bucket: a vector of integer counts has
norm 0.0 when every count is 0, and at least 1.0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Callable, Sequence

import numpy as np

from .corpus import CorpusError, as_embedding
from .vocab import words

EMBED_KEY_ENV = "ORION_EMBED_API_KEY"
# the first 9 bytes of a token's sha1: its bucket's 8 bytes, then its sign byte
_DIGEST_HEAD = struct.Struct("<QB")


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


class _TokenCodes(dict):
    """One `HashEmbedder`'s memo: token -> code, filled on first lookup.

    A code is the token's bucket, plus `dim` when its sign is negative, both
    read from the token's sha1: the bucket from its first 8 bytes (little
    endian, mod `dim`), the sign from the low bit of its 9th byte.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        head, sign_byte = _DIGEST_HEAD.unpack_from(hashlib.sha1(token.encode("utf-8")).digest())
        code = self[token] = head % self.dim + (sign_byte & 1) * self.dim
        return code


class HashEmbedder:
    """Signed feature-hashing bag-of-words embedder.

    Each token (`vocab.words`, the word splitter the term statistics use) is
    hashed (sha1, stable across processes) to a bucket and a sign; token
    counts accumulate and the vector is L2-normalized. Signed hashing keeps
    E[collision noise] near zero and produces vectors whose cosines can go
    negative, exercising both similarity branches downstream (feature
    hashing, Weinberger et al., arXiv:0902.2206).

    Each instance memoises token -> code (`_TokenCodes`), and counts codes
    with one `np.bincount` per call (see the module docstring); the memo
    grows with the vocabulary it has seen, and no memo is shared between
    instances. Threads may share an instance: a race only hashes a token
    twice, to the same code.
    """

    def __init__(self, dim: int = 384):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._code = _TokenCodes(dim).__getitem__

    def __call__(self, text: str) -> np.ndarray:
        dim = self.dim
        counts = np.bincount(list(map(self._code, words(text))), minlength=2 * dim)
        vec = (counts[:dim] - counts[dim:]).astype(np.float64)
        norm = np.linalg.norm(vec)
        if not norm:
            # keep zero-information queries embeddable: a fixed fallback bucket
            vec[0] = norm = 1.0
        return vec / norm

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
