from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from orion.embed import EmbeddingServiceClient, EmbeddingServiceError, HashEmbedder


def _inline_hash_embedding(text: str, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        vec[bucket] += 1.0 if digest[8] % 2 == 0 else -1.0
    if not vec.any():
        vec[0] = 1.0
    return vec / np.linalg.norm(vec)


def test_hash_memo_leaves_vectors_bitwise_equal():
    texts = [
        "Solar panels on the rooftop, solar again",
        "wind turbines offshore wind wind",
        "?!",  # no tokens: the fallback bucket
        "rooftop turbines solar panels",
    ]
    for dim in (7, 384):
        embedder = HashEmbedder(dim)
        cold = [embedder(t) for t in texts]
        warm = [embedder(t) for t in texts]
        fresh = [HashEmbedder(dim)(t) for t in texts]
        batch = HashEmbedder(dim).embed_batch(texts)
        for text, a, b, c, d in zip(texts, cold, warm, fresh, batch, strict=True):
            expected = _inline_hash_embedding(text, dim)
            for vec in (a, b, c, d):
                assert vec.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "vector, cause",
    [
        ("abc", "embedding is not a vector of numbers"),
        ([1.0, math.nan], "embedding contains non-finite values"),
        ([[1.0], [2.0]], "got shape (2, 1)"),
        ([], "got shape (0,)"),
    ],
    ids=["text", "nan", "matrix", "empty"],
)
def test_a_bad_service_vector_is_a_service_error_naming_its_item(vector, cause):
    reply = {"data": [{"embedding": [0.6, 0.8]}, {"embedding": vector}]}
    client = EmbeddingServiceClient("http://localhost:1/embed", "m", post=lambda payload: reply)
    with pytest.raises(EmbeddingServiceError) as info:
        client.embed_batch(["first", "second"])
    assert str(info.value).startswith("embedding 1 from http://localhost:1/embed: ")
    assert cause in str(info.value)
