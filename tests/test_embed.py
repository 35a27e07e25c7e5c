from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hard_texts
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


def _cancelling_pair(dim: int) -> tuple[str, str]:
    """Two words that hash to one bucket with opposite signs at `dim`."""
    seen: dict[int, tuple[str, float]] = {}
    for i in range(10_000):
        word = f"c{i}"
        vec = _inline_hash_embedding(word, dim)
        bucket = int(np.flatnonzero(vec)[0])
        if bucket in seen and seen[bucket][1] == -vec[bucket]:
            return seen[bucket][0], word
        seen.setdefault(bucket, (word, vec[bucket]))
    raise AssertionError(f"no cancelling pair at dim {dim}")


CANCELLING = {dim: _cancelling_pair(dim) for dim in (7, 384)}
# hard text, with both words of each cancelling pair mixed in, so some texts'
# tokens cancel to the fallback bucket and some buckets to +0.0
embed_texts = st.lists(
    st.one_of(hard_texts, st.sampled_from([w for pair in CANCELLING.values() for w in pair])), max_size=6
).map(" ".join)


def test_tokens_that_cancel_give_the_fallback_bucket():
    for dim, (plus, minus) in CANCELLING.items():
        for text in (f"{plus} {minus}", f"{minus}, {plus.upper()}!", "", "?!"):
            vec = HashEmbedder(dim)(text)
            assert vec.tobytes() == _inline_hash_embedding(text, dim).tobytes()
            assert vec[0] == 1.0 and not vec[1:].any()


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(embed_texts, min_size=1, max_size=4))
def test_hash_embeddings_equal_the_inline_loop_cold_warm_and_batched(texts):
    for dim in (7, 384):
        want = [_inline_hash_embedding(text, dim).tobytes() for text in texts]
        shared = HashEmbedder(dim)
        cold = [HashEmbedder(dim)(text).tobytes() for text in texts]
        first = [shared(text).tobytes() for text in texts]
        warm = [shared(text).tobytes() for text in texts]
        batch = [vec.tobytes() for vec in HashEmbedder(dim).embed_batch(texts)]
        assert cold == first == warm == batch == want


@pytest.mark.parametrize(
    "vector, cause",
    [
        ("abc", "embedding is not a vector of numbers"),
        (["1", "2"], "embedding is not a vector of numbers: dtype <U1"),
        ([True, False, True], "embedding is not a vector of numbers: dtype bool"),
        ([2**70, "1"], "embedding is not a vector of numbers: dtype object"),
        ([0.5, True], "embedding is not a vector of numbers: a boolean element"),
        ([1.0, math.nan], "embedding contains non-finite values"),
        ([[1.0], [2.0]], "got shape (2, 1)"),
        ([], "got shape (0,)"),
    ],
    ids=["text", "numeric-strings", "booleans", "big-int-and-string", "number-and-boolean", "nan",
         "matrix", "empty"],
)
def test_a_bad_service_vector_is_a_service_error_naming_its_item(vector, cause):
    reply = {"data": [{"embedding": [0.6, 0.8]}, {"embedding": vector}]}
    client = EmbeddingServiceClient("http://localhost:1/embed", "m", post=lambda payload: reply)
    with pytest.raises(EmbeddingServiceError) as info:
        client.embed_batch(["first", "second"])
    assert str(info.value).startswith("embedding 1 from http://localhost:1/embed: ")
    assert cause in str(info.value)
