from __future__ import annotations

import struct

import numpy as np
import pytest

from orion import dataio
from orion.corpus import CorpusError, Document


def test_corpus_round_trip(tmp_path):
    docs = [
        Document("d1", "first body", title="First"),
        Document("d2", "second body"),
    ]
    path = tmp_path / "corpus.jsonl"
    dataio.write_corpus(docs, path)
    assert dataio.read_corpus(path) == docs


def test_corpus_requires_id_and_text(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"title": "no id"}\n')
    with pytest.raises(CorpusError, match="_id"):
        dataio.read_corpus(path)


def test_qrels_with_and_without_header(tmp_path):
    body = "q1\td1\t2\nq1\td2\t0\nq2\td3\t1\n"
    plain = tmp_path / "plain.tsv"
    plain.write_text(body)
    headered = tmp_path / "headered.tsv"
    headered.write_text("query-id\tdoc-id\tscore\n" + body)
    expected = {"q1": {"d1": 2, "d2": 0}, "q2": {"d3": 1}}
    assert dataio.read_qrels(plain) == expected
    assert dataio.read_qrels(headered) == expected


def test_qrels_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("q1\td1\t1\nq2\td2\toops\n")
    with pytest.raises(CorpusError, match="non-integer"):
        dataio.read_qrels(path)


def test_queries(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"_id": "q1", "text": "what is x"}\n{"_id": "q2", "text": "y"}\n')
    assert dataio.read_queries(path) == [("q1", "what is x"), ("q2", "y")]


def test_binary_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    embeddings = {f"doc/{i}": rng.normal(size=6) for i in range(5)}
    embeddings["unicode-é中"] = rng.normal(size=6)
    path = tmp_path / "emb.orne"
    dataio.write_embeddings(embeddings, path)
    loaded = dataio.read_embeddings(path)
    assert set(loaded) == set(embeddings)
    for key, vec in embeddings.items():
        # stored as f32, read back widened
        np.testing.assert_allclose(loaded[key], vec, atol=1e-6)


def test_binary_header_fields(tmp_path):
    path = tmp_path / "emb.orne"
    dataio.write_embeddings({"a": np.ones(3)}, path)
    raw = path.read_bytes()
    assert raw[:4] == b"ORNE"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 3  # dim
    assert int.from_bytes(raw[12:20], "little") == 1  # count


def test_jsonl_embedding_fallback(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "d1", "vector": [1.0, 2.0]}\n{"id": "d2", "vector": [0.5, -1.0]}\n')
    loaded = dataio.read_embeddings(path)
    np.testing.assert_array_equal(loaded["d1"], [1.0, 2.0])
    np.testing.assert_array_equal(loaded["d2"], [0.5, -1.0])


def test_bad_magic_is_reported(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(Exception):  # not valid binary nor JSON lines
        dataio.read_embeddings(path)


def test_truncated_binary(tmp_path):
    path = tmp_path / "emb.orne"
    dataio.write_embeddings({"a": np.ones(4)}, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorpusError, match="truncated"):
        dataio.read_embeddings(path)


def _orne(records: list[tuple[bytes, list[float]]], dim: int = 2) -> bytes:
    body = b"".join(
        struct.pack("<I", len(raw_id)) + raw_id + np.asarray(vec, dtype="<f4").tobytes()
        for raw_id, vec in records
    )
    return b"ORNE" + struct.pack("<IIQ", 1, dim, len(records)) + body


@pytest.mark.parametrize(
    "reader, name",
    [
        (dataio.read_queries, "queries.jsonl"),
        (dataio.read_embeddings, "emb.jsonl"),
        (lambda path: list(dataio.read_jsonl(path)), "episodes.jsonl"),
    ],
)
def test_invalid_json_line_names_file_and_line(tmp_path, reader, name):
    path = tmp_path / name
    path.write_text('{"_id": "q1", "text": "x", "id": "d1", "vector": [1.0]}\n{"_id": oops\n')
    with pytest.raises(CorpusError, match=rf"{name}:2: invalid JSON"):
        reader(path)


@pytest.mark.parametrize(
    "cut, what",
    [(2, r"record 1 \(id length\)"), (6, r"record 1 \(id\)")],
)
def test_truncated_binary_id_fields_name_the_record(tmp_path, cut, what):
    full = _orne([(b"a", [1.0, 2.0]), (b"bcd", [3.0, 4.0])])
    record_1 = 20 + 4 + 1 + 8
    path = tmp_path / "emb.orne"
    path.write_bytes(full[: record_1 + cut])
    with pytest.raises(CorpusError, match=f"truncated {what}"):
        dataio.read_embeddings(path)


def test_binary_id_that_is_not_utf8_names_the_record(tmp_path):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", [1.0, 2.0]), (b"\xff\xfe", [3.0, 4.0])]))
    with pytest.raises(CorpusError, match="record 1: id is not UTF-8"):
        dataio.read_embeddings(path)


def test_duplicate_binary_id_is_rejected(tmp_path):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", [1.0, 2.0]), (b"a", [3.0, 4.0])]))
    with pytest.raises(CorpusError, match="record 1: duplicate id 'a'"):
        dataio.read_embeddings(path)


def test_duplicate_jsonl_embedding_id_is_rejected(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "d1", "vector": [1.0, 2.0]}\n{"id": "d1", "vector": [0.5, -1.0]}\n')
    with pytest.raises(CorpusError, match="emb.jsonl:2: duplicate id 'd1'"):
        dataio.read_embeddings(path)
