from __future__ import annotations

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orion import dataio
from orion.corpus import CorpusError, Document, build_index

from conftest import write_corpus


def test_corpus_round_trip(tmp_path):
    docs = [
        Document("d1", "first body", title="First"),
        Document("d2", "second body"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(docs, path)
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


@pytest.mark.parametrize("reader", [dataio.read_corpus, dataio.read_queries])
def test_a_repeated_id_names_its_line(tmp_path, reader):
    # 7 and "7" are one id once read as a string
    path = tmp_path / "lines.jsonl"
    path.write_text('{"_id": 7, "text": "x"}\n{"_id": "b", "text": "y"}\n{"_id": "7", "text": "z"}\n')
    with pytest.raises(CorpusError, match=r"lines.jsonl:3: duplicate `_id` '7' \(first on line 1\)"):
        reader(path)


@pytest.mark.parametrize("header", ["", "query-id\tdoc-id\tscore\n"])
def test_a_repeated_qrels_pair_names_its_line(tmp_path, header):
    # the second grade would silently replace the first, here dropping a target
    path = tmp_path / "qrels.tsv"
    path.write_text(header + "q1\ta\t1\nq1\tb\t1\nq2\ta\t1\nq1\ta\t0\n")
    with pytest.raises(CorpusError, match=rf"qrels.tsv:{4 + bool(header)}: repeated pair \('q1', 'a'\)"):
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
        # stored and read back as float32
        assert loaded[key].dtype == np.float32
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
    # the long first id leaves enough bytes to pass the header's size check
    full = _orne([(b"a" * 16, [1.0, 2.0]), (b"bcd", [3.0, 4.0])])
    record_1 = 20 + 4 + 16 + 8
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


@pytest.mark.parametrize(
    "header, message",
    [
        (struct.pack("<IIQ", 1, 2, 3), r"header claims 3 records of dim 2"),
        (struct.pack("<IIQ", 1, 2**32 - 1, 1), r"header claims 1 records of dim 4294967295"),
        (struct.pack("<IIQ", 1, 2, 2**64 - 1), r"header claims 18446744073709551615 records"),
    ],
    ids=["count", "dim", "max-count"],
)
def test_header_claiming_more_than_the_file_holds_is_rejected(tmp_path, header, message):
    body = _orne([(b"a", [1.0, 2.0]), (b"b", [3.0, 4.0])])[20:]
    path = tmp_path / "emb.orne"
    path.write_bytes(b"ORNE" + header + body)
    with pytest.raises(CorpusError, match=rf"emb.orne: truncated: {message}"):
        dataio.read_embeddings(path)


def test_binary_id_length_beyond_the_file_is_rejected_before_reading(tmp_path):
    raw = bytearray(_orne([(b"a" * 16, [1.0, 2.0]), (b"b", [3.0, 4.0])]))
    raw[20:24] = struct.pack("<I", 2**31)
    path = tmp_path / "emb.orne"
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(CorpusError, match=r"truncated record 0 \(id\)"):
            dataio.read_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no buffer sized by the bad id length


@pytest.mark.parametrize(
    "extra, count", [(b"\x00", 1), (_orne([(b"c", [5.0, 6.0])])[20:], 13)], ids=["byte", "record"]
)
def test_trailing_bytes_after_the_last_record_are_rejected(tmp_path, extra, count):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", [1.0, 2.0]), (b"b", [3.0, 4.0])]) + extra)
    with pytest.raises(CorpusError, match=rf"emb.orne: {count} trailing bytes after 2 records"):
        dataio.read_embeddings(path)


@pytest.mark.parametrize(
    "vector",
    ['"abc"', '{"a": 1}', "[1, [2]]", '[1, "x"]', "[" + "9" * 400 + "]", "null", "[]", "[[1.0]]",
     "[NaN]", "[1e999]", '["1", "2"]', "[true, false]", "[" + "9" * 30 + ', "1"]', "[0.5, true]"],
    ids=["string", "object", "ragged", "mixed", "overflow", "null", "empty", "matrix", "nan", "inf",
         "numeric-strings", "booleans", "big-int-and-string", "number-and-boolean"],
)
def test_bad_jsonl_vector_names_file_and_line(tmp_path, vector):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "d1", "vector": [1.0]}\n{"id": "d2", "vector": ' + vector + "}\n")
    with pytest.raises(CorpusError, match=r"emb.jsonl:2: embedding "):
        dataio.read_embeddings(path)


def test_a_jsonl_int_beyond_int64_reads_as_its_nearest_float(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "d1", "vector": [123456789012345678901234567890, -1, 0.5]}\n')
    vec = dataio.read_embeddings(path)["d1"]
    assert vec.tolist() == [123456789012345678901234567890.0, -1.0, 0.5]


@pytest.mark.parametrize("line", ["[1, 2]", "7", '"text"', "null"])
def test_json_line_that_is_not_an_object_names_file_and_line(tmp_path, line):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "d1", "vector": [1.0]}\n' + line + "\n")
    with pytest.raises(CorpusError, match=r"emb.jsonl:2: expected a JSON object"):
        dataio.read_embeddings(path)


def test_jsonl_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_bytes(b'{"id": "d1", "vector": [1.0]}\n{"id": "\xff"}\n')
    with pytest.raises(CorpusError, match=r"emb.jsonl: not UTF-8 text"):
        dataio.read_embeddings(path)


def test_qrels_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "qrels.tsv"
    path.write_bytes(b"q1\td1\t1\nq\xff\td2\t1\n")
    with pytest.raises(CorpusError, match=r"qrels.tsv: not UTF-8 text"):
        dataio.read_qrels(path)


@pytest.mark.parametrize(
    "reader, line, key",
    [
        (dataio.read_corpus, {"_id": "a", "text": 5}, "text"),
        (dataio.read_corpus, {"_id": "a", "text": ["body"]}, "text"),
        (dataio.read_corpus, {"_id": "a", "text": None}, "text"),
        (dataio.read_corpus, {"_id": "a", "text": "body", "title": 5}, "title"),
        (dataio.read_corpus, {"_id": "a", "text": "body", "title": False}, "title"),
        (dataio.read_queries, {"_id": "q", "text": 5}, "text"),
        (dataio.read_queries, {"_id": "q", "text": {"t": "x"}}, "text"),
    ],
)
def test_non_string_text_or_title_names_file_and_line(tmp_path, reader, line, key):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"_id": "ok", "text": "fine"}\n' + json.dumps(line) + "\n")
    with pytest.raises(CorpusError, match=rf"lines.jsonl:2: `{key}` must be a string"):
        reader(path)


def test_missing_or_null_title_reads_as_empty(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"_id": "a", "text": "x"}\n{"_id": "b", "text": "y", "title": null}\n')
    assert [d.title for d in dataio.read_corpus(path)] == ["", ""]


def test_a_header_with_dim_0_names_the_file(tmp_path):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", []), (b"b", [])], dim=0))
    with pytest.raises(CorpusError, match=r"emb.orne: header claims dim 0"):
        dataio.read_embeddings(path)


def test_binary_vectors_are_read_only_float32_views(tmp_path):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", [1.0, 2.0]), (b"bc", [3.0, 4.0])]))
    loaded = dataio.read_embeddings(path)
    assert [vec.dtype for vec in loaded.values()] == [np.dtype("<f4")] * 2
    assert not any(vec.flags.writeable for vec in loaded.values())
    # both views share the one buffer the file was read into
    assert loaded["a"].base is loaded["bc"].base
    with pytest.raises(ValueError, match="read-only"):
        loaded["a"][0] = 5.0


def test_reading_a_binary_file_allocates_about_its_size(tmp_path):
    n, dim = 400, 64
    rng = np.random.default_rng(0)
    path = tmp_path / "emb.orne"
    dataio.write_embeddings({f"doc{i}": rng.normal(size=dim) for i in range(n)}, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = dataio.read_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == n
    # the file once, plus an id, a dict slot and an array header per record;
    # a float64 copy per record alone would add 8 * dim = 512 bytes a record
    assert peak <= size + 400 * n


_f32_values = st.sampled_from([-0.0, 0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4e38, -3.4e38]) | st.floats(
    width=32, allow_nan=False, allow_infinity=False
)


def _widened_per_record(records) -> dict[str, np.ndarray]:
    """The embeddings as a reader that copies each float32 record into its
    own float64 array reads them."""
    return {doc_id: np.asarray(vec, dtype="<f4").astype(np.float64) for doc_id, vec in records}


def _index_bits(docs, embeddings):
    """Every bit `build_index` keeps and every search over it logs, or its error."""
    try:
        index = build_index(docs, embeddings)
    except CorpusError as exc:
        return str(exc)
    ids = [d.doc_id for d in docs]
    searches = []
    for doc_id in ids:
        for k, targets in ((1, ()), (len(ids), ids[-1:]), (2, ids[::2])):
            results = index.search(embeddings[doc_id], k, targets)
            sim = None if results.target_sim is None else results.target_sim.hex()
            searches.append(([(e.doc_id, e.score.hex()) for e in results.entries], sim, results.target_rank))
    return [float(x).hex() for x in index._ut.ravel()], [float(x).hex() for x in index._norms], searches


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 5),
    ids=st.lists(st.text("abcdefgh", min_size=1, max_size=8), min_size=1, max_size=5, unique=True),
    data=st.data(),
)
def test_an_index_over_the_float32_views_has_the_bits_of_one_over_float64_copies(
    tmp_path_factory, dim, ids, data
):
    # id byte lengths 1-8 put the vectors at every offset mod 4
    records = [(doc_id, data.draw(st.lists(_f32_values, min_size=dim, max_size=dim))) for doc_id in ids]
    path = tmp_path_factory.mktemp("views") / "emb.orne"
    path.write_bytes(_orne([(doc_id.encode(), vec) for doc_id, vec in records], dim=dim))
    docs = [Document(doc_id, "text") for doc_id in ids]
    views = dataio.read_embeddings(path)
    assert _index_bits(docs, views) == _index_bits(docs, _widened_per_record(records))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_orne_vector_names_the_doc(tmp_path, bad):
    path = tmp_path / "emb.orne"
    path.write_bytes(_orne([(b"a", [1.0, 2.0]), (b"b", [bad, 1.0])]))
    docs = [Document("a", "first"), Document("b", "second")]
    with pytest.raises(CorpusError, match=r"doc 'b': embedding contains non-finite values"):
        build_index(docs, dataio.read_embeddings(path))


def _assert_read_back_or_typed_error(path) -> None:
    """The reader either returns 1-D vectors of one length or raises CorpusError.

    An ORNE file gives float32 vectors holding the file's bytes: its header
    and its vectors, in file order, write the file again. A JSON Lines file
    gives float64 vectors.
    """
    try:
        loaded = dataio.read_embeddings(path)
    except CorpusError:
        return
    assert all(isinstance(doc_id, str) for doc_id in loaded)
    assert all(vec.ndim == 1 for vec in loaded.values())
    assert len({vec.shape[0] for vec in loaded.values()}) <= 1
    raw = path.read_bytes()
    if raw[:4] != dataio.MAGIC:
        assert all(vec.dtype == np.float64 for vec in loaded.values())
        return
    assert all(vec.dtype == np.dtype("<f4") for vec in loaded.values())
    records = (struct.pack("<I", len(k.encode())) + k.encode() + v.tobytes() for k, v in loaded.items())
    assert raw[:20] + b"".join(records) == raw


_orne_records = st.lists(
    st.tuples(st.text(min_size=1, max_size=6), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)),
    min_size=1, max_size=4, unique_by=lambda r: r[0],
)


@settings(max_examples=300, deadline=None)
@given(records=_orne_records, data=st.data())
def test_fuzzed_binary_embeddings_read_back_or_raise_corpus_error(tmp_path_factory, records, data):
    raw = bytearray(_orne([(doc_id.encode("utf-8"), vec) for doc_id, vec in records], dim=3))
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path_factory.mktemp("fuzz") / "emb.orne"
    path.write_bytes(bytes(raw))
    _assert_read_back_or_typed_error(path)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(vector=_json_values, whole_line=st.booleans())
def test_fuzzed_jsonl_vectors_read_back_or_raise_corpus_error(tmp_path_factory, vector, whole_line):
    line = json.dumps(vector if whole_line else {"id": "d1", "vector": vector})
    path = tmp_path_factory.mktemp("fuzz") / "emb.jsonl"
    path.write_text(line + "\n")
    _assert_read_back_or_typed_error(path)
