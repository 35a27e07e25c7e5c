"""File formats: corpus/queries JSON Lines, qrels TSV, and embedding files.

Embedding files come in two flavors:

* binary ("ORNE"): little-endian header of magic ``ORNE``, u32 version=1,
  u32 dim, u64 count, followed by ``count`` records of
  (u32 id-length, UTF-8 id bytes, dim x f32 values);
* JSON Lines fallback: one object per line, ``{"id": ..., "vector": [...]}``.

Readers auto-detect the flavor from the magic bytes. The two give vectors of
different dtypes. An ORNE file is read with one read, and each of its vectors
is a read-only float32 view into that one buffer, so the file's vectors cost
their file size once. A JSON Lines file gives float64 arrays. `build_index`
widens either to float64 a block at a time; widening float32 is exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .corpus import CorpusError, Document, as_embedding

MAGIC = b"ORNE"
VERSION = 1


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line; a file that is not UTF-8 text is a CorpusError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text: {exc}") from exc


def _json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line. Bad JSON, a line that is
    not a JSON object, or a file that is not UTF-8 text is a CorpusError."""
    for lineno, line in _lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        yield lineno, obj


def _text(path: str | Path, lineno: int, key: str, value: object) -> str:
    if not isinstance(value, str):
        raise CorpusError(f"{path}:{lineno}: `{key}` must be a string, got {type(value).__name__}")
    return value


def _id_text(path: str | Path, lineno: int, key: str, value: object) -> str:
    """An id field as a string; only a str or an int (not a bool) is an id,
    and anything else is a CorpusError."""
    if type(value) not in (str, int):
        kind = type(value).__name__
        raise CorpusError(f"{path}:{lineno}: `{key}` must be a string or an int, got {kind}")
    return str(value)


def _unique_id(path: str | Path, lineno: int, value: object, seen: dict[str, int]) -> str:
    """`_id` as a string, refused (CorpusError) when an earlier line of the file had it."""
    key = _id_text(path, lineno, "_id", value)
    if key in seen:
        raise CorpusError(f"{path}:{lineno}: duplicate `_id` {key!r} (first on line {seen[key]})")
    seen[key] = lineno
    return key


def read_corpus(path: str | Path) -> list[Document]:
    """Read a JSON Lines corpus with `_id`, `title`, `text` fields; a missing
    or null title is empty, and a repeated `_id` is a CorpusError."""
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for lineno, obj in _json_lines(path):
        if "_id" not in obj or "text" not in obj:
            raise CorpusError(f"{path}:{lineno}: corpus line needs `_id` and `text`")
        title = obj.get("title")
        docs.append(
            Document(
                doc_id=_unique_id(path, lineno, obj["_id"], seen),
                text=_text(path, lineno, "text", obj["text"]),
                title=_text(path, lineno, "title", "" if title is None else title),
            )
        )
    return docs


def read_qrels(path: str | Path) -> dict[str, dict[str, int]]:
    """Read tab-separated qrels `query-id<TAB>doc-id<TAB>score`; header
    optional. A (query, doc) pair given twice is a CorpusError."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, line in _lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusError(f"{path}:{lineno}: expected 3 tab-separated fields")
        qid, did, score = parts
        try:
            grade = int(score)
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise CorpusError(f"{path}:{lineno}: non-integer score {score!r}")
        grades = qrels.setdefault(qid, {})
        if did in grades:
            raise CorpusError(f"{path}:{lineno}: repeated pair ({qid!r}, {did!r})")
        grades[did] = grade
    return qrels


def read_queries(path: str | Path) -> list[tuple[str, str]]:
    """Read a JSON Lines queries file of `{"_id": ..., "text": ...}` pairs; a
    repeated `_id`, or a file without queries, is a CorpusError."""
    out: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    for lineno, obj in _json_lines(path):
        if "_id" not in obj or "text" not in obj:
            raise CorpusError(f"{path}:{lineno}: query line needs `_id` and `text`")
        qid = _unique_id(path, lineno, obj["_id"], seen)
        out.append((qid, _text(path, lineno, "text", obj["text"])))
    if not out:
        raise CorpusError(f"{path}: no queries")
    return out


def write_embeddings(embeddings: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write the binary embedding format (ids in sorted order for determinism)."""
    ids = sorted(embeddings)
    if not ids:
        raise CorpusError("no embeddings to write")
    dim = as_embedding(embeddings[ids[0]]).shape[0]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", VERSION, dim, len(ids)))
        for doc_id in ids:
            vec = as_embedding(embeddings[doc_id])
            if vec.shape[0] != dim:
                raise CorpusError(f"dimension mismatch for {doc_id!r}: {vec.shape[0]} vs {dim}")
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(vec.astype("<f4").tobytes())


def _read_embeddings_binary(path: Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    size = len(data)
    if data[:4] != MAGIC:
        raise CorpusError(f"{path}: bad magic {data[:4]!r}")
    if size < 20:
        raise CorpusError(f"{path}: truncated header")
    version, dim, count = struct.unpack_from("<IIQ", data, 4)
    if version != VERSION:
        raise CorpusError(f"{path}: unsupported version {version}")
    if dim == 0:
        raise CorpusError(f"{path}: header claims dim 0")
    # checked before the records are parsed, so a bad count, dim or id length
    # never makes the parse reach past the file
    need, left = count * (4 + 4 * dim), size - 20
    if need > left:
        raise CorpusError(
            f"{path}: truncated: header claims {count} records of dim {dim}, "
            f"at least {need} bytes, but {left} bytes follow it"
        )
    out: dict[str, np.ndarray] = {}
    at = 20
    for i in range(count):
        if size - at < 4:
            raise CorpusError(f"{path}: truncated record {i} (id length)")
        (id_len,) = struct.unpack_from("<I", data, at)
        at += 4
        if id_len > size - at:
            raise CorpusError(f"{path}: truncated record {i} (id)")
        try:
            doc_id = data[at : at + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: record {i}: id is not UTF-8: {exc}") from exc
        at += id_len
        if 4 * dim > size - at:
            raise CorpusError(f"{path}: truncated record {i} ({doc_id!r})")
        if doc_id in out:
            raise CorpusError(f"{path}: record {i}: duplicate id {doc_id!r}")
        # a read-only view into `data`: the file's float32 bytes, never copied
        out[doc_id] = np.frombuffer(data, "<f4", dim, at)
        at += 4 * dim
    trailing = size - at
    if trailing:
        raise CorpusError(f"{path}: {trailing} trailing bytes after {count} records")
    return out


def _read_embeddings_jsonl(path: Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for lineno, obj in _json_lines(path):
        if "id" not in obj or "vector" not in obj:
            raise CorpusError(f"{path}:{lineno}: embedding line needs `id` and `vector`")
        doc_id = _id_text(path, lineno, "id", obj["id"])
        if doc_id in out:
            raise CorpusError(f"{path}:{lineno}: duplicate id {doc_id!r}")
        try:
            out[doc_id] = as_embedding(obj["vector"])
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Read either embedding flavor, auto-detected by the magic bytes.

    ORNE vectors are read-only float32 views over one buffer holding the
    whole file; JSON Lines vectors are float64 arrays (`as_embedding`).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _read_embeddings_binary(path)
    return _read_embeddings_jsonl(path)


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    for _, obj in _json_lines(path):
        yield obj
