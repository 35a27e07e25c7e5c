from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from orion import dataio
from orion.cli import _build_config, build_parser, main
from orion.config import RunConfig
from orion.corpus import Document


def test_common_flags_land_on_their_config_fields():
    argv = [
        "run", "--corpus", "c.jsonl", "--qrels", "q.tsv", "--queries", "qs.jsonl",
        "--embeddings", "e.orne", "--embed-dim", "16", "--policy", "depth_first",
        "--top-k", "3", "--max-turns", "4", "--beam-size", "5", "--expansion", "6",
        "--group-size", "7", "--selection", "proportional", "--zscore", "--seed", "8",
        "--workers", "2", "--out", "o",
    ]
    cfg = _build_config(build_parser().parse_args(argv), check_paths=False)
    set_by_flags = {
        "corpus": "c.jsonl", "qrels": "q.tsv", "queries": "qs.jsonl", "embeddings": "e.orne",
        "embed_dim": 16, "policy": "depth_first", "k": 3, "max_turns": 4, "beam_size": 5,
        "expansion": 6, "group_size": 7, "selection": "proportional", "zscore": True,
        "seed": 8, "workers": 2, "out_dir": "o",
    }
    assert dataclasses.asdict(cfg) == {**dataclasses.asdict(RunConfig()), **set_by_flags}


def test_absent_flags_keep_defaults():
    cfg = _build_config(build_parser().parse_args(["run"]), check_paths=False)
    assert cfg == RunConfig()


def test_index_of_an_orne_input_writes_the_same_bytes(tmp_path):
    rng = np.random.default_rng(11)
    docs = [Document(f"doc-{i:03d}", f"body {i}") for i in range(200)]
    dataio.write_corpus(docs, tmp_path / "corpus.jsonl")
    source = tmp_path / "emb.orne"
    dataio.write_embeddings(
        {d.doc_id: rng.normal(size=16) * 10.0 ** rng.integers(-6, 7) for d in docs}, source
    )
    argv = ["index", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--embeddings", str(source), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert (tmp_path / "out" / "index" / "embeddings.orne").read_bytes() == source.read_bytes()


def _seeded_inputs(tmp_path) -> list[str]:
    """A small corpus of three topics, with queries and qrels, as CLI flags."""
    rng = np.random.default_rng(5)
    topics = [["neural", "network", "training"], ["ocean", "coral", "reef"], ["stock", "market", "bond"]]
    filler = ["alpha", "bravo", "delta", "gamma", "kappa", "sigma", "omega", "theta"]
    docs, qrels = [], []
    for i in range(36):
        words = topics[i % 3] + list(rng.choice(filler, size=4)) + [f"tag{i}"]
        docs.append(Document(f"d{i:02d}", " ".join(rng.permutation(words))))
    dataio.write_corpus(docs, tmp_path / "corpus.jsonl")
    with open(tmp_path / "queries.jsonl", "w") as fh:
        for q in range(6):
            target = f"d{q * 5:02d}"
            text = f"{topics[q * 5 % 3][0]} {filler[q]}"
            fh.write(json.dumps({"_id": f"q{q}", "text": text}) + "\n")
            qrels.append(f"q{q}\t{target}\t1\n")
    (tmp_path / "qrels.tsv").write_text("".join(qrels))
    return ["--corpus", str(tmp_path / "corpus.jsonl"), "--queries", str(tmp_path / "queries.jsonl"),
            "--qrels", str(tmp_path / "qrels.tsv"), "--embed-dim", "64", "--seed", "3"]


def _records_after_meta(path) -> bytes:
    lines = path.read_bytes().splitlines(keepends=True)
    assert json.loads(lines[0])["record"] == "meta"
    return b"".join(lines[1:])


@pytest.mark.parametrize(
    "command, log, extra",
    [
        ("run", "episodes.jsonl", ["--policy", "greedy_hill"]),
        ("beam", "episodes.jsonl", ["--policy", "breadth_first"]),
        ("generate", "pool.jsonl", []),
        ("grpo-collect", "training_records.jsonl", ["--policy", "adaptive_context"]),
    ],
)
def test_reruns_write_identical_records(tmp_path, command, log, extra):
    inputs = _seeded_inputs(tmp_path)
    written = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        assert main([command, *inputs, *extra, "--out", str(out)]) == 0
        written.append(_records_after_meta(out / log))
    assert written[0] and written[0] == written[1]


@pytest.mark.parametrize("command", ["run", "beam"])
def test_worker_pool_writes_the_serial_records(tmp_path, command):
    inputs = _seeded_inputs(tmp_path)
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = [command, *inputs, "--policy", "adaptive_context", "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        written.append(_records_after_meta(out / "episodes.jsonl"))
    assert written[0] and written[0] == written[1]
