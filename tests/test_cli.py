from __future__ import annotations

import dataclasses

import numpy as np

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
