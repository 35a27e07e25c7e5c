from __future__ import annotations

import dataclasses

from orion.cli import _build_config, build_parser
from orion.config import RunConfig


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
