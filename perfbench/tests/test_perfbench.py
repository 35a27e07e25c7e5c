"""Tests of the benchmark itself: generator, tracing, checks and names."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
# the benchmark's modules import each other by bare name, as run.py arranges
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench  # noqa: E402
import gen  # noqa: E402
import orion.engine  # noqa: E402
import orion.rewards  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Loaded, Oracle, Runner, check_block, log_digest  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

TINY = dict(n_docs=80, n_queries=6, vocab_size=3000, n_topics=4, head_terms=12,
            distinct_repeat=2, query_distinct=2)


def tiny(name: str):
    w = WORKLOADS[name]
    spec = dataclasses.replace(w.spec, **TINY, orne_dim=16 if w.spec.orne_dim else None)
    return dataclasses.replace(w, spec=spec, dim=16, block=3)


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_byte_identical_per_seed(tmp_path):
    spec = tiny("greedy_scan").spec
    gen.write(spec, 7, tmp_path / "a")
    gen.write(spec, 7, tmp_path / "b")
    gen.write(spec, 8, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert set(a) == {"corpus.jsonl", "queries.jsonl", "qrels.tsv", "embeddings.orne"}
    assert a == _files(tmp_path / "b")
    assert a["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_generator_qrels_follow_the_spec(tmp_path):
    spec = tiny("grpo_multitarget").spec
    docs, queries, qrels = gen.generate(spec, 3)
    assert len(docs) == spec.n_docs and len(queries) == spec.n_queries
    per_query: dict[str, list[int]] = {}
    for qid, _, grade in qrels:
        per_query.setdefault(qid, []).append(grade)
    for grades in per_query.values():
        assert grades[0] == 2 and set(grades[1:]) <= {1}
        assert len(grades) <= 1 + spec.extra_targets


def _run(w, data: Path, out: Path, tracer: Tracer | None = None) -> list[str]:
    out.mkdir()
    runner = Runner(w, Loaded(w, data, seed=5), out, tracer)
    digests = []
    for b in range(runner.blocks()):
        res = runner.run_block(b)
        assert res.errors == 0
        digests.append(log_digest(out / w.log))
    return digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_does_not_change_output(tmp_path, name):
    w = tiny(name)
    gen.write(w.spec, 5, tmp_path / "data")
    plain = _run(w, tmp_path / "data", tmp_path / "plain")
    original = orion.rewards.execute_action
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(w, tmp_path / "data", tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert orion.rewards.execute_action is original is orion.engine.execute_action
    agg = tracer.aggregate()
    assert agg["engine.execute_action"]["calls"] > 0
    assert all(s[3] >= -1e-9 for s in tracer.spans)  # self time never exceeds the span


def _first_block(tmp_path: Path, name: str):
    w = tiny(name)
    gen.write(w.spec, 5, tmp_path / "data")
    env = Loaded(w, tmp_path / "data", seed=5)
    Runner(w, env, tmp_path).run_block(0)
    records = [json.loads(line) for line in (tmp_path / w.log).read_text().splitlines()[1:]]
    return w, env, Oracle(env.retriever, env.cfg.embed_dim), records


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_logs_and_catch_a_tampered_one(tmp_path, name):
    w, env, oracle, records = _first_block(tmp_path, name)
    assert check_block(w, env, oracle, 0, records) == []
    if name == "greedy_scan":
        records[0]["trace"]["turns"][0]["results"].reverse()
    elif name == "pool_vocab":
        records[0]["turns"][0]["result_ids"].reverse()
    else:
        records[0]["groups"][0]["selected"] = (records[0]["groups"][0]["selected"] + 1) % 4
    assert check_block(w, env, oracle, 0, records)


def test_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in workloads + end_to_end + per_layer:
        assert NAME_RE.fullmatch(name), name
    assert workloads == list(WORKLOADS)
    assert end_to_end == list(bench.END_TO_END)
    assert per_layer == list(bench.layer_metrics({}, 0.0, 0.0, 0))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**bench.END_TO_END,
                     **{k: u for k, (_, u) in bench.layer_metrics({}, 0.0, 0.0, 0).items()}}


def test_oracle_tolerates_last_bit_score_changes(tmp_path):
    w, env, oracle, records = _first_block(tmp_path, "greedy_scan")
    turn = records[0]["trace"]["turns"][0]
    turn["results"][0]["score"] += 1e-12
    turn["sim_to_target"] -= 1e-12
    assert check_block(w, env, oracle, 0, records) == []
    turn["sim_to_target"] -= 1e-6
    assert check_block(w, env, oracle, 0, records)
