from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from orion import cli, dataio
from orion.cli import _build_config, build_parser, main
from orion.archetypes import KINDS
from orion.config import RunConfig
from orion.corpus import Document
from orion.embed import EmbeddingServiceClient, EmbeddingServiceError, HashEmbedder
from orion.engine import EpisodeResult, episode_to_dict
from orion.metrics import analyze_behavior, evaluate_episodes
from orion.policy import RemotePolicy
from orion.trace import TERMINAL_POLICY_ERROR, SearchState
from orion.vocab import TfidfTable

from cli_digests import REMOTE, FakeEndpoints, seeded_inputs
from conftest import write_corpus


def test_common_flags_land_on_their_config_fields():
    argv = [
        "run", "--corpus", "c.jsonl", "--qrels", "q.tsv", "--queries", "qs.jsonl",
        "--embeddings", "e.orne", "--embed-backend", "service", "--embed-dim", "16",
        "--embed-endpoint", "http://localhost:1/embed", "--embed-model", "em",
        "--policy", "breadth_first", "--policy-params", '{"fanout": 2}',
        "--remote-endpoint", "http://localhost:2/chat", "--remote-model", "rm",
        "--remote-mode", "baseline", "--top-k", "3", "--max-turns", "4", "--beam-size", "5",
        "--expansion", "6", "--group-size", "7", "--selection", "proportional", "--zscore",
        "--beta", "0.25", "--max-query-chars", "40", "--snippet-chars", "50", "--seed", "8",
        "--workers", "2", "--out", "o", "--episodes", "ep.jsonl", "--archetypes", "depth_first",
        "--sft-total", "9", "--relaxed-stagnation",
    ]
    cfg = _build_config(build_parser().parse_args(argv), check_paths=False)
    set_by_flags = {
        "corpus": "c.jsonl", "qrels": "q.tsv", "queries": "qs.jsonl", "embeddings": "e.orne",
        "embed_backend": "service", "embed_dim": 16, "embed_endpoint": "http://localhost:1/embed",
        "embed_model": "em", "policy": "breadth_first", "policy_params": {"fanout": 2},
        "remote_endpoint": "http://localhost:2/chat", "remote_model": "rm",
        "remote_mode": "baseline", "k": 3, "max_turns": 4, "beam_size": 5, "expansion": 6,
        "group_size": 7, "selection": "proportional", "zscore": True, "beta": 0.25,
        "max_query_chars": 40, "snippet_chars": 50, "seed": 8, "workers": 2, "out_dir": "o",
        "episodes": "ep.jsonl", "archetypes": "depth_first", "sft_total": 9, "relaxed_stagnation": True,
    }
    defaults = dataclasses.asdict(RunConfig())
    assert set_by_flags.keys() == {f.name for f in dataclasses.fields(RunConfig)}
    assert all(value != defaults[name] for name, value in set_by_flags.items())
    assert dataclasses.asdict(cfg) == set_by_flags


@pytest.mark.parametrize("value", [1, 0])
def test_an_int_in_the_config_file_hashes_as_its_flag_does(tmp_path, value):
    (tmp_path / "c.json").write_text(json.dumps({"beta": value}))
    parse = build_parser().parse_args
    from_file = _build_config(parse(["run", "--config", str(tmp_path / "c.json")]), check_paths=False)
    from_flag = _build_config(parse(["run", "--beta", str(value)]), check_paths=False)
    assert from_file.config_hash() == from_flag.config_hash()
    assert repr(from_file.beta) == repr(from_flag.beta) == repr(float(value))


def test_absent_flags_keep_defaults():
    cfg = _build_config(build_parser().parse_args(["run"]), check_paths=False)
    assert cfg == RunConfig()


@pytest.mark.parametrize("command", ["index", "run", "beam", "generate", "grpo-collect", "eval", "report"])
def test_every_command_has_one_flag_per_config_field(command):
    args = vars(build_parser().parse_args([command]))
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert {name: args[name] for name in names} == dict.fromkeys(names)
    assert args.keys() <= {*names, "config", "command", "handler"}


@pytest.mark.parametrize("flags, want", [([], True), (["--no-zscore"], False), (["--zscore"], True)])
def test_zscore_flags_override_the_config_file(tmp_path, flags, want):
    (tmp_path / "c.json").write_text(json.dumps({"zscore": True}))
    args = build_parser().parse_args(["grpo-collect", "--config", str(tmp_path / "c.json"), *flags])
    assert _build_config(args, check_paths=False).zscore is want


@pytest.mark.parametrize("text", ["[1, 2]", "{bad json"])
def test_policy_params_flag_takes_a_json_object(capsys, text):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--policy-params", text])
    assert "--policy-params" in capsys.readouterr().err


def test_flags_override_the_config_file_before_validation(tmp_path):
    inputs = seeded_inputs(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"k": 0, "max_turns": 2}))
    argv = ["run", *inputs, "--config", str(tmp_path / "c.json"), "--top-k", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    cfg = _build_config(build_parser().parse_args(argv))
    assert (cfg.k, cfg.max_turns) == (3, 2)
    meta = json.loads((tmp_path / "out" / "episodes.jsonl").read_text().splitlines()[0])
    assert meta["config_hash"] == cfg.config_hash()


def test_index_of_an_orne_input_writes_the_same_bytes(tmp_path):
    rng = np.random.default_rng(11)
    docs = [Document(f"doc-{i:03d}", f"body {i}") for i in range(200)]
    write_corpus(docs, tmp_path / "corpus.jsonl")
    source = tmp_path / "emb.orne"
    dataio.write_embeddings(
        {d.doc_id: rng.normal(size=16) * 10.0 ** rng.integers(-6, 7) for d in docs}, source
    )
    argv = ["index", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--embeddings", str(source), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert (tmp_path / "out" / "index" / "embeddings.orne").read_bytes() == source.read_bytes()


# the log each batch command writes
LOGS = {
    "run": "episodes.jsonl",
    "beam": "episodes.jsonl",
    "generate": "pool.jsonl",
    "grpo-collect": "training_records.jsonl",
}


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
    inputs = seeded_inputs(tmp_path)
    written = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        assert main([command, *inputs, *extra, "--out", str(out)]) == 0
        written.append(_records_after_meta(out / LOGS[command]))
    assert written[0] and written[0] == written[1]


@pytest.mark.parametrize("command", list(LOGS))
def test_worker_pool_writes_the_serial_records(tmp_path, command):
    inputs = seeded_inputs(tmp_path)
    written = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = [command, *inputs, "--policy", "adaptive_context", "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        written.append(_records_after_meta(out / LOGS[command]))
    assert written[0] and written[0] == written[1]


# "zulu" is in no document, so no other query's episode ever issues this text;
# adaptive_context (also one of generate's kinds) opens with the user's query
BAD_QUERY = "coral zulu"


@pytest.mark.parametrize("command", list(LOGS))
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failing_query_leaves_the_rest_of_the_batch_logged(
    tmp_path, monkeypatch, capsys, command, workers
):
    inputs = seeded_inputs(tmp_path)
    argv = [command, *inputs, "--policy", "adaptive_context", "--workers", workers]
    assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
    queries = (tmp_path / "queries.jsonl").read_text().splitlines(keepends=True)
    queries.insert(3, json.dumps({"_id": "q-bad", "text": BAD_QUERY}) + "\n")
    (tmp_path / "queries.jsonl").write_text("".join(queries))
    embed = HashEmbedder.__call__

    def failing_embed(self, text):
        if text == BAD_QUERY:
            raise ConnectionError("embedding service unavailable")
        return embed(self, text)

    monkeypatch.setattr(HashEmbedder, "__call__", failing_embed)
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "bad")]) == 1
    clean = _records_after_meta(tmp_path / "clean" / LOGS[command])
    assert clean and _records_after_meta(tmp_path / "bad" / LOGS[command]) == clean
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert errors == [{
        "error": "embedding service unavailable", "type": "ConnectionError",
        "command": command, "query_id": "q-bad",
    }]


@pytest.mark.parametrize("command, status", [("beam", 1), ("run", 0)])
def test_an_endpoint_without_logprobs_fails_each_beam_query_once(
    tmp_path, monkeypatch, capsys, caplog, command, status
):
    # beam scores candidates by logprobs; a greedy run never asks for them.
    # Every reply differs, so a beam turn's candidates are distinct states and
    # are scored (equal ones would collapse to one, which needs no score)
    inputs = seeded_inputs(tmp_path)
    calls = itertools.count()

    def reply(self, payload):
        return {"choices": [{"message": {"content": f"coral reef {next(calls)}"}}]}

    monkeypatch.setattr(RemotePolicy, "_requests_post", reply)
    argv = [command, *inputs, "--policy", "remote", "--remote-endpoint", "http://localhost:1/chat",
            "--beam-size", "2", "--expansion", "2", "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == status
    records = _records_after_meta(tmp_path / "out" / "episodes.jsonl")
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert "candidate dropped" not in caplog.text
    if command == "run":
        assert records.count(b"\n") == 6 and errors == []
        return
    assert records == b""
    assert errors == [
        {"error": "endpoint returned no token log-probabilities", "type": "CapabilityError",
         "command": "beam", "query_id": f"q{q}"}
        for q in range(6)
    ]


def _no_term_table(docs):
    raise AssertionError("a term table was built")


@pytest.mark.parametrize("command", ["run", "beam", "grpo-collect"])
def test_a_remote_run_builds_no_term_table(tmp_path, monkeypatch, command):
    # only scripted steps read the table; a remote policy never does
    inputs = seeded_inputs(tmp_path)
    monkeypatch.setattr("requests.post", FakeEndpoints().post)
    monkeypatch.setattr(TfidfTable, "from_documents", _no_term_table)
    argv = [command, *inputs, *REMOTE, "--beam-size", "2", "--expansion", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert _records_after_meta(tmp_path / "out" / LOGS[command]).count(b"\n") == 6


@pytest.mark.parametrize("command", ["run", "generate"])
def test_a_scripted_run_builds_its_term_table(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(TfidfTable, "from_documents", _no_term_table)
    inputs = seeded_inputs(tmp_path)
    capsys.readouterr()
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "a term table was built", "type": "AssertionError", "command": command}


def test_generate_clips_queries_to_the_configured_length(tmp_path):
    inputs = seeded_inputs(tmp_path)
    (tmp_path / "clip.json").write_text(json.dumps({"max_query_chars": 25}))
    lengths = {}
    for name, extra in (("default", []), ("clipped", ["--config", str(tmp_path / "clip.json")])):
        assert main(["generate", *inputs, *extra, "--out", str(tmp_path / name)]) == 0
        records = (tmp_path / name / "pool.jsonl").read_text().splitlines()[1:]
        lengths[name] = max(len(t["query"]) for r in records for t in json.loads(r)["turns"])
    assert lengths["default"] > 25 >= lengths["clipped"]


def test_eval_and_report_of_a_beam_log_match_the_in_memory_episodes(tmp_path, monkeypatch):
    inputs = seeded_inputs(tmp_path)
    logged = []

    def capture(qid, result):
        logged.append((qid, result))
        return episode_to_dict(qid, result)

    monkeypatch.setattr(cli, "episode_to_dict", capture)
    log_path = tmp_path / "beam" / "episodes.jsonl"
    assert main(["beam", *inputs, "--beam-size", "2", "--expansion", "2", "--out", str(log_path.parent)]) == 0
    assert main(["eval", *inputs, "--episodes", str(log_path), "--out", str(tmp_path / "eval")]) == 0
    monkeypatch.setattr(dataio, "read_corpus", _no_corpus)  # report reads only its log
    argv = ["report", *inputs, "--episodes", str(log_path), "--out", str(tmp_path / "report")]
    assert main(argv) == 0

    qrels = dataio.read_qrels(tmp_path / "qrels.tsv")
    want_metrics = evaluate_episodes(logged, qrels, RunConfig().k).summary()
    want_behavior = analyze_behavior(logged).summary()
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    behavior = json.loads((tmp_path / "report" / "behavior.json").read_text())
    assert len(logged) == 6 and want_behavior["successful_episodes"] > 0
    assert {k: metrics[k] for k in want_metrics} == want_metrics
    assert {k: behavior[k] for k in want_behavior} == want_behavior


def _no_corpus(path):
    raise AssertionError(f"{path} was read")


def _episode_log(tmp_path, edit) -> str:
    """A one-episode `run` log with `edit` applied to its episode record."""
    inputs = seeded_inputs(tmp_path)
    assert main(["run", *inputs, "--out", str(tmp_path / "run")]) == 0
    meta, first, *_ = (tmp_path / "run" / "episodes.jsonl").read_text().splitlines()
    record = json.loads(first)
    edit(record)
    path = tmp_path / "edited.jsonl"
    path.write_text(f"{meta}\n{json.dumps(record)}\n")
    return str(path)


def _drop_query(record):
    del record["trace"]["turns"][0]["query"]


def _results_not_a_list(record):
    record["trace"]["turns"][0]["results"] = 7


def _wrong_success_turn(record):
    record["success_turn"] = len(record["trace"]["turns"]) + 1


def _wrong_ranks(record):
    record["per_turn_ranks"] = [r + 1 if r is not None else 0 for r in record["per_turn_ranks"]]


@pytest.mark.parametrize("command", ["eval", "report"])
@pytest.mark.parametrize(
    "edit, cause",
    [
        (_drop_query, "KeyError"),
        (_results_not_a_list, "TypeError"),
        (_wrong_success_turn, "logged success_turn"),
        (_wrong_ranks, "logged per_turn_ranks"),
    ],
)
def test_a_malformed_episode_log_names_its_file_and_line(tmp_path, capsys, command, edit, cause):
    path = _episode_log(tmp_path, edit)
    argv = [command, "--qrels", str(tmp_path / "qrels.tsv")]
    capsys.readouterr()
    assert main([*argv, "--episodes", path, "--out", str(tmp_path / "out")]) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "CorpusError"
    assert error["error"].startswith(f"{path}:2: malformed episode record")
    assert cause in error["error"]


def _no_index(*args):
    raise AssertionError("an index was built for a run that cannot start")


def _params(kind: str, params: str) -> list[str]:
    return ["--policy", kind, "--policy-params", params]


@pytest.mark.parametrize(
    "command, flags, drop, config, message",
    [
        ("run", ["--policy", "bogus"], None, {}, "unknown archetype 'bogus'"),
        ("run", [], None, {"policy_params": {"bogus": 1}}, "unknown params for adaptive_context: ['bogus']"),
        ("generate", ["--archetypes", "adaptive_context,nope"], None, {}, "unknown archetypes ['nope']"),
        ("run", [], "--queries", {}, "run needs --queries"),
        ("index", [], "--corpus", {}, "index needs --corpus"),
        ("run", ["--policy", "remote"], None,
         {"remote_endpoint": "http://localhost:1", "remote_mode": "bogus"},
         "unknown remote mode 'bogus'"),
        ("run", [], None, {"k": 0}, "k must be >= 1, got 0"),
        ("run", [], None, {"k": "5"}, "config.json: k must be int, got '5'"),
        ("grpo-collect", [], None, {"zscore": "false"}, "config.json: zscore must be bool, got 'false'"),
        ("run", [], None, {"seed": 1.5}, "config.json: seed must be int, got 1.5"),
        ("run", ["--seed", "2"], None, {"seed": 1.5}, "config.json: seed must be int, got 1.5"),
        ("run", ["--policy", "remote"], None,
         {"remote_endpoint": "http://localhost:1", "policy_params": {"adopt_terms": 3}},
         "policy_params apply to archetype policies, not 'remote'"),
        # each knob takes its default's type: an int >= its floor, or a number in [-1, 1]
        ("run", _params("breadth_first", '{"fanout": "x"}'), None, {},
         "breadth_first param 'fanout' must be an int >= 1, got 'x'"),
        ("run", _params("breadth_first", '{"fanout": 1.9}'), None, {},
         "breadth_first param 'fanout' must be an int >= 1, got 1.9"),
        ("run", _params("breadth_first", '{"fanout": -2}'), None, {},
         "breadth_first param 'fanout' must be an int >= 1, got -2"),
        ("beam", _params("breadth_first", '{"fanout": true}'), None, {},
         "breadth_first param 'fanout' must be an int >= 1, got True"),
        ("run", _params("early_success", '{"good_sim": true}'), None, {},
         "early_success param 'good_sim' must be a number in [-1, 1], got True"),
        ("grpo-collect", _params("best_first", '{"try_threshold": NaN}'), None, {},
         "best_first param 'try_threshold' must be a number in [-1, 1], got nan"),
        ("run", ["--policy", "greedy_hill"], None, {"policy_params": {"candidates": "3"}},
         "greedy_hill param 'candidates' must be an int >= 1, got '3'"),
        ("generate", _params("random_walk", '{"neighbor_pool": 2.0}'), None, {},
         "random_walk param 'neighbor_pool' must be an int >= 1, got 2.0"),
        ("generate", ["--archetypes", "adaptive_context,adaptive_context", "--sft-total", "2"],
         None, {}, "archetypes repeated: ['adaptive_context']"),
        ("generate", [], None, {"sft_total": -1}, "sft_total must be >= 0, got -1"),
        ("generate", ["--sft-total", "-1"], None, {}, "sft_total must be >= 0, got -1"),
        # a count knob starts at 1, best_first's pool at 0
        ("run", _params("adaptive_context", '{"adopt_terms": 0}'), None, {},
         "adaptive_context param 'adopt_terms' must be an int >= 1, got 0"),
        ("run", _params("random_walk", '{"neighbor_pool": 0}'), None, {},
         "random_walk param 'neighbor_pool' must be an int >= 1, got 0"),
        ("run", _params("breadth_first", '{"fanout": 0}'), None, {},
         "breadth_first param 'fanout' must be an int >= 1, got 0"),
        ("run", _params("wrong_direction", '{"drift_rank": 0}'), None, {},
         "wrong_direction param 'drift_rank' must be an int >= 1, got 0"),
        ("run", _params("greedy_hill", '{"candidates": 0}'), None, {},
         "greedy_hill param 'candidates' must be an int >= 1, got 0"),
        ("run", _params("best_first", '{"pool_size": -1}'), None, {},
         "best_first param 'pool_size' must be an int >= 0, got -1"),
        # a float setting is finite: a NaN would be logged as `NaN`, which is not JSON
        ("grpo-collect", ["--beta", "nan"], None, {}, "beta must be finite, got nan"),
        ("grpo-collect", [], None, {"beta": math.nan}, "beta must be finite, got nan"),
        # the command settings are fields: checked by `needs` and `validate`, not argparse
        ("eval", [], None, {}, "eval needs --episodes"),
        ("report", [], None, {}, "report needs --episodes"),
        ("generate", [], None, {"archetypes": "depth_first,nope"}, "unknown archetypes ['nope']"),
    ],
)
def test_bad_settings_fail_before_any_work(
    tmp_path, monkeypatch, capsys, command, flags, drop, config, message
):
    inputs = seeded_inputs(tmp_path)
    if drop:
        at = inputs.index(drop)
        inputs = inputs[:at] + inputs[at + 2:]
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.setattr(cli, "_load_index", _no_index)
    monkeypatch.setattr(cli, "build_index", _no_index)
    capsys.readouterr()
    argv = [command, *inputs, *flags, "--config", str(tmp_path / "config.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "ConfigError"
    assert message in error["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "grpo-collect"])
def test_embeddings_of_another_dim_fail_before_any_episode(tmp_path, capsys, command):
    inputs = seeded_inputs(tmp_path)  # queries are hash-embedded at --embed-dim 64
    docs = dataio.read_corpus(tmp_path / "corpus.jsonl")
    embedder = HashEmbedder(32)
    dataio.write_embeddings({d.doc_id: embedder(d.text) for d in docs}, tmp_path / "emb.orne")
    capsys.readouterr()
    argv = [command, *inputs, "--embeddings", str(tmp_path / "emb.orne")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "ConfigError"
    assert "dim 32, but embed_dim is 64" in error["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, extra",
    [
        ("corpus.jsonl", '{"_id": "d00", "text": "again"}\n'),
        ("queries.jsonl", '{"_id": "q0", "text": "again"}\n'),
        ("qrels.tsv", "q0\td00\t0\n"),
    ],
)
def test_a_repeated_id_or_qrels_pair_fails_the_run_naming_its_line(tmp_path, capsys, name, extra):
    inputs = seeded_inputs(tmp_path)
    path = tmp_path / name
    lines = path.read_text().count("\n")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(extra)
    capsys.readouterr()
    assert main(["run", *inputs, "--out", str(tmp_path / "out")]) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "CorpusError"
    assert error["error"].startswith(f"{path}:{lines + 1}: ")
    assert not (tmp_path / "out" / "episodes.jsonl").exists()


def test_generate_gives_policy_params_to_the_policy_kind_only(tmp_path):
    inputs = seeded_inputs(tmp_path)
    (tmp_path / "params.json").write_text(json.dumps({"policy_params": {"adopt_terms": 3}}))
    pools = {}
    for name, extra in (("default", []), ("params", ["--config", str(tmp_path / "params.json")])):
        assert main(["generate", *inputs, *extra, "--out", str(tmp_path / name)]) == 0
        records = [json.loads(r) for r in (tmp_path / name / "pool.jsonl").read_text().splitlines()[1:]]
        pools[name] = {(r["source"], r["q0"]): r for r in records}
    assert pools["params"].keys() == pools["default"].keys()
    assert {source for source, _ in pools["params"]} == set(KINDS)
    changed = {key[0] for key in pools["params"] if pools["params"][key] != pools["default"][key]}
    assert changed == {"adaptive_context"}


def test_generate_settings_move_the_config_hash(tmp_path):
    inputs = seeded_inputs(tmp_path)
    runs = {"all": [], "one": ["--archetypes", "depth_first", "--sft-total", "1"]}
    for name, extra in runs.items():
        assert main(["generate", *inputs, *extra, "--out", str(tmp_path / name)]) == 0
    pools = {name: (tmp_path / name / "pool.jsonl").read_text().splitlines() for name in runs}
    assert {json.loads(r)["source"] for r in pools["one"][1:]} == {"depth_first"}
    assert len(pools["all"]) > len(pools["one"])
    assert json.loads(pools["all"][0])["config_hash"] != json.loads(pools["one"][0])["config_hash"]
    assert len((tmp_path / "one" / "sft.jsonl").read_text().splitlines()) == 2  # meta, 1 record


def test_sft_total_0_writes_no_sft_dataset(tmp_path):
    inputs = seeded_inputs(tmp_path)
    assert main(["generate", *inputs, "--sft-total", "0", "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["pool.jsonl"]


@pytest.mark.parametrize(
    "command, flags, setting",
    [
        ("generate", ["--archetypes", "depth_first,random_walk"], {"archetypes": "depth_first,random_walk"}),
        ("generate", ["--sft-total", "3"], {"sft_total": 3}),
        ("eval", ["--episodes", "LOG"], {"episodes": "LOG"}),
        ("report", ["--relaxed-stagnation"], {"relaxed_stagnation": True}),
    ],
    ids=["archetypes", "sft_total", "episodes", "relaxed_stagnation"],
)
def test_a_command_setting_in_the_config_file_acts_as_its_flag(tmp_path, command, flags, setting):
    inputs = seeded_inputs(tmp_path)
    log = str(tmp_path / "run" / "episodes.jsonl")
    assert main(["run", *inputs, "--out", str(tmp_path / "run")]) == 0
    if command == "report":
        inputs += ["--episodes", log]
    flags = [log if arg == "LOG" else arg for arg in flags]
    (tmp_path / "c.json").write_text(json.dumps({k: log if v == "LOG" else v for k, v in setting.items()}))
    written = {}
    for name, extra in (("flag", flags), ("file", ["--config", str(tmp_path / "c.json")]), ("none", [])):
        main([command, *inputs, *extra, "--out", str(tmp_path / name)])
        out = tmp_path / name
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    assert written["flag"] and written["flag"] == written["file"] != written["none"]


def test_a_bad_vector_in_the_embeddings_file_names_the_file(tmp_path, capsys):
    write_corpus([Document("a", "alpha"), Document("b", "bravo")], tmp_path / "corpus.jsonl")
    path = tmp_path / "bad.orne"
    dataio.write_embeddings({"a": np.array([1.0, 2.0]), "b": np.array([2.0, 1.0])}, path)
    good, nan = (np.array([1.0, x], "<f4").tobytes() for x in (2.0, math.nan))
    assert path.read_bytes().count(good) == 1
    path.write_bytes(path.read_bytes().replace(good, nan))
    capsys.readouterr()
    argv = ["index", "--corpus", str(tmp_path / "corpus.jsonl"), "--embeddings", str(path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "CorpusError"
    assert error["error"] == (
        f"{path} for {tmp_path / 'corpus.jsonl'}: doc 'a': embedding contains non-finite values"
    )


def _policy_error_record() -> dict:
    trace = SearchState(original_query="coral", terminal_reason=TERMINAL_POLICY_ERROR)
    return episode_to_dict("q0", EpisodeResult(trace))


@pytest.mark.parametrize("records", [[], [_policy_error_record()]], ids=["meta-only", "zero-turn"])
def test_eval_and_report_of_a_log_that_issued_no_query(tmp_path, records):
    log_path = tmp_path / "episodes.jsonl"
    meta = {"record": "meta", **RunConfig().meta()}
    dataio.write_jsonl([meta, *records], log_path)
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q0\td00\t1\n")
    common = ["--qrels", str(qrels), "--episodes", str(log_path)]
    assert main(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
    assert main(["report", *common, "--out", str(tmp_path / "report")]) == 0
    behavior = json.loads((tmp_path / "report" / "behavior.json").read_text())
    assert behavior["episodes"] == len(records)
    assert behavior["query_length"] is None
    assert behavior["successful_episodes"] == 0


def _fake_embedding_service(monkeypatch, fail_on: str | None = None) -> list[list[str]]:
    """Answer embedding requests with hash vectors; return the requested batches."""
    requests = []
    vectors = HashEmbedder(8)

    def post(self, payload):
        requests.append(payload["input"])
        if fail_on in payload["input"]:
            raise EmbeddingServiceError("503 Service Unavailable")
        return {"data": [{"embedding": vectors(text).tolist()} for text in payload["input"]]}

    monkeypatch.setattr(EmbeddingServiceClient, "_requests_post", post)
    return requests


def _service_config(n_docs: int, tmp_path) -> tuple[RunConfig, list[Document]]:
    docs = [Document(f"d{i:03d}", f"body {i}", title=f"title {i % 7}") for i in range(n_docs)]
    write_corpus(docs, tmp_path / "corpus.jsonl")
    cfg = RunConfig(corpus=str(tmp_path / "corpus.jsonl"), embed_backend="service",
                    embed_endpoint="http://localhost:1/embed")
    return cfg, docs


@pytest.mark.parametrize("n_docs", [1, cli.EMBED_CHUNK, 2 * cli.EMBED_CHUNK + 5])
def test_service_corpus_embeddings_are_batched(tmp_path, monkeypatch, n_docs):
    cfg, docs = _service_config(n_docs, tmp_path)
    requests = _fake_embedding_service(monkeypatch)
    batched = cli._embed_corpus(cli._embedder(cfg), docs)
    texts = [f"{d.title} {d.text}" for d in docs]
    assert requests == [texts[i : i + cli.EMBED_CHUNK] for i in range(0, n_docs, cli.EMBED_CHUNK)]
    assert len(requests) == math.ceil(n_docs / cli.EMBED_CHUNK)
    client = cli._embedder(cfg)
    assert list(batched) == [d.doc_id for d in docs]
    for doc, text in zip(docs, texts):
        assert np.array_equal(batched[doc.doc_id], client(text))


@pytest.mark.parametrize("command", ["index", "run", "generate"])
def test_one_embedder_serves_the_corpus_and_the_queries(tmp_path, monkeypatch, command):
    inputs = seeded_inputs(tmp_path)
    built, batches = [], []
    make, embed_batch = cli._embedder, HashEmbedder.embed_batch

    def counting_make(cfg):
        built.append(make(cfg))
        return built[-1]

    def counting_batch(self, texts):
        batches.append(len(texts))
        return embed_batch(self, texts)

    monkeypatch.setattr(cli, "_embedder", counting_make)
    monkeypatch.setattr(HashEmbedder, "embed_batch", counting_batch)
    assert main([command, *inputs, "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 1
    assert batches == [36]  # the corpus, in one chunk of at most EMBED_CHUNK


def test_a_failed_embedding_chunk_names_its_first_document(tmp_path, monkeypatch, capsys):
    cfg, docs = _service_config(2 * cli.EMBED_CHUNK, tmp_path)
    second = docs[cli.EMBED_CHUNK]
    _fake_embedding_service(monkeypatch, fail_on=f"{second.title} {second.text}")
    capsys.readouterr()
    argv = ["index", "--corpus", cfg.corpus, "--embed-backend", "service",
            "--embed-endpoint", cfg.embed_endpoint, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    [error] = [json.loads(line) for line in capsys.readouterr().err.splitlines() if line.startswith("{")]
    assert error["type"] == "EmbeddingServiceError"
    assert f"starts at document {second.doc_id!r}" in error["error"]
    assert "503 Service Unavailable" in error["error"]
