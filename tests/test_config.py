from __future__ import annotations

import dataclasses
import json
import re

import pytest

from orion.config import ConfigError, RunConfig, episode_seed, field_type, read_config_file


def test_config_hash_ignores_where_and_how_parallel_a_run_is_written():
    base = RunConfig()
    assert RunConfig(out_dir="elsewhere", workers=4).config_hash() == base.config_hash()
    assert RunConfig(k=3).config_hash() != base.config_hash()


def _other_value(f: dataclasses.Field):
    """A value of the field `f` that is not its default."""
    default, kind = getattr(RunConfig(), f.name), field_type(f)
    if kind is bool:
        return not default
    if kind in (int, float):
        return default + 1
    return {"changed": 1} if kind is dict else "changed"


@pytest.mark.parametrize("f", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_every_field_but_out_dir_and_workers_moves_the_config_hash(f):
    moved = RunConfig(**{f.name: _other_value(f)}).config_hash() != RunConfig().config_hash()
    assert moved is (f.name not in ("out_dir", "workers"))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"policy_params": {"adopt_terms": 3, "fanout": 2}}, "unknown params for adaptive_context: ['fanout']"),
        ({"policy": "breadth_first", "policy_params": {"adopt_terms": 3}}, "['adopt_terms']"),
        (
            {"policy": "remote", "remote_endpoint": "http://localhost:1", "policy_params": {"bogus": 1}},
            "policy_params apply to archetype policies, not 'remote'",
        ),
    ],
)
def test_policy_and_its_params_are_validated(fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**fields).validate()


@pytest.mark.parametrize(
    "fields",
    [
        {"policy_params": {"adopt_terms": 3}},
        {"policy": "breadth_first", "policy_params": {"fanout": 2}},
        {"policy": "remote", "remote_endpoint": "http://localhost:1"},
    ],
)
def test_valid_policies_pass(fields):
    RunConfig(**fields).validate()


def test_episode_seed_is_pinned():
    # a changed seed derivation would change every logged episode
    assert episode_seed(7, "q42") == 14956209672476689988


def config_from_file(path) -> RunConfig:
    """A config file's settings as the CLI takes them: read, then validated."""
    cfg = RunConfig(**read_config_file(path))
    cfg.validate()
    return cfg


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"k": "5"}, "k must be int, got '5'"),
        ({"zscore": "false"}, "zscore must be bool, got 'false'"),
        ({"seed": 1.5}, "seed must be int, got 1.5"),
        ({"k": True}, "k must be int, got True"),
        ({"beta": True}, "beta must be float, got True"),
        ({"k": None}, "k must be int, got None"),
        ({"corpus": None}, "corpus must be str, got None"),
        ({"queries": 3}, "queries must be str, got 3"),
        ({"policy_params": [1]}, "policy_params must be dict, got [1]"),
    ],
)
def test_config_file_values_must_fit_their_field(tmp_path, fields, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fields))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        config_from_file(path)


@pytest.mark.parametrize(
    "fields",
    [{"beta": 1}, {"beta": 0.5}, {"qrels": None}, {"zscore": True}, {"policy_params": {"adopt_terms": 1}}],
)
def test_config_file_values_that_fit_load(tmp_path, fields):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fields))
    cfg = config_from_file(path)
    assert {name: getattr(cfg, name) for name in fields} == fields


@pytest.mark.parametrize("suffix, text", [(".json", '{"beta": 1}'), (".yaml", "beta: 1\n")])
def test_an_int_for_a_float_field_is_read_as_a_float(tmp_path, suffix, text):
    path = tmp_path / f"c{suffix}"
    path.write_text(text)
    cfg = config_from_file(path)
    assert type(cfg.beta) is float
    assert cfg.config_hash() == RunConfig(beta=1.0).config_hash()


def test_yaml_config_values_are_checked_too(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("k: 3\nzscore: 'yes'\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: zscore must be bool")):
        config_from_file(path)


@pytest.mark.parametrize(
    "suffix, text", [(".json", '{"top_k": 1, "k": 2, "zz": 0}'), (".yaml", "top_k: 1\nk: 2\nzz: 0\n")]
)
def test_an_unknown_config_key_is_an_error(tmp_path, suffix, text):
    # a misspelt key would leave its field at the default unnoticed
    path = tmp_path / f"c{suffix}"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: unknown config fields: top_k, zz")):
        read_config_file(path)


@pytest.mark.parametrize("name", ["corpus", "qrels", "queries", "embeddings", "episodes"])
@pytest.mark.parametrize("where", ["missing", "a directory"])
def test_an_input_path_must_be_a_file(tmp_path, name, where):
    path = tmp_path / "missing.jsonl" if where == "missing" else tmp_path
    with pytest.raises(ConfigError, match=re.escape(f"{name} is not a file: {path}")):
        RunConfig(**{name: str(path)}).validate()


def test_out_dir_must_not_be_a_file(tmp_path):
    path = tmp_path / "out"
    RunConfig(out_dir=str(path / "sub")).validate()
    path.mkdir()
    RunConfig(out_dir=str(path)).validate()
    path.rmdir()
    path.write_text("")
    # mkdir would raise FileExistsError, or NotADirectoryError below the file
    for out in (path, path / "sub"):
        with pytest.raises(ConfigError, match=re.escape(f"out_dir is not a directory: {out}")):
            RunConfig(out_dir=str(out)).validate()


def test_a_config_path_must_be_a_file(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"config is not a file: {path}")):
            read_config_file(path)


def test_a_config_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"k": "\xff"}')
    with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8 text")):
        read_config_file(path)
