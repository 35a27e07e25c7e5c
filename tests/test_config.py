from __future__ import annotations

import re

import pytest

from orion.config import ConfigError, RunConfig, episode_seed


def test_config_hash_ignores_where_and_how_parallel_a_run_is_written():
    base = RunConfig()
    assert RunConfig(out_dir="elsewhere", workers=4).config_hash() == base.config_hash()
    assert RunConfig(k=3).config_hash() != base.config_hash()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"policy_params": {"adopt_terms": 3, "fanout": 2}}, "unknown params for adaptive_context: ['fanout']"),
        ({"policy": "breadth_first", "policy_params": {"adopt_terms": 3}}, "['adopt_terms']"),
    ],
)
def test_policy_and_its_params_are_validated(fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(**fields).validate(check_paths=False)


@pytest.mark.parametrize(
    "fields",
    [
        {"policy_params": {"adopt_terms": 3}},
        {"policy": "breadth_first", "policy_params": {"fanout": 2}},
        {"policy": "remote", "remote_endpoint": "http://localhost:1"},
    ],
)
def test_valid_policies_pass(fields):
    RunConfig(**fields).validate(check_paths=False)


def test_episode_seed_is_pinned():
    # a changed seed derivation would change every logged episode
    assert episode_seed(7, "q42") == 14956209672476689988
