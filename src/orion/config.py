"""Run configuration: file loading, validation, defaults, and seeding.

One structured config file (JSON or YAML) drives a run; secrets come from the
environment only (`ORION_API_KEY`, `ORION_EMBED_API_KEY`). All randomness
flows from the single root seed, split per episode, so a run is reproducible
from (config, seed, corpus files) alone.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .policy import REMOTE_MODES, ArchetypeConfig, derive_seed

log = logging.getLogger(__name__)

ENGINE_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Unreadable, unparseable, or out-of-range configuration."""


@dataclass
class RunConfig:
    corpus: str = ""
    qrels: str | None = None
    queries: str | None = None
    embeddings: str | None = None  # embedding file; None -> hash embedder
    embed_backend: str = "hash"  # "hash" | "service"
    embed_dim: int = 384
    embed_endpoint: str | None = None
    embed_model: str | None = None

    policy: str = "adaptive_context"  # archetype kind or "remote"
    policy_params: dict = field(default_factory=dict)
    remote_endpoint: str | None = None
    remote_model: str | None = None
    remote_mode: str = "structured"  # or "baseline"

    k: int = 5
    max_turns: int = 5
    beam_size: int = 2
    expansion: int = 2
    group_size: int = 4
    selection: str = "argmax"  # or "proportional"
    zscore: bool = False
    beta: float = 0.1
    max_query_chars: int = 300
    snippet_chars: int = 512

    seed: int = 0
    workers: int = 1
    out_dir: str = "out"

    def validate(self, check_paths: bool = True) -> None:
        ranges = {
            "k": (self.k, 1),
            "max_turns": (self.max_turns, 1),
            "beam_size": (self.beam_size, 1),
            "expansion": (self.expansion, 1),
            "group_size": (self.group_size, 2),
            "embed_dim": (self.embed_dim, 1),
            "workers": (self.workers, 1),
            "max_query_chars": (self.max_query_chars, 1),
            "snippet_chars": (self.snippet_chars, 1),
        }
        for name, (value, lo) in ranges.items():
            if value < lo:
                raise ConfigError(f"{name} must be >= {lo}, got {value}")
        if self.selection not in ("argmax", "proportional"):
            raise ConfigError(f"unknown selection mode {self.selection!r}")
        if self.embed_backend not in ("hash", "service"):
            raise ConfigError(f"unknown embed backend {self.embed_backend!r}")
        if self.embed_backend == "service" and not self.embed_endpoint:
            raise ConfigError("service embed backend needs embed_endpoint")
        if self.policy == "remote" and not self.remote_endpoint:
            raise ConfigError("remote policy needs remote_endpoint")
        if self.policy == "remote" and self.remote_mode not in REMOTE_MODES:
            raise ConfigError(f"unknown remote mode {self.remote_mode!r}")
        if self.policy != "remote":
            try:
                ArchetypeConfig(kind=self.policy, params=self.policy_params)
            except ValueError as exc:
                raise ConfigError(f"policy: {exc}") from exc
        if check_paths:
            for name in ("corpus", "qrels", "queries", "embeddings"):
                value = getattr(self, name)
                if value and not Path(value).exists():
                    raise ConfigError(f"{name} path does not exist: {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the fields that shape a run's records (not out_dir or workers)."""
        fields = {k: v for k, v in self.to_dict().items() if k not in ("out_dir", "workers")}
        canonical = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.config_hash(), "engine_version": ENGINE_VERSION}


def load_config(path: str | Path, check_paths: bool = True) -> RunConfig:
    """Load and validate a config file, warning about unknown fields."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        import yaml

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    known = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        log.warning("ignoring unknown config fields: %s", ", ".join(unknown))
    cfg = RunConfig(**{k: v for k, v in raw.items() if k in known})
    cfg.validate(check_paths=check_paths)
    return cfg


def episode_seed(root_seed: int, query_id: str) -> int:
    """Per-episode seed derived from the root seed (stable across processes)."""
    return derive_seed(root_seed, query_id)
