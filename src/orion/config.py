"""Run configuration: file loading, validation, defaults, and seeding.

`RunConfig`'s fields are the one list of settings: each is a config-file key,
an `orion` flag (the only other flag is `--config`), and, but for `out_dir`
and `workers`, a part of `config_hash`. Secrets come from the environment only
(`ORION_API_KEY`, `ORION_EMBED_API_KEY`). All randomness flows from the single
root seed, split per episode, so a run is reproducible from (config, seed,
corpus files) alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from pathlib import Path

from .archetypes import KINDS, derive_seed
from .policy import REMOTE_MODES, ArchetypeConfig
from .rewards import SELECTION_MODES

ENGINE_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Unreadable, unparseable, or out-of-range configuration."""


def _setting(default, help: str, flag: str | None = None, at_least: int | None = None):
    """A `RunConfig` field: its default, its flag's help text, the flag's name
    where it is not the field name's (see `flag_name`), and its lowest value."""
    metadata = {"help": help, "flag": flag, "at_least": at_least}
    if isinstance(default, dict):
        return field(default_factory=lambda: dict(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Every run setting. The fields are the config-file keys, and each one
    has an `orion` flag generated from it."""

    corpus: str = _setting("", "corpus JSON Lines file")
    qrels: str | None = _setting(None, "qrels TSV file")
    queries: str | None = _setting(None, "queries JSON Lines file")
    embeddings: str | None = _setting(None, "embedding file (else documents are embedded)")
    episodes: str | None = _setting(None, "episode log (episodes.jsonl) of eval and report")
    embed_backend: str = _setting("hash", "embedder: 'hash' or 'service'")
    embed_dim: int = _setting(384, "hash embedder dimension", at_least=1)
    embed_endpoint: str | None = _setting(None, "embedding service URL (service backend)")
    embed_model: str | None = _setting(None, "embedding service model name")

    policy: str = _setting("adaptive_context", f"archetype kind ({', '.join(KINDS)}) or 'remote'")
    policy_params: dict = _setting({}, "JSON object of knobs for the policy's archetype kind")
    remote_endpoint: str | None = _setting(None, "remote policy URL")
    remote_model: str | None = _setting(None, "remote policy model name")
    remote_mode: str = _setting("structured", f"remote policy mode ({', '.join(REMOTE_MODES)})")

    k: int = _setting(5, "retrieval depth per turn", flag="--top-k", at_least=1)
    max_turns: int = _setting(5, "turn budget per episode", at_least=1)
    beam_size: int = _setting(2, "beam survivors per turn (B)", at_least=1)
    expansion: int = _setting(2, "candidates per beam per turn (M)", at_least=1)
    group_size: int = _setting(4, "grouped-sampling size (G)", at_least=2)
    selection: str = _setting("argmax", f"grouped-sample selection ({', '.join(SELECTION_MODES)})")
    zscore: bool = _setting(False, "z-score group advantages (else mean-centred)")
    beta: float = _setting(0.1, "KL coefficient echoed in training records for the trainer")
    max_query_chars: int = _setting(300, "longest query a policy may issue", at_least=1)
    snippet_chars: int = _setting(512, "characters shown of each retrieved document", at_least=1)
    archetypes: str | None = _setting(None, "kinds generate pools, comma-separated (default: all)")
    sft_total: int = _setting(0, "size of generate's balanced SFT dataset (0: none)", at_least=0)
    relaxed_stagnation: bool = _setting(False, "report: a repeated consecutive rank is stagnation")

    seed: int = _setting(0, "root RNG seed")
    workers: int = _setting(1, "query worker threads (every batch command)", at_least=1)
    out_dir: str = _setting("out", "output directory", flag="--out")

    def validate(self) -> None:
        for f in fields(self):
            lo, value = f.metadata["at_least"], getattr(self, f.name)
            if lo is not None and value < lo:
                raise ConfigError(f"{f.name} must be >= {lo}, got {value}")
            if isinstance(value, float) and not math.isfinite(value):
                # json.dumps would log it as NaN or Infinity, which is not JSON
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.selection not in SELECTION_MODES:
            raise ConfigError(f"unknown selection mode {self.selection!r}")
        kinds = self.kinds()
        unknown = [kind for kind in kinds if kind not in KINDS]
        if unknown:
            raise ConfigError(f"unknown archetypes {unknown}; expected some of {KINDS}")
        repeated = sorted({kind for kind in kinds if kinds.count(kind) > 1})
        if repeated:
            raise ConfigError(f"archetypes repeated: {repeated}")
        if self.embed_backend not in ("hash", "service"):
            raise ConfigError(f"unknown embed backend {self.embed_backend!r}")
        if self.embed_backend == "service" and not self.embed_endpoint:
            raise ConfigError("service embed backend needs embed_endpoint")
        if self.policy == "remote" and not self.remote_endpoint:
            raise ConfigError("remote policy needs remote_endpoint")
        if self.policy == "remote" and self.remote_mode not in REMOTE_MODES:
            raise ConfigError(f"unknown remote mode {self.remote_mode!r}")
        if self.policy == "remote" and self.policy_params:
            # no remote run reads them, yet they would change config_hash
            raise ConfigError("policy_params apply to archetype policies, not 'remote'")
        if self.policy != "remote":
            try:
                ArchetypeConfig(kind=self.policy, params=self.policy_params)
            except ValueError as exc:
                raise ConfigError(f"policy: {exc}") from exc
        for name in ("corpus", "qrels", "queries", "embeddings", "episodes"):
            value = getattr(self, name)
            if value and not Path(value).is_file():
                raise ConfigError(f"{name} is not a file: {value}")
        # `out_dir` is made if missing, so its nearest existing path must be a directory
        out = Path(self.out_dir)
        nearest = next((p for p in (out, *out.parents) if p.exists()), out)
        if not nearest.is_dir():
            raise ConfigError(f"out_dir is not a directory: {self.out_dir}")

    def kinds(self) -> list[str]:
        """The kinds `generate` pools: `archetypes` split at commas, or all."""
        return self.archetypes.split(",") if self.archetypes else list(KINDS)

    def config_hash(self) -> str:
        """Hash of the fields that shape a run's records (not out_dir or workers)."""
        shaping = {k: v for k, v in asdict(self).items() if k not in ("out_dir", "workers")}
        canonical = json.dumps(shaping, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def meta(self) -> dict:
        return {"config_hash": self.config_hash(), "engine_version": ENGINE_VERSION}


def flag_name(f: Field) -> str:
    """The `orion` flag of a `RunConfig` field: `--field-name` unless named."""
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def field_type(f: Field) -> type:
    """The type of a `RunConfig` field's values, read off its default; a
    field whose default is None holds a str."""
    default = f.default_factory() if f.default is MISSING else f.default
    return str if default is None else type(default)


def fits(f: Field, value: object) -> bool:
    """Whether `value` may set the field: it has the field's `field_type`,
    where a bool is no int and an int is a float; None only where the
    default is None."""
    kind = field_type(f)
    if value is None:
        return f.default is None
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def read_config_file(path: str | Path) -> dict:
    """The settings of a config file, each checked against its field's type;
    an int given for a float field becomes a float, as its flag parses it, so
    both give one `config_hash`. A key that names no field is a ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config is not a file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
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
    known = {f.name: f for f in fields(RunConfig)}
    unknown = sorted(str(name) for name in raw.keys() - known.keys())
    if unknown:
        raise ConfigError(f"{path}: unknown config fields: {', '.join(unknown)}")
    for name, value in raw.items():
        if not fits(known[name], value):
            kind = field_type(known[name]).__name__
            raise ConfigError(f"{path}: {name} must be {kind}, got {value!r}")
        if field_type(known[name]) is float:
            raw[name] = float(value)
    return raw


def episode_seed(root_seed: int, query_id: str) -> int:
    """Per-episode seed derived from the root seed (stable across processes)."""
    return derive_seed(root_seed, query_id)
