"""Command-line entry points tying the engine together.

Subcommands: index, run, beam, generate, grpo-collect, eval, report. Every
subcommand takes the same flags, `--config` and one per `RunConfig` field;
the file provides defaults, flags override it, and `main` validates the
merged settings once and hands them to the command's handler. Every output
file starts with a meta record carrying the config hash and engine version.
Failures exit nonzero with a machine-readable error record on stderr.

run, beam, generate and grpo-collect hand one job per query to the batch
driver, `engine.run_queries` (`--workers` threads, input order). A query whose
job raises gets its own error record (with its `query_id`) and is left out of
the log; the rest is still written, and the command exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import dataio
from .archetypes import PolicyResources, derive_rng
from .config import ConfigError, RunConfig, episode_seed, field_type, flag_name, read_config_file
from .corpus import CorpusError, CorpusIndex, Document, build_index
from .embed import EmbeddingServiceClient, EmbeddingServiceError, HashEmbedder
from .engine import (
    EpisodeConfig,
    EpisodeResult,
    Retriever,
    episode_from_dict,
    episode_job,
    episode_to_dict,
    run_queries,
)
from .metrics import (
    analyze_behavior,
    evaluate_episodes,
    write_behavior_report,
    write_metrics_report,
)
from .policy import ArchetypeConfig, RemotePolicy, ScriptedPolicy
from .rewards import GrpoConfig, collect_grouped_episode, make_training_record
from .synth import assemble_pool, generate_trajectory, sample_sft_dataset
from .trace import TraceError, serialize_trace
from .vocab import TfidfTable


def _json_object(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {text!r}")
    return value


def _add_settings(p: argparse.ArgumentParser) -> None:
    """`--config` plus one flag per `RunConfig` field; an absent flag is None."""
    p.add_argument("--config", help="config file (json or yaml); flags override it")
    for f in dataclasses.fields(RunConfig):
        kind = field_type(f)
        if kind is bool:
            options = {"action": argparse.BooleanOptionalAction}
        else:
            options = {"type": _json_object if kind is dict else kind}
        p.add_argument(flag_name(f), dest=f.name, help=f.metadata["help"], **options)


def _build_config(
    args: argparse.Namespace, check_paths: bool = True, needs: tuple[str, ...] = ()
) -> RunConfig:
    """The config file overridden by flags, then validated; each field in
    `needs` must be set (`ConfigError("<command> needs --<field>")`)."""
    settings = read_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            settings[f.name] = value
    cfg = RunConfig(**settings)
    cfg.validate(check_paths=check_paths)
    for name in needs:
        if not getattr(cfg, name):
            raise ConfigError(f"{args.command} needs --{name}")
    return cfg


# documents per `embed_batch` call (one service request) when a corpus is embedded
EMBED_CHUNK = 64


def _embed_corpus(embedder, docs: list[Document]) -> dict:
    """Embed each document's title and text, in chunks of `EMBED_CHUNK` in
    document order."""
    texts = [f"{d.title} {d.text}".strip() for d in docs]
    vectors = []
    for start in range(0, len(docs), EMBED_CHUNK):
        try:
            vectors.extend(embedder.embed_batch(texts[start : start + EMBED_CHUNK]))
        except EmbeddingServiceError as exc:
            raise EmbeddingServiceError(
                f"embedding the chunk that starts at document {docs[start].doc_id!r}: {exc}"
            ) from exc
    return {d.doc_id: v for d, v in zip(docs, vectors)}


def _load_index(cfg: RunConfig, embedder) -> tuple[list[Document], CorpusIndex]:
    """The documents of `cfg.corpus`, in file order, and their index; they are
    embedded with `embedder` unless `cfg.embeddings` holds their vectors."""
    docs = dataio.read_corpus(cfg.corpus)
    if not cfg.embeddings:
        return docs, build_index(docs, _embed_corpus(embedder, docs))
    embeddings = dataio.read_embeddings(cfg.embeddings)
    try:
        return docs, build_index(docs, embeddings)
    except CorpusError as exc:  # a bad vector, or an id the file lacks or adds
        raise CorpusError(f"{cfg.embeddings} for {cfg.corpus}: {exc}") from exc


def _embedder(cfg: RunConfig):
    if cfg.embed_backend == "service":
        return EmbeddingServiceClient(cfg.embed_endpoint, cfg.embed_model or "default")
    return HashEmbedder(cfg.embed_dim)


def _retriever(cfg: RunConfig) -> tuple[Retriever, list[Document]]:
    """The retriever over `cfg.corpus`, and its documents in file order."""
    embedder = _embedder(cfg)
    docs, index = _load_index(cfg, embedder)
    # a mismatch would fail every query; a service's dim is known only from its replies
    if isinstance(embedder, HashEmbedder) and embedder.dim != index.dim:
        raise ConfigError(f"{cfg.embeddings}: dim {index.dim}, but embed_dim is {embedder.dim}")
    return Retriever(index, embedder, snippet_chars=cfg.snippet_chars), docs


def _resources(retriever: Retriever, docs: list[Document]) -> PolicyResources:
    """What scripted steps read: the term table of `docs`, and the probe."""
    return PolicyResources(vocab=TfidfTable.from_documents(docs), probe=retriever.best_similarity)


def _policy_factory(cfg: RunConfig, retriever: Retriever, docs: list[Document]):
    """qid -> policy. A remote policy reads no term table, so only the
    scripted path builds `_resources`."""
    if cfg.policy == "remote":
        shared = RemotePolicy(
            cfg.remote_endpoint,
            cfg.remote_model or "default",
            mode=cfg.remote_mode,
            k=cfg.k,
            max_query_chars=cfg.max_query_chars,
        )
        return lambda qid: shared
    resources = _resources(retriever, docs)

    def make(qid: str) -> ScriptedPolicy:
        arch = ArchetypeConfig(kind=cfg.policy, seed=episode_seed(cfg.seed, qid), params=cfg.policy_params)
        return ScriptedPolicy(arch, resources, max_query_chars=cfg.max_query_chars)

    return make


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(path: Path, cfg: RunConfig, records: list[dict]) -> None:
    meta = {"record": "meta", **cfg.meta()}
    dataio.write_jsonl([meta] + records, path)


def _read_episode_log(path: str) -> list[tuple[str, EpisodeResult]]:
    """The episodes of a log written by `run` or `beam`; a malformed record
    is a CorpusError naming the file and line."""
    episodes = []
    for lineno, obj in dataio._json_lines(path):
        if obj.get("record") == "meta":
            continue
        try:
            episodes.append(episode_from_dict(obj))
        except (KeyError, TypeError, AttributeError, TraceError) as exc:
            raise CorpusError(
                f"{path}:{lineno}: malformed episode record ({type(exc).__name__}: {exc})"
            ) from exc
    return episodes


def cmd_index(cfg: RunConfig, command: str) -> int:
    _, index = _load_index(cfg, _embedder(cfg))
    out = _out_dir(cfg) / "index"
    out.mkdir(parents=True, exist_ok=True)
    embeddings = {d.doc_id: index.embedding_of(d.doc_id) for d in index.documents}
    dataio.write_embeddings(embeddings, out / "embeddings.orne")
    meta = {**cfg.meta(), "dim": index.dim, "count": len(index), "corpus": cfg.corpus}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"indexed {len(index)} docs (dim {index.dim}) -> {out}")
    return 0


def _error_record(exc: Exception, command: str, **extra: str) -> str:
    return json.dumps({"error": str(exc), "type": type(exc).__name__, "command": command, **extra})


def _each_query(cfg: RunConfig, command: str, job) -> tuple[list, int]:
    """`engine.run_queries` over the command's queries, with one error record on stderr
    per failed query. Returns the other results and the exit status, 1 if any failed."""
    queries = dataio.read_queries(cfg.queries)
    qrels = dataio.read_qrels(cfg.qrels) if cfg.qrels else {}
    outcomes = run_queries(queries, qrels, EpisodeConfig(cfg.k, cfg.max_turns), job, cfg.workers)
    for (qid, _), outcome in zip(queries, outcomes):
        if isinstance(outcome, Exception):
            print(_error_record(outcome, command, query_id=qid), file=sys.stderr)
    results = [outcome for outcome in outcomes if not isinstance(outcome, Exception)]
    return results, int(len(results) < len(outcomes))


def cmd_run(cfg: RunConfig, command: str) -> int:
    """`run` (greedy) and `beam`: one episode per query, logged to episodes.jsonl."""
    retriever, docs = _retriever(cfg)
    beam_size = cfg.beam_size if command == "beam" else None
    job = episode_job(_policy_factory(cfg, retriever, docs), retriever, beam_size, cfg.expansion)
    results, status = _each_query(cfg, command, job)
    out = _out_dir(cfg)
    _write_log(out / "episodes.jsonl", cfg, [episode_to_dict(q, r) for q, r in results])
    rendered = [
        f"=== {qid} [{r.trace.terminal_reason}] ===\n{serialize_trace(r.trace)}\n"
        for qid, r in results
    ]
    (out / "episodes.txt").write_text("\n".join(rendered))
    wins = sum(1 for _, r in results if r.succeeded)
    print(f"{len(results)} episodes, {wins} successful -> {out / 'episodes.jsonl'}")
    return status


def cmd_generate(cfg: RunConfig, command: str) -> int:
    """Pool trajectories of each archetype; `policy_params` go to `policy`'s kind only."""
    kinds = cfg.kinds()
    retriever, docs = _retriever(cfg)
    resources = _resources(retriever, docs)

    def job(qid: str, text: str, episode_cfg: EpisodeConfig):
        return [
            generate_trajectory(
                ArchetypeConfig(
                    kind=kind,
                    seed=episode_seed(cfg.seed, f"{kind}:{qid}"),
                    params=cfg.policy_params if kind == cfg.policy else {},
                ),
                text, retriever, resources, episode_cfg.target_ids,
                k=cfg.k, max_turns=cfg.max_turns, max_query_chars=cfg.max_query_chars,
            )
            for kind in kinds
        ]

    per_query, status = _each_query(cfg, command, job)
    pool = assemble_pool(r for records in per_query for r in records)
    out = _out_dir(cfg)
    _write_log(out / "pool.jsonl", cfg, [r.to_dict() for r in pool.records])
    print(f"pool of {len(pool)} trajectories -> {out / 'pool.jsonl'}")
    if cfg.sft_total:
        sft = sample_sft_dataset(pool.records, kinds, cfg.sft_total, seed=cfg.seed)
        _write_log(out / "sft.jsonl", cfg, [r.to_dict() for r in sft])
        print(f"sft dataset of {len(sft)} records -> {out / 'sft.jsonl'}")
    return status


def cmd_grpo_collect(cfg: RunConfig, command: str) -> int:
    retriever, docs = _retriever(cfg)
    grpo = GrpoConfig(
        group_size=cfg.group_size,
        selection=cfg.selection,
        advantage_mode="z_score" if cfg.zscore else "mean_center",
        beta=cfg.beta,
    )
    policy_for = _policy_factory(cfg, retriever, docs)

    def job(qid: str, text: str, episode_cfg: EpisodeConfig):
        trace, groups = collect_grouped_episode(
            policy_for(qid), retriever, text, episode_cfg, grpo,
            derive_rng(cfg.seed, "grpo-select", qid),
        )
        return make_training_record(trace, groups, grpo).to_dict()

    records, status = _each_query(cfg, command, job)
    out = _out_dir(cfg)
    _write_log(out / "training_records.jsonl", cfg, records)
    print(f"{len(records)} training records -> {out / 'training_records.jsonl'}")
    return status


def cmd_eval(cfg: RunConfig, command: str) -> int:
    report = evaluate_episodes(_read_episode_log(cfg.episodes), dataio.read_qrels(cfg.qrels), cfg.k)
    write_metrics_report(report, _out_dir(cfg), meta=cfg.meta())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


def cmd_report(cfg: RunConfig, command: str) -> int:
    episodes = _read_episode_log(cfg.episodes)
    report = analyze_behavior(episodes, relaxed_stagnation=cfg.relaxed_stagnation)
    write_behavior_report(report, _out_dir(cfg), meta=cfg.meta())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


# name: (handler(cfg, name), help, the fields it needs, whether its input paths must exist)
COMMANDS = {
    "index": (cmd_index, "build and persist an index", ("corpus",), True),
    "run": (cmd_run, "run greedy multi-turn episodes", ("corpus", "queries"), True),
    "beam": (cmd_run, "run beam-search episodes", ("corpus", "queries"), True),
    "generate": (cmd_generate, "generate synthetic trajectory pool / SFT data", ("corpus", "queries"), True),
    "grpo-collect": (cmd_grpo_collect, "collect grouped samples with rewards", ("corpus", "queries"), True),
    "eval": (cmd_eval, "IR metrics over an episode log", ("episodes", "qrels"), False),
    "report": (cmd_report, "behavior analytics over an episode log", ("episodes",), False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orion", description="Adaptive multi-turn retrieval engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in COMMANDS.items():
        _add_settings(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handler, _, needs, check_paths = COMMANDS[args.command]
    try:
        return handler(_build_config(args, check_paths, needs), args.command)
    except Exception as exc:
        print(_error_record(exc, args.command), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
