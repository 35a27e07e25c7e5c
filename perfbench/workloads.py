"""The benchmark's workloads: set-up, the episode loop, and output checks.

Each workload drives orion's public API in the order the CLI does: `dataio`
readers, then `build_index` and `TfidfTable.from_documents`, then a
`Retriever`, then the command's episode driver (`run_batch`,
`synth.generate_trajectory` or `rewards.collect_grouped_episode`), then
`dataio.write_jsonl`. Names are looked up on their modules at call time so
that `tracer.Tracer` can wrap them.

Queries are split into fixed blocks; `Runner.run_block` runs one block, one
episode at a time, and writes its log. `check_block` checks a written log
against the engine's documented rules and an independent scoring oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from orion import config, corpus, dataio, embed, engine, rewards, synth, vocab
from orion.archetypes import KINDS, PolicyResources
from orion.policy import ArchetypeConfig, ScriptedPolicy, derive_rng

from gen import CorpusSpec

FALLBACK_PREFIX = "Hit a dead end ("  # how archetypes._fallback opens its think text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    dim: int  # embedding dimension of corpus and queries
    block: int  # queries per logged block
    log: str  # log file name, as the matching CLI command writes it

    def __post_init__(self) -> None:
        if self.spec.orne_dim not in (None, self.dim):
            raise ValueError(f"{self.name}: ORNE dim {self.spec.orne_dim} != dim {self.dim}")


# Query difficulty is set so that episode lengths stay mixed but not balanced:
# the median and p95 each fall inside one cluster of episode lengths (one turn
# or the full budget), so they do not jump between clusters from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "greedy_scan",
            "orion run, adaptive_context, 5k docs read from ORNE: three full-corpus scans "
            "per turn dominate and vocab work is small",
            CorpusSpec(n_docs=5000, n_queries=4000, n_topics=50, query_distinct_p=0.85,
                       orne_dim=384),
            dim=384,
            block=100,
            log="episodes.jsonl",
        ),
        Workload(
            "pool_vocab",
            "orion generate over all ten archetypes, 2k docs in 10 broad topics, dim 128: "
            "TfidfTable expansions and neighbors dominate",
            CorpusSpec(n_docs=2000, n_queries=200, n_topics=10, query_distinct_p=0.4),
            dim=128,
            block=5,
            log="pool.jsonl",
        ),
        Workload(
            "grpo_multitarget",
            "orion grpo-collect, G=4, 5k docs, up to 3 targets per query: each candidate "
            "rescans the corpus per target",
            CorpusSpec(n_docs=5000, n_queries=320, n_topics=50, query_distinct_p=0.8,
                       extra_targets=2),
            dim=384,
            block=10,
            log="training_records.jsonl",
        ),
    )
}


class Loaded:
    """Everything set-up produces; what the CLI holds after `_retriever`."""

    def __init__(self, workload: Workload, data: Path, seed: int):
        w = workload
        self.cfg = config.RunConfig(
            corpus=str(data / "corpus.jsonl"),
            qrels=str(data / "qrels.tsv"),
            queries=str(data / "queries.jsonl"),
            embeddings=str(data / "embeddings.orne") if w.spec.orne_dim else None,
            embed_dim=w.dim,
            policy="adaptive_context",
            group_size=4,
            selection="argmax",
            seed=seed,
            workers=1,
        )
        cfg = self.cfg
        docs = dataio.read_corpus(cfg.corpus)
        self.qrels = dataio.read_qrels(cfg.qrels)
        self.queries = dataio.read_queries(cfg.queries)
        if cfg.embeddings:
            embeddings = dataio.read_embeddings(cfg.embeddings)
        else:
            embedder = embed.HashEmbedder(cfg.embed_dim)
            embeddings = {d.doc_id: embedder(f"{d.title} {d.text}".strip()) for d in docs}
        index = corpus.build_index(docs, embeddings)
        self.vocab = vocab.TfidfTable.from_documents(docs)
        self.retriever = engine.Retriever(
            index, embed.HashEmbedder(cfg.embed_dim), snippet_chars=cfg.snippet_chars
        )

    def targets(self, qid: str) -> frozenset[str]:
        return frozenset(d for d, g in self.qrels.get(qid, {}).items() if g >= 1)


@dataclass
class BlockResult:
    records: list[dict]
    episode_s: list[float]
    successes: int
    errors: int


class Runner:
    """Runs blocks of one workload against one set-up."""

    def __init__(self, workload: Workload, env: Loaded, out: Path, tracer=None):
        self.w = workload
        self.env = env
        self.out = out
        self.tracer = tracer
        cfg = env.cfg
        self.resources = PolicyResources(vocab=env.vocab, probe=env.retriever.best_similarity)
        self.grpo = rewards.GrpoConfig(
            group_size=cfg.group_size,
            selection=cfg.selection,
            advantage_mode="z_score" if cfg.zscore else "mean_center",
            beta=cfg.beta,
        )
        self.episodes_run = 0

    def blocks(self) -> int:
        return math.ceil(len(self.env.queries) / self.w.block)

    def policy_for(self, qid: str) -> ScriptedPolicy:
        cfg = self.env.cfg
        arch = ArchetypeConfig(
            kind=cfg.policy, seed=config.episode_seed(cfg.seed, qid), params=cfg.policy_params
        )
        return ScriptedPolicy(arch, self.resources, max_query_chars=cfg.max_query_chars)

    # One method per workload: each yields a thunk per episode, in log order,
    # that runs the episode the way the matching CLI command does and returns
    # (log record, succeeded).

    def _greedy_scan(self, block: list[tuple[str, str]]):
        env, cfg = self.env, self.env.cfg
        episode_cfg = engine.EpisodeConfig(k=cfg.k, max_turns=cfg.max_turns)
        for q in block:
            def one(q=q):
                [(qid, result)] = engine.run_batch(
                    [q], env.qrels, self.policy_for, env.retriever, episode_cfg, workers=cfg.workers
                )
                return engine.episode_to_dict(qid, result), result.succeeded
            yield one

    def _pool_vocab(self, block: list[tuple[str, str]]):
        env, cfg = self.env, self.env.cfg
        for qid, text in block:
            for kind in KINDS:
                def one(qid=qid, text=text, kind=kind):
                    arch = ArchetypeConfig(
                        kind=kind, seed=config.episode_seed(cfg.seed, f"{kind}:{qid}"),
                        params=cfg.policy_params,
                    )
                    rec = synth.generate_trajectory(
                        arch, text, env.retriever, self.resources, env.targets(qid),
                        k=cfg.k, max_turns=cfg.max_turns,
                    )
                    return rec, rec.terminal_reason == "success"
                yield one

    def _grpo_multitarget(self, block: list[tuple[str, str]]):
        env, cfg = self.env, self.env.cfg
        for qid, text in block:
            def one(qid=qid, text=text):
                episode_cfg = engine.EpisodeConfig(
                    k=cfg.k, max_turns=cfg.max_turns, target_ids=env.targets(qid)
                )
                trace, groups = rewards.collect_grouped_episode(
                    self.policy_for(qid), env.retriever, text, episode_cfg, self.grpo,
                    derive_rng(cfg.seed, "grpo-select", qid),
                )
                record = rewards.make_training_record(trace, groups, self.grpo).to_dict()
                return record, trace.terminal_reason == "success"
            yield one

    def run_block(self, b: int) -> BlockResult:
        """Run block `b` one episode at a time and write its log."""
        block = self.env.queries[b * self.w.block : (b + 1) * self.w.block]
        res = BlockResult([], [], 0, 0)
        for one in getattr(self, f"_{self.w.name}")(block):
            if self.tracer:
                self.tracer.episode = self.episodes_run
            self.episodes_run += 1
            span = self.tracer.span("episode") if self.tracer else nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    record, ok = one()
            except Exception as exc:  # one bad episode must not end the run
                res.errors += 1
                print(f"episode error in block {b}: {type(exc).__name__}: {exc}")
                continue
            finally:
                res.episode_s.append(perf_counter() - t0)
            res.records.append(record)
            res.successes += ok
        if self.tracer:
            self.tracer.episode = -1
        if self.w.name == "pool_vocab":
            res.records = [r.to_dict() for r in synth.assemble_pool(res.records).records]
        meta = {"record": "meta", **self.env.cfg.meta()}
        dataio.write_jsonl([meta] + res.records, self.out / self.w.log)
        return res


def log_digest(path: Path) -> str:
    """sha256 (first 16 hex digits) of a log without its leading meta record."""
    with open(path, "rb") as fh:
        if json.loads(fh.readline()).get("record") != "meta":
            raise ValueError(f"{path}: first record is not the meta record")
        return hashlib.sha256(fh.read()).hexdigest()[:16]


# --- output checks ----------------------------------------------------------


# How far a logged score may stray from the oracle's. Reordering a float sum
# (a batched scan, another BLAS kernel) moves only the last bits of a cosine.
SCORE_TOL = 1e-9


class Oracle:
    """Independent scorer: cosines from raw dot products and norms, compared
    with the logged results within `SCORE_TOL`."""

    def __init__(self, retriever: engine.Retriever, dim: int):
        index = retriever.index
        self.ids = sorted(d.doc_id for d in index.documents)
        self.m = np.vstack([index.embedding_of(i) for i in self.ids])
        self.norms = np.sqrt(np.einsum("ij,ij->i", self.m, self.m))
        self.row = {i: r for r, i in enumerate(self.ids)}
        self.embed = embed.HashEmbedder(dim)

    def scores(self, query: str) -> np.ndarray:
        q = np.asarray(self.embed(query), dtype=np.float64)
        return (self.m @ q) / (self.norms * math.sqrt(float(q @ q)))

    def rank_range(self, scores: np.ndarray, doc_id: str) -> tuple[int, int]:
        """Lowest and highest rank of `doc_id` that the scores allow within the tolerance."""
        s = scores[self.row[doc_id]]
        return (int(np.count_nonzero(scores > s + SCORE_TOL)),
                int(np.count_nonzero(scores >= s - SCORE_TOL)) - 1)

    def check_turn(self, query: str, ids: list[str], best: float | None, k: int) -> list[str]:
        """The logged top-k: k distinct docs in descending score, none left out
        that scores higher than the lowest one kept."""
        scores = self.scores(query)
        n = min(k, len(scores))
        rows = [self.row.get(i) for i in ids]
        if len(ids) != n or None in rows or len(set(ids)) != n:
            return [f"top-{k} for {query!r} is {ids}, not {n} distinct corpus ids"]
        kept = scores[rows]
        left = np.delete(scores, rows)
        problems = []
        if np.any(kept[1:] > kept[:-1] + SCORE_TOL) or (left.size and left.max() > kept.min() + SCORE_TOL):
            want = [self.ids[i] for i in np.argsort(-scores, kind="stable")[:n]]
            problems.append(f"top-{k} for {query!r} is {ids}, expected {want}")
        if best is not None and abs(best - scores.max()) > SCORE_TOL:
            problems.append(f"best score for {query!r} is {best}, expected {scores.max()}")
        return problems


def _hit(ids: list[str], targets: frozenset[str], k: int) -> bool:
    return any(d in targets for d in ids[:k])


def _check_ranked(ids: list[str], scores: list[float]) -> list[str]:
    pairs = list(zip(scores, ids))
    bad = [a for a, b in zip(pairs, pairs[1:]) if not (a[0] > b[0] or (a[0] == b[0] and a[1] < b[1]))]
    return [f"results out of order: {ids}"] if bad else []


def _check_turns(turns: list[dict], targets: frozenset[str], k: int, max_turns: int,
                 success: bool) -> list[str]:
    """Stop rule and rank bookkeeping shared by all three logs.

    Each turn is {"ids", "rank"}; the episode stops at the first turn whose
    top-k holds a target, else after `max_turns` turns.
    """
    if not 1 <= len(turns) <= max_turns:
        return [f"{len(turns)} turns outside [1, {max_turns}]"]
    problems = []
    hits = [_hit(t["ids"], targets, k) for t in turns]
    if any(hits[:-1]):
        problems.append("episode continued after a target reached the top-k")
    if success != hits[-1] or (not success and len(turns) != max_turns):
        problems.append(f"terminal outcome success={success} contradicts the turns")
    for t, hit in zip(turns, hits):
        if (t["rank"] is not None and 0 <= t["rank"] < k) != hit:
            problems.append(f"target rank {t['rank']} contradicts top-{k} {t['ids']}")
    return problems


def _oracle_turn(oracle: Oracle, query: str, ids: list[str], best: float | None,
                 rank: int | None, sim: float | None, targets: frozenset[str], k: int) -> list[str]:
    problems = oracle.check_turn(query, ids, best, k)
    scores = oracle.scores(query)
    ranges = [oracle.rank_range(scores, t) for t in targets]
    lo, hi = min(r[0] for r in ranges), min(r[1] for r in ranges)
    if rank is not None and not lo <= rank <= hi:
        problems.append(f"target rank for {query!r} is {rank}, expected {lo} to {hi}")
    want_sim = max(float(scores[oracle.row[t]]) for t in targets)
    if sim is not None and abs(sim - want_sim) > SCORE_TOL:
        problems.append(f"similarity to target for {query!r} is {sim}, expected {want_sim}")
    return problems


def check_block(w: Workload, env: Loaded, oracle: Oracle, b: int, records: list[dict]) -> list[str]:
    """Check one block's log records against the engine's documented rules.

    Every record gets the structural checks; the block's first record is also
    re-scored turn by turn against the oracle.
    """
    cfg = env.cfg
    k, max_turns = cfg.k, cfg.max_turns
    queries = env.queries[b * w.block : (b + 1) * w.block]
    problems: list[str] = []
    if w.name == "greedy_scan":
        if [r["query_id"] for r in records] != [q for q, _ in queries]:
            problems.append("episode log does not follow the query order")
        for i, r in enumerate(records):
            turns = r["trace"]["turns"]
            targets = env.targets(r["query_id"])
            view = [{"ids": [d["doc_id"] for d in t["results"]], "rank": t["target_rank"]}
                    for t in turns]
            success = r["terminal_reason"] == "success"
            problems += _check_turns(view, targets, k, max_turns, success)
            if r["per_turn_ranks"] != [t["target_rank"] for t in turns]:
                problems.append("per_turn_ranks disagree with the turns")
            if success != (r["success_turn"] == len(turns)):
                problems.append("success_turn disagrees with the terminal reason")
            for t, v in zip(turns, view):
                problems += _check_ranked(v["ids"], [d["score"] for d in t["results"]])
                if i == 0:
                    problems += _oracle_turn(oracle, t["query"], v["ids"], t["results"][0]["score"],
                                             t["target_rank"], t["sim_to_target"], targets, k)
    elif w.name == "pool_vocab":
        by_text: dict[str, str] = {}
        for qid, text in queries:
            by_text.setdefault(text, qid)
        if not 1 <= len(records) <= len(queries) * len(KINDS):
            problems.append(f"{len(records)} pool records for {len(queries)} queries")
        for i, r in enumerate(records):
            if r["q0"] not in by_text or r["source"] not in KINDS:
                problems.append(f"pool record for unknown query or source: {r['q0']!r}, {r['source']!r}")
                continue
            targets = env.targets(by_text[r["q0"]])
            view = [{"ids": t["result_ids"], "rank": t["rank"]} for t in r["turns"]]
            problems += _check_turns(view, targets, k, min(max_turns, synth.MAX_POOL_TURNS),
                                     r["terminal_reason"] == "success")
            for t in r["turns"]:
                if t["cos"] is not None and not -1.0 <= t["cos"] <= 1.0:
                    problems.append(f"cosine {t['cos']} outside [-1, 1]")
                if i == 0:
                    problems += _oracle_turn(oracle, t["query"], t["result_ids"], None,
                                             t["rank"], t["cos"], targets, k)
    else:
        if len(records) != len(queries):
            problems.append(f"{len(records)} training records for {len(queries)} queries")
        corpus_size = len(env.retriever.index)
        for i, ((qid, text), r) in enumerate(zip(queries, records)):
            targets = env.targets(qid)
            if not r["text"].startswith(f"<user_query>{text}</user_query>"):
                problems.append(f"training record {i} is not for query {qid}")
            ends = [0] + [e for _, e, _ in r["spans"]]
            if [s for s, _, _ in r["spans"]] != ends[:-1] or ends[-1] != len(r["text"]):
                problems.append(f"mask spans of record {i} do not partition its text")
            view = []
            for g in r["groups"]:
                cands = g["candidates"]
                rewards_ = [c["reward"] for c in cands]
                mean = sum(rewards_) / len(rewards_)
                if len(cands) != env.cfg.group_size or g["advantages"] != [x - mean for x in rewards_]:
                    problems.append("group size or mean-centred advantages are wrong")
                if g["selected"] != max(range(len(cands)), key=lambda j: (rewards_[j], -j)):
                    problems.append("argmax selection picked the wrong candidate")
                for c in cands:
                    sim_norm = c["raw_sim"] if c["raw_sim"] >= 0 else (c["raw_sim"] + 1) / 2
                    rank_norm = 0.0 if c["rank"] == -1 else 1 - c["rank"] / corpus_size
                    if (c["sim_norm"], c["rank_norm"], c["reward"]) != (
                        sim_norm, rank_norm, 0.5 * sim_norm + 0.5 * rank_norm
                    ):
                        problems.append(f"reward breakdown is wrong for {c['query']!r}")
                    if i == 0 and g is r["groups"][0]:
                        problems += _oracle_turn(oracle, c["query"], c["result_ids"], c["raw_sim"],
                                                 c["rank"], None, targets, k)
                chosen = cands[g["selected"]]
                view.append({"ids": chosen["result_ids"], "rank": chosen["rank"]})
            if view:
                problems += _check_turns(view, targets, k, max_turns, _hit(view[-1]["ids"], targets, k))
            else:
                problems.append(f"training record {i} has no groups")
    return problems


def think_texts(w: Workload, records: list[dict]) -> list[str]:
    """Every think text in a block's log, for counting `_fallback` steps."""
    if w.name == "greedy_scan":
        return [t["think"] for r in records for t in r["trace"]["turns"]]
    if w.name == "pool_vocab":
        return [t["think"] for r in records for t in r["turns"]]
    return [c["think"] for r in records for g in r["groups"] for c in g["candidates"]]
