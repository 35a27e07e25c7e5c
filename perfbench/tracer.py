"""Benchmark tracing: wrap orion's public functions from outside the package.

`Tracer.install()` replaces each traced name with a wrapper that records one
span per call: (name, start, end, parent span, episode). A name is patched
where callers look it up, so functions bound by ``from`` imports are patched
in the importing module too (for example ``orion.rewards.execute_action``).
Spans stay in memory; `Tracer.dump()` writes them, with per-name counts and
self times, once when the run ends. Self time is a span's duration minus the
time covered by its child spans.

Install the tracer before building `PolicyResources`: its ``probe`` is a
bound method captured at construction time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import orion.corpus
import orion.dataio
import orion.embed
import orion.engine
import orion.policy
import orion.rewards
import orion.synth
import orion.vocab

# (owner, attribute, span name); a callable name gets the call's arguments
_Name = str | Callable[..., str]


def _propose_name(policy, *args, **kwargs) -> str:
    return f"policy.propose.{policy.config.kind}"


def _patch_table(tracer: "Tracer") -> list[tuple[object, str, _Name]]:
    def embed_name(*args, **kwargs) -> str:
        return "embed.corpus" if tracer.phase == "setup" else "embed.query"

    corpus, dataio, engine, rewards = orion.corpus, orion.dataio, orion.engine, orion.rewards
    return [
        (corpus.CorpusIndex, "search", "corpus.search"),
        (corpus.CorpusIndex, "rank_of", "corpus.rank_of"),
        (corpus.CorpusIndex, "similarity_to", "corpus.similarity_to"),
        (corpus.CorpusIndex, "full_ranking", "corpus.full_ranking"),
        (corpus, "build_index", "corpus.build_index"),
        (orion.embed.HashEmbedder, "__call__", embed_name),
        (orion.vocab.TfidfTable, "expansions", "vocab.expansions"),
        (orion.vocab.TfidfTable, "neighbors", "vocab.neighbors"),
        (orion.vocab.TfidfTable, "top_terms", "vocab.top_terms"),
        (orion.vocab.TfidfTable, "from_documents", "vocab.build"),
        (orion.policy.ScriptedPolicy, "propose", _propose_name),
        (engine.Retriever, "best_similarity", "engine.best_similarity"),
        (engine, "execute_action", "engine.execute_action"),
        (rewards, "execute_action", "engine.execute_action"),
        (engine, "run_episode", "engine.run_episode"),
        (orion.synth, "run_episode", "engine.run_episode"),
        (engine, "run_batch", "engine.run_batch"),
        (engine, "snapshot_results", "trace.snapshot_results"),
        (engine, "append_turn", "trace.append_turn"),
        (rewards, "append_turn", "trace.append_turn"),
        (rewards, "candidate_signals", "rewards.candidate_signals"),
        (rewards, "collect_grouped_episode", "rewards.collect_grouped_episode"),
        (rewards, "make_training_record", "rewards.make_training_record"),
        (orion.synth, "generate_trajectory", "synth.generate_trajectory"),
        (dataio, "read_corpus", "dataio.read_corpus"),
        (dataio, "read_qrels", "dataio.read_qrels"),
        (dataio, "read_queries", "dataio.read_queries"),
        (dataio, "read_embeddings", "dataio.read_embeddings"),
        (dataio, "write_jsonl", "dataio.write_jsonl"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.episode = -1
        self.spans: list[list] = []  # [name, start, end, self_s, parent, episode]
        self._stack: list[list] = []  # open spans: [child_s, index, parent, start]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> list:
        frame = [0.0, len(self.spans), self._stack[-1][1] if self._stack else -1, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        child_s, idx, parent, start = frame
        if self._stack:
            self._stack[-1][0] += end - start
        self.spans[idx] = [name, start, end, end - start - child_s, parent, self.episode]

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (episodes, set-up steps)."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def _wrap(self, fn: Callable, name: _Name) -> Callable:
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(fixed or name(*args, **kwargs), frame)

        return traced

    def install(self) -> None:
        for owner, attr, name in _patch_table(self):
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name call counts, total time and self time."""
        agg: dict[str, dict[str, float]] = {}
        for name, start, end, self_s, _parent, _episode in self.spans:
            a = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["total_s"] += end - start
            a["self_s"] += self_s
        return agg

    def dump(self, path: Path, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        body = {
            **extra,
            "aggregate": self.aggregate(),
            "span_fields": ["name", "start", "end", "self_s", "parent", "episode"],
            "names": names,
            "spans": [[ids[s[0]], *s[1:]] for s in self.spans],
        }
        path.write_text(json.dumps(body))
