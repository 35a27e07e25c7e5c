"""One benchmark run: inputs, set-up, run phase, output checks and metrics.

`run.py` pins BLAS and puts `src/` and this directory on the path before
importing this module; see README.md for what each metric means.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from orion import dataio
from orion.archetypes import KINDS
from tracer import Tracer
from workloads import (
    FALLBACK_PREFIX, WORKLOADS, Loaded, Oracle, Runner, Workload, check_block, log_digest, think_texts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUPS = 10  # set-ups per pass of an untraced run; setup_s is their median

END_TO_END = {
    "episodes_per_s": "1/s",
    "episode_p50_ms": "ms",
    "episode_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}


def _key(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:12]


def inputs_key(w: Workload) -> str:
    """Key of what shapes the generated inputs."""
    return _key(gen.GENERATOR_VERSION, dataclasses.asdict(w.spec))


def spec_key(w: Workload) -> str:
    """Key of what shapes the logs: the inputs plus the workload's settings."""
    return _key(gen.GENERATOR_VERSION, {k: v for k, v in dataclasses.asdict(w).items() if k != "why"})


def ensure_inputs(w: Workload, seed: int) -> Path:
    """Generate the workload's input files once per (spec, seed), in a subprocess."""
    path = CACHE / f"{w.name}-{inputs_key(w)}-s{seed}"
    if (path / "done").is_file():
        return path
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = CACHE / f".{path.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    pythonpath = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--spec", w.spec.to_json(),
         "--seed", str(seed), "--out", str(tmp)],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    (tmp / "done").write_text("")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


@dataclass
class Block:
    index: int
    run_s: float
    episodes: int
    successes: int
    errors: int
    digest: str


@dataclass
class Phase:
    """What a sequence of blocks produced, in run order."""

    blocks: list[Block] = field(default_factory=list)
    episode_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def run_s(self) -> float:
        return sum(b.run_s for b in self.blocks)

    @property
    def errors(self) -> int:
        return sum(b.errors for b in self.blocks)


def saved_log(out: Path, w: Workload, b: int) -> Path:
    return out / f"block{b:03d}.{w.log}"


def run_block(runner: Runner, b: int, ph: Phase, keep: bool) -> None:
    """Run block `b` and add it to `ph`; `keep` saves a copy of its log for the checks."""
    log = runner.out / runner.w.log
    t0 = time.perf_counter()
    res = runner.run_block(b)
    run_s = time.perf_counter() - t0
    ph.episode_s += res.episode_s
    ph.bytes_written += log.stat().st_size
    ph.blocks.append(Block(b, run_s, len(res.episode_s), res.successes, res.errors, log_digest(log)))
    if keep:
        shutil.copyfile(log, saved_log(runner.out, runner.w, b))


def one_pass(runner: Runner) -> Phase:
    ph = Phase()
    for b in range(runner.blocks()):
        run_block(runner, b, ph, keep=True)
    return ph


def timed_phase(w: Workload, data: Path, seed: int, out: Path, seconds: float) -> tuple[Phase, Loaded]:
    """Whole passes over the blocks until the run phase has lasted `seconds`.

    Every run covers the same episodes once or more, so the metrics of a
    faster and a slower program are taken over the same mix. `SETUPS` times
    per pass, before fixed blocks, the set-up is redone from the input files
    and the run goes on with the fresh one, as a new CLI invocation would.
    This spreads the set-ups over the run, so they meet the same host speed
    as the episodes; their time is not part of the run phase.
    """
    n = math.ceil(w.spec.n_queries / w.block)
    fresh = {i * n // SETUPS for i in range(SETUPS)}
    ph = Phase()
    env = runner = None
    while not ph.blocks or ph.run_s < seconds:
        for b in range(n):
            if b in fresh:
                env = runner = None
                gc.collect()
                t0 = time.perf_counter()
                env = Loaded(w, data, seed)
                ph.setup_s.append(time.perf_counter() - t0)
                runner = Runner(w, env, out)
                assert runner.blocks() == n, (runner.blocks(), n)
            run_block(runner, b, ph, keep=len(ph.blocks) < n)
    return ph, env


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_phase(w: Workload, env: Loaded, ph: Phase, seed: int,
                out: Path) -> tuple[int, list[str], list[str]]:
    """(blocks failing a check, problems, think texts) for one phase's logs.

    A block fails when its digest differs from the reference, changes between
    passes, or its records break a rule `workloads.check_block` checks.
    """
    ref = load_reference().get("digests", {}).get(w.name, {})
    ref_digests = ref.get("seeds", {}).get(str(seed)) if ref.get("spec") == spec_key(w) else None
    first: dict[int, str] = {}
    bad: set[int] = set()
    problems: list[str] = []
    for blk in ph.blocks:
        if first.setdefault(blk.index, blk.digest) != blk.digest:
            bad.add(blk.index)
            problems.append(f"block {blk.index}: log changed between passes")
    oracle = Oracle(env.retriever, env.cfg.embed_dim)
    thinks: list[str] = []
    for b in sorted(first):
        records = [r for r in dataio.read_jsonl(saved_log(out, w, b)) if r.get("record") != "meta"]
        found = check_block(w, env, oracle, b, records)
        if ref_digests is not None and (b >= len(ref_digests) or ref_digests[b] != first[b]):
            found.append(f"digest {first[b]} differs from the reference")
        if found:
            bad.add(b)
            problems += [f"block {b}: {msg}" for msg in found[:5]]
        thinks += think_texts(w, records)
    if ref_digests is None:
        combined = hashlib.sha256(" ".join(first[b] for b in sorted(first)).encode()).hexdigest()[:16]
        print(f"digest check skipped: no reference for seed {seed}; "
              f"{len(first)} block digests, combined {combined}")
    else:
        print(f"digest check: {len(first)} blocks compared with the reference")
    return len(bad), problems, thinks


def _blas_threads() -> str:
    """The BLAS thread count, read back from OpenBLAS where it can be."""
    import ctypes
    import glob

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def _result(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


def _report_problems(problems: list[str]) -> None:
    for msg in problems[:20]:
        print(f"check failed: {msg}")


def run(args) -> int:
    w = WORKLOADS[args.workload]
    data = ensure_inputs(w, args.seed)
    shutil.rmtree(OUT / w.name, ignore_errors=True)
    (OUT / w.name).mkdir(parents=True)
    print(f"workload {w.name}, seed {args.seed}, blas threads {_blas_threads()}, workers 1")
    if args.record:
        return record(w, data, args.seed)
    if args.trace:
        return run_traced(w, data, args.seed)
    return run_timed(w, data, args.seed, args.seconds)


def run_timed(w: Workload, data: Path, seed: int, seconds: float) -> int:
    ph, env = timed_phase(w, data, seed, OUT / w.name, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad, problems, _ = check_phase(w, env, ph, seed, OUT / w.name)
    _report_problems(problems)

    attempted = len(ph.episode_s)
    done = attempted - ph.errors
    times = np.array(ph.episode_s) * 1000
    beyond = int(np.count_nonzero(times > np.percentile(times, 95)))
    passes = len(ph.blocks) // math.ceil(w.spec.n_queries / w.block)
    metrics = {
        "episodes_per_s": (done / ph.run_s, "1/s"),
        "episode_p50_ms": (np.percentile(times, 50), "ms"),
        "episode_p95_ms": (np.percentile(times, 95), "ms"),
        "setup_s": (statistics.median(ph.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (sum(b.successes for b in ph.blocks) / max(done, 1), "frac"),
    }
    samples = {
        "episodes_per_s": f"{done} episodes in a {ph.run_s:.2f} s run phase, {passes} pass(es)",
        "episode_p50_ms": f"{attempted} episodes",
        "episode_p95_ms": f"{attempted} episodes, {beyond} beyond p95",
        "setup_s": f"median of {len(ph.setup_s)} set-ups, "
                   f"{min(ph.setup_s):.3f} to {max(ph.setup_s):.3f}",
        "peak_rss_mb": "1 process",
        "success_rate": f"{done} episodes",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {float(value):>12.4f} {unit:<5} n: {samples[name]}")
    failed = ph.errors + bad
    print(f"{'error_rate':<16} {failed / attempted:>12.4f} frac  n: {ph.errors} episodes raised, "
          f"{bad} blocks failed the output check, {attempted} attempted")
    _result(failed == 0, attempted, failed, metrics)
    return 0


def run_traced(w: Workload, data: Path, seed: int) -> int:
    out = OUT / w.name
    env = Loaded(w, data, seed)
    plain = one_pass(Runner(w, env, out))
    env = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            env = Loaded(w, data, seed)
        tracer.phase = "run"
        traced = one_pass(Runner(w, env, out, tracer))
    finally:
        tracer.uninstall()
    bad, problems, thinks = check_phase(w, env, traced, seed, out)
    changed = [a.index for a, b in zip(plain.blocks, traced.blocks) if a.digest != b.digest]
    problems += [f"block {b}: tracing changed the log" for b in changed]
    _report_problems(problems)

    agg = tracer.aggregate()
    fallback_rate = sum(t.startswith(FALLBACK_PREFIX) for t in thinks) / max(len(thinks), 1)
    metrics = layer_metrics(agg, fallback_rate, traced.run_s / plain.run_s - 1, traced.bytes_written)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {float(value):>14.6f} {unit}")
    tracer.dump(out / "trace.json", {
        "workload": w.name, "seed": seed, "untraced_run_s": plain.run_s, "traced_run_s": traced.run_s,
    })
    attempted = len(plain.episode_s) + len(traced.episode_s)
    failed = plain.errors + traced.errors + bad + len(changed)
    _result(failed == 0, attempted, failed, metrics)
    return 0


def layer_metrics(agg: dict, fallback_rate: float, overhead: float,
                  bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run's aggregates.

    Times that are zero by construction on some workload (a layer it never
    calls) are left to trace.json, so every time reported here is measured
    on every workload; call counts are always reported.
    """
    def calls(*names: str) -> int:
        return sum(agg.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    kinds = [f"policy.propose.{k}" for k in KINDS]
    scans = calls("corpus.search", "corpus.rank_of", "corpus.similarity_to", "corpus.full_ranking")
    m: dict[str, tuple[float, str]] = {}
    for f in ("search", "rank_of", "similarity_to"):
        m[f"corpus.{f}.calls"] = (calls(f"corpus.{f}"), "count")
        m[f"corpus.{f}.self_s"] = (self_s(f"corpus.{f}"), "s")
    m["corpus.full_ranking.calls"] = (calls("corpus.full_ranking"), "count")
    m["corpus.scans_per_query"] = (
        scans / max(calls("engine.execute_action", "engine.best_similarity"), 1), "scan/query"
    )
    m["corpus.build_index_s"] = (self_s("corpus.build_index"), "s")
    m["embed.query_calls"] = (calls("embed.query"), "count")
    m["embed.query_s"] = (self_s("embed.query"), "s")
    m["embed.corpus_calls"] = (calls("embed.corpus"), "count")
    m["embed.self_s"] = (self_s("embed.query", "embed.corpus"), "s")
    for f in ("expansions", "neighbors", "top_terms"):
        m[f"vocab.{f}.calls"] = (calls(f"vocab.{f}"), "count")
    m["vocab.top_terms.self_s"] = (self_s("vocab.top_terms"), "s")
    m["vocab.self_s"] = (self_s("vocab.expansions", "vocab.neighbors", "vocab.top_terms"), "s")
    m["vocab.build_s"] = (self_s("vocab.build"), "s")
    m["policy.propose.calls"] = (calls(*kinds), "count")
    m["policy.propose.self_s"] = (self_s(*kinds), "s")
    for k in KINDS:
        m[f"policy.propose.{k}.calls"] = (calls(f"policy.propose.{k}"), "count")
    m["policy.fallback_rate"] = (fallback_rate, "frac")
    m["engine.execute_action.calls"] = (calls("engine.execute_action"), "count")
    m["engine.execute_action.self_s"] = (self_s("engine.execute_action"), "s")
    m["trace.snapshot_results.self_s"] = (self_s("trace.snapshot_results"), "s")
    m["trace.append_turn.self_s"] = (self_s("trace.append_turn"), "s")
    m["rewards.candidate_signals.calls"] = (calls("rewards.candidate_signals"), "count")
    m["rewards.make_training_record.calls"] = (calls("rewards.make_training_record"), "count")
    reads = ("dataio.read_corpus", "dataio.read_qrels", "dataio.read_queries", "dataio.read_embeddings")
    m["dataio.read_s"] = (self_s(*reads), "s")
    m["dataio.read_corpus_s"] = (self_s("dataio.read_corpus"), "s")
    m["dataio.read_embeddings.calls"] = (calls("dataio.read_embeddings"), "count")
    m["dataio.write_jsonl_s"] = (self_s("dataio.write_jsonl"), "s")
    m["dataio.bytes_written"] = (bytes_written, "bytes")
    m["trace_overhead_frac"] = (overhead, "frac")
    return m


def record(w: Workload, data: Path, seed: int) -> int:
    """Run every block once and store the log digests as this seed's reference."""
    env = Loaded(w, data, seed)
    ph = one_pass(Runner(w, env, OUT / w.name))
    bad, problems, _ = check_phase(w, env, ph, seed, OUT / w.name)
    if ph.errors or problems:
        _report_problems(problems)
        print(f"not recorded: {ph.errors} episode errors, {bad} bad blocks", file=sys.stderr)
        return 1
    ref = load_reference()
    entry = ref.setdefault("digests", {}).setdefault(w.name, {})
    if entry.get("spec") != spec_key(w):
        entry.clear()
        entry["spec"] = spec_key(w)
    entry.setdefault("seeds", {})[str(seed)] = [b.digest for b in ph.blocks]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ph.blocks)} block digests for {w.name} seed {seed}")
    return 0
