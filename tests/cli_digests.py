"""The sha256 of every file that `orion`'s batch commands write on a small
seeded corpus, for checking that a refactor leaves every logged byte as it was.

The matrix is 114 in-process runs that write 174 files: for each of the ten
kinds, `run`, `beam` at (B, M) = (2, 2) and (3, 1), `grpo-collect` with
argmax selection, with proportional selection and with `--zscore`, and
`eval`, `report` and `report --relaxed-stagnation` over the kind's `run` log;
for each of the seven kinds with a knob, a `run` with non-default
`--policy-params` (`KNOBS`); plus `generate` without `--sft-total`, with 20
over all ten kinds and with 7 over three (an uneven split), and `index`,
whose `embeddings.orne` is read back from the index's stored matrix.

Remote endpoints are answered in process by `FakeEndpoints`, which stands in
for `requests.post`: `run` and `beam` (2, 2) under `--policy remote` in both
remote modes, and `run --embed-backend service`. One `grpo-collect` setting
is given three ways, as flags and as JSON and YAML `--config` files, and the
three must write the same bytes (`SETTINGS`). `failing-query` runs one good
query and one that holds a reserved tag; its stderr error record and its
exit status of 1 are part of the matrix.

The first corpus is lower-case ASCII words and single spaces, so a second
one (`hard_inputs`) has titles, mixed case, punctuation, digits and
non-ASCII letters; on it run `index`, `run --embeddings` on that index's
`embeddings.orne` and on the same vectors as JSON Lines, and `generate`.
Each file is hashed whole, meta line included.

    PYTHONPATH=src python tests/cli_digests.py
    PYTHONPATH=src python tests/cli_digests.py --against HEAD~1

`--against REV` also runs the matrix on the `src` tree of git revision REV,
exported with `git archive` into a temporary directory and run in a
subprocess with that `src` first on PYTHONPATH. Both sides read the same
input paths, because each meta line's config hash includes them: each `run`
log is copied into `logs/` beside the corpus, and `eval` and `report` read
it there; the config and queries files of `input_runs` are written beside
the corpus, and the second corpus and its embeddings files into `hard/`. It
prints each file or exit status that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import orion
import orion.dataio
from orion.archetypes import KINDS
from orion.cli import main as orion_main
from orion.embed import HashEmbedder

ROOT = Path(__file__).resolve().parents[1]


def seeded_inputs(directory: Path) -> list[str]:
    """Write a small corpus of three topics, with queries and qrels, into
    `directory`; return them as `orion` flags."""
    rng = np.random.default_rng(5)
    topics = [["neural", "network", "training"], ["ocean", "coral", "reef"], ["stock", "market", "bond"]]
    filler = ["alpha", "bravo", "delta", "gamma", "kappa", "sigma", "omega", "theta"]
    with open(directory / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(36):
            words = topics[i % 3] + list(rng.choice(filler, size=4)) + [f"tag{i}"]
            text = " ".join(rng.permutation(words))
            fh.write(json.dumps({"_id": f"d{i:02d}", "title": "", "text": text}) + "\n")
    qrels = []
    with open(directory / "queries.jsonl", "w", encoding="utf-8") as fh:
        for q in range(6):
            text = f"{topics[q * 5 % 3][0]} {filler[q]}"
            fh.write(json.dumps({"_id": f"q{q}", "text": text}) + "\n")
            qrels.append(f"q{q}\td{q * 5:02d}\t1\n")
    (directory / "qrels.tsv").write_text("".join(qrels))
    return ["--corpus", str(directory / "corpus.jsonl"), "--queries", str(directory / "queries.jsonl"),
            "--qrels", str(directory / "qrels.tsv"), "--embed-dim", "64", "--seed", "3"]


def hard_inputs(directory: Path) -> list[str]:
    """Write a second small seeded corpus, with queries and qrels, into
    `directory`; return it as `orion` flags.

    Its titles, documents and queries hold what a word splitter must get
    right: mixed case, punctuation, digits, runs of separators, letters that
    lowercase into ASCII (the Kelvin sign) or into two code points (U+0130),
    and other non-ASCII letters.
    """
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(7)
    topics = [
        ["Café", "CRÈME", "brûlée"], ["Straße", "\u0130stanbul", "\u212aelvin"], ["GPU-42", "x86_64", "C++"]
    ]
    filler = [
        "naïve", "e-mail", "U.S.A.", "ÆON", "résumé", "(draft)", "v2.0", "Ωmega", "don't", "--", "HeLLo!!"
    ]
    with open(directory / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(30):
            words = topics[i % 3] + list(rng.choice(filler, size=4)) + [f"Tag-{i}!"]
            text = " ".join(rng.permutation(words))
            title = f"{topics[i % 3][int(rng.integers(3))].title()}: No. {i}"
            fh.write(json.dumps({"_id": f"h{i:02d}", "title": title, "text": text}) + "\n")
    qrels = []
    with open(directory / "queries.jsonl", "w", encoding="utf-8") as fh:
        for q in range(5):
            text = f"{topics[q % 3][q % 2].upper()}?! {filler[q]}, {filler[-q]}"
            fh.write(json.dumps({"_id": f"hq{q}", "text": text}) + "\n")
            qrels.append(f"hq{q}\th{q * 4 % 30:02d}\t1\n")
    (directory / "qrels.tsv").write_text("".join(qrels))
    return ["--corpus", str(directory / "corpus.jsonl"), "--queries", str(directory / "queries.jsonl"),
            "--qrels", str(directory / "qrels.tsv"), "--embed-dim", "32", "--seed", "4"]


def hard_matrix(directory: Path) -> list[tuple[str, list[str]]]:
    """(run name, command and all its flags) for each run on `hard_inputs`:
    `index`, then `run` on the index's vectors as ORNE (`embeddings.orne`)
    and as JSON Lines (`embeddings.jsonl`), which `share_embeddings` writes
    into `directory`, then `generate`."""
    inputs = hard_inputs(directory)
    return [
        ("hard-index", ["index", *inputs]),
        ("hard-run-orne", ["run", *inputs, "--embeddings", str(directory / "embeddings.orne")]),
        ("hard-run-jsonl", ["run", *inputs, "--embeddings", str(directory / "embeddings.jsonl")]),
        ("hard-generate", ["generate", *inputs]),
    ]


def share_embeddings(orne: Path, directory: Path) -> None:
    """Copy the ORNE file an `index` run wrote into `directory`, and write
    its vectors there as JSON Lines too: a float64 widened from float32
    prints as a decimal that reads back to the same bits."""
    shutil.copyfile(orne, directory / "embeddings.orne")
    vectors = orion.dataio.read_embeddings(orne)
    with open(directory / "embeddings.jsonl", "w", encoding="utf-8") as fh:
        for doc_id in sorted(vectors):
            fh.write(json.dumps({"id": doc_id, "vector": vectors[doc_id].tolist()}) + "\n")


REMOTE = ["--policy", "remote", "--remote-endpoint", "http://localhost:1/chat"]
SERVICE = ["--embed-backend", "service", "--embed-endpoint", "http://localhost:2/embed"]
SERVICE_DIM = 40


class _Reply:
    """What `orion.embed.post_json` reads of a `requests` response."""

    def __init__(self, body: dict):
        self.body = body

    def raise_for_status(self) -> None:
        pass

    def json(self) -> dict:
        return self.body


class FakeEndpoints:
    """A deterministic in-process stand-in for `requests.post`, fresh for each run.

    An embeddings request gets a `HashEmbedder` vector of each of its texts.
    A chat request gets two to four words of its prompt, picked by the sha256
    of the prompt and of how often the run has sent that prompt before, so a
    repeated prompt gets another sample, as a model at a temperature above 0
    gives. When it asks for logprobs, it gets one per word from the same
    digest: finite and at most 0.
    """

    def __init__(self):
        self.sent: dict[str, int] = {}

    def post(self, url: str, **request) -> _Reply:
        if not url.startswith("http://localhost:"):
            raise RuntimeError(f"the matrix posts only to localhost, not to {url}")
        payload = request["json"]
        if "input" in payload:
            embed = HashEmbedder(SERVICE_DIM)
            return _Reply({"data": [{"embedding": embed(text).tolist()} for text in payload["input"]]})
        prompt = payload["messages"][-1]["content"]
        draw = self.sent[prompt] = self.sent.get(prompt, -1) + 1
        digest = hashlib.sha256(f"{draw}:{prompt}".encode("utf-8")).digest()
        words = re.findall("[a-z]+", prompt)
        picked = [words[int.from_bytes(digest[2 * i : 2 * i + 2], "little") % len(words)]
                  for i in range(2 + digest[31] % 3)]
        choice: dict = {"message": {"content": " ".join(picked)}}
        if payload.get("logprobs"):
            choice["logprobs"] = {
                "content": [{"token": w, "logprob": -digest[16 + i] / 64} for i, w in enumerate(picked)]
            }
        return _Reply({"choices": [choice]})


# One grpo-collect run's settings, given as flags (`settings-flags`), as a
# JSON config file (`settings-json`, beta given as an int) and as a YAML one
# (`settings-yaml`); all three must write the same bytes.
SETTINGS = {
    "policy": "greedy_hill", "policy_params": {"candidates": 5}, "group_size": 3,
    "selection": "proportional", "zscore": True, "beta": 1, "k": 3, "max_turns": 4,
}
SETTINGS_FLAGS = [
    "--policy", "greedy_hill", "--policy-params", '{"candidates": 5}', "--group-size", "3",
    "--selection", "proportional", "--zscore", "--beta", "1", "--top-k", "3", "--max-turns", "4",
]
SETTINGS_YAML = """\
policy: greedy_hill
policy_params: {candidates: 5}
group_size: 3
selection: proportional
zscore: true
beta: 1.0
k: 3
max_turns: 4
"""
EXIT_STATUS = {"failing-query": 1}  # the other runs exit 0


def input_runs(inputs: list[str], directory: Path) -> list[tuple[str, list[str]]]:
    """(run name, command and all its flags) for each run that reads an input
    file of its own, written into `directory`: the `SETTINGS` runs, and
    `failing-query`, a `run` over one good query and one whose text holds a
    reserved tag; its stderr error record is digested too."""
    (directory / "settings.json").write_text(json.dumps(SETTINGS))
    (directory / "settings.yaml").write_text(SETTINGS_YAML)
    queries = directory / "failing-queries.jsonl"
    queries.write_text(
        json.dumps({"_id": "good", "text": "ocean alpha"}) + "\n"
        + json.dumps({"_id": "tagged", "text": "coral <think> reef"}) + "\n"
    )
    at = inputs.index("--queries") + 1
    return [
        ("settings-flags", ["grpo-collect", *inputs, *SETTINGS_FLAGS]),
        ("settings-json", ["grpo-collect", *inputs, "--config", str(directory / "settings.json")]),
        ("settings-yaml", ["grpo-collect", *inputs, "--config", str(directory / "settings.yaml")]),
        ("failing-query", ["run", *inputs[:at], str(queries), *inputs[at + 1 :]]),
    ]


# Non-default knobs for each kind that has one. best_first's try_threshold
# lies above most turns' best scores on the seeded corpus, so it promotes its
# next hypothesis (in 4 of the 6 episodes), a branch the default never enters.
KNOBS = {
    "adaptive_context": {"adopt_terms": 3},
    "random_walk": {"neighbor_pool": 2},
    "breadth_first": {"fanout": 2},
    "wrong_direction": {"drift_rank": 2},
    "early_success": {"good_sim": 0.9},
    "greedy_hill": {"candidates": 5},
    "best_first": {"pool_size": 2, "try_threshold": 0.95},
}


def matrix(kinds: tuple[str, ...], logs: Path) -> list[tuple[str, list[str]]]:
    """(run name, command and flags) for each run of the matrix; `eval` and
    `report` read the copy of the kind's `run` log in `logs`."""
    runs = []
    for kind in kinds:
        policy = ["--policy", kind]
        log = ["--episodes", str(logs / f"run-{kind}.jsonl")]
        runs += [
            (f"run-{kind}", ["run", *policy]),
            (f"beam-2x2-{kind}", ["beam", *policy, "--beam-size", "2", "--expansion", "2"]),
            (f"beam-3x1-{kind}", ["beam", *policy, "--beam-size", "3", "--expansion", "1"]),
            (f"grpo-argmax-{kind}", ["grpo-collect", *policy]),
            (f"grpo-proportional-{kind}", ["grpo-collect", *policy, "--selection", "proportional"]),
            (f"grpo-zscore-{kind}", ["grpo-collect", *policy, "--zscore"]),
            (f"eval-{kind}", ["eval", *log]),
            (f"report-{kind}", ["report", *log]),
            (f"report-relaxed-{kind}", ["report", *log, "--relaxed-stagnation"]),
        ]
        if kind in KNOBS:
            runs.append((f"run-knobs-{kind}", ["run", *policy, "--policy-params", json.dumps(KNOBS[kind])]))
    return runs + [
        ("generate", ["generate"]),
        ("generate-sft", ["generate", "--sft-total", "20"]),
        ("generate-sft-uneven", ["generate", "--archetypes", "adaptive_context,greedy_hill,best_first",
                                 "--sft-total", "7"]),
        ("index", ["index"]),
        ("remote-run-structured", ["run", *REMOTE]),
        ("remote-run-baseline", ["run", *REMOTE, "--remote-mode", "baseline"]),
        ("remote-beam-structured", ["beam", *REMOTE, "--beam-size", "2", "--expansion", "2"]),
        ("remote-beam-baseline", ["beam", *REMOTE, "--remote-mode", "baseline", "--beam-size", "2",
                                  "--expansion", "2"]),
        ("service-run", ["run", *SERVICE]),
    ]


def run_matrix(inputs: list[str], out: Path) -> dict:
    """Run the matrix with the `orion` on sys.path; return its exit statuses
    and the sha256 of each file written, keyed by `<run>/<file>`."""
    status, files = {}, {}
    shared = Path(inputs[inputs.index("--corpus") + 1]).parent
    logs = shared / "logs"
    logs.mkdir(exist_ok=True)
    runs = [(name, [*argv, *inputs]) for name, argv in matrix(KINDS, logs)]
    runs += input_runs(inputs, shared) + hard_matrix(shared / "hard")
    for name, argv in runs:
        # only a failing run's stderr is digested: the error records
        stderr = contextlib.redirect_stderr(io.StringIO()) if name in EXIT_STATUS else contextlib.nullcontext()
        post = mock.patch("requests.post", FakeEndpoints().post)
        with contextlib.redirect_stdout(io.StringIO()), stderr as err, post:
            status[name] = orion_main([*argv, "--out", str(out / name)])
        if err:
            (out / name / "stderr.txt").write_text(err.getvalue())
        if argv[0] == "run":
            shutil.copyfile(out / name / "episodes.jsonl", logs / f"{name}.jsonl")
        if name == "hard-index":
            share_embeddings(out / name / "index" / "embeddings.orne", shared / "hard")
        for path in sorted((out / name).rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"orion": orion.__file__, "status": status, "files": files}


def run_files(result: dict, run: str) -> dict:
    """The digests of the files that `run` wrote, keyed by path within it."""
    return {key[len(run) + 1 :]: digest for key, digest in result["files"].items() if key.startswith(f"{run}/")}


def failed_runs(result: dict) -> list[str]:
    """The runs whose exit status is not the one `EXIT_STATUS` expects, and the
    config-file `SETTINGS` runs whose files differ from `settings-flags`'."""
    flags = run_files(result, "settings-flags")
    failed = [name for name, code in result["status"].items() if code != EXIT_STATUS.get(name, 0)]
    failed += [name for name in ("settings-json", "settings-yaml") if run_files(result, name) != flags]
    return sorted(failed)


def run_revision(rev: str, inputs: list[str], scratch: Path) -> dict:
    """`run_matrix` on the `src` tree of git revision `rev`, in a subprocess."""
    tree = scratch / "rev"
    tree.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--json", "--out", str(scratch / "rev-out"), "--", *inputs]
    done = subprocess.run(argv, env=env, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout)
    if not Path(result["orion"]).is_relative_to(tree):
        raise RuntimeError(f"the {rev} run imported orion from {result['orion']}")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", metavar="REV", help="git revision whose outputs must match")
    p.add_argument("--json", action="store_true", help="print the digests as one JSON object")
    p.add_argument("--out", help="output directory of the runs (default: a temporary one)")
    p.add_argument("inputs", nargs="*", help="input flags (default: freshly seeded inputs)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        scratch = Path(tmp)
        inputs = args.inputs or seeded_inputs(scratch)
        mine = run_matrix(inputs, Path(args.out) if args.out else scratch / "out")
        if args.json:
            print(json.dumps(mine))
            return 0
        for name, digest in mine["files"].items():
            print(f"{digest}  {name}")
        failed = failed_runs(mine)
        print(f"{len(mine['status'])} runs, {len(mine['files'])} files; failed runs: {failed or 'none'}")
        if not args.against:
            return int(bool(failed))
        theirs = run_revision(args.against, inputs, scratch)
    differ = sorted(
        name
        for key in ("status", "files")
        for name in mine[key].keys() | theirs[key].keys()
        if mine[key].get(name) != theirs[key].get(name)
    )
    for name in differ:
        print(f"differs from {args.against}: {name}")
    print(f"{len(differ)} of {len(mine['status']) + len(mine['files'])} runs and files differ from {args.against}")
    return int(bool(differ or failed))


if __name__ == "__main__":
    sys.exit(main())
