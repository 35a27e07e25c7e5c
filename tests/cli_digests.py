"""The sha256 of every file that `orion`'s batch commands write on a small
seeded corpus, for checking that a refactor leaves every logged byte as it was.

The matrix is 63 in-process runs: for each of the ten kinds, `run`, `beam` at
(B, M) = (2, 2) and (3, 1), and `grpo-collect` with argmax selection, with
proportional selection and with `--zscore`; plus `generate` with and without
`--sft-total`, and `index`, whose `embeddings.orne` is read back from the
index's stored matrix. Each file is hashed whole, meta line included.

    PYTHONPATH=src python tests/cli_digests.py
    PYTHONPATH=src python tests/cli_digests.py --against HEAD~1

`--against REV` also runs the matrix on the `src` tree of git revision REV,
exported with `git archive` into a temporary directory and run in a
subprocess with that `src` first on PYTHONPATH. Both sides read the same
input paths, because each meta line's config hash includes them. It prints
each file whose bytes differ and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import orion
from orion.archetypes import KINDS
from orion.cli import main as orion_main

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


def matrix(kinds: tuple[str, ...]) -> list[tuple[str, list[str]]]:
    """(run name, command and flags) for each run of the matrix."""
    runs = []
    for kind in kinds:
        policy = ["--policy", kind]
        runs += [
            (f"run-{kind}", ["run", *policy]),
            (f"beam-2x2-{kind}", ["beam", *policy, "--beam-size", "2", "--expansion", "2"]),
            (f"beam-3x1-{kind}", ["beam", *policy, "--beam-size", "3", "--expansion", "1"]),
            (f"grpo-argmax-{kind}", ["grpo-collect", *policy]),
            (f"grpo-proportional-{kind}", ["grpo-collect", *policy, "--selection", "proportional"]),
            (f"grpo-zscore-{kind}", ["grpo-collect", *policy, "--zscore"]),
        ]
    return runs + [
        ("generate", ["generate"]),
        ("generate-sft", ["generate", "--sft-total", "20"]),
        ("index", ["index"]),
    ]


def run_matrix(inputs: list[str], out: Path) -> dict:
    """Run the matrix with the `orion` on sys.path; return its exit statuses
    and the sha256 of each file written, keyed by `<run>/<file>`."""
    status, files = {}, {}
    for name, argv in matrix(KINDS):
        with contextlib.redirect_stdout(io.StringIO()):
            status[name] = orion_main([*argv, *inputs, "--out", str(out / name)])
        for path in sorted((out / name).rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"orion": orion.__file__, "status": status, "files": files}


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
        failed = sorted(name for name, code in mine["status"].items() if code)
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
