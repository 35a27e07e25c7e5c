"""Run one orion benchmark workload and print its metrics.

    python3 perfbench/run.py --workload greedy_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each
    python3 perfbench/run.py --workload pool_vocab --seed 1 --record   # store digests

Inputs come from `gen.py`, generated once per (spec, seed) in a subprocess and
kept under `.perfbench_cache/`; logs and the trace go to `.perfbench_out/`.
BLAS is pinned to one thread before numpy loads, and every episode runs in this
one process (`workers=1`).

`--trace 0` times set-up and the run phase and prints the end-to-end metrics.
`--trace 1` runs the same blocks untraced and then traced, prints the
per-layer metrics, and writes every span to `.perfbench_out/<workload>/trace.json`.
The last line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("greedy_scan", "pool_vocab", "grpo_multitarget")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="orion benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="run every block once and store its digests as the reference")
    args = p.parse_args(argv)
    if not (SRC / "orion" / "__init__.py").is_file():
        print(f"perfbench: orion sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.run(args)


def _run_all(args: argparse.Namespace) -> int:
    import json
    import subprocess

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--record"] * args.record
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        if args.record:
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    if not args.record:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
