"""The `orion` functions that the CLI digest matrix never enters.

Runs the matrix of `cli_digests.py` under a `sys.settrace` call tracer
(stdlib only) and records every code object it enters under `src/orion`.
Every function defined there is found by walking each module's AST, and is
matched to its code object by file and first line: for a decorated function
(an `lru_cache` closure, a property) that is the line of its first decorator,
as for its code object. Lambdas are not counted.

It prints each function never entered, and exits 1 if one is not in
`UNENTERED`, the committed list of functions the matrix is known not to
reach, or if a listed function is entered or no longer defined.

    PYTHONPATH=src python tests/cli_coverage.py
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

# name -> why the matrix does not enter it
UNENTERED = {
    "dataio.read_jsonl": "only the benchmark calls it, to read back the logs it checks",
    "engine.run_batch": "only the benchmark calls it; the CLI drives run_queries",
    "policy.Policy.propose": "a Protocol stub",
    "policy.Policy.relevance_perplexity": "a Protocol stub",
}


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of each function defined under `package`."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[path, line] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for module in sorted(package.glob("*.py")):
        visit(ast.parse(module.read_text(encoding="utf-8")), str(module), module.stem)
    return found


def entered_functions(package: Path) -> set[tuple[str, int]]:
    """(file, first line) of each code object under `package` that the
    matrix enters, `orion`'s import included."""
    entered: set[tuple[str, int]] = set()
    root = str(package)

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(root):
            entered.add((code.co_filename, code.co_firstlineno))
        return None  # no line events

    sys.settrace(on_call)
    try:
        import cli_digests

        with tempfile.TemporaryDirectory(prefix="cli-coverage-") as tmp:
            cli_digests.run_matrix(cli_digests.seeded_inputs(Path(tmp)), Path(tmp) / "out")
    finally:
        sys.settrace(None)
    return entered


def main() -> int:
    # found, not imported: the import runs under the tracer
    package = Path(importlib.util.find_spec("orion").origin).parent
    defined = defined_functions(package)
    entered = entered_functions(package)
    unentered = sorted(name for key, name in defined.items() if key not in entered)
    for name in unentered:
        print(f"never entered: {name}" + ("" if name in UNENTERED else "  (not in UNENTERED)"))
    stale = sorted(set(UNENTERED) - set(unentered))
    for name in stale:
        print(f"listed in UNENTERED but entered or not defined: {name}")
    unexpected = [name for name in unentered if name not in UNENTERED]
    print(f"{len(defined)} functions, {len(defined) - len(unentered)} entered; "
          f"{len(unexpected)} unentered outside the list, {len(stale)} stale list entries")
    return int(bool(unexpected or stale))


if __name__ == "__main__":
    sys.exit(main())
