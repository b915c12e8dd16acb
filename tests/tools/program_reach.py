"""List the functions in src/spheremotion that no program path calls.

`tests/test_src_reach.py` checks reach by a name graph, which matches
simple names and so over-approximates: a definition survives when its name
matches any identifier string the program mentions, a subcommand's name
for one.  This is the runtime check beside it.  Under `sys.setprofile` it
runs what the program runs:

- each benchmark workload, through `perfbench/run.py` (imported, not
  changed), at `--seed 0 --seconds 1 --trace 0`;
- `spheremotion examples emit all`, into a temporary directory;
- `spheremotion fuzz` on each suite, at its default seed and case count;
- `tests/test_acceptance.py`, without the session oracles of
  `tests/conftest.py`.

It prints every function and method defined under src/spheremotion whose
code none of them called, then their count.  A call at import time counts:
the profiler is on before the package is first imported.  It is a
diagnostic and gates nothing; its exit code is 1 only when one of the runs
above fails.

    python tests/tools/program_reach.py

It takes about 15 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "spheremotion"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("timetables", "weights", "words")
FUZZ_SUITES = ("weights", "collisions", "rewriting", "diagrams")


def functions(path: Path) -> dict[int, str]:
    """The first line of every def in `path`, its first decorator's when it
    has one (the line a code object starts on), mapped to its qualified
    name."""
    found: dict[int, str] = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def program_runs() -> list[tuple[str, int]]:
    """Run each program path once; return (name, exit code) per run."""
    sys.path[:0] = [str(PERFBENCH), str(PACKAGE.parent)]
    import run as perfbench_run  # perfbench/run.py; imports the package

    from spheremotion.cli import main

    outcomes = []
    for workload in WORKLOADS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            perfbench_run.main(["--workload", workload, "--seed", "0",
                                "--seconds", "1", "--trace", "0"])
        correct = json.loads(out.getvalue().splitlines()[-1])["correct"]
        outcomes.append((f"perfbench {workload}", 0 if correct else 1))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        outcomes.append(("examples emit all", main(["examples", "emit", "all", "--dir", tmp])))
    for suite in FUZZ_SUITES:
        with contextlib.redirect_stdout(io.StringIO()):
            outcomes.append((f"fuzz {suite}", main(["fuzz", "--suite", suite])))
    with contextlib.redirect_stdout(io.StringIO()):
        # without tests/conftest.py, whose session oracles call the package too
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--noconftest",
                            str(ROOT / "tests" / "test_acceptance.py")])
    outcomes.append(("tests/test_acceptance.py", int(code)))
    return outcomes


def main() -> int:
    os.chdir(ROOT)
    prefix = str(PACKAGE) + os.sep
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        outcomes = program_runs()
    finally:
        sys.setprofile(None)
    for name, code in outcomes:
        print(f"ran {name}: exit {code}", file=sys.stderr)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in sorted(functions(path).items()):
            if (str(path), line) not in called:
                print(f"{path.relative_to(ROOT)}:{line}: {name}")
                count += 1
    print(f"{count} functions under {PACKAGE.relative_to(ROOT)} that no program path called")
    return int(any(code != 0 for _, code in outcomes))


if __name__ == "__main__":
    sys.exit(main())
