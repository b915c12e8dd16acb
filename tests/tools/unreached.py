"""List the lines of function bodies in src/spheremotion that the tests never run.

A stdlib line tracer: `coverage` is not a dependency, and Python 3.10 and
3.11 have no `sys.monitoring`.  It runs pytest in this process under
`sys.settrace`, records every line executed in the package, and prints each
statement inside a function body that never ran, then their count, split
into `raise` statements (mostly input refusals) and all other lines (mostly
branches of the procedures).  It is a diagnostic and gates nothing; its exit
code is pytest's.

Hypothesis draws with a fixed seed, `SEED`, unless the arguments give
`--hypothesis-seed`: the lines a run reaches then depend on the code alone,
and two runs of one tree print the same count.  (Hypothesis skips its
example database when the seed is fixed.)

    python tests/tools/unreached.py                  # the whole tier-1 suite
    python tests/tools/unreached.py tests/test_rewriting.py -x
    python tests/tools/unreached.py --hypothesis-seed=7

Tracing the package's lines makes the suite run about three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "spheremotion"
SEED = 0


def body_lines(source: str) -> dict[int, tuple[bool, int]]:
    """Lines of the statements inside function bodies, each mapped to
    whether a `raise` starts there and to the last line of its header.
    The header of an `if` or a `while` ends with its test and that of a
    `for` with its iterable; it counts as reached when any of its lines
    ran, as Python reports a test that spans lines on the line of the
    operand it evaluates, not always on the `if`.  Other statements are
    one line.  Docstrings, `try:` headers and `global`/`nonlocal`
    declarations are left out, as they emit no line event of their own; a
    decorated nested def starts at its first decorator."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if ast.get_docstring(node) is not None:
                docstrings.add(id(node.body[0]))
    silent = (ast.Try, ast.Global, ast.Nonlocal)
    lines: dict[int, tuple[bool, int]] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.stmt) or isinstance(node, silent):
                    continue
                if id(node) in docstrings:
                    continue
                decorators = getattr(node, "decorator_list", ())
                line = min([node.lineno, *(d.lineno for d in decorators)])
                if isinstance(node, (ast.If, ast.While)):
                    end = node.test.end_lineno
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    end = node.iter.end_lineno
                else:
                    end = line
                raises, last = lines.get(line, (False, line))
                lines[line] = (raises or isinstance(node, ast.Raise), max(last, end))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with `args`; return its exit code and the (file, line)
    pairs executed in the package."""
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    if not any(arg.startswith("--hypothesis-seed") for arg in argv):
        argv = [f"--hypothesis-seed={SEED}", *argv]
    code, hits = traced_pytest(["-q", "-p", "no:cacheprovider", *argv])
    raises = other = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = {line for name, line in hits if name == str(path)}
        for line, (is_raise, end) in sorted(body_lines(source).items()):
            if not ran.isdisjoint(range(line, end + 1)):
                continue
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            if is_raise:
                raises += 1
            else:
                other += 1
    print(f"{raises + other} unreached lines in function bodies under "
          f"{PACKAGE.relative_to(ROOT)}: {raises} raise statements, {other} other lines")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
