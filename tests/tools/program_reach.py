"""List the functions in src/spheremotion that no program path calls.

Under `sys.setprofile`, switched on before the package is first imported,
it runs a light plan of what the program runs, all into a temporary
directory:

- instance 0 of every job class of the three benchmark workloads, planned
  with `perfbench/workloads.describe` and run with `perfbench/jobs.execute`
  (both imported, not changed);
- `spheremotion examples emit all`, then `validate` on each shipped map,
  the last one as a `--format text` report;
- `diagram --presentation` on a mirror diagram, whose interior face is
  read as a word;
- `spheremotion fuzz` on each suite at `--cases 3`;
- each acceptance criterion of `tests/test_acceptance.py`, called in
  turn, without the session oracles of `tests/conftest.py`.

The acceptance criteria are part of the plan, as the paper's checks that
the program ships: without them the list grows by the functions that only
they call, `comotion.chi_indicator`, `psi` and `psi_progress`,
`motion._unscaled`, `CollisionReport.vertex_loci` and `edge_loci`, and
`rewriting.is_difficult_case`.

It prints every function and method defined under src/spheremotion whose
code none of them called, as `module.qualname`, one a line.  A call at
import time counts.  Its exit code is 1 when a run exits with a code
other than its expected one or a criterion fails.

    python tests/tools/program_reach.py

`tests/test_program_reach.py` runs it and compares its list with an
allowlist.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "spheremotion"


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


def program_runs(tmp: Path) -> list[str]:
    """Run the plan; return the runs that exited with a code they should not."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(PACKAGE.parent)]
    os.environ.pop("SPHEREMOTION_SEED", None)  # fuzz runs carry their own seeds
    import jobs  # perfbench/jobs.py; imports the package
    import workloads

    from spheremotion import jsonio
    from spheremotion.cli import main
    from spheremotion.groups import FreeProductWord
    from spheremotion.rewriting import RelativePresentationData

    failed = []

    def cli(*argv: str, want: int = 0) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv))
        if code != want:
            failed.append(f"{' '.join(argv)}: exit {code}")

    art = workloads.Artifacts(tmp)
    for workload, classes in workloads.WORKLOADS.items():
        described, reports = {}, {}
        for cls in classes:
            job = workloads.describe(workload, cls, 0, art, described)
            described[job["key"]] = job
            out = jobs.execute(job, reports)
            if job.get("argv") is not None:
                reports[job["key"]] = json.loads(out.text)
            if out.code != 0:
                failed.append(f"{workload} job {job['key']}: exit {out.code}")
    cli("examples", "emit", "all", "--dir", str(tmp))
    for name in ("pinwheel", "banded", "torus"):
        cli("validate", str(tmp / f"{name}.map.json"))
    cli("--format", "text", "validate", str(tmp / "torus.map.json"))
    mirror = workloads.mirror_polygon(random.Random(0))
    pres = RelativePresentationData(mirror.base, 1, -1, FreeProductWord.one(mirror.base), (), ())
    # exit 1: the diagram's faces read no relator of this presentation
    cli("diagram", art.write("mirror.diagram", jsonio.diagram_to_json(mirror)),
        "--presentation", art.write("mirror.presentation", jsonio.presentation_to_json(pres)),
        want=1)
    for suite in ("weights", "collisions", "rewriting", "diagrams"):
        cli("fuzz", "--suite", suite, "--cases", "3")
    # each criterion called in turn: not under pytest, whose machinery would
    # triple the profiled time, nor with tests/conftest.py's session oracles,
    # which call the package too
    sys.path.insert(0, str(ROOT / "tests"))
    import test_acceptance

    with contextlib.redirect_stdout(io.StringIO()):
        for name, criterion in vars(test_acceptance).items():
            if name.startswith("test_"):
                criterion()  # a failed criterion raises
    return failed


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    called: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            failed = program_runs(Path(tmp))
    finally:
        sys.setprofile(None)
    for run in failed:
        print(f"failed: {run}", file=sys.stderr)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in sorted(functions(path).items()):
            if (str(path), line) not in called:
                print(f"{path.stem}.{name}")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
