"""Interleaved A/B of two checkouts on one workload's CLI jobs.

    python tests/tools/ab_jobs.py OLD NEW --workload weights --seed 3 [--k 5]

OLD and NEW are the roots of two checkouts.  Each one's `src/spheremotion`
is copied into a temporary directory under its own package name, `ab_old`
and `ab_new`; the package imports itself relatively, so both load side by
side in one process.  The jobs are planned by OLD's `perfbench/workloads.py`,
read and not changed, with OLD's own `spheremotion` building the inputs,
for the given seed at `--seconds 30`, so every pool instance is in the plan.
Each distinct CLI job then runs k times per side, in-process through the
package's `cli.main` with stdout captured, the two sides alternating and
the side that goes first switching each time.

It prints, per job class, the sum over its jobs of each side's minimum
wall time and the speedup old / new, then the same over all jobs, and the
count of jobs whose exit code or stdout differ between the sides (each
side's first run; the artifact paths in stdout are the same for both).
Its exit code is 1 when any output differs.  Library jobs are skipped.

Minimum times of interleaved runs cancel most of the drift of a shared
machine.  On a 2-core x86-64 VM with Python 3.11, ten 30-s benchmark runs
of one tree read 1084-1183 `jobs_per_s` on `timetables`, while this
harness, run on one tree against itself at seed 3 and k = 5, read 0.989
over all `weights` jobs and 1.024 over all `timetables` jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
import time
from pathlib import Path


def load_packages(old: Path, new: Path, into: Path) -> tuple:
    """The two trees' packages, imported as `ab_old` and `ab_new`."""
    for root, name in ((old, "ab_old"), (new, "ab_new")):
        shutil.copytree(root / "src" / "spheremotion", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    import ab_new.cli
    import ab_old.cli
    return ab_old.cli.main, ab_new.cli.main


def planned_cli_jobs(old: Path, workload: str, seed: int, art_dir: Path) -> list:
    """Each distinct CLI job of the workload's plan, in plan order."""
    sys.path[:0] = [str(old / "perfbench"), str(old / "src")]
    import workloads

    art = workloads.Artifacts(art_dir)
    once, rounds, _ = workloads.plan(workload, seed, art, workloads.round_count(workload, 30))
    jobs = {}
    for job in [*once, *(j for r in rounds for j in r)]:
        if job.get("argv") is not None:
            jobs.setdefault(job["key"], job)
    return list(jobs.values())


def run_once(main, argv) -> tuple[float, int, str]:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, code, buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, choices=("timetables", "weights", "words"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--k", type=int, default=5, help="runs of each job per side")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mains = load_packages(args.old.resolve(), args.new.resolve(), tmp)
        jobs = planned_cli_jobs(args.old.resolve(), args.workload, args.seed, tmp / "art")
        best = {}  # class -> [old seconds, new seconds, jobs]
        differ = []
        for n, job in enumerate(jobs):
            times, first = ([], []), [None, None]
            for rep in range(args.k):
                order = (0, 1) if (n + rep) % 2 == 0 else (1, 0)
                for side in order:
                    t, code, text = run_once(mains[side], job["argv"])
                    times[side].append(t)
                    first[side] = first[side] or (code, text)
            if first[0] != first[1]:
                differ.append(job["key"])
            sums = best.setdefault(job["cls"], [0.0, 0.0, 0])
            sums[0] += min(times[0])
            sums[1] += min(times[1])
            sums[2] += 1
    print(f"{args.workload} seed {args.seed}, k = {args.k}: {len(jobs)} CLI jobs")
    print(f"{'class':24} {'jobs':>5} {'old ms':>10} {'new ms':>10} {'old/new':>8}")
    for cls, (a, b, count) in [*sorted(best.items()),
                               ("all", [sum(v[i] for v in best.values()) for i in range(3)])]:
        print(f"{cls:24} {count:>5} {a * 1e3:>10.2f} {b * 1e3:>10.2f} {a / b:>8.3f}")
    print(f"outputs differing: {len(differ)}" + (f" ({', '.join(differ[:10])})" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
