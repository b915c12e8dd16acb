"""Interleaved A/B of two checkouts on one workload's jobs.

    python tests/tools/ab_jobs.py OLD NEW --workload weights --seed 3 [--k 5] \
        [--classes CLS ...]

OLD and NEW are the roots of two checkouts.  Each one's `src/spheremotion`
is copied into a temporary directory under its own package name, `ab_old`
and `ab_new`; the package imports itself relatively, so both load side by
side in one process.  The jobs are planned by OLD's `perfbench/workloads.py`,
read and not changed, with OLD's own `spheremotion` building the inputs,
for the given seed at `--seconds 30`, so every pool instance is in the plan.
Each distinct job then runs k times per side, the two sides alternating and
the side that goes first switching each time.  A CLI job runs in-process
through the package's `cli.main` with stdout captured.  A library job runs
through OLD's `perfbench/jobs.py`, loaded once per side with `spheremotion`
standing for that side's package: its untimed preparation parses the
inputs (and the producer's report, from that side's own run of the
producer) with that side's reader, and its timed call and canonical form
are that side's.  The CLI jobs run first, so every producer has run.

`--classes` keeps the jobs of the named classes, and the producer jobs
whose reports their library jobs read.

It prints, per job class, the sum over its jobs of each side's minimum
wall time (a library job's: its timed call alone) and the speedup
old / new, then the same over all jobs.  Next comes each side's
nearest-rank p90 over those minimum times, one per distinct job, as the
benchmark takes its p90 over instances, so a change to `latency_p90_ms`
can be previewed before the 30-s benchmark runs.  Last is the count of
jobs whose output differs between the sides (each side's first run: the
exit code and stdout of a CLI job, whose artifact paths are the same for
both, or the canonical result of a library job, or the exception it
raised).
A library job whose run raised on either side is counted and named apart,
and left out of the times.  Its exit code is 1 when any output differs.

Minimum times of interleaved runs cancel most of the drift of a shared
machine.  On a 2-core x86-64 VM with Python 3.11, ten 30-s benchmark runs
of one tree read 1084-1183 `jobs_per_s` on `timetables`, while this
harness, run on one tree against itself at seed 3 and k = 5, read 0.989
over all `weights` jobs and 1.024 over all `timetables` jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
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


def load_jobs(perfbench: Path, package: str, into: Path):
    """perfbench/jobs.py as a module of its own whose `spheremotion` is the
    given package, each of its submodules imported under both names."""
    aliases = {"spheremotion": importlib.import_module(package)}
    for path in sorted((into / package).glob("*.py")):
        if path.stem != "__init__":
            aliases[f"spheremotion.{path.stem}"] = importlib.import_module(
                f"{package}.{path.stem}")
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"{package}_jobs", perfbench / "jobs.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name)
            else:
                sys.modules[name] = mod
    return module


def planned_jobs(old: Path, workload: str, seed: int, art_dir: Path) -> list:
    """Each distinct job of the workload's plan: the CLI jobs in plan order,
    then the library jobs in plan order."""
    sys.path[:0] = [str(old / "perfbench"), str(old / "src")]
    import workloads

    art = workloads.Artifacts(art_dir)
    once, rounds, _ = workloads.plan(workload, seed, art, workloads.round_count(workload, 30))
    jobs = {}
    for job in [*once, *(j for r in rounds for j in r)]:
        jobs.setdefault(job["key"], job)
    return sorted(jobs.values(), key=lambda job: job.get("argv") is None)


def p90(times: list) -> float:
    """The nearest-rank p90 of the times, as `perfbench/run.py` takes it."""
    return sorted(times)[math.ceil(0.9 * len(times)) - 1]


def run_once(main, argv) -> tuple[float, tuple[int, str]]:
    """The run's seconds, and its exit code and stdout."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 2
    return time.perf_counter() - start, (code, buf.getvalue())


def run_library(jobs, job, reports) -> tuple[float | None, str]:
    """The timed call's seconds (None when it raised) and the canonical
    result, as JSON text, or the exception it raised."""
    try:
        out = jobs.execute(job, reports)
    except Exception as exc:  # a refusal is an output to compare, not a time
        return None, f"{type(exc).__name__}: {exc}"
    return out.seconds, json.dumps(jobs.output_doc(job, out)[1], sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, choices=("timetables", "weights", "words"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--k", type=int, default=5, help="runs of each job per side")
    parser.add_argument("--classes", nargs="+", metavar="CLS",
                        help="time only these job classes (and their producers)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mains = load_packages(args.old.resolve(), args.new.resolve(), tmp)
        sides = [load_jobs(args.old.resolve() / "perfbench", name, tmp)
                 for name in ("ab_old", "ab_new")]
        jobs = planned_jobs(args.old.resolve(), args.workload, args.seed, tmp / "art")
        if args.classes:
            kept = [job for job in jobs if job["cls"] in args.classes]
            keys = {job["key"] for job in kept} | {job["needs"] for job in kept if job.get("needs")}
            jobs = [job for job in jobs if job["key"] in keys]
        needed = {job["needs"] for job in jobs if job.get("needs")}
        reports = ({}, {})  # each side's report of every producer job
        best = {}  # class -> [old seconds, new seconds, jobs]
        minima = ([], [])  # each side's minimum seconds, one per timed job
        differ, raised = [], []
        for n, job in enumerate(jobs):
            times, first = ([], []), [None, None]
            for rep in range(args.k):
                order = (0, 1) if (n + rep) % 2 == 0 else (1, 0)
                for side in order:
                    if job.get("argv") is not None:
                        t, out = run_once(mains[side], job["argv"])
                    else:
                        t, out = run_library(sides[side], job, reports[side])
                    times[side].append(t)
                    first[side] = first[side] or out
            if job["key"] in needed:
                for side in (0, 1):
                    reports[side][job["key"]] = json.loads(first[side][1])
            if first[0] != first[1]:
                differ.append(job["key"])
            if None in times[0] or None in times[1]:
                raised.append(job["key"])
                continue
            sums = best.setdefault(job["cls"], [0.0, 0.0, 0])
            for side in (0, 1):
                sums[side] += min(times[side])
                minima[side].append(min(times[side]))
            sums[2] += 1
    library = sum(job.get("argv") is None for job in jobs)
    print(f"{args.workload} seed {args.seed}, k = {args.k}: {len(jobs) - library} CLI jobs, "
          f"{library} library jobs")
    print(f"{'class':24} {'jobs':>5} {'old ms':>10} {'new ms':>10} {'old/new':>8}")
    for cls, (a, b, count) in [*sorted(best.items()),
                               ("all", [sum(v[i] for v in best.values()) for i in range(3)])]:
        ratio = a / b if b else float("nan")  # every job of the workload raised
        print(f"{cls:24} {count:>5} {a * 1e3:>10.2f} {b * 1e3:>10.2f} {ratio:>8.3f}")
    if minima[0]:
        a, b = p90(minima[0]), p90(minima[1])
        print(f"{'p90 (ms)':24} {len(minima[0]):>5} {a * 1e3:>10.3f} {b * 1e3:>10.3f} {a / b:>8.3f}")
    if raised:
        print(f"jobs left out of the times, as a run raised: {len(raised)} "
              f"({', '.join(raised[:10])})")
    print(f"outputs differing: {len(differ)}" + (f" ({', '.join(differ[:10])})" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
