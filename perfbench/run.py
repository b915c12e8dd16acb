"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload timetables|weights|words \\
        --seed N --seconds S --trace 0|1

One process, one client, a closed loop with no threads.  The seed deals
and orders the jobs (see workloads.py), whose inputs are written as JSON
artifacts under `.perfbench_work/` before timing starts.

--trace 0 runs the once-per-run jobs, then a number of whole rounds that
depends on S only (workloads.round_count), so that every version of the
program does the same work, and reports the end-to-end metrics.  Times
are CPU seconds scaled to reference speed (speed.py); the unscaled wall
figures go to stderr.
--trace 1 runs the once-per-run jobs with spans around the program's
entry points, then each job of the first round untraced and at once
traced, and reports the per-layer metrics.  Every job is checked outside
the timed region; a failure prints its replay information to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("SPHEREMOTION_SEED", None)  # fuzz jobs carry their own seeds

import spheremotion.cli  # noqa: E402,F401  (fails here when the program is missing)

import jobs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"
SETUP_PROBES = 5


class Run:
    """Executes jobs, checks each outside its timed region, and keeps score."""

    def __init__(self, workload: str, seed: int, expected: dict, needed: set):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.needed = needed  # producer keys whose reports some job consumes
        self.reports = {}  # producer key -> report of its first execution
        # job key -> [[exit code, digest], stdout digest, passed] of its first run
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failed_keys = set()
        # (wall s, CPU s, job, speed window) of every timed execution that
        # returned; not the outcome, whose output would count in peak_rss_mb
        self.samples = []

    def run(self, job, tracer=None, meter=None):
        self.attempted += 1
        hooks = {}
        if tracer is not None:
            index = self.attempted
            hooks = {"on_start": lambda: tracer.begin(index), "on_end": tracer.end}
        elif meter is not None:
            meter.between()
            hooks = {"on_start": meter.job_started, "on_end": meter.job_ended}
        try:
            out = jobs.execute(job, self.reports, **hooks)
        except Exception as exc:  # the job's failure, reported with replay data
            self._fail(job, f"raised {type(exc).__name__}: {exc}")
            return None
        if meter is not None:
            self.samples.append((out.seconds, out.cpu, job, meter.window))
        try:
            self._check(job, out)
        except Exception as exc:
            self._fail(job, str(exc) or type(exc).__name__)
        return out

    def _check(self, job, out) -> None:
        if job["key"] in self.first:  # a repeat must reproduce its first output
            self._check_repeat(job, out)
            return
        report, doc = jobs.output_doc(job, out)
        got = [out.code, jobs.digest(doc)]
        first = self.first[job["key"]] = [got, jobs.digest(out.text), False]
        if report is not None and job["key"] in self.needed:
            self.reports[job["key"]] = report
        jobs.check(job, out, report)
        want = self.expected.get(f"{self.workload}/{job['key']}")
        if got != want:
            raise jobs.JobFailure(f"exit {got[0]} digest {got[1]}, recorded {want}")
        first[2] = True

    def _check_repeat(self, job, out) -> None:
        got, text, passed = self.first[job["key"]]
        if not passed:  # reproducing a wrong output is no success
            raise jobs.JobFailure("repeats a job whose first execution in this run failed")
        if job.get("argv") is not None:  # same artifacts, so the same stdout
            same = out.code == got[0] and jobs.digest(out.text) == text
        else:
            same = [out.code, jobs.digest(jobs.output_doc(job, out)[1])] == got
        if not same:
            raise jobs.JobFailure("output differs from its first execution in this run")

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        self.failed_keys.add(job["key"])
        print(
            f"FAILED workload={self.workload} seed={self.seed} job={self.attempted} "
            f"key={job['key']}: {message}\n"
            f"  artifacts: {json.dumps(job['paths'])}\n"
            f"  replay: {jobs.replay_hint(job)}",
            file=sys.stderr,
        )


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure_setup(warmups, work: Path) -> tuple:
    """Median set-up seconds at reference speed, and the median wall seconds
    of the probe processes (see setup_probe.py)."""
    spec = work / "warmups.json"
    spec.write_text(json.dumps(warmups))
    scaled, walls = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=120,
        )
        walls.append(time.perf_counter() - start)
        scaled.append(json.loads(probe.stdout.splitlines()[-1])["scaled_s"])
    return statistics.median(scaled), statistics.median(walls)


def latency_summary(samples) -> dict:
    """samples: (seconds, job) of every execution.  An instance's latency
    is the median of its executions; the percentiles are over instances."""
    runs = {}
    for sec, job in samples:
        runs.setdefault(job["key"], (job["cls"], []))[1].append(sec)
    ordered = sorted((statistics.median(secs), cls) for cls, secs in runs.values())
    n = len(ordered)
    rank = math.ceil(0.9 * n)  # nearest-rank p90
    around = [f"{cls}:{sec * 1000:.1f}" for sec, cls in ordered[max(0, rank - 4):rank + 3]]
    return {
        "p50_ms": statistics.median(s for s, _ in ordered) * 1000,
        "p90_ms": ordered[rank - 1][0] * 1000,
        "samples": n,
        "beyond_p90": n - rank,
        "classes_around_p90": around,
    }


def timed(run: Run, once, rounds, count: int) -> dict:
    """End-to-end metrics from job times scaled to reference speed (speed.py)."""
    sequence = once + [job for k in range(count) for job in rounds[k % len(rounds)]]
    meter = speed.Meter()
    try:
        for job in sequence:
            run.run(job, meter=meter)
    finally:
        meter.close()
    scaled = [(meter.scale(cpu - cost, first, end), job)
              for _, cpu, job, (first, end, cost) in run.samples]
    loop = sum(sec for sec, _ in scaled)
    by_class = {}
    for sec, job in scaled:
        by_class[job["cls"]] = by_class.get(job["cls"], 0.0) + sec
    correct = run.attempted - run.failed
    lat = latency_summary(scaled)
    wall = latency_summary([(sec, job) for sec, _, job, _ in run.samples])
    kernel = statistics.quantiles(meter.samples, n=10)
    print(
        f"rounds={count} loop_s={loop:.3f} executions={len(scaled)} "
        f"instances={lat['samples']} beyond_p90={lat['beyond_p90']} "
        f"around_p90={lat['classes_around_p90']} "
        f"class_s={ {c: round(t, 2) for c, t in sorted(by_class.items())} }\n"
        f"unscaled: wall_s={sum(sec for sec, _, _, _ in run.samples):.3f} "
        f"wall_p50_ms={wall['p50_ms']:.3f} wall_p90_ms={wall['p90_ms']:.3f} "
        f"speed_samples={len(meter.samples)} kernel_ms_p10/p50/p90="
        f"{kernel[0] * 1000:.3f}/{statistics.median(meter.samples) * 1000:.3f}/"
        f"{kernel[-1] * 1000:.3f}",
        file=sys.stderr,
    )
    return {
        "jobs_per_s": metric(correct / loop, "jobs/s"),
        "latency_p50_ms": metric(lat["p50_ms"], "ms"),
        "latency_p90_ms": metric(lat["p90_ms"], "ms"),
        "ok_ratio": metric(correct / run.attempted, "ratio"),
    }


def traced(run: Run, once, round_jobs) -> dict:
    """Per-layer metrics; each round job runs untraced, then traced."""
    tracer = tracing.Tracer()
    job_seconds = {"once": 0.0, "round": 0.0, "untraced": 0.0}
    io_bytes = [0, 0]

    def traced_run(job, part):
        with tracer.installed():
            out = run.run(job, tracer)
        if out is not None:
            job_seconds[part] += out.seconds
            if job.get("argv") is not None:
                io_bytes[0] += sum(Path(p).stat().st_size for p in job["paths"].values())
                io_bytes[1] += len(out.text)
        return out

    for job in once:  # their reports feed the round's consumers
        traced_run(job, "once")
    for job in round_jobs:
        # adjacent in time, so that drift in machine speed cancels
        plain = run.run(job)
        if traced_run(job, "round") is not None and plain is not None:
            job_seconds["untraced"] += plain.seconds
    tracer.write(run_dir(run.workload, run.seed, 1) / "spans.tsv")
    return tracing.layer_metrics(
        tracer,
        job_seconds["once"] + job_seconds["round"],
        job_seconds["untraced"],
        job_seconds["round"],
        io_bytes,
    )


def run_dir(workload: str, seed: int, trace: int) -> Path:
    return ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{trace}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = run_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(work, ignore_errors=True)
    art = workloads.Artifacts(work / "inputs")
    count = 1 if args.trace else workloads.round_count(args.workload, args.seconds)
    once, rounds, warmups = workloads.plan(args.workload, args.seed, art, count)
    needed = {job["needs"] for job in once + [j for r in rounds for j in r] if job["needs"]}
    run = Run(args.workload, args.seed, json.loads(EXPECTED.read_text()), needed)

    if args.trace:
        for job in warmups:
            jobs.execute(job, {})
        metrics = traced(run, once, rounds[0])
    else:
        setup_s, setup_wall_s = measure_setup(warmups, work)
        print(f"setup: wall_s={setup_wall_s:.3f}", file=sys.stderr)
        for job in warmups:
            jobs.execute(job, {})
        metrics = timed(run, once, rounds, count)
        metrics["setup_s"] = metric(setup_s, "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = metric(rss_kb / 1024, "MB")

    if run.failed == 0:  # the inputs stay only to replay a failure
        shutil.rmtree(work / "inputs")
    else:
        print(f"failed_jobs={run.failed} failed_keys={len(run.failed_keys)}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
