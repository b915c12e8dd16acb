"""Record the expected output digest of every pool instance.

    python3 perfbench/record.py

Runs each instance of every workload once, refuses to record one whose
independent checks fail, and writes `perfbench/expected.json` afresh
({"workload/class/index": [exit code, digest]}), so that all digests come
from one version of the program.  Run it only on a commit whose test
suite passes; a later change to the program must reproduce these digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("SPHEREMOTION_SEED", None)

import jobs  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    work = HERE.parent / ".perfbench_work" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    reports, out_digests = {}, {}
    for job in workloads.every_job(workload, workloads.Artifacts(work)):
        start = time.perf_counter()
        out = jobs.execute(job, reports)
        report, doc = jobs.output_doc(job, out)
        if report is not None:
            reports[job["key"]] = report
        jobs.check(job, out, report)
        out_digests[f"{workload}/{job['key']}"] = [out.code, jobs.digest(doc)]
        print(f"{workload}/{job['key']} exit {out.code} "
              f"{time.perf_counter() - start:.3f}s", file=sys.stderr)
    return out_digests


def main() -> int:
    expected = {}
    for workload in sorted(workloads.WORKLOADS):
        expected.update(record(workload))
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected.items())]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
