"""Set-up probe: a fresh interpreter made ready to serve jobs.

    python3 perfbench/setup_probe.py WARMUPS.json

Imports `spheremotion.cli` (which imports every module), then runs one
warm-up job per light job class, untimed and unchecked.  The CPU seconds
from process start to ready are scaled to reference speed with kernel
samples taken before and after (see speed.py), and printed as the last
line: {"cpu_s": ..., "scaled_s": ...}.  The inputs were generated
beforehand.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def kernel_samples() -> tuple:
    """Three kernel samples, and the CPU seconds they took."""
    start = time.process_time()
    got = [speed.kernel_seconds() for _ in range(3)]
    return got, time.process_time() - start


before, cost = kernel_samples()

import spheremotion.cli  # noqa: E402,F401

import jobs  # noqa: E402

for job in json.loads(Path(sys.argv[1]).read_text()):
    jobs.execute(job, {})

cpu = time.process_time() - cost
after, _ = kernel_samples()
scaled = cpu * speed.REF_S / statistics.median(before + after)
print(json.dumps({"cpu_s": cpu, "scaled_s": scaled}))
