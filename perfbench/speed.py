"""Machine speed, sampled with a fixed kernel, for scaling job times.

On a shared host the speed of a core drifts with its neighbours' load: on
the reference VM (2 cores of a shared x86-64 host) the same loop ran up to
1.5 times slower for stretches of ten seconds and more.  Such drift does
not average out over a run, so the timed loop samples the CPU time of
`kernel()`, a fixed piece of pure-Python work of the program's kind, near
every job: between jobs at most every INTERVAL seconds, and every INTERVAL
seconds during a job through a timer signal.  A job's time is then scaled
to reference speed:

    scaled = job CPU seconds * REF_S / mean kernel CPU seconds around it

Where the kernel takes REF_S, scaled time equals CPU time.  The kernel is
the benchmark's own code, so a change to the program moves scaled times
exactly as it moves CPU times; only the host's drift is divided out.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.0004  # kernel_seconds() at reference speed
INTERVAL = 0.01  # seconds between samples

_KEYS = [(i % 97, (i * 7) % 13, -1 if i & 1 else 1) for i in range(500)]


def kernel() -> int:
    """Tuple keys in dicts and sets, small Fractions, a sort."""
    counts = {}
    acc = Fraction(0)
    for k, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0) + 1
        if k % 20 == 0:
            acc += Fraction(key[0], key[1] + 1)
    seen = {(a, b) for a, b, _ in _KEYS if (a + b) % 3}
    return len(sorted(counts)) + len(seen) + acc.denominator


def kernel_seconds() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


class Meter:
    """Kernel samples along a timed loop, and each job's window into them.

    Call `between()` before each job, `job_started()` and `job_ended()`
    right inside its timed region (then `window` describes the job), and
    `close()` after the last job.
    """

    def __init__(self):
        self.samples = []  # kernel CPU seconds, in time order
        self.last = float("-inf")  # perf_counter of the last sample
        self.in_job = False
        self.in_job_cost = 0.0  # CPU seconds of samples taken inside jobs
        self.window = None  # (first sample, end sample, in-job sample cost)
        self._started = None
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)

    def sample(self) -> None:
        start = time.process_time()
        self.samples.append(kernel_seconds())
        self.last = time.perf_counter()
        if self.in_job:
            self.in_job_cost += time.process_time() - start

    def between(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL:
            self.sample()

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def job_started(self) -> None:
        self._started = (len(self.samples) - 1, self.in_job_cost)
        self.in_job = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def job_ended(self) -> None:
        """The job's window runs from the last sample before it to the
        next one taken after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.in_job = False
        first, cost_before = self._started
        self.window = (first, len(self.samples), self.in_job_cost - cost_before)

    def close(self) -> None:
        self.sample()  # the last job's end sample
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, cpu_seconds: float, first: int, end: int) -> float:
        """CPU seconds at reference speed over the samples first..end."""
        return cpu_seconds * REF_S / statistics.fmean(self.samples[first:end + 1])
