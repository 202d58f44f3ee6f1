"""Host-speed sampling: a tiny piece of benchmark-owned work timed during every job.

The 2-vCPU x86-64 microVM this benchmark was sized on switches between two
speeds about 1.6x apart, in spells from a fraction of a second to about a
minute (README.md, "Host noise").  A job of a few seconds spans several
spells, so timing a probe only before and after it (two instants) misjudges
the speed the job saw and made the scaled times noisier than the raw ones.

Instead, while a job runs, a SIGALRM handler fires every INTERVAL_S of wall
time and times the kernel below: once to warm the caches the job evicted,
then once timed.  Speed at that instant is REFERENCE_S over the timed run.
The same measurement (median of five) is taken just before and just after
the job.  A job's scaled time is

    adjusted = (wall - time spent in the handler) * mean speed over the job

with the mean taken over time: the speeds at the job's start, at each
sample and at its end, joined by straight lines (the trapezoid rule).  A job
shorter than the interval is scaled by the mean of its two boundary speeds.
The handler runs in the job's own thread, between bytecodes: no thread or
process is started.  The kernel never calls the program, so a change to the
program cannot move it.  Raw wall times are printed to stderr beside the
result.

Set-up time is the start of fresh processes, which this in-process sampling
does not see.  Set-up is therefore scaled by a start-up probe: running this
file as a script starts Python, imports numpy, builds the kernel's arrays
and prints "ready".  run.py runs it right after every set-up process, so
the two see the same host state, and reports

    setup_s = START_REFERENCE_S * median over pairs of (set-up wall / start-up probe wall)
"""

from __future__ import annotations

import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

# The kernel's warm time on that microVM in its fast state.
REFERENCE_S = 1.5e-4
# The start-up probe's time (this file as a script) on that microVM in its fast state.
START_REFERENCE_S = 0.15
# Wall seconds between samples while a job runs; the kernel costs about 1.5% of that.
INTERVAL_S = 0.02

_PERM = np.random.default_rng(0).permutation(1 << 12)
_SMALL = np.arange(64, dtype=np.float64)


def _kernel() -> float:
    """Seconds taken by the fixed work: the kinds of work the jobs do, about 0.15 ms."""
    t0 = perf_counter()
    # an interpreted loop with numpy scalar indexing
    z = 0
    for _ in range(400):
        z = int(_PERM[z])
    # small numpy calls, as in per-cycle loops
    acc = 0.0
    for i in range(25):
        acc += float(np.cumsum(_SMALL[: 16 + i])[-1])
    # float formatting, as in the CSV writers
    text = ",".join(format(x * 1e-3, ".12g") for x in range(60))
    elapsed = perf_counter() - t0
    if acc <= 0 or not text:
        raise RuntimeError("host-speed kernel computed a wrong result")
    return elapsed


def speed() -> float:
    """Host speed now, relative to the reference state: one warm-up run, one timed run."""
    _kernel()
    return REFERENCE_S / _kernel()


def boundary_speed() -> float:
    """Host speed at a job boundary: the median of five measurements."""
    return statistics.median(speed() for _ in range(5))


def mean_speed(start: float, end: float, samples: list[tuple[float, float]],
               before: float, after: float) -> float:
    """Time-weighted mean speed over [start, end] from (time, speed) samples inside it."""
    if end <= start:
        return (before + after) / 2
    points = [(start, before), *samples, (end, after)]
    area = sum((t1 - t0) * (v0 + v1) / 2 for (t0, v0), (t1, v1) in zip(points, points[1:]))
    return area / (end - start)


class Sampler:
    """Samples host speed every INTERVAL_S while active (a context manager around one job).

    The samples go into arrays allocated once, when the sampler is made: a
    list grown from the handler reallocates in the middle of the job's heap
    and raised the scale workload's peak RSS by about 90 MB.
    """

    CAPACITY = 1 << 15  # about 11 minutes of samples; later ones are dropped

    def __init__(self) -> None:
        self._times = array("d", bytes(8 * self.CAPACITY))
        self._speeds = array("d", bytes(8 * self.CAPACITY))
        self._costs = array("d", bytes(8 * self.CAPACITY))  # seconds in the handler
        self._n = 0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        v = speed()
        if self._n < self.CAPACITY:
            self._times[self._n], self._speeds[self._n] = t0, v
            self._costs[self._n] = perf_counter() - t0
            self._n += 1

    def scale(self, start: float, end: float, before: float, after: float) -> tuple[float, float]:
        """(mean speed over [start, end], seconds the handler took inside it)."""
        inside = [i for i in range(self._n) if start <= self._times[i] <= end]
        samples = [(self._times[i], self._speeds[i]) for i in inside]
        return (mean_speed(start, end, samples, before, after),
                sum(self._costs[i] for i in inside))

    def __enter__(self) -> "Sampler":
        self._n = 0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


if __name__ == "__main__":
    print("ready", flush=True)
