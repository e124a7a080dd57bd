"""The machine's speed, read from a fixed reference loop run between jobs.

The benchmark runs on a 2-vCPU virtual machine shared with other tenants.
Its speed moves by up to a factor of 1.7 for tens of seconds at a time,
which is as long as a run, so no statistic of one run's raw times is
steady from run to run. A fixed loop of interpreter and small-array work
slows down with the machine. On six 18 s ``certify`` runs, the quartile
spread of the job p50 over its median was 0.155 raw and 0.053 once each job
was scaled by the loop's time next to it.

Timings are reported at the reference speed: a job's wall time times
``REFERENCE_S`` over the loop's time around that job. The loop's time is
the thread's CPU time, so that another thread of the process holding the
interpreter lock cannot make the machine look slow and hide its own cost.
"""

from __future__ import annotations

import statistics
from time import thread_time

import numpy as np

REFERENCE_S = 0.40e-3   # the loop's warm thread CPU time on a quiet 2-vCPU Xeon at 2.1 GHz
ITERATIONS = 2_000
READ_SHARE = 0.01       # readings after a job take about this share of its time
MIN_READINGS = 5        # a job's scale rests on at least this many readings

_ARRAY = np.arange(64.0)


def loop_s() -> float:
    """Thread CPU seconds of one pass of the fixed reference loop."""
    t0 = thread_time()
    x, table = 0.0, {}
    for i in range(ITERATIONS):
        x += (i * 0.5) % 7.0
        table[i & 255] = x
        if i % 40 == 0:
            b = np.maximum(_ARRAY - x, 0.0)
            b.sort()
            x += float(b[0])
    return thread_time() - t0


def warm_readings(count: int) -> list[float]:
    """``count`` loop times, after one untimed pass.

    The first pass after a job runs with whatever the job left in the
    caches, so its time depends on the program; it is not counted.
    """
    loop_s()
    return [loop_s() for _ in range(count)]


class Speedometer:
    """Loop readings taken between jobs, and the scale factor they give each job.

    A single reading moves by 5 to 20 % from the next, so a job is scaled by
    the median of the readings just before and just after it, widened to
    the neighbouring gaps between jobs until there are ``MIN_READINGS``.
    After a long job there are several readings, about ``READ_SHARE`` of its
    time.
    """

    def __init__(self):
        self.gaps: list[list[float]] = []   # gap k comes just before job k

    def read(self, last_job_s: float) -> None:
        """Take the readings after a job that took ``last_job_s`` (0 before the first job)."""
        self.gaps.append(warm_readings(max(1, round(READ_SHARE * last_job_s / REFERENCE_S))))

    def scale(self, k: int) -> float:
        """Factor that brings job ``k`` to the reference speed."""
        lo, hi = k, k + 2
        while sum(map(len, self.gaps[lo:hi])) < MIN_READINGS and (lo > 0 or hi < len(self.gaps)):
            lo, hi = max(0, lo - 1), hi + 1
        return REFERENCE_S / statistics.median([r for gap in self.gaps[lo:hi] for r in gap])
