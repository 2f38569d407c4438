"""Host-speed calibration: a fixed big-integer kernel timed between operations.

The hosts this benchmark was built on change speed by tens of percent for
periods of seconds to minutes (other tenants share the cores), and a plain
Python loop slows down with them.  The runner times this kernel between
operations all through a run; the median sample says how fast the host was
during the run, and every time metric is divided by it.  The kernel does not
use homgrow, so a change to the program cannot move it: the division removes
the host's speed, not the program's.
"""

from __future__ import annotations

import statistics
import time

# Seconds one kernel call takes on an idle reference host (Intel Xeon vCPU,
# CPython 3.11); normalised times are seconds at that host's speed.
REFERENCE_KERNEL_S = 0.00075

MIN_GAP_NS = 20_000_000

_A = 3 ** 2000 + 12345
_B = 7 ** 1500 + 999


def kernel() -> int:
    """Products, remainders and quotients of 3000-4000-bit integers.

    Of the candidates tried (small-integer elimination with Fractions and
    dicts, list-of-tuples transposes, big-integer arithmetic), this one's
    slow-downs tracked those of all four workloads most closely.
    """
    a, b = _A, _B
    for _ in range(20):
        a = (a * b) % (_A + 2)
        b = b + a // 3
    return a & 1


class Sampler:
    """Times the kernel at most once per MIN_GAP_NS of run time."""

    def __init__(self):
        self.samples_ns = []
        self._last = 0

    def tick(self, _op_id=None, force: bool = False) -> None:
        now = time.perf_counter_ns()
        if not force and now - self._last < MIN_GAP_NS:
            return
        start = time.perf_counter_ns()
        kernel()
        self._last = time.perf_counter_ns()
        self.samples_ns.append(self._last - start)

    def speed_factor(self) -> float:
        """Host slowness during the run relative to the reference host."""
        return statistics.median(self.samples_ns) / 1e9 / REFERENCE_KERNEL_S
