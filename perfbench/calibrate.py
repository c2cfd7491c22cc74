"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared host the speed available to one process drifts: on the 2-core
machine this benchmark was built on, the same fixpoint took anywhere from
0.7 s to 1.3 s depending on the minute, and the median over a 30 s run
moved by up to 30 % between runs. Raw times therefore cannot hold the
benchmark's bounds. The timed loop runs a fixed pure-Python kernel every
quarter second between jobs, and every end-to-end time is reported in
*reference seconds*: the measured time multiplied by

    factor = REF_KERNEL_NS / mean(kernel time in this run)

so a run on a machine that is slower than usual by some share scales its
times down by about that share. The kernel does the kind of work the
package's engines do (bounds in lists, tuple boxes, comparisons) and never
calls the package, so no change to the package moves it. Of the kernels
tried, this one followed the drift of the workloads' own jobs most closely:
over 13 s windows the ratio of job time to kernel time spread by 0.03 to
0.06, where the raw job time spread by 0.20 to 0.23. The raw times and the factor are kept in the run record.
"""

from __future__ import annotations

import statistics
import time
from typing import List

# Kernel time on the build machine in a quiet minute; it only sets the scale.
REF_KERNEL_NS = 5_000_000
SAMPLE_EVERY_NS = 250_000_000

_now = time.perf_counter_ns


def kernel() -> int:
    """Walk the bounds of a small chain of gap constraints inward one value
    at a time: list indexing, tuple packing and unpacking, comparisons and
    loops, the interpreter work that dominates the package's engines."""
    n = 8
    doms = [[0, 5000] for _ in range(n)]
    gaps = [(150 + i, 300 + i) for i in range(n - 1)]
    count = 0
    changed = True
    while changed:
        changed = False
        for i, (a, b) in enumerate(gaps):
            (ilo, ihi), (jlo, jhi) = tuple(doms[i]), tuple(doms[i + 1])
            if jlo - ihi < a and jlo - ilo < a:
                doms[i + 1][0] = jlo + 1
                changed = True
                count += 1
            if jhi - ilo > b and jhi - ihi > b:
                doms[i + 1][1] = jhi - 1
                changed = True
                count += 1
            if ihi + a > jhi:
                doms[i][1] = ihi - 1
                changed = True
                count += 1
            if ilo + b < jlo:
                doms[i][0] = ilo + 1
                changed = True
                count += 1
    return count


class Calibrator:
    def __init__(self) -> None:
        self.samples: List[int] = []
        self.spent_ns = 0
        self._last = 0

    def sample(self) -> None:
        t0 = _now()
        kernel()
        t1 = _now()
        self.samples.append(t1 - t0)
        self.spent_ns += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample if the last sample is more than SAMPLE_EVERY_NS old."""
        if _now() - self._last >= SAMPLE_EVERY_NS:
            self.sample()

    def factor(self) -> float:
        # The mean, not the median: job throughput is a time average over
        # the run, so the kernel time it is scaled by must be one too.
        return REF_KERNEL_NS / statistics.fmean(self.samples)
