"""Host-speed calibration.

On a shared machine the same code runs up to half again as slow for
seconds at a time, and both wall time and process CPU time follow the
host.  A fixed snippet that builds tuples and hashes them into a set,
like the word engine does, measures the host's speed at one moment.
``HostSampler`` times the snippet before and after an operation and,
from a timer signal, every ``INTERVAL_S`` while the operation runs.  When
the operation runs in this process, the snippet's time inside it is
subtracted from the operation's time.  Scaling the operation's time by
``CAL_REF_S / mean(snippet times)`` gives its time at the reference speed,
where the snippet takes exactly ``CAL_REF_S``.

Each snippet time is the fastest of ``REPEATS`` runs, so a page fault or
an interrupt does not count as a slow host, and the garbage collector is
paused while it runs, so the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter, perf_counter_ns

CAL_REF_S = 0.00025
REPEATS = 3
INTERVAL_S = 0.05


def _snippet() -> int:
    seen = set()
    w = tuple(range(40))
    for i in range(300):
        w = w[1:] + (w[0] ^ i,)
        seen.add(w)
    return len(seen)


def calibration_s() -> float:
    """Seconds the fixed snippet takes now: the fastest of ``REPEATS`` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            _snippet()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Context manager timing one operation with the host's speed.

    After the block, ``measured_ns`` is the block's time and ``scale``
    turns it into time at the reference speed.  ``in_process`` says the
    operation runs in this process, so the snippet runs inside the block
    delay it and are subtracted; an operation that waits on a child
    process is not delayed by them.
    """

    def __init__(self, in_process: bool = True):
        self.in_process = in_process
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter_ns()
        self.samples.append(calibration_s())
        self.stolen_ns += perf_counter_ns() - start

    def __enter__(self):
        self.samples = [calibration_s()]
        self.stolen_ns = 0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.measured_ns = perf_counter_ns() - self.start_ns
        if self.in_process:
            self.measured_ns -= self.stolen_ns
        self.samples.append(calibration_s())
        self.scale = CAL_REF_S / statistics.fmean(self.samples)
        return False
