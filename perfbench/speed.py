"""Machine-speed probe: samples how fast the machine runs while an
operation runs, so the benchmark can report its wall time at a fixed
machine speed.

On a shared box the speed of a core swings as other tenants load it:
on the 2-core Xeon box the benchmark was defined on, a fixed kernel took
1.0x to 1.6x its fastest time, switching every few seconds and sometimes
staying slow for a minute. A whole run's median operation wall time moves
with it, by 15-35% between runs of identical code. Every PERIOD_S a
SIGALRM handler times a fixed kernel in thread CPU time (so GIL waits
and descheduling do not count); the operation's wall time divided by the
kernel's mean time during it depends far less on that swing (per-op
spread 8-15% raw, 3-5% normalised, on all three workloads). The kernel
uses only numpy arithmetic operators, which the tracer does not wrap, and
no frictionlab code, so a change to the program does not change the
yardstick.

Caveat: the kernel also feels contention the operation causes itself,
such as the sweep's pool threads or BLAS threads on the other core, so a
change that removes such contention gains less in the normalised time
than in the raw time. Raw times are recorded beside every normalised one,
and so is their ratio (wall_raw_to_norm); its median over 20 runs was
1.9 on eps_sweep against 1.5-1.6 on the workloads without the pool.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# About the kernel's duration on the box the benchmark was defined on;
# scaling by it makes a normalised time read as seconds on that box.
REFERENCE_PROBE_S = 6e-5

_X = np.cos(np.arange(256) * 0.01)


def _kernel_seconds() -> float:
    # Python bytecode plus small-array numpy arithmetic, the two kinds of
    # work the operations mix; neither releases the GIL, so on the
    # threaded sweep a sample is not cut short by a worker taking it
    started = time.thread_time()
    total = 0.0
    for j in range(700):
        total += j * 1.0001
    y = _X
    for _ in range(20):
        y = y * 1.0001 + _X
    return time.thread_time() - started


class SpeedProbe:
    """Context manager sampling the kernel's duration during its body.

    Must be used from the main thread (signal handlers run there).
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, _signum=None, _frame=None):
        self.samples.append(_kernel_seconds())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def normalise(self, seconds: float) -> float:
        """Seconds measured under the probe, rescaled to the reference speed."""
        return seconds * REFERENCE_PROBE_S / statistics.fmean(self.samples)
