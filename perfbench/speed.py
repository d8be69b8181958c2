"""Machine-speed probe: turns wall time into drift-corrected seconds.

On a small shared machine the core's speed changes by up to ~2x in phases
of seconds to minutes (process CPU time tracks wall time, so it is the
core that slows, not scheduling). Medians alone cannot absorb that. While
the measured code runs, a real-time interval timer interrupts it every
``INTERVAL_S`` and times a short fixed kernel. The corrected time is the
wall time scaled by ``NOMINAL_S / mean(kernel time)``: seconds as they
would read at the kernel's nominal speed. The slowest 2% of samples are
dropped first: a sample the scheduler preempted reads milliseconds and
would swamp the mean.

The kernel is a pure-Python loop that allocates nothing (it stays within
the interpreter's cached small ints) and needs no NumPy, so the set-up
probe can use it before anything is imported. For operations it runs once
untimed before each timed pass: the interrupted program evicts the
kernel's code and data, and a cold pass would partly time the program's
cache footprint, so a change to the program's memory use would move the
correction. The set-up probe times the cold pass instead: imports are
memory-bound, their slowdowns show only in a cold pass (set-up times
spread 3-5% between runs that way, 23% with the warm pass), and the
import path is not what performance changes target. Sampling costs well
under 1% of the run, touches no program state and so cannot change any
output.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# the kernel's time on the machine the benchmark was defined on (2-core
# Xeon at 2.1 GHz); a fixed constant, so it only sets the scale
NOMINAL_S = 16e-6
_MIN_SAMPLES = 20
_SMALL_INTS = tuple(range(100)) * 4


def _loop() -> None:
    x = 0
    for v in _SMALL_INTS:
        x = (x + v) & 255


def _kernel(warm: bool) -> float:
    if warm:
        _loop()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager sampling the kernel while the body runs."""

    def __init__(self, warm: bool = True):
        self.warm = warm
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(_kernel(self.warm))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # restart interrupted system calls inside C code instead of failing them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # a body shorter than a few intervals: sample right after it
        while len(self.samples) < _MIN_SAMPLES:
            self.samples.append(_kernel(self.warm))

    def factor(self) -> float:
        """Multiply a wall time measured inside the probe by this."""
        samples = sorted(self.samples)
        return NOMINAL_S / statistics.fmean(samples[:len(samples) - len(samples) // 50])
