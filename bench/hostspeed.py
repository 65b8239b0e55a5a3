"""Timing at a reference host speed.

On a shared VM the host's speed can change by tens of percent from one
second to the next, with process CPU time still equal to wall time, so
neither clock alone compares two runs made minutes apart.  SpeedProbe
therefore runs a fixed reference kernel at the start and end of a timed
section and, from a timer signal, every INTERVAL_S seconds inside it.  The
section's speed is the mean of REF_KERNEL_S / kernel time over those
samples, and its time at the reference speed is

    (wall - time spent in the probe) x speed.

With a constant host speed this is the wall time scaled by one constant;
when the speed changes during the section, the time-uniform samples average
it the way the section's own work does.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
REF_KERNEL_S = 1.0e-4  # kernel seconds at the reference host speed
_SMALL = np.linspace(0.0, 1.0, 16)


def kernel():
    """Small-array numpy calls and float formatting: the two kinds of work
    that dominate qiepulse's operations.  Of the kernels tried, this one's
    time followed the ops' own slow-downs most closely; a pure-Python float
    loop did not follow them."""
    for _ in range(20):
        float((np.sin(_SMALL) * 0.5 + _SMALL)[3])
    return ",".join(f"{k * 1.2345e-3:.12e}" for k in range(150))


class SpeedProbe:
    """Context manager: wall, cpu and reference-speed seconds of a section.

    Uses SIGALRM and ITIMER_REAL, so it must run in the main thread and not
    be nested.
    """

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - t0

    @property
    def speed(self):
        """Host speed relative to the reference, over the section."""
        return statistics.fmean(REF_KERNEL_S / k for k in self.samples)

    @property
    def seconds(self):
        """The section's own wall seconds at the reference speed."""
        return (self.wall - self.spent) * self.speed
