"""Host speed, sampled inside the timed calls of a benchmark run.

On a shared machine the CPU the benchmark runs on slows down, by up to 1.9
times, in spells that last from under a second to minutes, with CPU time
tracking wall time.  A wall time alone then measures the host as much as
the program.  So while a run is timed, a timer interrupts the process
every `period` seconds of wall time, and the handler times a fixed
pure-Python Fraction loop that never touches irred.  The host's speed at
that moment is REF_PROBE_S divided by the loop's time: 1.0 when the host
runs as fast as the reference machine does when idle.

A timed call of wall time w, of which the probes took p, with mean
sampled speed v, did the work of (w - p) * v seconds at reference speed.
That is what the benchmark reports as a time metric; the wall times
(w - p) are printed beside it and kept in the raw output.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# time of probe(), called from the timer inside a run, on the reference
# machine (2-core Linux VM, Python 3.11) when its host is idle
REF_PROBE_S = 2.45e-4

# a call with fewer samples inside it takes its speed from the MIN_SAMPLES
# samples nearest to its midpoint
MIN_SAMPLES = 5


def probe():
    acc = Fraction(0)
    for k in range(1, 61):
        acc = (acc + Fraction(k % 97, k % 89 + 1)) % 7
    return acc


class Sampler:
    """Context manager that samples the host's speed every `period` s."""

    def __init__(self, period=0.05):
        self.period = period
        self.samples = []       # (start, probe seconds)
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _within(self, a, b):
        return [s for s in self.samples if a <= s[0] < b]

    def busy(self, a, b):
        """Seconds the probes took inside [a, b)."""
        return sum(p for _, p in self._within(a, b))

    def speed(self, a, b):
        """Mean sampled speed over [a, b), relative to the reference."""
        near = self._within(a, b)
        if len(near) < MIN_SAMPLES:
            mid = (a + b) / 2
            near = sorted(self.samples,
                          key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        if not near:
            raise RuntimeError("no host-speed sample")
        return speed_of([p for _, p in near])


def speed_of(probe_times):
    return sum(REF_PROBE_S / p for p in probe_times) / len(probe_times)
