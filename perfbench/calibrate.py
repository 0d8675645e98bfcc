"""Wall time rescaled to a reference CPU speed.

On a shared 2-core VM the speed of a core drifts by 20-40%, both from one
second to the next and over minutes, with other tenants' load.  That is wider
than the changes the benchmark must resolve, and longer runs do not average
the slow part away.  So while a run measures, a timer interrupts the program
every PERIOD_S seconds to time a fixed probe loop of about a millisecond.  A
measured time is the wall time minus the probes run inside it, rescaled by
REF_S over the median probe time of the stretch it belongs to (all untraced
passes of a run, its setup builds, or its traced pass): seconds at the
reference speed.  One factor for all passes, from a few hundred probes, is
steadier than one per pass.

The probe uses only the interpreter (a small dict, tuples, 62-bit modular
products), never the program under test, so a change to the program cannot
move it.  It allocates too little to move the peak-memory metric.
"""

from __future__ import annotations

import signal
import statistics
import time

# Probe time that defines the reference speed: about the probe's median on the
# reference machine (2-core VM, Python 3.11.7).
REF_S = 0.0010
PERIOD_S = 0.05
PROBE_N = 2_000
# An interval with fewer probes borrows the ones nearest to it in time.
MIN_PROBES = 9
_P = 4611686018427387847


def probe() -> int:
    d: dict = {}
    acc = 1
    for i in range(PROBE_N):
        key = (i & 255, i % 7)
        d[key] = d.get(key, 0) + i
        acc = acc * (i + 3) % _P
    return acc


class SpeedMeter:
    """Times the probe every PERIOD_S seconds while installed.

    The same timer enforces the run's deadline: the first tick after it
    raises `cap_error`.  Installing the meter replaces the SIGALRM handler and
    the ITIMER_REAL timer; leaving stops the timer and restores the handler.
    """

    def __init__(self, deadline: float, cap_error: type):
        self.deadline = deadline  # a time.monotonic() value
        self.cap_error = cap_error
        self.probes: list = []  # (perf_counter at the end, duration)
        self._saved = None

    def _tick(self, signum, frame):
        if time.monotonic() >= self.deadline:
            raise self.cap_error()
        self._record()

    def _record(self):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.probes.append((t1, t1 - t0))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def own(self, t0: float, t1: float) -> float:
        """Wall time between perf_counter stamps t0 and t1, minus the probes in it.

        Probes run only between the measured program's bytecodes, so each lies
        wholly inside or wholly outside [t0, t1].
        """
        return (t1 - t0) - sum(d for end, d in self.probes if t0 <= end <= t1)

    def factor(self, intervals) -> float:
        """REF_S over the median probe time in the stretch the (start, end) intervals cover."""
        t0, t1 = min(s for s, _ in intervals), max(e for _, e in intervals)
        while len(self.probes) < MIN_PROBES:
            self._record()
        inside = [p for p in self.probes if t0 <= p[0] <= t1]
        if len(inside) < MIN_PROBES:
            mid = (t0 + t1) / 2
            inside = sorted(self.probes, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]
        return REF_S / statistics.median(d for _, d in inside)
