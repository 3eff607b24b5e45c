"""CPU speed probe: how fast this core runs Python right now.

The benchmark's host shares its cores.  The speed at which one vCPU runs the
interpreter swings by up to 1.7x within a second and drifts over minutes,
with the process on the CPU the whole time (its CPU time swings with its
wall time), and the two vCPUs swing independently.  A time measured on such
a host says as much about the neighbours as about the program.  So the
benchmark times a fixed reference stretch of interpreter work on the same
thread, interleaved with the cases, and states every timing at a reference
speed:

    adjusted = measured * speed,    speed = REFERENCE_S / (reference time)

The probe samples from a SIGALRM handler every SAMPLE_EVERY_S seconds while
cases run in this interpreter, and on request (burst) around a set-up.  Time
spent in the probe is counted apart, so it is not charged to the work.  A
CLI command runs in a child process, which may land on the other vCPU, whose
speed is nearly independent of this one's; cli_probe.py runs the probe in
the child instead.  The module imports nothing the CLI does not import
anyway, apart from signal, so it adds next to nothing to a cold start.  The reference work uses only the
standard library, never the package, so a change to the package cannot move
its own yardstick.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
# Seconds reference_work takes at the reference speed, about its fastest on
# a 2-vCPU Xeon VM with Python 3.11.  It only fixes the unit: every adjusted
# time is proportional to it.
REFERENCE_S = 300e-6


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def combine(self, other):
        return _Pair(self.x + other.y, self.y ^ other.x)


_SETS = [frozenset(x for x in range(6) if k >> x & 1) for k in range(0, 64, 3)]


def reference_work() -> float:
    """Seconds one fixed stretch of interpreter work takes now.

    A tight arithmetic and tuple loop, then a spread of what the package's
    code does: Fraction arithmetic, frozenset closure, itertools.product,
    small objects and method calls, sorting with a key, a generator and a
    caught exception.  The mix matters: on this host a tight loop alone
    slows by less than the package's code does when a neighbour is busy.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(400):
        key = (i & 31, i % 7)
        acc += hash(key) % 13 + len(table)
        table[key] = acc
    total = Fraction(0)
    for i in range(1, 12):
        total += Fraction(i, i + 1) * Fraction(1, i)
    closed = {a & b for a in _SETS for b in _SETS}
    sum(1 for t in itertools.product(range(3), repeat=4) if sum(t) % 2)
    pair = _Pair(0, 1)
    for i in range(30):
        pair = pair.combine(_Pair(i, i + 1))
    sorted(closed, key=lambda f: (len(f), sorted(f)))
    names = {str(k): k for k in range(40)}
    sum(i * i for i in range(50))
    try:
        names["missing"]
    except KeyError:
        pass
    return time.perf_counter() - start


class SpeedProbe:
    """Samples of (time, speed), and the probe time spent so far."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent_s = 0.0
        self._previous = None
        for _ in range(5):  # the first calls in a fresh interpreter run cold
            reference_work()

    def _sample(self) -> None:
        start = time.perf_counter()
        took = reference_work()
        self.times.append(start)
        self.speeds.append(REFERENCE_S / took)
        self.spent_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        """Sample every SAMPLE_EVERY_S seconds until stop()."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def burst(self, count: int = 3) -> None:
        """Take `count` samples now."""
        for _ in range(count):
            self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean speed over [start, end], widened by one sampling interval.

        A case shorter than the interval gets the samples on either side of
        it.  The mean of speeds is the time average of 1 / reference time,
        which is what scales a duration.
        """
        lo = bisect.bisect_left(self.times, start - SAMPLE_EVERY_S)
        hi = bisect.bisect_right(self.times, end + SAMPLE_EVERY_S)
        if lo == hi:  # no sample near: the nearest one on each side
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return sum(self.speeds[lo:hi]) / (hi - lo)
