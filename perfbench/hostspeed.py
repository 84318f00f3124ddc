"""Host-speed normalisation of a process's timings on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
pure-Python code changes by up to 1.7x from one stretch of seconds to the
next, and the process's CPU time slows down with it (the slowdown is not
time spent waiting for a core).  A timing of the program alone then says
as much about the host's state as about the program.

``Clock`` measures the host's speed while the program runs: a timer signal
interrupts the process every ``PERIOD_S`` seconds and runs a fixed
``calibrate`` loop, pure Python like the program's own inner loops.  Each
stretch of program time between two calibrations is then rescaled::

    normalized = sum(rescale(stretch, calibration near the stretch, WALL_SHARE))
    rescale(seconds, cal, share) = seconds * (REF_CAL_S / cal) ** share

So a normalised time is in seconds on a host on which one calibration takes
``REF_CAL_S``: it hardly moves when the host slows down and moves in full
when the program does more or less work.  Calibration time is never counted
as program time.

The program's time follows only a share of the calibration's slowdown,
since the program does other work than the loop (numpy gathers, memory
allocation, imports).  The shares were chosen on the 2-core test host as
those that left the least spread over runs spanning its fast and slow
states (IQR over median, runs of the same inputs):

- timed section, ``WALL_SHARE``: share 0 / 0.5 / 0.75 / 1 left 0.19 / 0.08 /
  0.03 / 0.04 on k4-verify, 0.51 / 0.21 / 0.06 / 0.07 on witness-decide and
  0.22 / 0.09 / 0.03 / 0.05 on big-tower;
- set-up, ``SETUP_SHARE``: share 0 / 0.5 / 0.75 / 1 left 0.13 / 0.07 / 0.12 /
  0.14 on big-tower (where building the F_{64^2} tables dominates), 0.17 /
  0.10 / 0.09 / 0.22 on k4-verify and 0.27 / 0.06 / 0.11 / 0.27 on
  lemma-battery.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1  # program time between two calibrations
REF_CAL_S = 0.0025  # one calibration on the reference host, in its fast state
CAL_ROUNDS = 4000  # work of one calibration
SMOOTH = 5  # calibrations in the running median of the speed
WALL_SHARE = 0.75  # share of the calibration's slowdown a timed section follows
SETUP_SHARE = 0.5  # the same for a set-up


class _Table:
    """A tiny field-like object: the program's loops look like this."""

    def __init__(self):
        self.log = list(range(256))
        self.exp = [(7 * i + 3) % 251 for i in range(512)]
        self.cache = {}

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]


_TABLE = _Table()


def calibrate() -> float:
    """Seconds one fixed round of call, list, dict and integer work takes.

    The mix was chosen against the witness-decide jobs on the 2-core test
    host: over 90 ms windows, log program time follows log calibration
    time with correlation 0.93 and slope 0.89, where a calls-and-lists
    loop alone gave slope 0.82 and an integer loop alone 1.10.
    """
    t, cache = _TABLE, _TABLE.cache
    start = time.perf_counter()
    acc = 1
    for i in range(CAL_ROUNDS):
        a = (acc * 31 + i) & 255
        acc = t.mul(a, i & 255) ^ (acc >> 1)
        key = (a, acc & 63)
        if key not in cache:
            cache[key] = [acc, a]
        acc += cache[key][0] & 7
    for i in range(3 * CAL_ROUNDS // 2):
        acc += (i * i) % 7
    cache.clear()
    return time.perf_counter() - start


def _median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def rescale(seconds: float, cal_s: float, share: float) -> float:
    """``seconds`` taken while one calibration took ``cal_s``, at the reference speed."""
    return seconds * (REF_CAL_S / cal_s) ** share


class Clock:
    """Calibrations interleaved with the program, on a SIGALRM timer.

    ``start`` takes one calibration at once and arms the timer; ``stop``
    disarms it and takes a last one.  ``normalized(t0, t1)`` rescales the
    program time in ``[t0, t1]`` (``time.perf_counter`` values) and
    ``raw(t0, t1)`` is that program time unscaled.
    """

    def __init__(self):
        self.cals: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self.cals.append((start, calibrate()))
        # the end of the calibration, not its start, begins the next period
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.cals.append((time.perf_counter(), calibrate()))

    def _speeds(self) -> list[float]:
        """Running median of calibration durations, one per calibration."""
        durs = [d for _, d in self.cals]
        half = SMOOTH // 2
        return [_median(durs[max(0, i - half):i + half + 1])
                for i in range(len(durs))]

    def _stretches(self, t0: float, t1: float):
        """(program seconds, calibration duration near them) within [t0, t1]."""
        speeds = self._speeds()
        edges = [(s, s + d) for s, d in self.cals]
        # program time runs from the end of one calibration to the next start
        bounds = [(t0, edges[0][0], speeds[0])]
        for i in range(len(edges) - 1):
            bounds.append((edges[i][1], edges[i + 1][0], (speeds[i] + speeds[i + 1]) / 2))
        bounds.append((edges[-1][1], t1, speeds[-1]))
        for a, b, speed in bounds:
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                yield hi - lo, speed

    def raw(self, t0: float, t1: float) -> float:
        return sum(secs for secs, _ in self._stretches(t0, t1))

    def normalized(self, t0: float, t1: float) -> float:
        return sum(rescale(secs, speed, WALL_SHARE) for secs, speed in self._stretches(t0, t1))
