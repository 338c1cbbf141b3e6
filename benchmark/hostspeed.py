"""Host-speed calibration for the benchmark's timings.

On a shared host the vCPU runs at different speeds for stretches of
seconds to minutes, so the same operation can take 1.5x longer in one run
than in the next. While measured work runs, an interval timer therefore
interrupts it at a set share of its time to run a fixed reference kernel,
and each measured time is scaled by REF_SECONDS / (mean time of the
reference calls made during it or within WINDOW of it). A reported time
reads as the time the work takes on a host where the reference kernel
takes exactly REF_SECONDS. The reference calls' own time is left out of
the work's time by reading `clock()` instead of the wall clock.

The kernel is plain Python that never touches dpmsim, so no change to the
program moves it. It has two halves: per-event work like the engine's
(frozen dataclasses, `dataclasses.replace`, operator overloads, string
formatting) and table work like the oracle's and the parsers' (slotted
objects, dict inserts, float arithmetic, formatting, a sort). Either half
alone tracked one workload worse: over 10 runs per workload, the spread
of `wall_s` reached 0.115 (`long_horizon`) with the table half alone and
0.13 (`crosscheck`) with the event half alone, and stayed under 0.06 on
every workload with both. It runs with the cyclic garbage collector off,
so that its time does not depend on how large the interrupted work's
heap is.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Nominal time of one reference call; it takes 13-20 ms on the 2-vCPU VM
# the benchmark was built on. A fixed constant, so figures from different
# runs and commits are comparable.
REF_SECONDS = 0.020
# Share of wall time the reference calls take while sampling.
SHARE = 0.25
# Reference calls this close to a measured interval also count for it, so
# that an operation shorter than the gap between calls still gets some.
WINDOW = 0.25
FIRST_GAP = 0.01


@dataclasses.dataclass(frozen=True)
class _Energy:
    nj: float

    def __add__(self, other):
        if not isinstance(other, _Energy):
            return NotImplemented
        return _Energy(self.nj + other.nj)

    def scaled(self, k: float) -> _Energy:
        return dataclasses.replace(self, nj=self.nj * k)

    @property
    def magnitude(self) -> float:
        return abs(self.nj)


@dataclasses.dataclass(frozen=True)
class _Event:
    t_us: int
    kind: str
    energy: _Energy


_KINDS = ("wake", "sense", "send", "sleep")


class _Item:
    __slots__ = ("i", "x", "key")

    def __init__(self, i, x, key):
        self.i = i
        self.x = x
        self.key = key


def _events(rng: random.Random) -> int:
    total = _Energy(0.0)
    lines = []
    for i in range(3000):
        event = _Event(i, _KINDS[i % 4], _Energy(rng.random()).scaled(1.5))
        total = total + event.energy
        if event.energy.magnitude > 0.5:
            lines.append(f"{event.t_us},{event.kind},{event.energy.nj:.6f}")
    return len("\n".join(lines)) + int(total.nj)


def _table(rng: random.Random) -> int:
    table = {}
    acc = 0.0
    for i in range(1000):
        item = _Item(i, rng.random(), str(i))
        table[item.key] = item
        acc += item.x * 1.5 + i % 7
    parts = sorted(f"{k}:{v.x:.6f}" for k, v in table.items() if v.i % 3)
    lines = []
    for i in range(10000):
        a, b = rng.random(), rng.random()
        acc += a * b
        if i % 4 == 0:
            lines.append(f"{i},{a:.9g},{acc:.9g}\n")
    return len("".join(parts)) + len("".join(lines))


def reference() -> int:
    """The reference kernel; deterministic, about REF_SECONDS of work."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(5)
        return _events(rng) + _table(rng)
    finally:
        if gc_was_on:
            gc.enable()


class HostSpeed:
    """Reference calls made on a timer while measured work runs."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each call's start
        self.samples: list[float] = []  # each call's seconds
        self.spent = 0.0
        self._on = False

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference()
        t = perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(t)
        self.spent += t
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, t * (1.0 - SHARE) / SHARE)

    def _arm(self, on: bool) -> None:
        self._on = on
        signal.setitimer(signal.ITIMER_REAL, FIRST_GAP if on else 0)

    @contextmanager
    def sampling(self):
        """Run reference calls on a timer for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm(True)
        try:
            yield self
        finally:
            self._arm(False)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No reference calls inside the block, e.g. around a child process."""
        self._arm(False)
        try:
            yield
        finally:
            self._arm(True)

    def clock(self) -> float:
        """perf_counter minus the reference calls' time so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds` of work done between perf_counter times start and end,
        in reference-speed seconds. Call once sampling has ended."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        near = self.samples[lo:hi] or self.samples
        return seconds * REF_SECONDS / statistics.fmean(near)

    def scale(self) -> float:
        """The factor for this whole stretch of work."""
        return REF_SECONDS / statistics.fmean(self.samples)

    def note(self, label: str) -> str:
        return (f"host speed ({label}): {len(self.samples)} reference calls, "
                f"mean {statistics.fmean(self.samples) * 1e3:.3f} ms against {REF_SECONDS * 1e3:g} ms nominal")
