"""Host speed: a fixed pure-Python computation timed during a pass.

The benchmark shares a few cores of a host whose speed drifts: a pure-Python
loop runs up to 1.5x slower for a minute or more at a time, and each core
drifts on its own. Raw wall times then spread across runs by more than any
useful bound. So a timed pass runs this probe in its own process, on a timer,
a few units every PERIOD_S, and the probe's own time is taken out of every
query's latency. Each latency is then scaled by REF_UNIT_S over the probe's
time per unit while that query and its neighbours, SEGMENT_S of work in all,
ran: times are reported as if the probe's unit took REF_UNIT_S. A change to
phfiber moves the scaled times as it moves the real ones: the probe runs no
phfiber code, and it runs with the garbage collector off, so the size of
phfiber's heap does not change the probe's speed.
"""
from __future__ import annotations

import gc
import random
import signal
import time

# About the median time per probe unit on a shared 2-core x86-64 VM, CPython 3.11.
REF_UNIT_S = 0.0011
PERIOD_S = 0.1
UNITS_PER_TICK = 10
SEGMENT_S = 1.0
SETUP_PROBE_S = 0.1

_rng = random.Random(0)
_COLUMNS = [frozenset(_rng.sample(range(80), 3)) for _ in range(120)]


def _unit() -> int:
    """Reduces a fixed 0/1 matrix over F2 column by column, like a barcode kernel."""
    pivots: dict[int, frozenset] = {}
    for column in _COLUMNS:
        col = set(column)
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = frozenset(col)
                break
            col ^= pivots[low]
    return len(pivots)


def _timed_units(n: int) -> float:
    """Runs n units with the garbage collector off; the seconds they took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            _unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def unit_seconds(seconds: float = SETUP_PROBE_S) -> float:
    """The probe's time per unit, run for about `seconds` after one warm-up unit."""
    _timed_units(1)
    n, elapsed = 0, 0.0
    while elapsed < seconds:
        elapsed += _timed_units(1)
        n += 1
    return elapsed / n


class Probe:
    """Runs the probe on a timer while the pass runs, as a context manager.

    `clock` is a perf_counter that stands still while the probe runs, so a
    query timed with it excludes the probe. `after_query` takes each query's
    time as it ends, and `factors` gives each query its scale factor.
    """

    def __init__(self) -> None:
        self.total = (0, 0.0)  # units run and seconds spent, replaced in one store
        self._busy = False
        self._queries: list[tuple[float, int, float]] = []
        self._mark = self.total

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that falls due while one runs is dropped
            return
        self._busy = True
        try:
            units, spent = self.total
            self.total = (units + UNITS_PER_TICK, spent + _timed_units(UNITS_PER_TICK))
        finally:
            self._busy = False

    def __enter__(self) -> Probe:
        _timed_units(1)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        while True:
            total = self.total
            now = time.perf_counter()
            if total is self.total:  # no tick ran between the two reads
                return now - total[1]

    def after_query(self, seconds: float) -> None:
        total = self.total
        self._queries.append((seconds, total[0] - self._mark[0], total[1] - self._mark[1]))
        self._mark = total

    def factors(self) -> list[float]:
        """One factor per query, REF_UNIT_S over the probe's time per unit in
        the query's segment: consecutive queries of at least SEGMENT_S of work.
        A segment in which no tick ran takes the factor of the segment before
        it, or else of the first one that has ticks.
        """
        segments: list[list[tuple[float, int, float]]] = [[]]
        work = 0.0
        for q in self._queries:
            if work >= SEGMENT_S:
                segments.append([])
                work = 0.0
            segments[-1].append(q)
            work += q[0]
        per_segment = []
        for seg in segments:
            units = sum(q[1] for q in seg)
            spent = sum(q[2] for q in seg)
            per_segment.append(REF_UNIT_S * units / spent if units else None)
        known = [f for f in per_segment if f is not None] or [REF_UNIT_S / unit_seconds()]
        out: list[float] = []
        factor = known[0]
        for seg, f in zip(segments, per_segment):
            factor = factor if f is None else f
            out += [factor] * len(seg)
        return out
