"""Host-speed probe: a fixed pure-Python snippet timed during every run.

The benchmark's host is a share of a machine whose speed changes by up
to 2x within seconds as other tenants come and go; every timing of the
simulator, set-up included, moves with it.  While a run executes,
:class:`Probe` interrupts it every :data:`INTERVAL_S` of wall time
(``SIGALRM``) and times :func:`probe_ns`, about a millisecond of fixed
work that uses the interpreter the way the simulator does (objects
ordered by a Python ``__lt__`` in a ``heapq``, dict and attribute
access) but none of the simulator's code.  The samples are spread
evenly over the run, so their mean speed is the host's mean speed
while the run executed; ``run.py`` rescales the run's time to
:data:`NOMINAL_NS` with it.  Set-up is too short to interrupt, so
:func:`burst_factor` probes the host right after it instead.  A change
to the simulator moves the rescaled time, a change of host speed moves
the probe too and cancels.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, List, Optional

#: probe time, in nanoseconds, on the host described in NOTES.md in its
#: typical state; rescaled timings read as if the host ran at this speed
NOMINAL_NS = 1_000_000
#: wall seconds between two probes
INTERVAL_S = 0.05
#: heap entries per probe
ITEMS = 320
#: probes timed back to back by :func:`burst_factor`
BURST = 20


class _Item:
    __slots__ = ("time", "seq")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq

    def __lt__(self, other: "_Item") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


def probe_ns() -> int:
    """Host nanoseconds of one fixed probe (deterministic work)."""
    t0 = time.perf_counter_ns()
    heap: List[_Item] = []
    counts = {}
    rng = 12345
    for seq in range(ITEMS):
        rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, _Item((rng % 1000) * 1e-3, seq))
        key = rng & 63
        counts[key] = counts.get(key, 0) + 1
    while heap:
        item = heapq.heappop(heap)
        counts[item.seq & 63] = counts.get(item.seq & 63, 0) - 1
    return time.perf_counter_ns() - t0


def host_factor(samples: List[int]) -> float:
    """Nominal probe speed over the mean speed of ``samples`` (> 1: slower
    host); 1.0 without samples."""
    if not samples:
        return 1.0
    return len(samples) / sum(NOMINAL_NS / ns for ns in samples)


def burst_factor(count: int = BURST) -> float:
    """:func:`host_factor` of ``count`` probes timed back to back now."""
    return host_factor([probe_ns() for _ in range(count)])


class Probe:
    """Times :func:`probe_ns` every :data:`INTERVAL_S` while active.

    Use as a context manager around the timed region; ``samples`` holds
    the probe times in ns, ``total_ns`` their sum (to subtract from the
    region's wall time).
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        self._previous: Optional[Any] = None

    def _fire(self, signum: int, frame: Any) -> None:
        self.samples.append(probe_ns())

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def total_ns(self) -> int:
        return sum(self.samples)
