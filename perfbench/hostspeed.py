"""Host-speed reference: a fixed probe interleaved with the operations.

On a shared host the same Python code runs up to a third faster or
slower from one ten-second stretch to the next, and the change hits
interpreted code and NumPy alike (thread CPU time tracks wall time, so
it is host speed, not preemption).  Medians over rounds do not remove a
slow stretch that spans a whole run.  So the benchmark runs a short
fixed probe — interpreted arithmetic plus a NumPy sort, code of its own
that no change to the program touches — about every 50 ms between
operations, and scales each operation's wall time by the probe's speed
around it relative to :data:`REFERENCE_PROBE_S`.  Reported times thus
read as wall time on a host that runs the probe in exactly that long.

The probe measures the host only while nothing else in the process
competes with it for a core.  A program that left a thread busy between
operations (a helper thread, a native pool spinning after a NumPy call)
would slow the probe, and the scaling would report that contention as
faster operations.  So every round also checks that premise
(:func:`other_threads`): one Python thread, and process CPU time not
ahead of the benchmark thread's own by more than
:data:`OTHER_THREADS_MAX`.
"""

from __future__ import annotations

import bisect
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter, process_time, thread_time
from typing import Iterator, List, Sequence

import numpy as np

#: probe duration that defines the reference host speed (seconds); the
#: median probe time on the host the baseline was measured on
REFERENCE_PROBE_S = 7.0e-4
#: wall time between probes while operations run (seconds)
PROBE_EVERY_S = 0.05
#: probes on each side of an operation that set its local speed
WINDOW = 3
#: CPU time the process may spend outside the benchmark thread during a
#: round, as a share of that thread's own CPU time
OTHER_THREADS_MAX = 0.03

_SORT_INPUT = np.random.default_rng(0).random(4096)


def probe() -> float:
    """Run the fixed reference work once; returns its wall time."""
    t0 = perf_counter()
    acc = 0
    for i in range(8000):
        acc += i * i
    np.sort(_SORT_INPUT)
    return perf_counter() - t0


class HostClock:
    """Probe log of one run and the scaling derived from it."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        t = perf_counter()
        self.durations.append(probe())
        self.times.append(t)
        self._last = t

    def tick(self, now: float) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe."""
        if now - self._last >= PROBE_EVERY_S:
            self.probe()

    def burst(self) -> None:
        """Probe a few times back to back (around a set-up, which has no
        probes inside it)."""
        for _ in range(WINDOW):
            self.probe()

    def scale(self, at: float) -> float:
        """Factor turning a wall time measured at ``at`` into reference
        time: reference probe time over the median of the probes nearest
        to ``at``."""
        i = bisect.bisect(self.times, at)
        near = self.durations[max(0, i - WINDOW) : i + WINDOW]
        return REFERENCE_PROBE_S / statistics.median(near)

    def scaled(self, starts: Sequence[float], walls: Sequence[float]) -> List[float]:
        return [w * self.scale(t) for t, w in zip(starts, walls)]


class NotAlone(Exception):
    """Another thread of the process competed with the benchmark thread."""


class Busy:
    """CPU time of a block: the whole process's and this thread's."""

    process_s = 0.0
    thread_s = 0.0

    @property
    def other_share(self) -> float:
        """CPU time spent outside this thread, over this thread's."""
        return (self.process_s - self.thread_s) / self.thread_s if self.thread_s else 0.0


@contextmanager
def other_threads() -> Iterator[Busy]:
    """Measure the block's CPU time, and raise :class:`NotAlone` if
    another Python thread is alive at its end or other threads used more
    than :data:`OTHER_THREADS_MAX` of the benchmark thread's CPU time."""
    busy = Busy()
    p0, t0 = process_time(), thread_time()
    yield busy
    busy.process_s, busy.thread_s = process_time() - p0, thread_time() - t0
    alive = threading.active_count()
    if alive > 1:
        raise NotAlone(
            f"{alive} Python threads alive; host-speed scaling needs the "
            "process to run one thread"
        )
    if busy.other_share > OTHER_THREADS_MAX:
        raise NotAlone(
            f"other threads used {100 * busy.other_share:.1f}% of the benchmark "
            f"thread's CPU time (limit {100 * OTHER_THREADS_MAX:g}%); host-speed "
            "scaling needs the process to run one busy thread"
        )
