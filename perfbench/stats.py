"""Order statistics and the open-loop queue model of the benchmark.

The serving and solving layers are single-threaded and decide only on
their logical clock, so one measured service time per operation is all
an open-loop figure needs: replaying those times through a FIFO queue
with one server gives the latency a client would see from the moment
its request was due (Lindley's recursion).  ``tests/test_open_loop.py``
checks the model against a real paced replay.
"""

from __future__ import annotations

from typing import List, Sequence

# the nearest-rank rule the program's own load reports use
from repro.experiments.service_load import percentile

__all__ = ["percentile", "fifo_latencies", "due_percentile", "sustained_rate"]


def fifo_latencies(service_s: Sequence[float], rate: float) -> List[float]:
    """Latency from due of each operation offered at a constant ``rate``.

    Operation ``i`` is due at ``i / rate`` seconds; one server takes the
    operations in order, each for its measured service time.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    gap = 1.0 / rate
    free_at = 0.0
    out: List[float] = []
    for i, s in enumerate(service_s):
        due = i * gap
        free_at = max(due, free_at) + s
        out.append(free_at - due)
    return out


def due_percentile(service_s: Sequence[float], rate: float, q: float) -> float:
    """The ``q``-th percentile of :func:`fifo_latencies` (seconds)."""
    return percentile(sorted(fifo_latencies(service_s, rate)), q)


def sustained_rate(service_s: Sequence[float], limit_s: float, q: float) -> float:
    """Highest constant offered rate whose ``q``-th percentile latency from
    due stays within ``limit_s`` while the queue stays stable.

    Stable means the offered load is below the server's capacity (rate
    times mean service time below one), so the backlog does not grow
    with the length of the replay.  Latency from due never decreases as
    the rate rises, so bisection finds the boundary.  Returns 0.0 when
    no rate meets the limit.
    """
    if not service_s:
        raise ValueError("no service times")
    capacity = len(service_s) / sum(service_s)
    lo, hi = 0.0, capacity
    for _ in range(40):  # halves the bracket to 1e-12 of capacity
        mid = (lo + hi) / 2.0
        if mid > 0 and due_percentile(service_s, mid, q) <= limit_s:
            lo = mid
        else:
            hi = mid
    return lo
