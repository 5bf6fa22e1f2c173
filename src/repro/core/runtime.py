"""Online runtime placement: admission control, backpressure, defrag triggers.

The paper measures its utilization win offline, but its whole framing is
*runtime* reconfigurable systems: modules arrive, run for a while and
leave, and the free space shatters (Fekete et al. on dynamic
defragmentation, Ahmadinia et al. on online free-space management).
:class:`RuntimePlacementManager` is the serving loop that drives the
repo's existing parts under such a load:

* **Admission** — each arrival is placed on the residual region through a
  deterministic fallback chain of registered placement backends
  (:mod:`repro.core.backend`): by default a budgeted CP probe (anchor
  masks served from a shared :class:`~repro.fabric.cache.AnchorMaskCache`),
  then the bottom-left greedy rung, then reject.  ``RuntimeConfig.chain``
  overrides the rungs declaratively by backend name.
* **Fragmentation control** — external fragmentation of the live
  floorplan is monitored (:mod:`repro.metrics.fragmentation`); crossing a
  threshold, or any rejection, triggers a :func:`~repro.core.defrag.defragment`
  pass honoring either shape-change policy.
* **Backpressure** — rejected arrivals wait in a bounded pending queue
  with per-request deadlines; the queue is retried after every departure
  and defrag pass, expired or overflowing requests are rejected
  *gracefully* with machine-readable :class:`RejectReason` codes — no
  exception escapes the manager on the serving path.
* **Reservations** — with ``RuntimeConfig.reservation_horizon > 0`` an
  arrival that cannot run *now* is probed against the departures due
  within the horizon and booked at the first tick where its anchor
  masks fit the projected floorplan (:class:`Reservation`); the booked
  cells are promised (subtracted from the residual region) until the
  reservation commits, replans, or expires with
  :attr:`RejectReason.RESERVATION_EXPIRED`.  At ``horizon == 0`` every
  reservation path is dormant and the manager replays bit-identically
  to the pre-reservation code — pinned by the differential tests.
* **Observability** — every lifecycle step emits a structured trace event
  (``runtime.arrival`` / ``runtime.reject`` / ``runtime.defrag`` /
  ``runtime.depart``) and the per-request latency / occupancy counters
  aggregate into a :class:`~repro.obs.profile.SolveProfile` through the
  existing :mod:`repro.obs` layer.

Time model: the manager runs on the *logical* clock carried by the
requests (arrival/lifetime/deadline are simulation time units); solver
budgets (``probe_time_limit``) are wall-clock seconds.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import (
    PlacementRequest,
    available_backends,
    create_backend,
)
from repro.core.defrag import (
    Defragmenter,
    PlannedMove,
    available_defragmenters,
    create_defragmenter,
)
from repro.core.result import Placement, PlacementResult
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import PartialRegion
from repro.metrics.fragmentation import external_fragmentation
from repro.metrics.utilization import region_utilization
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.obs import context as obs_context
from repro.obs.profile import SolveProfile
from repro.obs.trace import (
    RUNTIME_ARRIVAL,
    RUNTIME_DEFRAG,
    RUNTIME_DEFRAG_STEP,
    RUNTIME_DEPART,
    RUNTIME_REJECT,
    RUNTIME_RESERVATION_COMMIT,
    RUNTIME_RESERVATION_EXPIRE,
    RUNTIME_RESERVE,
    Tracer,
)


# ----------------------------------------------------------------------
# Requests and outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuntimeRequest:
    """One module arrival in the online stream."""

    module: Module
    #: logical arrival time
    arrival: int
    #: logical time the module stays placed once admitted
    lifetime: int
    #: latest logical time admission is still useful (None = arrival +
    #: the manager's ``max_queue_wait``)
    deadline: Optional[int] = None
    #: execution ticks for scheduling backends (None = untimed; the
    #: admission path ignores it, ``temporal-cp`` requests honor it)
    duration: Optional[int] = None
    #: name of a module that must finish before this one starts — a
    #: precedence edge for scheduling backends (None = unconstrained)
    after: Optional[str] = None

    def __post_init__(self) -> None:
        if self.lifetime <= 0:
            raise ValueError("request lifetime must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("request duration must be positive")


class RejectReason(str, Enum):
    """Machine-readable rejection codes (the manager never raises)."""

    #: no fallback rung produced a feasible placement
    NO_FIT = "no_fit"
    #: the pending queue was at capacity when the request arrived
    QUEUE_FULL = "queue_full"
    #: the request waited in the queue past its deadline
    DEADLINE = "deadline_expired"
    #: a module with the same name is already placed or pending
    DUPLICATE = "duplicate"
    #: the manager drained while the request still waited — its deadline
    #: had *not* passed; the serving run simply ended (reject-rate
    #: experiments must not conflate this with a real deadline miss)
    DRAINED = "drained"
    #: the request held a reservation whose planned cells never became
    #: usable before the deadline (reservation mode only)
    RESERVATION_EXPIRED = "reservation_expired"

    def __str__(self) -> str:  # "no_fit", not "RejectReason.NO_FIT"
        return self.value


@dataclass
class RequestOutcome:
    """The manager's answer for one request (mutated when a queued
    request is later admitted or expires)."""

    request: RuntimeRequest
    #: "admitted" | "queued" | "reserved" | "rejected"
    status: str = "rejected"
    #: fallback rung that produced the placement ("cp", "greedy",
    #: "cp+defrag", "greedy+defrag"); None when rejected
    method: Optional[str] = None
    reason: Optional[RejectReason] = None
    placement: Optional[Placement] = None
    #: logical time of admission (>= arrival when served from the queue)
    admitted_at: Optional[int] = None
    #: wall-clock seconds spent in admission attempts for this request
    latency_s: float = 0.0
    #: errors swallowed on the probe path (graceful degradation)
    errors: List[str] = field(default_factory=list)

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"


@dataclass
class RuntimeConfig:
    """Knobs of the runtime placement manager."""

    #: admit with the full alternative set (False = primary shape only)
    with_alternatives: bool = True
    #: first fallback rung: "cp" (budgeted CP probe, then greedy) or
    #: "greedy" (skip the CP probe — deterministic and much faster)
    probe: str = "cp"
    #: explicit admission chain as registered backend names (overrides
    #: ``probe``); None = derived from ``probe``: ("cp", "greedy") or
    #: ("greedy",).  Every name must be registered and relocatable.
    chain: Optional[Sequence[str]] = None
    #: wall-clock budget of one CP probe (seconds)
    probe_time_limit: float = 0.25
    #: bounded pending queue (0 = reject immediately, no queueing)
    queue_capacity: int = 8
    #: default per-request deadline: arrival + this many logical ticks
    max_queue_wait: int = 16
    #: reservation lookahead in logical ticks: when an arrival cannot be
    #: admitted now, probe the departures due within this horizon and
    #: book the request at the first tick where it fits (0 = disabled —
    #: the manager behaves bit-identically to the pre-reservation code)
    reservation_horizon: int = 0
    #: bound on simultaneously outstanding reservations
    reservation_capacity: int = 8
    #: trigger a defrag pass when external fragmentation exceeds this
    frag_threshold: float = 0.6
    #: also defrag (once) when an arrival cannot be placed
    defrag_on_reject: bool = True
    #: may defrag pick a different design alternative? (the paper's
    #: stateful-module assumption says no; True is valid for
    #: stateless/restartable modules)
    allow_shape_change: bool = False
    #: hard cap on relocations per defrag pass (None = internal guard)
    defrag_max_moves: Optional[int] = None
    #: minimum logical ticks between fragmentation-triggered passes
    defrag_cooldown: int = 4
    #: registered defragmentation strategy: "greedy-compaction" applies
    #: the whole pass atomically (the historical teleporting behavior,
    #: kept as the oracle); "no-break" plans move sequences that respect
    #: running modules and executes them on the logical clock
    defragmenter: str = "greedy-compaction"
    #: reconfiguration frames rewritten per logical tick — a planned
    #: move's window lasts ceil(frames / this) ticks, during which the
    #: mover occupies both source and target
    defrag_frames_per_tick: int = 8
    #: verify the live floorplan (including in-flight move windows) at
    #: every move transition — O(cells) per check, for tests/experiments
    verify_moves: bool = False
    #: structured event sink for runtime.* events (None = off)
    tracer: Optional[Tracer] = None
    #: anchor-mask cache shared by all CP probes (None = new cache)
    cache: Optional[AnchorMaskCache] = None
    #: sample (clock, occupancy, utilization, fragmentation) into the log
    #: timeline after every request — the fragmentation metric is a pure
    #: Python maximal-rectangles pass, so high-throughput serving loops
    #: (the sharded service) switch it off
    sample_timeline: bool = True

    def effective_chain(self) -> Tuple[str, ...]:
        """The admission rungs as registered backend names."""
        if self.chain is not None:
            return tuple(self.chain)
        return ("cp", "greedy") if self.probe == "cp" else ("greedy",)

    def validate(self) -> None:
        if self.probe not in ("cp", "greedy"):
            raise ValueError(f"unknown probe {self.probe!r}")
        chain = self.effective_chain()
        if not chain:
            raise ValueError("admission chain must name at least one backend")
        registered = set(available_backends())
        for name in chain:
            if name not in registered:
                raise ValueError(
                    f"unknown backend {name!r} in admission chain; "
                    f"registered: {', '.join(sorted(registered))}"
                )
            if not create_backend(name).capabilities.relocatable:
                raise ValueError(
                    f"backend {name!r} is not relocatable and cannot serve "
                    f"the runtime admission chain"
                )
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if self.max_queue_wait < 0:
            raise ValueError("max_queue_wait must be >= 0")
        if self.reservation_horizon < 0:
            raise ValueError("reservation_horizon must be >= 0")
        if self.reservation_capacity < 0:
            raise ValueError("reservation_capacity must be >= 0")
        if not 0.0 <= self.frag_threshold <= 1.0:
            raise ValueError("frag_threshold must be within [0, 1]")
        if self.defragmenter not in available_defragmenters():
            raise ValueError(
                f"unknown defragmenter {self.defragmenter!r}; registered: "
                f"{', '.join(available_defragmenters())}"
            )
        if self.defrag_frames_per_tick < 1:
            raise ValueError("defrag_frames_per_tick must be >= 1")


@dataclass
class RuntimeStats:
    """Aggregate counters of one manager lifetime."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    departures: int = 0
    defrags: int = 0
    defrag_moves: int = 0
    #: no-break accounting: moves a plan scheduled, moves that actually
    #: completed on the clock, moves cancelled (stale after an arrival,
    #: or their mover departed mid-window).  Instant passes count every
    #: move as planned+executed.
    defrag_planned_moves: int = 0
    defrag_executed_moves: int = 0
    defrag_aborted_moves: int = 0
    #: wall-clock seconds spent planning/applying defrag passes — kept
    #: out of per-request ``latency_s`` (a reject-triggered pass is
    #: floorplan maintenance, not the triggering request's work; charging
    #: it there skewed the p99 admission-latency gate)
    defrag_time_s: float = 0.0
    probe_errors: int = 0
    queued_admits: int = 0
    #: reservation accounting: bookings made, bookings that committed
    #: (directly or replanned), bookings that expired past their deadline
    reservations_booked: int = 0
    reservation_admits: int = 0
    reservations_expired: int = 0
    rejected_by_reason: Dict[str, int] = field(default_factory=dict)
    admits_by_method: Dict[str, int] = field(default_factory=dict)
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    peak_occupied_cells: int = 0

    @property
    def rejection_ratio(self) -> float:
        total = self.admitted + self.rejected
        return self.rejected / total if total else 0.0

    @property
    def mean_latency_s(self) -> float:
        total = self.admitted + self.rejected
        return self.total_latency_s / total if total else 0.0

    def count_reject(self, reason: RejectReason) -> None:
        self.rejected += 1
        key = str(reason)
        self.rejected_by_reason[key] = self.rejected_by_reason.get(key, 0) + 1

    def count_admit(self, method: str, queued: bool) -> None:
        self.admitted += 1
        self.admits_by_method[method] = self.admits_by_method.get(method, 0) + 1
        if queued:
            self.queued_admits += 1

    def __add__(self, other: "RuntimeStats") -> "RuntimeStats":
        """Merge shard-local stats into one service-level record: every
        counter adds (dict counters key by key) except ``max_latency_s``,
        which takes the max."""
        merged = {}
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name == "max_latency_s":
                merged[f.name] = max(a, b)
            elif isinstance(a, dict):
                merged[f.name] = {
                    key: a.get(key, 0) + b.get(key, 0) for key in {**a, **b}
                }
            else:
                merged[f.name] = a + b
        return RuntimeStats(**merged)

    def profile_meta(self) -> Dict[str, object]:
        """The ``runtime.*`` entries of a :class:`SolveProfile` ``meta``."""
        return {
            "runtime.arrivals": self.arrivals,
            "runtime.admitted": self.admitted,
            "runtime.rejected": self.rejected,
            "runtime.departures": self.departures,
            "runtime.defrags": self.defrags,
            "runtime.defrag_moves": self.defrag_moves,
            "runtime.defrag_planned": self.defrag_planned_moves,
            "runtime.defrag_executed": self.defrag_executed_moves,
            "runtime.defrag_aborted": self.defrag_aborted_moves,
            "runtime.defrag_time_s": round(self.defrag_time_s, 6),
            "runtime.probe_errors": self.probe_errors,
            "runtime.queued_admits": self.queued_admits,
            "runtime.reservations_booked": self.reservations_booked,
            "runtime.reservation_admits": self.reservation_admits,
            "runtime.reservations_expired": self.reservations_expired,
            "runtime.mean_latency_s": round(self.mean_latency_s, 6),
            "runtime.max_latency_s": round(self.max_latency_s, 6),
            "runtime.peak_occupied_cells": self.peak_occupied_cells,
        }


@dataclass
class RuntimeLog:
    """Everything :meth:`RuntimePlacementManager.run` observed."""

    outcomes: List[RequestOutcome]
    stats: RuntimeStats
    #: (clock, occupied_cells, region_utilization, external_fragmentation)
    #: sampled after every processed event
    timeline: List[Tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.stats.admitted

    @property
    def rejected(self) -> int:
        return self.stats.rejected

    def mean_utilization(self) -> float:
        """Time-weighted mean region utilization over the run."""
        if len(self.timeline) < 2:
            return self.timeline[0][2] if self.timeline else 0.0
        area = 0.0
        span = 0
        for (t0, _, u0, _), (t1, _, _, _) in zip(
            self.timeline, self.timeline[1:]
        ):
            area += u0 * (t1 - t0)
            span += t1 - t0
        return area / span if span else self.timeline[-1][2]


@dataclass
class _Pending:
    """A queued request plus its mutable outcome."""

    request: RuntimeRequest
    outcome: RequestOutcome
    deadline: int


@dataclass
class Reservation:
    """Capacity booked ahead of time for a request that cannot run *now*.

    A reservation pins a concrete planned placement to a future start
    tick (a departure the admission probe identified inside the
    reservation horizon).  When the clock reaches ``start`` the manager
    commits the planned placement if its cells are actually free,
    replans on the then-current floorplan if they are not, and expires
    the reservation honestly (:attr:`RejectReason.RESERVATION_EXPIRED`)
    once ``deadline`` passes without either succeeding.
    """

    request: RuntimeRequest
    outcome: RequestOutcome
    #: the planned placement (cells to hold free until ``start``)
    placement: Placement
    #: logical tick the reservation becomes due
    start: int
    #: latest logical tick a commit is still useful
    deadline: int
    #: logical tick the reservation was booked (== arrival clock)
    booked_at: int


@dataclass
class _ActiveMove:
    """A no-break move in flight: its window ends at logical ``ends``."""

    move: PlannedMove
    ends: int


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class RuntimePlacementManager:
    """Serves an online arrival/departure stream against a live fabric."""

    def __init__(
        self,
        region: PartialRegion,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.region = region
        self.config = config or RuntimeConfig()
        self.config.validate()
        self.clock = 0
        self.stats = RuntimeStats()
        self.outcomes: List[RequestOutcome] = []
        self._placements: Dict[str, Placement] = {}
        self._departures: List[Tuple[int, str]] = []  # heap
        self._pending: Deque[_Pending] = deque()
        #: outstanding reservations, kept sorted by start tick
        self._reservations: List[Reservation] = []
        self._last_defrag_clock: Optional[int] = None
        #: live occupancy, maintained incrementally on commit/depart/defrag
        #: (rebuilding it per probe was a per-request Python loop over
        #: every live cell — measurable at service throughput)
        self._occupancy = np.zeros(
            (region.height, region.width), dtype=bool
        )
        #: monotone stamp of the plannable floorplan (live occupancy and
        #: outstanding reservations); bumped on every mutation so the
        #: fragmentation memo invalidates without grid comparisons
        self._occupancy_rev = 0
        #: memoized fragmentation per view: "live"/"planning" -> (rev, value)
        self._frag_cache: Dict[str, Tuple[int, float]] = {}
        cfg = self.config
        #: one shared anchor-mask cache across every probe of every rung
        # explicit None test: AnchorMaskCache has __len__, so an *empty*
        # shared cache is falsy — `or` would silently un-share it
        self._cache = cfg.cache if cfg.cache is not None else AnchorMaskCache()
        #: the registered defragmentation strategy (planner)
        self._defragmenter: Defragmenter = create_defragmenter(
            cfg.defragmenter
        )
        #: no-break plan execution state: moves waiting their turn, and
        #: the single move currently holding its window on the fabric
        self._move_queue: Deque[PlannedMove] = deque()
        self._active_move: Optional[_ActiveMove] = None
        #: the admission rungs, instantiated once per manager
        self._chain = [
            (name, create_backend(name)) for name in cfg.effective_chain()
        ]
        tracer = cfg.tracer
        self._tracer = tracer if tracer is not None and tracer.enabled else None

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------
    @property
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def reservations(self) -> List[Reservation]:
        """Outstanding reservations (sorted by start tick)."""
        return list(self._reservations)

    @property
    def moves_in_flight(self) -> int:
        """Planned moves not yet completed (active + queued)."""
        return (self._active_move is not None) + len(self._move_queue)

    def result(self) -> PlacementResult:
        return PlacementResult(self.region, self.placements)

    def occupancy_mask(self) -> np.ndarray:
        return self._occupancy.copy()

    def residual_region(self) -> PartialRegion:
        free = self.region.reconfigurable & ~self._occupancy
        if self._reservations:
            # booked cells are promised to their reservations: admitting
            # a new module onto them would force a replan at commit time
            free = free & ~self._reserved_mask()
        return PartialRegion(
            self.region.grid, free, f"{self.region.name}-residual"
        )

    def _reserved_mask(
        self, exclude: Optional[Reservation] = None
    ) -> np.ndarray:
        """Cells promised to outstanding reservations (H, W bool)."""
        mask = np.zeros_like(self._occupancy)
        for r in self._reservations:
            if r is exclude:
                continue
            for x, y, _ in r.placement.absolute_cells():
                mask[y, x] = True
        return mask

    def _residual_excluding(self, reservation: Reservation) -> PartialRegion:
        """Residual region for replanning one reservation: its own booked
        cells are fair game, the other reservations' cells stay promised."""
        free = self.region.reconfigurable & ~self._occupancy
        if len(self._reservations) > 1:
            free = free & ~self._reserved_mask(exclude=reservation)
        return PartialRegion(
            self.region.grid, free, f"{self.region.name}-residual"
        )

    # -- occupancy maintenance -----------------------------------------
    @staticmethod
    def _imprint_into(occ: np.ndarray, placement: Placement) -> None:
        """Mark one placement's cells in an arbitrary occupancy array
        (the reservation probe projects onto scratch floorplans)."""
        cells = placement.absolute_cells()
        xs = np.fromiter((c[0] for c in cells), dtype=np.int64, count=len(cells))
        ys = np.fromiter((c[1] for c in cells), dtype=np.int64, count=len(cells))
        occ[ys, xs] = True

    def _imprint(self, placement: Placement, value: bool) -> None:
        cells = placement.absolute_cells()
        xs = np.fromiter((c[0] for c in cells), dtype=np.int64, count=len(cells))
        ys = np.fromiter((c[1] for c in cells), dtype=np.int64, count=len(cells))
        self._occupancy[ys, xs] = value
        self._occupancy_rev += 1

    def _rebuild_occupancy(self) -> None:
        self._occupancy[:] = False
        self._occupancy_rev += 1
        for p in self._placements.values():
            self._imprint(p, True)

    def fragmentation(self) -> float:
        """External fragmentation of the live floorplan, memoized on the
        occupancy revision: the least-fragmented router probes it once
        per candidate shard per request, and the KAMER staircase behind
        the metric is pure Python — recomputing it on an unchanged
        floorplan was the serving hot path's dominant cost."""
        cached = self._frag_cache.get("live")
        if cached is not None and cached[0] == self._occupancy_rev:
            return cached[1]
        value = external_fragmentation(self.result())
        self._frag_cache["live"] = (self._occupancy_rev, value)
        return value

    def planning_fragmentation(self) -> float:
        """External fragmentation of the *plannable* floorplan: live
        placements plus the cells promised to outstanding reservations.
        This is the free-space picture an admission router should rank
        by — booked cells shatter usable space exactly like placed ones.
        Equals :meth:`fragmentation` when no reservations are
        outstanding.  Memoized like :meth:`fragmentation` (reservation
        churn bumps the same revision stamp)."""
        if not self._reservations:
            return self.fragmentation()
        cached = self._frag_cache.get("planning")
        if cached is not None and cached[0] == self._occupancy_rev:
            return cached[1]
        placements = self.placements + [
            r.placement for r in self._reservations
        ]
        value = external_fragmentation(
            PlacementResult(self.region, placements)
        )
        self._frag_cache["planning"] = (self._occupancy_rev, value)
        return value

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def submit(self, request: RuntimeRequest) -> RequestOutcome:
        """Process one arrival (advancing the logical clock first)."""
        self.advance_to(request.arrival)
        self.stats.arrivals += 1
        self._emit(
            RUNTIME_ARRIVAL,
            module=request.module.name,
            clock=self.clock,
            queue=len(self._pending),
        )
        outcome = RequestOutcome(request)
        self.outcomes.append(outcome)
        if self._is_duplicate(request.module.name):
            self._reject(outcome, RejectReason.DUPLICATE)
            return outcome
        if self._try_admit(request, outcome, allow_defrag=True):
            return outcome
        self._queue_or_reject(request, outcome)
        return outcome

    def offer(self, request: RuntimeRequest) -> Optional[RequestOutcome]:
        """Spill probe (service hook): admit *now* or decline untraced.

        Advances the clock and attempts the full admission chain, but —
        unlike :meth:`submit` — a failure records nothing: no arrival, no
        queueing, no rejection.  The sharded service probes spill-over
        shards through this, so a declined probe does not distort the
        shard's log.  On success the admitted outcome is recorded exactly
        as a submitted arrival would be.
        """
        self.advance_to(request.arrival)
        if self._is_duplicate(request.module.name):
            return None
        outcome = RequestOutcome(request)
        if not self._try_admit(request, outcome, allow_defrag=True):
            return None
        self.stats.arrivals += 1
        self._emit(
            RUNTIME_ARRIVAL,
            module=request.module.name,
            clock=self.clock,
            queue=len(self._pending),
        )
        self.outcomes.append(outcome)
        return outcome

    def park(self, request: RuntimeRequest) -> RequestOutcome:
        """Record an arrival that failed its spill probes (service hook).

        The request already failed :meth:`offer` on every candidate shard
        — including this one — so the admission chain is *not* re-run;
        the request goes straight under the backpressure rules (queue,
        or reject honestly).
        """
        self.stats.arrivals += 1
        self._emit(
            RUNTIME_ARRIVAL,
            module=request.module.name,
            clock=self.clock,
            queue=len(self._pending),
        )
        outcome = RequestOutcome(request)
        self.outcomes.append(outcome)
        if self._is_duplicate(request.module.name):
            self._reject(outcome, RejectReason.DUPLICATE)
            return outcome
        self._queue_or_reject(request, outcome)
        return outcome

    def _queue_or_reject(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> None:
        """No rung fit right now: reserve ahead if the horizon allows,
        else queue under the backpressure rules."""
        if self.config.reservation_horizon > 0 and self._try_reserve(
            request, outcome
        ):
            return
        if self.config.queue_capacity == 0:
            # queueing disabled: the honest reason is the failed placement
            self._reject(outcome, RejectReason.NO_FIT)
            return
        if self.config.queue_capacity <= len(self._pending):
            self._reject(outcome, RejectReason.QUEUE_FULL)
            return
        deadline = (
            request.deadline
            if request.deadline is not None
            else request.arrival + self.config.max_queue_wait
        )
        if deadline <= self.clock:
            self._reject(outcome, RejectReason.DEADLINE)
            return
        outcome.status = "queued"
        self._pending.append(_Pending(request, outcome, deadline))

    def depart(self, name: str) -> Optional[Placement]:
        """Explicitly remove a placed module (None if unknown)."""
        placement = self._placements.pop(name, None)
        if placement is not None:
            self._remove_cells(name, placement)
            self.stats.departures += 1
            self._emit(RUNTIME_DEPART, module=name, clock=self.clock)
            self._after_space_freed()
        return placement

    def next_departure(self) -> Optional[int]:
        """Logical time of the next scheduled event — a departure or a
        reservation becoming due (external-clock drivers — the sharded
        service — step shards through this)."""
        times = []
        if self._departures:
            times.append(self._departures[0][0])
        if self._reservations:
            times.append(min(r.start for r in self._reservations))
        return min(times) if times else None

    def advance_to(self, t: int) -> None:
        """Advance the logical clock: move completions, departures and
        due reservations in time order (a completion due at the same
        tick lands first, so the freed source cells are visible to that
        tick's departures' retry pass; a departure lands before a
        same-tick reservation so the booked cells are actually free at
        commit), then queue upkeep."""
        if t < self.clock:
            raise ValueError(
                f"clock may not go backwards ({t} < {self.clock})"
            )
        # a due reservation that fails to commit (and has not expired)
        # stays booked — attempt each at most once per advance, or the
        # event loop would spin on it
        attempted: set = set()
        while True:
            dep = self._departures[0][0] if self._departures else None
            active = self._active_move
            fin = active.ends if active is not None else None
            resv = min(
                (
                    r.start
                    for r in self._reservations
                    if id(r) not in attempted
                ),
                default=None,
            )
            if (
                fin is not None
                and fin <= t
                and (dep is None or fin <= dep)
                and (resv is None or fin <= resv)
            ):
                self.clock = max(self.clock, fin)
                self._complete_active_move()
                continue
            if dep is not None and dep <= t and (resv is None or dep <= resv):
                due, name = heapq.heappop(self._departures)
                self.clock = max(self.clock, due)
                placement = self._placements.pop(name, None)
                if placement is not None:
                    self._remove_cells(name, placement)
                    self.stats.departures += 1
                    self._emit(RUNTIME_DEPART, module=name, clock=self.clock)
                    self._expire_pending()
                    self._after_space_freed()
                continue
            if resv is not None and resv <= t:
                self.clock = max(self.clock, resv)
                for r in self._reservations:
                    if r.start <= self.clock:
                        attempted.add(id(r))
                self._commit_due_reservations()
                continue
            break
        self.clock = max(self.clock, t)
        self._expire_pending()
        if self._reservations:
            self._commit_due_reservations()
        self._maybe_defrag(trigger="fragmentation")

    def drain(self) -> None:
        """Play out every scheduled departure and settle the queue."""
        if self._departures:
            self.advance_to(max(t for t, _ in self._departures))
        # finish (or abort) any no-break plan still executing so the
        # final floorplan reflects every move that could complete
        while self._active_move is not None:
            self.advance_to(self._active_move.ends)
        # settle every outstanding reservation: step to each remaining
        # start (commits add new departures — re-drain those), then to
        # the deadlines so blocked bookings expire honestly rather than
        # dangle.  Terminates: every step removes at least the earliest
        # due reservation (commit or expiry) or strictly advances the
        # clock toward one.
        while self._reservations:
            future = [
                r.start for r in self._reservations if r.start > self.clock
            ]
            if future:
                self.advance_to(min(future))
            else:
                self.advance_to(
                    min(
                        max(r.deadline, self.clock)
                        for r in self._reservations
                    )
                )
            if self._departures:
                self.advance_to(max(t for t, _ in self._departures))
            while self._active_move is not None:
                self.advance_to(self._active_move.ends)
        # whatever is still pending can never be admitted: its module
        # didn't fit an otherwise empty(er) fabric.  Label honestly —
        # only requests whose deadline actually passed are deadline
        # rejections; the rest were cut off by the drain itself.
        while self._pending:
            item = self._pending.popleft()
            reason = (
                RejectReason.DEADLINE
                if item.deadline <= self.clock
                else RejectReason.DRAINED
            )
            self._reject(item.outcome, reason)

    def run(self, trace: Sequence[RuntimeRequest]) -> RuntimeLog:
        """Consume a whole trace, then drain; returns the full log."""
        sample = self.config.sample_timeline
        log = RuntimeLog(outcomes=self.outcomes, stats=self.stats)
        for request in sorted(trace, key=lambda r: r.arrival):
            self.submit(request)
            if sample:
                log.timeline.append(self._sample())
        self.drain()
        if sample:
            log.timeline.append(self._sample())
        self._record_profile()
        return log

    # ------------------------------------------------------------------
    # Admission (the fallback chain)
    # ------------------------------------------------------------------
    def _try_admit(
        self,
        request: RuntimeRequest,
        outcome: RequestOutcome,
        allow_defrag: bool,
        queued: bool = False,
    ) -> bool:
        cfg = self.config
        module = (
            request.module
            if cfg.with_alternatives
            else request.module.restricted(1)
        )
        start = time.monotonic()
        defrag_before = self.stats.defrag_time_s
        placement, method = self._place_once(module, outcome)
        if placement is None and allow_defrag and self._defrag(
            trigger="reject"
        ):
            placement, method = self._place_once(module, outcome)
            method = f"{method}+defrag" if placement is not None else method
        # a reject-triggered defrag pass is floorplan maintenance, not
        # this request's work: charge it to stats.defrag_time_s (already
        # accumulated inside _defrag), not to the request's latency —
        # the old accounting skewed the p99 admission-latency gate
        elapsed = time.monotonic() - start
        outcome.latency_s += max(
            0.0, elapsed - (self.stats.defrag_time_s - defrag_before)
        )
        if placement is None:
            return False
        self._commit(request, outcome, placement, method, queued)
        return True

    def _place_once(
        self,
        module: Module,
        outcome: RequestOutcome,
        region: Optional[PartialRegion] = None,
    ) -> Tuple[Optional[Placement], str]:
        """One sweep down the fallback chain; exceptions degrade a rung.

        ``region`` overrides the residual region (reservation replanning
        carves its own residual that keeps sibling bookings protected).
        """
        cfg = self.config
        if region is None:
            region = self.residual_region()
        for name, backend in self._chain:
            try:
                request = PlacementRequest(
                    region=region,
                    modules=[module],
                    time_limit=cfg.probe_time_limit,
                    first_solution_only=True,
                    cache=self._cache,
                    tracer=self._tracer,
                )
                res = backend.place(request)
                if res.placements:
                    return res.placements[0], name
            except Exception as exc:  # graceful: fall through to next rung
                self.stats.probe_errors += 1
                outcome.errors.append(f"{name}: {exc}")
        return None, "none"

    def _commit(
        self,
        request: RuntimeRequest,
        outcome: RequestOutcome,
        placement: Placement,
        method: str,
        queued: bool,
    ) -> None:
        self._placements[placement.module.name] = placement
        self._imprint(placement, True)
        heapq.heappush(
            self._departures,
            (self.clock + request.lifetime, placement.module.name),
        )
        outcome.status = "admitted"
        outcome.method = method
        outcome.placement = placement
        outcome.admitted_at = self.clock
        self.stats.count_admit(method, queued)
        self.stats.total_latency_s += outcome.latency_s
        self.stats.max_latency_s = max(
            self.stats.max_latency_s, outcome.latency_s
        )
        occupied = sum(
            p.footprint.area for p in self._placements.values()
        )
        self.stats.peak_occupied_cells = max(
            self.stats.peak_occupied_cells, occupied
        )

    def _reject(self, outcome: RequestOutcome, reason: RejectReason) -> None:
        outcome.status = "rejected"
        outcome.reason = reason
        self.stats.count_reject(reason)
        self._emit(
            RUNTIME_REJECT,
            module=outcome.request.module.name,
            clock=self.clock,
            reason=str(reason),
        )

    def _is_duplicate(self, name: str) -> bool:
        return (
            name in self._placements
            or any(
                item.request.module.name == name for item in self._pending
            )
            or any(
                r.request.module.name == name for r in self._reservations
            )
        )

    # ------------------------------------------------------------------
    # Reservations (horizon-bounded book-ahead admission)
    # ------------------------------------------------------------------
    def _try_reserve(
        self, request: RuntimeRequest, outcome: RequestOutcome
    ) -> bool:
        """Book the request at a future departure tick inside the horizon.

        The probe walks the departure ticks due within
        ``reservation_horizon`` in time order; at each candidate tick it
        projects the floorplan forward (modules still resident then, an
        in-flight move window, sibling reservations whose run window
        overlaps the request's) and gathers the request's static anchor
        masks over that projection — the same vectorized check the
        greedy baselines use.  The first tick with a feasible anchor
        books a concrete planned placement at its bottom-left-most
        anchor.
        """
        cfg = self.config
        if len(self._reservations) >= cfg.reservation_capacity:
            return False
        module = (
            request.module
            if cfg.with_alternatives
            else request.module.restricted(1)
        )
        deadline = (
            request.deadline
            if request.deadline is not None
            else request.arrival + cfg.max_queue_wait
        )
        # earliest scheduled departure per live module (the heap may hold
        # stale entries for explicitly departed names)
        dep_of: Dict[str, int] = {}
        for due, name in self._departures:
            if name in self._placements:
                prev = dep_of.get(name)
                dep_of[name] = due if prev is None else min(prev, due)
        ticks = sorted(
            {
                due
                for due in dep_of.values()
                if self.clock < due <= self.clock + cfg.reservation_horizon
                and due <= deadline
            }
        )
        if not ticks:
            return False
        cache = self._cache
        key = cache.region_key(self.region)
        shapes = [
            (
                si,
                cache.anchor_mask(self.region, fp, region_key=key),
                np.array(
                    [(dy, dx) for dx, dy, _ in sorted(fp.cells)],
                    dtype=np.int64,
                ),
            )
            for si, fp in enumerate(module.shapes)
        ]
        for start in ticks:
            future = self._projected_occupancy(
                start, request.lifetime, dep_of
            )
            best: Optional[Tuple[int, int, int]] = None
            for si, static, off in shapes:
                ys, xs = np.nonzero(static)
                if ys.size == 0:
                    continue
                cy = ys[:, None] + off[None, :, 0]
                cx = xs[:, None] + off[None, :, 1]
                free = ~future[cy, cx].any(axis=1)
                if not free.any():
                    continue
                fy, fx = ys[free], xs[free]
                i = np.lexsort((fy, fx))[0]  # bottom-left: min (x, y)
                cand = (int(fx[i]), int(fy[i]), si)
                if best is None or cand < best:
                    best = cand
            if best is None:
                continue
            x, y, si = best
            reservation = Reservation(
                request=request,
                outcome=outcome,
                placement=Placement(module, si, x, y),
                start=start,
                deadline=deadline,
                booked_at=self.clock,
            )
            self._reservations.append(reservation)
            self._reservations.sort(key=lambda r: r.start)
            self._occupancy_rev += 1  # booked cells change the planning view
            outcome.status = "reserved"
            self.stats.reservations_booked += 1
            self._emit(
                RUNTIME_RESERVE,
                module=request.module.name,
                clock=self.clock,
                start=start,
            )
            return True
        return False

    def _projected_occupancy(
        self, tick: int, lifetime: int, dep_of: Dict[str, int]
    ) -> np.ndarray:
        """The floorplan projected to ``tick``: modules still resident
        then (a module with no scheduled departure counts as resident
        forever), an in-flight move window, and sibling reservations
        whose run window overlaps ``[tick, tick + lifetime)``."""
        occ = np.zeros_like(self._occupancy)
        for name, placement in self._placements.items():
            due = dep_of.get(name)
            if due is None or due > tick:
                self._imprint_into(occ, placement)
        active = self._active_move
        if active is not None:
            for x, y in active.move.window_cells:
                occ[y, x] = True
        end = tick + lifetime
        for r in self._reservations:
            if r.start < end and tick < r.start + r.request.lifetime:
                self._imprint_into(occ, r.placement)
        return occ

    def _commit_due_reservations(self) -> None:
        """Land every due reservation (``start <= clock``): commit the
        planned placement when its cells are free, replan on the live
        floorplan when they are not, expire past the deadline."""
        for r in list(self._reservations):
            if r.start > self.clock:
                break  # sorted by start
            if self._commit_reservation(r):
                self._reservations.remove(r)
                self._occupancy_rev += 1
            elif r.deadline <= self.clock:
                self._reservations.remove(r)
                self._occupancy_rev += 1
                self.stats.reservations_expired += 1
                self._emit(
                    RUNTIME_RESERVATION_EXPIRE,
                    module=r.request.module.name,
                    clock=self.clock,
                    deadline=r.deadline,
                )
                self._reject(r.outcome, RejectReason.RESERVATION_EXPIRED)

    def _commit_reservation(self, r: Reservation) -> bool:
        """One commit attempt; True when the request landed (either on
        its planned cells or replanned on the current floorplan)."""
        cells = r.placement.absolute_cells()
        if not any(self._occupancy[y, x] for x, y, _ in cells):
            self._commit(
                r.request, r.outcome, r.placement, "reservation", queued=False
            )
            self.stats.reservation_admits += 1
            self._emit(
                RUNTIME_RESERVATION_COMMIT,
                module=r.request.module.name,
                clock=self.clock,
                start=r.start,
            )
            return True
        # the planned cells were claimed since booking (a defrag window,
        # an instant pass teleporting a module onto them): replan on the
        # live floorplan with the sibling bookings still protected
        module = (
            r.request.module
            if self.config.with_alternatives
            else r.request.module.restricted(1)
        )
        placement, method = self._place_once(
            module, r.outcome, region=self._residual_excluding(r)
        )
        if placement is None:
            return False
        self._commit(
            r.request,
            r.outcome,
            placement,
            f"reservation+{method}",
            queued=False,
        )
        self.stats.reservation_admits += 1
        self._emit(
            RUNTIME_RESERVATION_COMMIT,
            module=r.request.module.name,
            clock=self.clock,
            start=r.start,
        )
        return True

    # ------------------------------------------------------------------
    # Queue upkeep and defragmentation
    # ------------------------------------------------------------------
    def _expire_pending(self) -> None:
        kept: Deque[_Pending] = deque()
        while self._pending:
            item = self._pending.popleft()
            if item.deadline <= self.clock:
                self._reject(item.outcome, RejectReason.DEADLINE)
            else:
                kept.append(item)
        self._pending = kept

    def _retry_pending(self) -> None:
        """FIFO retry of queued requests against the current floorplan."""
        remaining: Deque[_Pending] = deque()
        while self._pending:
            item = self._pending.popleft()
            if item.deadline <= self.clock:
                self._reject(item.outcome, RejectReason.DEADLINE)
                continue
            if not self._try_admit(
                item.request, item.outcome, allow_defrag=False, queued=True
            ):
                remaining.append(item)
        self._pending = remaining

    def _after_space_freed(self) -> None:
        # due reservations hold seniority over the pending queue: they
        # were booked against exactly this kind of departure
        if self._reservations:
            self._commit_due_reservations()
        self._retry_pending()
        self._maybe_defrag(trigger="fragmentation")

    def _maybe_defrag(self, trigger: str) -> None:
        cfg = self.config
        if self._active_move is not None or self._move_queue:
            return
        if len(self._placements) < 2:
            return
        if (
            self._last_defrag_clock is not None
            and self.clock - self._last_defrag_clock < cfg.defrag_cooldown
        ):
            return
        # a threshold of 1.0 can never be exceeded (external fragmentation
        # is a ratio in [0, 1]) — skip the metric, a pure-Python
        # maximal-rectangles pass that would otherwise run per event
        if cfg.frag_threshold >= 1.0:
            return
        if self.fragmentation() <= cfg.frag_threshold:
            return
        self._defrag(trigger=trigger)

    def _defrag(self, trigger: str) -> bool:
        """One defrag pass over the live floorplan; True if it moved.

        Every pass that actually moved modules retries the pending queue:
        compaction frees usable space exactly like a departure does.
        Without this, a reject-triggered pass inside :meth:`submit` left
        queued requests starving until the next departure even when they
        fit the compacted floorplan (the retry lived only on the
        departure path) — the regression is pinned in the tests.
        """
        cfg = self.config
        if trigger == "reject" and not cfg.defrag_on_reject:
            return False
        if not self._placements:
            return False
        if self._active_move is not None or self._move_queue:
            # one plan at a time: replanning mid-execution would move
            # modules whose recorded positions are about to change
            return False
        t0 = time.monotonic()
        try:
            plan = self._defragmenter.plan(
                self.result(),
                allow_shape_change=cfg.allow_shape_change,
                max_moves=cfg.defrag_max_moves,
                cache=self._cache,
            )
            self._last_defrag_clock = self.clock
            if not plan.moves:
                return False
            self.stats.defrags += 1
            self.stats.defrag_planned_moves += len(plan.moves)
            self._emit(
                RUNTIME_DEFRAG,
                clock=self.clock,
                trigger=trigger,
                moves=len(plan.moves),
                extent_before=plan.initial_extent,
                extent_after=plan.final_extent,
            )
            if plan.instant:
                self._placements = {
                    p.module.name: p for p in plan.result.placements
                }
                self._rebuild_occupancy()
                self.stats.defrag_moves += len(plan.moves)
                self.stats.defrag_executed_moves += len(plan.moves)
                self._retry_pending()
                return True
            # incremental: the plan starts holding its first window now
            # and completes move by move as the clock advances; space is
            # freed gradually, so the pending retry fires per completion
            self._move_queue.extend(plan.moves)
            self._start_next_move()
            return True
        finally:
            self.stats.defrag_time_s += time.monotonic() - t0

    # ------------------------------------------------------------------
    # No-break move execution
    # ------------------------------------------------------------------
    def _move_duration(self, move: PlannedMove) -> int:
        """Logical ticks the move window lasts (at least one)."""
        per_tick = self.config.defrag_frames_per_tick
        return max(1, -(-move.frames // per_tick))

    def _imprint_window(self, move: PlannedMove, value: bool) -> None:
        for x, y in move.window_cells:
            self._occupancy[y, x] = value
        self._occupancy_rev += 1

    def _validate_move(self, move: PlannedMove) -> bool:
        """Is the planned move still executable right now?

        Arrivals interleave with plan execution: the mover may have
        departed, been teleported by an instant pass, or an admission
        may have claimed part of the move window since planning.
        """
        p = self._placements.get(move.module)
        if (
            p is None
            or p.shape_index != move.from_shape
            or (p.x, p.y) != move.from_pos
        ):
            return False
        own = {(x, y) for x, y, _ in p.absolute_cells()}
        return all(
            (x, y) in own or not self._occupancy[y, x]
            for x, y in move.window_cells
        )

    def _start_next_move(self) -> None:
        """Pop queued moves until one validates and holds its window."""
        while self._move_queue:
            move = self._move_queue.popleft()
            if self._validate_move(move):
                self._active_move = _ActiveMove(
                    move, ends=self.clock + self._move_duration(move)
                )
                self._imprint_window(move, True)
                self._emit(
                    RUNTIME_DEFRAG_STEP,
                    module=move.module,
                    clock=self.clock,
                    status="started",
                    move_kind=move.kind,
                    frames=move.frames,
                )
                self._check_moves()
                return
            self.stats.defrag_aborted_moves += 1
            self._emit(
                RUNTIME_DEFRAG_STEP,
                module=move.module,
                clock=self.clock,
                status="aborted",
                move_kind=move.kind,
                frames=move.frames,
            )

    def _complete_active_move(self) -> None:
        """The active move's window elapsed: switch over to the target."""
        active = self._active_move
        self._active_move = None
        move = active.move
        self._imprint_window(move, False)
        p = self._placements[move.module]
        new_p = Placement(p.module, move.to_shape, *move.to_pos)
        self._placements[move.module] = new_p
        self._imprint(new_p, True)
        self.stats.defrag_moves += 1
        self.stats.defrag_executed_moves += 1
        self._emit(
            RUNTIME_DEFRAG_STEP,
            module=move.module,
            clock=self.clock,
            status="completed",
            move_kind=move.kind,
            frames=move.frames,
        )
        self._check_moves()
        self._expire_pending()
        self._retry_pending()
        self._start_next_move()

    def _remove_cells(self, name: str, placement: Placement) -> None:
        """Clear a departing module's cells, cancelling its in-flight
        move (the caller already popped it from the placement table)."""
        active = self._active_move
        if active is not None and active.move.module == name:
            self._active_move = None
            self._imprint_window(active.move, False)
            self.stats.defrag_aborted_moves += 1
            self._emit(
                RUNTIME_DEFRAG_STEP,
                module=name,
                clock=self.clock,
                status="aborted",
                move_kind=active.move.kind,
                frames=active.move.frames,
            )
            self._start_next_move()
        else:
            self._imprint(placement, False)

    def check_invariants(self) -> None:
        """Verify the live floorplan, including any in-flight window.

        Raises ValueError on the first violation: an invalid placement
        (via :meth:`PlacementResult.verify`), a move window overlapping
        a placed module or leaving the allowed region, or an occupancy
        bitmap out of sync with the placement table + window.
        """
        result = self.result()
        result.verify()
        expected = result.occupancy_mask()
        active = self._active_move
        if active is not None:
            move = active.move
            p = self._placements.get(move.module)
            own = (
                {(x, y) for x, y, _ in p.absolute_cells()}
                if p is not None
                else set()
            )
            allowed = self.region.allowed_mask()
            for x, y in move.window_cells:
                if not allowed[y, x]:
                    raise ValueError(
                        f"move window cell ({x},{y}) of {move.module!r} "
                        f"is outside the allowed region"
                    )
                if (x, y) not in own and expected[y, x]:
                    raise ValueError(
                        f"move window cell ({x},{y}) of {move.module!r} "
                        f"overlaps a placed module"
                    )
                expected[y, x] = True
        if not np.array_equal(expected, self._occupancy):
            raise ValueError(
                "occupancy bitmap out of sync with placements + move window"
            )

    def _check_moves(self) -> None:
        if self.config.verify_moves:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit(self, event: str, **data) -> None:
        # positional-style first param: event payloads may carry a field
        # literally named "kind" (runtime.defrag.step does)
        if self._tracer is not None:
            self._tracer.emit(event, **data)

    def _sample(self) -> Tuple[int, int, float, float]:
        res = self.result()
        return (
            self.clock,
            res.used_cells(),
            region_utilization(res),
            external_fragmentation(res),
        )

    def profile(self, shard: Optional[str] = None) -> SolveProfile:
        """The manager's counters as a mergeable SolveProfile record.

        ``shard`` labels the record for service-level merges (the sharded
        service passes its shard name so per-shard profiles stay
        attributable after a ``+`` merge).
        """
        s = self.stats
        cache = self._cache.stats()
        profile = SolveProfile(
            elapsed=s.total_latency_s,
            stop_reason="runtime",
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_narrowed=cache["narrowed"],
            cache_evictions=cache["evictions"],
            meta=s.profile_meta(),
        )
        if shard is not None:
            profile.meta["shard"] = shard
        return profile

    def _record_profile(self) -> None:
        session = obs_context.current()
        if session is not None:
            session.record(self.profile())


# ----------------------------------------------------------------------
# Workload generation (the Table-I module distribution, made online)
# ----------------------------------------------------------------------
def generate_workload(
    n_requests: int,
    seed: int = 0,
    mean_interarrival: int = 2,
    mean_lifetime: int = 24,
    deadline_slack: Optional[int] = None,
    generator_config: Optional[GeneratorConfig] = None,
    duration_range: Optional[Tuple[int, int]] = None,
    precedence_p: float = 0.0,
    profile: str = "uniform",
) -> List[RuntimeRequest]:
    """A seeded arrival/lifetime trace over the Table-I distribution.

    Interarrival gaps and lifetimes are uniform around their means (all
    driven by one seeded :class:`random.Random`), module footprints come
    from :class:`~repro.modules.generator.ModuleGenerator` — by default
    the paper's Table-I workload (20–100 CLBs, 0–4 BRAMs, four design
    alternatives per module).

    ``profile`` selects the arrival process:

    * ``"uniform"`` (default) — the historical uniform-gap trace.  With
      the scheduling extensions off this path draws from the primary RNG
      in exactly the historical order, so existing ``(seed, kwargs)``
      combinations reproduce byte-identical traces — pinned by the
      workload fingerprints in the tests.
    * ``"slack-heavy"`` — bursty arrivals (bursts of ~4 requests sharing
      one tick separated by long gaps), short lifetimes and generous
      deadlines (``deadline_slack`` defaults to ``2 * mean_lifetime``).
      The trace reservation-based admission is built for: admit-now
      managers reject burst overflow that a horizon probe can book onto
      the imminent departures.

    The scheduling fields ride on a *derived* RNG (seeded from ``seed``)
    so enabling them never perturbs the primary draws: ``duration_range
    = (lo, hi)`` stamps a uniform per-request ``duration``;
    ``precedence_p`` chains each request to its predecessor (``after``)
    with that probability.
    """
    import random

    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if profile not in ("uniform", "slack-heavy"):
        raise ValueError(f"unknown workload profile {profile!r}")
    if not 0.0 <= precedence_p <= 1.0:
        raise ValueError("precedence_p must be within [0, 1]")
    if duration_range is not None:
        lo, hi = duration_range
        if lo < 1 or hi < lo:
            raise ValueError("duration_range must satisfy 1 <= lo <= hi")
    rng = random.Random(seed)
    gen = ModuleGenerator(seed=seed, config=generator_config)
    # scheduling fields draw from a derived stream so that turning them
    # on cannot shift the primary stream's historical draw order
    aux = random.Random(seed ^ 0x7E3A)
    t = 0
    out: List[RuntimeRequest] = []
    prev_name: Optional[str] = None
    for i in range(n_requests):
        if profile == "slack-heavy":
            if i % 4 == 0:  # burst boundary: one long gap, then pile up
                t += max(1, 4 * mean_interarrival)
            lifetime = rng.randint(2, max(2, mean_lifetime))
            slack = (
                deadline_slack
                if deadline_slack is not None
                else 2 * mean_lifetime
            )
            deadline: Optional[int] = t + slack
        else:
            t += rng.randint(1, max(1, 2 * mean_interarrival - 1))
            lifetime = rng.randint(2, max(2, 2 * mean_lifetime - 2))
            deadline = None if deadline_slack is None else t + deadline_slack
        module = gen.generate()
        duration = (
            aux.randint(duration_range[0], duration_range[1])
            if duration_range is not None
            else None
        )
        after = None
        if (
            precedence_p > 0.0
            and prev_name is not None
            and aux.random() < precedence_p
        ):
            after = prev_name
        out.append(
            RuntimeRequest(
                module=module,
                arrival=t,
                lifetime=lifetime,
                deadline=deadline,
                duration=duration,
                after=after,
            )
        )
        prev_name = module.name
    return out
