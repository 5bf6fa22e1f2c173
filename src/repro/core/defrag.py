"""Runtime defragmentation: instant repacking and no-break move planning.

The runtime counterpart of the paper's offline result: as modules come and
go, the free space of a runtime reconfigurable system shatters (external
fragmentation).  A defragmenter relocates placed modules — at a
reconfiguration cost — to compact the floorplan.  Design alternatives pay
off a second time here: a module that may change layout when moved has
more relocation sites, so compaction gets further per move.

We deliberately keep the paper's restriction in mind: "restoring the
module with a different design alternative would present a problem in
restoring the state.  Consequently, we do not consider changing design
alternatives at run-time."  Every defragmenter therefore supports both
policies:

* ``allow_shape_change=False`` (the paper's stateful-module assumption) —
  modules only translate;
* ``allow_shape_change=True`` (valid for stateless/restartable modules) —
  relocation may pick a different alternative.

Both engines run one greedy left-compaction loop,
:meth:`Defragmenter.plan`: repeatedly take the module whose right edge
defines the extent, enumerate its relocation sites strictly left of its
current right edge, move it to the bottom-left-most one the engine's
move rule accepts; when the frontier is stuck, squeeze interior modules
left (never past the current extent — a squeeze move may change shape,
and an unguarded wider alternative could *grow* the floorplan); stop
when no module can move or the move budget is exhausted.  The loop
keeps one occupancy plane per pass and probes it with the mover lifted.
The engines differ only in the move rule, and live behind a name-keyed
registry (:func:`register_defragmenter` / :func:`create_defragmenter`,
mirroring the backend and router registries):

* ``greedy-compaction`` — the *instant* rule: every site is reached by
  an atomic teleport that reports its frame cost without scheduling it
  (:func:`defragment` is this engine's plan).  It stays registered as
  the oracle the incremental engine is differential-tested against.
* ``no-break`` — plans move *sequences* that respect running modules,
  after van der Veen et al. ("Defragmenting the Module Layout of a
  Partially Reconfigurable Device") and Fekete et al. ("No-Break Dynamic
  Defragmentation of Reconfigurable Devices").  A module may only
  **slide** through currently-free space (an axis-aligned glide whose
  every intermediate anchor is a feasible free anchor), or **copy** to a
  disjoint free site and switch over.  Either way the move costs
  reconfiguration frames derived from :func:`~repro.core.relocation.relocation_distance`
  (the distinct columns the move touches), and during its move window
  the module occupies *both* source and target (plus, for a slide, every
  cell glided over) — the cells a mover holds are not obstacle-free for
  admission or for later moves.  The runtime manager executes the plan
  incrementally on its logical clock between arrivals
  (:mod:`repro.core.runtime`).

The relocation-site probes run through a shared
:class:`~repro.fabric.cache.AnchorMaskCache` when one is supplied — the
defrag pass is the hottest mask consumer on the serving path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.relocation import (
    RelocationSite,
    relocation_distance,
    sites_on_plane,
)
from repro.core.result import Placement, PlacementResult
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import PartialRegion


# ----------------------------------------------------------------------
# Planned (no-break) moves
# ----------------------------------------------------------------------
#: move kinds a plan may contain
MOVE_INSTANT = "instant"  # teleport (oracle engine only)
MOVE_SLIDE = "slide"      # glide through free space, same shape
MOVE_COPY = "copy"        # copy-then-switch to a disjoint free site


@dataclass(frozen=True)
class PlannedMove:
    """One scheduled relocation with its move-window footprint.

    ``window_cells`` are the cells the module holds for the whole move
    window: source ∪ target for a copy, the union of every intermediate
    footprint for a slide, empty for an instant (teleport) move.  The
    runtime manager imprints them into its occupancy while the move is
    in flight, so no admission or later move can claim them.
    """

    module: str
    from_shape: int
    from_pos: Tuple[int, int]
    to_shape: int
    to_pos: Tuple[int, int]
    #: one of ``instant`` / ``slide`` / ``copy``
    kind: str
    #: reconfiguration frames the move costs (distinct columns touched)
    frames: int
    window_cells: Tuple[Tuple[int, int], ...] = ()

    @property
    def changed_shape(self) -> bool:
        return self.from_shape != self.to_shape


@dataclass
class DefragPlan:
    """A defragmenter's answer: the move sequence and its end state.

    ``instant`` plans (the ``greedy-compaction`` oracle) are applied
    atomically by the runtime manager, exactly like the original pass;
    incremental plans are executed move by move on the logical clock.
    ``result`` is the *simulated* end state assuming every move executes
    — the live outcome may fall short when moves are aborted by
    interleaved arrivals.
    """

    result: PlacementResult
    moves: List[PlannedMove] = field(default_factory=list)
    initial_extent: int = 0
    final_extent: int = 0
    instant: bool = False

    @property
    def total_frames(self) -> int:
        return sum(m.frames for m in self.moves)

    @property
    def improvement(self) -> int:
        return self.initial_extent - self.final_extent


def plan_states(
    result: PlacementResult, plan: DefragPlan
) -> Iterator[PlacementResult]:
    """Every intermediate floorplan state of ``plan``, for verification.

    Replays the plan step by step from ``result``: a slide yields one
    state per intermediate anchor, a copy yields the double-occupancy
    state (the mover placed at source *and* target simultaneously — the
    no-break invariant is that this state is overlap-free), and every
    move yields the state after it completes.  Feed each state to
    :meth:`PlacementResult.verify` to prove no plan step ever overlaps a
    running module.
    """
    placements: Dict[str, Placement] = {
        p.module.name: p for p in result.placements
    }

    def state(extra: List[Placement] = []) -> PlacementResult:
        return PlacementResult(
            result.region, list(placements.values()) + extra
        )

    for move in plan.moves:
        p = placements[move.module]
        target = Placement(p.module, move.to_shape, *move.to_pos)
        if move.kind == MOVE_SLIDE:
            for x, y in _slide_anchors(p, move.to_pos):
                placements[move.module] = Placement(
                    p.module, move.to_shape, x, y
                )
                yield state()
        elif move.kind == MOVE_COPY:
            # copy-then-switch: source and target coexist for the window
            del placements[move.module]
            yield state(extra=[p, target])
        placements[move.module] = target
        yield state()


def _slide_anchors(
    placement: Placement, to_pos: Tuple[int, int]
) -> Iterator[Tuple[int, int]]:
    """Anchor path of an axis-aligned glide, source exclusive."""
    x, y = placement.x, placement.y
    tx, ty = to_pos
    dx = 0 if tx == x else (1 if tx > x else -1)
    dy = 0 if ty == y else (1 if ty > y else -1)
    while (x, y) != (tx, ty):
        x, y = x + dx, y + dy
        yield x, y


# ----------------------------------------------------------------------
# Defragmenter protocol and registry (mirrors backends and routers)
# ----------------------------------------------------------------------
class Defragmenter:
    """Plans one defragmentation pass over a live floorplan.

    :meth:`plan` is the greedy left-compaction loop every engine shares;
    an engine supplies only its move rule, :meth:`_plan_move`.  Planners
    are pure: they never mutate the input result.  ``instant`` engines
    teleport (their moves carry no window and the runtime manager applies
    the end state atomically); incremental engines return windowed move
    sequences the manager schedules on its logical clock.
    """

    name = "defragmenter"
    #: True = the plan is applied atomically (the pre-no-break behavior)
    instant = True

    def plan(
        self,
        result: PlacementResult,
        allow_shape_change: bool = False,
        max_moves: Optional[int] = None,
        cache: Optional[AnchorMaskCache] = None,
    ) -> DefragPlan:
        """Greedy left-compaction as a move sequence.

        Each step probes the frontier modules (those whose right edge
        defines the extent, largest first) for a site whose right edge
        is strictly left of the mover's; when the frontier is stuck it
        squeezes interior modules (in x order) to a bottom-left-smaller
        site, capped at the current extent — a squeeze move may change
        shape, and an unguarded wider alternative could *grow* the
        floorplan.  A probe's candidates are tried bottom-left-most first
        (``(x, y, shape_index)``) and the first one :meth:`_plan_move`
        accepts is simulated before the next step, so move ``k`` is
        feasible in the state moves ``0..k-1`` leave.  The pass stops when
        nothing moves or after ``max_moves`` moves (None: a termination
        guard of four moves per module — shape-changing moves may trade
        width for x, so no monotone metric bounds the pass).

        The floorplan is rasterized once per pass; every probe narrows
        that plane minus the mover (see
        :func:`~repro.core.relocation.sites_on_plane`) and every simulated
        move updates it.  ``cache`` serves the probes' masks.
        """
        region = result.region
        placements = list(result.placements)
        occupied = result.occupancy_mask()
        initial_extent = max((p.right for p in placements), default=0)
        moves: List[PlannedMove] = []
        budget = (
            max_moves if max_moves is not None
            else 4 * max(1, len(placements))
        )
        while len(moves) < budget:
            step = self._next_move(
                region, occupied, placements, allow_shape_change, cache
            )
            if step is None:
                break
            i, move = step
            moves.append(move)
            old = placements[i]
            placements[i] = Placement(old.module, move.to_shape, *move.to_pos)
            occupied[old.yx()] = False
            occupied[placements[i].yx()] = True

        final = PlacementResult(region, placements, list(result.unplaced))
        return DefragPlan(
            result=final,
            moves=moves,
            initial_extent=initial_extent,
            final_extent=final.extent or 0,
            instant=self.instant,
        )

    def _next_move(
        self,
        region: PartialRegion,
        occupied: np.ndarray,
        placements: List[Placement],
        allow_shape_change: bool,
        cache: Optional[AnchorMaskCache],
    ) -> Optional[Tuple[int, PlannedMove]]:
        """One compaction step: (placement index, move), or None."""
        extent = max((p.right for p in placements), default=0)
        frontier = sorted(
            (i for i, p in enumerate(placements) if p.right == extent),
            key=lambda i: -placements[i].footprint.area,
        )
        interior = sorted(range(len(placements)), key=lambda i: placements[i].x)
        # (probe order, is a site with this right edge an improvement?)
        phases = (
            (frontier, lambda p, s, right: right < p.right),
            (
                interior,
                lambda p, s, right: (s.x, s.y) < (p.x, p.y) and right <= extent,
            ),
        )
        for order, better in phases:
            for i in order:
                p = placements[i]
                sites = sites_on_plane(
                    region, occupied, p, allow_shape_change, cache
                )
                shapes = p.module.shapes
                candidates = sorted(
                    (
                        s for s in sites
                        if better(p, s, s.x + shapes[s.shape_index].width)
                    ),
                    key=lambda s: (s.x, s.y, s.shape_index),
                )
                if not candidates:
                    continue
                site_set = {(s.shape_index, s.x, s.y) for s in sites}
                for site in candidates:
                    move = self._plan_move(p, site, site_set)
                    if move is not None:
                        return i, move
        return None

    def _plan_move(
        self,
        placement: Placement,
        site: RelocationSite,
        site_set: Set[Tuple[int, int, int]],
    ) -> Optional[PlannedMove]:
        """The move rule: ``placement`` to one candidate ``site`` (every
        site of the lifted module is in ``site_set`` as ``(shape_index,
        x, y)``), or None when this engine cannot reach it."""
        raise NotImplementedError


class GreedyCompactionDefragmenter(Defragmenter):
    """Teleport moves over the shared compaction loop (the oracle)."""

    name = "greedy-compaction"
    instant = True
    # bound on the class itself so per-engine instrumentation that wraps
    # ``plan`` on each registered class times this engine's passes
    plan = Defragmenter.plan

    def _plan_move(
        self,
        placement: Placement,
        site: RelocationSite,
        site_set: Set[Tuple[int, int, int]],
    ) -> Optional[PlannedMove]:
        """Every site is reachable by an atomic teleport."""
        return PlannedMove(
            module=placement.module.name,
            from_shape=placement.shape_index,
            from_pos=(placement.x, placement.y),
            to_shape=site.shape_index,
            to_pos=(site.x, site.y),
            kind=MOVE_INSTANT,
            frames=relocation_distance(placement, site),
        )


class NoBreakDefragmenter(Defragmenter):
    """Slide and copy moves over the shared compaction loop.

    Every move must be *executable against running modules*: a slide
    needs a free glide path, a copy needs a target disjoint from its own
    source (the module occupies both for the move window).  The runtime
    manager re-validates each move at start time anyway, because
    arrivals interleave with execution.
    """

    name = "no-break"
    instant = False
    plan = Defragmenter.plan  # see GreedyCompactionDefragmenter

    def _plan_move(
        self,
        placement: Placement,
        site: RelocationSite,
        site_set: Set[Tuple[int, int, int]],
    ) -> Optional[PlannedMove]:
        """One candidate site as a slide or copy move (None = unreachable)."""
        source_cells = {(x, y) for x, y, _ in placement.absolute_cells()}
        fp = placement.module.shapes[site.shape_index]
        target_cells = {
            (site.x + dx, site.y + dy) for dx, dy, _ in fp.cells
        }
        slide = (
            site.shape_index == placement.shape_index
            and (site.x == placement.x or site.y == placement.y)
        )
        if slide:
            window = set(source_cells)
            feasible = True
            for x, y in _slide_anchors(placement, (site.x, site.y)):
                if (site.shape_index, x, y) not in site_set:
                    feasible = False
                    break
                window |= {(x + dx, y + dy) for dx, dy, _ in fp.cells}
            if feasible:
                # a glide rewrites every column it passes through, not
                # just the endpoints relocation_distance sees
                frames = len({x for x, _ in window})
                return PlannedMove(
                    module=placement.module.name,
                    from_shape=placement.shape_index,
                    from_pos=(placement.x, placement.y),
                    to_shape=site.shape_index,
                    to_pos=(site.x, site.y),
                    kind=MOVE_SLIDE,
                    frames=frames,
                    window_cells=tuple(sorted(window)),
                )
            # an infeasible glide may still be reachable as a copy
        if not target_cells.isdisjoint(source_cells):
            # copy-then-switch needs both footprints live at once
            return None
        return PlannedMove(
            module=placement.module.name,
            from_shape=placement.shape_index,
            from_pos=(placement.x, placement.y),
            to_shape=site.shape_index,
            to_pos=(site.x, site.y),
            kind=MOVE_COPY,
            frames=relocation_distance(placement, site),
            window_cells=tuple(sorted(source_cells | target_cells)),
        )


def defragment(
    result: PlacementResult,
    allow_shape_change: bool = False,
    max_moves: Optional[int] = None,
    cache: Optional[AnchorMaskCache] = None,
) -> DefragPlan:
    """Greedy left-compaction of a placed system (instant moves).

    The ``greedy-compaction`` engine's plan: a new :class:`PlacementResult`
    (the input is not modified) plus the teleport moves with their
    per-move reconfiguration frame costs.  ``max_moves`` is a hard cap on
    relocations; when None an internal termination guard bounds the pass
    instead.  ``cache`` serves the relocation-site masks.

    A pass never returns a worse floorplan: frontier moves strictly
    shrink the mover's right edge, and squeeze moves are capped at the
    current extent — without that cap a lexicographically-smaller anchor
    of a *wider* design alternative could grow the extent (a real
    regression, pinned by the tests).
    """
    return GreedyCompactionDefragmenter().plan(
        result,
        allow_shape_change=allow_shape_change,
        max_moves=max_moves,
        cache=cache,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: factory signature: ``factory() -> Defragmenter``
DefragmenterFactory = Callable[[], Defragmenter]

_DEFRAGMENTERS: Dict[str, DefragmenterFactory] = {}


def register_defragmenter(
    name: str, factory: DefragmenterFactory, *, replace: bool = False
) -> None:
    """Register a defragmenter factory under ``name`` (loud on duplicates)."""
    if not name or not isinstance(name, str):
        raise ValueError(
            f"defragmenter name must be a non-empty string, got {name!r}"
        )
    if not replace and name in _DEFRAGMENTERS:
        raise ValueError(
            f"defragmenter {name!r} is already registered; pass replace=True "
            f"to override it deliberately"
        )
    _DEFRAGMENTERS[name] = factory


def unregister_defragmenter(name: str) -> None:
    """Remove a registered defragmenter (primarily for tests)."""
    _DEFRAGMENTERS.pop(name, None)


def create_defragmenter(name: str) -> Defragmenter:
    """Instantiate the registered defragmenter ``name`` (loud when unknown)."""
    try:
        factory = _DEFRAGMENTERS[name]
    except KeyError:
        known = ", ".join(sorted(_DEFRAGMENTERS)) or "<none>"
        raise ValueError(
            f"unknown defragmenter {name!r}; registered: {known}"
        ) from None
    return factory()


def available_defragmenters() -> List[str]:
    """Sorted names of every registered defragmentation strategy."""
    return sorted(_DEFRAGMENTERS)


for _cls in (GreedyCompactionDefragmenter, NoBreakDefragmenter):
    register_defragmenter(_cls.name, _cls)
