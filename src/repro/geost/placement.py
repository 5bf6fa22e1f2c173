"""Resource-extended geost kernel, vectorized for FPGA placement.

This propagator enforces, in one global constraint, the paper's three
constraint families (Section III-C):

* **M_a** — every tile inside the constrained region (Eq. 2),
* **M_b** — every tile on a fabric tile of identical resource type (Eq. 3),
* **M_c** — no two modules overlap (Eq. 4),

over objects with polymorphic shapes (design alternatives).  M_a and M_b
are *static*: they only depend on the fabric, so they are precomputed once
as per-(module, shape) boolean anchor masks
(:func:`repro.fabric.masks.valid_anchor_mask` — the resource-typed
forbidden-region extension evaluated wholesale).  M_c is dynamic: when a
module becomes fixed its cells are imprinted into an occupancy grid and the
anchor masks of the remaining modules are narrowed by exactly the anchors
that would now collide — a vectorized difference-of-coordinates kernel.

Filtering strength: for every unfixed module the kernel maintains domain
consistency of the shape variable (a shape with no remaining anchor is
dropped) and *per-axis* domain consistency of x and y against the union of
its candidate shapes' anchor masks — strictly stronger than the classic
bounds-only sweep for this problem class, at the cost of being specialized
to 2-D grids.

All dynamic state (occupancy, mask narrowing, placement flags) is undone
through the engine trail, so the kernel composes with any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cp.domain import Domain
from repro.cp.engine import Engine, Inconsistent
from repro.cp.propagator import Priority, Propagator
from repro.cp.trail import Revision
from repro.cp.variable import IntVar
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.masks import (
    compatibility_masks,
    count_anchors,
    count_anchors_batch,
    valid_anchor_mask,
)
from repro.fabric.region import NarrowedRegion, PartialRegion
from repro.geost.incremental import IncStats, KernelOptions
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs.trace import GEOST_BITBOARD, GEOST_INCREMENTAL, KERNEL_IMPRINT


@dataclass(frozen=True)
class PlacedModule:
    """A concrete placement decision: module, chosen shape, anchor.

    ``start`` is the scheduled start tick when the kernel ran with a time
    axis (``horizon`` given), ``None`` for purely spatial placements.
    """

    module: Module
    shape_index: int
    x: int
    y: int
    start: Optional[int] = None

    @property
    def footprint(self) -> Footprint:
        return self.module.shapes[self.shape_index]

    def absolute_cells(self) -> List[Tuple[int, int]]:
        return [(self.x + dx, self.y + dy) for dx, dy, _ in self.footprint.cells]


class _Item:
    """Internal per-module record."""

    __slots__ = (
        "index", "module", "x", "y", "s", "t", "duration", "cells", "placed"
    )

    def __init__(
        self,
        index: int,
        module: Module,
        x: IntVar,
        y: IntVar,
        s: IntVar,
        t: Optional[IntVar] = None,
        duration: int = 1,
    ) -> None:
        self.index = index
        self.module = module
        self.x = x
        self.y = y
        self.s = s
        #: start-tick variable (None when the kernel runs without a time
        #: axis) and execution duration in ticks
        self.t = t
        self.duration = duration
        #: per-shape (n, 2) arrays of (dy, dx) cell offsets
        self.cells: List[np.ndarray] = [
            np.array(
                [(dy, dx) for dx, dy, _ in sorted(fp.cells)], dtype=np.int64
            )
            for fp in module.shapes
        ]
        self.placed = False

    def is_fixed(self) -> bool:
        fixed = self.x.is_fixed() and self.y.is_fixed() and self.s.is_fixed()
        if self.t is not None:
            fixed = fixed and self.t.is_fixed()
        return fixed


class PlacementKernel(Propagator):
    """Global placement constraint over a heterogeneous partial region.

    ``kernel`` (:class:`~repro.geost.incremental.KernelOptions`) picks
    the oracle rung.  ``incremental=True`` (default) re-filters only the modules whose
    variables changed since the last fixpoint (the dirty set fed by
    :meth:`on_event`) and serves :meth:`anchor_count` from a cache keyed on
    a :class:`~repro.cp.trail.Revision` stamp that mask-bank mutations and
    their trail undos both bump.  ``incremental=False`` re-filters every
    module on each wake-up — the wholesale oracle the differential suite
    pins against; both modes reach the same fixpoint (the per-module
    filters are monotone, so chaotic iteration is confluent) and hence
    produce bit-identical search trees.

    ``bitboard=True`` (default) additionally batches the per-shape work:
    :meth:`_prune` tests all candidate shapes of a module against the
    occupancy/domain masks in one stacked bank reduction instead of one
    NumPy dispatch per shape, and :meth:`anchor_count` counts all shapes
    through :func:`~repro.fabric.masks.count_anchors_batch`.  Pure
    vectorization of the same boolean algebra — identical prunes, counts
    and cache behavior — so ``bitboard=False`` is the per-shape scalar
    oracle of the differential suite.

    ``horizon`` (optional) adds a bounded time axis: every module gets a
    start variable ``ts[i]`` and a ``durations[i]``-tick extrusion, the
    anchor bank grows to per-shape (T, H, W) stacks (the static spatial
    mask tiled over the horizon with start ticks past ``T - duration``
    cleared), occupancy becomes a (T, H, W) volume, and non-overlap means
    no two modules share a cell *while both are resident* — exactly the
    ``core.temporal._extrude`` model, evaluated through the same
    vectorized mask algebra.  The temporal narrowing after an imprint
    reuses the spatial difference-of-coordinates kernel and expands each
    colliding spatial anchor over its time window
    ``[t0 - d_other + 1, t0 + d0 - 1]`` — the start ticks at which the
    other shape would be resident simultaneously.  ``horizon=None``
    leaves every code path byte-identical to the purely spatial kernel.
    """

    priority = Priority.EXPENSIVE
    #: one run drains the dirty set to this propagator's own fixpoint;
    #: self-caused events land in the dirty set via on_event and are
    #: consumed by the same run, so the engine need not re-queue it
    idempotent = True

    def __init__(
        self,
        region: PartialRegion,
        modules: Sequence[Module],
        xs: Sequence[IntVar],
        ys: Sequence[IntVar],
        ss: Sequence[IntVar],
        cache: Optional[AnchorMaskCache] = None,
        kernel: KernelOptions = KernelOptions(),
        horizon: Optional[int] = None,
        durations: Optional[Sequence[int]] = None,
        ts: Optional[Sequence[IntVar]] = None,
    ) -> None:
        super().__init__("placement-kernel")
        if not (len(modules) == len(xs) == len(ys) == len(ss)):
            raise ValueError("modules and variable sequences must align")
        if not modules:
            raise ValueError("at least one module is required")
        if horizon is not None:
            if horizon <= 0:
                raise ValueError("horizon must be positive")
            if durations is None or ts is None:
                raise ValueError("horizon requires durations and ts")
            if not (len(durations) == len(ts) == len(modules)):
                raise ValueError("durations and ts must align with modules")
            for m, d in zip(modules, durations):
                if d <= 0:
                    raise ValueError(f"{m.name}: duration must be positive")
                if d > horizon:
                    raise ValueError(
                        f"{m.name}: duration {d} exceeds horizon {horizon}"
                    )
        elif durations is not None or ts is not None:
            raise ValueError("durations/ts require a horizon")
        self.region = region
        self.H, self.W = region.height, region.width
        #: time-axis extent (None — the purely spatial kernel)
        self.T = horizon
        self._hw = self.H * self.W
        self.incremental = kernel.incremental
        self.bitboard = kernel.bitboard
        self.inc_stats = IncStats()
        #: bumped on every mask-bank mutation and from its trail undo —
        #: keys the anchor-count cache
        self._rev = Revision()
        self._count_cache: Dict[int, Tuple] = {}
        if horizon is not None:
            self.items = [
                _Item(i, m, x, y, s, t, int(d))
                for i, (m, x, y, s, t, d) in enumerate(
                    zip(modules, xs, ys, ss, ts, durations)
                )
            ]
        else:
            self.items = [
                _Item(i, m, x, y, s)
                for i, (m, x, y, s) in enumerate(zip(modules, xs, ys, ss))
            ]
        # three mask sources, cheapest first: a NarrowedRegion with a cache
        # reuses the *base* region's memoized masks and fixes them up below
        # (the incremental LNS path); a cache alone memoizes per (region,
        # footprint); no cache recomputes the cross-correlation every time
        snap = cache.snapshot() if cache is not None else None
        narrowed = cache is not None and isinstance(region, NarrowedRegion)
        if narrowed:
            base_key = cache.region_key(region.base)
            mask_of = lambda fp: cache.anchor_mask(  # noqa: E731
                region.base, fp, region_key=base_key
            )
        elif cache is not None:
            key = cache.region_key(region)
            mask_of = lambda fp: cache.anchor_mask(  # noqa: E731
                region, fp, region_key=key
            )
        else:
            compat = compatibility_masks(region)
            mask_of = lambda fp: valid_anchor_mask(  # noqa: E731
                region, sorted(fp.cells), compat
            )
        # anchor masks live in one contiguous "bank" (one row per shape of
        # every item) so the non-overlap narrowing after an imprint is one
        # batched fancy-index update instead of hundreds of small ones
        rows: List[np.ndarray] = []
        self._row_of: List[List[int]] = []
        off_chunks: List[np.ndarray] = []
        owner_chunks: List[np.ndarray] = []
        self._item_off_slice: List[Tuple[int, int]] = []
        offset_cursor = 0
        for item in self.items:
            row_ids = []
            start = offset_cursor
            for sid, fp in enumerate(item.module.shapes):
                mask = mask_of(fp)
                row_ids.append(len(rows))
                rows.append(mask.reshape(-1))
                off_chunks.append(item.cells[sid])
                owner_chunks.append(
                    np.full(len(item.cells[sid]), row_ids[-1], dtype=np.int64)
                )
                offset_cursor += len(item.cells[sid])
            self._row_of.append(row_ids)
            self._item_off_slice.append((start, offset_cursor))
        self.bank = np.stack(rows)  # (R, H*W) bool (a copy — cached masks
        # stay read-only; all dynamic narrowing mutates only the bank)
        #: all shape-cell offsets (dy, dx) concatenated, with their bank row
        self._all_offsets = np.concatenate(off_chunks)       # (TOT, 2)
        self._all_owners = np.concatenate(owner_chunks)      # (TOT,)
        #: offsets of still-unplaced items; placed items need no narrowing
        self._active_offsets = np.ones(len(self._all_owners), dtype=bool)
        if narrowed:
            # derive the sub-region masks from the base-region masks: an
            # anchor is newly invalid iff some footprint cell lands on a
            # blocked (frozen) cell.  The collide map is the OR-dual of the
            # mask cross-correlation, evaluated on the *flattened* blocked
            # map as big-int shift-ORs (one ~H*W-bit shift per footprint
            # cell, shared across rows with the same footprint): row-major
            # flattening lets a 2D shift by (dy, dx) become one 1D shift by
            # dy*W + dx.  The wraparound bits this smears across row edges
            # only land on anchors whose footprint already leaves the grid
            # — anchors the base mask marks invalid — so ANDing the result
            # into the bank stays exact.  Unlike a pairwise difference-of-
            # coordinates update (what _imprint uses for single placements)
            # the cost is independent of how many cells are blocked, which
            # is what makes narrowing by a whole frozen set cheap.
            if region.blocked_yx.size:
                blocked = np.zeros((self.H, self.W), dtype=bool)
                blocked[region.blocked_yx[:, 0], region.blocked_yx[:, 1]] = True
                blocked_bits = int.from_bytes(
                    np.packbits(blocked.reshape(-1), bitorder="little")
                    .tobytes(),
                    "little",
                )
                n = self.H * self.W
                keep_of: Dict[frozenset, np.ndarray] = {}
                row = 0
                for item in self.items:
                    for fp in item.module.shapes:
                        keep = keep_of.get(fp.cells)
                        if keep is None:
                            bits = 0
                            for dx, dy, _ in fp.cells:
                                bits |= blocked_bits >> (dy * self.W + dx)
                            keep = ~np.unpackbits(
                                np.frombuffer(
                                    bits.to_bytes((n + 7) // 8, "little"),
                                    np.uint8,
                                ),
                                bitorder="little",
                            )[:n].view(bool)
                            keep_of[fp.cells] = keep
                        self.bank[row] &= keep
                        row += 1
            cache.note_narrowed(self.bank.shape[0])
        #: per-construction cache accounting (None when built uncached)
        self.cache_stats: Optional[Dict[str, int]] = (
            cache.delta(snap) if cache is not None else None
        )
        if self.T is not None:
            # extrude the spatial bank over the horizon: tile each row T
            # times and clear the start ticks at which the shape would
            # outlive the horizon (t > T - duration) — the temporal M_a
            self._row_duration = np.concatenate(
                [
                    np.full(len(it.module.shapes), it.duration, dtype=np.int64)
                    for it in self.items
                ]
            )
            time_valid = (
                np.arange(self.T)[None, :]
                <= (self.T - self._row_duration)[:, None]
            )
            self.bank = (
                self.bank[:, None, :] & time_valid[:, :, None]
            ).reshape(len(self.bank), self.T * self._hw)
        #: static M_a & M_b anchors: per item, per shape, a bank-row view
        self.valid: List[List[np.ndarray]] = [
            [self.bank[r] for r in row_ids] for row_ids in self._row_of
        ]
        self.occupancy = np.zeros(
            self.H * self.W if self.T is None else self.T * self._hw,
            dtype=bool,
        )
        #: total cells available to modules, for the area argument
        #: (cell-ticks when a time axis is present)
        self._capacity = int(region.allowed_mask().sum()) * (self.T or 1)
        #: items needing re-filtering (indices); maintained via on_event
        self._dirty: set = set(range(len(self.items)))
        self._var_to_item = {}
        for it in self.items:
            for v in (it.x, it.y, it.s) + ((it.t,) if it.t is not None else ()):
                self._var_to_item[id(v)] = it.index

    def variables(self):
        out = []
        for it in self.items:
            out.extend((it.x, it.y, it.s))
            if it.t is not None:
                out.append(it.t)
        return out

    def on_event(self, var, event) -> bool:
        self._dirty.add(self._var_to_item[id(var)])
        return True

    # ------------------------------------------------------------------
    # Initial domain reduction
    # ------------------------------------------------------------------
    def post(self, engine: Engine) -> None:
        # clamp shape domains to the actual alternative count; anchors to grid
        for item in self.items:
            item.s.set_domain(
                item.s.domain.clamp(0, len(item.module.shapes) - 1), cause=None
            )
            item.x.set_domain(item.x.domain.clamp(0, self.W - 1), cause=None)
            item.y.set_domain(item.y.domain.clamp(0, self.H - 1), cause=None)
            if item.t is not None:
                item.t.set_domain(
                    item.t.domain.clamp(0, self.T - item.duration), cause=None
                )
        super().post(engine)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _axis_masks(self, item: _Item) -> Tuple[np.ndarray, np.ndarray]:
        """Boolean arrays over columns/rows marking the x / y domains."""
        return (
            item.x.domain.to_bool_array(self.W),
            item.y.domain.to_bool_array(self.H),
        )

    def _shape_allowed(self, item: _Item, sid: int) -> np.ndarray:
        """Anchors of shape ``sid`` compatible with current domains.

        (H, W) for the spatial kernel, (T, H, W) with a time axis.
        """
        col, row = self._axis_masks(item)
        if item.t is None:
            mask = self.valid[item.index][sid].reshape(self.H, self.W)
            return mask & row[:, None] & col[None, :]
        mask = self.valid[item.index][sid].reshape(self.T, self.H, self.W)
        tmask = item.t.domain.to_bool_array(self.T)
        return mask & tmask[:, None, None] & row[None, :, None] & col[None, None, :]

    def _collisions(
        self, cells_yx: np.ndarray, keep: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bank coordinates of anchors colliding with the given cells.

        For absolute cells ``(y, x)`` and every (still relevant) shape-cell
        offset, an anchor collides iff ``anchor = cell - offset`` lands in
        the grid — the vectorized difference-of-coordinates kernel.  Returns
        ``(rows, flat)`` suitable for fancy-indexing :attr:`bank`; ``keep``
        optionally restricts the offsets considered (offset indices into
        the concatenated offset table, e.g. the still-active ones).
        """
        off = self._all_offsets if keep is None else self._all_offsets[keep]
        owners = self._all_owners if keep is None else self._all_owners[keep]
        ay = cells_yx[:, 0][:, None] - off[None, :, 0]  # (n, TOT')
        ax = cells_yx[:, 1][:, None] - off[None, :, 1]
        ok = (ay >= 0) & (ax >= 0) & (ay < self.H) & (ax < self.W)
        flat = (ay * self.W + ax)[ok]
        rows = np.broadcast_to(owners, ok.shape)[ok]
        return rows, flat

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def propagate(self, engine: Engine) -> None:
        # process only dirty items; imprinting re-dirties the rest.  The
        # dirty set is conservative across backtracking (stale entries just
        # cause a redundant re-filter, never unsoundness).  Wholesale mode
        # dirties everything up front — the re-filter-the-world behavior
        # kept as the differential oracle.
        if not self.incremental:
            self._dirty.update(range(len(self.items)))
        while self._dirty:
            idx = min(self._dirty)  # deterministic processing order
            self._dirty.discard(idx)
            item = self.items[idx]
            if item.placed:
                continue
            self.inc_stats.dirty += 1
            if item.is_fixed():
                self._imprint(engine, item)
            else:
                self._prune(item)
        # area argument: the remaining modules must fit the remaining cells
        # (cell-ticks when a time axis is present: area × duration)
        demand = int(self.occupancy.sum()) + sum(
            min(it.module.shapes[sid].area for sid in it.s.domain)
            * it.duration
            for it in self.items
            if not it.placed
        )
        if demand > self._capacity:
            raise Inconsistent(
                f"placement-kernel: area demand {demand} exceeds "
                f"capacity {self._capacity}"
            )
        tr = engine.tracer
        if tr is not None and tr.fine:
            tr.emit(GEOST_INCREMENTAL, **self.inc_stats.as_dict())
            if self.bitboard:
                tr.emit(
                    GEOST_BITBOARD,
                    rows_tested=self.inc_stats.rows_tested,
                    fallbacks=self.inc_stats.fallbacks,
                )

    def _imprint(self, engine: Engine, item: _Item) -> None:
        """Commit a fixed module: occupy cells, narrow other modules' masks."""
        sid = item.s.value()
        x0, y0 = item.x.value(), item.y.value()
        t0 = item.t.value() if item.t is not None else 0
        flat_valid = self.valid[item.index][sid]
        anchor_flat = y0 * self.W + x0
        if item.t is not None:
            anchor_flat += t0 * self._hw
        if not flat_valid[anchor_flat]:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} anchored on an "
                f"incompatible or out-of-region tile"
            )
        cells = item.cells[sid]  # (n, 2) of (dy, dx)
        idx = (y0 + cells[:, 0]) * self.W + (x0 + cells[:, 1])
        if item.t is not None:
            # occupy the cells for every resident tick [t0, t0 + duration)
            idx = (
                (t0 + np.arange(item.duration))[:, None] * self._hw
                + idx[None, :]
            ).reshape(-1)
        if self.occupancy[idx].any():
            raise Inconsistent(
                f"placement-kernel: {item.module.name} overlaps placed material"
            )
        self.occupancy[idx] = True
        item.placed = True
        self.inc_stats.rasterized += 1
        if engine.tracer is not None:
            if item.t is not None:
                engine.tracer.emit(
                    KERNEL_IMPRINT,
                    module=item.module.name, shape=sid, x=x0, y=y0, t=t0,
                )
            else:
                engine.tracer.emit(
                    KERNEL_IMPRINT, module=item.module.name, shape=sid, x=x0, y=y0
                )

        occ = self.occupancy
        active = self._active_offsets
        lo, hi = self._item_off_slice[item.index]
        active[lo:hi] = False  # this item's masks need no further narrowing

        def undo_imprint(idx=idx, item=item, lo=lo, hi=hi) -> None:
            occ[idx] = False
            active[lo:hi] = True
            item.placed = False

        engine.trail.push(undo_imprint)

        # narrow every unplaced module's anchor masks in one batched update:
        # an anchor (X, Y) of a shape collides iff (Y, X) = cell - offset
        # for some imprinted cell and some cell offset of that shape
        for other in self.items:
            if not other.placed:
                self._dirty.add(other.index)
        keep = np.nonzero(active)[0]
        cells_yx = np.stack([y0 + cells[:, 0], x0 + cells[:, 1]], axis=1)
        rows, flat = self._collisions(cells_yx, keep)
        if item.t is not None and rows.size:
            # expand each colliding *spatial* anchor over the start ticks
            # at which the other shape would be resident together with
            # this one: [t0 - d_other + 1, t0 + d0 - 1], clamped to the
            # horizon (a ragged range per collision, flattened via repeat)
            d_other = self._row_duration[rows]
            t_lo = np.maximum(0, t0 - d_other + 1)
            t_hi = min(self.T - 1, t0 + item.duration - 1)
            counts = t_hi - t_lo + 1
            total = int(counts.sum())
            steps = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            ticks = np.repeat(t_lo, counts) + steps
            flat = ticks * self._hw + np.repeat(flat, counts)
            rows = np.repeat(rows, counts)
        bank = self.bank
        was_valid = bank[rows, flat]
        rows_hit = rows[was_valid]
        flat_hit = flat[was_valid]
        if rows_hit.size:
            bank[rows_hit, flat_hit] = False
            self._rev.bump()
            rev = self._rev

            def undo_mask(rows_hit=rows_hit, flat_hit=flat_hit) -> None:
                bank[rows_hit, flat_hit] = True
                rev.bump()

            engine.trail.push(undo_mask)

    def _prune(self, item: _Item) -> bool:
        """Per-axis domain consistency for one unfixed module."""
        if self.bitboard:
            return self._prune_batched(item)
        union: Optional[np.ndarray] = None
        keep_shapes: List[int] = []
        for sid in item.s.domain:
            allowed = self._shape_allowed(item, sid)
            if allowed.any():
                keep_shapes.append(sid)
                union = allowed if union is None else (union | allowed)
        if union is None:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} has no feasible anchor"
            )
        changed = item.s.set_domain(Domain(keep_shapes), cause=self)
        changed |= self._narrow_axes(item, union)
        # our own updates re-enter the dirty set through on_event (the
        # engine notifies self-caused events precisely so dirty-set
        # propagators see their own prunings), so a collapse to a full
        # placement is picked up by the same run and imprinted
        return changed

    def _narrow_axes(self, item: _Item, union: np.ndarray) -> bool:
        """Project the anchor union onto each axis domain (x, y and t)."""
        if item.t is None:
            cols = Domain.from_bool_array(union.any(axis=0))
            rows = Domain.from_bool_array(union.any(axis=1))
        else:
            cols = Domain.from_bool_array(union.any(axis=(0, 1)))
            rows = Domain.from_bool_array(union.any(axis=(0, 2)))
        changed = item.x.set_domain(
            item.x.domain.intersect(cols), cause=self
        )
        changed |= item.y.set_domain(
            item.y.domain.intersect(rows), cause=self
        )
        if item.t is not None:
            ticks = Domain.from_bool_array(union.any(axis=(1, 2)))
            changed |= item.t.set_domain(
                item.t.domain.intersect(ticks), cause=self
            )
        return changed

    def _prune_batched(self, item: _Item) -> bool:
        """:meth:`_prune` with all candidate shapes reduced in one pass.

        Same boolean algebra as the per-shape loop — per-shape feasibility
        is the row-wise ``any`` of the stacked (mask & domain) bank rows
        and the union is the ``any`` over feasible rows — so the resulting
        domains, error conditions and messages are identical.
        """
        sids = list(item.s.domain)
        row_ids = [self._row_of[item.index][sid] for sid in sids]
        col, row = self._axis_masks(item)
        axes = (row[:, None] & col[None, :]).reshape(-1)
        if item.t is not None:
            tmask = item.t.domain.to_bool_array(self.T)
            axes = (
                tmask[:, None, None]
                & row[None, :, None]
                & col[None, None, :]
            ).reshape(-1)
        sub = self.bank[row_ids] & axes[None, :]
        self.inc_stats.rows_tested += len(sids)
        feasible = sub.any(axis=1)
        keep_shapes = [sid for sid, ok in zip(sids, feasible) if ok]
        if not keep_shapes:
            raise Inconsistent(
                f"placement-kernel: {item.module.name} has no feasible anchor"
            )
        shape = (
            (self.H, self.W)
            if item.t is None
            else (self.T, self.H, self.W)
        )
        union = sub[feasible].any(axis=0).reshape(shape)
        changed = item.s.set_domain(Domain(keep_shapes), cause=self)
        changed |= self._narrow_axes(item, union)
        return changed

    # ------------------------------------------------------------------
    # Queries used by branching and reporting
    # ------------------------------------------------------------------
    def anchors_for(self, index: int) -> List[Tuple[int, int, int]]:
        """Feasible (shape, x, y) triples of one module, bottom-left first.

        Sorted by x, then y, then shape index — the value order that drives
        the min-extent objective fastest (Eq. 6 minimizes the x extent).
        """
        item = self.items[index]
        if item.t is not None:
            # temporal kernel: (shape, x, y, t) quadruples, earliest first
            quads: List[Tuple[int, int, int, int]] = []
            for sid in item.s.domain:
                ts_, ys, xs = np.nonzero(self._shape_allowed(item, sid))
                quads.extend(
                    (sid, int(x), int(y), int(t))
                    for x, y, t in zip(xs.tolist(), ys.tolist(), ts_.tolist())
                )
            quads.sort(key=lambda q: (q[3], q[1], q[2], q[0]))
            return quads
        out: List[Tuple[int, int, int]] = []
        for sid in item.s.domain:
            allowed = self._shape_allowed(item, sid)
            ys, xs = np.nonzero(allowed)
            out.extend(
                (sid, int(x), int(y)) for x, y in zip(xs.tolist(), ys.tolist())
            )
        out.sort(key=lambda t: (t[1], t[2], t[0]))
        return out

    def anchor_count(self, index: int) -> int:
        """Feasible anchors over all candidate shapes of one module.

        The fail-first branching heuristic asks this for every unfixed
        module at every node; in incremental mode the answer is cached and
        served as long as the mask bank (revision stamp) and all three
        domains (identity — Domains are immutable and restored by
        reference on backtrack, so holding them pins their ids) are the
        ones the entry was computed from.
        """
        item = self.items[index]
        xd, yd, sd = item.x.domain, item.y.domain, item.s.domain
        td = item.t.domain if item.t is not None else None
        if self.incremental:
            entry = self._count_cache.get(index)
            if (
                entry is not None
                and entry[0] == self._rev.current
                and entry[1] is xd
                and entry[2] is yd
                and entry[3] is sd
                and entry[5] is td
            ):
                self.inc_stats.reused += 1
                return entry[4]
        col, row = self._axis_masks(item)
        if item.t is not None:
            # temporal kernel: same boolean algebra as the batched prune,
            # summed instead of unioned (count_anchors is 2-D-specific)
            row_ids = [self._row_of[item.index][sid] for sid in sd]
            axes = (
                item.t.domain.to_bool_array(self.T)[:, None, None]
                & row[None, :, None]
                & col[None, None, :]
            ).reshape(-1)
            count = int((self.bank[row_ids] & axes[None, :]).sum())
            self.inc_stats.rows_tested += 1
        elif self.bitboard:
            row_ids = [self._row_of[item.index][sid] for sid in sd]
            stack = self.bank[row_ids].reshape(-1, self.H, self.W)
            count = int(count_anchors_batch(stack, col, row).sum())
            self.inc_stats.rows_tested += 1
        else:
            count = sum(
                count_anchors(
                    self.valid[item.index][sid].reshape(self.H, self.W),
                    col, row,
                )
                for sid in sd
            )
        if self.incremental:
            self._count_cache[index] = (
                self._rev.current, xd, yd, sd, count, td,
            )
        return count

    def occupied_mask(self) -> np.ndarray:
        """(H, W) occupancy, or the (T, H, W) volume for temporal runs."""
        if self.T is not None:
            return self.occupancy.reshape(self.T, self.H, self.W).copy()
        return self.occupancy.reshape(self.H, self.W).copy()

    def placements(self) -> List[PlacedModule]:
        """The currently fixed modules as placement records."""
        out = []
        for item in self.items:
            if item.is_fixed():
                out.append(
                    PlacedModule(
                        item.module,
                        item.s.value(),
                        item.x.value(),
                        item.y.value(),
                        item.t.value() if item.t is not None else None,
                    )
                )
        return out
