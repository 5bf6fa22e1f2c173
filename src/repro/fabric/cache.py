"""Anchor-mask caching: memoized M_a ∧ M_b computation.

The placement maths of Eqs. 2-3 is *static* per (region, footprint): a
valid-anchor mask depends only on the fabric contents, the reconfigurable
mask and the footprint's cell set.  Yet the hot paths rebuild placement
models constantly — every LNS iteration constructs a fresh
:class:`~repro.geost.placement.PlacementKernel`, and every portfolio
member repeats the identical base-region computation in its own process.
Dynamic-placement workloads are dominated by exactly this repeated
free-space recomputation (cf. the defragmentation line of Fekete et al.),
so this module memoizes it:

* :class:`AnchorMaskCache` maps ``(region fingerprint, footprint
  signature)`` to the finished :func:`~repro.fabric.masks.valid_anchor_mask`
  array (stored read-only; consumers copy into their own mutable banks),
  and caches :func:`~repro.fabric.masks.compatibility_masks` per region so
  a miss only pays the cross-correlation, never the per-resource setup.
* :func:`region_fingerprint` / :func:`footprint_signature` define the keys:
  pure content hashes, so two structurally identical regions (e.g. the
  same payload deserialized in two worker processes) share entries and the
  region's *name* never matters.

The cache is unbounded *by default*: an offline placement run works
against a handful of fabrics and a module library whose footprints number
in the hundreds, so the working set is small and eviction would only add
a way to lose the hits this layer exists to provide.  Long-running shard
workers are different — the runtime manager probes every arrival against
the current *residual* region, whose fingerprint changes with every
admission and departure, so entries accumulate without bound over a long
serving run.  For that consumer the cache takes an opt-in LRU
``capacity``; evictions are counted (``evictions``) and surface in the
``cache.masks`` trace event and the
:class:`~repro.obs.profile.SolveProfile` so memory pressure is
observable, and the default stays unbounded so existing pins are
bit-identical.

The *incremental* consumer of this cache is the kernel itself: for an LNS
sub-region (:class:`~repro.fabric.region.NarrowedRegion`) the kernel
fetches the cached **base**-region masks and narrows them with the frozen
modules' cells via its batched difference-of-coordinates update, instead
of recomputing every cross-correlation against the carved-up region.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.fabric.masks import compatibility_masks, valid_anchor_mask
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType

if TYPE_CHECKING:  # avoid a fabric -> modules import at runtime
    from repro.modules.footprint import Footprint

#: content hash of a region (grid cells + reconfigurable mask + dims)
RegionKey = bytes
#: canonical hashable identity of a footprint's cell set
FootprintKey = frozenset


def region_fingerprint(region: PartialRegion) -> RegionKey:
    """Content hash of a region: identical fabrics share cache entries.

    Hashes the dense resource grid and the reconfigurable mask (shape
    included via the raw dimensions); the region *name* is deliberately
    excluded so ``pr`` and ``pr-lns`` with identical cells collide — which
    is exactly what a cache keyed on placement maths wants.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(region.width).tobytes())
    h.update(region.grid.cells.tobytes())
    h.update(np.packbits(region.reconfigurable).tobytes())
    return h.digest()


def footprint_signature(footprint: "Footprint") -> FootprintKey:
    """Hashable identity of a footprint: its normalized typed cell set."""
    return footprint.cells


class AnchorMaskCache:
    """Memoizes valid-anchor masks and compatibility masks per region.

    One cache instance is intended per *process* (the portfolio creates one
    per worker; the LNS driver one per ``place`` call unless handed a
    shared instance).  Entries are stored write-protected and returned as
    views — callers that mutate masks (the kernel's non-overlap narrowing)
    copy them into their own bank first, which :func:`numpy.stack` already
    does.

    Counters (``hits``/``misses``/``narrowed``/``evictions``) are
    cumulative; consumers snapshot them around a model construction to
    attribute deltas (see :meth:`snapshot` / :meth:`delta`).

    ``capacity`` (None = unbounded, the default) turns the mask store into
    an LRU: a hit refreshes the entry, an insert past capacity evicts the
    least recently used mask.  The per-region compatibility masks are
    bounded by the same capacity (they are the larger entries for a
    runtime shard worker, one dict of per-resource planes per residual
    fingerprint); both kinds of eviction count into ``evictions``.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._masks: "OrderedDict[Tuple[RegionKey, FootprintKey], np.ndarray]" = (
            OrderedDict()
        )
        self._compat: "OrderedDict[RegionKey, Dict[ResourceType, np.ndarray]]" = (
            OrderedDict()
        )
        #: derived-artifact memo (see :meth:`memo`)
        self._aux: "OrderedDict[Tuple, object]" = OrderedDict()
        #: anchor-mask lookups served from the cache
        self.hits = 0
        #: anchor-mask lookups that had to run the cross-correlation
        self.misses = 0
        #: mask rows derived incrementally from cached base-region masks
        #: (maintained by the kernel via :meth:`note_narrowed`)
        self.narrowed = 0
        #: entries dropped by the LRU bound (0 while unbounded)
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def region_key(self, region: PartialRegion) -> RegionKey:
        return region_fingerprint(region)

    def compat(
        self, region: PartialRegion, region_key: Optional[RegionKey] = None
    ) -> Dict[ResourceType, np.ndarray]:
        """Cached :func:`compatibility_masks` of one region."""
        key = region_key if region_key is not None else self.region_key(region)
        found = self._compat.get(key)
        if found is None:
            found = compatibility_masks(region)
            self._compat[key] = found
            if self.capacity is not None:
                while len(self._compat) > self.capacity:
                    self._compat.popitem(last=False)
                    self.evictions += 1
        elif self.capacity is not None:
            self._compat.move_to_end(key)
        return found

    def anchor_mask(
        self,
        region: PartialRegion,
        footprint: "Footprint",
        region_key: Optional[RegionKey] = None,
    ) -> np.ndarray:
        """Cached ``valid_anchor_mask`` for one (region, footprint) pair.

        Returns a read-only (H, W) boolean array; copy before mutating.
        """
        key = region_key if region_key is not None else self.region_key(region)
        entry = (key, footprint_signature(footprint))
        mask = self._masks.get(entry)
        if mask is not None:
            self.hits += 1
            if self.capacity is not None:
                self._masks.move_to_end(entry)
            return mask
        self.misses += 1
        mask = valid_anchor_mask(
            region, sorted(footprint.cells), self.compat(region, key)
        )
        mask.setflags(write=False)
        self._store(entry, mask)
        return mask

    def _store(
        self, entry: Tuple[RegionKey, FootprintKey], mask: np.ndarray
    ) -> None:
        self._masks[entry] = mask
        if self.capacity is not None:
            while len(self._masks) > self.capacity:
                self._masks.popitem(last=False)
                self.evictions += 1

    def memo(self, key: Tuple, build: "Callable[[], object]") -> object:
        """Cached derived artifact keyed by an arbitrary hashable tuple.

        The temporal placement path memoizes objects that, like the anchor
        masks, depend only on fabric content — the per-(region, horizon)
        forbidden-region list and per-(footprint, duration) shape
        extrusions — without this module having to know their types (which
        live in ``repro.geost``; importing them here would cycle).  Lookups
        count into the same ``hits``/``misses`` counters the masks use and
        the store honors the same LRU ``capacity``.  Entries are returned
        by reference: consumers must treat them as immutable, exactly like
        the read-only mask arrays.
        """
        found = self._aux.get(key)
        if found is not None:
            self.hits += 1
            if self.capacity is not None:
                self._aux.move_to_end(key)
            return found
        self.misses += 1
        found = build()
        self._aux[key] = found
        if self.capacity is not None:
            while len(self._aux) > self.capacity:
                self._aux.popitem(last=False)
                self.evictions += 1
        return found

    def warm(self, region: PartialRegion, modules: Iterable) -> int:
        """Precompute every shape's mask for one region; returns the count.

        Used by portfolio workers so all subsequent model constructions —
        including the very first — run entirely on hits.
        """
        key = self.region_key(region)
        n = 0
        for module in modules:
            for fp in module.shapes:
                self.anchor_mask(region, fp, region_key=key)
                n += 1
        return n

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def note_narrowed(self, rows: int) -> None:
        """Record ``rows`` mask rows derived incrementally (not recomputed)."""
        self.narrowed += rows

    def __len__(self) -> int:
        return len(self._masks)

    def snapshot(self) -> Tuple[int, int, int, int]:
        """Current (hits, misses, narrowed, evictions) counter values."""
        return (self.hits, self.misses, self.narrowed, self.evictions)

    def delta(self, snapshot: Tuple[int, ...]) -> Dict[str, int]:
        """Counter increments since ``snapshot`` (from :meth:`snapshot`)."""
        h0, m0, n0 = snapshot[:3]
        e0 = snapshot[3] if len(snapshot) > 3 else 0
        return {
            "hits": self.hits - h0,
            "misses": self.misses - m0,
            "narrowed": self.narrowed - n0,
            "evictions": self.evictions - e0,
        }

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "narrowed": self.narrowed,
            "evictions": self.evictions,
            "entries": len(self._masks),
        }

    def __repr__(self) -> str:
        return (
            f"AnchorMaskCache(entries={len(self._masks)}, hits={self.hits}, "
            f"misses={self.misses}, narrowed={self.narrowed}, "
            f"evictions={self.evictions})"
        )
