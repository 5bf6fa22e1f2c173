"""Anchor-mask caching: memoized M_a ∧ M_b computation.

The placement maths of Eqs. 2-3 is *static* per (region, footprint): a
valid-anchor mask depends only on the fabric contents, the reconfigurable
mask and the footprint's cell set.  Yet the hot paths rebuild placement
models constantly — every LNS iteration constructs a fresh
:class:`~repro.geost.placement.PlacementKernel`, every runtime admission
probes a residual region, every defrag move probes the fabric with one
module lifted.  Dynamic-placement workloads are dominated by exactly this
repeated free-space recomputation (cf. the defragmentation line of Fekete
et al.), so this module memoizes it:

* :class:`AnchorMaskCache` maps ``(region fingerprint, footprint
  signature)`` to the finished :func:`~repro.fabric.masks.valid_anchor_mask`
  array (stored read-only; consumers copy into their own mutable banks),
  and caches :func:`~repro.fabric.masks.compatibility_masks` per region so
  a miss only pays the cross-correlation, never the per-resource setup.
* :func:`region_fingerprint` / :func:`footprint_signature` define the keys:
  pure content hashes, so two structurally identical regions (e.g. the
  same shard geometry cut at two offsets) share entries and the region's
  *name* never matters.
* :meth:`AnchorMaskCache.anchor_masks` is the lookup: every footprint a
  caller needs on one region in one call, so the region is hashed once
  per call rather than once per footprint;
  :meth:`~AnchorMaskCache.anchor_mask` is its one-footprint form.

A residual — a base region minus blocked cells — is always a
:class:`~repro.fabric.region.NarrowedRegion`, and the cache answers it
from the *base* region's entry narrowed by the blocked cells
(:func:`~repro.fabric.masks.narrowed_anchor_mask`) without storing the
result.  Entries therefore number at most the distinct (base region,
footprint) pairs a process sees: a shard fabric and its module library,
however long a serving run lasts.  ``capacity`` still turns the stores
into LRUs for processes that see unboundedly many base regions or
footprints; evictions are counted (``evictions``) and surface in the
``cache.masks`` trace event and the
:class:`~repro.obs.profile.SolveProfile`.  The default is unbounded.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple,
)

import numpy as np

from repro.fabric.masks import (
    compatibility_masks,
    narrowed_anchor_mask,
    valid_anchor_mask,
)
from repro.fabric.region import NarrowedRegion, PartialRegion
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

    One cache instance is intended per *process* (the sharded service
    shares one across its shards; the LNS driver creates one per
    ``place`` call unless handed a shared instance).  Entries are stored
    write-protected and returned as views — callers that mutate masks (the kernel's non-overlap narrowing)
    copy them into their own bank first, which :func:`numpy.stack` already
    does.

    Counters (``hits``/``misses``/``narrowed``/``evictions``) are
    cumulative; consumers snapshot them around a model construction to
    attribute deltas (see :meth:`snapshot` / :meth:`delta`).

    ``capacity`` (None = unbounded, the default) turns the mask store into
    an LRU: a hit refreshes the entry, an insert past capacity evicts the
    least recently used mask.  The per-region compatibility masks (one
    dict of per-resource planes per base region) are bounded by the same
    capacity; both kinds of eviction count into ``evictions``.
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
        #: lookups answered by narrowing a base-region mask
        #: (:class:`~repro.fabric.region.NarrowedRegion` regions)
        self.narrowed = 0
        #: entries dropped by the LRU bound (0 while unbounded)
        self.evictions = 0

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def region_key(self, region: PartialRegion) -> RegionKey:
        return region_fingerprint(region)

    def compat(self, region: PartialRegion) -> Dict[ResourceType, np.ndarray]:
        """Cached :func:`compatibility_masks` of one region."""
        return self._compat_of(region, self.region_key(region))

    def _compat_of(
        self, region: PartialRegion, key: RegionKey
    ) -> Dict[ResourceType, np.ndarray]:
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

    def anchor_masks(
        self, region: PartialRegion, footprints: Iterable["Footprint"]
    ) -> List[np.ndarray]:
        """Cached ``valid_anchor_mask`` of each footprint on one region.

        The region is hashed once per call.  A
        :class:`~repro.fabric.region.NarrowedRegion` is hashed on its
        base region, whose entry answers each lookup — counted as that
        entry's hit or miss — narrowed by the blocked plane and counted
        once per footprint under ``narrowed``; nothing is stored for the
        narrowed region itself.

        Returns read-only (H, W) boolean arrays in ``footprints`` order;
        copy before mutating.
        """
        narrowed = isinstance(region, NarrowedRegion)
        base = region.base if narrowed else region
        key = self.region_key(base)
        masks = []
        for footprint in footprints:
            mask = self._base_mask(base, footprint, key)
            if narrowed:
                self.narrowed += 1
                mask = narrowed_anchor_mask(
                    mask, region.blocked_bits, footprint.cells
                )
                mask.setflags(write=False)
            masks.append(mask)
        return masks

    def anchor_mask(
        self, region: PartialRegion, footprint: "Footprint"
    ) -> np.ndarray:
        """One footprint's :meth:`anchor_masks` entry."""
        return self.anchor_masks(region, (footprint,))[0]

    def _base_mask(
        self, region: PartialRegion, footprint: "Footprint", key: RegionKey
    ) -> np.ndarray:
        entry = (key, footprint_signature(footprint))
        mask = self._masks.get(entry)
        if mask is not None:
            self.hits += 1
            if self.capacity is not None:
                self._masks.move_to_end(entry)
            return mask
        self.misses += 1
        mask = valid_anchor_mask(
            region, sorted(footprint.cells), self._compat_of(region, key)
        )
        mask.setflags(write=False)
        self._masks[entry] = mask
        if self.capacity is not None:
            while len(self._masks) > self.capacity:
                self._masks.popitem(last=False)
                self.evictions += 1
        return mask

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

        Warming a shard region with its module library makes every later
        lookup on that region, and on every residual narrowed from it, a
        hit — including the very first.
        """
        shapes = [fp for module in modules for fp in module.shapes]
        self.anchor_masks(region, shapes)
        return len(shapes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
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
