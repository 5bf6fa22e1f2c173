"""Anchor-mask cache: keys, hit accounting, and the incremental path.

The load-bearing guarantee is *bit-identity*: a mask served from the
cache — or derived incrementally from cached base-region masks for a
:class:`~repro.fabric.region.NarrowedRegion` — must equal the mask a
fresh cross-correlation would produce, anchor for anchor.  The
differential suite below checks that across 30 seeded (region,
frozen-set, module-library) instances, at both the single-mask level and
the assembled kernel-bank level, and ``TestNarrowedLookups`` pins
narrowed lookups against the per-anchor brute-force oracle on the
blocked sets that stress the shift algebra's row-edge wraparound.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cp.model import Model
from repro.fabric.cache import (
    AnchorMaskCache,
    footprint_signature,
    region_fingerprint,
)
from repro.fabric.devices import irregular_device
from repro.fabric.masks import brute_force_anchor_mask, valid_anchor_mask
from repro.fabric.region import NarrowedRegion, PartialRegion
from repro.geost.placement import PlacementKernel
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator


def build_kernel(region, modules, cache=None):
    m = Model()
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    return PlacementKernel(region, modules, xs, ys, ss, cache=cache)


def plane(region, yx):
    """The blocked plane of ``region`` with the (y, x) cells ``yx`` set."""
    yx = np.asarray(yx, dtype=np.int64).reshape(-1, 2)
    out = np.zeros((region.height, region.width), dtype=bool)
    out[yx[:, 0], yx[:, 1]] = True
    return out


def random_instance(seed: int):
    """One differential instance: (region, modules, blocked plane)

    The frozen set mimics what the LNS driver freezes: a batch of cells
    inside the allowed area (drawn at random, which is strictly more
    varied than real placements — any blocked subset must narrow
    identically).
    """
    rng = random.Random(seed)
    region = PartialRegion.whole_device(
        irregular_device(
            rng.choice([24, 32, 48]), rng.choice([8, 12, 16]),
            seed=rng.randrange(1 << 16),
        )
    )
    cfg = GeneratorConfig(clb_min=6, clb_max=18, bram_max=1,
                          height_min=2, height_max=4)
    modules = ModuleGenerator(seed=seed, config=cfg).generate_set(
        rng.randint(2, 5)
    )
    allowed = np.argwhere(region.allowed_mask())
    n_blocked = rng.randint(0, min(60, len(allowed)))
    idx = rng.sample(range(len(allowed)), n_blocked)
    return region, modules, plane(region, allowed[idx])


class TestKeys:
    def test_fingerprint_ignores_name_not_content(self):
        grid = irregular_device(16, 8, seed=3)
        a = PartialRegion.whole_device(grid, name="a")
        b = PartialRegion.whole_device(grid, name="something-else")
        assert region_fingerprint(a) == region_fingerprint(b)
        c = PartialRegion.with_static_box(grid, 0, 0, 2, 2, name="a")
        assert region_fingerprint(a) != region_fingerprint(c)

    def test_fingerprint_depends_on_grid_cells(self):
        a = PartialRegion.whole_device(irregular_device(16, 8, seed=3))
        b = PartialRegion.whole_device(irregular_device(16, 8, seed=4))
        assert region_fingerprint(a) != region_fingerprint(b)

    def test_footprint_signature_is_cell_identity(self):
        a = Footprint.rectangle(2, 3)
        b = Footprint.rectangle(2, 3)
        c = Footprint.rectangle(3, 2)
        assert footprint_signature(a) == footprint_signature(b)
        assert footprint_signature(a) != footprint_signature(c)


class TestCacheLookups:
    def test_hit_returns_identical_mask(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=1))
        fp = Footprint.rectangle(3, 2)
        cache = AnchorMaskCache()
        first = cache.anchor_mask(region, fp)
        again = cache.anchor_mask(region, fp)
        assert cache.misses == 1 and cache.hits == 1
        assert again is first  # the memoized array itself
        fresh = valid_anchor_mask(region, sorted(fp.cells))
        assert np.array_equal(first, fresh)

    def test_cached_masks_are_write_protected(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=1))
        cache = AnchorMaskCache()
        mask = cache.anchor_mask(region, Footprint.rectangle(2, 2))
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_structurally_equal_regions_share_entries(self):
        """Two deserialized copies of one payload hit the same entries."""
        grid = irregular_device(24, 8, seed=5)
        r1 = PartialRegion.whole_device(grid.copy(), name="worker-1")
        r2 = PartialRegion.whole_device(grid.copy(), name="worker-2")
        cache = AnchorMaskCache()
        fp = Footprint.rectangle(4, 2)
        cache.anchor_mask(r1, fp)
        cache.anchor_mask(r2, fp)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "narrowed": 0, "evictions": 0,
            "entries": 1,
        }

    def test_warm_precomputes_every_shape(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=2))
        modules = ModuleGenerator(seed=3).generate_set(4)
        cache = AnchorMaskCache()
        n = cache.warm(region, modules)
        assert n == sum(m.n_alternatives for m in modules)
        assert cache.misses == len(cache) <= n  # duplicates share entries
        before = cache.misses
        cache.warm(region, modules)
        assert cache.misses == before  # second warm is all hits


class TestDifferential:
    """Cached/incremental masks are bit-identical to fresh computation."""

    @pytest.mark.parametrize("seed", range(30))
    def test_incremental_bank_matches_fresh_bank(self, seed):
        region, modules, blocked = random_instance(seed)
        sub = NarrowedRegion(region, blocked, f"{region.name}-lns")
        # reference: an uncached kernel over a structurally identical
        # plain region (fresh cross-correlation against the carved fabric)
        plain = PartialRegion(region.grid, sub.reconfigurable, "plain")
        reference = build_kernel(plain, modules, cache=None)

        cache = AnchorMaskCache()
        cache.warm(region, modules)  # the LNS initial solve does this
        incremental = build_kernel(sub, modules, cache=cache)

        assert incremental.cache_stats["misses"] == 0
        assert incremental.cache_stats["narrowed"] == len(reference.bank)
        assert np.array_equal(incremental.bank, reference.bank)
        for inc_rows, ref_rows in zip(incremental.valid, reference.valid):
            for inc_mask, ref_mask in zip(inc_rows, ref_rows):
                assert np.array_equal(inc_mask, ref_mask)

    @pytest.mark.parametrize("seed", range(30, 40))
    def test_cached_single_masks_match_fresh(self, seed):
        region, modules, blocked = random_instance(seed)
        sub = NarrowedRegion(region, blocked, "sub")
        cache = AnchorMaskCache()
        for mod in modules:
            for fp in mod.shapes:
                cached = cache.anchor_mask(region, fp)
                assert np.array_equal(
                    cached, valid_anchor_mask(region, sorted(fp.cells))
                )
                # the narrowed region served as a *plain* region (no base
                # lineage used) must also be exact
                assert np.array_equal(
                    cache.anchor_mask(sub, fp),
                    valid_anchor_mask(sub, sorted(fp.cells)),
                )

    def test_cold_cache_incremental_path_is_still_exact(self):
        """Unwarmed cache + NarrowedRegion: misses, but identical masks."""
        region, modules, blocked = random_instance(99)
        sub = NarrowedRegion(region, blocked, "cold")
        plain = PartialRegion(region.grid, sub.reconfigurable, "plain")
        cache = AnchorMaskCache()
        incremental = build_kernel(sub, modules, cache=cache)
        reference = build_kernel(plain, modules, cache=None)
        assert incremental.cache_stats["hits"] == 0
        assert incremental.cache_stats["misses"] > 0
        assert np.array_equal(incremental.bank, reference.bank)


def _blocked_sets(region, rng):
    """Named blocked-cell sets over one base: the edge cases the shift-OR
    narrowing's wraparound argument must survive, plus random draws (any
    cell may be blocked, reconfigurable or not)."""
    H, W = region.height, region.width
    every = np.argwhere(np.ones((H, W), dtype=bool)).astype(np.int64)
    sets = {
        "empty": np.empty((0, 2), dtype=np.int64),
        "right-edge-column": every[every[:, 1] == W - 1],
        "top-row": every[every[:, 0] == H - 1],
        "left-column-and-bottom-row": every[
            (every[:, 1] == 0) | (every[:, 0] == 0)
        ],
        "all": every,
        "random-sparse": every[rng.sample(range(len(every)), H * W // 10)],
        "random-dense": every[rng.sample(range(len(every)), H * W // 2)],
    }
    return {name: plane(region, yx) for name, yx in sets.items()}


def _random_footprints(rng, seed):
    cfg = GeneratorConfig(clb_min=3, clb_max=12, bram_max=1,
                          height_min=1, height_max=4)
    fps = [
        fp
        for m in ModuleGenerator(seed=seed, config=cfg).generate_set(2)
        for fp in m.shapes
    ]
    # a scattered footprint: cells far apart in both axes, so row-edge
    # wraparound bits reach well past the anchor's own row
    cells = {(0, 0, ResourceType.CLB)} | {
        (rng.randrange(6), rng.randrange(4), ResourceType.CLB)
        for _ in range(4)
    }
    fps.append(Footprint(cells))
    fps.append(Footprint.rectangle(1, 1))
    return fps


class TestNarrowedLookups:
    """``anchor_mask`` on a NarrowedRegion vs the per-anchor oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_narrowed_masks_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        grid = irregular_device(
            rng.choice([12, 16, 21]), rng.choice([5, 8]),
            seed=rng.randrange(1 << 16),
        )
        base = (
            PartialRegion.whole_device(grid)
            if seed % 2
            else PartialRegion.with_static_box(grid, 2, 1, 3, 2)
        )
        cache = AnchorMaskCache()
        for name, blocked in _blocked_sets(base, rng).items():
            sub = NarrowedRegion(base, blocked, name)
            for fp in _random_footprints(rng, seed):
                got = cache.anchor_mask(sub, fp)
                want = brute_force_anchor_mask(sub, sorted(fp.cells))
                assert np.array_equal(got, want), (name, sorted(fp.cells))
                assert not got.flags.writeable

    def test_nested_narrowing_keeps_one_lineage_level(self):
        base = PartialRegion.whole_device(irregular_device(16, 8, seed=4))
        inner = NarrowedRegion(base, plane(base, [[0, 0], [2, 3]]))
        outer = NarrowedRegion(inner, plane(base, [[5, 7]]))
        assert outer.base is base
        assert not outer.reconfigurable[[0, 2, 5], [0, 3, 7]].any()
        fp = Footprint.rectangle(2, 2)
        assert np.array_equal(
            AnchorMaskCache().anchor_mask(outer, fp),
            brute_force_anchor_mask(outer, sorted(fp.cells)),
        )

    def test_counters_hit_the_base_entry_and_store_nothing_else(self):
        base = PartialRegion.whole_device(irregular_device(16, 8, seed=2))
        fp = Footprint.rectangle(3, 2)
        cache = AnchorMaskCache()
        a = NarrowedRegion(base, plane(base, [[1, 1]]))
        b = NarrowedRegion(base, plane(base, [[4, 9], [7, 15]]))
        cache.anchor_mask(a, fp)  # cold: the base entry misses
        assert cache.stats() == {
            "hits": 0, "misses": 1, "narrowed": 1, "evictions": 0,
            "entries": 1,
        }
        cache.anchor_mask(b, fp)  # another residual: a base hit
        cache.anchor_mask(base, fp)  # the base itself: a plain hit
        assert cache.stats() == {
            "hits": 2, "misses": 1, "narrowed": 2, "evictions": 0,
            "entries": 1,
        }
        assert len(cache._compat) == 1


class TestLRUCapacity:
    """Opt-in bounded mode: eviction order, counters, unbounded default."""

    def _regions(self, n):
        # distinct widths: structurally distinct fingerprints guaranteed
        # (same-size irregular devices can collide across seeds)
        return [
            PartialRegion.whole_device(irregular_device(16 + 4 * s, 8, seed=s))
            for s in range(n)
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnchorMaskCache(capacity=0)
        with pytest.raises(ValueError):
            AnchorMaskCache(capacity=-3)
        AnchorMaskCache(capacity=1)  # fine
        AnchorMaskCache(capacity=None)  # fine (unbounded default)

    def test_mask_store_evicts_least_recently_used(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=7))
        cache = AnchorMaskCache(capacity=2)
        a, b, c = (Footprint.rectangle(w, 2) for w in (2, 3, 4))
        cache.anchor_mask(region, a)
        cache.anchor_mask(region, b)
        cache.anchor_mask(region, a)  # refresh a: b is now the LRU entry
        cache.anchor_mask(region, c)  # evicts b
        assert cache.evictions >= 1
        misses = cache.misses
        cache.anchor_mask(region, a)  # survived — a hit
        assert cache.misses == misses
        cache.anchor_mask(region, b)  # evicted — recomputed
        assert cache.misses == misses + 1

    def test_evicted_mask_recomputes_bit_identically(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=8))
        fp = Footprint.rectangle(3, 2)
        cache = AnchorMaskCache(capacity=1)
        first = cache.anchor_mask(region, fp).copy()
        cache.anchor_mask(region, Footprint.rectangle(5, 2))  # evicts fp
        again = cache.anchor_mask(region, fp)
        assert np.array_equal(first, again)

    def test_compat_store_is_bounded_too(self):
        regions = self._regions(4)
        cache = AnchorMaskCache(capacity=2)
        for r in regions:
            cache.compat(r)
        assert len(cache._compat) == 2
        assert cache.evictions >= 2

    def test_unbounded_default_never_evicts(self):
        regions = self._regions(5)
        cache = AnchorMaskCache()
        for r in regions:
            for w in (2, 3, 4):
                cache.anchor_mask(r, Footprint.rectangle(w, 2))
        assert cache.evictions == 0
        assert len(cache) == 15

    def test_eviction_counter_flows_through_delta_and_stats(self):
        region = PartialRegion.whole_device(irregular_device(24, 8, seed=9))
        cache = AnchorMaskCache(capacity=1)
        snap = cache.snapshot()
        cache.anchor_mask(region, Footprint.rectangle(2, 2))
        cache.anchor_mask(region, Footprint.rectangle(3, 2))
        d = cache.delta(snap)
        assert d["evictions"] == cache.evictions > 0
        assert cache.stats()["evictions"] == cache.evictions
        # old 3-tuple snapshots (pre-eviction consumers) still work
        assert cache.delta((0, 0, 0))["misses"] == 2


class TestNarrowedRegion:
    def test_blocks_cells_and_keeps_lineage(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        blocked = plane(region, [[0, 0], [3, 5]])
        sub = NarrowedRegion(region, blocked, "sub")
        assert not sub.reconfigurable[0, 0] and not sub.reconfigurable[3, 5]
        assert sub.base is region
        assert sub.available_area() == region.available_area() - 2

    def test_empty_block_set_is_identity(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        sub = NarrowedRegion(region, plane(region, []))
        assert np.array_equal(sub.reconfigurable, region.reconfigurable)
        assert sub.name == f"{region.name}-narrowed"

    def test_out_of_bounds_blocks_rejected(self):
        region = PartialRegion.whole_device(irregular_device(16, 8, seed=1))
        with pytest.raises(ValueError):
            NarrowedRegion(region, np.zeros((9, 16), dtype=bool))  # H + 1
        with pytest.raises(ValueError):
            NarrowedRegion(region, np.zeros((8, 15), dtype=bool))  # W - 1
