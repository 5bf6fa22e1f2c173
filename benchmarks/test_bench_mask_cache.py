"""Anchor-mask cache: model-construction speedup on the Table-I workload.

The acceptance bar from the caching issue: with a warmed
:class:`~repro.fabric.cache.AnchorMaskCache`, constructing the per-
iteration LNS subproblem model — a
:class:`~repro.fabric.region.NarrowedRegion` carving the frozen modules
out of the Table-I fabric (30 modules, 120 shapes) — must be at least 2x
faster than the uncached path, because the kernel derives every anchor
mask from the cached base-region masks with bitset shift-ORs instead of
running fresh cross-correlations.  The cache counters must surface in
the solve's :class:`~repro.obs.profile.SolveProfile` so the effect is
observable in production profiles, not just in this benchmark.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.placement_model import PlacementModel
from repro.core.result import PlacementResult
from repro.fabric.cache import AnchorMaskCache
from repro.fabric.region import NarrowedRegion
from repro.placer.greedy import BottomLeftPlacer


def _lns_iteration(region, modules, n_free: int = 8, seed: int = 0):
    """(sub_region, free_modules) exactly as one LNS iteration builds them.

    An incumbent comes from the bottom-left heuristic; a random
    neighborhood is unfrozen and the remaining placements' cells are
    blocked — so the subproblem is guaranteed feasible (the free modules
    fit at their incumbent spots).
    """
    incumbent = BottomLeftPlacer().place(region, modules)
    assert incumbent.all_placed
    rng = random.Random(seed)
    free = set(rng.sample(range(len(modules)), n_free))
    frozen = [p for i, p in enumerate(incumbent.placements) if i not in free]
    blocked = PlacementResult(region, frozen).occupancy_mask()
    sub = NarrowedRegion(region, blocked, f"{region.name}-lns")
    free_modules = [incumbent.placements[i].module for i in sorted(free)]
    return sub, free_modules


def _median_time(build, repeats: int = 7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_cached_subproblem_construction_speedup(report, table1_instance):
    region, modules = table1_instance
    sub, free_modules = _lns_iteration(region, modules)

    cache = AnchorMaskCache()
    cache.warm(region, modules)  # what the LNS initial solve amounts to

    uncached = _median_time(lambda: PlacementModel(sub, free_modules))
    cached = _median_time(
        lambda: PlacementModel(sub, free_modules, cache=cache)
    )
    speedup = uncached / cached

    # the portfolio-worker shape of the win: the full 30-module model on
    # the warmed base region (no narrowing, pure hits)
    base_uncached = _median_time(lambda: PlacementModel(region, modules))
    base_cached = _median_time(
        lambda: PlacementModel(region, modules, cache=cache)
    )

    report(
        "Anchor-mask cache: model construction (Table-I, 30 modules)",
        f"LNS subproblem ({len(free_modules)} free modules)\n"
        f"  uncached {uncached * 1e3:8.2f} ms   (fresh cross-correlations)\n"
        f"  cached   {cached * 1e3:8.2f} ms   (incremental narrowing)\n"
        f"  speedup  {speedup:8.2f}x  (acceptance >= 2x)\n"
        f"full base model (30 modules, 120 shapes)\n"
        f"  uncached {base_uncached * 1e3:8.2f} ms\n"
        f"  cached   {base_cached * 1e3:8.2f} ms   "
        f"({base_uncached / base_cached:.2f}x)\n"
        f"cache      {cache.stats()}",
    )
    assert speedup >= 2.0, f"cache speedup only {speedup:.2f}x"
    assert cache.hits > 0 and cache.narrowed > 0


def test_cache_counters_surface_in_solve_profile(report, table1_instance):
    region, modules = table1_instance
    sub, free_modules = _lns_iteration(region, modules, seed=1)
    cache = AnchorMaskCache()
    cache.warm(region, modules)

    placer = CPPlacer(
        PlacerConfig(
            time_limit=2.0, first_solution_only=True, profile=True,
            cache=cache,
        )
    )
    result = placer.place(sub, free_modules)
    profile = result.stats["profile"]
    counts = profile.counts()
    report(
        "Cache counters in SolveProfile",
        f"cache_hits     {counts['cache_hits']:6d}\n"
        f"cache_misses   {counts['cache_misses']:6d}\n"
        f"cache_narrowed {counts['cache_narrowed']:6d}",
    )
    assert counts["cache_hits"] > 0
    assert counts["cache_misses"] == 0  # fully warmed: no recomputation
    assert counts["cache_narrowed"] > 0
    assert profile.to_dict()["cache_hits"] == counts["cache_hits"]
