"""Differential suite: incremental geost vs the wholesale oracle.

The incremental mode (dirty-object maintenance, trail-aware caches,
bitboard fast path) must be *observationally identical* to wholesale
re-filtering: per-object filtering is monotone, so chaotic iteration
reaches the same least fixpoint under any fair processing order, and both
modes therefore produce bit-identical search trees — not just the same
solutions.

100 seeded random instances (``tests.support.random_small_instance``) are
enumerated with both modes of the vectorized
:class:`~repro.geost.placement.PlacementKernel`, comparing complete
solution sets plus the search-tree counters (nodes, backtracks,
solutions, max depth) and the engine failure count.  A subset repeats the
check with the reference interval :class:`~repro.geost.kernel.Geost`
(slower: heterogeneity as 1x1 typed regions), and the backend layer is
exercised end-to-end through ``cp``, ``temporal-cp``, ``lns`` and
``portfolio`` (one in-process worker) on every rung of the oracle
ladder, with the :class:`~repro.geost.incremental.KernelOptions` value
threaded through :class:`~repro.core.backend.protocol.PlacementRequest`
or the placer config.
"""

from __future__ import annotations

import pytest

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.cp.search import DepthFirstSearch
from repro.geost.incremental import KernelOptions
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.placement import PlacementKernel
from repro.geost.shapes import ShapeTable

from tests.support import (
    build_kernel,
    fabric_to_forbidden_regions,
    random_small_instance,
)

#: the order-independent fingerprint of one enumeration run
_STAT_KEYS = ("nodes", "backtracks", "solutions", "max_depth", "failures")


def _kernel_run(region, modules, incremental):
    """(solution set, stats fingerprint, inc stats) for one kernel mode."""
    m = Model()
    try:
        kernel, xs, ys, ss = build_kernel(
            m, region, modules, kernel=KernelOptions(incremental=incremental)
        )
    except Inconsistent:
        return set(), ("root-infeasible",), None
    dv = []
    for x, y, s in zip(xs, ys, ss):
        dv.extend([x, y, s])
    search = DepthFirstSearch(m.engine, dv)
    sols = {
        tuple(
            (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(len(modules))
        )
        for sol in search.all_solutions()
    }
    st = search.stats
    fingerprint = (
        st.nodes, st.backtracks, st.solutions, st.max_depth,
        m.engine.stats.failures,
    )
    return sols, fingerprint, kernel.inc_stats


def _geost_run(region, modules, incremental):
    """Same fingerprint for the reference interval kernel."""
    kinds = {
        k for mod in modules for fp in mod.shapes for _, _, k in fp.cells
    }
    regions = fabric_to_forbidden_regions(region, kinds)
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    for i, mod in enumerate(modules):
        sids = [table.add_footprint(fp) for fp in mod.shapes]
        x = m.int_var(0, region.width - 1, f"x{i}")
        y = m.int_var(0, region.height - 1, f"y{i}")
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, [x, y], s, table))
        dv.extend([x, y, s])
    try:
        m.post(
            Geost(objects, regions, kernel=KernelOptions(incremental=incremental))
        )
    except Inconsistent:
        return set(), ("root-infeasible",)
    search = DepthFirstSearch(m.engine, dv)
    sols = {tuple(sol[v.name] for v in dv) for sol in search.all_solutions()}
    st = search.stats
    return sols, (
        st.nodes, st.backtracks, st.solutions, st.max_depth,
        m.engine.stats.failures,
    )


@pytest.mark.parametrize("seed", range(100))
def test_placement_kernel_bit_identical(seed):
    region, modules = random_small_instance(seed)
    inc_sols, inc_stats, _ = _kernel_run(region, modules, incremental=True)
    ora_sols, ora_stats, _ = _kernel_run(region, modules, incremental=False)
    assert inc_sols == ora_sols, f"seed={seed}: solution sets differ"
    assert inc_stats == ora_stats, (
        f"seed={seed}: search trees differ "
        f"({dict(zip(_STAT_KEYS, inc_stats))} vs "
        f"{dict(zip(_STAT_KEYS, ora_stats))})"
    )


def test_incremental_mode_actually_reuses_work():
    """The equality above is not vacuous: the fast path really engages.

    Dirty-object filtering shows up in plain enumeration; anchor-count
    reuse needs the fail-first selector, so that leg runs through
    :class:`~repro.core.placer.CPPlacer` with profiling on — which also
    checks the ``geost_*`` profile counters land in the artifact.
    """
    from repro.core.placer import CPPlacer, PlacerConfig

    dirty = 0
    for seed in range(20):
        region, modules = random_small_instance(seed)
        _, _, inc = _kernel_run(region, modules, incremental=True)
        if inc is not None:
            dirty += inc.dirty
    assert dirty > 0

    # the 4x3 instances imprint at almost every node (each imprint bumps
    # the cache revision), so anchor-count reuse needs a deeper search: a
    # corridor with three polymorphic modules leaves several unplaced
    # modules per node whose domains are untouched between selections
    from repro.fabric.devices import homogeneous_device
    from repro.fabric.region import PartialRegion
    from repro.modules.footprint import Footprint
    from repro.modules.module import Module

    region = PartialRegion.whole_device(homogeneous_device(10, 4))
    modules = [
        Module("a", [Footprint.rectangle(3, 2), Footprint.rectangle(2, 3)]),
        Module("b", [Footprint.rectangle(2, 2)]),
        Module("c", [Footprint.rectangle(4, 1), Footprint.rectangle(1, 4),
                     Footprint.rectangle(2, 2)]),
    ]
    result = CPPlacer(
        PlacerConfig(time_limit=None, profile=True)
    ).place(region, modules)
    profile = result.stats["profile"]
    assert profile.geost_dirty > 0
    assert profile.geost_reused > 0
    assert profile.geost_rasterized > 0


@pytest.mark.parametrize("seed", range(0, 100, 4))
def test_reference_geost_bit_identical(seed):
    region, modules = random_small_instance(seed)
    inc_sols, inc_stats = _geost_run(region, modules, incremental=True)
    ora_sols, ora_stats = _geost_run(region, modules, incremental=False)
    assert inc_sols == ora_sols, f"seed={seed}: solution sets differ"
    assert inc_stats == ora_stats, f"seed={seed}: search trees differ"


# ----------------------------------------------------------------------
# Backend layer: the ``KernelOptions`` value end-to-end
# ----------------------------------------------------------------------
#: every rung the backend layer threads through, production first
_RUNGS = (
    KernelOptions(),
    KernelOptions(bitboard=False),
    KernelOptions(incremental=False, bitboard=False),
)


@pytest.fixture
def kernels(monkeypatch):
    """Every PlacementKernel built while the test runs, in build order."""
    built = []
    init = PlacementKernel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PlacementKernel, "__init__", recording_init)
    return built


def _ladder(kernels, solve):
    """``solve(rung)`` on every rung; the scalar rungs must not have run a
    single vectorized row scan in any kernel they built."""
    runs = []
    for rung in _RUNGS:
        kernels.clear()
        runs.append(solve(rung))
        assert kernels, f"{rung}: no placement kernel was built"
        if not rung.bitboard:
            rows = sum(k.inc_stats.rows_tested for k in kernels)
            assert rows == 0, f"{rung}: scalar run tested {rows} rows"
    return runs


def _placements(result):
    return (
        result.status,
        tuple(
            (p.module.name, p.shape_index, p.x, p.y)
            for p in result.placements
        ),
    )


def _backend_placements(name, region, modules, seed, **req_kwargs):
    from repro.core.backend import PlacementRequest, create_backend

    return _placements(
        create_backend(name).place(
            PlacementRequest(region, modules, seed=seed, **req_kwargs)
        )
    )


@pytest.mark.parametrize("seed", range(8))
def test_cp_backend_differential(seed, kernels):
    region, modules = random_small_instance(seed)
    for name in ("cp", "temporal-cp"):
        runs = _ladder(
            kernels,
            lambda rung: _backend_placements(
                name, region, modules, seed, time_limit=None, kernel=rung,
            ),
        )
        assert runs[1:] == runs[:1] * 2, f"{name} seed={seed}"


@pytest.mark.parametrize("seed", range(10))
def test_lns_backend_differential(seed, kernels):
    # generous wall clock + small stall limit: termination is decided by
    # the deterministic stall counter, never the clock, on these tiny
    # instances — so every rung replays the same iteration sequence
    from repro.core.lns import LNSConfig, LNSPlacer

    region, modules = random_small_instance(seed)
    runs = _ladder(
        kernels,
        lambda rung: _placements(
            LNSPlacer(
                LNSConfig(
                    time_limit=60.0, stall_limit=3, seed=seed, kernel=rung,
                )
            ).place(region, modules)
        ),
    )
    assert runs[1:] == runs[:1] * 2, f"seed={seed}"


@pytest.mark.parametrize("seed", range(5))
def test_portfolio_backend_differential(seed, kernels):
    # n_workers=1 keeps the member in-process and deterministic
    from repro.core.portfolio import PortfolioConfig, PortfolioPlacer

    region, modules = random_small_instance(seed)
    runs = _ladder(
        kernels,
        lambda rung: _placements(
            PortfolioPlacer(
                PortfolioConfig(
                    n_workers=1, time_limit=60.0, base_seed=seed, kernel=rung,
                )
            ).place(region, modules)
        ),
    )
    assert runs[1:] == runs[:1] * 2, f"seed={seed}"
