"""Geost propagation speedups on Table I: incremental and bitboard gates.

Two generations of acceptance bars, both measured as search-shaped
re-propagation cycles (push a trail level, fix one anchor, run the engine
to fixpoint, pop) on the Table-I workload:

* **incremental** (PR 5): the production kernel with dirty-object
  maintenance must beat wholesale re-filtering;
* **bitboard** (this PR): the reference kernel's vectorized
  whole-lattice sweep must beat PR 5's scalar per-point sweep, and a
  cProfile of the vectorized run must show pure-Python sweep inner loops
  (``sweep.py``) well below half the propagation time.

The ratio gates are **not** hardcoded: they are read from the committed
``BENCH_geost.json`` (so tightening a gate is a reviewed one-line diff),
and every run emits the freshly measured ratios to
``bench_geost_latest.json`` — append that entry to the JSON's ``history``
when landing a perf-relevant change to keep the trajectory on record.

The ``geost_*`` counters must surface in the solve's
:class:`~repro.obs.profile.SolveProfile` so the effect is observable in
production profiles, not just here.
"""

from __future__ import annotations

import cProfile
import json
import pathlib
import pstats
import statistics
import time

import pytest

from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.placement_model import PlacementModel
from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.geost.incremental import KernelOptions
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.shapes import ShapeTable

GATES_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_geost.json"
LATEST_PATH = "bench_geost_latest.json"


@pytest.fixture(scope="module")
def gates():
    return json.loads(GATES_PATH.read_text())["gates"]


@pytest.fixture(scope="module")
def latest():
    """Collects measured ratios; written as the trajectory artifact."""
    measured: dict = {"label": "local-run"}
    yield measured
    artifact = {
        "gates_from": GATES_PATH.name,
        "entry": measured,
    }
    pathlib.Path(LATEST_PATH).write_text(json.dumps(artifact, indent=2) + "\n")


def _repropagation_cycle(pm: PlacementModel, n_fixes: int = 24) -> None:
    """Fix one anchor per cycle under a trail level, fixpoint, roll back."""
    engine = pm.model.engine
    for i in range(n_fixes):
        x = pm.xs[i % len(pm.xs)]
        engine.push_level()
        try:
            x.fix(x.min())
            engine.fixpoint()
        except Inconsistent:
            pass
        engine.pop_level()


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_incremental_repropagation_speedup(report, table1_instance, gates, latest):
    region, modules = table1_instance

    pm_inc = PlacementModel(region, modules)
    pm_whole = PlacementModel(
        region, modules, kernel=KernelOptions(incremental=False)
    )

    t_inc = _median_time(lambda: _repropagation_cycle(pm_inc))
    t_whole = _median_time(lambda: _repropagation_cycle(pm_whole))
    speedup = t_whole / t_inc
    gate = gates["incremental_speedup_min"]
    latest["incremental_speedup"] = round(speedup, 2)

    inc = pm_inc.kernel.inc_stats
    report(
        "Incremental geost propagation (Table-I, 30 modules)",
        f"re-propagation cycle (24 fix/fixpoint/rollback rounds)\n"
        f"  wholesale   {t_whole * 1e3:8.2f} ms   (re-filter all modules)\n"
        f"  incremental {t_inc * 1e3:8.2f} ms   (dirty modules only)\n"
        f"  speedup     {speedup:8.2f}x  (gate >= {gate}x)\n"
        f"incremental counters  dirty={inc.dirty} reused={inc.reused} "
        f"rasterized={inc.rasterized}",
    )
    assert speedup >= gate, f"incremental speedup only {speedup:.2f}x"
    assert inc.dirty > 0


# ----------------------------------------------------------------------
# Bitboard sweep on the reference kernel
# ----------------------------------------------------------------------
def _reference_model(region, modules, bitboard: bool):
    from tests.support import fabric_to_forbidden_regions

    kinds = {
        k for mod in modules for fp in mod.shapes for _, _, k in fp.cells
    }
    regions = fabric_to_forbidden_regions(region, kinds)
    m = Model()
    table = ShapeTable()
    objects = []
    for i, mod in enumerate(modules):
        sids = [table.add_footprint(fp) for fp in mod.shapes]
        x = m.int_var(0, region.width - 1, f"x{i}")
        y = m.int_var(0, region.height - 1, f"y{i}")
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, [x, y], s, table))
    geost = Geost(objects, regions, kernel=KernelOptions(bitboard=bitboard))
    m.post(geost)
    return m, geost, objects


def _reference_cycle(m: Model, objects, n_fixes: int = 6) -> None:
    engine = m.engine
    for i in range(n_fixes):
        x = objects[i % len(objects)].origin[0]
        engine.push_level()
        try:
            x.fix(x.min())
            engine.fixpoint()
        except Inconsistent:
            pass
        engine.pop_level()


def test_bitboard_sweep_speedup(report, table1_instance, gates, latest):
    """The vectorized sweep vs PR 5's scalar sweep, same reference kernel."""
    region, modules = table1_instance

    m_bb, g_bb, objs_bb = _reference_model(region, modules, bitboard=True)
    m_sc, g_sc, objs_sc = _reference_model(region, modules, bitboard=False)

    t_bb = _median_time(lambda: _reference_cycle(m_bb, objs_bb), repeats=3)
    t_sc = _median_time(lambda: _reference_cycle(m_sc, objs_sc), repeats=3)
    speedup = t_sc / t_bb
    gate = gates["bitboard_speedup_min"]
    latest["bitboard_speedup"] = round(speedup, 2)

    report(
        "Bitboard-first vectorized sweep (Table-I, reference kernel)",
        f"re-propagation cycle (6 fix/fixpoint/rollback rounds)\n"
        f"  scalar sweep    {t_sc * 1e3:8.2f} ms   "
        f"({g_sc.sweep_stats.iterations} point inspections)\n"
        f"  bitboard sweep  {t_bb * 1e3:8.2f} ms   "
        f"({g_bb.sweep_stats.rows} frontier scans)\n"
        f"  speedup         {speedup:8.2f}x  (gate >= {gate}x)",
    )
    assert g_bb.inc_stats.fallbacks == 0, "board missing on Table-I window"
    assert g_bb.sweep_stats.rows > 0
    assert speedup >= gate, f"bitboard speedup only {speedup:.2f}x"


def test_bitboard_sweep_python_fraction(report, table1_instance, gates, latest):
    """cProfile the vectorized cycle: pure-Python per-point sweep loops
    (everything in ``geost/sweep.py``) must be a small fraction of the
    propagation time — the whole point of batching through NumPy."""
    region, modules = table1_instance
    m, geost, objects = _reference_model(region, modules, bitboard=True)

    prof = cProfile.Profile()
    prof.enable()
    _reference_cycle(m, objects)
    prof.disable()

    stats = pstats.Stats(prof)
    total = sum(row[2] for row in stats.stats.values())  # tottime
    sweep_time = sum(
        row[2]
        for key, row in stats.stats.items()
        if key[0].endswith("geost/sweep.py")
    )
    fraction = sweep_time / total if total else 0.0
    gate = gates["python_sweep_fraction_max"]
    latest["python_sweep_fraction"] = round(fraction, 4)

    report(
        "Pure-Python sweep share of bitboard propagation (cProfile)",
        f"sweep.py tottime {sweep_time * 1e3:8.2f} ms of {total * 1e3:8.2f} ms"
        f" total  ->  {fraction * 100:5.1f}%  (gate < {gate * 100:.0f}%)",
    )
    assert fraction < gate, (
        f"sweep.py inner loops at {fraction:.1%} of propagation time — "
        "the vectorized path is leaking work back into per-point Python"
    )


def test_geost_counters_surface_in_solve_profile(report, table1_instance):
    region, modules = table1_instance
    result = CPPlacer(
        PlacerConfig(time_limit=2.0, first_solution_only=True, profile=True)
    ).place(region, modules)
    profile = result.stats["profile"]
    counts = profile.counts()
    report(
        "Incremental-geost counters in SolveProfile",
        f"geost_dirty           {counts['geost_dirty']:6d}\n"
        f"geost_reused          {counts['geost_reused']:6d}\n"
        f"geost_rasterized      {counts['geost_rasterized']:6d}\n"
        f"bitboard_rows_tested  {counts['bitboard_rows_tested']:6d}\n"
        f"bitboard_fallbacks    {counts['bitboard_fallbacks']:6d}",
    )
    assert counts["geost_dirty"] > 0
    assert counts["geost_rasterized"] > 0
    assert counts["bitboard_rows_tested"] > 0


# ----------------------------------------------------------------------
# Warm-started branch-and-bound (the analytical seeder)
# ----------------------------------------------------------------------
def test_warmstart_first_incumbent_is_free(report, table1_instance, gates, latest):
    region, modules = table1_instance

    cold = CPPlacer(PlacerConfig(time_limit=4.0)).place(region, modules)
    warm = CPPlacer(
        PlacerConfig(time_limit=4.0, warm_start="analytical")
    ).place(region, modules)
    warm.verify()

    cold_nodes = cold.stats["first_incumbent_nodes"]
    warm_nodes = warm.stats["first_incumbent_nodes"]
    gate = gates["warmstart_first_incumbent_nodes_max"]
    latest["warmstart_first_incumbent_nodes"] = warm_nodes
    latest["cold_first_incumbent_nodes"] = cold_nodes

    seed = warm.stats["warm_start"]
    report(
        "Warm-started CP first incumbent (Table-I, 30 modules)",
        f"  cold search   first incumbent after {cold_nodes} nodes\n"
        f"  warm-started  first incumbent after {warm_nodes} nodes "
        f"(gate <= {gate})\n"
        f"  seed: {seed['backend']} objective {seed['objective']} "
        f"in {seed['elapsed']:.2f}s",
    )
    assert warm_nodes <= gate, (
        f"warm-started CP spent {warm_nodes} nodes reaching its first "
        "incumbent — the seed is not being injected"
    )
    assert cold_nodes is not None and warm_nodes < cold_nodes
