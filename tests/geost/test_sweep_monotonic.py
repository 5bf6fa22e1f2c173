"""Regression pin: the bitboard sweep does strictly less pointwise work.

The vectorized sweep replaces per-point ``ShapeView`` probes with
whole-lattice frontier scans, so on a Table-I-style workload (generated
modules with design alternatives on an irregular fabric) the bitboard
kernel must

* engage the fast path (``rows > 0``, ``fallbacks == 0``) and
* inspect strictly fewer scalar sweep points than the scalar kernel
  (``iterations`` strictly below PR 5's max-end sweep), with far fewer
  vectorized scans than the scalar run has point inspections.

If the fast path silently degrades to the scalar sweep (board missing,
``bitboard`` flag lost in config threading, fallback on every filter)
these assertions fail loudly instead of the suite merely getting slower.
"""

import pytest

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.fabric.devices import irregular_device
from repro.fabric.region import PartialRegion
from repro.geost.incremental import KernelOptions
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.shapes import ShapeTable
from repro.modules.generator import GeneratorConfig, ModuleGenerator

from tests.support import fabric_to_forbidden_regions


def _table1_style_instance():
    """A scaled-down Table-I analog the reference kernel can chew on.

    Same ingredients as the benchmark workload — an irregular fabric and
    generator-drawn modules with several design alternatives each — at a
    size where the *scalar* reference sweep still runs in well under a
    second, so the pin stays in tier-1.
    """
    region = PartialRegion.whole_device(irregular_device(12, 8, seed=3))
    cfg = GeneratorConfig(clb_min=4, clb_max=10, bram_max=1,
                          height_min=2, height_max=4)
    modules = ModuleGenerator(seed=11, config=cfg).generate_set(4)
    return region, modules


def _geost_model(region, modules, bitboard: bool):
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


def _repropagation_cycles(m, objects, n_fixes: int = 12) -> None:
    """Search-shaped load: fix one anchor under a level, fixpoint, pop."""
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


@pytest.fixture(scope="module")
def sweep_stats_pair():
    region, modules = _table1_style_instance()
    out = {}
    for bitboard in (True, False):
        m, geost, objects = _geost_model(region, modules, bitboard)
        _repropagation_cycles(m, objects)
        out[bitboard] = (geost.sweep_stats, geost.inc_stats)
    return out


class TestSweepMonotonicity:
    def test_fast_path_engaged(self, sweep_stats_pair):
        sweep, inc = sweep_stats_pair[True]
        assert inc.fallbacks == 0, (
            "bitboard kernel fell back to the scalar sweep "
            f"({inc.fallbacks} times) — board missing on a Table-I window?"
        )
        assert sweep.rows > 0 and inc.rows_tested == sweep.rows

    def test_scalar_mode_reports_no_rows(self, sweep_stats_pair):
        sweep, inc = sweep_stats_pair[False]
        assert sweep.rows == 0 and inc.rows_tested == 0
        assert sweep.iterations > 0

    def test_bitboard_inspects_strictly_fewer_points(self, sweep_stats_pair):
        bb_sweep, _ = sweep_stats_pair[True]
        sc_sweep, _ = sweep_stats_pair[False]
        assert bb_sweep.iterations < sc_sweep.iterations, (
            f"vectorized sweep inspected {bb_sweep.iterations} points, "
            f"scalar max-end sweep {sc_sweep.iterations} — the fast path "
            "silently degraded to per-point probing"
        )
        # whole-lattice scans are orders of magnitude rarer than per-point
        # inspections; a factor-2 bar is loose enough to never flake while
        # still catching a sweep that scans per point instead of per lattice
        assert bb_sweep.rows * 2 < sc_sweep.iterations, (
            f"{bb_sweep.rows} frontier scans vs {sc_sweep.iterations} "
            "scalar points — vectorization is not actually batching"
        )
