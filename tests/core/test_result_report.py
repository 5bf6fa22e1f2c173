"""PlacementResult, verification, reports and rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.report import placement_report, render_placement, side_by_side
from repro.core.result import Placement, PlacementResult
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.modules.footprint import Footprint
from repro.modules.generator import GeneratorConfig, ModuleGenerator
from repro.modules.module import Module
from repro.placer.greedy import BottomLeftPlacer


def region_4x2():
    return PartialRegion.whole_device(homogeneous_device(4, 2))


def mod(name="m", w=2, h=1):
    return Module(name, [Footprint.rectangle(w, h)])


class TestPlacement:
    def test_geometry(self):
        p = Placement(mod(w=2, h=2), 0, 1, 0)
        assert p.right == 3 and p.top == 2
        assert (1, 0, ResourceType.CLB) in p.absolute_cells()

    def test_overlap_detection(self):
        a = Placement(mod("a"), 0, 0, 0)
        b = Placement(mod("b"), 0, 1, 0)
        c = Placement(mod("c"), 0, 2, 0)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestVerification:
    def test_valid_placement_passes(self):
        r = PlacementResult(region_4x2(), [Placement(mod(), 0, 0, 0)])
        r.verify()

    def test_out_of_bounds_rejected(self):
        r = PlacementResult(region_4x2(), [Placement(mod(w=3), 0, 2, 0)])
        with pytest.raises(ValueError, match="M_a"):
            r.verify()

    def test_static_region_rejected(self):
        g = homogeneous_device(4, 2)
        region = PartialRegion.with_static_box(g, 0, 0, 2, 2)
        r = PlacementResult(region, [Placement(mod(), 0, 0, 0)])
        with pytest.raises(ValueError, match="M_a"):
            r.verify()

    def test_resource_mismatch_rejected(self):
        g = FabricGrid.from_rows(["B..."])
        region = PartialRegion.whole_device(g)
        r = PlacementResult(region, [Placement(mod(w=2, h=1), 0, 0, 0)])
        with pytest.raises(ValueError, match="M_b"):
            r.verify()

    def test_overlap_rejected(self):
        r = PlacementResult(
            region_4x2(),
            [Placement(mod("a"), 0, 0, 0), Placement(mod("b"), 0, 1, 0)],
        )
        with pytest.raises(ValueError, match="M_c"):
            r.verify()

    def test_extent_computed(self):
        r = PlacementResult(
            region_4x2(), [Placement(mod(), 0, 0, 0), Placement(mod(), 0, 2, 0)]
        )
        assert r.extent == 4
        assert r.used_cells() == 4

    def test_occupancy_mask(self):
        r = PlacementResult(region_4x2(), [Placement(mod(), 0, 1, 1)])
        mask = r.occupancy_mask()
        assert mask[1, 1] and mask[1, 2]
        assert mask.sum() == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_occupancy_mask_matches_per_cell_raster(self, seed):
        """The one-fancy-index-per-placement raster equals the per-cell
        loop over ``absolute_cells`` on irregular multi-shape modules."""
        region = PartialRegion.whole_device(irregular_device(30, 8, seed=seed))
        cfg = GeneratorConfig(clb_min=4, clb_max=12, bram_max=1,
                              height_min=2, height_max=3, max_width=4)
        modules = ModuleGenerator(seed=seed, config=cfg).generate_set(5)
        placed = BottomLeftPlacer().place(region, modules).placements
        assert len(placed) >= 3
        want = np.zeros((region.height, region.width), dtype=bool)
        for p in placed:
            for x, y, _ in p.absolute_cells():
                want[y, x] = True
            ys, xs = p.yx()
            assert sorted(zip(xs.tolist(), ys.tolist())) == sorted(
                (x, y) for x, y, _ in p.absolute_cells()
            )
        assert np.array_equal(PlacementResult(region, placed).occupancy_mask(), want)


class TestReporting:
    def _result(self):
        region = PartialRegion.whole_device(irregular_device(16, 6, seed=4))
        fp = Footprint.rectangle(2, 2)
        return PlacementResult(
            region,
            [Placement(Module("demo", [fp]), 0, 1, 1)],
            [Module("lost", [fp])],
        )

    def test_report_mentions_modules(self):
        rep = placement_report(self._result())
        assert "demo" in rep
        assert "UNPLACED" in rep
        assert "utilization" in rep

    def test_render_uses_module_chars(self):
        out = render_placement(self._result())
        assert "0" in out  # first module drawn as '0'
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(len(l) == 16 for l in lines)

    def test_render_marks_static(self):
        g = homogeneous_device(4, 2)
        region = PartialRegion.with_static_box(g, 0, 0, 2, 2)
        r = PlacementResult(region, [])
        assert "#" in render_placement(r)

    def test_side_by_side(self):
        out = side_by_side("ab\ncd", "xyz\nuvw\nrst", labels=("L", "R"))
        lines = out.splitlines()
        assert lines[0].startswith("L")
        assert "R" in lines[0]
        assert len(lines) == 4

    def test_summary_fields(self):
        s = self._result().summary()
        assert "placed=1" in s and "unplaced=1" in s
