"""Incremental / interactive placement.

The paper positions the placer as "part of an interactive tool": a
designer adds and removes modules while the committed floorplan stays put.
:class:`IncrementalPlacer` maintains a committed placement set; adding a
module solves a small CP subproblem on the residual region (committed
cells are masked unavailable), and removing a module frees its cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.placer import CPPlacer, PlacerConfig
from repro.core.result import Placement, PlacementResult
from repro.fabric.region import NarrowedRegion, PartialRegion
from repro.modules.module import Module


class IncrementalPlacer:
    """Maintains a committed floorplan; places/removes modules one by one."""

    def __init__(
        self, region: PartialRegion, config: Optional[PlacerConfig] = None
    ) -> None:
        self.region = region
        self.config = config or PlacerConfig(time_limit=2.0)
        self._placements: Dict[str, Placement] = {}

    # ------------------------------------------------------------------
    @property
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    def occupancy(self) -> np.ndarray:
        return self.result().occupancy_mask()

    def residual_region(self) -> NarrowedRegion:
        """The region with committed module cells masked off."""
        return NarrowedRegion(
            self.region, self.occupancy(), f"{self.region.name}-residual"
        )

    # ------------------------------------------------------------------
    def add(self, module: Module) -> Optional[Placement]:
        """Place one module on the residual region; None if impossible."""
        if module.name in self._placements:
            raise ValueError(f"{module.name!r} is already placed")
        placer = CPPlacer(self.config)
        result = placer.place(self.residual_region(), [module])
        if not result.placements:
            return None
        placement = result.placements[0]
        self._placements[module.name] = placement
        return placement

    def add_all(self, modules: Sequence[Module]) -> List[Module]:
        """Place modules one by one; returns those that did not fit."""
        rejected: List[Module] = []
        for m in modules:
            if self.add(m) is None:
                rejected.append(m)
        return rejected

    def remove(self, name: str) -> Placement:
        """Free a committed module's cells."""
        try:
            return self._placements.pop(name)
        except KeyError:
            raise KeyError(f"no committed module named {name!r}") from None

    def result(self) -> PlacementResult:
        return PlacementResult(self.region, self.placements)
