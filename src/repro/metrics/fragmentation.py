"""Fragmentation measures.

The paper frames design alternatives as an attack on *external*
fragmentation: resources left unusable because the free space is shattered
into pieces no module fits into.  *Internal* fragmentation is the space a
module's bounding box covers but its tiles do not use (cf. Koch et al.
[12] on fine-grained placement).

``maximal_empty_rectangles`` is the classic KAMER staircase computation
(also used by the Bazargan-style online baseline); external fragmentation
is reported as ``1 - largest_free_rect / total_free``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.result import PlacementResult


def free_mask(result: PlacementResult) -> np.ndarray:
    """Cells available to future modules: allowed and unoccupied."""
    return result.region.allowed_mask() & ~result.occupancy_mask()


def maximal_empty_rectangles(free: np.ndarray) -> List[Tuple[int, int, int, int]]:
    """All maximal axis-aligned empty rectangles of a boolean mask.

    Returns ``(x, y, w, h)`` tuples.  Classic histogram/staircase sweep:
    O(H * W) candidate generation with maximality filtering.
    """
    free = np.asarray(free, dtype=bool)
    H, W = free.shape
    heights = np.zeros(W, dtype=int)
    candidates: set[Tuple[int, int, int, int]] = set()
    for y in range(H):
        heights = np.where(free[y], heights + 1, 0)
        # for each maximal-in-row rectangle of the histogram at row y
        stack: List[Tuple[int, int]] = []  # (start_col, height)
        for x in range(W + 1):
            h = int(heights[x]) if x < W else 0
            start = x
            while stack and stack[-1][1] >= h:
                sx, sh = stack.pop()
                # only a strict height drop ends a maximal-width run: on a
                # tie the run continues (the re-push below) and emitting a
                # candidate here would yield a right-extendable rectangle
                if sh > h:
                    # rectangle [sx, x) x [y-sh+1, y]
                    candidates.add((sx, y - sh + 1, x - sx, sh))
                start = sx
            if h > 0 and (not stack or stack[-1][1] < h):
                stack.append((start, h))
    # histogram rectangles are maximal in width and in downward extension;
    # filter those extendable upward (not maximal in height)
    out = []
    for x, y, w, h in candidates:
        if y + h < H and bool(free[y + h, x : x + w].all()):
            continue
        out.append((x, y, w, h))
    return sorted(out)


def largest_free_rectangle(result: PlacementResult) -> Tuple[int, int, int, int]:
    """The (x, y, w, h) free rectangle of maximum area ((0,0,0,0) if none)."""
    return _largest_rectangle(free_mask(result))


def _largest_rectangle(free: np.ndarray) -> Tuple[int, int, int, int]:
    rects = maximal_empty_rectangles(free)
    if not rects:
        return (0, 0, 0, 0)
    return max(rects, key=lambda r: r[2] * r[3])


def external_fragmentation(result: PlacementResult) -> float:
    """1 - (largest free rectangle area) / (total free area).

    0.0 means all remaining space is one rectangle (no fragmentation);
    approaching 1.0 means the free space is badly shattered.  Returns 0.0
    when the region is completely full.
    """
    free = free_mask(result)
    total = int(free.sum())
    if total == 0:
        return 0.0
    _, _, w, h = _largest_rectangle(free)
    return 1.0 - (w * h) / total


def internal_fragmentation(result: PlacementResult) -> float:
    """Unused bounding-box cells / total bounding-box cells of placements."""
    bbox_total = sum(p.footprint.bbox_area for p in result.placements)
    if bbox_total == 0:
        return 0.0
    used = sum(p.footprint.area for p in result.placements)
    return 1.0 - used / bbox_total
