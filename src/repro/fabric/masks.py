"""Valid-anchor computation and cross-correlation machinery.

This realizes constraints M_a and M_b of the paper (Eqs. 2-3) as bit
algebra: an anchor position ``(x, y)`` is valid for a footprint iff every
footprint cell ``(dx, dy, k)`` lands on an available tile of resource type
``k``.  The computation ANDs shifted per-resource compatibility planes — a
boolean cross-correlation.  Each plane is flattened row-major into one
Python integer (:func:`~repro.fabric.region.pack_bits`, bit ``y * W +
x``), so a 2-D shift by ``(dy, dx)`` is one big-int shift by
``dy * W + dx`` and each footprint cell costs one shift-AND over the whole
fabric.

Footprint cells must be normalized so ``min dx == min dy == 0``; anchors
are then the footprint's lower-left bounding-box corner.

:func:`narrowed_anchor_mask` derives a footprint's mask on a base region
minus a set of blocked cells from its mask on the base region with the
dual shift-OR, the rule behind every
:class:`~repro.fabric.region.NarrowedRegion` lookup of the anchor-mask
cache.

The module also hosts the shared sliding-window correlation kernels the
geost bitboard sweep batches through:

* :func:`integral_occupancy` — a k-dimensional summed-area table of a
  boolean occupancy plane, and
* :func:`sliding_box_counts` — occupied-cell counts under a fixed-size
  box anchored at every point of an anchor lattice, evaluated as ``2k``
  clipped slice-subtractions of the table (a box cross-correlation in
  O(lattice) per box, independent of box size), plus
* :func:`count_anchors_batch` — the per-shape fail-first anchor counting
  of :func:`count_anchors` over a whole stack of validity masks at once.

An FFT evaluation of the same correlations was considered and rejected:
at the paper's fabric sizes (≤ a few thousand cells) the integral-image
form is already memory-bound and beats ``rfftn`` round-trips by an order
of magnitude, so no size-thresholded FFT path is wired in.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple, Union

import numpy as np

from repro.fabric.grid import FabricGrid
from repro.fabric.region import PartialRegion, pack_bits
from repro.fabric.resource import ResourceType

#: (dx, dy, kind) relative cell of a footprint
Cell = Tuple[int, int, ResourceType]


def compatibility_masks(region: PartialRegion) -> Dict[ResourceType, np.ndarray]:
    """Per-resource boolean maps of cells a module tile of that type may use."""
    allowed = region.allowed_mask()
    out: Dict[ResourceType, np.ndarray] = {}
    for kind in ResourceType:
        if kind is ResourceType.UNAVAILABLE:
            continue
        out[kind] = region.grid.resource_mask(kind) & allowed
    return out


def valid_anchor_mask(
    region: Union[PartialRegion, FabricGrid],
    cells: Sequence[Cell],
    compat: Dict[ResourceType, np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean (H, W) array: True where the footprint may be anchored.

    Parameters
    ----------
    region:
        The partial region (or a bare grid, treated as fully reconfigurable).
    cells:
        Normalized footprint cells ``(dx, dy, kind)`` with ``dx, dy >= 0``
        and ``min dx == min dy == 0``.
    compat:
        Optional precomputed :func:`compatibility_masks` (reused across the
        many footprints of a module library).
    """
    if isinstance(region, FabricGrid):
        region = PartialRegion.whole_device(region)
    if not cells:
        raise ValueError("footprint has no cells")
    if min(c[0] for c in cells) != 0 or min(c[1] for c in cells) != 0:
        raise ValueError("footprint cells must be normalized to origin 0,0")
    if any(kind is ResourceType.UNAVAILABLE for _, _, kind in cells):
        raise ValueError("footprint cells cannot require UNAVAILABLE")
    if compat is None:
        compat = compatibility_masks(region)

    H, W = region.height, region.width
    # only anchors whose footprint stays inside the grid can be valid;
    # restricting to them up front also means no shift below reads
    # across a row edge for a surviving anchor, which keeps it exact
    h = H - max(c[1] for c in cells)
    w = W - max(c[0] for c in cells)
    window = np.zeros((H, W), dtype=bool)
    if h <= 0 or w <= 0:
        return window
    window[:h, :w] = True
    bits = pack_bits(window)
    planes: Dict[ResourceType, int] = {}
    for dx, dy, kind in cells:
        plane = planes.get(kind)
        if plane is None:
            plane = planes[kind] = pack_bits(compat[kind])
        bits &= plane >> (dy * W + dx)
        if not bits:
            break
    return _unpack_bits(bits, H, W)


def _unpack_bits(bits: int, H: int, W: int) -> np.ndarray:
    """The (H, W) boolean plane of a :func:`pack_bits` integer."""
    n = H * W
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].view(bool).reshape(H, W)


def narrowed_anchor_mask(
    base_mask: np.ndarray, blocked_bits: int, cells: Iterable[Cell]
) -> np.ndarray:
    """``base_mask`` minus every anchor whose footprint covers a blocked cell.

    ``base_mask`` is the footprint's :func:`valid_anchor_mask` on a base
    region, ``blocked_bits`` the packed blocked plane.  The collide map is
    the OR-dual of the shift-AND in :func:`valid_anchor_mask`: one shift
    per footprint cell however many cells are blocked.  The bits a shift
    smears across a row edge land only on anchors whose footprint leaves
    the grid there — anchors ``base_mask`` already marks invalid — so the
    narrowing is exact.
    """
    if not blocked_bits:
        return base_mask
    H, W = base_mask.shape
    hits = 0
    for dx, dy, _ in cells:
        hits |= blocked_bits >> (dy * W + dx)
    return base_mask & ~_unpack_bits(hits, H, W)


def count_anchors(valid: np.ndarray, col: np.ndarray, row: np.ndarray) -> int:
    """Anchors of a (H, W) validity mask surviving the axis-domain masks.

    Equivalent to ``(valid & row[:, None] & col[None, :]).sum()`` but
    selects the surviving rows/columns first, so the intermediate scales
    with the *domain* sizes rather than the fabric — the shape branching
    heuristics call this for every module at every search node.
    """
    if not row.any() or not col.any():
        return 0
    return int(np.count_nonzero(valid[row][:, col]))


def count_anchors_batch(
    valid_stack: np.ndarray, col: np.ndarray, row: np.ndarray
) -> np.ndarray:
    """Per-shape anchor counts of a stacked ``(S, H, W)`` validity array.

    Row ``s`` of the result equals ``count_anchors(valid_stack[s], col,
    row)``; the whole stack is reduced in one fancy-indexed pass, so the
    fail-first heuristic pays one NumPy dispatch per *module* instead of
    one per candidate shape.
    """
    n = len(valid_stack)
    if n == 0 or not row.any() or not col.any():
        return np.zeros(n, dtype=np.int64)
    sub = valid_stack[:, row][:, :, col]
    return sub.reshape(n, -1).sum(axis=1, dtype=np.int64)


def integral_occupancy(occ: np.ndarray) -> np.ndarray:
    """k-D summed-area table of a boolean occupancy array, zero-bordered.

    ``table[i1, ..., ik]`` is the number of occupied cells in
    ``occ[:i1, ..., :ik]``; the table has one extra (leading zero) entry
    per axis so every half-open box sum is a pure inclusion-exclusion of
    table entries with no boundary special cases.
    """
    table = occ.astype(np.int64)
    for axis in range(occ.ndim):
        table = table.cumsum(axis=axis)
    return np.pad(table, [(1, 0)] * occ.ndim)


def sliding_box_counts(
    table: np.ndarray,
    starts: Sequence[int],
    lengths: Sequence[int],
    counts: Sequence[int],
) -> np.ndarray:
    """Occupied-cell counts under a sliding box, for a whole anchor lattice.

    For every lattice offset ``a`` in ``prod(range(c) for c in counts)``
    the result holds the number of occupied cells inside the half-open box
    ``[starts + a, starts + a + lengths)`` of the occupancy grid that
    ``table`` (an :func:`integral_occupancy`) was built from.  Box
    portions outside the grid count as empty: indices are clipped, which
    is exact because the table is axis-wise monotone — clipping evaluates
    the intersection of the box with the grid.

    This is the batched replacement for per-point raster probes: one call
    tests every candidate anchor of a shifted box against the occupancy
    planes via ``2k`` slice-subtractions, instead of one Python-level
    probe per sweep point.
    """
    out = table
    for axis in range(table.ndim):
        n = int(counts[axis])
        s0 = int(starts[axis])
        ln = int(lengths[axis])
        limit = out.shape[axis] - 1  # grid extent along this axis
        hi = np.clip(np.arange(s0 + ln, s0 + ln + n), 0, limit)
        lo = np.clip(np.arange(s0, s0 + n), 0, limit)
        out = out.take(hi, axis=axis) - out.take(lo, axis=axis)
    return out


def nearest_anchor(
    valid: np.ndarray, x: float, y: float
) -> Tuple[int, int] | None:
    """Closest valid anchor to a (possibly fractional) target position.

    Returns the ``(ax, ay)`` with ``valid[ay, ax]`` minimizing the squared
    Euclidean distance to ``(x, y)``, or None when the mask has no anchors.
    Ties break bottom-left (smallest x, then smallest y) so the answer is
    deterministic — the analytical legalizer snaps every relaxed centroid
    through this query and must not depend on ``nonzero`` ordering.
    """
    ys, xs = np.nonzero(valid)
    if ys.size == 0:
        return None
    d2 = (xs - x) ** 2 + (ys - y) ** 2
    k = np.lexsort((ys, xs, d2))[0]
    return int(xs[k]), int(ys[k])


def anchors_list(valid: np.ndarray) -> list[Tuple[int, int]]:
    """The (x, y) anchor coordinates of a validity mask, bottom-left order.

    Sorted by x then y — the value ordering used by the min-extent
    objective's branching (place as far left as possible first).
    """
    ys, xs = np.nonzero(valid)
    order = np.lexsort((ys, xs))
    return [(int(xs[i]), int(ys[i])) for i in order]


def brute_force_anchor_mask(
    region: PartialRegion, cells: Sequence[Cell]
) -> np.ndarray:
    """Reference implementation: per-anchor loop.

    Exists solely so property-based tests can cross-check the vectorized
    fast path; do not use in production code paths.
    """
    H, W = region.height, region.width
    allowed = region.allowed_mask()
    grid = region.grid.cells
    valid = np.zeros((H, W), dtype=bool)
    for y in range(H):
        for x in range(W):
            ok = True
            for dx, dy, kind in cells:
                xx, yy = x + dx, y + dy
                if xx >= W or yy >= H or not allowed[yy, xx] or \
                        grid[yy, xx] != int(kind):
                    ok = False
                    break
            valid[y, x] = ok
    return valid
