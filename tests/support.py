"""Shared helpers for the test suite.

The geost cross-validation machinery lived as near-identical copies in
``tests/geost/test_cross_validation.py`` and
``tests/geost/test_placement_kernel.py``; it is consolidated here because
the differential harness (many random instances, three independent
implementations of the paper's constraint) is now used by several files.

Three ways to enumerate the solutions of one placement instance:

* :func:`brute_force_solutions` — literal M_a ∧ M_b ∧ M_c from the
  per-shape anchor masks, the ground truth;
* :func:`kernel_solutions` — search over the vectorized
  :class:`~repro.geost.placement.PlacementKernel`;
* :func:`geost_solutions` — search over the reference interval
  :class:`~repro.geost.kernel.Geost` with heterogeneity encoded as
  resource-typed forbidden regions.

All three return sets of per-module ``(shape, x, y)`` tuples, so equality
is a complete cross-check of the solution *sets*, not just counts.

On top of those, the **cross-kernel differential-oracle harness** runs
any pair of :class:`OracleConfig` settings — kernel (``placement`` /
``geost``) × ``incremental`` × ``bitboard`` — over seeded instance
generators and asserts *bit-identical* behavior: equal solution sets,
equal search-tree fingerprints (nodes, backtracks, solutions, depth,
failures, propagations, domain updates) and the per-config profile
invariants (e.g. a scalar run must report zero vectorized row scans).
Instance generators cover sparse (:func:`random_small_instance`), dense
(:func:`random_dense_instance`), shape-alternative-heavy
(:func:`random_alt_heavy_instance`) and 3-D pure-geost
(:func:`random_geost3d_instance`) regimes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cp.engine import Inconsistent
from repro.cp.model import Model
from repro.cp.search import DepthFirstSearch
from repro.cp.solver import Solver
from repro.fabric.devices import homogeneous_device, irregular_device
from repro.fabric.masks import brute_force_anchor_mask
from repro.fabric.region import PartialRegion
from repro.fabric.resource import ResourceType
from repro.geost.boxes import Box, ShiftedBox
from repro.geost.forbidden import ForbiddenRegion
from repro.geost.incremental import IncStats, KernelOptions
from repro.geost.kernel import Geost
from repro.geost.objects import GeostObject
from repro.geost.placement import PlacementKernel
from repro.geost.shapes import GeostShape, ShapeTable
from repro.modules.footprint import Footprint
from repro.modules.module import Module

#: one placement: per-module (shape index, anchor x, anchor y)
SolutionSet = Set[Tuple[Tuple[int, int, int], ...]]


def build_kernel(
    m: Model,
    region: PartialRegion,
    modules: Sequence[Module],
    kernel: KernelOptions = KernelOptions(),
):
    """Post a PlacementKernel over fresh x/y/s variables; returns all four."""
    xs = [m.int_var(0, region.width - 1, f"x{i}") for i in range(len(modules))]
    ys = [m.int_var(0, region.height - 1, f"y{i}") for i in range(len(modules))]
    ss = [
        m.int_var(0, mod.n_alternatives - 1, f"s{i}")
        for i, mod in enumerate(modules)
    ]
    posted = PlacementKernel(region, modules, xs, ys, ss, kernel=kernel)
    m.post(posted)
    return posted, xs, ys, ss


def kernel_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All solutions of the vectorized placement kernel."""
    m = Model()
    try:
        _, xs, ys, ss = build_kernel(m, region, modules)
    except Inconsistent:
        return set()
    dv = []
    for x, y, s in zip(xs, ys, ss):
        dv.extend([x, y, s])
    return {
        tuple(
            (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(len(modules))
        )
        for sol in Solver(m, dv).enumerate()
    }


def brute_force_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All (s, x, y) per module satisfying M_a, M_b, M_c — ground truth."""
    per_module = []
    for mod in modules:
        options = []
        for si, fp in enumerate(mod.shapes):
            mask = brute_force_anchor_mask(region, sorted(fp.cells))
            ys_, xs_ = np.nonzero(mask)
            options.extend(
                (si, int(x), int(y)) for x, y in zip(xs_, ys_)
            )
        per_module.append(options)
    out: SolutionSet = set()
    for combo in itertools.product(*per_module):
        cells = set()
        ok = True
        for mod, (si, x, y) in zip(modules, combo):
            for dx, dy, _ in mod.shapes[si].cells:
                c = (x + dx, y + dy)
                if c in cells:
                    ok = False
                    break
                cells.add(c)
            if not ok:
                break
        if ok:
            out.add(combo)
    return out


def fabric_to_forbidden_regions(region: PartialRegion, kinds):
    """Encode heterogeneity as resource-typed forbidden 1x1 regions.

    For every resource kind used by the modules, each cell that is NOT of
    that kind (or is static) forbids boxes of that kind; cells outside the
    fabric are excluded by a surrounding wall for all kinds.
    """
    out = []
    allowed = region.allowed_mask()
    grid = region.grid.cells
    H, W = region.height, region.width
    for kind in kinds:
        for y in range(H):
            for x in range(W):
                if not allowed[y, x] or grid[y, x] != int(kind):
                    out.append(
                        ForbiddenRegion(Box((x, y), (1, 1)), kind)
                    )
    # walls (block everything)
    out.append(ForbiddenRegion(Box((-100, -100), (100, 200 + W))))        # left
    out.append(ForbiddenRegion(Box((W, -100), (100, 200 + W))))           # right
    out.append(ForbiddenRegion(Box((-100, -100), (200 + W, 100))))        # below
    out.append(ForbiddenRegion(Box((-100, H), (200 + W, 100))))           # above
    return out


def geost_solutions(
    region: PartialRegion, modules: Sequence[Module]
) -> SolutionSet:
    """All solutions of the reference interval geost kernel."""
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
        m.post(Geost(objects, regions))
    except Inconsistent:
        return set()
    sols = Solver(m, dv).enumerate()
    out: SolutionSet = set()
    for sol in sols:
        key = []
        offset = 0
        for i, mod in enumerate(modules):
            key.append((sol[f"s{i}"] - offset, sol[f"x{i}"], sol[f"y{i}"]))
            offset += mod.n_alternatives
        out.add(tuple(key))
    return out


# ----------------------------------------------------------------------
# Random small instances for differential testing
# ----------------------------------------------------------------------
_FOOTPRINT_POOL: List[Footprint] = [
    Footprint.rectangle(1, 1),
    Footprint.rectangle(2, 1),
    Footprint.rectangle(1, 2),
    Footprint.rectangle(2, 2),
    Footprint([(0, 0, ResourceType.BRAM)]),
    Footprint([(0, 0, ResourceType.CLB), (1, 1, ResourceType.CLB)]),
    Footprint([(0, 0, ResourceType.CLB), (1, 0, ResourceType.BRAM)]),
    Footprint([(0, 0, ResourceType.CLB), (0, 1, ResourceType.CLB),
               (1, 1, ResourceType.CLB)]),
]


def random_small_instance(seed: int):
    """A random small heterogeneous instance: (region, modules).

    Small enough for exhaustive enumeration by all three implementations
    (a 4x3 fabric, 1–2 modules, each with 1–2 shape alternatives drawn
    from a fixed footprint pool), varied enough to exercise resource
    matching, static cells and polymorphism.
    """
    rng = random.Random(seed)
    region = PartialRegion.whole_device(
        irregular_device(
            4, 3, seed=rng.randrange(1 << 16), bram_stride=3, jitter=1,
            clk_rows=0, io_edges=False,
        )
    )
    modules = []
    for i in range(rng.randint(1, 2)):
        shapes = rng.sample(_FOOTPRINT_POOL, rng.randint(1, 2))
        modules.append(Module(f"m{i}", shapes))
    return region, modules


def random_dense_instance(seed: int):
    """A dense homogeneous instance: modules demand most of the fabric.

    Three rectangle modules totalling 8–11 cells on a 4x3 (12-cell) CLB
    grid, so almost every placement decision collides with compulsory
    parts of the others — the regime where non-overlap filtering (and the
    sweep it is built on) does all the work.
    """
    rng = random.Random(seed ^ 0x5EED)
    region = PartialRegion.whole_device(homogeneous_device(4, 3))
    sizes = [(2, 2), (2, 1), (1, 2), (3, 1), (1, 3)]
    modules = []
    for i in range(3):
        w, h = rng.choice(sizes)
        shapes = [Footprint.rectangle(w, h)]
        if w != h and rng.random() < 0.5:
            shapes.append(Footprint.rectangle(h, w))
        modules.append(Module(f"d{i}", shapes))
    return region, modules


def random_alt_heavy_instance(seed: int):
    """A shape-alternative-heavy instance: few modules, many alternatives.

    1–2 modules with 3–4 alternatives each on a 4x4 irregular fabric —
    the design-alternative regime of the paper, exercising shape-variable
    filtering (per-shape feasibility, shape removal ordering) much harder
    than the sparse generator.
    """
    rng = random.Random(seed ^ 0xA17)
    region = PartialRegion.whole_device(
        irregular_device(
            4, 4, seed=rng.randrange(1 << 16), bram_stride=3, jitter=1,
            clk_rows=0, io_edges=False,
        )
    )
    modules = []
    for i in range(rng.randint(1, 2)):
        shapes = rng.sample(_FOOTPRINT_POOL, rng.randint(3, 4))
        modules.append(Module(f"a{i}", shapes))
    return region, modules


def _walls_3d(w: int, h: int, d: int) -> List[ForbiddenRegion]:
    """All-blocking slabs enclosing the box ``[0,w) x [0,h) x [0,d)``."""
    m = 10  # margin: thicker than any shape, wider than any anchor range
    span = (w + 2 * m, h + 2 * m, d + 2 * m)
    out = []
    for axis, limit in enumerate((w, h, d)):
        lo = [-m, -m, -m]
        size_below = list(span)
        size_below[axis] = m
        out.append(ForbiddenRegion(Box(tuple(lo), tuple(size_below))))
        hi = [-m, -m, -m]
        hi[axis] = limit
        size_above = list(span)
        size_above[axis] = m
        out.append(ForbiddenRegion(Box(tuple(hi), tuple(size_above))))
    return out


def random_geost3d_instance(seed: int):
    """A random 3-D pure-geost instance: (dims, per-object shapes, regions).

    1–2 objects inside a 3x3x2 grid, each with 1–2 alternatives that are
    either solid boxes or two-box L-shapes (exercising multi-shifted-box
    shapes), plus enclosing walls and sometimes one blocked interior
    cell.  Returned as plain data so every oracle config builds its own
    model from it.
    """
    rng = random.Random(seed ^ 0x3D)
    dims = (3, 3, 2)
    objs: List[List[List[ShiftedBox]]] = []
    for _ in range(rng.randint(1, 2)):
        alts: List[List[ShiftedBox]] = []
        for _ in range(rng.randint(1, 2)):
            size = tuple(rng.randint(1, 2) for _ in range(3))
            boxes = [ShiftedBox((0, 0, 0), size)]
            if rng.random() < 0.3:
                # L-extension: one extra unit box stuck to the base box
                axis = rng.randrange(3)
                off = [0, 0, 0]
                off[axis] = size[axis]
                boxes.append(ShiftedBox(tuple(off), (1, 1, 1)))
            alts.append(boxes)
        objs.append(alts)
    regions = _walls_3d(*dims)
    if rng.random() < 0.5:
        cell = tuple(rng.randrange(limit) for limit in dims)
        regions.append(ForbiddenRegion(Box(cell, (1, 1, 1))))
    return dims, objs, regions


# ----------------------------------------------------------------------
# Cross-kernel differential oracle harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleConfig:
    """One rung of the oracle ladder: kernel × incremental × bitboard."""

    #: "placement" (vectorized 2-D kernel) or "geost" (reference k-D kernel)
    kernel: str = "placement"
    incremental: bool = True
    bitboard: bool = True

    @property
    def options(self) -> KernelOptions:
        return KernelOptions(self.incremental, self.bitboard)

    def label(self) -> str:
        return (
            f"{self.kernel}"
            f"[{'inc' if self.incremental else 'wholesale'},"
            f"{'bitboard' if self.bitboard else 'scalar'}]"
        )


#: canonical ladder rungs, weakest oracle first
SCALAR_ORACLE = OracleConfig(incremental=False, bitboard=False)
INCREMENTAL_SCALAR = OracleConfig(incremental=True, bitboard=False)
BITBOARD = OracleConfig(incremental=True, bitboard=True)

#: field order of :attr:`OracleRun.fingerprint`
FINGERPRINT_KEYS = (
    "nodes", "backtracks", "solutions", "max_depth",
    "failures", "propagations", "domain_updates",
)


@dataclass
class OracleRun:
    """One enumeration under one config: what bit-identity compares."""

    solutions: frozenset
    fingerprint: Tuple
    inc_stats: Optional[IncStats]


def _enumerate(m: Model, dv, decode) -> OracleRun:
    """DFS-enumerate a posted model; shared tail of every oracle run."""
    search = DepthFirstSearch(m.engine, dv)
    sols = frozenset(decode(sol) for sol in search.all_solutions())
    st = search.stats
    es = m.engine.stats
    return OracleRun(
        sols,
        (
            st.nodes, st.backtracks, st.solutions, st.max_depth,
            es.failures, es.propagations, es.domain_updates,
        ),
        None,
    )


_ROOT_INFEASIBLE = ("root-infeasible",)


def oracle_run(region, modules, config: OracleConfig) -> OracleRun:
    """Enumerate one 2-D instance under one oracle config."""
    if config.kernel == "placement":
        m = Model()
        try:
            kernel, xs, ys, ss = build_kernel(
                m, region, modules, kernel=config.options
            )
        except Inconsistent:
            return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)
        dv = []
        for x, y, s in zip(xs, ys, ss):
            dv.extend([x, y, s])

        def decode(sol, n=len(modules)):
            return tuple(
                (sol[f"s{i}"], sol[f"x{i}"], sol[f"y{i}"]) for i in range(n)
            )

        run = _enumerate(m, dv, decode)
        run.inc_stats = kernel.inc_stats
        return run
    if config.kernel != "geost":
        raise ValueError(f"unknown oracle kernel {config.kernel!r}")
    kinds = {
        k for mod in modules for fp in mod.shapes for _, _, k in fp.cells
    }
    regions = fabric_to_forbidden_regions(region, kinds)
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    sid_offsets = []
    offset = 0
    for i, mod in enumerate(modules):
        sids = [table.add_footprint(fp) for fp in mod.shapes]
        x = m.int_var(0, region.width - 1, f"x{i}")
        y = m.int_var(0, region.height - 1, f"y{i}")
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, [x, y], s, table))
        dv.extend([x, y, s])
        sid_offsets.append(offset)
        offset += mod.n_alternatives
    try:
        geost = Geost(objects, regions, kernel=config.options)
        m.post(geost)
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, n=len(modules), offs=tuple(sid_offsets)):
        return tuple(
            (sol[f"s{i}"] - offs[i], sol[f"x{i}"], sol[f"y{i}"])
            for i in range(n)
        )

    run = _enumerate(m, dv, decode)
    run.inc_stats = geost.inc_stats
    return run


def oracle_run_3d(instance, config: OracleConfig) -> OracleRun:
    """Enumerate one 3-D pure-geost instance under one oracle config.

    Only the reference kernel speaks k-D, so ``config.kernel`` must be
    ``"geost"``; incremental/bitboard apply as usual.
    """
    if config.kernel != "geost":
        raise ValueError("3-D instances only run on the reference kernel")
    dims, objs, regions = instance
    m = Model()
    table = ShapeTable()
    objects = []
    dv = []
    for i, alts in enumerate(objs):
        sids = [table.add(GeostShape(boxes)) for boxes in alts]
        origin = [
            m.int_var(0, limit - 1, f"{axis}{i}")
            for axis, limit in zip("xyz", dims)
        ]
        s = m.int_var(min(sids), max(sids), f"s{i}")
        objects.append(GeostObject(i, origin, s, table))
        dv.extend(origin)
        dv.append(s)
    try:
        geost = Geost(objects, regions, kernel=config.options)
        m.post(geost)
    except Inconsistent:
        return OracleRun(frozenset(), _ROOT_INFEASIBLE, None)

    def decode(sol, names=tuple(v.name for v in dv)):
        return tuple(sol[name] for name in names)

    run = _enumerate(m, dv, decode)
    run.inc_stats = geost.inc_stats
    return run


def check_profile_invariants(run: OracleRun, config: OracleConfig) -> None:
    """Per-config counter invariants — catches silently-degraded modes."""
    inc = run.inc_stats
    if inc is None:  # root-infeasible before post finished
        return
    for name, value in inc.as_dict().items():
        assert value >= 0, f"{config.label()}: counter {name} negative"
    if not config.bitboard:
        assert inc.rows_tested == 0, (
            f"{config.label()}: scalar mode reported vectorized row scans"
        )
        assert inc.fallbacks == 0, (
            f"{config.label()}: scalar mode reported bitboard fallbacks"
        )
    if not config.incremental:
        # the placement kernel shares its filter loop (dirty) and imprint
        # path (rasterized) across modes; only cache reuse is incremental-only
        assert inc.reused == 0, (
            f"{config.label()}: wholesale mode reported cache reuse"
        )
        if config.kernel == "geost":
            assert inc.dirty == 0 and inc.rasterized == 0, (
                f"{config.label()}: wholesale mode reported incremental work"
            )


def assert_bit_identical(
    region_or_instance,
    config_a: OracleConfig,
    config_b: OracleConfig,
    modules=None,
    context: str = "",
) -> Tuple[OracleRun, OracleRun]:
    """Run one instance under two configs and assert bit-identity.

    2-D instances pass ``(region, config_a, config_b, modules=modules)``;
    3-D pure-geost instances pass the instance tuple with
    ``modules=None``.  Returns both runs so callers can stack further
    assertions (e.g. ground-truth comparison, row-scan engagement).
    """
    if modules is not None:
        run_a = oracle_run(region_or_instance, modules, config_a)
        run_b = oracle_run(region_or_instance, modules, config_b)
    else:
        run_a = oracle_run_3d(region_or_instance, config_a)
        run_b = oracle_run_3d(region_or_instance, config_b)
    where = f" [{context}]" if context else ""
    assert run_a.solutions == run_b.solutions, (
        f"{config_a.label()} vs {config_b.label()}{where}: "
        f"solution sets differ "
        f"(only-a={sorted(run_a.solutions - run_b.solutions)[:3]}, "
        f"only-b={sorted(run_b.solutions - run_a.solutions)[:3]})"
    )
    assert run_a.fingerprint == run_b.fingerprint, (
        f"{config_a.label()} vs {config_b.label()}{where}: "
        f"search trees differ\n"
        f"  a: {dict(zip(FINGERPRINT_KEYS, run_a.fingerprint))}\n"
        f"  b: {dict(zip(FINGERPRINT_KEYS, run_b.fingerprint))}"
    )
    check_profile_invariants(run_a, config_a)
    check_profile_invariants(run_b, config_b)
    return run_a, run_b
