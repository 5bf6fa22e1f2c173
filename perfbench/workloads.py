"""The benchmark's workloads: set-up, timed replay, checks and metrics.

Three workloads, each a closed loop driven from one process and one
thread against the in-process (inline) service or the offline CP
backend:

* ``serve-steady`` — 4 column-split Table-I shards, ``affinity`` router,
  greedy chain, queue 8, no-break defrag on reject; uniform arrivals at
  interarrival 2, lifetime 24.  It stays below saturation, so a submit is
  route, residual, anchor masks, greedy search, commit.
* ``serve-contended`` — the same shards behind the ``least-fragmented``
  router with a 16-tick reservation horizon; slack-heavy bursts at
  interarrival 1 and a long lifetime.  It loads what ``serve-steady``
  bypasses: defrag planning, the fragmentation metric, queue retries,
  reservation probes and spill probes on nearly full shards.
* ``solve-table1`` — the offline ``cp`` backend under a node budget on
  seeded Table-I instances (30 modules, 160x24 irregular fabric), each
  solved with 4 design alternatives and with the primary shape only.
  Every serving layer is bypassed and all anchor masks are cache hits.

A run is a series of rounds, each on its own inputs drawn from the
workload seed: set up, time every operation (one replay of a trace, or
one pass over an instance set), check the outputs.  Rounds continue
until the timed operations add up to the requested seconds, and number
at least the workload's ``rounds``.  Every timing figure is computed per
round and reported as the median over the rounds.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import stats
from perfbench.hostspeed import HostClock, NotAlone, other_threads
from perfbench.tracing import OP, SHARE_LAYERS, Recorder, installed

#: tail percentile of every timing.  Not p99: in serve-steady about 1% of
#: submits spill or run a defrag pass, and which side of that group p99
#: lands on changes with the seed (3.3 ms against 10.4 ms on the same
#: code).  Not p95: in serve-contended it falls among the costliest
#: defrag passes, whose cost depends on the trace (spread 19% over five
#: seeds, against 10% for p90).
TAIL = 90.0
#: shards of the serving workloads (column splits of the Table-I fabric)
N_SHARDS = 4


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload."""

    name: str
    router: str
    n_requests: int
    mean_interarrival: int
    mean_lifetime: int
    profile: str
    reservation_horizon: int
    #: at least this many rounds, each on its own inputs and set-up, per run
    rounds: int
    #: limit on the tail latency from due behind ``sustained_rps`` (ms),
    #: a small multiple of the first baseline's ``op_p90_ms``
    limit_ms: float
    #: fixed offered rate of ``due_p90_ms`` (operations per second), a
    #: share of the first baseline's ``ops_per_s``; README.md says how
    #: both were chosen
    fixed_rate: float


@dataclass(frozen=True)
class SolveSpec:
    """The offline solve workload."""

    name: str
    n_instances: int
    n_modules: int
    n_alternatives: int
    node_limit: int
    #: as in :class:`ServeSpec`
    rounds: int
    limit_ms: float
    fixed_rate: float


SERVE_STEADY = ServeSpec(
    name="serve-steady",
    router="affinity",
    n_requests=800,
    mean_interarrival=2,
    mean_lifetime=24,
    profile="uniform",
    reservation_horizon=0,
    rounds=4,
    limit_ms=5.3,  # 2x op_p90 2.64 ms
    fixed_rate=315.0,  # 0.55x ops_per_s 573/s
)
SERVE_CONTENDED = ServeSpec(
    name="serve-contended",
    router="least-fragmented",
    n_requests=400,
    mean_interarrival=1,
    mean_lifetime=80,
    profile="slack-heavy",
    reservation_horizon=16,
    rounds=5,
    limit_ms=150.0,  # 3x op_p90 50.5 ms
    fixed_rate=20.0,  # 0.4x ops_per_s 49.2/s
)
SOLVE_TABLE1 = SolveSpec(
    name="solve-table1",
    n_instances=16,
    n_modules=30,
    n_alternatives=4,
    node_limit=250,
    rounds=4,
    limit_ms=780.0,  # 2x op_p90 391 ms
    fixed_rate=2.3,  # 0.6x ops_per_s 3.82/s
)
WORKLOADS = {w.name: w for w in (SERVE_STEADY, SERVE_CONTENDED, SOLVE_TABLE1)}


@dataclass
class Measured:
    """What one run measured, before it becomes metrics."""

    #: service time of every operation, per round: its wall time scaled
    #: to the reference host speed (see :mod:`perfbench.hostspeed`)
    round_op_s: List[List[float]]
    #: operations executed, and their summed wall time, all rounds
    attempted: int
    wall_s: float
    #: largest share of CPU time spent outside the benchmark thread in
    #: any round (see :func:`perfbench.hostspeed.other_threads`)
    other_cpu_share: float
    #: operations whose outcome carries a degraded-rung error
    failed: int
    setup_s: List[float]
    rounds: int
    #: outcome fingerprint of each round
    fingerprint: List[Dict]
    utilization_pct: float
    #: share of operations refused (serving) or left unsolved (solve)
    miss_share: float
    #: per-layer counters of the first round (traced runs only)
    layer_counts: Dict[str, float]

    @property
    def op_s(self) -> List[float]:
        """Service times of all rounds' operations, in order."""
        return [t for times in self.round_op_s for t in times]

    @property
    def host_scale(self) -> float:
        """Scaled over raw operation time: below 1 on a host slower than
        the reference."""
        return sum(self.op_s) / self.wall_s


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _service_config(spec: ServeSpec, cache):
    from repro.experiments.service_load import serving_config

    cfg = serving_config(
        spec.router,
        defrag="no-break",
        reservation_horizon=spec.reservation_horizon,
    )
    cfg.runtime.cache = cache
    return cfg


def serve_setup(spec: ServeSpec, seed: int):
    """Build fabric, shards and trace, construct the service and warm
    its anchor-mask cache with the trace's module library."""
    from repro.core.runtime import generate_workload
    from repro.core.service import ShardedPlacementService
    from repro.experiments.config import default_fabric
    from repro.fabric.cache import AnchorMaskCache

    regions = ShardedPlacementService.split(default_fabric(), N_SHARDS)
    trace = sorted(
        generate_workload(
            spec.n_requests,
            seed=seed,
            mean_interarrival=spec.mean_interarrival,
            mean_lifetime=spec.mean_lifetime,
            profile=spec.profile,
        ),
        key=lambda r: r.arrival,
    )
    cache = AnchorMaskCache()
    service = ShardedPlacementService(regions, _service_config(spec, cache))
    service.warm([r.module for r in trace])
    return service, trace, cache


def _serve_fingerprint(service, outcomes) -> Dict:
    s = service.stats
    digest = hashlib.blake2b(digest_size=8)
    for o in outcomes:
        p = o.placement
        where = (p.shape_index, p.x, p.y) if p is not None else None
        digest.update(
            f"{o.request.module.name}|{o.status}|{o.reason}|{o.method}|"
            f"{o.admitted_at}|{where};".encode()
        )
    return {
        "admitted": s.admitted,
        "rejected": s.rejected,
        "reject_reasons": dict(sorted(s.rejected_by_reason.items())),
        "admits_by_method": dict(sorted(s.admits_by_method.items())),
        "defrag_passes": s.defrags,
        "defrag_moves_planned_executed_aborted": [
            s.defrag_planned_moves,
            s.defrag_executed_moves,
            s.defrag_aborted_moves,
        ],
        "bookings": s.reservations_booked,
        "reservation_admits": s.reservation_admits,
        "outcomes": digest.hexdigest(),
    }


def check_serving(service, trace, outcomes) -> None:
    """Shard invariants and request conservation after drain."""
    for shard in service.shards:
        try:
            shard.check_invariants()
        except ValueError as exc:
            raise CheckFailed(f"shard {shard.region.name}: {exc}") from exc
    s = service.stats
    if s.arrivals != len(trace):
        raise CheckFailed(f"{s.arrivals} arrivals recorded for {len(trace)} submits")
    if s.admitted + s.rejected != len(trace):
        raise CheckFailed(
            f"admitted {s.admitted} + rejected {s.rejected} != "
            f"submitted {len(trace)} after drain"
        )
    status = Counter(o.status for o in outcomes)
    if status["admitted"] != s.admitted or status["rejected"] != s.rejected:
        raise CheckFailed(f"outcome states {dict(status)} disagree with stats")
    if any(shard.reservations for shard in service.shards):
        raise CheckFailed("reservations outstanding after drain")


def serving_utilization(service, trace, outcomes) -> float:
    """Admitted area x residency ticks over reconfigurable area x span."""
    area_ticks = sum(
        o.placement.footprint.area * o.request.lifetime
        for o in outcomes
        if o.status == "admitted"
    )
    capacity = sum(shard.region.available_area() for shard in service.shards)
    span = service.clock - trace[0].arrival
    return 100.0 * area_ticks / (capacity * span)


def _serve_layer_counts(service, outcomes, cache_delta, rec: Recorder, depth_max: int) -> Dict:
    """Per-layer counters of one traced replay."""
    s = service.stats
    n = len(outcomes)
    waits = sorted(
        o.admitted_at - o.request.arrival
        for o in outcomes
        if o.status == "admitted" and o.admitted_at > o.request.arrival
    )
    rescued = sum(v for k, v in s.admits_by_method.items() if k.endswith("+defrag"))
    plans = rec.calls.get("defrag.plan", 0)
    frag_queries = rec.counts.get("frag.queries", 0)
    return {
        "spill.offers_per_op": rec.calls.get("offer", 0) / n,
        "spill.park_share": rec.calls.get("reserve", 0) / n,
        "queue.depth_max": depth_max,
        "queue.admits": s.queued_admits,
        "queue.wait_ticks_p50": stats.percentile(waits, 50) if waits else 0,
        "mask_cache.hit_share": _hit_share(cache_delta),
        "frag.memo_share": (
            1.0 - rec.calls.get("frag", 0) / frag_queries if frag_queries else 0.0
        ),
        "defrag.passes": s.defrags,
        "defrag.moves_executed": s.defrag_executed_moves,
        "defrag.moves_aborted": s.defrag_aborted_moves,
        "defrag.exec_share": (
            s.defrag_executed_moves / s.defrag_planned_moves
            if s.defrag_planned_moves
            else 0.0
        ),
        "defrag.rescue_share": rescued / plans if plans else 0.0,
        "reserve.booked": s.reservations_booked,
        "reserve.honoured_share": (
            s.reservation_admits / s.reservations_booked
            if s.reservations_booked
            else 0.0
        ),
        "reserve.expired": s.reservations_expired,
    }


def _hit_share(delta: Dict[str, int]) -> float:
    lookups = delta["hits"] + delta["misses"]
    return delta["hits"] / lookups if lookups else 0.0


@dataclass
class Round:
    """One timed round: a trace replay or a pass over the instances."""

    #: start (``perf_counter``) and wall time of each operation
    starts: List[float]
    walls: List[float]
    missed: List[bool]
    failed: int
    fingerprint: Dict
    utilization_pct: float
    #: per-layer counters (traced rounds only)
    counts: Dict


def _op(rec: Optional[Recorder], rid: int):
    """The traced-operation context, or nothing when untraced."""
    return rec.op(rid) if rec is not None else nullcontext()


def _serve_round(state, rec: Optional[Recorder], clock: HostClock) -> Round:
    """Replay the trace once through a freshly set-up service, drain it
    and check the outputs."""
    service, trace, cache = state
    starts: List[float] = []
    walls: List[float] = []
    outcomes = []
    depth_max = 0
    snapshot = cache.snapshot()
    try:
        for rid, request in enumerate(trace):
            clock.tick(perf_counter())
            t = perf_counter()
            with _op(rec, rid):
                outcomes.append(service.submit(request))
            walls.append(perf_counter() - t)
            starts.append(t)
            if rec is not None:
                depth_max = max(
                    depth_max, max(shard.pending_count for shard in service.shards)
                )
        delta = cache.delta(snapshot)
        entries = len(cache)
        service.drain()
        check_serving(service, trace, outcomes)
        counts: Dict = {}
        if rec is not None:
            counts = _serve_layer_counts(service, outcomes, delta, rec, depth_max)
            counts["mask_cache.entries_end"] = entries
        return Round(
            starts=starts,
            walls=walls,
            missed=[o.status == "rejected" for o in outcomes],
            failed=sum(1 for o in outcomes if o.errors),
            fingerprint=_serve_fingerprint(service, outcomes),
            utilization_pct=serving_utilization(service, trace, outcomes),
            counts=counts,
        )
    finally:
        service.close()


# ----------------------------------------------------------------------
# solve workload
# ----------------------------------------------------------------------
def solve_setup(spec: SolveSpec, seed: int):
    """Build the Table-I fabric and module sets, construct the backend and
    warm the anchor-mask cache with every shape of every module."""
    from repro.core.backend import create_backend
    from repro.core.placer import PlacerConfig
    from repro.experiments.config import default_fabric
    from repro.fabric.cache import AnchorMaskCache
    from repro.modules.generator import GeneratorConfig, ModuleGenerator

    region = default_fabric()
    gen_cfg = GeneratorConfig(n_alternatives=spec.n_alternatives)
    rng = random.Random(seed)
    jobs = []
    cache = AnchorMaskCache()
    for i in range(spec.n_instances):
        generator = ModuleGenerator(seed=rng.getrandbits(31), config=gen_cfg)
        modules = generator.generate_set(spec.n_modules)
        cache.warm(region, modules)
        jobs.append((i, True, modules))
        jobs.append((i, False, [m.restricted(1) for m in modules]))
    backend = create_backend("cp", PlacerConfig(time_limit=None))
    return region, jobs, cache, backend


def _solve_fingerprint(results) -> Dict:
    digest = hashlib.blake2b(digest_size=8)
    extents: Dict[str, List] = {"alternatives": [], "primary": []}
    for i, alts, r in results:
        extents["alternatives" if alts else "primary"].append(
            r.extent if r.solved else None
        )
        nodes = getattr(r.stats.get("search"), "nodes", None)
        digest.update(f"{i}|{alts}|{r.status}|{r.extent}|{nodes}".encode())
        for p in sorted(r.placements, key=lambda p: p.module.name):
            digest.update(f"{p.module.name}:{p.shape_index}:{p.x}:{p.y};".encode())
    return {
        "solves": len(results),
        "unsolved": sum(1 for _, _, r in results if not r.solved),
        "extents": extents,
        "placements": digest.hexdigest(),
    }


def alt_gain_pts(util: Dict[Tuple[int, bool], float]) -> float:
    """Utilization with alternatives minus without, in points, over the
    instances solved in both conditions."""
    paired = [i for i, alts in util if alts and (i, False) in util]
    if not paired:
        return 0.0
    return 100.0 * statistics.mean(util[(i, True)] - util[(i, False)] for i in paired)


def _solve_layer_counts(util, profiles, cache_delta) -> Dict:
    """Per-layer counters of one traced pass, read from the profiles the
    ``cp`` backend returns."""
    nodes = sum(p.nodes for p in profiles)
    props = sum(p.propagations for p in profiles)
    kernel = [
        p.propagators["placement-kernel"]
        for p in profiles
        if "placement-kernel" in p.propagators
    ]
    reused = sum(p.geost_reused for p in profiles)
    dirty = sum(p.geost_dirty for p in profiles)
    return {
        "cp.nodes": nodes,
        "cp.failures": sum(p.failures for p in profiles),
        "cp.propagations_per_node": props / nodes if nodes else 0.0,
        "cp.solve_ms": 1e3 * sum(p.elapsed for p in profiles),
        "cp.alt_gain_pts": alt_gain_pts(util),
        "geost.kernel.calls": sum(k.calls for k in kernel),
        "geost.kernel.s": sum(k.time_s for k in kernel),
        "geost.reuse_share": reused / (reused + dirty) if reused + dirty else 0.0,
        "geost.bitboard_rows": sum(p.bitboard_rows_tested for p in profiles),
        "mask_cache.hit_share": _hit_share(cache_delta),
    }


def _solve_round(state, spec: SolveSpec, rec: Optional[Recorder], clock: HostClock) -> Round:
    """Solve every instance once in both conditions and verify each result."""
    from repro.core.backend import PlacementRequest
    from repro.metrics.utilization import extent_utilization

    region, jobs, cache, backend = state
    starts: List[float] = []
    walls: List[float] = []
    results = []
    snapshot = cache.snapshot()
    for rid, (i, alts, modules) in enumerate(jobs):
        request = PlacementRequest(
            region,
            modules,
            time_limit=None,
            node_limit=spec.node_limit,
            cache=cache,
            profile=rec is not None,
        )
        clock.tick(perf_counter())
        t = perf_counter()
        with _op(rec, rid):
            result = backend.place(request)
        walls.append(perf_counter() - t)
        starts.append(t)
        try:
            result.verify()
        except ValueError as exc:
            raise CheckFailed(f"instance {i} (alternatives={alts}): {exc}") from exc
        if result.solved != (bool(result.placements) and result.all_placed):
            raise CheckFailed(f"instance {i}: solved flag disagrees with placements")
        results.append((i, alts, result))
    util = {(i, alts): extent_utilization(r) for i, alts, r in results if r.solved}
    with_alts = [u for (_, alts), u in util.items() if alts]
    counts: Dict = {}
    if rec is not None:
        profiles = [r.stats["profile"] for _, _, r in results]
        counts = _solve_layer_counts(util, profiles, cache.delta(snapshot))
        counts["mask_cache.entries_end"] = len(cache)
    return Round(
        starts=starts,
        walls=walls,
        missed=[not r.solved for _, _, r in results],
        failed=0,
        fingerprint=_solve_fingerprint(results),
        utilization_pct=100.0 * statistics.mean(with_alts) if with_alts else 0.0,
        counts=counts,
    )


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def round_seed(name: str, seed: int, k: int) -> int:
    """Input seed of round ``k`` of a run with workload seed ``seed``."""
    return random.Random(f"{name}:{seed}:{k}").getrandbits(31)


def measure(
    name: str,
    seed: int,
    seconds: float,
    rec: Optional[Recorder] = None,
    min_rounds: Optional[int] = None,
) -> Measured:
    """Time at least ``min_rounds`` rounds (by default the workload's
    ``rounds``), and more until the operations add up to ``seconds``.

    Round ``k`` sets up anew on inputs generated from
    :func:`round_seed`, so a run averages over several independent
    traces (or instance sets) instead of repeating one; every set-up
    feeds the ``setup_s`` median.
    """
    spec = WORKLOADS[name]
    serving = isinstance(spec, ServeSpec)
    if min_rounds is None:
        min_rounds = spec.rounds
    clock = HostClock()
    setups: List[Tuple[float, float]] = []
    rounds: List[Round] = []
    other_cpu = 0.0
    while len(rounds) < min_rounds or sum(sum(r.walls) for r in rounds) < seconds:
        k_seed = round_seed(name, seed, len(rounds))
        clock.burst()
        t0 = perf_counter()
        state = serve_setup(spec, k_seed) if serving else solve_setup(spec, k_seed)
        setups.append((t0, perf_counter() - t0))
        clock.burst()
        gc.collect()
        try:
            with other_threads() as busy:
                if serving:
                    rounds.append(_serve_round(state, rec, clock))
                else:
                    rounds.append(_solve_round(state, spec, rec, clock))
        except NotAlone as exc:
            raise CheckFailed(f"round {len(rounds)}: {exc}") from exc
        other_cpu = max(other_cpu, busy.other_share)
        del state  # free this round's service before the next set-up
    clock.probe()
    per_round = [clock.scaled(r.starts, r.walls) for r in rounds]
    missed = [x for r in rounds for x in r.missed]
    return Measured(
        round_op_s=per_round,
        attempted=len(missed),
        wall_s=sum(sum(r.walls) for r in rounds),
        other_cpu_share=other_cpu,
        failed=sum(r.failed for r in rounds),
        setup_s=clock.scaled([t for t, _ in setups], [w for _, w in setups]),
        rounds=len(rounds),
        fingerprint=[r.fingerprint for r in rounds],
        utilization_pct=statistics.mean(r.utilization_pct for r in rounds),
        miss_share=sum(missed) / len(missed),
        layer_counts=rounds[0].counts,
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(spec, m: Measured) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric of one run as name -> (value, unit).

    Each timing figure is computed per round (one independent trace or
    instance set) and reported as the median over the rounds, so a
    trace that runs heavy, or a stretch of slow host that the scaling
    missed, moves one round's figures and not the run's.
    """

    def per_round(figure) -> float:
        return statistics.median(figure(times) for times in m.round_op_s)

    def quantile(q: float):
        return lambda times: stats.percentile(sorted(times), q) * 1e3

    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "ops_per_s": (per_round(lambda times: len(times) / sum(times)), "1/s"),
        "op_p50_ms": (per_round(quantile(50)), "ms"),
        "op_p90_ms": (per_round(quantile(TAIL)), "ms"),
        "sustained_rps": (
            per_round(lambda times: stats.sustained_rate(times, spec.limit_ms / 1e3, TAIL)),
            "1/s",
        ),
        "due_p90_ms": (
            per_round(lambda times: stats.due_percentile(times, spec.fixed_rate, TAIL))
            * 1e3,
            "ms",
        ),
        "success_rate": (1.0 - m.miss_share, "ratio"),
        "utilization_pct": (m.utilization_pct, "%"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


#: per-layer metrics of the traced round: (name, unit, source, layer).
#: "calls"/"ms" read a span layer's call count or self time; "round"
#: reads the round's counter of the same name.
PER_LAYER = (
    ("route.calls", "count", "calls", "route"),
    ("route.ms", "ms", "ms", "route"),
    ("spill.offers_per_op", "ratio", "round", None),
    ("spill.park_share", "ratio", "round", None),
    ("offer.ms", "ms", "ms", "offer"),
    ("advance.ms", "ms", "ms", "advance"),
    ("queue.depth_max", "count", "round", None),
    ("queue.admits", "count", "round", None),
    ("queue.wait_ticks_p50", "ticks", "round", None),
    ("residual.calls", "count", "calls", "residual"),
    ("residual.ms", "ms", "ms", "residual"),
    ("backend.place.calls", "count", "calls", "backend.place"),
    ("backend.place.ms", "ms", "ms", "backend.place"),
    ("backend.place.hit_share", "ratio", "hits", "backend.place"),
    ("mask_cache.lookups", "count", "calls", "mask_cache"),
    ("mask_cache.hit_share", "ratio", "round", None),
    ("mask_cache.entries_end", "count", "round", None),
    ("mask_cache.ms", "ms", "ms", "mask_cache"),
    ("masks.anchor.calls", "count", "calls", "masks.anchor"),
    ("masks.anchor.ms", "ms", "ms", "masks.anchor"),
    ("masks.compat.calls", "count", "calls", "masks.compat"),
    ("masks.compat.ms", "ms", "ms", "masks.compat"),
    ("frag.calls", "count", "calls", "frag"),
    ("frag.ms", "ms", "ms", "frag"),
    ("frag.memo_share", "ratio", "round", None),
    ("defrag.plan.calls", "count", "calls", "defrag.plan"),
    ("defrag.plan.ms", "ms", "ms", "defrag.plan"),
    ("defrag.passes", "count", "round", None),
    ("defrag.moves_executed", "count", "round", None),
    ("defrag.moves_aborted", "count", "round", None),
    ("defrag.exec_share", "ratio", "round", None),
    ("defrag.rescue_share", "ratio", "round", None),
    ("reserve.ms", "ms", "ms", "reserve"),
    ("reserve.booked", "count", "round", None),
    ("reserve.honoured_share", "ratio", "round", None),
    ("reserve.expired", "count", "round", None),
    ("cp.nodes", "count", "round", None),
    ("cp.failures", "count", "round", None),
    ("cp.propagations_per_node", "ratio", "round", None),
    ("cp.solve_ms", "ms", "round", None),
    ("cp.alt_gain_pts", "points", "round", None),
    ("geost.kernel.calls", "count", "round", None),
    ("geost.kernel.ms", "ms", "ms", "geost.kernel"),
    ("geost.reuse_share", "ratio", "round", None),
    ("geost.bitboard_rows", "count", "round", None),
    ("op.wall_ms", "ms", "wall", None),
    ("op.unattributed_ms", "ms", "ms", OP),
) + tuple((f"share.{layer}", "ratio", "share", layer) for layer in SHARE_LAYERS + (OP,)) + (
    ("trace.overhead", "ratio", "overhead", None),
)


def per_layer(
    name: str, seed: int, seconds: float, spans_path: Optional[str] = None
) -> Tuple[Measured, Dict[str, Tuple[float, str]], Recorder]:
    """The traced run: untraced rounds for ``seconds`` as the overhead
    reference, then round 0 again, traced.  Returns the traced
    measurement, every per-layer metric of that round as
    name -> (value, unit), and the recorder."""
    plain = measure(name, seed, seconds, min_rounds=1)
    rec = Recorder()
    with installed(rec):
        m = measure(name, seed, 0.0, rec, min_rounds=1)
    if spans_path:
        rec.write(spans_path)
    counts = m.layer_counts
    # the CP kernel times its own propagation; move that share of the
    # backend span's self time to the geost layer
    rec.attribute("backend.place", "geost.kernel", counts.get("geost.kernel.s", 0.0))
    rate = len(m.op_s) / sum(m.op_s)
    plain_rate = len(plain.round_op_s[0]) / sum(plain.round_op_s[0])
    shares = rec.shares()
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit, source, layer in PER_LAYER:
        if source == "calls":
            value = rec.calls.get(layer, 0)
        elif source == "ms":
            value = rec.self_ms(layer)
        elif source == "hits":
            calls = rec.calls.get(layer, 0)
            value = rec.counts.get(f"{layer}.hits", 0) / calls if calls else 0.0
        elif source == "wall":
            value = rec.op_wall_s * 1e3
        elif source == "share":
            value = shares[metric]
        elif source == "overhead":
            value = rate / plain_rate
        else:
            value = counts.get(metric, 0)
        out[metric] = (value, unit)
    return m, out, rec
