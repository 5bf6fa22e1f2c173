"""The online runtime placement manager: admission, backpressure, defrag.

Scenario tests run on tiny scripted fabrics so every admission decision
is forced; the end-to-end comparison rides the seeded Table-I-style
workload of the experiment layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.runtime import (
    RejectReason,
    RuntimeConfig,
    RuntimePlacementManager,
    RuntimeRequest,
    RuntimeStats,
    generate_workload,
)
from repro.modules.generator import GeneratorConfig
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs import RecordingTracer, profiling_session, validate_event


def region_w(width: int, height: int = 2) -> PartialRegion:
    return PartialRegion.whole_device(homogeneous_device(width, height))


def rect(name: str, w: int, h: int = 2) -> Module:
    return Module(name, [Footprint.rectangle(w, h)])


def req(module: Module, arrival: int, lifetime: int = 100, deadline=None):
    return RuntimeRequest(module, arrival, lifetime, deadline)


def greedy_cfg(**kw) -> RuntimeConfig:
    return RuntimeConfig(probe="greedy", **kw)


class TestAdmissionBasics:
    def test_admit_and_depart(self):
        mgr = RuntimePlacementManager(region_w(6), greedy_cfg())
        out = mgr.submit(req(rect("a", 2), arrival=1, lifetime=3))
        assert out.admitted and out.method == "greedy"
        assert out.placement is not None and out.admitted_at == 1
        mgr.result().verify()
        mgr.advance_to(10)  # departure at t=4
        assert mgr.placements == []
        assert mgr.stats.departures == 1

    def test_reject_no_fit_is_graceful(self):
        mgr = RuntimePlacementManager(
            region_w(4), greedy_cfg(queue_capacity=0)
        )
        out = mgr.submit(req(rect("big", 6), arrival=1))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT
        assert mgr.stats.rejected_by_reason == {"no_fit": 1}

    def test_duplicate_names_rejected(self):
        mgr = RuntimePlacementManager(region_w(8), greedy_cfg())
        assert mgr.submit(req(rect("m", 2), 1)).admitted
        dup = mgr.submit(req(rect("m", 2), 2))
        assert dup.reason == RejectReason.DUPLICATE

    def test_alternatives_restricted_when_disabled(self):
        # 1x2 fits only via the second alternative: off → reject, on → fit
        tall = Module(
            "t", [Footprint.rectangle(4, 1), Footprint.rectangle(1, 2)]
        )
        blocker = Module("b", [Footprint.rectangle(3, 2)])
        for with_alts, expect in ((False, "rejected"), (True, "admitted")):
            mgr = RuntimePlacementManager(
                region_w(4),
                greedy_cfg(
                    with_alternatives=with_alts, queue_capacity=0,
                    defrag_on_reject=False,
                ),
            )
            assert mgr.submit(req(blocker, 1)).admitted
            assert mgr.submit(req(tall, 2)).status == expect

    def test_clock_never_goes_backwards(self):
        mgr = RuntimePlacementManager(region_w(6), greedy_cfg())
        mgr.submit(req(rect("a", 2), arrival=5))
        with pytest.raises(ValueError):
            mgr.advance_to(3)


class TestDefragAdmission:
    """A rejected arrival is admitted after a defrag pass (the tentpole
    scenario), pinned for both shape-change policies."""

    @pytest.mark.parametrize("allow_shape_change", [False, True])
    def test_defrag_unlocks_admission(self, allow_shape_change):
        # 6x2 fabric: a(2)|b(1)|c(2) leaves one free column at x=5;
        # b departs -> two 1-wide holes; d(2x2) needs defrag to fit
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            region_w(6),
            greedy_cfg(
                allow_shape_change=allow_shape_change, tracer=tracer,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 1), 1, lifetime=3)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        # b departs at t=4; free space is now cols {2, 5} (shattered)
        out = mgr.submit(req(rect("d", 2), 5, lifetime=100))
        assert out.admitted
        assert out.method == "greedy+defrag"
        assert mgr.stats.defrags >= 1
        mgr.result().verify()
        assert tracer.count("runtime.defrag") >= 1

    def test_without_defrag_the_same_trace_rejects(self):
        mgr = RuntimePlacementManager(
            region_w(6),
            greedy_cfg(
                defrag_on_reject=False, frag_threshold=1.0, queue_capacity=0,
            ),
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 1), 1, lifetime=3)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        out = mgr.submit(req(rect("d", 2), 5, lifetime=100))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT


class TestBackpressure:
    def test_queue_full_rejects_immediately(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=1)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=50)).admitted
        assert mgr.submit(req(rect("b", 2), 2)).status == "queued"
        out = mgr.submit(req(rect("c", 2), 3))
        assert out.reason == RejectReason.QUEUE_FULL
        assert mgr.pending_count == 1

    def test_queued_request_admitted_after_departure(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=2, max_queue_wait=20)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=4)).admitted
        queued = mgr.submit(req(rect("b", 2), 2, lifetime=5))
        assert queued.status == "queued"
        mgr.advance_to(10)  # a departs at t=5, b is retried
        assert queued.admitted
        assert queued.admitted_at == 5 and queued.request.arrival == 2
        assert mgr.stats.queued_admits == 1

    def test_deadline_expires_in_queue(self):
        tracer = RecordingTracer()
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=2, tracer=tracer)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=50)).admitted
        queued = mgr.submit(req(rect("b", 2), 2, deadline=5))
        assert queued.status == "queued"
        mgr.advance_to(6)
        assert queued.status == "rejected"
        assert queued.reason == RejectReason.DEADLINE
        kinds = tracer.kinds()
        assert kinds.get("runtime.reject") == 1

    def test_drain_settles_everything(self):
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4, max_queue_wait=100)
        )
        mgr.submit(req(rect("a", 2), 1, lifetime=3))
        mgr.submit(req(rect("b", 2), 2, lifetime=3))  # queued
        mgr.submit(req(rect("c", 2), 2, lifetime=3))  # queued behind b
        mgr.drain()
        assert mgr.pending_count == 0
        statuses = [o.status for o in mgr.outcomes]
        assert statuses[0] == "admitted" and "queued" not in statuses


class TestQueueRegressions:
    """Pinned queue bugs: both tests fail on the pre-fix manager."""

    def test_reject_triggered_defrag_retries_the_pending_queue(self):
        """Starvation regression: defrag frees space, queue must be retried.

        8x2 fabric. a(3)|b(2)|c(2) leave col 7 free; q(3) queues. b
        departs -> free cols {3,4,7}, still no 3-wide window, q stays
        queued.  e(4) arrives, cannot fit, and its reject-triggered
        defrag compacts a+c -> cols 5-7 free and contiguous.  q now
        fits — but pre-fix only departures retried the queue, so q sat
        starving until drain despite fitting the compacted floorplan.
        """
        mgr = RuntimePlacementManager(
            region_w(8),
            greedy_cfg(
                queue_capacity=4,
                max_queue_wait=100,
                frag_threshold=1.0,  # never fragmentation-triggered
                defrag_on_reject=True,
                defrag_cooldown=0,
            ),
        )
        assert mgr.submit(req(rect("a", 3), 1, lifetime=100)).admitted
        assert mgr.submit(req(rect("b", 2), 1, lifetime=4)).admitted
        assert mgr.submit(req(rect("c", 2), 2, lifetime=100)).admitted
        q = mgr.submit(req(rect("q", 3), 3, lifetime=100))
        assert q.status == "queued"
        mgr.advance_to(6)  # b departed at t=5; {3,4,7} free, q still queued
        assert q.status == "queued"
        e = mgr.submit(req(rect("e", 4), 6, lifetime=100))
        assert mgr.stats.defrags >= 1  # e's rejection triggered a pass
        assert not e.admitted
        # the defrag pass freed a 3-wide window: q must be admitted NOW,
        # not at the next departure (pre-fix: still "queued" here)
        assert q.admitted
        assert q.admitted_at == 6
        assert mgr.stats.queued_admits == 1
        mgr.result().verify()

    def test_drain_labels_unexpired_pending_as_drained(self):
        """Drain regression: an unexpired queued request is not a
        deadline miss — pre-fix it was reported as DEADLINE even though
        its deadline lay far in the future."""
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4)
        )
        # 3-wide on a 2-wide fabric: can never fit, queues forever
        never = mgr.submit(req(rect("never", 3), 1, deadline=1000))
        assert never.status == "queued"
        mgr.drain()
        assert never.status == "rejected"
        assert never.reason == RejectReason.DRAINED  # pre-fix: DEADLINE
        assert mgr.clock < 1000  # its deadline genuinely had not passed

    def test_drain_still_reports_real_deadline_misses(self):
        """The honest counterpart: a queued request whose deadline passes
        while drain plays out departures is still a DEADLINE reject."""
        mgr = RuntimePlacementManager(
            region_w(2), greedy_cfg(queue_capacity=4)
        )
        assert mgr.submit(req(rect("a", 2), 1, lifetime=10)).admitted
        expired = mgr.submit(req(rect("late", 3), 2, deadline=6))
        assert expired.status == "queued"
        mgr.drain()  # advances to a's departure at t=11, past deadline 6
        assert expired.reason == RejectReason.DEADLINE


class TestCrashInjection:
    """No exception escapes the manager's serving path."""

    def test_cp_probe_crash_falls_back_to_greedy(self, monkeypatch):
        import repro.core.backend.adapters as adapters

        class Boom:
            def __init__(self, *a, **kw):
                pass

            def place(self, *a, **kw):
                raise RuntimeError("injected solver crash")

        monkeypatch.setattr(adapters, "CPPlacer", Boom)
        mgr = RuntimePlacementManager(region_w(6), RuntimeConfig(probe="cp"))
        out = mgr.submit(req(rect("a", 2), 1))
        assert out.admitted and out.method == "greedy"
        assert out.errors and "injected" in out.errors[0]
        assert mgr.stats.probe_errors == 1

    def test_total_probe_failure_rejects_gracefully(self, monkeypatch):
        import repro.core.backend.adapters as adapters

        class Boom:
            def __init__(self, *a, **kw):
                pass

            def place(self, *a, **kw):
                raise RuntimeError("cp down")

        def greedy_boom(self, request, tracer, profiling):
            raise RuntimeError("mask kernel down")

        monkeypatch.setattr(adapters, "CPPlacer", Boom)
        monkeypatch.setattr(
            adapters.BaselineBackend, "_solve", greedy_boom
        )
        mgr = RuntimePlacementManager(
            region_w(6), RuntimeConfig(probe="cp", queue_capacity=0)
        )
        out = mgr.submit(req(rect("a", 2), 1))
        assert out.status == "rejected"
        assert out.reason == RejectReason.NO_FIT
        assert len(out.errors) >= 2
        assert mgr.stats.probe_errors >= 2


class TestObservability:
    # modules small enough for the 8x2 scenario fabric
    SMALL = GeneratorConfig(
        clb_min=4, clb_max=8, bram_max=0, height_min=2, height_max=2
    )

    def test_events_conform_to_schema(self):
        tracer = RecordingTracer()
        region = region_w(8)
        mgr = RuntimePlacementManager(region, greedy_cfg(tracer=tracer))
        mgr.run(
            generate_workload(
                12, seed=2, mean_lifetime=6, generator_config=self.SMALL
            )
        )
        kinds = tracer.kinds()
        assert kinds.get("runtime.arrival") == 12
        assert kinds.get("runtime.depart", 0) >= 1
        for event in tracer.events:
            assert validate_event(event.to_dict()) == []

    def test_profile_lands_in_session(self):
        region = region_w(8)
        with profiling_session("runtime") as session:
            mgr = RuntimePlacementManager(region, greedy_cfg())
            mgr.run(
                generate_workload(
                    8, seed=2, mean_lifetime=6, generator_config=self.SMALL
                )
            )
        merged = session.merged()
        assert merged.meta["runtime.arrivals"] == 8
        assert (
            merged.meta["runtime.admitted"]
            + merged.meta["runtime.rejected"]
            == 8
        )

    def test_timeline_and_mean_utilization(self):
        mgr = RuntimePlacementManager(region_w(8), greedy_cfg())
        log = mgr.run(
            [req(rect("a", 4), 1, lifetime=4), req(rect("b", 4), 3, lifetime=4)]
        )
        assert len(log.timeline) == 3
        assert 0.0 < log.mean_utilization() <= 1.0
        # everything departed by drain time
        assert log.timeline[-1][1] == 0


def _field_strategy(f):
    if f.default_factory is not MISSING:  # the dict tallies
        return st.dictionaries(
            st.sampled_from(["no_fit", "queue_full", "cp", "greedy"]),
            st.integers(1, 50),
            max_size=3,
        )
    if isinstance(f.default, float):
        # dyadic seconds: every sum is exact, so float addition is
        # associative on these draws
        return st.integers(0, 1 << 20).map(lambda n: n / 1024)
    return st.integers(0, 1000)


runtime_stats = st.builds(
    RuntimeStats, **{f.name: _field_strategy(f) for f in fields(RuntimeStats)}
)


class TestStatsMerge:
    """``RuntimeStats.__add__``: the service-level merge of shard stats."""

    @given(runtime_stats)
    def test_empty_stats_are_the_identity(self, a):
        assert RuntimeStats() + a == a
        assert a + RuntimeStats() == a

    @given(runtime_stats, runtime_stats, runtime_stats)
    def test_merge_is_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(st.lists(runtime_stats, min_size=1, max_size=4))
    def test_merge_equals_hand_summed_fields(self, parts):
        merged = RuntimeStats()
        for part in parts:
            merged = merged + part
        for f in fields(RuntimeStats):
            values = [getattr(p, f.name) for p in parts]
            if f.name == "max_latency_s":
                expected = max(values)
            elif isinstance(values[0], dict):
                expected = dict(sum(map(Counter, values), Counter()))
            else:
                expected = sum(values)
            assert getattr(merged, f.name) == expected, f.name


class TestWorkloadGenerator:
    def test_seeded_and_ordered(self):
        a = generate_workload(15, seed=4)
        b = generate_workload(15, seed=4)
        c = generate_workload(15, seed=5)
        assert [r.arrival for r in a] == sorted(r.arrival for r in a)
        assert [(r.module.name, r.arrival, r.lifetime) for r in a] == [
            (r.module.name, r.arrival, r.lifetime) for r in b
        ]
        assert [(r.arrival, r.lifetime) for r in a] != [
            (r.arrival, r.lifetime) for r in c
        ]

    def test_table1_distribution_by_default(self):
        trace = generate_workload(10, seed=1)
        for r in trace:
            assert r.lifetime > 0
            assert 1 <= r.module.n_alternatives <= 4

    def test_deadline_slack(self):
        trace = generate_workload(5, seed=1, deadline_slack=7)
        assert all(r.deadline == r.arrival + 7 for r in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_workload(-1)
        with pytest.raises(ValueError):
            RuntimeRequest(rect("x", 1), arrival=0, lifetime=0)
        with pytest.raises(ValueError):
            RuntimeConfig(probe="quantum").validate()


class TestAlternativesServeMore:
    """The acceptance demo: on the seeded 60-event trace, alternatives
    strictly reduce the rejection count (and never on any tested seed
    increase it)."""

    def test_60_event_demo_trace(self):
        from repro.experiments.runtime_exp import runtime_comparison

        rows = {r.label: r for r in runtime_comparison(60, seed=7)}
        mono = rows["runtime (1 shape)"]
        poly = rows["runtime (alternatives)"]
        assert mono.total == poly.total == 60
        assert poly.rejected < mono.rejected
        assert poly.mean_utilization > mono.mean_utilization
