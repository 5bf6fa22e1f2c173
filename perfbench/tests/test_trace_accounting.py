"""The traced run reports every per-layer metric named in BENCHMARK.json
on every workload, its layer self times account for the operation wall
time, and its numbers confirm what each workload was chosen to load."""

import dataclasses
import json
import os

import pytest

from perfbench import workloads
from perfbench.tracing import OP, SHARE_LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: smaller inputs than the benchmark's, with the same character
SMALL = {
    "serve-steady": {"n_requests": 300},
    "serve-contended": {"n_requests": 200},
    "solve-table1": {"n_instances": 3},
}


@pytest.fixture(scope="module")
def traced():
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, sizes in SMALL.items():
            spec = dataclasses.replace(workloads.WORKLOADS[name], **sizes)
            mp.setitem(workloads.WORKLOADS, name, spec)
            out[name] = workloads.per_layer(name, seed=3, seconds=0.0)
    return out


def _value(traced, workload, metric):
    return traced[workload][1][metric][0]


def test_every_named_metric_is_reported(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        named = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    for workload, (_, metrics, _) in traced.items():
        assert {k: u for k, (_, u) in metrics.items()} == named, workload


def test_self_times_add_up_to_operation_wall_time(traced):
    for workload, (measured, metrics, rec) in traced.items():
        # every span the wrappers recorded belongs to a reported layer
        assert set(rec.self_s) <= set(SHARE_LAYERS) | {OP}, workload
        assert min(rec.self_s.values()) > -1e-6, workload
        attributed = sum(rec.self_s.values())
        assert attributed == pytest.approx(rec.op_wall_s, rel=0.03), workload
        shares = sum(v for k, (v, _) in metrics.items() if k.startswith("share."))
        assert shares == pytest.approx(1.0, abs=0.03), workload
        # the operation span covers what the benchmark timed around it
        assert rec.op_wall_s == pytest.approx(measured.wall_s, rel=0.03), workload


def test_counts_repeat_exactly():
    spec = dataclasses.replace(workloads.SERVE_STEADY, n_requests=150)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(workloads.WORKLOADS, spec.name, spec)
        runs = [workloads.per_layer(spec.name, seed=4, seconds=0.0)[1] for _ in range(2)]
    counts = [
        {k: v for k, (v, unit) in metrics.items() if unit == "count"} for metrics in runs
    ]
    assert counts[0] == counts[1]


def test_workloads_load_the_layers_they_were_chosen_for(traced):
    layer_ms = {
        layer: _value(traced, "serve-steady", f"share.{layer}") for layer in SHARE_LAYERS
    }
    assert max(layer_ms, key=layer_ms.get) == "masks.anchor"
    for metric in ("defrag.plan.ms", "frag.ms"):
        contended = _value(traced, "serve-contended", metric)
        assert contended > 0
        assert contended >= 10 * _value(traced, "serve-steady", metric), metric
    for workload in ("serve-steady", "serve-contended"):
        for metric, (value, _) in traced[workload][1].items():
            if metric.startswith(("cp.", "geost.", "share.geost")):
                assert value == 0, (workload, metric)
    for metric, (value, _) in traced["solve-table1"][1].items():
        if metric.startswith(("route.", "residual.", "share.route", "share.residual")):
            assert value == 0, metric
    assert _value(traced, "solve-table1", "share.geost.kernel") > 0.5
    assert _value(traced, "solve-table1", "mask_cache.hit_share") == 1.0
