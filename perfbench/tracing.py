"""Span tracing of the placement stack from outside the program.

The traced run installs wrappers around the public entry points of each
layer — nothing under ``src/`` is edited.  A function imported by name
into several modules (``valid_anchor_mask``, ``compatibility_masks``,
``external_fragmentation``) is patched in every module that holds it,
because each caller looks the name up in its own module.

Each wrapper records a span (name, start, end, parent) while an
operation — one submit or one solve — is open; spans of one operation
share its request id.  When the operation closes, every span's self time
(its duration minus its children's) is added to its layer, and the
operation root's own self time is the unattributed remainder.  Layer
self times plus the remainder therefore add up to the operation wall
time, which ``tests/test_trace_accounting.py`` checks.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span name of the operation root; its self time is "unattributed"
OP = "op"

#: layers that get a self-time share, in report order
SHARE_LAYERS = (
    "route",
    "offer",
    "advance",
    "residual",
    "backend.place",
    "mask_cache",
    "masks.anchor",
    "masks.compat",
    "frag",
    "defrag.plan",
    "reserve",
    "geost.kernel",
)

Span = Tuple[str, float, float, int, int]


class Recorder:
    """Collects spans per operation and aggregates them per layer."""

    def __init__(self) -> None:
        #: raw spans (name, start, end, parent index, request id), all of
        #: them, written out by :meth:`write`
        self.spans: List[Span] = []
        #: per layer: summed self time (s) and call count
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: plain counters: queries that are not spans, and ``<span>.hits``
        #: for spans whose call returned a useful result
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_wall_s = 0.0
        self._open: Optional[List[list]] = None
        self._stack: List[int] = []
        self._rid = -1
        self._depth: Dict[str, int] = defaultdict(int)

    # -- operations -----------------------------------------------------
    @contextmanager
    def op(self, rid: int) -> Iterator[None]:
        """Open one operation; its spans are aggregated when it closes."""
        self._rid = rid
        self._open = [[OP, perf_counter(), 0.0, -1]]
        self._stack = [0]
        try:
            yield
        finally:
            self._open[0][2] = perf_counter()
            spans, self._open = self._open, None
            self._close(spans)

    def _close(self, spans: List[list]) -> None:
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            self.self_s[name] += (t1 - t0) - child[i]
            self.calls[name] += 1
        root = spans[0]
        self.op_wall_s += root[2] - root[1]
        rid = self._rid
        self.spans.extend((name, t0, t1, parent, rid) for name, t0, t1, parent in spans)

    def attribute(self, src: str, dst: str, seconds: float) -> None:
        """Move ``seconds`` of self time from layer ``src`` to ``dst``.

        Used for time a layer reports itself (the CP kernel's per
        propagator timers) that has no span of its own.
        """
        self.self_s[src] -= seconds
        self.self_s[dst] += seconds

    # -- wrappers -------------------------------------------------------
    def span(
        self, name: str, fn: Callable, hit: Optional[Callable] = None
    ) -> Callable:
        """Wrap ``fn`` in a span; ``hit(result)`` true counts a useful
        call under ``<name>.hits``."""
        rec = self

        def wrapper(*args, **kwargs):
            spans = rec._open
            if spans is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            entry = [name, 0.0, 0.0, rec._stack[-1]]
            spans.append(entry)
            rec._stack.append(idx)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                rec._stack.pop()
            if hit is not None and hit(result):
                rec.counts[f"{name}.hits"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count outermost calls of ``fn`` (and of any other function
        counted under the same ``name``) made inside an operation."""
        rec = self

        def wrapper(*args, **kwargs):
            if rec._open is None:
                return fn(*args, **kwargs)
            if rec._depth[name] == 0:
                rec.counts[name] += 1
            rec._depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec._depth[name] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived figures --------------------------------------------------
    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3

    def shares(self) -> Dict[str, float]:
        """Self time of each layer as a share of operation wall time."""
        wall = self.op_wall_s
        return {
            f"share.{name}": (self.self_s.get(name, 0.0) / wall if wall else 0.0)
            for name in SHARE_LAYERS + (OP,)
        }

    def write(self, path: str) -> None:
        """Write every span as CSV (times in microseconds from the first
        span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("name,start_us,end_us,parent,request\n")
            for name, t0, t1, parent, rid in self.spans:
                handle.write(
                    f"{name},{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f},"
                    f"{parent},{rid}\n"
                )


def _placed(result) -> bool:
    return bool(result.placements)


def _patch_targets() -> List[Tuple[object, str, str, str]]:
    """(owner, attribute, kind, name) of every wrapper the traced run
    installs; ``kind`` is "span", "count", or "placed" (a span counting
    calls that placed something)."""
    from repro.core import defrag, service
    from repro.core.backend.protocol import PlacementBackend
    from repro.core.runtime import RuntimePlacementManager
    from repro.fabric import masks
    from repro.fabric.cache import AnchorMaskCache
    from repro.metrics import fragmentation

    targets: List[Tuple[object, str, str, str]] = []
    for router in service.available_routers():
        cls = type(service.create_router(router))
        if "order" in vars(cls):
            targets.append((cls, "order", "span", "route"))
    for name in defrag.available_defragmenters():
        cls = type(defrag.create_defragmenter(name))
        if "plan" in vars(cls):
            targets.append((cls, "plan", "span", "defrag.plan"))
    targets += [
        (RuntimePlacementManager, "offer", "span", "offer"),
        (RuntimePlacementManager, "park", "span", "reserve"),
        (RuntimePlacementManager, "advance_to", "span", "advance"),
        (RuntimePlacementManager, "residual_region", "span", "residual"),
        (RuntimePlacementManager, "fragmentation", "count", "frag.queries"),
        (RuntimePlacementManager, "planning_fragmentation", "count", "frag.queries"),
        (PlacementBackend, "place", "placed", "backend.place"),
        (AnchorMaskCache, "anchor_mask", "span", "mask_cache"),
    ]
    by_name = (
        (masks.valid_anchor_mask, "valid_anchor_mask", "masks.anchor"),
        (masks.compatibility_masks, "compatibility_masks", "masks.compat"),
        (fragmentation.external_fragmentation, "external_fragmentation", "frag"),
    )
    for module_name, module in sorted(sys.modules.items()):
        if not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for fn, attr, span in by_name:
            if getattr(module, attr, None) is fn:
                targets.append((module, attr, "span", span))
    return targets


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, kind, name in _patch_targets():
            original = vars(owner)[attr]
            if kind == "count":
                wrapper = recorder.counter(name, original)
            else:
                hit = _placed if kind == "placed" else None
                wrapper = recorder.span(name, original, hit)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
