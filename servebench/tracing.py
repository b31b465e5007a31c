"""In-memory spans around the serving stack's layer boundaries.

The benchmark's server launcher installs a :class:`Tracer` by wrapping
the layers' public calls from outside; nothing in ``src/`` knows about
it.  Every wrapped call appends one span (name, start, end, parent) to
parallel lists, and the whole set is written once, when the server
shuts down.  :func:`layer_times` turns those spans into per-layer busy
and self times on the benchmark side.

The server is one asyncio thread and every wrapped call is synchronous,
so a plain stack gives each span its parent.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Tuple

#: Span name -> the layer it is billed to.  ``busy`` of a layer counts
#: its outermost spans once; ``self`` subtracts every child span.
SPAN_LAYERS = {
    "kernel.filter_heads_batch": "kernel.filter",
    "kernel.filter_heads": "kernel.filter",
    "cache.planes": "cache.planes",
    "cache.append": "cache.append",
    "cache.begin_prefill": "cache.prefill",
    "cache.extend_prefill": "cache.prefill",
    "cache.spill_block": "cache.tier",
    "cache.restore_block": "cache.tier",
    "engine.decode_attend_batch": "engine.attend",
    "engine.decode_attend": "engine.attend",
    "engine.decode_append": "engine.append",
    "engine.prefill": "engine.prefill",
    "engine.prefill_begin": "engine.prefill",
    "engine.prefill_extend": "engine.prefill",
    "engine.prefill_finish": "engine.prefill",
    "scheduler.step": "scheduler.step",
    "protocol.decode_message": "serve.protocol",
    "protocol.decode_request": "serve.protocol",
    "protocol.encode_message": "serve.protocol",
    "protocol.encode_array": "serve.protocol",
    "protocol.array_digest": "serve.protocol",
    "protocol.result_digests": "serve.protocol",
    "server.report": "serve.report",
    "socket.write": "serve.socket",
}


class Tracer:
    """Records one span per wrapped call; dumps them as parallel lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []

    def wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function or method) by a traced one."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def patch_property(self, cls, attr: str, name: str) -> None:
        prop = cls.__dict__[attr]
        setattr(cls, attr, property(self.wrap(prop.fget, name)))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name_of,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the serving stack (see SPAN_LAYERS)."""
    from repro.core.backend import FastBackend, ReferenceBackend
    from repro.engine.cache import PagedBitPlaneKVCache, PlaneBlockPool
    from repro.engine.engine import PadeEngine
    from repro.engine.scheduler import ContinuousScheduler
    from repro.serve import server as server_mod

    for backend in (ReferenceBackend, FastBackend):
        for method in ("filter_heads_batch", "filter_heads"):
            if method in backend.__dict__:
                tracer.patch(backend, method, f"kernel.{method}")
    tracer.patch_property(PagedBitPlaneKVCache, "planes", "cache.planes")
    for method in ("append", "begin_prefill", "extend_prefill"):
        tracer.patch(PagedBitPlaneKVCache, method, f"cache.{method}")
    for method in ("spill_block", "restore_block"):
        tracer.patch(PlaneBlockPool, method, f"cache.{method}")
    for method in (
        "decode_attend_batch", "decode_attend", "decode_append",
        "prefill", "prefill_begin", "prefill_extend", "prefill_finish",
    ):
        tracer.patch(PadeEngine, method, f"engine.{method}")
    tracer.patch(ContinuousScheduler, "step", "scheduler.step")
    for fn in (
        "decode_message", "decode_request", "encode_message",
        "encode_array", "array_digest", "result_digests",
    ):
        tracer.patch(server_mod, fn, f"protocol.{fn}")
    tracer.patch(server_mod.AsyncPadeServer, "report", "server.report")
    # The front-end's socket sends: the server process has no other writer.
    tracer.patch(asyncio.StreamWriter, "write", "socket.write")


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, timed on a no-op function."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def layer_times(spans: dict) -> Tuple[Dict[str, Dict[str, float]], Dict[str, int]]:
    """Per-layer ``busy`` (s), ``self`` (s) and ``calls`` from a span dump,
    plus the number of spans per span name.

    ``calls`` and ``busy`` count a layer's outermost spans only, so a
    kernel call nested in another kernel call is not billed twice;
    ``self`` is span time minus the time its direct children cover.
    """
    names = spans["names"]
    name_of = spans["name"]
    parent = spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    layer_of = [SPAN_LAYERS[names[i]] for i in name_of]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    layers: Dict[str, Dict[str, float]] = {
        layer: {"busy": 0.0, "self": 0.0, "calls": 0.0} for layer in SPAN_LAYERS.values()
    }
    counts = dict.fromkeys(SPAN_LAYERS, 0)
    for i, layer in enumerate(layer_of):
        row = layers[layer]
        row["self"] += dur[i] - child[i]
        counts[names[name_of[i]]] += 1
        # Outermost span of its layer: no ancestor bills the same layer.
        p = parent[i]
        while p >= 0 and layer_of[p] != layer:
            p = parent[p]
        if p < 0:
            row["busy"] += dur[i]
            row["calls"] += 1.0
    return layers, counts
