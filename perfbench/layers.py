"""Span wrappers around the public calls into each layer, and their totals.

The benchmark measures the program from outside: :func:`install` replaces
a fixed set of public functions and methods with thin wrappers that
record a span (name, start, end, parent span) while tracing is enabled
and call straight through otherwise.  Nothing under ``src/`` changes.

Spans live in memory.  :func:`enable` clears the buffer, :func:`collect`
returns it; the benchmark writes them out once, when it ends.

The wrappers are installed before the serving tier forks its shard
workers, so the workers inherit them.  A worker is switched on and off,
and hands its spans back, through one extra protocol op
(``perfbench_trace``) that :func:`install` adds to the worker class.

Parent links ride a :class:`contextvars.ContextVar`, which follows
asyncio tasks as well as threads, so spans of concurrent probes on the
router's event loop do not adopt each other.  A span whose parent has
the same name is not recorded: ``datasets.transform.inflate`` calls
``SpatialObject.inflated`` once per object, and only the outer call
counts.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import time

#: Span tuples: (span id, parent id, name, start, end, count).  ``count``
#: is a per-call quantity some wrappers measure (frame bytes); else 0.
_spans: list[tuple[int, int, str, float, float, int]] = []
_ids = itertools.count(1)
_enabled = False
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, "")
)
#: Start of the frame a router request task sent last; read by the
#: matching receive to close the ``serving.shard_wait_s`` span.
_sent_at: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_sent_at", default=None
)

#: Backends the traced service probes reported (``stats.extra``).
_backends: set[str] = set()

_installed = False


def enable() -> None:
    """Start recording, from an empty buffer."""
    global _enabled
    _spans.clear()
    _backends.clear()
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def collect() -> list[tuple[int, int, str, float, float, int]]:
    return list(_spans)


def _wrap(name: str, fn, size=None):
    """A traced twin of ``fn``; ``size(args, result)`` fills the count."""
    if asyncio.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            if not _enabled:
                return await fn(*args, **kwargs)
            parent = _current.get()
            if parent[1] == name:
                return await fn(*args, **kwargs)
            sid = next(_ids)
            token = _current.set((sid, name))
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _current.reset(token)
                _spans.append((sid, parent[0], name, start, end, 0))

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not _enabled:
            return fn(*args, **kwargs)
        parent = _current.get()
        if parent[1] == name:
            return fn(*args, **kwargs)
        sid = next(_ids)
        token = _current.set((sid, name))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _current.reset(token)
            count = size(args, result) if size is not None and result is not None else 0
            _spans.append((sid, parent[0], name, start, end, count))

    return traced


def _patch(owner, attr: str, name: str, size=None) -> None:
    """Replace ``owner.attr`` with its traced twin (class- and static-aware)."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(name, raw.__func__, size)))
    else:
        setattr(owner, attr, _wrap(name, raw, size))


def _traced_send(send):
    @functools.wraps(send)
    async def traced_send(writer, message):
        if _enabled:
            _sent_at.set(time.perf_counter())
        return await send(writer, message)

    return traced_send


def _traced_recv(recv):
    @functools.wraps(recv)
    async def traced_recv(reader):
        response = await recv(reader)
        sent = _sent_at.get()
        if _enabled and sent is not None:
            _sent_at.set(None)
            parent = _current.get()
            _spans.append(
                (next(_ids), parent[0], "serving.shard_wait_s", sent,
                 time.perf_counter(), 0)
            )
        return response

    return traced_recv


def _op_perfbench_trace(self, request: dict) -> dict:
    """Worker op: ``enable`` starts recording; ``collect`` stops and returns."""
    if request.get("enable"):
        enable()
        return {"ok": True, "shard": self.shard_index}
    disable()
    return {
        "ok": True,
        "shard": self.shard_index,
        "spans": collect(),
        "backends": sorted(_backends),
    }


def install() -> None:
    """Wrap every measured call.  Idempotent; tracing starts disabled."""
    global _installed
    if _installed:
        return
    _installed = True
    import repro.bench.runner as runner
    import repro.core.touch as touch
    import repro.refine.kernels as kernels
    import repro.serving.protocol as protocol
    import repro.serving.router as router
    from repro.core.tree import TouchTree
    from repro.geometry.columnar import CoordinateTable
    from repro.geometry.objects import SpatialObject
    from repro.geometry.shapes import Shape
    from repro.joins.base import SpatialJoinAlgorithm
    from repro.refine.pipeline import RefinePipeline
    from repro.service.service import SpatialQueryService
    from repro.serving.router import ShardRouter
    from repro.serving.shards import ShardMap
    from repro.serving.worker import ShardWorker

    # bench.runner: the one-shot front door is the root of every op.
    _patch(runner, "run_algorithm", "runner.run_s")
    # datasets: epsilon inflation of the build side.
    _patch(runner, "inflate", "datasets.inflate_s")
    _patch(SpatialObject, "inflated", "datasets.inflate_s")
    # geometry: object lists to columnar tables.
    _patch(CoordinateTable, "from_objects", "geometry.to_columnar_s")
    # core: TOUCH tree, assignment of B, local joins.
    _patch(TouchTree, "__init__", "core.tree_build_s")
    _patch(touch, "assign_table_b", "core.assign_s")
    _patch(touch, "leaf_order_table", "core.leaf_order_s")
    _patch(touch, "join_assigned_nodes_columnar", "core.local_join_s")
    _patch(touch, "probe_assigned_nodes_columnar", "core.local_join_s")
    # joins: the MBR filter stage, one-shot or against a prepared index.
    _patch(SpatialJoinAlgorithm, "join", "joins.filter_s")
    _patch(SpatialJoinAlgorithm, "probe", "joins.filter_s")
    # refine: the whole stage, interior rectangles, exact segment tests.
    _patch(RefinePipeline, "refine", "refine.refine_s")
    _patch(Shape, "interior_rectangle", "refine.prepare_s")
    _patch(kernels, "min_cross_sq", "refine.exact_s")
    # service: the cached probe inside each shard worker.
    _patch(
        SpatialQueryService, "probe", "service.probe_s",
        size=lambda _args, out: _backends.add(
            str(out.stats.extra.get("backend", "unreported"))
        ) or 0,
    )
    # serving: router scatter-gather, routing, wire codec, worker probe.
    _patch(ShardRouter, "probe", "serving.probe_s")
    _patch(ShardMap, "route", "serving.route_s")
    _patch(router, "encode_boxes", "serving.encode_boxes")
    _patch(
        protocol, "encode_message", "serving.encode_message",
        size=lambda _args, out: len(out),
    )
    _patch(
        protocol, "decode_message", "serving.decode_message",
        size=lambda args, _out: len(args[0]),
    )
    router.send_message = _traced_send(router.send_message)
    router.recv_message = _traced_recv(router.recv_message)
    _patch(ShardWorker, "op_probe", "serving.worker_probe_s")
    ShardWorker.op_perfbench_trace = _op_perfbench_trace


# -- per-layer metrics from the collected spans ---------------------------

def _union(intervals) -> float:
    """Seconds covered by a set of possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _self_time(spans, root: str) -> float:
    """Summed duration of ``root`` spans not covered by a direct child."""
    children: dict[int, list] = {}
    for _sid, parent, _name, start, end, _count in spans:
        children.setdefault(parent, []).append((start, end))
    return sum(
        (end - start) - _union(children.get(sid, []))
        for sid, _parent, name, start, end, _count in spans
        if name == root
    )


def _merge_time(spans) -> float:
    """Summed time from each router probe's last shard reply to its return."""
    last_reply: dict[int, float] = {}
    for _sid, parent, name, _start, end, _count in spans:
        if name == "serving.shard_wait_s":
            last_reply[parent] = max(last_reply.get(parent, end), end)
    return sum(
        end - last_reply[sid]
        for sid, _parent, name, _start, end, _count in spans
        if name == "serving.probe_s" and sid in last_reply
    )


def summarize(local, workers, latencies, stats, parameters) -> dict:
    """Every per-layer metric, per traced operation.

    ``local`` holds the benchmark process's spans and ``workers`` one
    span list per shard worker; ``stats`` / ``parameters`` are the
    traced operations' ``JoinResult.stats`` and ``parameters``.  Times
    are inclusive seconds per op: a span's time includes the spans it
    calls.  ``other_s`` is the op time no named span covers.
    """
    ops = len(latencies)
    own: dict[str, float] = {}
    shard: dict[str, float] = {}
    own_count: dict[str, int] = {}
    for spans, totals in [(local, own)] + [(w, shard) for w in workers]:
        for _sid, _parent, name, start, end, count in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if totals is own:
                own_count[name] = own_count.get(name, 0) + count

    def both(name: str) -> float:
        return own.get(name, 0.0) + shard.get(name, 0.0)

    worker_codec = shard.get("serving.encode_message", 0.0) + shard.get(
        "serving.decode_message", 0.0
    )
    router_codec = own.get("serving.encode_message", 0.0) + own.get(
        "serving.decode_message", 0.0
    )
    if "runner.run_s" in own:
        other = _self_time(local, "runner.run_s")
    else:
        other = sum(latencies) - own.get("serving.probe_s", 0.0)
    times = {
        name: both(name)
        for name in (
            "runner.run_s",
            "datasets.inflate_s",
            "core.tree_build_s",
            "geometry.to_columnar_s",
            "core.assign_s",
            "core.leaf_order_s",
            "core.local_join_s",
            "joins.filter_s",
            "refine.refine_s",
            "refine.prepare_s",
            "refine.exact_s",
            "service.probe_s",
            "serving.probe_s",
            "serving.route_s",
            "serving.shard_wait_s",
            "serving.worker_probe_s",
        )
    }
    times["serving.encode_s"] = own.get("serving.encode_boxes", 0.0) + own.get(
        "serving.encode_message", 0.0
    )
    times["serving.decode_s"] = own.get("serving.decode_message", 0.0)
    times["serving.worker_codec_s"] = worker_codec
    times["serving.wire_s"] = (
        times["serving.shard_wait_s"]
        - router_codec
        - worker_codec
        - times["serving.worker_probe_s"]
    )
    times["serving.merge_s"] = _merge_time(local)
    times["other_s"] = other
    metrics = {name: value / ops for name, value in times.items()}

    def total(attr: str) -> int:
        return sum(getattr(s, attr) for s in stats)

    filter_pairs = sum(s.candidate_pairs or s.result_pairs for s in stats)
    surviving = total("candidate_pairs") - total("false_hit_prunes")
    exact_tests = total("exact_tests")
    metrics.update(
        {
            "core.comparisons": total("comparisons") / ops,
            "core.filtered": total("filtered") / ops,
            "core.pairs_per_comparison": (
                filter_pairs / total("comparisons") if total("comparisons") else 0.0
            ),
            "refine.candidate_pairs": total("candidate_pairs") / ops,
            "refine.false_hit_prunes": total("false_hit_prunes") / ops,
            "refine.true_hits": total("true_hits") / ops,
            "refine.exact_tests": exact_tests / ops,
            "refine.true_hit_frac": (
                total("true_hits") / surviving if surviving else 0.0
            ),
            "refine.us_per_exact_test": (
                both("refine.exact_s") / exact_tests * 1e6 if exact_tests else 0.0
            ),
            "service.cache_warm_frac": (
                sum(p.get("cache") == "warm" for p in parameters) / ops
            ),
            "serving.fanout": sum(p.get("shards_contacted", 0) for p in parameters) / ops,
            "serving.frame_bytes_out": own_count.get("serving.encode_message", 0) / ops,
            "serving.frame_bytes_in": own_count.get("serving.decode_message", 0) / ops,
        }
    )
    return metrics
