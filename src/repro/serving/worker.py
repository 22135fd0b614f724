"""Shard worker process: one spatial shard behind an asyncio endpoint.

Each worker owns one region of the :class:`~repro.serving.shards.ShardMap`
cutting and wraps a private single-process
:class:`~repro.service.SpatialQueryService` — the same build-once/
probe-many engine the non-sharded tier uses, so cached-index semantics
(cold build on first probe, warm afterwards, LRU eviction) carry over
shard-locally unchanged.

The worker is deliberately geometry-blind: it never sees the
decomposition.  The router ships build replicas *with* their two-layer
class masks at registration and probe boxes *with* their per-shard masks
at query time; the worker joins locally and keeps a result pair
``(a, q)`` iff ``mask_a | mask_q == full_mask`` — the allowed-class rule
that makes the scatter-gather merge duplicate-free (see
:mod:`repro.serving.shards` for the proof sketch).

Joins run on the default thread-pool executor so the event loop keeps
accepting frames while a probe computes; concurrent probes against one
built index are safe (probes never mutate, racing cold builds build
once — the service contract).

``run_shard_worker`` is the module-level process entry point (picklable
under every ``multiprocessing`` start method).  It binds an ephemeral
port on loopback and reports ``("ready", port)`` — or ``("error",
reason)`` — through the handshake pipe before serving.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.service.service import SpatialQueryService
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_probe,
    decode_shapes,
    recv_message,
    send_message,
)

__all__ = ["ShardWorker", "run_shard_worker"]


class ShardWorker:
    """Protocol handler + local query service of one shard."""

    def __init__(
        self,
        shard_index: int,
        backend: str | None = None,
        capacity: int = 8,
        max_bytes: int | None = None,
    ) -> None:
        self.shard_index = shard_index
        self.service = SpatialQueryService(
            capacity=capacity, backend=backend, max_bytes=max_bytes
        )
        #: Per dataset: build oid -> two-layer class mask of its replica.
        self.masks: dict[str, dict[int, int]] = {}
        self.stop_event = asyncio.Event()

    # -- ops -----------------------------------------------------------
    def op_register(self, request: dict) -> dict:
        name = request["dataset"]
        members = request.get("members", [])
        # Members are [oid, lo, hi, mask] with an optional fifth
        # element: the replica's exact shape payload (vertex arrays),
        # kept so exact-mode probes refine against true extents — the
        # replica MBRs are never inflated, so box fallbacks stay sound.
        objects = []
        for member in members:
            oid, lo, hi, mask = member[:4]
            shape = None
            if len(member) > 4 and member[4] is not None:
                shape = decode_shapes([member[4]], ids=[oid])[0]
            objects.append(SpatialObject(oid, MBR(lo, hi), shape))
        self.service.register(name, objects)
        self.masks[name] = {member[0]: member[3] for member in members}
        return {"ok": True, "shard": self.shard_index, "count": len(objects)}

    def op_probe(self, request: dict) -> dict:
        name = request["dataset"]
        ids = request["ids"]
        probe, boxes = decode_probe(request)
        probe_masks = request["masks"]
        full_mask = request["full_mask"]
        if len(boxes) != len(probe_masks):
            raise ProtocolError(
                f"probe arity mismatch: {len(boxes)} boxes, "
                f"{len(probe_masks)} masks"
            )
        build_masks = self.masks[name]
        arguments = (name, probe, request["epsilon"])
        options = dict(
            algorithm=request.get("algorithm", "TOUCH"),
            geometry=request.get("geometry"),
            **request.get("config", {}),
        )
        if options["geometry"] == "exact":
            # The ownership filter runs on the MBR candidates, before the
            # refine: a replica pair another shard reports is never
            # exact-tested here, and the merged refine counters count
            # each pair once.
            query = self.service.resolve(*arguments, **options)
            result = self.service.candidates(query)
            result.pairs = [
                (oid_a, position)
                for oid_a, position in result.pairs
                if build_masks[oid_a] | probe_masks[position] == full_mask
            ]
            result = self.service.refine(query, result)
            pairs = [[oid_a, ids[position]] for oid_a, position in result.pairs]
        else:
            result = self.service.probe(*arguments, **options)
            # The ownership filter: local positions map back to the
            # caller's probe ids, and only pairs whose mask union is full
            # survive — every other replica pair is owned by (and
            # reported from) a different shard.
            pairs = [
                [oid_a, ids[position]]
                for oid_a, position in result.pairs
                if build_masks[oid_a] | probe_masks[position] == full_mask
            ]
        response = {
            "ok": True,
            "shard": self.shard_index,
            "pairs": pairs,
            "stats": result.stats.as_dict(),
            "cache": result.parameters.get("cache", ""),
            "build_seconds": result.parameters.get("build_seconds", 0.0),
        }
        # ``algorithm="auto"`` probes grow two fields (the shard-local
        # choice and its plan); named-algorithm frames stay byte-stable.
        if "plan" in result.stats.extra:
            response["algorithm"] = result.algorithm
            response["plan"] = result.stats.extra["plan"]
        return response

    def op_explain(self, request: dict) -> dict:
        """The shard-local plan an identical ``probe`` frame would execute.

        The probe decodes as in ``op_probe`` (same boxes, same shape
        attachment, same position numbering).
        """
        probe, _boxes = decode_probe(request)
        plan = self.service.explain(
            request["dataset"],
            probe,
            request["epsilon"],
            algorithm=request.get("algorithm", "auto"),
            geometry=request.get("geometry"),
            **request.get("config", {}),
        )
        return {
            "ok": True,
            "shard": self.shard_index,
            "plan": plan.as_dict(),
        }

    def op_stats(self, _request: dict) -> dict:
        return {
            "ok": True,
            "shard": self.shard_index,
            "stats": self.service.stats(),
            "datasets": self.service.datasets(),
        }

    def op_health(self, _request: dict) -> dict:
        return {
            "ok": True,
            "shard": self.shard_index,
            "datasets": self.service.datasets(),
        }

    def op_shutdown(self, _request: dict) -> dict:
        self.stop_event.set()
        return {"ok": True, "shard": self.shard_index}

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"op_{op}", None) if isinstance(op, str) else None
        if handler is None or op.startswith("_"):
            raise ProtocolError(f"unknown op {op!r}")
        return handler(request)

    # -- the connection loop -------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while not self.stop_event.is_set():
                try:
                    request = await recv_message(reader)
                except ProtocolError:
                    break  # client went away / sent garbage framing
                try:
                    if request.get("op") == "shutdown":
                        # On-loop: asyncio.Event is not thread-safe, and
                        # the waiter must observe the set immediately.
                        response = self.op_shutdown(request)
                    else:
                        # Joins are CPU-bound: run them off-loop so other
                        # connections keep being served meanwhile.
                        response = await loop.run_in_executor(
                            None, self.dispatch, request
                        )
                except Exception as exc:
                    response = {
                        "ok": False,
                        "shard": self.shard_index,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                    }
                await send_message(writer, response)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


async def _serve_shard(
    shard_index: int,
    ready_conn,
    host: str,
    backend: str | None,
    capacity: int,
    max_bytes: int | None,
) -> None:
    worker = ShardWorker(
        shard_index, backend=backend, capacity=capacity, max_bytes=max_bytes
    )
    # The default asyncio stream limit (64 KiB) is far below a real
    # register/probe frame; raise it to the protocol's own backstop.
    server = await asyncio.start_server(
        worker.handle, host=host, port=0, limit=MAX_LINE_BYTES
    )
    port = server.sockets[0].getsockname()[1]
    ready_conn.send(("ready", port))
    ready_conn.close()
    async with server:
        await worker.stop_event.wait()


def run_shard_worker(
    shard_index: int,
    ready_conn,
    host: str = "127.0.0.1",
    backend: str | None = None,
    capacity: int = 8,
    max_bytes: int | None = None,
) -> None:
    """Process entry point: serve one shard until a ``shutdown`` op."""
    try:
        asyncio.run(
            _serve_shard(
                shard_index, ready_conn, host, backend, capacity, max_bytes
            )
        )
    except Exception as exc:  # pragma: no cover - handshake failure path
        with contextlib.suppress(Exception):
            ready_conn.send(("error", f"{type(exc).__name__}: {exc}"))
