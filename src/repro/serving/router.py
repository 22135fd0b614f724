"""Scatter-gather router: the front door of the sharded serving tier.

:class:`ShardRouter` is the asyncio core — it knows the
:class:`~repro.serving.shards.ShardMap`, keeps a small pool of
persistent connections per shard worker, routes every probe only to the
shards its ε-inflated MBR covers, fans the sub-probes out concurrently
and merges the responses into one
:class:`~repro.joins.base.JoinResult`.  The merge is a plain union: the
workers' two-layer ownership filter already guarantees each pair arrives
from exactly one shard (see :mod:`repro.serving.shards`).

:class:`ShardedQueryService` is the synchronous facade most callers
want: it boots a :class:`~repro.serving.cluster.ServingCluster`, runs a
private event loop on a daemon thread, and exposes the *identical*
``register`` / ``probe`` / ``query`` / ``probe_mbrs`` / ``stats`` /
``datasets`` surface as the single-process
:class:`~repro.service.SpatialQueryService` — swapping tiers is a
constructor change, not a call-site change.

:func:`serve_front` exposes a router over the same JSON-lines protocol
the workers speak, which is what ``repro-touch serve --shards N
--port P`` listens on.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Iterable, Sequence

from repro.bench.config import GEOMETRY_MODES
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, check_epsilon
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import Shape
from repro.joins.base import JoinResult, Pair
from repro.service.service import ProbeAliases
from repro.serving.cluster import ServingCluster
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    RemoteError,
    decode_probe,
    encode_boxes,
    encode_shapes,
    recv_message,
    send_message,
)
from repro.serving.shards import ShardMap
from repro.stats.counters import JoinStatistics

__all__ = ["ShardRouter", "ShardedQueryService", "serve_front"]

#: Persistent connections kept per shard worker (more are opened on
#: demand under concurrency and the surplus closed on release).
POOL_SIZE = 4

#: Seconds one shard request may take from send to reply (the
#: :class:`~repro.serving.protocol.SyncConnection` default).  A request
#: past it drops its connection and fails, naming the shard and op.
REQUEST_TIMEOUT = 30.0


async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, message: dict
) -> dict:
    """Send a request and read its reply: one deadline, one task for both."""
    await send_message(writer, message)
    return await recv_message(reader)


def _shape_or_none(obj: SpatialObject) -> "Shape | None":
    """The object's exact shape, if it carries one."""
    return obj.geometry if isinstance(obj.geometry, Shape) else None


class _Pool:
    """A tiny per-endpoint pool of persistent stream connections."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def acquire(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self.idle:
            return self.idle.pop()
        # Default stream limit is 64 KiB — too small for a probe
        # response's pair list; raise it to the protocol backstop.
        return await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )

    def release(
        self, conn: tuple[asyncio.StreamReader, asyncio.StreamWriter]
    ) -> None:
        if len(self.idle) < POOL_SIZE:
            self.idle.append(conn)
        else:
            conn[1].close()

    async def close(self) -> None:
        while self.idle:
            _reader, writer = self.idle.pop()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


class ShardRouter:
    """Async scatter-gather routing over a set of shard-worker endpoints.

    Parameters
    ----------
    endpoints:
        ``(host, port)`` of every shard worker, in shard order (the
        endpoint at position ``i`` must serve shard ``i`` of
        ``shard_map``).
    shard_map:
        The deployment geometry; ``None`` defers it to the first
        :meth:`register` call (derived from that dataset's bounds).
    shards / kind:
        Used only when ``shard_map`` is deferred.
    """

    def __init__(
        self,
        endpoints: Sequence[tuple[str, int]],
        shard_map: ShardMap | None = None,
        kind: str = "slabs",
    ) -> None:
        if not endpoints:
            raise ValueError("a router needs at least one shard endpoint")
        self.endpoints = list(endpoints)
        self.shard_map = shard_map
        self.kind = kind
        if shard_map is not None and len(shard_map) != len(self.endpoints):
            raise ValueError(
                f"shard map has {len(shard_map)} shards but "
                f"{len(self.endpoints)} endpoints were given"
            )
        self._pools = [_Pool(host, port) for host, port in self.endpoints]
        #: Per dataset: global cardinality and per-shard replica counts.
        self._datasets: dict[str, dict] = {}
        self._probes = 0
        self._subprobes = 0

    # -- wire plumbing -------------------------------------------------
    async def _request(self, shard: int, message: dict) -> dict:
        pool = self._pools[shard]
        conn = await pool.acquire()
        reader, writer = conn
        try:
            response = await asyncio.wait_for(
                _exchange(reader, writer, message), REQUEST_TIMEOUT
            )
        except asyncio.TimeoutError:
            writer.close()
            raise TimeoutError(
                f"shard {shard}: no reply to op {message.get('op')!r} "
                f"within {REQUEST_TIMEOUT:g}s"
            ) from None
        except BaseException:
            writer.close()
            raise
        pool.release(conn)
        if not response.get("ok"):
            raise RemoteError(
                f"shard {shard}: {response.get('error', 'unknown failure')}",
                response.get("error_type", "RuntimeError"),
            )
        return response

    async def close(self) -> None:
        """Close every pooled connection (workers keep running)."""
        for pool in self._pools:
            await pool.close()

    # -- registration --------------------------------------------------
    async def register(
        self, name: str, dataset: Sequence[SpatialObject]
    ) -> dict:
        """Cut a build dataset into shard replicas and ship them out.

        The first registration fixes the shard map's universe when none
        was supplied.  Every shard receives its ``covers`` members with
        their two-layer class masks; shards covering no member get an
        empty registration (so they answer probes for the name instead
        of erroring) and are skipped at probe time.
        """
        objects = list(dataset)
        if self.shard_map is None:
            self.shard_map = ShardMap.for_objects(
                objects, len(self.endpoints), self.kind
            )
        members = self.shard_map.shard_members(objects)
        # Shape-carrying datasets ship vertex payloads as a fifth member
        # element so workers can refine exact-mode probes; box-only
        # datasets keep the original four-element frames byte-for-byte.
        shaped = any(isinstance(obj.geometry, Shape) for obj in objects)
        payloads = [
            [
                [obj.oid, list(obj.mbr.lo), list(obj.mbr.hi), mask]
                + (encode_shapes([_shape_or_none(obj)]) if shaped else [])
                for obj, mask in shard_members
            ]
            for shard_members in members
        ]
        responses = await asyncio.gather(
            *(
                self._request(
                    shard,
                    {"op": "register", "dataset": name, "members": payload},
                )
                for shard, payload in enumerate(payloads)
            )
        )
        counts = [response["count"] for response in responses]
        info = {
            "objects": len(objects),
            "replicas": sum(counts),
            "per_shard": counts,
        }
        self._datasets[name] = info
        return info

    def datasets(self) -> dict[str, int]:
        """Registered dataset names and their (global) cardinalities."""
        return {name: info["objects"] for name, info in self._datasets.items()}

    # -- probes --------------------------------------------------------
    def _normalize(
        self,
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
    ) -> "tuple[list[int], list[MBR], list[Shape | None] | None]":
        """Any accepted probe shape -> parallel (ids, boxes, shapes) lists.

        Mirrors the single-process :meth:`SpatialQueryService.probe`
        dispatch exactly, so pair identifiers match tier-for-tier: raw
        MBR batches pair against 0-based batch positions, object probes
        against their ``oid``.  ``shapes`` is ``None`` unless at least
        one probe object carries an exact shape — box-only probes keep
        their wire frames unchanged.
        """
        if isinstance(probe, MBR):
            return [0], [probe], None
        if isinstance(probe, CoordinateTable):
            ids = [int(i) for i in probe.ids]
            return ids, [o.mbr for o in probe.to_objects()], None
        items = list(probe)
        if not items:
            raise ValueError("cannot probe with an empty batch")
        if isinstance(items[0], MBR):
            return list(range(len(items))), items, None
        shapes = [_shape_or_none(obj) for obj in items]
        if all(shape is None for shape in shapes):
            shapes = None
        return [obj.oid for obj in items], [obj.mbr for obj in items], shapes

    def _frames(
        self,
        op: str,
        dataset: str,
        probe,
        epsilon: float,
        algorithm: str,
        geometry: str | None,
        config: dict,
    ) -> "tuple[float, dict[int, dict]]":
        """Validate a probe call and build one ``op`` frame per covering shard.

        Shared by :meth:`probe` and :meth:`explain` so both route the
        identical per-shard slices — the precondition for a plan
        explained over the wire matching the plan a probe executes.
        Returns the validated ε and the frames keyed by shard, in shard
        order.
        """
        if dataset not in self._datasets:
            known = ", ".join(sorted(self._datasets)) or "(none)"
            raise KeyError(f"unknown dataset {dataset!r}; registered: {known}")
        epsilon = check_epsilon(epsilon)
        if geometry is not None and geometry not in GEOMETRY_MODES:
            raise ValueError(
                f"geometry must be one of {GEOMETRY_MODES}, got {geometry!r}"
            )
        ids, boxes, shapes = self._normalize(probe)
        per_shard_counts = self._datasets[dataset]["per_shard"]
        scatter: dict[int, dict] = {}
        for position, (probe_id, box) in enumerate(zip(ids, boxes)):
            inflated = box.expand(epsilon) if epsilon else box
            for shard, mask in self.shard_map.route(inflated):
                if not per_shard_counts[shard]:
                    continue  # shard owns no build members: no pairs there
                bucket = scatter.setdefault(
                    shard, {"ids": [], "boxes": [], "masks": [], "shapes": []}
                )
                bucket["ids"].append(probe_id)
                bucket["boxes"].append(box)
                bucket["masks"].append(mask)
                if shapes is not None:
                    bucket["shapes"].append(shapes[position])
        frames = {}
        for shard in sorted(scatter):
            bucket = scatter[shard]
            frame = {
                "op": op,
                "dataset": dataset,
                "epsilon": epsilon,
                "algorithm": algorithm,
                "config": config,
                "ids": bucket["ids"],
                "boxes": encode_boxes(bucket["boxes"]),
                "masks": bucket["masks"],
                "full_mask": self.shard_map.full_mask,
            }
            # Only opted-in probes grow fields, keeping plain MBR
            # frames byte-identical to the pre-refinement protocol.
            if geometry is not None:
                frame["geometry"] = geometry
            if shapes is not None:
                frame["shapes"] = encode_shapes(bucket["shapes"])
            frames[shard] = frame
        return epsilon, frames

    async def probe(
        self,
        dataset: str,
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "TOUCH",
        geometry: str | None = None,
        **config,
    ) -> JoinResult:
        """Scatter a probe batch to its covering shards and merge.

        Accepts the same probe shapes as the single-process service and
        returns a :class:`~repro.joins.base.JoinResult` whose pair set
        is identical to it.  ``geometry="exact"`` ships each probe's
        exact shape (vertex arrays over the wire) alongside its box and
        the workers refine locally; routing stays by ε-inflated MBR, so
        the shard map's ownership guarantees are untouched.
        ``parameters`` reports the scatter shape: ``shards_contacted``,
        aggregate ``cache`` (``"warm"`` only when every contacted shard
        probed warm) and the summed ``build_seconds``.
        """
        epsilon, frames = self._frames(
            "probe", dataset, probe, epsilon, algorithm, geometry, config
        )
        responses = await asyncio.gather(
            *(self._request(shard, frame) for shard, frame in frames.items())
        )
        self._probes += 1
        self._subprobes += len(frames)
        pairs: list[Pair] = []
        stats = JoinStatistics()
        build_seconds = 0.0
        all_warm = bool(responses)
        plans: dict[str, dict] = {}
        for response in responses:
            pairs.extend((a, b) for a, b in response["pairs"])
            stats.merge(JoinStatistics(**response["stats"]))
            build_seconds += response["build_seconds"]
            all_warm = all_warm and response["cache"] == "warm"
            if response.get("plan") is not None:
                plans[str(response["shard"])] = response["plan"]
        stats.result_pairs = len(pairs)
        parameters = {
            "cache": "warm" if all_warm else "cold",
            "build_seconds": build_seconds,
            "epsilon": epsilon,
            "shards_contacted": len(frames),
            "shards": len(self.endpoints),
        }
        if plans:
            # ``algorithm="auto"``: each shard planned from its own
            # slice sketch; surface every decision, keyed by shard.
            parameters["plans"] = plans
            stats.extra["plans"] = plans
        return JoinResult(algorithm, pairs, stats, parameters)

    async def explain(
        self,
        dataset: str,
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "auto",
        geometry: str | None = None,
        **config,
    ) -> dict:
        """Per-shard plans for a probe batch, without executing it.

        Routes exactly like :meth:`probe` and asks each covering shard
        for the :class:`~repro.optimizer.plan.Plan` its local service
        would execute on its slice of the batch — shards see different
        slices, so their choices may legitimately differ.  Returns
        ``{shard_index: Plan}``.
        """
        from repro.optimizer import Plan

        _epsilon, frames = self._frames(
            "explain", dataset, probe, epsilon, algorithm, geometry, config
        )
        responses = await asyncio.gather(
            *(self._request(shard, frame) for shard, frame in frames.items())
        )
        return {
            response["shard"]: Plan.from_dict(response["plan"])
            for response in responses
        }

    # -- introspection -------------------------------------------------
    async def stats(self) -> dict:
        """Router counters plus every worker's service stats."""
        responses = await asyncio.gather(
            *(
                self._request(shard, {"op": "stats"})
                for shard in range(len(self.endpoints))
            )
        )
        per_shard = [response["stats"] for response in responses]
        # .get(): a router may front workers from an older build whose
        # stats frames predate the byte-accounting counters.
        aggregated = {
            key: sum(s.get(key, 0) for s in per_shard)
            for key in (
                "resident_bytes",
                "spilled_joins",
                "spilled_partitions",
                "spill_bytes_written",
                "spill_bytes_read",
                "unspills",
            )
        }
        return {
            "shards": len(self.endpoints),
            "probes": self._probes,
            "subprobes": self._subprobes,
            "fanout_avg": self._subprobes / self._probes if self._probes else 0.0,
            "queries": sum(s["queries"] for s in per_shard),
            "warm_hits": sum(s["warm_hits"] for s in per_shard),
            "cold_builds": sum(s["cold_builds"] for s in per_shard),
            "registered_datasets": len(self._datasets),
            **aggregated,
            "per_shard": per_shard,
        }

    async def health(self) -> list[dict]:
        """One health record per shard worker."""
        responses = await asyncio.gather(
            *(
                self._request(shard, {"op": "health"})
                for shard in range(len(self.endpoints))
            )
        )
        return [
            {"shard": r["shard"], "datasets": r["datasets"]} for r in responses
        ]


class ShardedQueryService(ProbeAliases):
    """Synchronous sharded drop-in for :class:`SpatialQueryService`.

    Owns the whole topology: a :class:`ServingCluster` of worker
    processes, a private event loop on a daemon thread, and a
    :class:`ShardRouter` on top.  The query surface (``register`` /
    ``probe`` / ``query`` / ``probe_mbrs`` / ``stats`` / ``datasets``)
    matches the single-process service, so swapping tiers needs no
    call-site changes.  Use as a context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        shards: int = 2,
        kind: str = "slabs",
        backend: str | None = None,
        capacity: int = 8,
        max_bytes: int | None = None,
        start_method: str | None = None,
    ) -> None:
        self.cluster = ServingCluster(
            shards,
            backend=backend,
            capacity=capacity,
            max_bytes=max_bytes,
            start_method=start_method,
        )
        self.kind = kind
        self.router: ShardRouter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardedQueryService":
        """Boot the workers and the router loop (idempotent)."""
        if self.router is not None:
            return self
        endpoints = self.cluster.start()
        try:
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name="repro-shard-router",
                daemon=True,
            )
            self._thread.start()
            self.router = ShardRouter(endpoints, kind=self.kind)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Stop the router loop and shut the worker processes down."""
        if self._loop is not None:
            if self.router is not None:
                with contextlib.suppress(Exception):
                    self._call(self.router.close())
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._loop.close()
        self.router = None
        self._loop = None
        self._thread = None
        self.cluster.stop()

    def __enter__(self) -> "ShardedQueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, coroutine):
        if self.router is None or self._loop is None:
            raise RuntimeError(
                "sharded service is not running; call start() first"
            )
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    # -- the SpatialQueryService surface -------------------------------
    def register(self, name: str, dataset: Sequence[SpatialObject]) -> dict:
        """Shard a dataset across the workers; returns the replica map."""
        self.start()
        return self._call(self.router.register(name, dataset))

    def probe(
        self,
        dataset: str,
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "TOUCH",
        geometry: str | None = None,
        **config,
    ) -> JoinResult:
        """Scatter-gather probe; same shapes and pairs as the 1-process tier."""
        return self._call(
            self.router.probe(
                dataset,
                probe,
                epsilon,
                algorithm=algorithm,
                geometry=geometry,
                **config,
            )
        )

    def explain(
        self,
        dataset: str,
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "auto",
        geometry: str | None = None,
        **config,
    ) -> dict:
        """Per-shard ``{shard: Plan}`` for a probe, without executing it."""
        return self._call(
            self.router.explain(
                dataset,
                probe,
                epsilon,
                algorithm=algorithm,
                geometry=geometry,
                **config,
            )
        )

    def stats(self) -> dict:
        """Aggregated router + per-shard service statistics."""
        return self._call(self.router.stats())

    def health(self) -> list[dict]:
        """Per-shard health records."""
        return self._call(self.router.health())

    def datasets(self) -> dict[str, int]:
        """Registered dataset names and their (global) cardinalities."""
        if self.router is None:
            return {}
        return self.router.datasets()


async def serve_front(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a router over the JSON-lines protocol (the CLI front-end).

    Clients speak the same frames as the shard workers: ``probe`` (with
    ``ids`` + ``boxes``; masks are the router's business), ``stats``,
    ``health`` and ``datasets``.  Returns the listening server; callers
    own its lifetime.
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await recv_message(reader)
                except Exception:
                    break
                try:
                    op = request.get("op")
                    if op == "probe":
                        result = await router.probe(
                            request["dataset"],
                            decode_probe(request)[0],
                            request["epsilon"],
                            algorithm=request.get("algorithm", "TOUCH"),
                            geometry=request.get("geometry"),
                            **request.get("config", {}),
                        )
                        ids = request.get("ids")
                        pairs = (
                            [[a, ids[b]] for a, b in result.pairs]
                            if ids is not None
                            else [[a, b] for a, b in result.pairs]
                        )
                        response = {
                            "ok": True,
                            "pairs": pairs,
                            "stats": result.stats.as_dict(),
                            "parameters": result.parameters,
                        }
                    elif op == "explain":
                        plans = await router.explain(
                            request["dataset"],
                            decode_probe(request)[0],
                            request["epsilon"],
                            algorithm=request.get("algorithm", "auto"),
                            geometry=request.get("geometry"),
                            **request.get("config", {}),
                        )
                        response = {
                            "ok": True,
                            "plans": {
                                str(shard): plan.as_dict()
                                for shard, plan in plans.items()
                            },
                        }
                    elif op == "stats":
                        response = {"ok": True, "stats": await router.stats()}
                    elif op == "health":
                        response = {"ok": True, "shards": await router.health()}
                    elif op == "datasets":
                        response = {"ok": True, "datasets": router.datasets()}
                    else:
                        response = {
                            "ok": False,
                            "error": f"unknown op {op!r}",
                            "error_type": "ProtocolError",
                        }
                except Exception as exc:
                    response = {
                        "ok": False,
                        "error": str(exc),
                        "error_type": type(exc).__name__,
                    }
                await send_message(writer, response)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    return await asyncio.start_server(
        handle, host=host, port=port, limit=MAX_LINE_BYTES
    )
