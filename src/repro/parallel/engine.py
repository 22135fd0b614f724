"""True multiprocess parallel join over the chunked decomposition.

Where :class:`~repro.parallel.chunked.ChunkedSpatialJoin` *simulates* the
paper's §3 BlueGene/P deployment by joining the contiguous regions one
after another, :class:`ParallelChunkedJoin` actually ships them to a
``multiprocessing`` worker pool:

1. **decompose** — the universe is cut by the shared
   :class:`~repro.parallel.decompose.Decomposition` (slabs or tiles) and
   each dataset is published **once** as a
   ``multiprocessing.shared_memory`` block
   (:meth:`~repro.geometry.columnar.CoordinateTable.to_shared`); each
   region then ships only its int64 member-row indices, and workers
   attach zero-copy views
   (:meth:`~repro.geometry.columnar.CoordinateTable.shm_slice`) — no
   coordinate buffer is ever pickled on this path
   (``stats.extra["pickled_coord_bytes"] == 0``).  When shared memory
   is unavailable — or ``handoff="pickle"`` is forced — the engine falls
   back to per-region pickled float64 coordinate blocks plus int64 id
   vectors;
2. **worker_join** — each worker rebuilds its region's objects, runs a
   fresh algorithm instance from a picklable
   :class:`~repro.joins.registry.AlgorithmSpec`, and applies the shared
   reference-point ownership rule locally, so only owned pairs travel
   back; with ``dedup="partition"`` the members instead arrive
   pre-classified under the two-layer corner-ownership scheme
   (:mod:`repro.partition.classes`) and the worker runs the allowed
   class-pair mini-joins, whose union is duplicate-free by construction
   — no in-worker dedup pass at all;
3. **merge** — results are combined in deterministic region order:
   counters sum, ``memory_bytes`` takes the per-worker maximum, and the
   three phase wall-clocks land in ``stats.extra``: ``decompose_seconds``,
   ``worker_join_seconds`` (the wall-clock of the whole fan-out — the
   pool's critical path including IPC) and ``merge_seconds``, next to
   the raw in-worker ``per_chunk_seconds`` list and its
   ``worker_seconds_sum`` (the sequential-equivalent work).

Pair sets and summed counters are bit-identical to the sequential
engines for the same ``(kind, n_chunks)`` — and identical between the
shared-memory and pickle hand-offs; the parity suite
(``tests/test_parallel_parity.py``) pins both for every registered
algorithm.

With ``geometry="exact"`` the engine runs the filter-refine split
in-worker: vertex data travels next to the coordinates (a second
shared-memory :class:`~repro.geometry.vertex_table.VertexTable` block
sliced by the same row indices on the shm path, a sliced vertex table
on the pickle path), and each worker refines its
*owned* candidate pairs locally before they travel back.  Refining
after the ownership test keeps the merge duplicate-free and makes the
summed refine counters count every global candidate exactly once.

Worker pools (:class:`concurrent.futures.ProcessPoolExecutor`) are
cached per ``(start_method, workers)`` and reused across joins (fork
start-up is cheap, but spawn is not); call :func:`shutdown_pools` to
release them explicitly — an ``atexit`` hook does so at interpreter
shutdown, so repeated engine use never leaks semaphores or worker
processes.  A worker killed mid-join surfaces as
:class:`WorkerCrashError` (the executor raises ``BrokenProcessPool``
instead of hanging like ``multiprocessing.Pool.map``), the broken
executor is dropped from the cache, and the parent unlinks its shared
blocks in ``finally`` so ``/dev/shm`` is never stranded.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.geometry.columnar import (
    HAVE_SHM,
    CoordinateTable,
    axes_overlap_mask,
)
from repro.geometry.mbr import total_mbr
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, SpatialJoinAlgorithm
from repro.joins.registry import AlgorithmSpec
from repro.parallel.decompose import (
    DECOMPOSE_KINDS,
    Decomposition,
    adaptive_chunk_count,
)
from repro.stats.counters import JoinStatistics

__all__ = ["ParallelChunkedJoin", "WorkerCrashError", "shutdown_pools"]


class WorkerCrashError(RuntimeError):
    """A worker process died mid-join (killed, OOM, hard crash).

    Raised in place of the executor's ``BrokenProcessPool`` so callers
    get the engine's cleanup guarantees spelled out: the shared-memory
    blocks were unlinked, the broken executor was evicted from the
    cache (the next join builds a fresh one), and ``stats`` carries the
    phase breakdown collected up to the crash
    (``stats.extra["worker_crashed"]`` is set).
    """

    def __init__(self, message: str, stats: JoinStatistics) -> None:
        super().__init__(message)
        self.stats = stats


# -- pool management ----------------------------------------------------
_EXECUTORS: dict[tuple[str, int], ProcessPoolExecutor] = {}


def _default_start_method() -> str:
    """Prefer fork (cheap, inherits the interpreter) where available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def _get_executor(start_method: str, workers: int) -> ProcessPoolExecutor:
    key = (start_method, workers)
    executor = _EXECUTORS.get(key)
    if executor is None:
        if not _EXECUTORS:
            # Registered on first use, not at import: merely importing
            # the engine must stay side-effect free.
            atexit.register(shutdown_pools)
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start_method),
        )
        _EXECUTORS[key] = executor
    return executor


def _drop_executor(start_method: str, workers: int) -> None:
    """Evict (and best-effort shut down) a broken executor."""
    executor = _EXECUTORS.pop((start_method, workers), None)
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down and forget every cached worker pool."""
    while _EXECUTORS:
        _, executor = _EXECUTORS.popitem()
        executor.shutdown(wait=True, cancel_futures=True)


# -- chunk slicing ------------------------------------------------------
class _ColumnarSlicer:
    """Vectorised region membership over one dataset's coordinate table.

    Builds the table once and answers each region with a broadcast
    interval test — bit-identical to :meth:`Region.touches` (closed
    boxes, float64 comparisons) but without the per-object Python loop.
    Chunk payloads come out as contiguous ``("table", coords, ids,
    class_masks)`` buffers ready for IPC.

    With ``dedup="partition"`` membership switches to the two-layer
    index-range rule (:meth:`Decomposition.covers`) and every member is
    shipped with its class mask, both resolved on the decomposition's
    shared-edge ruler via one ``searchsorted`` per partitioned axis —
    bit-identical to :meth:`Decomposition.owner_cell`'s ``bisect_right``.

    With ``handoff="shm"`` the whole table is published once as a
    shared-memory block in the constructor; every chunk then carries the
    picklable :class:`~repro.geometry.columnar.SharedTableHandle` plus
    the member row indices instead of sliced coordinate buffers, and
    :meth:`close` unlinks the block (the engine calls it in
    ``finally``).
    """

    def __init__(
        self,
        objects: list[SpatialObject],
        decomposition: Decomposition,
        dedup: str,
        handoff: str = "pickle",
        exact: bool = False,
    ) -> None:
        self.table = CoordinateTable.from_objects(objects)
        self.dedup = dedup
        self.handoff = handoff
        self.block = self.table.to_shared() if handoff == "shm" else None
        self.vtable = None
        self.vblock = None
        if exact:
            # Exact mode ships vertex data next to the coordinates: the
            # same member rows slice both tables, so workers re-attach
            # shapes positionally.
            from repro.geometry.vertex_table import VertexTable

            self.vtable = VertexTable.from_objects(objects)
            if handoff == "shm":
                self.vblock = self.vtable.to_shared()
        if dedup != "partition":
            return

        table, dim = self.table, self.table.dim
        self._owner_lo, self._owner_hi = [], []
        for coordinate, axis in enumerate(decomposition.axes):
            edges = np.asarray(decomposition.edges[coordinate], dtype=np.float64)
            last = len(edges) - 1
            for source, out in (
                (table.coords[:, axis], self._owner_lo),
                (table.coords[:, axis + dim], self._owner_hi),
            ):
                owner = np.searchsorted(edges, source, side="right") - 1
                out.append(np.clip(owner, 0, last))

    def close(self) -> None:
        """Unlink the published shared blocks (idempotent)."""
        if self.block is not None:
            self.block.close(unlink=True)
        if self.vblock is not None:
            self.vblock.close(unlink=True)

    def _payload(self, member, classes):
        if self.block is not None:
            indices = np.flatnonzero(member).astype(np.int64, copy=False)
            if self.vblock is not None:
                return (
                    "shm",
                    self.block.handle,
                    indices,
                    classes,
                    self.vblock.handle,
                )
            return ("shm", self.block.handle, indices, classes)
        table = self.table
        if self.vtable is not None:
            vertex_slice = self.vtable.take(np.flatnonzero(member))
            return (
                "table",
                table.coords[member],
                table.ids[member],
                classes,
                vertex_slice,
            )
        return ("table", table.coords[member], table.ids[member], classes)

    def chunk(self, region):
        table = self.table
        if self.dedup != "partition":
            mask = axes_overlap_mask(table, region.axes, region.lows, region.highs)
            if not mask.any():
                return None
            return self._payload(mask, None)

        member = np.ones(len(table), dtype=bool)
        for coordinate, cell in enumerate(region.cells):
            member &= self._owner_lo[coordinate] <= cell
            member &= self._owner_hi[coordinate] >= cell
        if not member.any():
            return None
        classes = np.zeros(int(member.sum()), dtype=np.int64)
        for coordinate, cell in enumerate(region.cells):
            classes += (self._owner_lo[coordinate][member] == cell).astype(
                np.int64
            ) << coordinate
        return self._payload(member, classes)


#: Valid values of the ``handoff`` selector.
HANDOFF_MODES = ("auto", "shm", "pickle")

#: Valid values of the ``geometry`` selector (mirrors
#: :data:`repro.bench.config.GEOMETRY_MODES`, which the engine must not
#: import — the bench layer sits above the engines).
GEOMETRY_MODES = ("mbr", "exact")


def _resolve_handoff(handoff: str) -> str:
    """Resolve ``"auto"`` against what this interpreter can actually do."""
    if handoff == "pickle":
        return "pickle"
    if handoff == "shm":
        if not HAVE_SHM:
            raise RuntimeError(
                "handoff='shm' requires multiprocessing.shared_memory; "
                "use handoff='auto' to fall back"
            )
        return "shm"
    return "shm" if HAVE_SHM else "pickle"


# -- worker-side code ---------------------------------------------------


def _with_shapes(objects, vertex_table):
    """Re-attach exact shapes to rebuilt objects, by table position."""
    return [
        SpatialObject(obj.oid, obj.mbr, vertex_table.shape_at(i))
        for i, obj in enumerate(objects)
    ]


def _unpack_chunk(payload):
    """Rebuild the region's objects (and class masks) inside the worker.

    Exact-mode payloads carry one extra element of vertex data (a shared
    vertex-table handle or a sliced :class:`VertexTable`), re-attached
    here so the worker can refine locally.
    """
    tag = payload[0]
    if tag == "shm":
        # Attach the parent's shared block, copy out just this region's
        # rows, detach.  The worker keeps no reference to the segment.
        if len(payload) == 5:
            from repro.geometry.vertex_table import VertexTable

            _tag, handle, indices, classes, vertex_handle = payload
            objects = _with_shapes(
                CoordinateTable.shm_slice(handle, indices).to_objects(),
                VertexTable.shm_slice(vertex_handle, indices),
            )
            return objects, None if classes is None else classes.tolist()
        _tag, handle, indices, classes = payload
        objects = CoordinateTable.shm_slice(handle, indices).to_objects()
        return objects, None if classes is None else classes.tolist()
    if len(payload) == 5:
        _tag, coords, ids, classes, vertex_slice = payload
        objects = _with_shapes(
            CoordinateTable(coords, ids).to_objects(), vertex_slice
        )
        return objects, None if classes is None else classes.tolist()
    _tag, coords, ids, classes = payload
    objects = CoordinateTable(coords, ids).to_objects()
    return objects, None if classes is None else classes.tolist()


#: Per-worker spill counters surfaced in the parent's ``stats.extra``
#: when the engine runs under a byte budget (``stats.merge`` sums the
#: numeric counters but leaves ``extra`` alone, so these fold by hand).
_WORKER_SPILL_KEYS = (
    "spilled_partitions",
    "spill_bytes_written",
    "spill_bytes_read",
    "unspills",
)


def _fold_spill_counters(stats: JoinStatistics, chunk_stats: JoinStatistics) -> None:
    """Sum a chunk's budgeted-join counters into aggregated stats."""
    for key in _WORKER_SPILL_KEYS:
        value = chunk_stats.extra.get(key)
        if value:
            stats.extra[key] = stats.extra.get(key, 0) + int(value)


def _require_shapes(objects, side: str) -> None:
    """Exact mode demands explicit shapes on every object.

    A missing shape would silently fall back to a box over ``obj.mbr``
    — which on this path is the *inflated* build MBR, not the original
    extent — so the engine refuses rather than refining wrong.
    """
    from repro.geometry.shapes import Shape

    for obj in objects:
        if not isinstance(obj.geometry, Shape):
            raise ValueError(
                f"geometry='exact' requires every {side}-side object to "
                f"carry an exact shape attached before epsilon inflation; "
                f"object #{obj.oid} has none"
            )


def _refine_chunk(pairs, objects_a, objects_b, refine, stats):
    """Refine this worker's owned pairs against the chunk's exact shapes.

    Runs *after* the ownership test, so the owned sets partition the
    global candidate set and the summed refine counters count every
    candidate exactly once across workers.
    """
    from repro.refine import RefinePipeline

    epsilon, backend = refine
    return RefinePipeline(epsilon, backend=backend).refine(
        pairs, objects_a, objects_b, stats=stats
    )


def _run_chunk(task):
    """Worker entry point: join one region, free of cross-region dupes.

    Returns ``(region_index, owned_pairs, duplicates, stats, seconds)``.
    With ``dedup="reference"`` the region's full join runs first and
    every result pair is then ownership-tested (the in-worker dedup
    pass); with ``dedup="partition"`` the members arrive pre-classified
    and the allowed class-pair mini-joins are executed instead — owned
    by construction, no per-pair test.  ``refine`` (``(epsilon,
    backend)`` or ``None``) runs the exact-geometry refine stage over
    the owned pairs before they travel back.  Must stay a module-level
    function so it pickles under every start method.
    """
    (
        spec,
        decomposition,
        region_index,
        chunk_a,
        chunk_b,
        dedup,
        max_bytes,
        refine,
    ) = task
    start = time.perf_counter()
    objects_a, classes_a = _unpack_chunk(chunk_a)
    objects_b, classes_b = _unpack_chunk(chunk_b)

    def fresh() -> SpatialJoinAlgorithm:
        # Per-worker budget: each region join runs under its share of
        # the byte budget, spilling over-budget sub-partitions locally.
        if max_bytes is None:
            return spec.make()
        from repro.memory import BudgetedSpatialJoin

        return BudgetedSpatialJoin(spec.make, max_bytes)

    if dedup == "partition":
        from repro.partition.classes import group_by_mask, mini_join_masks

        groups_a = group_by_mask(objects_a, classes_a)
        groups_b = group_by_mask(objects_b, classes_b)
        stats = JoinStatistics()
        pairs: list[Pair] = []
        for mask_a, mask_b in mini_join_masks(len(decomposition.axes)):
            mini_a = groups_a.get(mask_a)
            mini_b = groups_b.get(mask_b)
            if not mini_a or not mini_b:
                continue
            result = fresh().join(mini_a, mini_b)
            stats.merge(result.stats)
            _fold_spill_counters(stats, result.stats)
            pairs.extend(result.pairs)
        if refine is not None:
            pairs = _refine_chunk(pairs, objects_a, objects_b, refine, stats)
        return region_index, pairs, 0, stats, time.perf_counter() - start

    result = fresh().join(objects_a, objects_b)
    region = decomposition.regions[region_index]
    mbr_a = {o.oid: o.mbr for o in objects_a}
    mbr_b = {o.oid: o.mbr for o in objects_b}
    owned: list[Pair] = []
    duplicates = 0
    result.stats.dedup_checks += len(result.pairs)
    for oid_a, oid_b in result.pairs:
        if decomposition.owns(region, mbr_a[oid_a], mbr_b[oid_b]):
            owned.append((oid_a, oid_b))
        else:
            duplicates += 1
    if refine is not None:
        owned = _refine_chunk(owned, objects_a, objects_b, refine, result.stats)
    return region_index, owned, duplicates, result.stats, time.perf_counter() - start


# -- the engine ---------------------------------------------------------
class ParallelChunkedJoin(SpatialJoinAlgorithm):
    """Multiprocess execution of any registered join over slabs or tiles.

    Parameters
    ----------
    algorithm:
        An :class:`~repro.joins.registry.AlgorithmSpec`, a registry name
        (``overrides`` are then forwarded to the factory), or a picklable
        zero-argument factory (e.g. a top-level class; closures are
        rejected eagerly).
    workers:
        Worker-process count (>= 1).
    n_chunks:
        Region count; ``None`` picks it adaptively from the object count
        and worker count (:func:`~repro.parallel.decompose.adaptive_chunk_count`).
    kind:
        ``"slabs"`` (1-D, the paper's layout) or ``"tiles"`` (2-D grid).
    axis:
        Slab axis (or first tile axis).
    dedup:
        How cross-region duplicates are prevented.  ``"reference"``
        (default): every region receives all touching objects, workers
        join them and then ownership-test each result pair against the
        reference-point rule.  ``"partition"``: members are classified
        by the two-layer corner-ownership scheme at decompose time and
        workers run only the allowed class-pair mini-joins — the merged
        result is duplicate-free by construction and the in-worker
        dedup pass is skipped entirely (``stats.dedup_checks`` gains
        nothing from the engine; see :mod:`repro.partition.classes`).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    handoff:
        How coordinate data reaches the workers.  ``"auto"`` (default):
        one shared-memory block per side with per-region index views
        when ``multiprocessing.shared_memory`` is available, else the
        pickle path.  ``"shm"`` forces shared memory (raises
        when unavailable); ``"pickle"`` forces the per-region pickled
        buffers.  Pair sets and counters are identical either way.
    max_bytes:
        Optional total byte budget; each worker joins its regions under
        an equal share (``max_bytes // workers``, at least 1) through
        the spilling :class:`~repro.memory.budgeted.BudgetedSpatialJoin`,
        and the per-worker spill counters are folded into
        ``stats.extra``.  Pair parity with the unbudgeted engine is
        exact (the budgeted join is complete and duplicate-free for its
        inputs).
    geometry:
        ``"mbr"`` (default) returns MBR candidate pairs exactly as
        before; ``"exact"`` ships vertex data alongside the coordinates
        and refines each worker's owned pairs against the objects'
        exact shapes.  Exact mode requires every object to carry a
        :class:`~repro.geometry.shapes.Shape` attached *before* any ε
        inflation (the harness's ``_shaped`` rule) — refinement reads
        shapes only, so the inflated build MBRs never leak into the
        exact predicate.
    refine_epsilon:
        The ε of the exact distance predicate (required with
        ``geometry="exact"``, rejected otherwise).  Kept separate from
        the builder's inflation because the engine never inflates — it
        receives the already-inflated build side.
    """

    name = "Parallel"

    #: Valid values of the ``dedup`` selector.
    DEDUP_MODES = ("reference", "partition")

    def __init__(
        self,
        algorithm: AlgorithmSpec | str,
        *,
        workers: int = 2,
        n_chunks: int | None = None,
        kind: str = "slabs",
        axis: int = 0,
        dedup: str = "reference",
        start_method: str | None = None,
        handoff: str = "auto",
        max_bytes: int | None = None,
        geometry: str = "mbr",
        refine_epsilon: float | None = None,
        **overrides,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_bytes is not None and (
            isinstance(max_bytes, bool)
            or not isinstance(max_bytes, int)
            or max_bytes <= 0
        ):
            raise ValueError(
                f"max_bytes must be a positive integer byte count, "
                f"got {max_bytes!r}"
            )
        if dedup not in self.DEDUP_MODES:
            raise ValueError(
                f"unknown dedup mode {dedup!r}; expected one of "
                f"{', '.join(self.DEDUP_MODES)}"
            )
        if handoff not in HANDOFF_MODES:
            raise ValueError(
                f"unknown handoff mode {handoff!r}; expected one of "
                f"{', '.join(HANDOFF_MODES)}"
            )
        if n_chunks is not None and n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if geometry not in GEOMETRY_MODES:
            raise ValueError(
                f"unknown geometry mode {geometry!r}; expected one of "
                f"{', '.join(GEOMETRY_MODES)}"
            )
        if geometry == "exact":
            if refine_epsilon is None:
                raise ValueError("geometry='exact' requires refine_epsilon")
            refine_epsilon = float(refine_epsilon)
            if not math.isfinite(refine_epsilon) or refine_epsilon < 0:
                raise ValueError(
                    f"refine_epsilon must be finite and non-negative, "
                    f"got {refine_epsilon!r}"
                )
        elif refine_epsilon is not None:
            raise ValueError(
                "refine_epsilon is only meaningful with geometry='exact'"
            )
        if isinstance(algorithm, str):
            algorithm = AlgorithmSpec.create(algorithm, **overrides)
        elif overrides:
            raise TypeError("overrides are only accepted with a registry name")
        if isinstance(algorithm, AlgorithmSpec):
            base_name = algorithm.name
        else:
            try:
                pickle.dumps(algorithm)
            except Exception as exc:
                raise TypeError(
                    "the base algorithm factory must be picklable to cross "
                    "process boundaries; pass an AlgorithmSpec or a registry "
                    f"name instead ({exc})"
                ) from exc
            base_name = getattr(algorithm, "__name__", repr(algorithm))
        self.spec = algorithm
        self.workers = workers
        self.n_chunks = n_chunks
        self.kind = kind
        self.axis = axis
        self.dedup = dedup
        self.handoff = handoff
        self.max_bytes = max_bytes
        self.geometry = geometry
        self.refine_epsilon = refine_epsilon
        self.start_method = start_method or _default_start_method()
        chunk_label = "auto" if n_chunks is None else str(n_chunks)
        suffix = "" if kind == "slabs" else f":{kind}"
        if dedup != "reference":
            suffix += f":{dedup}"
        self.name = f"Parallel[{base_name}x{chunk_label}{suffix}@{workers}w]"

    def describe(self) -> dict:
        info = {
            "workers": self.workers,
            "n_chunks": self.n_chunks,
            "decompose": self.kind,
            "axis": self.axis,
            "dedup": self.dedup,
            "handoff": self.handoff,
            "max_bytes": self.max_bytes,
            "start_method": self.start_method,
        }
        if self.geometry != "mbr":
            # Only exact runs grow keys, keeping mbr-mode descriptions
            # (and the records built from them) byte-identical.
            info["geometry"] = self.geometry
            info["refine_epsilon"] = self.refine_epsilon
        return info

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        exact = self.geometry == "exact"
        if exact:
            _require_shapes(objects_a, "build")
            _require_shapes(objects_b, "probe")
        n_chunks = self.n_chunks or adaptive_chunk_count(
            len(objects_a) + len(objects_b), self.workers
        )
        handoff = _resolve_handoff(self.handoff)
        stats.extra["workers"] = self.workers
        stats.extra["n_chunks"] = n_chunks
        stats.extra["decompose"] = self.kind
        stats.extra["dedup"] = self.dedup
        stats.extra["handoff"] = handoff
        worker_max_bytes = (
            None if self.max_bytes is None else max(1, self.max_bytes // self.workers)
        )
        if worker_max_bytes is not None:
            stats.extra["worker_max_bytes"] = worker_max_bytes
        stats.extra["pickled_coord_bytes"] = 0
        stats.extra["decompose_seconds"] = 0.0
        stats.extra["worker_join_seconds"] = 0.0
        stats.extra["merge_seconds"] = 0.0
        if not objects_a or not objects_b:
            return []

        # Phase 1: decompose — cut the universe, slice member views.
        start = time.perf_counter()
        universe = total_mbr(o.mbr for o in objects_a).union(
            total_mbr(o.mbr for o in objects_b)
        )
        decomposition = Decomposition.build(
            universe, kind=self.kind, n_chunks=n_chunks, axis=self.axis
        )
        spec = self._wire_spec()
        refine = None
        if exact:
            backend = None
            if isinstance(self.spec, AlgorithmSpec):
                backend = dict(self.spec.overrides).get("backend")
            refine = (self.refine_epsilon, backend or "auto")
        slicer_a = _ColumnarSlicer(objects_a, decomposition, self.dedup, handoff, exact)
        try:
            slicer_b = _ColumnarSlicer(
                objects_b, decomposition, self.dedup, handoff, exact
            )
        except BaseException:
            slicer_a.close()
            raise
        try:
            pickled_coord_bytes = 0
            tasks = []
            for region in decomposition.regions:
                chunk_a = slicer_a.chunk(region)
                if chunk_a is None:
                    continue
                chunk_b = slicer_b.chunk(region)
                if chunk_b is None:
                    continue
                for chunk in (chunk_a, chunk_b):
                    if chunk[0] == "table":
                        pickled_coord_bytes += chunk[1].nbytes + chunk[2].nbytes
                tasks.append(
                    (
                        spec,
                        decomposition,
                        region.index,
                        chunk_a,
                        chunk_b,
                        self.dedup,
                        worker_max_bytes,
                        refine,
                    )
                )
            # Instrumented so tests can assert the shm hot path never
            # pickles a coordinate buffer (indices and ids of the pickle
            # fallback are the only numeric payloads).
            stats.extra["pickled_coord_bytes"] = pickled_coord_bytes
            stats.extra["decompose_seconds"] = time.perf_counter() - start
            stats.extra["decompose"] = decomposition.kind
            if not tasks:
                return []

            # Phase 2: worker_join — fan the regions out over the pool.
            start = time.perf_counter()
            executor = _get_executor(self.start_method, self.workers)
            try:
                outcomes = list(executor.map(_run_chunk, tasks))
            except BrokenProcessPool as exc:
                # A dead worker poisons the whole executor: evict it so
                # the next join starts clean, and surface the crash with
                # the stats collected so far attached.
                _drop_executor(self.start_method, self.workers)
                stats.extra["worker_crashed"] = True
                stats.extra["worker_join_seconds"] = time.perf_counter() - start
                raise WorkerCrashError(
                    f"a worker process died while joining {len(tasks)} "
                    f"regions ({self.name}); shared-memory blocks were "
                    "unlinked and the worker pool was discarded",
                    stats,
                ) from exc
            worker_join_seconds = time.perf_counter() - start
        finally:
            # Whatever happened above, the parent owns the shared blocks
            # and must unlink them — a crashed worker cannot strand
            # segments in /dev/shm.
            slicer_a.close()
            slicer_b.close()

        # Phase 3: merge — deterministic region order (executor.map
        # preserves task order): counters sum, memory maxes, pairs
        # concatenate.
        start = time.perf_counter()
        pairs: list[Pair] = []
        duplicates = 0
        per_chunk: list[float] = []
        for _index, owned, chunk_duplicates, chunk_stats, seconds in outcomes:
            pairs.extend(owned)
            duplicates += chunk_duplicates
            stats.merge(chunk_stats)
            _fold_spill_counters(stats, chunk_stats)
            per_chunk.append(seconds)
        stats.duplicates_suppressed += duplicates
        stats.result_pairs = len(pairs)
        stats.extra["worker_join_seconds"] = worker_join_seconds
        stats.extra["worker_seconds_sum"] = sum(per_chunk)
        stats.extra["per_chunk_seconds"] = per_chunk
        stats.extra["merge_seconds"] = time.perf_counter() - start
        return pairs

    def _wire_spec(self):
        """What travels to the workers: a spec, or a picklable factory
        wrapped so ``.make()`` exists either way."""
        if isinstance(self.spec, AlgorithmSpec):
            return self.spec
        return _FactorySpec(self.spec)


class _FactorySpec:
    """Adapter giving a plain picklable factory the ``.make()`` protocol."""

    __slots__ = ("factory",)

    def __init__(self, factory) -> None:
        self.factory = factory

    def __getstate__(self):
        return self.factory

    def __setstate__(self, state) -> None:
        self.factory = state

    def make(self) -> SpatialJoinAlgorithm:
        return self.factory()
