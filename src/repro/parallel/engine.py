"""True multiprocess parallel join over the paper's §3 decomposition.

:class:`ParallelChunkedJoin` cuts the universe into contiguous regions
and joins each one in a ``multiprocessing`` worker pool, on coordinate
tables from end to end:

1. **decompose** — the universe is the bound of both tables and is cut
   by the shared :class:`~repro.parallel.decompose.Decomposition`
   (slabs or tiles).  Region membership is one array pass per region
   (:func:`~repro.geometry.columnar.axes_overlap_mask`, closed boxes),
   and each region ships the pickled ``table.take(member)`` slices of
   both sides (column block and ids);
2. **worker_join** — each worker wraps its slices as table-backed
   :class:`~repro.datasets.base.Dataset`\\ s and joins them with a fresh
   algorithm from a picklable
   :class:`~repro.joins.registry.AlgorithmSpec` (TOUCH runs its
   table-native join and builds no object).  It then keeps the pairs
   its region owns under the reference-point rule, in one array pass
   over the result's oid arrays
   (:meth:`~repro.parallel.decompose.Decomposition.owner_indices`), so
   only owned int64 pair arrays travel back;
3. **merge** — one ``np.concatenate`` per side in deterministic region
   order; counters sum, ``memory_bytes`` takes the per-worker maximum,
   and the three phase wall-clocks land in ``stats.extra``:
   ``decompose_seconds``, ``worker_join_seconds`` (the wall-clock of the
   whole fan-out — the pool's critical path including IPC) and
   ``merge_seconds``, next to the raw in-worker ``per_chunk_seconds``
   list and its ``worker_seconds_sum`` (the sequential-equivalent work).

Pair sets are identical to the sequential join, and summed counters
are identical across worker counts for the same ``(kind, n_chunks)``;
``workers=1`` with ``n_chunks=k`` is the one-core simulation of a
``k``-core deployment.  The parity suite
(``tests/test_parallel_parity.py``) pins both for every registered
algorithm.  The engine returns MBR pairs; exact-geometry runs refine
them once in the parent (:func:`repro.bench.runner.run_algorithm`).

Worker pools (:class:`concurrent.futures.ProcessPoolExecutor`) are
cached per ``(start_method, workers)`` and reused across joins (fork
start-up is cheap, but spawn is not); call :func:`shutdown_pools` to
release them explicitly — an ``atexit`` hook does so at interpreter
shutdown, so repeated engine use never leaks semaphores or worker
processes.  A worker killed mid-join surfaces as
:class:`WorkerCrashError` (the executor raises ``BrokenProcessPool``
instead of hanging like ``multiprocessing.Pool.map``) and the broken
executor is dropped from the cache.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.datasets.base import Dataset
from repro import execute
from repro.geometry.columnar import CoordinateTable, axes_overlap_mask
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.joins.base import PairArrays, SpatialJoinAlgorithm
from repro.joins.registry import AlgorithmSpec
from repro.memory.budget import validate_max_bytes
from repro.parallel.decompose import (
    DECOMPOSE_KINDS,
    Decomposition,
    adaptive_chunk_count,
)
from repro.refine.pipeline import OidRows
from repro.stats.counters import JoinStatistics

__all__ = ["ParallelChunkedJoin", "WorkerCrashError", "shutdown_pools"]


class WorkerCrashError(RuntimeError):
    """A worker process died mid-join (killed, OOM, hard crash).

    Raised in place of the executor's ``BrokenProcessPool``: the broken
    executor was evicted from the cache (the next join builds a fresh
    one), and ``stats`` carries the phase breakdown collected up to the
    crash (``stats.extra["worker_crashed"]`` is set).
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


# -- worker-side code ---------------------------------------------------

#: Per-worker spill counters surfaced in the parent's ``stats.extra``
#: when the engine runs under a byte budget (``stats.merge`` sums the
#: numeric counters but leaves ``extra`` alone, so these fold by hand).
_WORKER_SPILL_KEYS = (
    "spilled_partitions",
    "spill_bytes_written",
    "spill_bytes_read",
    "unspills",
)


def _owned_mask(decomposition, region_index, table_a, table_b, pairs):
    """Which of a region's result pairs the region owns.

    Oids go to rows through :class:`~repro.refine.pipeline.OidRows`;
    the rows' low corners give each pair's owner under the
    reference-point rule.
    """
    rows_a = OidRows(table_a.ids, "the region's A slice").rows(pairs.a, "A")
    rows_b = OidRows(table_b.ids, "the region's B slice").rows(pairs.b, "B")
    owners = decomposition.owner_indices(table_a.lo[rows_a], table_b.lo[rows_b])
    return owners == region_index


def _run_chunk(task):
    """Worker entry point: join one region, keep the pairs it owns.

    Returns ``(owned_a, owned_b, duplicates, stats, seconds)``.  Under
    a byte budget the region joins through the spilling
    :class:`~repro.memory.budgeted.BudgetedSpatialJoin`.  Must stay a
    module-level function so it pickles under every start method.
    """
    spec, decomposition, region_index, table_a, table_b, max_bytes = task
    start = time.perf_counter()
    algorithm = execute.executor(spec, max_bytes=max_bytes)
    result = algorithm.join(Dataset.from_table(table_a), Dataset.from_table(table_b))
    pairs = result.pair_arrays()
    owned = _owned_mask(decomposition, region_index, table_a, table_b, pairs)
    result.stats.dedup_checks += len(owned)
    duplicates = len(owned) - int(np.count_nonzero(owned))
    seconds = time.perf_counter() - start
    return pairs.a[owned], pairs.b[owned], duplicates, result.stats, seconds


# -- the engine ---------------------------------------------------------
class ParallelChunkedJoin(SpatialJoinAlgorithm):
    """Multiprocess execution of any registered join over slabs or tiles.

    Parameters
    ----------
    algorithm:
        An :class:`~repro.joins.registry.AlgorithmSpec`, or a registry
        name (``overrides`` are then forwarded to the factory).
    workers:
        Worker-process count (>= 1).
    n_chunks:
        Region count; ``None`` picks it from the worker count
        (:func:`~repro.parallel.decompose.adaptive_chunk_count`).
    kind:
        ``"slabs"`` (1-D, the paper's layout) or ``"tiles"`` (2-D grid).
    axis:
        Slab axis (or first tile axis).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    max_bytes:
        Optional total byte budget; each worker joins its regions under
        an equal share (``max_bytes // workers``, at least 1) through
        the spilling :class:`~repro.memory.budgeted.BudgetedSpatialJoin`,
        and the per-worker spill counters are folded into
        ``stats.extra``.  Pair parity with the unbudgeted engine is
        exact (the budgeted join is complete and duplicate-free for its
        inputs).
    """

    name = "Parallel"

    def __init__(
        self,
        algorithm: AlgorithmSpec | str,
        *,
        workers: int = 2,
        n_chunks: int | None = None,
        kind: str = "slabs",
        axis: int = 0,
        start_method: str | None = None,
        max_bytes: int | None = None,
        **overrides,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_bytes is not None:
            validate_max_bytes(max_bytes)
        if n_chunks is not None and n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if isinstance(algorithm, str):
            algorithm = AlgorithmSpec.create(algorithm, **overrides)
        elif not isinstance(algorithm, AlgorithmSpec):
            raise TypeError(
                "algorithm must be a registry name or an AlgorithmSpec, "
                f"got {algorithm!r}"
            )
        elif overrides:
            raise TypeError("overrides are only accepted with a registry name")
        self.spec = algorithm
        self.workers = workers
        self.n_chunks = n_chunks
        self.kind = kind
        self.axis = axis
        self.max_bytes = max_bytes
        self.start_method = start_method or _default_start_method()
        chunk_label = "auto" if n_chunks is None else str(n_chunks)
        suffix = "" if kind == "slabs" else f":{kind}"
        self.name = f"Parallel[{algorithm.name}x{chunk_label}{suffix}@{workers}w]"

    def describe(self) -> dict:
        return {
            "workers": self.workers,
            "n_chunks": self.n_chunks,
            "decompose": self.kind,
            "axis": self.axis,
            "max_bytes": self.max_bytes,
            "start_method": self.start_method,
        }

    def runs_on_tables(self) -> bool:
        return True

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> PairArrays:
        return self._execute_table(
            CoordinateTable.from_objects(objects_a),
            CoordinateTable.from_objects(objects_b),
            stats,
        )

    def _execute_table(
        self,
        table_a: CoordinateTable,
        table_b: CoordinateTable,
        stats: JoinStatistics,
    ) -> PairArrays:
        n_chunks = self.n_chunks or adaptive_chunk_count(self.workers)
        stats.extra["workers"] = self.workers
        stats.extra["n_chunks"] = n_chunks
        stats.extra["decompose"] = self.kind
        worker_max_bytes = (
            None if self.max_bytes is None else max(1, self.max_bytes // self.workers)
        )
        if worker_max_bytes is not None:
            stats.extra["worker_max_bytes"] = worker_max_bytes
        stats.extra["decompose_seconds"] = 0.0
        stats.extra["worker_join_seconds"] = 0.0
        stats.extra["merge_seconds"] = 0.0
        if not len(table_a) or not len(table_b):
            return PairArrays.empty()

        # Phase 1: decompose — cut the universe, slice each region's rows.
        start = time.perf_counter()
        lo_a, hi_a = table_a.bounds()
        lo_b, hi_b = table_b.bounds()
        universe = MBR(
            tuple(np.minimum(lo_a, lo_b).tolist()),
            tuple(np.maximum(hi_a, hi_b).tolist()),
        )
        decomposition = Decomposition.build(
            universe, kind=self.kind, n_chunks=n_chunks, axis=self.axis
        )
        tasks = []
        for region in decomposition.regions:
            member_a = axes_overlap_mask(table_a, region.axes, region.lows, region.highs)
            if not member_a.any():
                continue
            member_b = axes_overlap_mask(table_b, region.axes, region.lows, region.highs)
            if not member_b.any():
                continue
            tasks.append(
                (
                    self.spec,
                    decomposition,
                    region.index,
                    table_a.take(member_a),
                    table_b.take(member_b),
                    worker_max_bytes,
                )
            )
        stats.extra["decompose_seconds"] = time.perf_counter() - start
        stats.extra["decompose"] = decomposition.kind
        if not tasks:
            return PairArrays.empty()

        # Phase 2: worker_join — fan the regions out over the pool.
        start = time.perf_counter()
        executor = _get_executor(self.start_method, self.workers)
        try:
            outcomes = list(executor.map(_run_chunk, tasks))
        except BrokenProcessPool as exc:
            # A dead worker poisons the whole executor: evict it so the
            # next join starts clean, and surface the crash with the
            # stats collected so far attached.
            _drop_executor(self.start_method, self.workers)
            stats.extra["worker_crashed"] = True
            stats.extra["worker_join_seconds"] = time.perf_counter() - start
            raise WorkerCrashError(
                f"a worker process died while joining {len(tasks)} "
                f"regions ({self.name}); the worker pool was discarded",
                stats,
            ) from exc
        stats.extra["worker_join_seconds"] = time.perf_counter() - start

        # Phase 3: merge — deterministic region order (executor.map
        # preserves task order): counters sum, memory maxes, pairs
        # concatenate.
        start = time.perf_counter()
        per_chunk: list[float] = []
        for _a, _b, duplicates, chunk_stats, seconds in outcomes:
            stats.merge(chunk_stats)
            stats.duplicates_suppressed += duplicates
            for key in _WORKER_SPILL_KEYS:
                value = chunk_stats.extra.get(key)
                if value:
                    stats.extra[key] = stats.extra.get(key, 0) + int(value)
            per_chunk.append(seconds)
        pairs = PairArrays(
            np.concatenate([outcome[0] for outcome in outcomes]),
            np.concatenate([outcome[1] for outcome in outcomes]),
        )
        stats.extra["worker_seconds_sum"] = sum(per_chunk)
        stats.extra["per_chunk_seconds"] = per_chunk
        stats.extra["merge_seconds"] = time.perf_counter() - start
        return pairs
