"""The join pipeline: each phase of an ε-distance join, written once.

Every front door runs the paper's sequence (§4): ε-inflate the build
side, filter on MBRs, refine the candidates against exact shapes.
:func:`plan` asks the optimizer for a plan under the caller's pins,
:func:`executor` picks the join that runs an algorithm, :func:`join` is
the one-shot inflate → filter (→ refine), and :func:`refine` refines
MBR candidates and folds the refine into the statistics.
``docs/pipeline.md`` says which door composes which phase.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from repro.datasets.transform import inflate
from repro.geometry.columnar import CoordinateTable
from repro.joins.base import JoinResult, SpatialJoinAlgorithm
from repro.joins.registry import AlgorithmSpec, make_algorithm

if TYPE_CHECKING:
    from repro.bench.config import RunOptions
    from repro.memory.budget import SpillMetrics
    from repro.optimizer.plan import Plan

__all__ = ["plan", "executor", "join", "refine"]


def plan(
    algorithm: str,
    objects_a,
    objects_b,
    epsilon: float,
    pins: "RunOptions",
    fingerprint: str | None = None,
) -> "Plan":
    """The optimizer's plan for joining ``objects_a`` (build) with ``objects_b``.

    ``algorithm="auto"`` lets the optimizer choose; a registry name pins
    it, though every candidate is still scored.  The fields of ``pins``
    that are set (backend, workers, decompose, geometry, max_bytes) are
    pins too, and a truthy ``reuse_index`` prices a cached index.
    ``fingerprint`` is A's digest when the caller already has it.
    """
    from repro.optimizer import choose_plan, sketch_dataset

    return choose_plan(
        sketch_dataset(objects_a, fingerprint),
        sketch_dataset(objects_b),
        float(epsilon),
        algorithm=None if algorithm == "auto" else algorithm,
        backend=pins.backend,
        workers=pins.workers,
        decompose=pins.decompose,
        geometry=pins.geometry,
        reuse_index=bool(pins.reuse_index),
        max_bytes=pins.max_bytes,
    )


def executor(
    algorithm: "str | AlgorithmSpec | SpatialJoinAlgorithm",
    overrides: dict | None = None,
    workers: int | None = None,
    decompose: str | None = None,
    max_bytes: int | None = None,
    metrics: "SpillMetrics | None" = None,
) -> SpatialJoinAlgorithm:
    """The join that runs ``algorithm``.

    ``overrides`` go to the registry factory of a named algorithm.
    ``workers >= 1`` runs it through the multiprocess engine over a
    ``decompose`` cutting (default ``"slabs"``), each worker under an
    equal share of ``max_bytes``.  Otherwise ``max_bytes`` runs it under
    the memory governor (default cutting ``"tiles"``), whose spill
    counters also land on ``metrics``.  Both rebuild the algorithm per
    worker or partition, so they take a name or spec, never a live
    instance.
    """
    if isinstance(algorithm, SpatialJoinAlgorithm):
        if workers or max_bytes is not None:
            raise TypeError(
                "workers and max_bytes require a registry name or "
                "AlgorithmSpec (live algorithm instances cannot cross "
                f"process boundaries), got {type(algorithm).__name__}"
            )
        return algorithm
    if isinstance(algorithm, str):
        if not workers and max_bytes is None:
            return make_algorithm(algorithm, **(overrides or {}))
        algorithm = AlgorithmSpec.create(algorithm, **(overrides or {}))
    if workers:
        # Imported lazily: repro.parallel pulls in multiprocessing
        # machinery the sequential paths never need.
        from repro.parallel.engine import ParallelChunkedJoin

        return ParallelChunkedJoin(
            algorithm,
            workers=workers,
            kind=decompose or "slabs",
            max_bytes=max_bytes,
        )
    if max_bytes is not None:
        from repro.memory import BudgetedSpatialJoin

        return BudgetedSpatialJoin(
            algorithm, max_bytes=max_bytes, kind=decompose or "tiles", metrics=metrics
        )
    return algorithm.make()


def join(
    algorithm: SpatialJoinAlgorithm,
    dataset_a: Sequence,
    dataset_b: Sequence,
    epsilon: float,
    geometry: str | None = None,
    backend: str | None = None,
) -> JoinResult:
    """One-shot distance join: inflate A by ε, filter, refine if exact.

    Pairs are ``(oid_a, oid_b)``.  With ``geometry="exact"`` the MBR
    candidates are refined against the original (never inflated) sides,
    see :func:`refine`.
    """
    result = algorithm.join(inflate(dataset_a, epsilon), dataset_b)
    if geometry == "exact":
        result = refine(result, dataset_a, dataset_b, epsilon, backend)
    return result


def refine(
    result: JoinResult,
    side_a,
    side_b,
    epsilon: float,
    backend: str | None = None,
) -> JoinResult:
    """Refine a filter result's MBR candidates against exact shapes.

    ``side_a`` / ``side_b`` hold the original extents: a
    :class:`~repro.datasets.base.Dataset` refines against its cached
    refine view, an object list gets a fresh one, and a
    :class:`~repro.geometry.columnar.CoordinateTable` of query MBRs
    refines as solid boxes numbered by their ids.  The refine time is
    added to ``join_seconds`` and ``total_seconds`` and recorded as
    ``extra["refine_seconds"]``; ``result_pairs`` counts the kept pairs
    and ``parameters["geometry"]`` reads ``"exact"``.
    """
    from repro.refine import RefinePipeline

    if isinstance(side_b, CoordinateTable):
        side_b = side_b.to_objects()
    stats = result.stats
    start = time.perf_counter()
    refined = RefinePipeline(epsilon, backend=backend or "auto").refine(
        result.pair_arrays(), side_a, side_b, stats=stats
    )
    refine_seconds = time.perf_counter() - start
    stats.join_seconds += refine_seconds
    stats.total_seconds += refine_seconds
    stats.extra["refine_seconds"] = refine_seconds
    stats.result_pairs = len(refined.a)
    return JoinResult(
        result.algorithm, refined, stats, {**result.parameters, "geometry": "exact"}
    )
