"""Repeated-query workload driver: the serve loop behind CLI + bench.

Slices a probe dataset into query batches and plays them against a
:class:`~repro.service.service.SpatialQueryService` — one cold build,
many warm probes — optionally racing the same batches through
rebuild-per-query one-shot joins with hard pair-set parity assertions.
Shared by the ``repro-touch serve`` subcommand and the
``repeated_probe`` benchmark experiment so both report the same numbers.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import execute
from repro.datasets.base import Dataset
from repro.geometry.objects import SpatialObject
from repro.joins.registry import make_algorithm
from repro.service.service import SpatialQueryService

__all__ = ["probe_batches", "run_serve_workload"]


def probe_batches(
    objects: Sequence[SpatialObject], probes: int, batch: int | None = None
) -> list[list[SpatialObject]]:
    """Cut a probe dataset into ``probes`` non-empty query batches.

    ``batch`` defaults to an even split; batches wrap around the dataset
    when ``probes * batch`` exceeds it, so every batch carries work.
    """
    objects = list(objects)
    if not objects:
        raise ValueError("cannot build probe batches from an empty dataset")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    n = len(objects)
    if batch is None:
        batch = max(1, n // probes)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    out = []
    for i in range(probes):
        start = (i * batch) % n
        chunk = objects[start : start + batch]
        if len(chunk) < batch:
            chunk = chunk + objects[: batch - len(chunk)]
        out.append(chunk)
    return out


def run_serve_workload(
    dataset_a: Sequence[SpatialObject],
    dataset_b: Sequence[SpatialObject],
    epsilon: float,
    algorithm: str = "TOUCH",
    probes: int = 100,
    batch: int | None = None,
    compare_rebuild: bool = False,
    service: SpatialQueryService | None = None,
    geometry: str | None = None,
    **config,
) -> dict:
    """Play a build-once/probe-many workload; return a flat summary.

    The service path registers ``dataset_a``, then issues one query per
    batch of ``dataset_b`` (first one cold — it builds the index — the
    rest warm).  With ``compare_rebuild=True`` the identical batches are
    also joined by fresh one-shot algorithm instances (index rebuilt per
    query, the pre-service execution shape) and every batch's pair set
    is **asserted identical** between the two paths — the sequential
    path is the ground truth, so the speedup is only reported when it
    cannot have come from dropping pairs.

    ``geometry`` is an explicit parameter (not part of ``**config``)
    because the rebuild path forwards ``config`` verbatim to
    :func:`~repro.joins.registry.make_algorithm`, which owns no such
    knob; with ``geometry="exact"`` each rebuild join refines through
    :func:`repro.execute.join` against the original ``dataset_a``, so
    the parity assertion compares exact against exact.
    """
    service = service or SpatialQueryService(capacity=4)
    service.register("build", dataset_a)
    batches = probe_batches(dataset_b, probes, batch)

    served = []
    serve_start = time.perf_counter()
    for chunk in batches:
        served.append(
            service.query(
                "build",
                chunk,
                epsilon,
                algorithm=algorithm,
                geometry=geometry,
                **config,
            )
        )
    serve_seconds = time.perf_counter() - serve_start

    cold = sum(1 for r in served if r.parameters.get("cache") == "cold")
    summary = {
        "algorithm": served[0].algorithm,
        "n_build": len(dataset_a),
        "n_probe_total": sum(len(chunk) for chunk in batches),
        "probes": len(batches),
        "batch": len(batches[0]),
        "epsilon": epsilon,
        "result_pairs": sum(len(r) for r in served),
        "comparisons": sum(r.stats.comparisons for r in served),
        "serve_seconds": serve_seconds,
        "build_seconds": served[0].parameters.get("build_seconds", 0.0),
        "cold_queries": cold,
        "warm_queries": len(served) - cold,
        "service_stats": service.stats(),
    }

    if compare_rebuild:
        # The reference joins need a concrete registry name; when the
        # service resolved ``"auto"`` per batch, rebuild with its first
        # choice — parity is pair-set equality, which every correct
        # variant satisfies regardless of which one the optimizer picked.
        rebuild_algorithm = (
            served[0].algorithm if algorithm == "auto" else algorithm
        )
        # One Dataset for every batch, so an exact refine builds A's
        # view once.
        source = (
            dataset_a
            if isinstance(dataset_a, Dataset)
            else Dataset(list(dataset_a), name="build")
        )
        rebuild_start = time.perf_counter()
        rebuild_results = [
            execute.join(
                make_algorithm(rebuild_algorithm, **config),
                source,
                chunk,
                epsilon,
                geometry=geometry,
                backend=config.get("backend"),
            )
            for chunk in batches
        ]
        rebuild_seconds = time.perf_counter() - rebuild_start
        for index, (cached, fresh) in enumerate(zip(served, rebuild_results)):
            if cached.pair_set() != fresh.pair_set():
                missing = len(fresh.pair_set() - cached.pair_set())
                spurious = len(cached.pair_set() - fresh.pair_set())
                raise AssertionError(
                    f"{summary['algorithm']} probe batch {index} diverges from "
                    f"the rebuild-per-query join: {missing} missing, "
                    f"{spurious} spurious"
                )
        summary["rebuild_seconds"] = rebuild_seconds
        summary["rebuild_pairs"] = sum(len(r) for r in rebuild_results)
        summary["rebuild_comparisons"] = sum(
            r.stats.comparisons for r in rebuild_results
        )
        summary["speedup"] = (
            rebuild_seconds / serve_seconds if serve_seconds > 0 else float("inf")
        )
        summary["parity"] = True
    return summary
