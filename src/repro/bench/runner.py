"""Single-join runner shared by the CLI harness and the pytest benches.

Runs one algorithm on one (A, B, ε) workload with the paper's conventions:
dataset A (the smaller / "first" dataset) is the build side and is
Minkowski-inflated by ε; index-construction time counts towards the total.
The outcome is a flat :class:`RunRecord` convenient for tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import execute
from repro.bench.config import RunOptions
from repro.datasets.base import Dataset
from repro.datasets.transform import inflate
from repro.joins.base import JoinResult

__all__ = ["RunRecord", "RunOptions", "run_algorithm", "explain"]


@dataclass
class RunRecord:
    """One algorithm × workload measurement."""

    algorithm: str
    dataset: str
    n_a: int
    n_b: int
    epsilon: float
    result_pairs: int
    comparisons: int
    node_tests: int
    filtered: int
    replicated_entries: int
    duplicates_suppressed: int
    dedup_checks: int
    memory_bytes: int
    build_seconds: float
    assign_seconds: float
    join_seconds: float
    total_seconds: float
    extra: dict = field(default_factory=dict)

    @property
    def selectivity(self) -> float:
        """Equation 1 of the paper."""
        if self.n_a == 0 or self.n_b == 0:
            return 0.0
        return self.result_pairs / (self.n_a * self.n_b)

    def as_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "epsilon": self.epsilon,
            "result_pairs": self.result_pairs,
            "selectivity": self.selectivity,
            "comparisons": self.comparisons,
            "node_tests": self.node_tests,
            "filtered": self.filtered,
            "replicated_entries": self.replicated_entries,
            "duplicates_suppressed": self.duplicates_suppressed,
            "dedup_checks": self.dedup_checks,
            "memory_bytes": self.memory_bytes,
            "build_seconds": self.build_seconds,
            "assign_seconds": self.assign_seconds,
            "join_seconds": self.join_seconds,
            "total_seconds": self.total_seconds,
        }
        out.update(self.extra)
        return out


def record_from_result(
    result: JoinResult,
    dataset_name: str,
    n_a: int,
    n_b: int,
    epsilon: float,
) -> RunRecord:
    """Flatten a :class:`JoinResult` into a :class:`RunRecord`.

    Refined results (``parameters["geometry"] == "exact"``) also carry
    the filter-refine accounting; only they do, which keeps
    ``geometry="mbr"`` records byte-identical to the filter alone.
    """
    stats = result.stats
    extra = {
        key: value
        for key, value in stats.extra.items()
        if isinstance(value, (int, float, str))
    }
    if result.parameters.get("geometry") == "exact":
        extra.update(
            geometry="exact",
            candidate_pairs=stats.candidate_pairs,
            false_hit_prunes=stats.false_hit_prunes,
            true_hits=stats.true_hits,
            exact_tests=stats.exact_tests,
            refined_pairs=stats.refined_pairs,
        )
    return RunRecord(
        algorithm=result.algorithm,
        dataset=dataset_name,
        n_a=n_a,
        n_b=n_b,
        epsilon=epsilon,
        result_pairs=stats.result_pairs,
        comparisons=stats.comparisons,
        node_tests=stats.node_tests,
        filtered=stats.filtered,
        replicated_entries=stats.replicated_entries,
        duplicates_suppressed=stats.duplicates_suppressed,
        dedup_checks=stats.dedup_checks,
        memory_bytes=stats.memory_bytes,
        build_seconds=stats.build_seconds,
        assign_seconds=stats.assign_seconds,
        join_seconds=stats.join_seconds,
        total_seconds=stats.total_seconds,
        extra=extra,
    )


def _check_shapes(dataset) -> None:
    """Fail fast when ``geometry="exact"`` meets an MBR-only dataset."""
    if isinstance(dataset, Dataset) and not dataset.has_shapes:
        from repro.refine import MissingShapesError

        raise MissingShapesError(dataset.name)


def _service(reuse_index):
    """The query service a truthy ``reuse_index`` option names."""
    # Imported lazily, like the parallel engine.
    from repro.service import SpatialQueryService, default_service

    if isinstance(reuse_index, SpatialQueryService):
        return reuse_index
    return default_service()


def explain(
    algorithm_name: str,
    dataset_a: Dataset | Sequence,
    dataset_b: Dataset | Sequence,
    epsilon: float,
    options: RunOptions | None = None,
    **algorithm_overrides,
):
    """The :class:`~repro.optimizer.plan.Plan` for a join, without running it.

    Mirrors :func:`run_algorithm`'s resolution exactly — ``options``
    over :meth:`RunOptions.from_env`, the same service hand-off under
    ``reuse_index`` — so the returned plan equals the one an actual
    ``run_algorithm("auto", ...)`` records in ``extra["plan"]``.
    ``algorithm_name="auto"`` lets the optimizer choose; a concrete
    registry name pins the algorithm but still scores every candidate.
    """
    resolved = (options or RunOptions()).over(RunOptions.from_env())
    if resolved.backend is not None and "backend" not in algorithm_overrides:
        algorithm_overrides = {**algorithm_overrides, "backend": resolved.backend}
    if resolved.reuse_index:
        return _service(resolved.reuse_index).explain(
            list(dataset_a),
            list(dataset_b),
            epsilon,
            algorithm=algorithm_name,
            max_bytes=resolved.max_bytes,
            geometry=resolved.geometry or "mbr",
            **algorithm_overrides,
        )
    return execute.plan(
        algorithm_name, dataset_a, dataset_b, epsilon,
        RunOptions(backend=algorithm_overrides.get("backend")).over(resolved),
    )


def run_algorithm(
    algorithm_name: str,
    dataset_a: Dataset | Sequence,
    dataset_b: Dataset | Sequence,
    epsilon: float,
    options: RunOptions | None = None,
    **algorithm_overrides,
) -> RunRecord:
    """Execute one distance join per the paper's methodology.

    The build side A is inflated by ε (the ε-reduction of §4); the probe
    side B is joined as is.  ``algorithm_overrides`` are forwarded to the
    registry factory (e.g. ``fanout=8`` for the fanout sweep).

    Execution is selected by one :class:`~repro.bench.config.RunOptions`
    resolved across two layers: the fields set on ``options`` win, and
    every field left ``None`` falls back to the ``REPRO_*`` environment
    (:meth:`RunOptions.from_env`), then to the engine default:

    - ``options.workers``: ``0`` forces sequential execution; ``>= 1``
      runs the algorithm through the multiprocess
      :class:`~repro.parallel.engine.ParallelChunkedJoin` over an
      ``options.decompose`` (``slabs`` | ``tiles``) cutting;
    - ``options.backend`` feeds backend-aware algorithms unless the call
      passes its own ``backend=`` override;
    - ``options.reuse_index`` routes the join through the
      build-once/probe-many query service instead: ``True`` for the
      process-wide :func:`repro.service.default_service` or a live
      :class:`~repro.service.SpatialQueryService`.  Repeated calls with
      the same (dataset A, algorithm, config, backend, ε) probe a
      cached index (``extra["cache"]`` reports ``"warm"`` / ``"cold"``);
      the multiprocess engine cannot be combined with it.

    The phases (plan, executor, refine) are those of
    :mod:`repro.execute`.
    """
    resolved = (options or RunOptions()).over(RunOptions.from_env())
    plan = None
    if algorithm_name == "auto" and not resolved.reuse_index:
        # The reuse_index path plans inside the query service instead
        # (the service owns the fingerprints and pins sequential probes).
        plan = execute.plan(
            algorithm_name, dataset_a, dataset_b, epsilon,
            RunOptions(backend=algorithm_overrides.get("backend")).over(resolved),
        )
        algorithm_name = plan.algorithm
        if "backend" not in algorithm_overrides:
            algorithm_overrides = {**algorithm_overrides, "backend": plan.backend}
        resolved = RunOptions(
            workers=plan.workers, decompose=plan.decompose
        ).over(resolved)
    if resolved.backend is not None and "backend" not in algorithm_overrides:
        algorithm_overrides = {**algorithm_overrides, "backend": resolved.backend}
    exact = (resolved.geometry or "mbr") == "exact"
    if exact:
        _check_shapes(dataset_a)
        _check_shapes(dataset_b)
    dataset_name = dataset_a.name if isinstance(dataset_a, Dataset) else "adhoc"
    n_a, n_b = len(dataset_a), len(dataset_b)
    if resolved.reuse_index:
        if resolved.workers:
            raise ValueError(
                "reuse_index joins run through the in-process query service "
                "and cannot be combined with the multiprocess engine "
                f"(workers={resolved.workers})"
            )
        # Both sides go as given: a Dataset keeps its cached refine
        # view for exact probes.
        result = _service(resolved.reuse_index).probe(
            dataset_a,
            dataset_b,
            epsilon,
            algorithm=algorithm_name,
            max_bytes=resolved.max_bytes,
            geometry=resolved.geometry or "mbr",
            **algorithm_overrides,
        )
    else:
        algorithm = execute.executor(
            algorithm_name,
            algorithm_overrides,
            workers=resolved.workers,
            decompose=resolved.decompose,
            max_bytes=resolved.max_bytes,
        )
        if exact and not isinstance(dataset_a, Dataset):
            # Refine reads each side's cached view, which Datasets own.
            dataset_a = Dataset(dataset_a, name="adhoc")
        if exact and not isinstance(dataset_b, Dataset):
            dataset_b = Dataset(dataset_b, name="adhoc")
        # The one-shot steps of execute.join, with the inflate called
        # through this module so that ``runner.inflate`` stays the
        # entry that times the ε-reduction.
        result = algorithm.join(inflate(dataset_a, epsilon), dataset_b)
        if exact:
            # Every execution path, the multiprocess engine included,
            # returns MBR candidates; they are refined here once, against
            # the original (never inflated) datasets.
            result = execute.refine(
                result, dataset_a, dataset_b, epsilon, resolved.backend
            )
        if plan is not None:
            result.stats.extra["plan"] = plan.as_dict()
    record = record_from_result(result, dataset_name, n_a, n_b, epsilon)
    if resolved.reuse_index:
        record.extra["cache"] = result.parameters.get("cache", "")
        record.extra["index_build_seconds"] = result.parameters.get(
            "build_seconds", 0.0
        )
    if "plan" in result.stats.extra:
        # The plan is a nested dict, which the scalar filter in
        # record_from_result drops; restore it.
        record.extra["plan"] = result.stats.extra["plan"]
    return record

