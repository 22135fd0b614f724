"""The build-once/probe-many spatial query service.

:class:`SpatialQueryService` turns the library's batch reproduction into
a servable engine: datasets are registered once under a name, the first
query against a (dataset, algorithm, config, backend, ε) combination
builds the algorithm's index through the
:meth:`~repro.joins.base.SpatialJoinAlgorithm.prepare` lifecycle and
caches it in a thread-safe LRU, and every further query probes the warm
index without rebuilding — the shape TOUCH's hierarchy was designed for
(build over one dataset, probe with the other, PAPER.md §3).

Queries accept a probe dataset (any object sequence) or a raw batch of
MBRs, which flows through the vectorised columnar probe kernels without
materialising objects.  Concurrent queries from multiple threads are
safe: probes never mutate a built index, and racing cold queries build
each index exactly once.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro import execute
from repro.bench.config import GEOMETRY_MODES, RunOptions
from repro.datasets.base import Dataset
from repro.datasets.transform import inflate
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, check_epsilon
from repro.geometry.objects import SpatialObject
from repro.joins.base import JoinResult, dimensionality
from repro.joins.registry import make_algorithm
from repro.memory.budget import SpillMetrics, validate_max_bytes
from repro.service.cache import IndexCache, IndexKey
from repro.service.fingerprint import dataset_fingerprint

if TYPE_CHECKING:
    from repro.optimizer.plan import Plan

__all__ = [
    "ProbeQuery", "SpatialQueryService", "default_service", "reset_default_service",
]


class _Source:
    """A build side as the service holds it: its objects, their
    fingerprint and, from the first exact probe on, a :class:`Dataset`
    over them whose cached refine view every later exact probe reuses."""

    __slots__ = ("name", "objects", "fingerprint", "_dataset")

    def __init__(
        self, name: str, objects: list, fingerprint: str, dataset=None
    ) -> None:
        self.name = name
        self.objects = objects
        self.fingerprint = fingerprint
        # A caller's Dataset over the objects is used as is, cached view
        # and all.
        self._dataset: Dataset | None = dataset

    def refine_side(self) -> Dataset:
        """The objects as a :class:`Dataset`, made on first use."""
        if self._dataset is None:
            self._dataset = Dataset(self.objects, name=self.name)
        return self._dataset


class ProbeQuery(NamedTuple):
    """One probe's resolved arguments: what its filter and refine read."""

    source: _Source
    probe: "Dataset | list[SpatialObject] | CoordinateTable"
    epsilon: float
    algorithm: str
    config: dict
    geometry: str
    budget: int | None
    plan: "Plan | None" = None

    def make_plan(self) -> "Plan":
        """The optimizer's plan for this query.

        The service always probes sequentially, so ``workers`` is pinned
        to 0; ``reuse_index=True`` marks the index cache as in play.
        """
        return execute.plan(
            self.algorithm,
            self.source.objects,
            self.probe,
            self.epsilon,
            RunOptions(
                backend=self.config.get("backend"),
                workers=0,
                geometry=self.geometry,
                reuse_index=True,
                max_bytes=self.budget,
            ),
            fingerprint=self.source.fingerprint,
        )


class ProbeAliases:
    """``query`` and ``probe_mbrs``: historical spellings of ``probe``,
    shared by the single-process and the sharded service."""

    def query(
        self,
        dataset: "str | Sequence[SpatialObject]",
        probe: "Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "TOUCH",
        geometry: str | None = None,
        **config,
    ) -> JoinResult:
        """Alias for ``probe`` with a probe dataset (historical name)."""
        return self.probe(
            dataset, probe, epsilon, algorithm=algorithm, geometry=geometry, **config
        )

    def probe_mbrs(
        self,
        dataset: "str | Sequence[SpatialObject]",
        mbrs: Iterable[MBR],
        epsilon: float,
        algorithm: str = "TOUCH",
        geometry: str | None = None,
        **config,
    ) -> JoinResult:
        """Alias for ``probe`` with a raw MBR batch (historical name)."""
        boxes = list(mbrs)
        if not boxes:
            raise ValueError("probe_mbrs requires at least one query MBR")
        return self.probe(
            dataset, boxes, epsilon, algorithm=algorithm, geometry=geometry, **config
        )


class SpatialQueryService(ProbeAliases):
    """Named datasets + cached built indexes + probe APIs.

    Parameters
    ----------
    capacity:
        Maximum number of built indexes kept warm (LRU beyond it).
    backend:
        Default geometry backend forwarded to backend-aware algorithms
        (per-query ``backend=`` overrides win; ``None`` leaves each
        algorithm's own default).
    max_bytes:
        Optional byte budget.  Bounds the cache's resident index
        footprint *and* routes any probe whose priced footprint exceeds
        the budget through a
        :class:`~repro.memory.budgeted.BudgetedSpatialJoin`, which
        spills partitions to disk instead of holding everything
        resident.  Per-probe ``max_bytes=`` overrides win.
    """

    def __init__(
        self,
        capacity: int = 8,
        backend: str | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None:
            validate_max_bytes(max_bytes)
        self.cache = IndexCache(capacity=capacity, max_bytes=max_bytes)
        self.default_backend = backend
        self.max_bytes = max_bytes
        self._spill = SpillMetrics()
        self._datasets: dict[str, _Source] = {}
        self._lock = threading.Lock()
        self._queries = 0
        self._build_seconds = 0.0
        self._probe_seconds = 0.0

    # -- dataset registry ----------------------------------------------
    def register(self, name: str, dataset: Sequence[SpatialObject]) -> str:
        """Register (or replace) a named dataset; returns its fingerprint.

        The fingerprint is computed once here, so queries by name never
        pay the O(N) digest.
        """
        objects = list(dataset)
        fingerprint = dataset_fingerprint(objects)
        with self._lock:
            self._datasets[name] = _Source(name, objects, fingerprint)
        return fingerprint

    def datasets(self) -> dict[str, int]:
        """Registered dataset names and their cardinalities."""
        with self._lock:
            return {
                name: len(source.objects) for name, source in self._datasets.items()
            }

    def _source(self, dataset: "str | Sequence[SpatialObject]") -> _Source:
        if isinstance(dataset, str):
            with self._lock:
                try:
                    return self._datasets[dataset]
                except KeyError:
                    known = ", ".join(sorted(self._datasets)) or "(none)"
                    raise KeyError(
                        f"unknown dataset {dataset!r}; registered: {known}"
                    ) from None
        objects = list(dataset)
        return _Source(
            "dataset",
            objects,
            dataset_fingerprint(objects),
            dataset if isinstance(dataset, Dataset) else None,
        )

    # -- queries -------------------------------------------------------
    def probe(
        self,
        dataset: "str | Sequence[SpatialObject]",
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "TOUCH",
        max_bytes: int | None = None,
        geometry: str | None = None,
        **config,
    ) -> JoinResult:
        """Distance-join ``probe`` against a (cached) index over ``dataset``.

        The unified probe front door.  ``dataset`` is a registered name
        or an ad-hoc object sequence; ``probe`` is any of

        - a single :class:`~repro.geometry.mbr.MBR`,
        - a batch of MBRs (any iterable; dispatch looks at the first
          element, so don't mix MBRs and objects in one batch),
        - a probe dataset: an object sequence, a :class:`Dataset`, or a
          raw :class:`~repro.geometry.columnar.CoordinateTable`.

        MBR probes flow through the vectorised columnar probe kernels
        and their result pairs are
        ``(build oid, query position)`` with positions numbered 0..M-1
        in batch order; object probes pair ``(build oid, probe oid)``.

        Per the paper's ε-reduction the *build* side is inflated by
        ``epsilon`` before indexing, so each distinct ε keys its own
        index.  ``config`` is forwarded to the registry factory
        (``backend=...``, ``fanout=...``, ...).

        ``max_bytes`` (per-probe override of the service default) is
        the byte budget: an object probe whose priced footprint exceeds
        it skips the index cache and runs a spilling
        :class:`~repro.memory.budgeted.BudgetedSpatialJoin` instead.

        ``geometry="exact"`` refines the MBR candidates against the
        registered objects' exact shapes (MBR-only objects refine as
        solid boxes) before returning; exact and MBR probes key
        *different* cache entries, so switching modes never poisons the
        warm index of the other.  The default (``None``/``"mbr"``)
        returns MBR candidates exactly as before.

        ``algorithm="auto"`` routes the query through the adaptive
        optimizer (:mod:`repro.optimizer`): the chosen variant keys the
        index cache exactly as if it had been requested by name, and the
        decision is recorded in ``result.stats.extra["plan"]`` — the
        same :class:`~repro.optimizer.plan.Plan` that :meth:`explain`
        returns without executing.

        The returned :class:`~repro.joins.base.JoinResult` carries
        ``parameters["cache"]`` (``"warm"`` | ``"cold"`` | ``"spilled"``)
        and ``parameters["build_seconds"]`` of the underlying index.

        A probe is :meth:`resolve`, then :meth:`candidates`, then
        :meth:`refine`; the sharded tier runs the three itself, so its
        ownership filter comes between filter and refine.
        """
        query = self.resolve(
            dataset, probe, epsilon, algorithm, max_bytes, geometry, **config
        )
        return self.refine(query, self.candidates(query))

    def explain(
        self,
        dataset: "str | Sequence[SpatialObject]",
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "auto",
        max_bytes: int | None = None,
        geometry: str | None = None,
        **config,
    ) -> "Plan":
        """The :class:`~repro.optimizer.plan.Plan` a :meth:`probe` call
        with the same arguments would execute, without executing it.

        ``algorithm="auto"`` lets the optimizer choose; a concrete name
        pins the algorithm but still scores every candidate, so the plan
        shows what auto would have preferred.  The returned plan equals
        the one an actual ``probe(algorithm="auto")`` records in
        ``stats.extra["plan"]`` — both run through the same resolution.
        """
        query = self.resolve(
            dataset, probe, epsilon, algorithm, max_bytes, geometry, **config
        )
        return query.plan if query.plan is not None else query.make_plan()

    def resolve(
        self,
        dataset: "str | Sequence[SpatialObject]",
        probe: "MBR | Iterable[MBR] | Sequence[SpatialObject] | CoordinateTable",
        epsilon: float,
        algorithm: str = "TOUCH",
        max_bytes: int | None = None,
        geometry: str | None = None,
        **config,
    ) -> "ProbeQuery":
        """A :meth:`probe` call's arguments resolved, without running it.

        Normalises the probe payload (single MBR / MBR batch / object
        sequence), validates ε, geometry and the byte budget, resolves
        the dataset and folds the service-default backend into
        ``config``.  ``algorithm="auto"`` is planned here: the query
        carries the chosen variant, its backend (unless ``config`` names
        one) and the plan.  :meth:`explain` resolves the same way, so a
        plan explained and a plan executed never disagree on the inputs.
        """
        if isinstance(probe, MBR):
            probe = CoordinateTable.from_mbrs([probe])
        elif not isinstance(probe, (Dataset, CoordinateTable)):
            items = list(probe)
            if items and isinstance(items[0], MBR):
                probe = CoordinateTable.from_mbrs(items)
            else:
                probe = items
        epsilon = check_epsilon(epsilon)
        geometry = geometry or "mbr"
        if geometry not in GEOMETRY_MODES:
            raise ValueError(
                f"geometry must be one of {GEOMETRY_MODES}, got {geometry!r}"
            )
        if max_bytes is not None:
            validate_max_bytes(max_bytes)
        budget = max_bytes if max_bytes is not None else self.max_bytes
        source = self._source(dataset)
        if "backend" not in config and self.default_backend is not None:
            config = {**config, "backend": self.default_backend}
        query = ProbeQuery(source, probe, epsilon, algorithm, config, geometry, budget)
        if algorithm != "auto":
            return query
        plan = query.make_plan()
        if "backend" not in config:
            config = {**config, "backend": plan.backend}
        return query._replace(algorithm=plan.algorithm, config=config, plan=plan)

    def candidates(self, query: "ProbeQuery") -> JoinResult:
        """The filter phase of a probe: its MBR candidates.

        Probes the cached index over the ε-inflated build side, built on
        first use.  An object probe whose priced footprint exceeds the
        byte budget skips the cache: caching that index would defeat the
        budget, so it runs the one-shot join under the memory governor,
        whose spill counters feed the service-wide
        :class:`~repro.memory.budget.SpillMetrics`.
        """
        source, probe, epsilon = query.source, query.probe, query.epsilon
        algorithm, config, objects = query.algorithm, query.config, source.objects
        algo = make_algorithm(algorithm, **config)
        cold_build_seconds = 0.0
        if (
            query.budget is not None
            and not isinstance(probe, CoordinateTable)
            and objects
            and len(probe)
            and algo.estimate_bytes(
                len(objects), len(probe), dimensionality(objects, probe)
            ) > query.budget
        ):
            joiner = execute.executor(
                algorithm, config, max_bytes=query.budget, metrics=self._spill
            )
            start = time.perf_counter()
            result = execute.join(joiner, objects, probe, epsilon)
            parameters = {
                "cache": "spilled",
                "epsilon": epsilon,
                "max_bytes": query.budget,
                "spill_dir": joiner.last_spill_dir,
            }
        else:
            key = IndexKey.create(
                source.fingerprint,
                algorithm,
                config,
                config.get("backend"),
                epsilon,
                geometry=query.geometry,
            )
            built, warm = self.cache.get_or_build(
                key, lambda: algo.prepare(inflate(objects, epsilon))
            )
            if not warm:
                cold_build_seconds = built.build_seconds
            start = time.perf_counter()
            result = algo.probe(built, probe)
            parameters = {
                "cache": "warm" if warm else "cold",
                "build_seconds": built.build_seconds,
                "epsilon": epsilon,
            }
        probe_seconds = time.perf_counter() - start
        with self._lock:
            self._queries += 1
            self._probe_seconds += probe_seconds
            self._build_seconds += cold_build_seconds
        result.parameters = {**result.parameters, **parameters}
        if query.plan is not None:
            result.stats.extra["plan"] = query.plan.as_dict()
        return result

    def refine(self, query: "ProbeQuery", result: JoinResult) -> JoinResult:
        """The refine phase of a probe: ``result`` refined if it is exact.

        The build side is the *registered* objects — never the inflated
        copies the index was built from — so the exact predicate sees
        original extents; its refine view is cached with the
        registration, so a warm exact probe builds only the probe
        side's — and not even that when the probe is a
        :class:`Dataset`, whose own cached view is read.  MBR-batch
        probes (columnar tables) refine as position-numbered solid
        boxes, matching their pair numbering.  MBR queries return
        ``result`` as is.
        """
        if query.geometry != "exact":
            return result
        result = execute.refine(
            result,
            query.source.refine_side(),
            query.probe,
            query.epsilon,
            query.config.get("backend"),
        )
        with self._lock:
            self._probe_seconds += result.stats.extra["refine_seconds"]
        return result

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """Warm/cold counters, cache occupancy, spill activity, timings."""
        cache = self.cache.stats()
        spill = self._spill.snapshot()
        with self._lock:
            return {
                "queries": self._queries,
                "warm_hits": cache["hits"],
                "cold_builds": cache["misses"],
                "evictions": cache["evictions"],
                "cached_indexes": cache["size"],
                "capacity": cache["capacity"],
                "max_bytes": self.max_bytes,
                "resident_bytes": cache["resident_bytes"],
                "registered_datasets": len(self._datasets),
                "build_seconds": self._build_seconds,
                "probe_seconds": self._probe_seconds,
                **spill,
            }


#: Process-wide service used by
#: ``run_algorithm(options=RunOptions(reuse_index=True))``.
_DEFAULT: SpatialQueryService | None = None
_DEFAULT_LOCK = threading.Lock()


def default_service() -> SpatialQueryService:
    """The lazily-created process-wide service instance."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = SpatialQueryService()
        return _DEFAULT


def reset_default_service() -> None:
    """Drop the process-wide service (tests; releases cached indexes)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
