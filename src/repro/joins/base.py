"""Common interface of every spatial join algorithm in the library.

All algorithms — the two in-memory baselines (nested loop, plane sweep),
the four disk-era baselines used in memory (PBSM, S3, indexed nested loop,
synchronous R-Tree traversal) and TOUCH itself — implement
:class:`SpatialJoinAlgorithm` and produce a :class:`JoinResult` holding
the intersecting ``(oid_a, oid_b)`` pairs plus a full
:class:`~repro.stats.counters.JoinStatistics`.

The contract, enforced by the test suite for every algorithm:

- **complete**: every intersecting pair is reported;
- **sound**: every reported pair intersects;
- **duplicate-free**: each pair appears exactly once.

Besides the one-shot :meth:`SpatialJoinAlgorithm.join`, every algorithm
exposes an explicit **build/probe lifecycle** for build-once/probe-many
workloads (the query service in :mod:`repro.service`):
:meth:`~SpatialJoinAlgorithm.prepare` builds the data structures over
the build dataset once and returns an opaque :class:`BuiltIndex`;
:meth:`~SpatialJoinAlgorithm.probe` joins a probe dataset (or a raw
:class:`~repro.geometry.columnar.CoordinateTable` of query MBRs) against
it without rebuilding.  Algorithms that override the ``_build`` /
``_probe`` hooks reuse their index across probes
(:meth:`~SpatialJoinAlgorithm.supports_prepare` is true); the rest fall
back to re-running the full join per probe, so the lifecycle is uniform
across the registry.  Probes never mutate the built index, which makes
concurrent probes from multiple threads safe.
"""

from __future__ import annotations

import abc
import time
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.geometry.columnar import CoordinateTable
from repro.geometry.objects import SpatialObject
from repro.stats.counters import JoinStatistics

__all__ = ["JoinResult", "PairArrays", "SpatialJoinAlgorithm", "BuiltIndex", "Pair"]

Pair = tuple[int, int]


class BuiltIndex:
    """Opaque handle to a prepared build-side index.

    Produced by :meth:`SpatialJoinAlgorithm.prepare` and consumed by
    :meth:`SpatialJoinAlgorithm.probe`.  ``payload`` is algorithm-private
    state (a TOUCH tree, grid entry arrays, an R-Tree, or — for the
    build-per-probe fallback — simply the retained build objects);
    callers must treat it as opaque.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that built the index; probing with a
        differently-named algorithm raises.
    parameters:
        ``describe()`` of the building algorithm at build time.
    n_build:
        Number of objects indexed.
    reusable:
        ``True`` when the structures are genuinely reused across probes;
        ``False`` for the rebuild-per-probe fallback.
    build_seconds / build_stats:
        Wall-clock spent building and the statistics collected.
    """

    __slots__ = (
        "algorithm",
        "parameters",
        "payload",
        "n_build",
        "reusable",
        "build_seconds",
        "build_stats",
    )

    def __init__(
        self,
        algorithm: str,
        parameters: dict,
        payload: object,
        n_build: int,
        reusable: bool,
        build_seconds: float,
        build_stats: JoinStatistics,
    ) -> None:
        self.algorithm = algorithm
        self.parameters = parameters
        self.payload = payload
        self.n_build = n_build
        self.reusable = reusable
        self.build_seconds = build_seconds
        self.build_stats = build_stats

    def __repr__(self) -> str:
        kind = "reusable" if self.reusable else "rebuild-per-probe"
        return (
            f"BuiltIndex({self.algorithm}, n_build={self.n_build}, {kind}, "
            f"build_seconds={self.build_seconds:.4f})"
        )


class PairArrays(NamedTuple):
    """Result pairs as two parallel int64 oid arrays: pair ``i`` is
    ``(a[i], b[i])``."""

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def empty(cls) -> "PairArrays":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs: "Sequence[Pair]") -> "PairArrays":
        """The arrays of a list of ``(oid_a, oid_b)`` tuples."""
        flat = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(flat[:, 0].copy(), flat[:, 1].copy())


class JoinResult:
    """Outcome of a spatial join: result pairs plus statistics.

    ``pairs`` is given as a list of ``(oid_a, oid_b)`` tuples or as a
    :class:`PairArrays`.  Array-held pairs become the tuple list on the
    first read of :attr:`pairs`, once; callers that only count them
    (``len(result)``) never pay for the tuples.
    """

    __slots__ = ("algorithm", "stats", "parameters", "_pairs", "_arrays")

    def __init__(
        self,
        algorithm: str,
        pairs: "list[Pair] | PairArrays",
        stats: JoinStatistics,
        parameters: dict | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.pairs = pairs
        self.stats = stats
        self.parameters = parameters or {}

    @property
    def pairs(self) -> list[Pair]:
        """The pairs as a list of ``(oid_a, oid_b)`` tuples."""
        if self._pairs is None:
            a, b = self._arrays
            self._pairs = list(zip(a.tolist(), b.tolist()))
            # The list is now the one copy callers may touch.
            self._arrays = None
        return self._pairs

    @pairs.setter
    def pairs(self, pairs: "list[Pair] | PairArrays") -> None:
        if isinstance(pairs, PairArrays):
            self._pairs, self._arrays = None, pairs
        else:
            self._pairs, self._arrays = pairs, None

    def pair_arrays(self) -> PairArrays:
        """The pairs as :class:`PairArrays`, building no tuples when the
        result holds arrays."""
        if self._arrays is not None:
            return self._arrays
        return PairArrays.from_pairs(self._pairs)

    def __len__(self) -> int:
        if self._arrays is not None:
            return len(self._arrays.a)
        return len(self._pairs)

    def __repr__(self) -> str:
        return (
            f"JoinResult({self.algorithm}, pairs={len(self)}, "
            f"comparisons={self.stats.comparisons})"
        )

    def pair_set(self) -> frozenset[Pair]:
        """Canonical set view used for cross-algorithm validation."""
        return frozenset(self.pairs)

    def sorted_pairs(self) -> list[Pair]:
        """Pairs in deterministic order."""
        return sorted(self.pairs)

    def selectivity(self, n_a: int, n_b: int) -> float:
        """Join selectivity per the paper's Equation 1."""
        if n_a == 0 or n_b == 0:
            return 0.0
        return len(self) / (n_a * n_b)


class SpatialJoinAlgorithm(abc.ABC):
    """Template for a two-way spatial intersection join.

    Subclasses implement :meth:`_execute`; :meth:`join` wraps it with
    end-to-end timing (the paper includes index-building time in every
    reported execution time) and fills in the result-pair count.
    """

    #: Registry / display name, e.g. ``"TOUCH"`` or ``"PBSM"``.
    name: ClassVar[str] = "abstract"

    def join(
        self,
        dataset_a: Sequence[SpatialObject],
        dataset_b: Sequence[SpatialObject],
    ) -> JoinResult:
        """Join two datasets and return pairs plus statistics.

        When the algorithm runs on tables (:meth:`runs_on_tables`) and
        both inputs are :class:`~repro.datasets.base.Dataset`\\ s, their
        coordinate tables go to :meth:`_execute_table` — without copying
        for table-backed datasets, and with no object built.  Every
        other input is joined as objects by :meth:`_execute`.
        """
        stats = JoinStatistics()
        start = time.perf_counter()
        if (
            self.runs_on_tables()
            and isinstance(dataset_a, Dataset)
            and isinstance(dataset_b, Dataset)
        ):
            pairs = self._execute_table(
                dataset_a.to_table(), dataset_b.to_table(), stats
            )
        else:
            pairs = self._execute(list(dataset_a), list(dataset_b), stats)
        stats.total_seconds = time.perf_counter() - start
        result = JoinResult(self.name, pairs, stats, self.describe())
        stats.result_pairs = len(result)
        return result

    @abc.abstractmethod
    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> "list[Pair] | PairArrays":
        """Produce the duplicate-free intersecting oid pairs."""

    def runs_on_tables(self) -> bool:
        """Whether :meth:`join` hands Dataset inputs to :meth:`_execute_table`.

        ``False`` by default: the algorithm joins objects.
        """
        return False

    def _execute_table(
        self,
        table_a: CoordinateTable,
        table_b: CoordinateTable,
        stats: JoinStatistics,
    ) -> "list[Pair] | PairArrays":
        """Hook: the join over two coordinate tables.

        Only called when :meth:`runs_on_tables` is true.
        """
        raise NotImplementedError  # pragma: no cover - guarded by join()

    # -- build/probe lifecycle -----------------------------------------
    @classmethod
    def supports_prepare(cls) -> bool:
        """Whether :meth:`prepare` builds structures reused across probes.

        ``False`` means the generic fallback is in effect: ``prepare``
        retains the build dataset and every probe re-runs the full join.
        """
        return cls._build is not SpatialJoinAlgorithm._build

    def prepare(self, dataset_a: Sequence[SpatialObject]) -> BuiltIndex:
        """Build the algorithm's index over the build dataset once.

        The returned :class:`BuiltIndex` can be probed any number of
        times — including concurrently from multiple threads — with
        :meth:`probe`; probing never mutates it.  Per the paper's
        ε-reduction, callers join *distance* queries by inflating the
        build dataset before preparing (exactly what
        :class:`repro.service.SpatialQueryService` does).
        """
        objects = list(dataset_a)
        stats = JoinStatistics()
        start = time.perf_counter()
        payload = self._build(objects, stats)
        elapsed = time.perf_counter() - start
        stats.build_seconds = elapsed
        stats.total_seconds = elapsed
        return BuiltIndex(
            algorithm=self.name,
            parameters=self.describe(),
            payload=payload,
            n_build=len(objects),
            reusable=self.supports_prepare(),
            build_seconds=elapsed,
            build_stats=stats,
        )

    def probe(
        self,
        built: BuiltIndex,
        queries: "Sequence[SpatialObject] | CoordinateTable",
    ) -> JoinResult:
        """Join a probe dataset against a prepared index.

        ``queries`` is a sequence of objects or a raw
        :class:`~repro.geometry.columnar.CoordinateTable` of query MBRs;
        tables flow straight into the batched columnar kernels when the
        algorithm implements ``_probe_table`` (the service's vectorised
        MBR-batch path) and are materialised into objects otherwise.
        Result pairs are ``(build oid, probe oid)``; for raw tables the
        probe oid is the table's ``ids`` entry (row index by default).
        """
        if built.algorithm != self.name:
            raise ValueError(
                f"index was prepared by {built.algorithm!r}, cannot probe "
                f"with {self.name!r}"
            )
        stats = JoinStatistics()
        start = time.perf_counter()
        if isinstance(queries, CoordinateTable):
            if type(self)._probe_table is not SpatialJoinAlgorithm._probe_table:
                pairs = self._probe_table(built.payload, queries, stats)
            else:
                pairs = self._probe(built.payload, queries.to_objects(), stats)
        else:
            pairs = self._probe(built.payload, list(queries), stats)
        stats.total_seconds = time.perf_counter() - start
        parameters = {**self.describe(), "lifecycle": "probe", "n_build": built.n_build}
        result = JoinResult(self.name, pairs, stats, parameters)
        stats.result_pairs = len(result)
        return result

    def _build(self, objects_a: list[SpatialObject], stats: JoinStatistics) -> object:
        """Hook: build the reusable index payload over dataset A.

        The default implementation retains the objects themselves — the
        build-per-probe fallback for algorithms without a split
        lifecycle.  Overriding this (and ``_probe``) opts an algorithm
        into genuine index reuse.
        """
        return objects_a

    def _probe(
        self,
        payload: object,
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Hook: join probe objects against a built payload.

        Default (fallback) behaviour re-runs the full join, rebuilding
        every structure — correct for every algorithm, amortising
        nothing.
        """
        return self._execute(list(payload), objects_b, stats)

    def _probe_table(
        self,
        payload: object,
        table_b: CoordinateTable,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Hook: columnar fast path joining a coordinate table directly.

        Only consulted when overridden; the base :meth:`probe`
        materialises tables into objects otherwise.
        """
        raise NotImplementedError  # pragma: no cover - guarded by probe()

    def estimate_bytes(self, n_a: int, n_b: int, dim: int) -> int:
        """Predicted resident footprint of joining ``n_a`` × ``n_b`` boxes.

        Priced with the analytic model of :mod:`repro.stats.memory` plus
        the real columnar-table payload, *before* any data structure is
        built — this is what the memory governor (:mod:`repro.memory`)
        consults to decide whether a partition fits the budget or must
        spill.  The default covers the structure every algorithm holds:
        both coordinate tables plus one object record per box.  Index
        algorithms override this to add their tree / grid cost.
        """
        from repro.stats.memory import columnar_table_bytes, object_record_bytes

        return (
            columnar_table_bytes(n_a, dim)
            + columnar_table_bytes(n_b, dim)
            + (n_a + n_b) * object_record_bytes(dim)
        )

    def describe(self) -> dict:
        """Algorithm parameters, for reports.  Subclasses extend this."""
        return {}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.describe().items())
        return f"{type(self).__name__}({params})"


def dimensionality(
    objects_a: Sequence[SpatialObject], objects_b: Sequence[SpatialObject]
) -> int:
    """Common dimensionality of two (possibly empty) datasets."""
    if objects_a:
        return objects_a[0].mbr.dim
    if objects_b:
        return objects_b[0].mbr.dim
    return 0
