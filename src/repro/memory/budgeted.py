"""Memory-budgeted spatial join with partition spilling.

TOUCH is an *in-memory* join; PR 5-7 grew it into a long-lived serving
tier, still assuming both datasets (and every replica) fit in RAM.
:class:`BudgetedSpatialJoin` removes that assumption: given a byte
budget, it joins datasets whose priced footprint exceeds the budget by
decomposing the universe into tiles, keeping as many tiles resident as
the budget allows and spilling the rest to disk as ``.npy`` row-slices,
mirroring the AsterixDB build/probe spill lifecycle (``spilledStatus``
bookkeeping, ``freeMem`` accounting, unspill-on-close):

1. **Partition & price.**  The universe is decomposed exactly as the
   parallel engine does (:mod:`repro.parallel.decompose`), so the
   boundary-ownership rule guarantees a duplicate-free merge.  Each
   partition is priced with the base algorithm's ``estimate_bytes``.
2. **Admit or spill.**  Partitions charge the
   :class:`~repro.memory.budget.MemoryBudget` first-fit; whatever does
   not fit is written to a :class:`~repro.memory.spill.SpillStore` and
   its member lists are dropped.
3. **Resident pass.**  Resident partitions join first, releasing their
   charge as each local join closes.
4. **Unspill-on-close.**  With the build side shrunk, spilled
   partitions are pulled back in passes: each pass admits every
   partition that now fits (an *unspill*), joins it, and releases it.
5. **Recursive repartitioning.**  A skewed partition that exceeds the
   whole budget on its own is re-decomposed by a nested budgeted join
   over its members (bounded depth), so heavy tiles degrade to more,
   smaller spills instead of blowing the budget.

Pair parity with the unbudgeted algorithm is exact: every partition
join is complete and sound for its members, and the reference-point
ownership filter keeps each pair exactly once — the same argument the
parallel parity suite proves for
:class:`~repro.parallel.engine.ParallelChunkedJoin`.

Spill activity is recorded in ``stats.extra`` (see
:data:`~repro.memory.budget.SPILL_COUNTER_KEYS`) and, when a shared
:class:`~repro.memory.budget.SpillMetrics` is attached, aggregated into
the owning service's ``stats()``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.geometry.mbr import total_mbr
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, SpatialJoinAlgorithm, dimensionality
from repro.joins.registry import AlgorithmSpec
from repro.memory.budget import MemoryBudget, SpillMetrics, validate_max_bytes
from repro.memory.spill import SpilledPartition, SpillStore
from repro.parallel.decompose import Decomposition
from repro.stats.counters import JoinStatistics

__all__ = ["BudgetedSpatialJoin"]

#: Upper bound on partitions per decomposition level; recursion splits
#: further when a single level cannot isolate the skew.
MAX_SPILL_PARTITIONS = 64
#: Recursion bound for skewed partitions that refuse to shrink (e.g.
#: every box stacked on one point).  At the bound the partition joins
#: in one piece and the overrun is counted instead.
MAX_REPARTITION_DEPTH = 3


class BudgetedSpatialJoin(SpatialJoinAlgorithm):
    """Run any registered join under a byte budget, spilling partitions.

    Parameters
    ----------
    base:
        Registry name, :class:`~repro.joins.registry.AlgorithmSpec` or
        zero-argument factory for the underlying algorithm (a fresh
        instance joins every partition).
    max_bytes:
        The byte budget.  Joins whose priced footprint fits run the base
        algorithm unchanged (zero spill counters).
    kind / axis:
        Decomposition geometry, as in the parallel engine.
    spill_root:
        Directory under which the per-join spill directory is created
        (system temp dir by default).
    metrics:
        Optional shared :class:`~repro.memory.budget.SpillMetrics`;
        the service layer attaches its own to aggregate counters across
        probes.
    """

    name = "Budgeted"

    def __init__(
        self,
        base: "str | AlgorithmSpec | Callable[[], SpatialJoinAlgorithm]",
        max_bytes: int,
        *,
        kind: str = "tiles",
        axis: int = 0,
        spill_root: str | None = None,
        metrics: SpillMetrics | None = None,
        max_partitions: int = MAX_SPILL_PARTITIONS,
        max_depth: int = MAX_REPARTITION_DEPTH,
        _depth: int = 0,
    ) -> None:
        self.max_bytes = validate_max_bytes(max_bytes)
        if isinstance(base, str):
            base = AlgorithmSpec.create(base)
        self.base = base
        self.base_factory = base.make if isinstance(base, AlgorithmSpec) else base
        self.kind = kind
        self.axis = axis
        self.spill_root = spill_root
        self.metrics = metrics
        self.max_partitions = max_partitions
        self.max_depth = max_depth
        self._depth = _depth
        sample = self.base_factory()
        self.base_name = sample.name
        self.name = f"Budgeted[{sample.name}]"
        #: Spill directory of the most recent join — removed by the time
        #: the join returns; kept for the hygiene tests.
        self.last_spill_dir: str | None = None

    def describe(self) -> dict:
        return {
            "base": self.base_name,
            "max_bytes": self.max_bytes,
            "decompose": self.kind,
            "max_partitions": self.max_partitions,
        }

    def estimate_bytes(self, n_a: int, n_b: int, dim: int) -> int:
        return self.base_factory().estimate_bytes(n_a, n_b, dim)

    # -- engine --------------------------------------------------------
    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        counters = {key: 0 for key in (
            "spilled_partitions", "spill_bytes_written", "spill_bytes_read",
            "unspills", "spill_passes", "recursive_repartitions",
            "budget_overruns", "resident_partitions",
        )}
        stats.extra["budget_bytes"] = self.max_bytes
        stats.extra.update(counters)
        if not objects_a or not objects_b:
            return []

        pricer = self.base_factory()
        dim = dimensionality(objects_a, objects_b)
        estimated = pricer.estimate_bytes(len(objects_a), len(objects_b), dim)
        stats.extra["estimated_bytes"] = estimated
        if estimated <= self.max_bytes:
            result = self.base_factory().join(objects_a, objects_b)
            stats.merge(result.stats)
            return list(result.pairs)

        pairs = self._spilling_join(
            objects_a, objects_b, pricer, dim, estimated, stats, counters
        )
        stats.extra.update(counters)
        if self.metrics is not None and self._depth == 0:
            self.metrics.add(
                spilled_joins=1,
                **{key: counters[key] for key in counters if key != "resident_partitions"},
            )
        return pairs

    def _spilling_join(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        pricer: SpatialJoinAlgorithm,
        dim: int,
        estimated: int,
        stats: JoinStatistics,
        counters: dict[str, int],
    ) -> list[Pair]:
        # Oversplit by 2x: members of neighbouring tiles overlap
        # (straddlers replicate), so even splits still need headroom.
        n_parts = min(
            self.max_partitions,
            max(2, -(-2 * estimated // self.max_bytes)),
        )
        universe = total_mbr(o.mbr for o in objects_a).union(
            total_mbr(o.mbr for o in objects_b)
        )
        decomposition = Decomposition.build(
            universe, kind=self.kind, n_chunks=n_parts, axis=self.axis
        )
        stats.extra["spill_partitions_total"] = len(decomposition.regions)

        budget = MemoryBudget(self.max_bytes)
        store = SpillStore(root=self.spill_root)
        self.last_spill_dir = store.directory
        pairs: list[Pair] = []
        try:
            # Phase 1: admit first-fit, spill the rest.
            resident: list[tuple[int, list, list, int]] = []
            spilled: list[tuple[int, SpilledPartition]] = []
            for index, region in enumerate(decomposition.regions):
                chunk_a = decomposition.members(region, objects_a)
                chunk_b = decomposition.members(region, objects_b)
                if not chunk_a or not chunk_b:
                    continue
                cost = pricer.estimate_bytes(len(chunk_a), len(chunk_b), dim)
                if budget.fits(cost):
                    budget.charge(cost)
                    resident.append((index, chunk_a, chunk_b, cost))
                else:
                    part = store.write(index, chunk_a, chunk_b)
                    spilled.append((index, part))
                    del chunk_a, chunk_b
            counters["resident_partitions"] += len(resident)
            counters["spilled_partitions"] += len(spilled)
            counters["spill_bytes_written"] += store.bytes_written

            # Phase 2: join resident partitions, releasing as each closes.
            for index, chunk_a, chunk_b, cost in resident:
                pairs.extend(
                    self._join_partition(
                        decomposition, index, chunk_a, chunk_b, stats, counters
                    )
                )
                budget.release(cost)
            resident.clear()

            # Phase 3: unspill-on-close — pull spilled partitions back in
            # passes now that the resident charges are gone.
            queue = spilled
            while queue:
                counters["spill_passes"] += 1
                admitted: list[tuple[int, SpilledPartition, int]] = []
                deferred: list[tuple[int, SpilledPartition]] = []
                for index, part in queue:
                    cost = pricer.estimate_bytes(part.n_a, part.n_b, dim)
                    if budget.fits(cost):
                        budget.charge(cost)
                        admitted.append((index, part, cost))
                    else:
                        deferred.append((index, part))
                if not admitted:
                    # Head of the queue exceeds the whole (empty) budget:
                    # skewed partition — recursively repartition it.
                    index, part = deferred.pop(0)
                    chunk_a, chunk_b = store.read(part)
                    counters["spill_bytes_read"] += part.file_bytes
                    pairs.extend(
                        self._join_skewed(
                            decomposition, index, chunk_a, chunk_b, stats, counters
                        )
                    )
                    queue = deferred
                    continue
                for index, part, cost in admitted:
                    chunk_a, chunk_b = store.read(part)
                    counters["spill_bytes_read"] += part.file_bytes
                    counters["unspills"] += 1
                    pairs.extend(
                        self._join_partition(
                            decomposition, index, chunk_a, chunk_b, stats, counters
                        )
                    )
                    budget.release(cost)
                queue = deferred
        finally:
            store.close()
        stats.extra["budget_peak_bytes"] = budget.peak_bytes
        return pairs

    def _join_partition(
        self,
        decomposition: Decomposition,
        index: int,
        chunk_a: list[SpatialObject],
        chunk_b: list[SpatialObject],
        stats: JoinStatistics,
        counters: dict[str, int],
        algorithm: SpatialJoinAlgorithm | None = None,
    ) -> list[Pair]:
        """Join one partition and keep only the pairs this region owns."""
        start = time.perf_counter()
        result = (algorithm or self.base_factory()).join(chunk_a, chunk_b)
        stats.merge(result.stats)
        region = decomposition.regions[index]
        mbr_a = {o.oid: o.mbr for o in chunk_a}
        mbr_b = {o.oid: o.mbr for o in chunk_b}
        stats.dedup_checks += len(result.pairs)
        owned = [
            (oid_a, oid_b)
            for oid_a, oid_b in result.pairs
            if decomposition.owns(region, mbr_a[oid_a], mbr_b[oid_b])
        ]
        stats.duplicates_suppressed += len(result.pairs) - len(owned)
        stats.extra["partition_join_seconds"] = stats.extra.get(
            "partition_join_seconds", 0.0
        ) + (time.perf_counter() - start)
        return owned

    def _join_skewed(
        self,
        decomposition: Decomposition,
        index: int,
        chunk_a: list[SpatialObject],
        chunk_b: list[SpatialObject],
        stats: JoinStatistics,
        counters: dict[str, int],
    ) -> list[Pair]:
        """A partition bigger than the whole budget: recurse or overrun."""
        if self._depth >= self.max_depth:
            counters["budget_overruns"] += 1
            return self._join_partition(
                decomposition, index, chunk_a, chunk_b, stats, counters
            )
        counters["recursive_repartitions"] += 1
        nested = BudgetedSpatialJoin(
            self.base,
            self.max_bytes,
            kind=self.kind,
            axis=self.axis,
            spill_root=self.spill_root,
            metrics=None,  # parent folds the nested counters in below
            max_partitions=self.max_partitions,
            max_depth=self.max_depth,
            _depth=self._depth + 1,
        )
        result = nested.join(chunk_a, chunk_b)
        stats.merge(result.stats)
        for key in counters:
            counters[key] += int(result.stats.extra.get(key, 0))
        # The nested join is complete and duplicate-free for the members;
        # the parent region's ownership filter dedups the straddlers.
        region = decomposition.regions[index]
        mbr_a = {o.oid: o.mbr for o in chunk_a}
        mbr_b = {o.oid: o.mbr for o in chunk_b}
        stats.dedup_checks += len(result.pairs)
        owned = [
            (oid_a, oid_b)
            for oid_a, oid_b in result.pairs
            if decomposition.owns(region, mbr_a[oid_a], mbr_b[oid_b])
        ]
        stats.duplicates_suppressed += len(result.pairs) - len(owned)
        return owned
    # NOTE: phase-3 recursion happens with the parent budget drained, so
    # the nested join sees the full budget — skew degrades to more,
    # smaller spills rather than an unbounded resident set.
