"""Nested loop join (NL) — the textbook O(|A|·|B|) baseline.

The paper keeps it in the evaluation "because it is broadly used (as part
of disk-based joins and otherwise)".  It needs no auxiliary structure, so
its memory footprint is essentially zero, and it doubles as the ground
truth for the correctness tests of every other algorithm.

Two backends share the exact pair semantics and comparison count
(|A| · |B|): the per-object Python loop and a columnar path that tests
whole blocks of pairs with one broadcasted numpy comparison — the
simplest showcase of the batch intersection primitive
(:func:`repro.geometry.columnar.intersect_pairs`).
"""

from __future__ import annotations

import time

from repro.geometry.columnar import (
    CoordinateTable,
    intersect_pairs,
    resolve_backend,
    validate_backend,
)
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, SpatialJoinAlgorithm
from repro.joins.local import nested_loop_kernel
from repro.stats.counters import JoinStatistics

__all__ = ["NestedLoopJoin"]


class NestedLoopJoin(SpatialJoinAlgorithm):
    """Compare every object of A with every object of B.

    Parameters
    ----------
    backend:
        ``"auto"`` (columnar), ``"object"`` or ``"columnar"``.  Pair list and comparison count are identical;
        only the execution strategy differs.
    """

    name = "NL"

    def __init__(self, backend: str = "auto") -> None:
        self.backend = validate_backend(backend)

    def describe(self) -> dict:
        return {"backend": self.backend}

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        backend = resolve_backend(self.backend)
        stats.extra["backend"] = backend
        join_start = time.perf_counter()
        if backend == "columnar" and objects_a and objects_b:
            table_a = CoordinateTable.from_objects(objects_a)
            table_b = CoordinateTable.from_objects(objects_b)
            idx_a, idx_b = intersect_pairs(table_a, table_b)
            stats.comparisons += len(objects_a) * len(objects_b)
            pairs = list(
                zip(table_a.ids[idx_a].tolist(), table_b.ids[idx_b].tolist())
            )
            # The object path builds nothing; the columnar path really
            # allocates the two coordinate tables — report them.
            table_bytes = table_a.nbytes + table_b.nbytes
            stats.extra["columnar_table_bytes"] = table_bytes
            stats.memory_bytes = table_bytes
        else:
            pairs = []
            nested_loop_kernel(
                objects_a,
                objects_b,
                stats,
                emit=lambda a, b: pairs.append((a.oid, b.oid)),
            )
            stats.memory_bytes = 0  # no auxiliary structures
        stats.join_seconds = time.perf_counter() - join_start
        return pairs
