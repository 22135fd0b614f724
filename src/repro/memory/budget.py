"""Byte accounting for the memory governor.

:class:`MemoryBudget` is the ``freeMem`` ledger of the AsterixDB-style
spill lifecycle: partitions *charge* their priced footprint while
resident, *release* it when their local join closes, and anything that
does not fit the free headroom spills.  The prices come from the
algorithms' :meth:`~repro.joins.base.SpatialJoinAlgorithm.estimate_bytes`
(the analytic model of :mod:`repro.stats.memory` plus the real columnar
table payload), so the same ledger governs every algorithm.

:class:`SpillMetrics` is a thread-safe counter bundle shared between a
query service and the budgeted joins it launches, so
``SpatialQueryService.stats()`` can report spill activity across
concurrent probes.  :func:`estimate_built_bytes` prices a prepared
:class:`~repro.joins.base.BuiltIndex` for the byte-accounted index
cache.
"""

from __future__ import annotations

import threading

from repro.geometry.columnar import DEFAULT_DIM
from repro.joins.base import BuiltIndex
from repro.stats.memory import object_record_bytes

__all__ = ["MemoryBudget", "SpillMetrics", "estimate_built_bytes", "SPILL_COUNTER_KEYS"]

#: Counter names a budgeted join records in ``stats.extra`` and a
#: service aggregates into ``stats()``.
SPILL_COUNTER_KEYS = (
    "spilled_partitions",
    "spill_bytes_written",
    "spill_bytes_read",
    "unspills",
    "spill_passes",
    "recursive_repartitions",
    "budget_overruns",
)


def validate_max_bytes(max_bytes: object, argument: str = "max_bytes") -> int:
    """A strictly-positive integer byte budget, or ``ValueError`` naming it.

    Every bad value (a bool, a non-integer, zero or a negative count)
    gets the same message, so each entry point that takes a budget
    reports it alike.
    """
    if (
        isinstance(max_bytes, bool)
        or not isinstance(max_bytes, int)
        or max_bytes <= 0
    ):
        raise ValueError(
            f"{argument} must be a positive integer byte count, "
            f"got {max_bytes!r}"
        )
    return max_bytes


class MemoryBudget:
    """freeMem-style ledger over a fixed byte budget."""

    __slots__ = ("max_bytes", "used_bytes", "peak_bytes")

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = validate_max_bytes(max_bytes)
        self.used_bytes = 0
        self.peak_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.max_bytes - self.used_bytes

    def fits(self, nbytes: int) -> bool:
        """Whether a partition priced at ``nbytes`` fits the headroom."""
        return nbytes <= self.free_bytes

    def charge(self, nbytes: int) -> None:
        """Account a partition as resident."""
        if nbytes < 0:
            raise ValueError(f"cannot charge negative bytes: {nbytes}")
        self.used_bytes += nbytes
        if self.used_bytes > self.peak_bytes:
            self.peak_bytes = self.used_bytes

    def release(self, nbytes: int) -> None:
        """Return a resident partition's charge after its join closes."""
        self.used_bytes = max(0, self.used_bytes - nbytes)

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(used={self.used_bytes}/{self.max_bytes}, "
            f"peak={self.peak_bytes})"
        )


class SpillMetrics:
    """Thread-safe spill counters shared across budgeted joins."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {
            "spilled_joins": 0,
            **{key: 0 for key in SPILL_COUNTER_KEYS},
        }

    def add(self, **counts: int) -> None:
        with self._lock:
            for key, value in counts.items():
                self._counts[key] = self._counts.get(key, 0) + int(value)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


def estimate_built_bytes(built: BuiltIndex) -> int:
    """Resident footprint of a prepared index, for cache byte accounting.

    Sums the real ``nbytes`` of every columnar payload component (tables,
    leaf-order arrays) plus the analytic per-object record cost, and
    never reports less than what the build-phase statistics measured.
    """
    stats_bytes = int(getattr(built.build_stats, "memory_bytes", 0) or 0)
    payload = built.payload
    values = payload.values() if isinstance(payload, dict) else [payload]
    table_bytes = 0
    for value in values:
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, (int, float)):
            table_bytes += int(nbytes)
    analytic = built.n_build * object_record_bytes(DEFAULT_DIM)
    return max(stats_bytes, table_bytes + analytic)
