"""Thread-safe LRU cache of built spatial indexes.

The cache maps an :class:`IndexKey` — (dataset fingerprint, algorithm,
config, backend, ε, geometry) — to the :class:`~repro.joins.base.BuiltIndex` the
algorithm prepared for that exact combination.  Concurrent consumers are
safe: lookups and insertions hold one lock, and a per-key build lock
makes racing cold queries for the same key build the index exactly once
while builds for *different* keys proceed in parallel.

Capacity is two-dimensional: ``capacity`` bounds the index *count* and
an optional ``max_bytes`` bounds the *priced footprint* (each inserted
index is priced with
:func:`~repro.memory.budget.estimate_built_bytes`); either bound
evicts from the LRU tail, so a few large indexes and many small ones
are governed by the same budget the join engines spill against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.geometry.mbr import check_epsilon
from repro.joins.base import BuiltIndex
from repro.memory.budget import estimate_built_bytes, validate_max_bytes

__all__ = ["IndexKey", "IndexCache"]


@dataclass(frozen=True)
class IndexKey:
    """Everything a built index depends on, in hashable form.

    ``config`` is the algorithm-override mapping as a sorted item tuple
    (the same normalisation as
    :class:`~repro.joins.registry.AlgorithmSpec`); ``backend`` is kept
    out of ``config`` so a backend switch is visibly a different key
    even for algorithms that ignore the parameter.  ``geometry``
    ("mbr" or "exact") keeps MBR-only and filter-refine entries from
    colliding; it defaults to "mbr" so pre-refinement keys are stable.
    """

    fingerprint: str
    algorithm: str
    config: tuple
    backend: str
    epsilon: float
    geometry: str = "mbr"

    @classmethod
    def create(
        cls,
        fingerprint: str,
        algorithm: str,
        config: dict,
        backend: str | None,
        epsilon: float,
        geometry: str = "mbr",
    ) -> "IndexKey":
        # NaN is the insidious case: a frozen dataclass holding NaN
        # never equals itself, so the key could never be looked up
        # again — every probe would be a cold build and the cache
        # would fill with unreachable entries.
        epsilon = check_epsilon(epsilon)
        config = {k: v for k, v in config.items() if k != "backend"}
        return cls(
            fingerprint=fingerprint,
            algorithm=algorithm,
            config=tuple(sorted(config.items())),
            backend=backend or "default",
            epsilon=epsilon,
            geometry=geometry or "mbr",
        )


class IndexCache:
    """LRU over built indexes with warm/cold/eviction counters.

    ``capacity`` bounds the number of resident indexes (least recently
    *used* evicted first; both hits and insertions refresh recency).
    ``max_bytes``, when set, additionally bounds the summed priced
    footprint of the resident indexes — eviction is then by bytes, not
    just count, though the most recently inserted index always stays
    (an index larger than the whole budget must not thrash the cache
    empty).
    """

    def __init__(self, capacity: int = 8, max_bytes: int | None = None) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        if max_bytes is not None:
            validate_max_bytes(max_bytes)
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[IndexKey, BuiltIndex]" = OrderedDict()
        self._sizes: dict[IndexKey, int] = {}
        self._lock = threading.Lock()
        self._building: dict[IndexKey, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[IndexKey]:
        """Resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: IndexKey) -> BuiltIndex | None:
        """Warm lookup; refreshes recency and counts a hit or a miss."""
        with self._lock:
            built = self._entries.get(key)
            if built is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return built

    def put(self, key: IndexKey, built: BuiltIndex) -> None:
        """Insert (or refresh) an index, evicting the LRU tail."""
        with self._lock:
            self._insert_locked(key, built)

    def get_or_build(
        self, key: IndexKey, builder: Callable[[], BuiltIndex]
    ) -> tuple[BuiltIndex, bool]:
        """Return ``(index, warm)``, building at most once per key.

        ``builder`` runs outside the cache-wide lock, so slow builds for
        different keys never serialise each other; a per-key lock stops
        two threads from building the same index twice.
        """
        with self._lock:
            built = self._entries.get(key)
            if built is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return built, True
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                built = self._entries.get(key)
                if built is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return built, True
                self.misses += 1
            try:
                built = builder()
            except BaseException:
                # Drop the per-key lock entry on failure — leaving it
                # behind would grow the dict without bound as distinct
                # failing keys retry.
                with self._lock:
                    self._building.pop(key, None)
                raise
            # Insert and release the build-lock entry under ONE lock
            # acquisition.  Popping before the insert (as this used to)
            # opened a window where a third thread missed the cache,
            # found no per-key lock, and re-ran builder() for a key the
            # first thread had already built.
            with self._lock:
                self._insert_locked(key, built)
                self._building.pop(key, None)
            return built, False

    def clear(self) -> None:
        """Drop every resident index (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.resident_bytes = 0

    def stats(self) -> dict:
        """Snapshot of the counters and occupancy."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "max_bytes": self.max_bytes,
                "size": len(self._entries),
                "resident_bytes": self.resident_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _insert_locked(self, key: IndexKey, built: BuiltIndex) -> None:
        if key in self._sizes:
            self.resident_bytes -= self._sizes[key]
        size = estimate_built_bytes(built)
        self._entries[key] = built
        self._sizes[key] = size
        self.resident_bytes += size
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity or (
            self.max_bytes is not None
            and self.resident_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            evicted_key, _ = self._entries.popitem(last=False)
            self.resident_bytes -= self._sizes.pop(evicted_key, 0)
            self.evictions += 1
