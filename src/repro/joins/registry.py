"""Name → algorithm factory registry used by the benchmark harness.

The canonical configurations replicate §6.1 of the paper, expressed in
*scale-invariant* terms so they behave identically on density-scaled
universes (see :mod:`repro.bench.config`):

- R-Tree based approaches (INL, sync traversal): fanout 2;
- S3: fanout 3 with the finest grid cells ≈ 12.35 units wide (≡ 5 levels
  over the paper's 1000-unit universe);
- PBSM: cells of 2 units ("PBSM-500" ≡ 500 cells/dim over 1000 units)
  and 10 units ("PBSM-100");
- TwoLayer: the duplicate-free two-layer partition join at the same two
  tile sizes as PBSM, for like-for-like comparisons;
- TOUCH: fanout 2, 1024 partitions; its local-join grid is sized
  relative to the average object, hence already scale-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.joins.base import SpatialJoinAlgorithm
from repro.joins.indexed_nested_loop import IndexedNestedLoopJoin
from repro.joins.nested_loop import NestedLoopJoin
from repro.joins.pbsm import PBSMJoin
from repro.joins.plane_sweep import PlaneSweepJoin
from repro.joins.quadtree import QuadtreeJoin
from repro.joins.rtree_join import RTreeSyncJoin
from repro.joins.s3 import S3Join
from repro.joins.seeded_tree import SeededTreeJoin
from repro.joins.sssj import SSSJJoin

__all__ = [
    "ALGORITHMS",
    "BACKEND_AWARE",
    "AlgorithmInfo",
    "AlgorithmSpec",
    "available",
    "make_algorithm",
]


def _touch_factory(**overrides) -> SpatialJoinAlgorithm:
    # Imported lazily: repro.core depends on repro.joins.
    from repro.core.touch import TouchJoin

    return TouchJoin(**overrides)


def _two_layer_factory(**overrides) -> SpatialJoinAlgorithm:
    # Imported lazily: repro.partition depends on repro.joins.
    from repro.partition.two_layer import TwoLayerJoin

    return TwoLayerJoin(**overrides)


#: The paper's S3 configuration in scale-invariant form: fanout 3 with 5
#: levels over 1000 units means the finest grid has 3^4 = 81 cells/dim.
_S3_FINEST_CELL = 1000.0 / 81.0

ALGORITHMS: dict[str, Callable[..., SpatialJoinAlgorithm]] = {
    "NL": NestedLoopJoin,
    "PS": PlaneSweepJoin,
    "PBSM-500": lambda **kw: PBSMJoin(cell_size=2.0, **kw),
    "PBSM-100": lambda **kw: PBSMJoin(cell_size=10.0, **kw),
    "TwoLayer-500": lambda **kw: _two_layer_factory(cell_size=2.0, **kw),
    "TwoLayer-100": lambda **kw: _two_layer_factory(cell_size=10.0, **kw),
    "S3": lambda **kw: S3Join(fanout=3, finest_cell_size=_S3_FINEST_CELL, **kw),
    "INL": lambda **kw: IndexedNestedLoopJoin(fanout=2, **kw),
    "RTree": lambda **kw: RTreeSyncJoin(fanout=2, **kw),
    "SeededTree": SeededTreeJoin,
    "Quadtree": QuadtreeJoin,
    "SSSJ": SSSJJoin,
    "TOUCH": _touch_factory,
}


#: Algorithms accepting a ``backend="object"|"columnar"`` parameter.
#: The other approaches only exist in object form (their per-node
#: traversal does not vectorise naturally); backend sweeps simply run
#: them unchanged.
BACKEND_AWARE = frozenset(
    {"NL", "PBSM-500", "PBSM-100", "TwoLayer-500", "TwoLayer-100", "TOUCH"}
)


@dataclass(frozen=True)
class AlgorithmInfo:
    """Structured description of one registered algorithm variant.

    The introspection record behind :func:`available` — what callers
    (the adaptive optimizer, the CLI, the benchmark sweeps) consult
    instead of ad-hoc name lists.  ``config`` is the variant's default
    parameterisation as a sorted item tuple (the same normalisation as
    :class:`AlgorithmSpec`), so records stay hashable and picklable.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"TwoLayer-500"``.
    config:
        The variant's :meth:`~repro.joins.base.SpatialJoinAlgorithm.describe`
        at default construction, as a sorted ``(key, value)`` tuple.
    backend_aware:
        Whether the variant accepts ``backend="object"|"columnar"|...``.
    prepare_aware:
        Whether :meth:`~repro.joins.base.SpatialJoinAlgorithm.prepare`
        builds structures genuinely reused across probes (``False`` for
        the rebuild-per-probe fallback).
    estimates_bytes:
        Whether the variant prices its own footprint (overrides
        :meth:`~repro.joins.base.SpatialJoinAlgorithm.estimate_bytes`
        beyond the base-class table costs).
    """

    name: str
    config: tuple[tuple[str, object], ...]
    backend_aware: bool
    prepare_aware: bool
    estimates_bytes: bool

    def config_dict(self) -> dict:
        """The default configuration as a plain mapping."""
        return dict(self.config)

    def as_dict(self) -> dict:
        """JSON-safe view (used by reports and the explain surfaces)."""
        return {
            "name": self.name,
            "config": self.config_dict(),
            "backend_aware": self.backend_aware,
            "prepare_aware": self.prepare_aware,
            "estimates_bytes": self.estimates_bytes,
        }


def _info_for(name: str, factory: Callable[..., SpatialJoinAlgorithm]) -> AlgorithmInfo:
    instance = factory()
    return AlgorithmInfo(
        name=name,
        config=tuple(sorted(instance.describe().items())),
        backend_aware=name in BACKEND_AWARE,
        prepare_aware=instance.supports_prepare(),
        estimates_bytes=type(instance).estimate_bytes
        is not SpatialJoinAlgorithm.estimate_bytes,
    )


_AVAILABLE_CACHE: tuple[AlgorithmInfo, ...] | None = None


def available() -> tuple[AlgorithmInfo, ...]:
    """One frozen :class:`AlgorithmInfo` per registered variant.

    Replaces the historical name-list helpers: callers filter on the
    record fields (``info.prepare_aware``, ``info.backend_aware``)
    instead of maintaining parallel name tuples.  The tuple is built
    once per process — registry contents are module constants.
    """
    global _AVAILABLE_CACHE
    if _AVAILABLE_CACHE is None:
        _AVAILABLE_CACHE = tuple(
            _info_for(name, factory) for name, factory in ALGORITHMS.items()
        )
    return _AVAILABLE_CACHE


def make_algorithm(name: str, **overrides) -> SpatialJoinAlgorithm:
    """Instantiate a registered algorithm with optional overrides.

    A ``backend`` override is forwarded only to the algorithms in
    :data:`BACKEND_AWARE`; for the object-only approaches it is dropped,
    so a benchmark sweep can pass one backend to every algorithm.
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}"
        ) from None
    if "backend" in overrides and name not in BACKEND_AWARE:
        overrides = {k: v for k, v in overrides.items() if k != "backend"}
    return factory(**overrides)


@dataclass(frozen=True)
class AlgorithmSpec:
    """A picklable recipe for instantiating a registered algorithm.

    The multiprocess engine cannot ship closures or live algorithm
    instances to worker processes; it ships one of these instead — just
    the registry ``name`` plus the keyword ``overrides`` as a sorted
    tuple of items — and each worker rebuilds its own instance with
    :meth:`make`.  Override values must themselves be picklable (the
    registry configurations only use numbers and strings).
    """

    name: str
    overrides: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    @classmethod
    def create(cls, name: str, **overrides) -> "AlgorithmSpec":
        """Validate the name eagerly and normalise the override order."""
        if name not in ALGORITHMS:
            raise KeyError(
                f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}"
            )
        return cls(name, tuple(sorted(overrides.items())))

    def make(self) -> SpatialJoinAlgorithm:
        """Instantiate the algorithm (same path as :func:`make_algorithm`)."""
        return make_algorithm(self.name, **dict(self.overrides))
