"""Distance-join front end: ε-reduction, join order, optional refinement.

The paper's motivating problem is a *distance* join — find all pairs
within distance ε — which is reduced to an intersection join by
Minkowski-inflating the MBRs of one dataset by ε (§4).  This module adds
the two pragmatic decisions around that reduction:

- **join order** (§5.2.3): the smaller dataset is used as the build
  (first/indexed/inflated) side, which both speeds up structure building
  and improves filtering;
- **refinement**: the filter produces candidate pairs on MBRs; when the
  objects carry exact geometries the candidates can be refined against
  the true distance predicate.
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.core.refine import refine_pairs
from repro.geometry.mbr import check_epsilon
from repro.geometry.objects import SpatialObject
from repro.joins.base import JoinResult, SpatialJoinAlgorithm

__all__ = ["distance_join", "spatial_join", "inflate_dataset"]

JoinOrder = Literal["auto", "keep", "swap"]


def inflate_dataset(objects: Sequence[SpatialObject], epsilon: float) -> list[SpatialObject]:
    """Minkowski-inflate every object's MBR by ``epsilon``."""
    return [obj.inflated(epsilon) for obj in objects]


def _resolve_order(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    order: JoinOrder,
) -> bool:
    """Return ``True`` when the datasets should be swapped (B built first)."""
    if order == "keep":
        return False
    if order == "swap":
        return True
    if order == "auto":
        return len(objects_b) < len(objects_a)
    raise ValueError(f"unknown join order {order!r}")


def spatial_join(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    algorithm: SpatialJoinAlgorithm,
    order: JoinOrder = "auto",
) -> JoinResult:
    """Intersection join with the paper's join-order heuristic.

    With ``order="auto"`` the smaller dataset becomes the build side
    (§5.2.3).  Result pairs are always reported in ``(oid_a, oid_b)``
    orientation regardless of the internal order.
    """
    swap = _resolve_order(objects_a, objects_b, order)
    if not swap:
        return algorithm.join(objects_a, objects_b)
    result = algorithm.join(objects_b, objects_a)
    result.pairs = [(a, b) for (b, a) in result.pairs]
    result.parameters = {**result.parameters, "swapped": True}
    return result


def distance_join(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    epsilon: float,
    algorithm: SpatialJoinAlgorithm | None = None,
    order: JoinOrder = "auto",
    refine: bool = False,
    workers: int | None = None,
    decompose: str = "slabs",
) -> JoinResult:
    """Find all pairs within distance ``epsilon``.

    Parameters
    ----------
    epsilon:
        Distance threshold (the paper evaluates ε ∈ {5, 10}).
    algorithm:
        A live join instance, a registry name (``"TOUCH"``), or an
        :class:`~repro.joins.registry.AlgorithmSpec`; defaults to
        :class:`~repro.core.touch.TouchJoin`.  With ``workers`` set only
        names and specs are accepted (worker processes rebuild the
        algorithm from the picklable spec).
    order:
        ``"auto"`` applies the smaller-dataset-first heuristic.
    refine:
        When ``True``, candidate pairs are checked against the exact
        geometry (or exact MBR distance when no geometry is attached).
    workers:
        When >= 1, execute through the multiprocess
        :class:`~repro.parallel.engine.ParallelChunkedJoin` — the
        paper's §3 per-core decomposition — over a ``decompose``
        (``"slabs"`` | ``"tiles"``) cutting of the universe.  The pair
        set is identical to sequential execution.

    Notes
    -----
    The *build* side is inflated by ε, exactly as §4 prescribes
    ("increase the size of all objects of one dataset, say DS1, by ε").
    Inflation is symmetric in effect: a's inflated MBR intersects b's MBR
    iff their MBRs are within L∞ distance ε of each other.
    """
    check_epsilon(epsilon)
    if workers:
        # Imported lazily: repro.core must not require multiprocessing
        # machinery for plain sequential joins.
        from repro.joins.registry import AlgorithmSpec
        from repro.parallel.engine import ParallelChunkedJoin

        if algorithm is None:
            algorithm = AlgorithmSpec.create("TOUCH")
        if not isinstance(algorithm, (str, AlgorithmSpec)):
            raise TypeError(
                "workers requires a registry name or AlgorithmSpec (live "
                f"algorithm instances cannot cross process boundaries), "
                f"got {type(algorithm).__name__}"
            )
        algorithm = ParallelChunkedJoin(algorithm, workers=workers, kind=decompose)
    elif algorithm is None:
        from repro.core.touch import TouchJoin

        algorithm = TouchJoin()
    else:
        from repro.joins.registry import AlgorithmSpec, make_algorithm

        if isinstance(algorithm, str):
            algorithm = make_algorithm(algorithm)
        elif isinstance(algorithm, AlgorithmSpec):
            algorithm = algorithm.make()

    swap = _resolve_order(objects_a, objects_b, order)
    if swap:
        build, probe = inflate_dataset(objects_b, epsilon), list(objects_a)
    else:
        build, probe = inflate_dataset(objects_a, epsilon), list(objects_b)

    result = algorithm.join(build, probe)
    if swap:
        result.pairs = [(a, b) for (b, a) in result.pairs]
        result.parameters = {**result.parameters, "swapped": True}
    result.parameters = {**result.parameters, "epsilon": epsilon}

    if refine:
        result.pairs = refine_pairs(
            result.pairs, objects_a, objects_b, epsilon, result.stats
        )
        result.stats.result_pairs = len(result.pairs)
    return result
