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
from repro.datasets.transform import inflate
from repro.execute import executor, join
from repro.geometry.mbr import check_epsilon
from repro.geometry.objects import SpatialObject
from repro.joins.base import JoinResult, SpatialJoinAlgorithm

__all__ = ["distance_join", "spatial_join", "inflate_dataset"]

JoinOrder = Literal["auto", "keep", "swap"]


#: Minkowski-inflate every object's MBR by ε (the ε-reduction of §4).
inflate_dataset = inflate


def _ordered(objects_a, objects_b, order: JoinOrder, run) -> JoinResult:
    """``run(build, probe)`` under the join-order heuristic (§5.2.3).

    ``"auto"`` builds on the smaller dataset, ``"keep"`` on A and
    ``"swap"`` on B.  Pairs come back in ``(oid_a, oid_b)`` orientation
    either way; a swapped run is marked ``parameters["swapped"]``.
    """
    if order not in ("auto", "keep", "swap"):
        raise ValueError(f"unknown join order {order!r}")
    if order == "keep" or (order == "auto" and len(objects_b) >= len(objects_a)):
        return run(objects_a, objects_b)
    result = run(objects_b, objects_a)
    result.pairs = [(a, b) for (b, a) in result.pairs]
    result.parameters = {**result.parameters, "swapped": True}
    return result


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
    return _ordered(objects_a, objects_b, order, algorithm.join)


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
    algorithm = executor(
        "TOUCH" if algorithm is None else algorithm,
        workers=workers,
        decompose=decompose,
    )
    result = _ordered(
        objects_a, objects_b, order,
        lambda build, probe: join(algorithm, build, probe, epsilon),
    )
    result.parameters = {**result.parameters, "epsilon": epsilon}

    if refine:
        result.pairs = refine_pairs(
            result.pairs, objects_a, objects_b, epsilon, result.stats
        )
        result.stats.result_pairs = len(result.pairs)
    return result
