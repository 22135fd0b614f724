"""Cross-algorithm validation utilities.

The contract every algorithm must satisfy (paper §4.6: completeness,
soundness, no duplication) is checked against the nested-loop ground
truth.  These helpers are used by the test suite and are available to
library users who want to sanity-check a configuration on their data.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.objects import SpatialObject
from repro.joins.base import JoinResult, Pair

__all__ = [
    "brute_force_pairs",
    "brute_force_exact_pairs",
    "find_duplicates",
    "assert_no_duplicates",
    "assert_matches_ground_truth",
    "assert_all_equivalent",
]


def brute_force_pairs(
    objects_a: Sequence[SpatialObject], objects_b: Sequence[SpatialObject]
) -> set[Pair]:
    """Ground-truth intersecting pair set, computed without instrumentation."""
    pairs: set[Pair] = set()
    for a in objects_a:
        mbr_a = a.mbr
        for b in objects_b:
            if mbr_a.intersects(b.mbr):
                pairs.add((a.oid, b.oid))
    return pairs


def brute_force_exact_pairs(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    epsilon: float,
) -> set[Pair]:
    """Ground truth of the exact distance predicate (filter-refine oracle).

    Every pair whose *shapes* lie within Euclidean distance ``epsilon``
    (``epsilon=0`` degenerates to intersection), evaluated scalar-wise
    by :func:`~repro.geometry.shapes.shape_distance_sq` with no
    candidate stage and no refine shortcut — the set
    :class:`~repro.refine.RefinePipeline` must reproduce through any
    registry algorithm and backend.  MBR-only objects count as solid
    boxes over their MBR (:func:`~repro.geometry.vertex_table.shape_of`).

    A pair is skipped unevaluated only when its shapes' vertex bounds
    lie more than ``epsilon + 2**-20 * (M + epsilon)`` apart on some
    axis, ``M`` the largest coordinate magnitude of either side.  The
    shape distance is at least that gap, and the scalar distance and
    ray cast round by a few dozen ``2**-53 * M`` at most: the slack
    covers that over ``2**25`` times, so every skipped pair computes
    above ``epsilon**2`` (bar the proper-crossing override's rounding
    artefact, :func:`~repro.refine.kernels.rounding_margin`).
    """
    import numpy as np

    from repro.geometry.shapes import shape_distance_sq
    from repro.geometry.vertex_table import shape_of

    shapes_a = [shape_of(a) for a in objects_a]
    shapes_b = [shape_of(b) for b in objects_b]
    if not shapes_a or not shapes_b:
        return set()
    if len({shape.dim for shape in shapes_a + shapes_b}) > 1:
        raise ValueError("dimensionality mismatch between the shapes")
    lo_a, hi_a, lo_b, hi_b = (
        np.array([bound(shape.vertices, axis=0) for shape in shapes])
        for shapes in (shapes_a, shapes_b)
        for bound in (np.min, np.max)
    )
    magnitude = max(abs(bound).max() for bound in (lo_a, hi_a, lo_b, hi_b))
    reach = epsilon + 2.0**-20 * (magnitude + epsilon)
    threshold = float(epsilon) ** 2
    pairs: set[Pair] = set()
    for i, a in enumerate(objects_a):
        near = np.maximum(lo_b - hi_a[i], lo_a[i] - hi_b).max(axis=1) <= reach
        for j in np.flatnonzero(near).tolist():
            if shape_distance_sq(shapes_a[i], shapes_b[j]) <= threshold:
                pairs.add((a.oid, objects_b[j].oid))
    return pairs


def find_duplicates(pairs: Iterable[Pair]) -> list[Pair]:
    """Pairs reported more than once."""
    seen: set[Pair] = set()
    duplicates: list[Pair] = []
    for pair in pairs:
        if pair in seen:
            duplicates.append(pair)
        else:
            seen.add(pair)
    return duplicates


def assert_no_duplicates(result: JoinResult) -> None:
    """Raise ``AssertionError`` when a pair appears twice (Lemma 3)."""
    duplicates = find_duplicates(result.pairs)
    if duplicates:
        raise AssertionError(
            f"{result.algorithm}: {len(duplicates)} duplicated pairs, e.g. {duplicates[:5]}"
        )


def assert_matches_ground_truth(
    result: JoinResult,
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
) -> None:
    """Raise ``AssertionError`` unless the result is exactly the truth.

    Reports missing pairs (completeness violations, Lemma 1) and spurious
    pairs (soundness violations, Lemma 2) separately.
    """
    assert_no_duplicates(result)
    truth = brute_force_pairs(objects_a, objects_b)
    got = result.pair_set()
    missing = truth - got
    spurious = got - truth
    problems = []
    if missing:
        problems.append(f"{len(missing)} missing pairs, e.g. {sorted(missing)[:5]}")
    if spurious:
        problems.append(f"{len(spurious)} spurious pairs, e.g. {sorted(spurious)[:5]}")
    if problems:
        raise AssertionError(f"{result.algorithm}: " + "; ".join(problems))


def assert_all_equivalent(results: Sequence[JoinResult]) -> None:
    """Raise unless all results contain exactly the same pair set."""
    if not results:
        return
    reference = results[0]
    ref_set = reference.pair_set()
    for other in results[1:]:
        other_set = other.pair_set()
        if other_set != ref_set:
            missing = ref_set - other_set
            extra = other_set - ref_set
            raise AssertionError(
                f"{other.algorithm} differs from {reference.algorithm}: "
                f"{len(missing)} missing, {len(extra)} extra"
            )
