"""Sort-Tile-Recursive (STR) packing (Leutenegger, Lopez & Edgington).

STR is the bulk-loading strategy the paper uses both for its R-Tree
baselines and for TOUCH's bucket construction: it "typically produces leaf
nodes with the smallest MBRs ... and thus allows for more effective
filtering" (§5.1).

Given ``n`` items and a target partition capacity ``c``, STR computes the
number of partitions ``P = ceil(n / c)``, sorts the items by the first
coordinate of their MBR centers, slices them into ``S = ceil(P^(1/D))``
vertical slabs, and recursively tiles each slab using the remaining
``D - 1`` dimensions.  The leaves of the recursion are runs of at most
``c`` spatially adjacent items.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.geometry.columnar import stable_argsort

__all__ = ["str_partition", "str_order", "slices_of"]

T = TypeVar("T")


def slices_of(items: Sequence[T], size: int) -> list[list[T]]:
    """Chop ``items`` into consecutive runs of at most ``size`` elements."""
    if size < 1:
        raise ValueError(f"slice size must be >= 1, got {size}")
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def str_partition(
    items: Sequence[T],
    capacity: int,
    center_of: Callable[[T], Sequence[float]],
    dim: int,
) -> list[list[T]]:
    """Partition ``items`` into spatially coherent groups of ≤ ``capacity``.

    A thin wrapper over :func:`str_order` for item lists.

    Parameters
    ----------
    items:
        The objects (or index nodes) to pack.
    capacity:
        Maximum group size; the paper's "partitions of size fo".
    center_of:
        Accessor returning the MBR center used for sorting.
    dim:
        Dimensionality of the centers.

    Returns
    -------
    list[list[T]]
        Groups in tile order.  Every input item appears in exactly one
        group, and every group except possibly trailing ones is full.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not items:
        return []
    centers = np.array([center_of(item)[:dim] for item in items], dtype=np.float64)
    order, starts = str_order(centers, capacity)
    rows = order.tolist()
    bounds = [*starts.tolist(), len(rows)]
    return [
        [items[row] for row in rows[lo:hi]] for lo, hi in zip(bounds, bounds[1:])
    ]


def str_order(centers, capacity: int):
    """STR packing of ``(N, D)`` center coordinates, as index arrays.

    Returns ``(order, starts)``: ``order`` lists the rows in tile order
    and group ``g`` is ``order[starts[g]:starts[g + 1]]`` (the last one
    runs to the end).  Every sort orders the float64 keys exactly as a
    stable ``argsort`` (:func:`~repro.geometry.columnar.stable_argsort`), so ties keep their input order, exactly as a stable sort of
    the items by ``center[axis]`` would.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    centers = np.asarray(centers, dtype=np.float64)
    # One contiguous row per axis: each tiling step gathers one of them.
    columns = np.ascontiguousarray(centers.T)
    runs: list = []
    _tile(columns, np.arange(len(centers)), capacity, 0, centers.shape[1], runs)
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Each run is chopped into groups of ``capacity``; a run at or under
    # capacity is one group.
    starts = []
    offset = 0
    for run in runs:
        starts.append(np.arange(offset, offset + len(run), capacity))
        offset += len(run)
    return np.concatenate(runs), np.concatenate(starts)


def _tile(columns, rows, capacity: int, axis: int, dims_left: int, runs: list) -> None:
    """Recursive tiling step of STR along ``axis``; appends sorted runs.

    ``columns`` holds the centers as one ``(D, N)`` row per axis.
    """
    n = len(rows)
    if n <= capacity:
        if n:
            runs.append(rows)
        return
    rows = rows[stable_argsort(columns[axis].take(rows))]
    if dims_left <= 1:
        runs.append(rows)
        return
    partitions_needed = math.ceil(n / capacity)
    slab_count = math.ceil(partitions_needed ** (1.0 / dims_left))
    slab_size = math.ceil(n / slab_count)
    for start in range(0, n, slab_size):
        _tile(
            columns, rows[start : start + slab_size], capacity, axis + 1,
            dims_left - 1, runs,
        )
