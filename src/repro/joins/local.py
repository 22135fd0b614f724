"""Local join kernels shared by the partition-based algorithms.

Every partition-based join eventually faces the same sub-problem: given a
small set of objects from A and one from B that share a region, find the
intersecting pairs.  The paper configures its baselines "with the
plane-sweep as the local join" (§6.2), while TOUCH uses a uniform grid
(Algorithm 4).  These kernels are factored out so that every algorithm
counts comparisons identically and the local-join ablation can swap them.

All kernels call ``emit(obj_a, obj_b)`` once per intersecting pair found
and increment ``stats.comparisons`` once per object-object MBR test.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable, intersect_pairs, sweep_pairs
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject
from repro.grid.columnar import (
    CellDirectory,
    ColumnarGrid,
    box_entry_counts,
    cells_spanned,
    grid_row_join,
    index_entries,
    row_windows,
)
from repro.grid.uniform import UniformGrid
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

__all__ = [
    "nested_loop_kernel",
    "plane_sweep_kernel",
    "grid_kernel",
    "LOCAL_KERNELS",
    "COLUMNAR_KERNELS",
    "average_side_length",
    "nested_kernel_columnar",
    "sweep_kernel_columnar",
    "grid_kernel_columnar",
]

Emit = Callable[[SpatialObject, SpatialObject], None]


def nested_loop_kernel(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    stats: JoinStatistics,
    emit: Emit,
) -> None:
    """Compare every pair; O(|A| · |B|) comparisons."""
    comparisons = 0
    for a in objects_a:
        a_mbr = a.mbr
        for b in objects_b:
            comparisons += 1
            if a_mbr.intersects(b.mbr):
                emit(a, b)
    stats.comparisons += comparisons


def plane_sweep_kernel(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    stats: JoinStatistics,
    emit: Emit,
    presorted: bool = False,
) -> None:
    """Forward-scan plane sweep along dimension 0 (Preparata & Shamos).

    Both inputs are sorted by the low edge of their MBR in dimension 0 and
    scanned synchronously; each object is tested against the objects of
    the other set whose interval on the sweep axis overlaps.  Objects far
    apart in the remaining dimensions still meet on the sweep plane — the
    redundant comparisons the paper blames for the sweep's runtime.

    With ``presorted=True`` the inputs are assumed already sorted (used by
    callers that sort once and join many partitions).
    """
    if not objects_a or not objects_b:
        return
    if presorted:
        sorted_a, sorted_b = list(objects_a), list(objects_b)
    else:
        sorted_a = sorted(objects_a, key=lambda o: o.mbr.lo[0])
        sorted_b = sorted(objects_b, key=lambda o: o.mbr.lo[0])

    n_a, n_b = len(sorted_a), len(sorted_b)
    comparisons = 0
    i = j = 0
    while i < n_a and j < n_b:
        a = sorted_a[i]
        b = sorted_b[j]
        if a.mbr.lo[0] <= b.mbr.lo[0]:
            a_mbr = a.mbr
            sweep_end = a_mbr.hi[0]
            k = j
            while k < n_b:
                other = sorted_b[k]
                if other.mbr.lo[0] > sweep_end:
                    break
                comparisons += 1
                if a_mbr.intersects(other.mbr):
                    emit(a, other)
                k += 1
            i += 1
        else:
            b_mbr = b.mbr
            sweep_end = b_mbr.hi[0]
            k = i
            while k < n_a:
                other = sorted_a[k]
                if other.mbr.lo[0] > sweep_end:
                    break
                comparisons += 1
                if other.mbr.intersects(b_mbr):
                    emit(other, b)
                k += 1
            j += 1
    stats.comparisons += comparisons


def average_side_length(objects: Sequence[SpatialObject]) -> float:
    """Mean MBR side length over all objects and dimensions."""
    if not objects:
        return 0.0
    acc = 0.0
    dims = objects[0].mbr.dim
    for obj in objects:
        acc += obj.mbr.margin()
    return acc / (len(objects) * dims)


def grid_kernel(
    objects_a: Sequence[SpatialObject],
    objects_b: Sequence[SpatialObject],
    stats: JoinStatistics,
    emit: Emit,
    cell_size_factor: float = 4.0,
    max_cells_per_dim: int = 64,
    universe: MBR | None = None,
) -> None:
    """TOUCH's local join (Algorithm 4): hash objects of B into a uniform
    grid, probe with objects of A, deduplicate with the reference-point
    rule.

    The cell size is ``cell_size_factor`` times the average object side —
    "considerably larger than the average size of the objects" (§5.2.2) —
    and the resolution is capped at ``max_cells_per_dim`` per dimension to
    bound replication for pathological extents.
    """
    if not objects_a or not objects_b:
        return
    if universe is None:
        universe = total_mbr(o.mbr for o in objects_a).union(
            total_mbr(o.mbr for o in objects_b)
        )
    avg_side = average_side_length(objects_b) or average_side_length(objects_a)
    if avg_side <= 0.0:
        # Degenerate (point) data: a single cell degrades to a nested loop.
        nested_loop_kernel(objects_a, objects_b, stats, emit)
        return
    cell_size = avg_side * cell_size_factor
    min_size = max(universe.side_lengths()) / max_cells_per_dim
    grid = UniformGrid(universe, cell_size=max(cell_size, min_size, 1e-12))

    for b in objects_b:
        grid.insert(b, b.mbr)
    stats.replicated_entries += grid.reference_count - len(objects_b)

    comparisons = 0
    duplicates = 0
    dedup_checks = 0
    for a in objects_a:
        a_mbr = a.mbr
        for coords in grid.cells_overlapping(a_mbr):
            for b in grid.items_in_cell(coords):
                comparisons += 1
                if a_mbr.intersects(b.mbr):
                    dedup_checks += 1
                    if grid.owns_pair(coords, a_mbr, b.mbr):
                        emit(a, b)
                    else:
                        duplicates += 1
    stats.comparisons += comparisons
    stats.duplicates_suppressed += duplicates
    stats.dedup_checks += dedup_checks
    grid_bytes = grid.memory_bytes()
    extra = stats.extra
    extra["local_grid_bytes"] = extra.get("local_grid_bytes", 0) + grid_bytes
    if grid_bytes > extra.get("local_grid_peak_bytes", 0):
        extra["local_grid_peak_bytes"] = grid_bytes


#: Kernel registry used by the local-join ablation.
LOCAL_KERNELS = {
    "nested": nested_loop_kernel,
    "sweep": plane_sweep_kernel,
    "grid": grid_kernel,
}


# --------------------------------------------------------------------------
# Columnar kernels
#
# Each mirrors its object-model sibling above and performs the *same*
# candidate tests in the same grid/sweep geometry, so ``stats.comparisons``
# is identical across backends — only the execution strategy (batched
# numpy instead of per-object Python) differs.  They consume
# :class:`CoordinateTable` inputs and return ``(index_a, index_b)`` pairs.
# --------------------------------------------------------------------------
def nested_kernel_columnar(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    stats: JoinStatistics,
):
    """Batch nested loop: every pair tested via one broadcast per block."""
    idx_a, idx_b = intersect_pairs(table_a, table_b)
    stats.comparisons += len(table_a) * len(table_b)
    return idx_a, idx_b


def sweep_kernel_columnar(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    stats: JoinStatistics,
):
    """Vectorised forward plane-sweep along dimension 0."""
    idx_a, idx_b, candidates = sweep_pairs(table_a, table_b)
    stats.comparisons += candidates
    return idx_a, idx_b


def grid_kernel_columnar(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    stats: JoinStatistics,
    cell_size_factor: float = 4.0,
    max_cells_per_dim: int = 64,
):
    """Vectorised Algorithm 4: grid-hash B, probe with A in bulk.

    Builds the same grid geometry as :func:`grid_kernel` (cells sized a
    multiple of the average object side, capped per dimension, over the
    union of both extents), enumerates B's (object, cell) entries
    without a Python loop and indexes them by cell key.  Each A row
    probes that index once per row of cells along the last axis (one
    window of B's key-sorted entries, :func:`row_windows`), and
    :func:`grid_row_join` applies the reference-point rule to the
    intersecting candidates in one shot.  The candidates, their order
    and the counters are those of a join of A's per-cell entries.  When B is indexed by a dense cell
    directory, A rows whose cell box holds no B entry are dropped before
    their ranges are built: they have no candidate.
    """
    n_a, n_b = len(table_a), len(table_b)
    empty = np.empty(0, dtype=np.int64)
    if n_a == 0 or n_b == 0:
        return empty, empty
    uni_lo = np.minimum(table_a.lo.min(axis=0), table_b.lo.min(axis=0))
    uni_hi = np.maximum(table_a.hi.max(axis=0), table_b.hi.max(axis=0))

    dim = table_a.dim
    avg_side = float((table_b.hi - table_b.lo).sum() / (n_b * dim))
    if avg_side <= 0.0:
        avg_side = float((table_a.hi - table_a.lo).sum() / (n_a * dim))
    if avg_side <= 0.0:
        # Degenerate (point) data: a single cell degrades to a nested loop.
        return nested_kernel_columnar(table_a, table_b, stats)
    cell_size = avg_side * cell_size_factor
    min_size = float((uni_hi - uni_lo).max()) / max_cells_per_dim
    grid = ColumnarGrid(uni_lo, uni_hi, cell_size=max(cell_size, min_size, 1e-12))

    entries_b = grid.entries(table_b, with_class_masks=True)
    stats.replicated_entries += len(entries_b[0]) - n_b
    lo_a, hi_a = grid.index_ranges(table_a)
    a_entries = int(cells_spanned(hi_a - lo_a + 1).sum())
    index_b = index_entries(entries_b[1], grid.total_cells, a_entries)
    rows_a = np.arange(n_a)
    if isinstance(index_b, CellDirectory):
        rows_a = np.flatnonzero(
            box_entry_counts(index_b.counts, grid.resolution, lo_a, hi_a)
        )
    obj_a, *windows_a = row_windows(grid, index_b, lo_a[rows_a], hi_a[rows_a])
    idx_a, idx_b = grid_row_join(
        table_a, table_b, (rows_a[obj_a], *windows_a), entries_b, index_b, stats
    )

    # Same analytic accounting as the object grid kernel: populated
    # cells of the B-side hash plus its stored references.
    grid_bytes = memmodel.grid_cells_bytes(
        index_b.populated_cells, len(entries_b[0])
    )
    extra = stats.extra
    extra["local_grid_bytes"] = extra.get("local_grid_bytes", 0) + grid_bytes
    if grid_bytes > extra.get("local_grid_peak_bytes", 0):
        extra["local_grid_peak_bytes"] = grid_bytes
    return idx_a, idx_b


#: Columnar kernel registry, keyed like :data:`LOCAL_KERNELS`.
COLUMNAR_KERNELS = {
    "nested": nested_kernel_columnar,
    "sweep": sweep_kernel_columnar,
    "grid": grid_kernel_columnar,
}

