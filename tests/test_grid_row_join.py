"""The local grid join probes B by rows of cells, as the per-cell join did.

``grid_kernel_columnar`` looks each A box up once per row of cells along
the last axis (``ColumnarGrid.row_ranges``, ``row_windows`` and
``grid_row_join``).  The
per-cell entry join it replaced is kept here as the reference: every A
entry looks up its own cell (``ColumnarGrid.range_entries`` +
``grid_join_pairs``).  Both must yield the same ordered pairs and the
same counters, on either index kind, in 1-D to 3-D, for boxes clamped
into the grid's edge cells, for point data and under chunking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.columnar import CoordinateTable
from repro.grid.columnar import (
    CellDirectory,
    ColumnarGrid,
    SortedEntries,
    box_entry_counts,
    cell_directory,
    cells_spanned,
    grid_join_pairs,
    grid_row_join,
    index_entries,
    row_windows,
    sort_entries,
)
from repro.joins.local import grid_kernel_columnar, nested_kernel_columnar
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

COUNTERS = ("comparisons", "duplicates_suppressed", "dedup_checks", "replicated_entries")
GRID_BYTES = ("local_grid_bytes", "local_grid_peak_bytes")


def reference_kernel(table_a, table_b, stats, cell_size_factor=4.0, max_cells_per_dim=64):
    """The per-cell entry join: ``grid_kernel_columnar`` before rows of cells."""
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
    obj_a, keys_a, masks_a = grid.range_entries(
        lo_a[rows_a], hi_a[rows_a], with_class_masks=True
    )
    entries_a = (rows_a[obj_a], keys_a, masks_a)
    idx_a, idx_b = grid_join_pairs(
        grid, table_a, table_b, entries_a, entries_b, stats, index_b
    )
    grid_bytes = memmodel.grid_cells_bytes(index_b.populated_cells, len(entries_b[0]))
    extra = stats.extra
    extra["local_grid_bytes"] = extra.get("local_grid_bytes", 0) + grid_bytes
    if grid_bytes > extra.get("local_grid_peak_bytes", 0):
        extra["local_grid_peak_bytes"] = grid_bytes
    return idx_a, idx_b


def boxes(rng, n, dim, space=50.0, side=3.0, points=False):
    lo = rng.uniform(0.0, space, (n, dim))
    extent = np.zeros((n, dim)) if points else rng.uniform(0.0, side, (n, dim))
    # A few long boxes cross many rows of cells.
    if not points and n > 4:
        extent[: n // 10, -1] *= 8.0
    return CoordinateTable(np.hstack([lo, lo + extent]), np.arange(n, dtype=np.int64))


def index_kind(table_a, table_b, cell_size_factor, max_cells_per_dim):
    """Which index the kernel builds for B on these inputs."""
    uni_lo = np.minimum(table_a.lo.min(axis=0), table_b.lo.min(axis=0))
    uni_hi = np.maximum(table_a.hi.max(axis=0), table_b.hi.max(axis=0))
    avg_side = float((table_b.hi - table_b.lo).mean())
    cell_size = max(
        avg_side * cell_size_factor,
        float((uni_hi - uni_lo).max()) / max_cells_per_dim,
        1e-12,
    )
    grid = ColumnarGrid(uni_lo, uni_hi, cell_size=cell_size)
    keys_b = grid.entries(table_b)[1]
    lo_a, hi_a = grid.index_ranges(table_a)
    a_entries = int(cells_spanned(hi_a - lo_a + 1).sum())
    return type(index_entries(keys_b, grid.total_cells, a_entries))


def assert_same_join(got, want, stats, reference_stats):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for name in COUNTERS:
        assert getattr(stats, name) == getattr(reference_stats, name), name
    for name in GRID_BYTES:
        assert stats.extra.get(name) == reference_stats.extra.get(name), name


class TestKernelMatchesPerCellJoin:
    # (cell_size_factor, max_cells_per_dim): the default coarse grid
    # indexes B with a cell directory; tiny cells and a high cap give a
    # grid with more cells than entries, which takes the sorted index
    # (in 1-D and 2-D only for short boxes, which span few of the cells).
    GRIDS = {"directory": (4.0, 64), "sorted": (0.05, 100_000)}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_same_pairs_and_counters(self, seed, dim, grid_name):
        factor, cap = self.GRIDS[grid_name]
        rng = np.random.default_rng(seed * 13 + dim)
        shape = {"space": 50.0 if dim < 3 else 25.0}
        if grid_name == "sorted" and dim < 3:
            shape = {"space": 50.0, "side": 0.05} if dim == 1 else {"space": 20.0, "side": 0.5}
        table_a = boxes(rng, int(rng.integers(200, 500)), dim, **shape)
        table_b = boxes(rng, int(rng.integers(200, 500)), dim, **shape)
        kind = index_kind(table_a, table_b, factor, cap)
        assert kind is (CellDirectory if grid_name == "directory" else SortedEntries)
        stats, reference_stats = JoinStatistics(), JoinStatistics()
        got = grid_kernel_columnar(table_a, table_b, stats, factor, cap)
        want = reference_kernel(table_a, table_b, reference_stats, factor, cap)
        assert len(want[0]) > 0
        assert_same_join(got, want, stats, reference_stats)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("points_in", ["a", "b", "both"])
    def test_point_data(self, dim, points_in):
        rng = np.random.default_rng(dim)
        table_a = boxes(rng, 300, dim, points=points_in in ("a", "both"))
        table_b = boxes(rng, 300, dim, points=points_in in ("b", "both"))
        stats, reference_stats = JoinStatistics(), JoinStatistics()
        got = grid_kernel_columnar(table_a, table_b, stats)
        want = reference_kernel(table_a, table_b, reference_stats)
        assert_same_join(got, want, stats, reference_stats)

    def test_accumulates_over_calls(self):
        # TOUCH calls the kernel once per node: the byte counters sum and
        # keep their peak across calls, as before.
        rng = np.random.default_rng(99)
        stats, reference_stats = JoinStatistics(), JoinStatistics()
        for n in (40, 400, 120):
            table_a = boxes(rng, n, 3)
            table_b = boxes(rng, n, 3)
            grid_kernel_columnar(table_a, table_b, stats)
            reference_kernel(table_a, table_b, reference_stats)
        for name in COUNTERS:
            assert getattr(stats, name) == getattr(reference_stats, name)
        for name in GRID_BYTES:
            assert stats.extra[name] == reference_stats.extra[name]


class TestRowJoinOnAFixedGrid:
    """``grid_row_join`` against ``grid_join_pairs`` on a grid smaller
    than the data, so boxes clamp into its edge cells."""

    @staticmethod
    def tables(rng, dim):
        # The grid covers [0, 20]^dim; the boxes spread over [-10, 30].
        table_a = boxes(rng, 250, dim, space=40.0, side=4.0)
        table_b = boxes(rng, 250, dim, space=40.0, side=4.0)
        shift = np.full(2 * dim, -10.0)
        return (
            CoordinateTable(table_a.coords + shift, table_a.ids),
            CoordinateTable(table_b.coords + shift, table_b.ids),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("index", ["directory", "sorted"])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 22])
    def test_same_pairs_and_counters(self, seed, dim, index, chunk):
        rng = np.random.default_rng(seed * 5 + dim)
        table_a, table_b = self.tables(rng, dim)
        grid = ColumnarGrid(np.zeros(dim), np.full(dim, 20.0), resolution=7)
        entries_a = grid.entries(table_a, with_class_masks=True)
        entries_b = grid.entries(table_b, with_class_masks=True)
        if index == "directory":
            index_b = cell_directory(entries_b[1], grid.total_cells)
        else:
            index_b = sort_entries(entries_b[1])
        reference_stats = JoinStatistics()
        want = grid_join_pairs(
            grid, table_a, table_b, entries_a, entries_b, reference_stats, index_b
        )
        stats = JoinStatistics()
        windows_a = row_windows(grid, index_b, *grid.index_ranges(table_a))
        got = grid_row_join(
            table_a, table_b, windows_a, entries_b, index_b, stats, chunk=chunk
        )
        assert len(want[0]) > 0
        assert_same_join(got, want, stats, reference_stats)

    def test_row_ranges_cover_the_per_cell_entries(self):
        rng = np.random.default_rng(3)
        table = boxes(rng, 200, 3, space=40.0, side=9.0)
        grid = ColumnarGrid(np.zeros(3), np.full(3, 40.0), resolution=6)
        lo_idx, hi_idx = grid.index_ranges(table)
        obj, first, last, masks = grid.row_ranges(lo_idx, hi_idx)
        cell_obj, cell_keys, cell_masks = grid.range_entries(
            lo_idx, hi_idx, with_class_masks=True
        )
        # Expanding every range, in order, lists the per-cell entries.
        width = last - first + 1
        assert np.array_equal(np.repeat(obj, width), cell_obj)
        offsets = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        assert np.array_equal(np.repeat(first, width) + offsets, cell_keys)
        expanded = np.repeat(masks, width) | np.where(offsets == 0, 1 << 2, 0)
        assert np.array_equal(expanded, cell_masks)

    def test_no_b_entries_in_range(self):
        grid = ColumnarGrid(np.zeros(2), np.full(2, 10.0), resolution=5)
        table_a = CoordinateTable(np.array([[0.0, 0.0, 1.0, 1.0]]), [0])
        table_b = CoordinateTable(np.array([[8.0, 8.0, 9.0, 9.0]]), [0])
        entries_b = grid.entries(table_b, with_class_masks=True)
        for index_b in (
            cell_directory(entries_b[1], grid.total_cells),
            sort_entries(entries_b[1]),
        ):
            stats = JoinStatistics()
            windows_a = row_windows(grid, index_b, *grid.index_ranges(table_a))
            assert all(len(array) == 0 for array in windows_a)
            got = grid_row_join(table_a, table_b, windows_a, entries_b, index_b, stats)
            assert len(got[0]) == len(got[1]) == 0
            assert stats.comparisons == 0
