"""Grid entries, key-window candidates and ownership against references.

``reference_entries`` is the per-entry unravel that
:meth:`ColumnarGrid.entries` ran before it enumerated entries per span
shape, ``reference_candidates`` the two-sided binary search that
:func:`entry_join_candidates` ran before it searched B's distinct keys
once, and ``reference_owned`` the float reference-point test that
decided ownership before the class masks did.  All are kept here as the
reference: objects, keys, class masks, candidate pairs and owned pairs
must match element for element, order included, because comparison
counters and result order follow them.
"""

import itertools

import numpy as np
import pytest

from repro.geometry.columnar import CoordinateTable, concat_ranges
from repro.grid.columnar import (
    CellDirectory,
    ColumnarGrid,
    SortedEntries,
    _key_windows,
    box_entry_counts,
    cell_directory,
    entry_join_candidates,
    grid_join_pairs,
    index_entries,
    probe_join_candidates,
    sort_entries,
)
from repro.stats.counters import JoinStatistics


def reference_entries(grid, table):
    lo_idx, hi_idx = grid.index_ranges(table)
    spans = hi_idx - lo_idx + 1
    per_object = spans.prod(axis=1)
    obj_idx, flat_pos = concat_ranges(np.zeros(len(table), dtype=np.int64), per_object)
    keys = np.zeros(len(obj_idx), dtype=np.int64)
    masks = np.zeros(len(obj_idx), dtype=np.int64)
    if len(obj_idx) == 0:
        return obj_idx, keys, masks
    strides = np.ones_like(spans)
    for d in range(grid.dim - 2, -1, -1):
        strides[:, d] = strides[:, d + 1] * spans[:, d + 1]
    for d in range(grid.dim):
        offset = (flat_pos // strides[obj_idx, d]) % spans[obj_idx, d]
        keys += (lo_idx[obj_idx, d] + offset) * grid._radix[d]
        masks += (offset == 0).astype(np.int64) << d
    return obj_idx, keys, masks


def reference_candidates(keys_a, keys_b):
    order_b = np.argsort(keys_b, kind="stable")
    sorted_b = keys_b[order_b]
    starts = np.searchsorted(sorted_b, keys_a, side="left")
    ends = np.searchsorted(sorted_b, keys_a, side="right")
    anchors, window = concat_ranges(starts, ends - starts)
    return anchors, order_b[window]


def reference_owned(grid, candidate_keys, a_lo_rows, b_lo_rows):
    """The owning cell holds the componentwise max of the low corners."""
    reference = np.maximum(a_lo_rows, b_lo_rows)
    return grid.keys_of(grid.cell_indices(reference)) == candidate_keys


def collect(chunks):
    chunks = list(chunks)
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return tuple(np.concatenate(part) for part in zip(*chunks))


def random_table(rng, n, dim):
    """Boxes in and around a [0, 100]^dim universe, some of zero width."""
    lo = rng.uniform(-30.0, 130.0, (n, dim))
    side = rng.uniform(0.0, 45.0, (n, dim))
    side[rng.random((n, dim)) < 0.25] = 0.0
    return CoordinateTable(np.hstack([lo, lo + side]), np.arange(n))


class TestEntriesMatchReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_objects_keys_masks_in_order(self, seed, dim):
        rng = np.random.default_rng(seed * 10 + dim)
        table = random_table(rng, int(rng.integers(1, 80)), dim)
        grid = ColumnarGrid(
            np.zeros(dim), np.full(dim, 100.0), resolution=rng.integers(1, 12, dim)
        )
        expected = reference_entries(grid, table)
        got = grid.entries(table, with_class_masks=True)
        for part, ref in zip(got, expected):
            assert part.dtype == np.int64
            assert np.array_equal(part, ref)
        obj_idx, keys = grid.entries(table)
        assert np.array_equal(obj_idx, expected[0])
        assert np.array_equal(keys, expected[1])

    def test_clamped_boxes_outside_the_universe(self):
        grid = ColumnarGrid(np.zeros(2), np.full(2, 10.0), resolution=5)
        table = CoordinateTable(
            np.array(
                [
                    [-50.0, -50.0, -40.0, -40.0],  # below: one corner cell
                    [20.0, 3.0, 30.0, 30.0],  # right of it, tall
                    [-5.0, 4.0, 15.0, 4.0],  # across, zero height
                    [2.0, 2.0, 2.0, 2.0],  # a point
                ]
            ),
            np.arange(4),
        )
        expected = reference_entries(grid, table)
        for part, ref in zip(grid.entries(table, with_class_masks=True), expected):
            assert np.array_equal(part, ref)
        assert expected[1][expected[0] == 0].tolist() == [0]

    def test_empty_table(self):
        grid = ColumnarGrid(np.zeros(3), np.ones(3), resolution=4)
        table = CoordinateTable(np.empty((0, 6)), np.empty(0, dtype=np.int64))
        for part in grid.entries(table, with_class_masks=True):
            assert part.shape == (0,) and part.dtype == np.int64


class TestCandidatesMatchReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 22])
    def test_random_keys(self, seed, chunk):
        rng = np.random.default_rng(seed)
        keys_a = rng.integers(0, 40, int(rng.integers(1, 300)))
        keys_b = rng.integers(10, 60, int(rng.integers(1, 300)))
        expected = reference_candidates(keys_a, keys_b)
        # 60 cells: a directory whenever the two sides hold 60 entries;
        # 2**20 cells: always the sorted index.
        for total_cells in (60, 1 << 20):
            got = collect(entry_join_candidates(keys_a, keys_b, total_cells, chunk))
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
        build, probe = collect(probe_join_candidates(sort_entries(keys_b), keys_a, chunk))
        assert np.array_equal(probe, expected[0])
        assert np.array_equal(build, expected[1])

    @pytest.mark.parametrize(
        "keys_a, keys_b",
        [
            (np.array([1, 2, 3]), np.empty(0, dtype=np.int64)),
            (np.empty(0, dtype=np.int64), np.array([1, 2, 3])),
        ],
    )
    def test_empty_side(self, keys_a, keys_b):
        for total_cells in (4, 1 << 20):
            assert list(entry_join_candidates(keys_a, keys_b, total_cells)) == []
        assert list(probe_join_candidates(sort_entries(keys_b), keys_a)) == []

    @pytest.mark.parametrize("total_cells", [40, 1 << 20])
    def test_keys_absent_from_b(self, total_cells):
        # Below, between and above every B key, and no match at all.
        keys_b = np.array([10, 20, 20, 30])
        assert (
            list(entry_join_candidates(np.array([5, 15, 25, 35]), keys_b, total_cells))
            == []
        )
        anchors, window = collect(
            entry_join_candidates(np.array([5, 20, 35, 10]), keys_b, total_cells)
        )
        assert anchors.tolist() == [1, 1, 3]
        assert window.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("total_cells", [8, 1 << 20])
    def test_every_entry_shares_one_key(self, total_cells):
        keys_a = np.full(4, 7)
        keys_b = np.full(5, 7)
        anchors, window = collect(
            entry_join_candidates(keys_a, keys_b, total_cells, chunk=3)
        )
        assert anchors.tolist() == np.repeat(np.arange(4), 5).tolist()
        assert window.tolist() == list(range(5)) * 4

    def test_sort_entries_runs(self):
        order, cell_keys, bounds = sort_entries(np.array([4, 1, 4, 9, 1, 4]))
        assert order.tolist() == [1, 4, 0, 2, 5, 3]
        assert cell_keys.tolist() == [1, 4, 9]
        assert bounds.tolist() == [0, 2, 5, 6]
        order, cell_keys, bounds = sort_entries(np.empty(0, dtype=np.int64))
        assert len(order) == len(cell_keys) == 0 and bounds.tolist() == [0]

    def test_cell_directory_runs(self):
        order, starts, counts = cell_directory(np.array([4, 1, 4, 9, 1, 4]), 11)
        assert order.tolist() == [1, 4, 0, 2, 5, 3]
        assert counts.tolist() == [0, 2, 0, 0, 3, 0, 0, 0, 0, 1, 0]
        assert starts[[1, 4, 9]].tolist() == [0, 2, 5]


class TestDirectoryMatchesSortedIndex:
    """The two indices of B's entries must give the same windows."""

    # Boxes crowd the universe's [0, 1.3] corner.  The coarse grid has
    # fewer cells than entries; the fine ones (1e5, 1e6, 1e6 cells)
    # have more, while every box still spans a few cells.
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "dim, fine", [(1, 100_000), (2, 1_000), (3, 100)]
    )
    @pytest.mark.parametrize("coarse", [True, False])
    def test_same_windows_in_order(self, seed, dim, fine, coarse):
        rng = np.random.default_rng(seed * 7 + dim)
        resolution = 3 if coarse else fine
        grid = ColumnarGrid(np.zeros(dim), np.full(dim, 100.0), resolution=resolution)
        tables = []
        for _ in range(2):
            n = int(rng.integers(20, 120))
            lo = rng.uniform(0.0, 1.0, (n, dim))
            side = rng.uniform(0.0, 0.3, (n, dim))
            side[rng.random((n, dim)) < 0.25] = 0.0
            tables.append(CoordinateTable(np.hstack([lo, lo + side]), np.arange(n)))
        _, keys_a = grid.entries(tables[0])
        _, keys_b = grid.entries(tables[1])
        # The grid's shape, not a switch, picks the index.
        index = index_entries(keys_b, grid.total_cells, len(keys_a))
        assert isinstance(index, CellDirectory if coarse else SortedEntries)
        expected = reference_candidates(keys_a, keys_b)
        assert len(expected[0]) > 0
        for chunk in (5, 1 << 22):
            directory = collect(
                _key_windows(cell_directory(keys_b, grid.total_cells), keys_a, chunk)
            )
            by_sort = collect(_key_windows(sort_entries(keys_b), keys_a, chunk))
            joined = collect(
                entry_join_candidates(keys_a, keys_b, grid.total_cells, chunk)
            )
            for got in (directory, by_sort, joined):
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])


def border_table(rng, n, dim, width):
    """:func:`random_table` with about half the coordinates moved onto
    multiples of ``width`` (cell borders of a grid of that cell width)."""
    table = random_table(rng, n, dim)
    coords = table.coords.copy()
    snap = rng.random(coords.shape) < 0.5
    coords[snap] = np.round(coords[snap] / width) * width
    lo, hi = coords[:, :dim], coords[:, dim:]
    return CoordinateTable(np.hstack([np.minimum(lo, hi), np.maximum(lo, hi)]), table.ids)


class TestMaskOwnershipMatchesReference:
    """Class-mask ownership equals the float reference-point test."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("collapsed", [False, True])
    def test_grid_join_pairs(self, seed, dim, collapsed):
        rng = np.random.default_rng(seed * 31 + dim)
        hi = np.full(dim, 100.0)
        if collapsed:
            hi[-1] = 0.0  # a zero-extent universe axis: one cell along it
        grid = ColumnarGrid(np.zeros(dim), hi, resolution=rng.integers(1, 11, dim))
        width = float(100.0 / grid.resolution[0])
        table_a = border_table(rng, int(rng.integers(10, 90)), dim, width)
        table_b = border_table(rng, int(rng.integers(10, 90)), dim, width)
        entries_a = grid.entries(table_a, with_class_masks=True)
        entries_b = grid.entries(table_b, with_class_masks=True)

        ent_a, ent_b = reference_candidates(entries_a[1], entries_b[1])
        cand_a, cand_b = entries_a[0][ent_a], entries_b[0][ent_b]
        hit = (
            (table_a.lo[cand_a] <= table_b.hi[cand_b])
            & (table_b.lo[cand_b] <= table_a.hi[cand_a])
        ).all(axis=1)
        owned = reference_owned(
            grid,
            entries_a[1][ent_a[hit]],
            table_a.lo[cand_a[hit]],
            table_b.lo[cand_b[hit]],
        )
        mask_rule = (
            entries_a[2][ent_a[hit]] | entries_b[2][ent_b[hit]]
        ) == (1 << dim) - 1
        assert np.array_equal(mask_rule, owned)

        stats = JoinStatistics()
        got_a, got_b = grid_join_pairs(
            grid, table_a, table_b, entries_a, entries_b, stats
        )
        assert np.array_equal(got_a, cand_a[hit][owned])
        assert np.array_equal(got_b, cand_b[hit][owned])
        assert stats.comparisons == len(cand_a)
        assert stats.dedup_checks == int(hit.sum())
        assert stats.duplicates_suppressed == int(hit.sum() - owned.sum())
        # Every intersecting pair is owned by exactly one shared cell.
        assert len(set(zip(got_a.tolist(), got_b.tolist()))) == len(got_a)
        assert set(zip(got_a.tolist(), got_b.tolist())) == set(
            zip(cand_a[hit].tolist(), cand_b[hit].tolist())
        )


class TestBoxEntryCounts:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_brute_force(self, seed, dim):
        rng = np.random.default_rng(seed * 13 + dim)
        shape = rng.integers(1, 9, dim)
        counts = rng.integers(0, 4, int(shape.prod()))
        counts[rng.random(len(counts)) < 0.5] = 0
        n = 60
        corner_a = rng.integers(0, shape, (n, dim))
        corner_b = rng.integers(0, shape, (n, dim))
        lo_idx, hi_idx = np.minimum(corner_a, corner_b), np.maximum(corner_a, corner_b)
        grid_counts = counts.reshape(tuple(shape))
        expected = [
            grid_counts[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].sum()
            for lo, hi in zip(lo_idx.tolist(), hi_idx.tolist())
        ]
        got = box_entry_counts(counts, shape, lo_idx, hi_idx)
        assert got.tolist() == expected

    def test_whole_grid_and_single_cells(self):
        shape = np.array([3, 4])
        counts = np.arange(12)
        every = np.array(list(itertools.product(range(3), range(4))))
        assert box_entry_counts(counts, shape, every, every).tolist() == list(range(12))
        whole = box_entry_counts(counts, shape, np.zeros((1, 2), int), np.array([[2, 3]]))
        assert whole.tolist() == [66]
