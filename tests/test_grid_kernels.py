"""Grid entry enumeration and key-window candidates against references.

``reference_entries`` is the per-entry unravel that
:meth:`ColumnarGrid.entries` ran before it enumerated entries per span
shape, and ``reference_candidates`` the two-sided binary search that
:func:`entry_join_candidates` ran before it searched B's distinct keys
once.  Both are kept here as the reference: objects, keys, class masks
and candidate pairs must match element for element, order included,
because comparison counters and result order follow them.
"""

import numpy as np
import pytest

from repro.geometry.columnar import CoordinateTable, concat_ranges
from repro.grid.columnar import (
    ColumnarGrid,
    entry_join_candidates,
    probe_join_candidates,
    sort_entries,
)


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
        got = collect(entry_join_candidates(keys_a, keys_b, chunk))
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
        assert list(entry_join_candidates(keys_a, keys_b)) == []
        assert list(probe_join_candidates(sort_entries(keys_b), keys_a)) == []

    def test_keys_absent_from_b(self):
        # Below, between and above every B key, and no match at all.
        keys_b = np.array([10, 20, 20, 30])
        assert list(entry_join_candidates(np.array([5, 15, 25, 35]), keys_b)) == []
        anchors, window = collect(
            entry_join_candidates(np.array([5, 20, 35, 10]), keys_b)
        )
        assert anchors.tolist() == [1, 1, 3]
        assert window.tolist() == [1, 2, 0]

    def test_every_entry_shares_one_key(self):
        keys_a = np.full(4, 7)
        keys_b = np.full(5, 7)
        anchors, window = collect(entry_join_candidates(keys_a, keys_b, chunk=3))
        assert anchors.tolist() == np.repeat(np.arange(4), 5).tolist()
        assert window.tolist() == list(range(5)) * 4

    def test_sort_entries_runs(self):
        order, cell_keys, bounds = sort_entries(np.array([4, 1, 4, 9, 1, 4]))
        assert order.tolist() == [1, 4, 0, 2, 5, 3]
        assert cell_keys.tolist() == [1, 4, 9]
        assert bounds.tolist() == [0, 2, 5, 6]
        order, cell_keys, bounds = sort_entries(np.empty(0, dtype=np.int64))
        assert len(order) == len(cell_keys) == 0 and bounds.tolist() == [0]
