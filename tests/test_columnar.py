"""The columnar geometry backend: tables, batch kernels, bulk grid.

Property tests pin the batch kernels to the object model's semantics —
closed boxes, touching edges intersect, degenerate (point) boxes allowed
— and unit tests cover the conversions and the vectorised grid/assignment
machinery against their object-model twins.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.assignment import assign_dataset_b, assign_table_b
from repro.core.tree import TouchTree
from repro.datasets.base import Dataset
from repro.datasets.synthetic import uniform_boxes
from repro.geometry.columnar import (
    BACKENDS,
    CoordinateTable,
    concat_ranges,
    intersect_pairs,
    intersects_many,
    overlap_mask,
    pairs_overlap_mask,
    resolve_backend,
    sweep_pairs,
)
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject, box_object
from repro.grid.columnar import ColumnarGrid
from repro.grid.uniform import UniformGrid
from repro.stats.counters import JoinStatistics


# -- box strategies ----------------------------------------------------
# Integer corners force plenty of exactly-touching edges/corners and
# zero-extent (point) boxes — the cases where open/closed semantics and
# strict/non-strict comparisons diverge.
def _boxes(dim: int, max_n: int = 12):
    corner = st.integers(min_value=-6, max_value=6)
    extent = st.integers(min_value=0, max_value=4)
    box = st.tuples(
        st.tuples(*[corner] * dim), st.tuples(*[extent] * dim)
    ).map(
        lambda t: MBR(
            tuple(float(c) for c in t[0]),
            tuple(float(c + e) for c, e in zip(t[0], t[1])),
        )
    )
    return st.lists(box, min_size=1, max_size=max_n)


def _table(mbrs) -> CoordinateTable:
    return CoordinateTable.from_mbrs(mbrs)


class TestIntersectsManyProperty:
    @given(_boxes(2), _boxes(2))
    def test_matches_pairwise_2d(self, boxes_a, boxes_b):
        matrix = intersects_many(_table(boxes_a), _table(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == a.intersects(b)

    @given(_boxes(3), _boxes(3))
    def test_matches_pairwise_3d(self, boxes_a, boxes_b):
        matrix = intersects_many(_table(boxes_a), _table(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == a.intersects(b)

    @given(_boxes(3), _boxes(3))
    # Identical sweep starts on both sides: the two-pass tie rule must
    # report each of the 9 pairs exactly once.
    @example([MBR((0.0,) * 3, (1.0,) * 3)] * 3, [MBR((0.0,) * 3, (1.0,) * 3)] * 3)
    @example([], [MBR((0.0,) * 3, (1.0,) * 3)])
    @example([MBR((0.0,) * 3, (1.0,) * 3)], [])
    @example([], [])
    def test_pairs_kernels_agree_with_matrix(self, boxes_a, boxes_b):
        """intersect_pairs and sweep_pairs report exactly the matrix."""
        table_a, table_b = _table(boxes_a), _table(boxes_b)
        truth = {
            (i, j)
            for i, j in zip(*np.nonzero(intersects_many(table_a, table_b)))
        }
        nested = set(zip(*(arr.tolist() for arr in intersect_pairs(table_a, table_b))))
        assert nested == truth
        idx_a, idx_b, candidates = sweep_pairs(table_a, table_b)
        swept = set(zip(idx_a.tolist(), idx_b.tolist()))
        assert swept == truth
        assert len(idx_a) <= candidates <= len(boxes_a) * len(boxes_b)

    def test_touching_edges_and_points(self):
        boxes_a = [
            MBR((0.0, 0.0), (1.0, 1.0)),
            MBR((2.0, 2.0), (2.0, 2.0)),  # a point
        ]
        boxes_b = [
            MBR((1.0, 1.0), (2.0, 2.0)),  # shares corner with both
            MBR((5.0, 5.0), (6.0, 6.0)),
        ]
        matrix = intersects_many(_table(boxes_a), _table(boxes_b))
        assert matrix.tolist() == [[True, False], [True, False]]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            intersects_many(_table([MBR((0,), (1,))]), _table([MBR((0, 0), (1, 1))]))


def _random_table(n: int, seed: int, side: float = 4.0) -> CoordinateTable:
    rng = np.random.default_rng(seed)
    lo = rng.random((n, 3)) * 20.0
    hi = lo + rng.random((n, 3)) * side
    return CoordinateTable(np.hstack([lo, hi]), np.arange(n, dtype=np.int64))


def _chunk_kwargs(chunk):
    return {} if chunk is None else {"chunk": chunk}


_CHUNKS = pytest.mark.parametrize(
    "chunk", [None, 1, 97], ids=["chunk-default", "chunk-1", "chunk-97"]
)


class TestPairsKernelsSeeded:
    """Both pair kernels against a per-pair object-model loop.

    Random float tables (70 to 110 rows a side) complement the small integer
    property boxes above; the chunk sizes force every block and window
    boundary.
    """

    @staticmethod
    def _truth(table_a, table_b):
        mbrs_a = [table_a.mbr(i) for i in range(len(table_a))]
        mbrs_b = [table_b.mbr(j) for j in range(len(table_b))]
        pairs = [
            (i, j)
            for i, a in enumerate(mbrs_a)
            for j, b in enumerate(mbrs_b)
            if a.intersects(b)
        ]
        dim0_overlaps = sum(
            1
            for a in mbrs_a
            for b in mbrs_b
            if a.lo[0] <= b.hi[0] and b.lo[0] <= a.hi[0]
        )
        return pairs, dim0_overlaps

    @_CHUNKS
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_intersect_pairs_in_nested_loop_order(self, seed, chunk):
        table_a = _random_table(70, seed)
        table_b = _random_table(110, seed + 50)
        idx_a, idx_b = intersect_pairs(table_a, table_b, **_chunk_kwargs(chunk))
        pairs, _ = self._truth(table_a, table_b)
        assert pairs, "the tables must overlap for the check to mean anything"
        assert list(zip(idx_a.tolist(), idx_b.tolist())) == pairs

    @_CHUNKS
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sweep_pairs_once_each_with_dim0_candidates(self, seed, chunk):
        table_a = _random_table(80, seed)
        table_b = _random_table(90, seed + 50)
        idx_a, idx_b, candidates = sweep_pairs(
            table_a, table_b, **_chunk_kwargs(chunk)
        )
        pairs, dim0_overlaps = self._truth(table_a, table_b)
        assert pairs
        assert sorted(zip(idx_a.tolist(), idx_b.tolist())) == pairs
        assert candidates == dim0_overlaps


class TestCoordinateTable:
    def test_object_round_trip(self):
        objects = list(uniform_boxes(50, seed=201))
        table = CoordinateTable.from_objects(objects)
        assert len(table) == 50 and table.dim == 3
        back = table.to_objects()
        assert [o.oid for o in back] == [o.oid for o in objects]
        assert all(x.mbr == y.mbr for x, y in zip(back, objects))

    def test_dataset_round_trip(self):
        dataset = uniform_boxes(30, seed=202)
        table = dataset.to_table()
        assert table.nbytes == 30 * (2 * 3 * 8 + 8)
        back = Dataset.from_table(table, name="restored")
        assert back.name == "restored"
        assert list(back) == list(dataset)

    def test_take_and_mbr(self):
        table = _table([MBR((0.0, 0.0), (1.0, 2.0)), MBR((3.0, 3.0), (4.0, 5.0))])
        sub = table.take(np.array([1]))
        assert len(sub) == 1
        assert sub.mbr(0) == MBR((3.0, 3.0), (4.0, 5.0))

    def test_overlap_mask(self):
        table = _table([MBR((0.0, 0.0), (1.0, 1.0)), MBR((5.0, 5.0), (6.0, 6.0))])
        assert overlap_mask(table, (1.0, 1.0), (2.0, 2.0)).tolist() == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError, match="shape"):
            CoordinateTable(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="ids"):
            CoordinateTable(np.zeros((2, 4)), np.zeros(3))

    def test_empty_inputs_build_typed_empty_tables(self):
        # Empty sides are legal: a (0, 2D) float64 table with a
        # well-defined dim instead of a shape-inference error.
        for table in (
            CoordinateTable.from_objects([]),
            CoordinateTable.from_mbrs([]),
        ):
            assert len(table) == 0
            assert table.dim == 3  # DEFAULT_DIM
            assert table.coords.shape == (0, 6)
            assert table.coords.dtype == np.float64
            assert table.ids.dtype == np.int64
        assert CoordinateTable.from_objects([], dim=2).coords.shape == (0, 4)
        assert CoordinateTable.from_mbrs([], dim=2).dim == 2

    def test_mixed_dimensionality_names_the_object(self):
        objects = [
            box_object(5, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            box_object(6, (0.0, 0.0), (1.0, 1.0)),
            box_object(7, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        ]
        with pytest.raises(ValueError, match=r"#6 is 2-D.*#5 .* 3-D"):
            CoordinateTable.from_objects(objects)
        boxes = [MBR((0.0,), (1.0,)), MBR((0.0, 0.0), (1.0, 1.0))]
        with pytest.raises(ValueError, match=r"#1 is 2-D.*#0 .* 1-D"):
            CoordinateTable.from_mbrs(boxes)

    def test_empty_bounds_raises_named_error(self):
        table = CoordinateTable.from_mbrs([])
        with pytest.raises(ValueError, match=r"bounds\(\) of an empty table"):
            table.bounds()

    def test_concat_ranges(self):
        anchors, values = concat_ranges(np.array([5, 0, 7]), np.array([2, 0, 3]))
        assert anchors.tolist() == [0, 0, 2, 2, 2]
        assert values.tolist() == [5, 6, 7, 8, 9]


class TestBackendResolution:
    def test_auto_resolves_to_columnar_with_numpy(self):
        assert resolve_backend("auto") == "columnar"

    def test_explicit_passthrough(self):
        assert resolve_backend("object") == "object"
        assert resolve_backend("columnar") == "columnar"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("gpu")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_constructors_accept_all(self, backend):
        from repro.core.touch import TouchJoin
        from repro.joins.nested_loop import NestedLoopJoin
        from repro.joins.pbsm import PBSMJoin

        for cls in (TouchJoin, NestedLoopJoin, PBSMJoin):
            assert cls(backend=backend).backend == backend

    def test_constructors_reject_unknown(self):
        from repro.core.touch import TouchJoin
        from repro.joins.nested_loop import NestedLoopJoin
        from repro.joins.pbsm import PBSMJoin

        for cls in (TouchJoin, NestedLoopJoin, PBSMJoin):
            with pytest.raises(ValueError, match="backend"):
                cls(backend="bogus")


class TestColumnarGridParity:
    @given(_boxes(2, max_n=20), st.integers(min_value=1, max_value=7))
    def test_entry_counts_match_uniform_grid(self, boxes, resolution):
        universe = MBR((-8.0, -8.0), (12.0, 12.0))
        object_grid = UniformGrid(universe, resolution=resolution)
        for i, box in enumerate(boxes):
            object_grid.insert(i, box)
        table = _table(boxes)
        grid = ColumnarGrid(
            np.array(universe.lo), np.array(universe.hi), resolution=resolution
        )
        obj_idx, keys = grid.entries(table)
        assert len(obj_idx) == object_grid.reference_count
        assert len(np.unique(keys)) == len(object_grid)

    def test_cell_indices_clamped(self):
        grid = ColumnarGrid(np.zeros(2), np.full(2, 10.0), resolution=5)
        points = np.array([[-3.0, 4.9], [11.0, 10.0]])
        assert grid.cell_indices(points).tolist() == [[0, 2], [4, 4]]

    def test_cell_indices_far_outside_fixed_universe(self):
        # Regression: the float->int64 cast used to run *before* the
        # clamp, so coordinates far beyond a fixed universe overflowed
        # to INT64_MIN and landed in cell 0 instead of the last cell.
        universe = MBR((0.0, 0.0), (10.0, 10.0))
        object_grid = UniformGrid(universe, resolution=5)
        grid = ColumnarGrid(np.zeros(2), np.full(2, 10.0), resolution=5)
        points = [(1e300, 3.0), (-1e300, 3.0), (1e19, 1e19), (5.0, 1e25)]
        columnar = grid.cell_indices(np.array(points))
        for point, cells in zip(points, columnar):
            assert tuple(cells) == object_grid.cell_of_point(point)
        assert columnar[0].tolist() == [4, 1]

    @given(
        _boxes(2, max_n=16),
        st.integers(min_value=1, max_value=7),
    )
    def test_out_of_universe_indices_match_object_path(self, boxes, resolution):
        # The strategy's boxes live in [-6, 10]^2; a deliberately small
        # fixed universe makes many of them straddle or fall outside it.
        universe = MBR((-2.0, -1.0), (3.0, 4.0))
        object_grid = UniformGrid(universe, resolution=resolution)
        grid = ColumnarGrid(
            np.array(universe.lo), np.array(universe.hi), resolution=resolution
        )
        table = _table(boxes)
        lo_idx, hi_idx = grid.index_ranges(table)
        for i, box in enumerate(boxes):
            expected = object_grid.index_ranges(box)
            assert tuple(lo_idx[i]) == tuple(lo for lo, _ in expected)
            assert tuple(hi_idx[i]) == tuple(hi for _, hi in expected)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ColumnarGrid(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match=">= 1"):
            ColumnarGrid(np.zeros(2), np.ones(2), resolution=0)
        with pytest.raises(ValueError, match="positive"):
            ColumnarGrid(np.zeros(2), np.ones(2), cell_size=0.0)


class TestBatchedAssignmentParity:
    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_same_nodes_and_filtering_as_scalar_walk(self, seed):
        objects_a = list(uniform_boxes(120, seed=seed, side_range=(0.0, 15.0)))
        objects_b = list(uniform_boxes(400, seed=seed + 50, side_range=(0.0, 15.0)))

        scalar_tree = TouchTree(objects_a, num_partitions=16)
        scalar_stats = JoinStatistics()
        assign_dataset_b(scalar_tree, objects_b, scalar_stats)

        batched_tree = TouchTree(objects_a, num_partitions=16)
        batched_stats = JoinStatistics()
        table_b = CoordinateTable.from_objects(objects_b)
        flat = batched_tree.flat
        nodes, rows = assign_table_b(flat, table_b, batched_stats)

        assert batched_stats.filtered == scalar_stats.filtered
        scalar_map = {
            node.mbr: sorted(o.oid for o in node.entities_b)
            for node in scalar_tree.iter_nodes()
            if node.entities_b
        }
        batched_nodes = list(batched_tree.iter_nodes())
        batched_map = {
            batched_nodes[node].mbr: sorted(table_b.ids[rows[nodes == node]].tolist())
            for node in np.unique(nodes).tolist()
        }
        assert batched_map == scalar_map
        # The returned flat indices name the same nodes in the scalar
        # tree's pre-order as the ones its walk attached the objects to.
        scalar_nodes = list(scalar_tree.iter_nodes())
        for node in np.unique(nodes).tolist():
            assert sorted(table_b.ids[rows[nodes == node]].tolist()) == sorted(
                o.oid for o in scalar_nodes[node].entities_b
            )

    def test_empty_b(self):
        tree = TouchTree([box_object(0, (0, 0), (1, 1))])
        table = CoordinateTable(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        nodes, rows = assign_table_b(tree.flat, table)
        assert len(nodes) == len(rows) == 0

    def test_all_filtered(self):
        tree = TouchTree([box_object(0, (0.0, 0.0), (1.0, 1.0))])
        far = [SpatialObject(7, MBR((50.0, 50.0), (51.0, 51.0)))]
        stats = JoinStatistics()
        nodes, rows = assign_table_b(
            tree.flat,
            CoordinateTable.from_objects(far),
            stats,
        )
        assert len(nodes) == len(rows) == 0 and stats.filtered == 1


class TestAxesOverlapMask:
    """Partial-dimensional overlap: the decomposition membership kernel."""

    def test_matches_per_object_touches(self):
        from repro.geometry.columnar import axes_overlap_mask
        from repro.parallel.decompose import Decomposition

        objects = list(uniform_boxes(120, seed=77, space=50.0, side_range=(0.0, 6.0)))
        table = CoordinateTable.from_objects(objects)
        universe = MBR((0.0, 0.0, 0.0), (50.0, 50.0, 50.0))
        for kind, n_chunks in (("slabs", 4), ("tiles", 6)):
            decomposition = Decomposition.build(universe, kind=kind, n_chunks=n_chunks)
            for region in decomposition.regions:
                mask = axes_overlap_mask(
                    table, region.axes, region.lows, region.highs
                )
                expected = [region.touches(o.mbr) for o in objects]
                assert mask.tolist() == expected

    def test_unconstrained_axes_stay_free(self):
        from repro.geometry.columnar import axes_overlap_mask

        table = CoordinateTable.from_mbrs(
            [MBR((0.0, 100.0), (1.0, 101.0)), MBR((5.0, -3.0), (6.0, -2.0))]
        )
        mask = axes_overlap_mask(table, (0,), (0.0,), (2.0,))
        assert mask.tolist() == [True, False]  # axis 1 never consulted


# -- the column block layout -------------------------------------------
def _row_reference(objects):
    """The row layout the table used to store: ``(N, 2 * D)`` rows of
    low corners then high corners, and the oids."""
    rows = np.array(
        [list(obj.mbr.lo) + list(obj.mbr.hi) for obj in objects], dtype=np.float64
    )
    return rows, np.array([obj.oid for obj in objects], dtype=np.int64)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestPairsOverlapMaskOnColumns:
    """``pairs_overlap_mask`` on column blocks equals a row-by-row test."""

    @staticmethod
    def _reference(table_a, rows_a, table_b, rows_b):
        return [
            table_a.mbr(i).intersects(table_b.mbr(j))
            for i, j in zip(rows_a.tolist(), rows_b.tolist())
        ]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @given(data=st.data())
    def test_matches_rows(self, dim, data):
        table_a = _table(data.draw(_boxes(dim, max_n=15)))
        table_b = _table(data.draw(_boxes(dim, max_n=15)))
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(table_a) - 1), st.integers(0, len(table_b) - 1)
                ),
                max_size=60,
            )
        )
        rows_a = np.array([i for i, _ in pairs], dtype=np.int64)
        rows_b = np.array([j for _, j in pairs], dtype=np.int64)
        got = pairs_overlap_mask(table_a.cols, rows_a, table_b.cols, rows_b)
        assert got.dtype == bool
        assert got.tolist() == self._reference(table_a, rows_a, table_b, rows_b)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_touching_edges_and_corners_overlap(self, dim):
        unit = MBR((0.0,) * dim, (1.0,) * dim)
        # Shares one face, one corner, and misses by one ulp-sized gap.
        face = MBR((1.0,) + (0.0,) * (dim - 1), (2.0,) + (1.0,) * (dim - 1))
        corner = MBR((1.0,) * dim, (2.0,) * dim)
        apart = MBR((np.nextafter(1.0, 2.0),) * dim, (2.0,) * dim)
        table_a = _table([unit])
        table_b = _table([face, corner, apart])
        rows_a = np.zeros(3, dtype=np.int64)
        rows_b = np.arange(3, dtype=np.int64)
        got = pairs_overlap_mask(table_a.cols, rows_a, table_b.cols, rows_b)
        assert got.tolist() == [True, True, False]
        # The test is symmetric.
        back = pairs_overlap_mask(table_b.cols, rows_b, table_a.cols, rows_a)
        assert back.tolist() == got.tolist()

    def test_empty_batch(self):
        table = _random_table(10, seed=1)
        empty = np.empty(0, dtype=np.int64)
        got = pairs_overlap_mask(table.cols, empty, table.cols, empty)
        assert got.shape == (0,) and got.dtype == bool

    def test_one_row_tables(self):
        one = _table([MBR((0.0, 0.0), (1.0, 1.0))])
        other = _table([MBR((1.0, 1.0), (3.0, 3.0))])
        rows = np.zeros(4, dtype=np.int64)
        got = pairs_overlap_mask(one.cols, rows, other.cols, rows)
        assert got.tolist() == [True] * 4

    def test_one_row_batch_against_a_large_table(self):
        large = _random_table(128_000, seed=5)
        probe = _random_table(1, seed=6)
        rows_large = np.array([127_999], dtype=np.int64)
        rows_probe = np.zeros(1, dtype=np.int64)
        got = pairs_overlap_mask(large.cols, rows_large, probe.cols, rows_probe)
        assert got.tolist() == self._reference(large, rows_large, probe, rows_probe)
        # Every row of the large table against the one probe box.
        every = np.arange(len(large), dtype=np.int64)
        got = pairs_overlap_mask(
            large.cols, every, probe.cols, np.zeros(len(large), dtype=np.int64)
        )
        assert np.array_equal(
            got, overlap_mask(large, probe.lo[0], probe.hi[0])
        )


class TestColumnBlockParity:
    """The column block returns what the row layout returned."""

    @pytest.fixture(params=[1, 2, 3])
    def objects(self, request):
        return list(uniform_boxes(57, dim=request.param, seed=20 + request.param))

    def test_from_objects_and_from_mbrs(self, objects):
        rows, ids = _row_reference(objects)
        dim = objects[0].mbr.dim
        for table in (
            CoordinateTable.from_objects(objects),
            CoordinateTable.from_mbrs([obj.mbr for obj in objects], ids=ids),
            CoordinateTable(rows, ids),
        ):
            assert table.cols.shape == (2 * dim, len(objects))
            assert table.cols.flags.c_contiguous
            assert table.coords.shape == rows.shape
            assert _bits(table.coords) == _bits(rows)
            assert _bits(table.lo) == _bits(rows[:, :dim])
            assert _bits(table.hi) == _bits(rows[:, dim:])
            assert _bits(table.ids) == _bits(ids)
            assert table.nbytes == rows.nbytes + ids.nbytes

    def test_views_are_read_only(self, objects):
        table = CoordinateTable.from_objects(objects)
        for view in (table.coords, table.lo, table.hi):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0

    @pytest.mark.parametrize(
        "select",
        [
            slice(3, 40),
            slice(None, None, 2),
            np.array([5, 0, 5, 56, 11]),
            np.array([], dtype=np.int64),
            "mask",
        ],
    )
    def test_take(self, objects, select):
        table = CoordinateTable.from_objects(objects)
        rows, ids = _row_reference(objects)
        if isinstance(select, str):
            select = np.arange(len(objects)) % 3 == 1
        sub = table.take(select)
        assert _bits(sub.coords) == _bits(rows[select])
        assert _bits(sub.ids) == _bits(ids[select])
        assert all(sub.cols[d].flags.c_contiguous for d in range(2 * table.dim))

    def test_take_slice_shares_memory(self, objects):
        table = CoordinateTable.from_objects(objects)
        sub = table.take(slice(10, 30))
        assert np.shares_memory(sub.cols, table.cols)
        assert not np.shares_memory(table.take(np.arange(5)).cols, table.cols)

    def test_to_objects_mbr_and_bounds(self, objects):
        table = CoordinateTable.from_objects(objects)
        rows, _ids = _row_reference(objects)
        dim = table.dim
        rebuilt = table.to_objects()
        assert [o.oid for o in rebuilt] == [o.oid for o in objects]
        assert [o.mbr for o in rebuilt] == [o.mbr for o in objects]
        for index in (0, 17, len(objects) - 1, -1):
            row = rows[index]
            assert table.mbr(index) == MBR(tuple(row[:dim]), tuple(row[dim:]))
        lo, hi = table.bounds()
        assert _bits(lo) == _bits(rows[:, :dim].min(axis=0))
        assert _bits(hi) == _bits(rows[:, dim:].max(axis=0))

    def test_pickle_round_trip(self, objects):
        import pickle

        table = CoordinateTable.from_objects(objects)
        for source in (table, table.take(slice(5, 25)), table.take(np.arange(3))):
            copy = pickle.loads(pickle.dumps(source))
            assert _bits(copy.coords) == _bits(source.coords)
            assert _bits(copy.ids) == _bits(source.ids)
            assert copy.cols.shape == source.cols.shape
        # A slice pickles its own rows only, not the block it views.
        large = _random_table(10_000, seed=9)
        whole = len(pickle.dumps(large))
        assert len(pickle.dumps(large.take(slice(0, 100)))) < whole / 50

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 3.25])
    def test_inflate(self, objects, epsilon):
        from repro.datasets.transform import inflate

        dataset = Dataset.from_table(CoordinateTable.from_objects(objects))
        rows, ids = _row_reference(objects)
        dim = objects[0].mbr.dim
        expected = rows.copy()
        expected[:, :dim] -= epsilon
        expected[:, dim:] += epsilon
        table = inflate(dataset, epsilon).to_table()
        assert _bits(table.coords) == _bits(expected)
        assert _bits(table.ids) == _bits(ids)
        assert table.cols.shape == (2 * dim, len(objects))

    def test_fingerprint_pinned(self):
        # Digests from the row layout: ``coords.tobytes()`` is C order of
        # the (N, 2 * D) view, so the column block hashes the same bytes.
        from repro.service.fingerprint import dataset_fingerprint

        boxes_3d = list(uniform_boxes(40, dim=3, seed=2013))
        boxes_2d = list(uniform_boxes(40, dim=2, seed=7))
        digest_3d = "9212436c9a74723c698c03224266ecf6ddd92ff3a49c18a79fc983a3105992fd"
        assert dataset_fingerprint(boxes_3d) == digest_3d
        assert (
            dataset_fingerprint(boxes_3d, table=CoordinateTable.from_objects(boxes_3d))
            == digest_3d
        )
        assert dataset_fingerprint(boxes_2d) == (
            "41c93452d14e6e9d08b838b4ab6ad1bc444fb64c5ef2cfdb963386c52abb7f44"
        )
