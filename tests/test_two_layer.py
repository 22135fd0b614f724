"""Two-layer partition join: correctness, classes, zero dedup checks."""

import pytest

from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.datasets.transform import inflate
from repro.geometry.mbr import MBR
from repro.geometry.objects import box_object, point_object
from repro.joins.registry import make_algorithm
from repro.partition import TwoLayerJoin, class_label, full_mask, mini_join_masks
from repro.validation import assert_matches_ground_truth


class TestClassAlgebra:
    def test_full_mask(self):
        assert full_mask(1) == 0b1
        assert full_mask(2) == 0b11
        assert full_mask(3) == 0b111
        with pytest.raises(ValueError):
            full_mask(0)

    def test_mini_join_matrix_sizes(self):
        # 3 of 4 combinations on one axis, 9 of 16 on two, 27 of 64 on three.
        assert len(mini_join_masks(1)) == 3
        assert len(mini_join_masks(2)) == 9
        assert len(mini_join_masks(3)) == 27

    def test_mini_join_matrix_2d_contents(self):
        combos = set(mini_join_masks(2))
        a, b, c, d = 0b11, 0b10, 0b01, 0b00
        assert combos == {
            (a, a), (a, b), (b, a), (a, c), (c, a), (a, d), (d, a), (b, c), (c, b)
        }
        # The disallowed combos: both sides began earlier on some axis.
        assert (b, b) not in combos and (c, c) not in combos
        assert (d, d) not in combos and (b, d) not in combos

    def test_class_labels_2d(self):
        assert class_label(0b11, 2) == "A"
        assert class_label(0b10, 2) == "B"
        assert class_label(0b01, 2) == "C"
        assert class_label(0b00, 2) == "D"


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError, match="at most one"):
            TwoLayerJoin(resolution=10, cell_size=1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TwoLayerJoin(resolution=0)
        with pytest.raises(ValueError, match="positive"):
            TwoLayerJoin(cell_size=-1.0)
        with pytest.raises(ValueError, match="kernel"):
            TwoLayerJoin(local_kernel="bogus")
        # The grid kernel dedups internally with reference-point tests,
        # which would silently break the dedup_checks == 0 guarantee.
        with pytest.raises(ValueError, match="reference-point"):
            TwoLayerJoin(local_kernel="grid")

    def test_display_names(self):
        assert TwoLayerJoin(resolution=500).name == "TwoLayer-500"
        assert TwoLayerJoin(cell_size=2.0).name == "TwoLayer-500"
        assert TwoLayerJoin(cell_size=10.0).name == "TwoLayer-100"
        assert TwoLayerJoin(cell_size=3.0).name == "TwoLayer-cell3"
        assert TwoLayerJoin().name == "TwoLayer-100"

    def test_describe(self):
        info = TwoLayerJoin(resolution=42, local_kernel="nested").describe()
        assert info["resolution"] == 42
        assert info["local_kernel"] == "nested"


@pytest.mark.parametrize("backend", ["object", "columnar"])
class TestCorrectness:
    def test_uniform_2d(self, backend):
        a = uniform_boxes(60, seed=71, dim=2, side_range=(0.0, 30.0))
        b = uniform_boxes(150, seed=72, dim=2, side_range=(0.0, 30.0))
        result = TwoLayerJoin(cell_size=40.0, backend=backend).join(a, b)
        assert_matches_ground_truth(result, a, b)
        assert result.stats.dedup_checks == 0
        assert result.stats.duplicates_suppressed == 0

    def test_clustered_3d_with_inflation(self, backend):
        a = inflate(clustered_boxes(50, seed=73, n_clusters=4), 25.0)
        b = clustered_boxes(140, seed=74, n_clusters=4)
        result = TwoLayerJoin(cell_size=60.0, backend=backend).join(list(a), list(b))
        assert_matches_ground_truth(result, list(a), list(b))
        assert result.stats.dedup_checks == 0

    def test_zero_extent_objects_on_tile_corners(self, backend):
        # resolution 4 over [0, 10]: tile edges at 2.5, 5.0, 7.5 — every
        # point object sits exactly on a tile corner or edge.
        universe = MBR((0.0, 0.0), (10.0, 10.0))
        a = [box_object(0, (0.0, 0.0), (10.0, 10.0)), point_object(1, (5.0, 5.0))]
        b = [
            point_object(j, (2.5 * (j % 5), 2.5 * (j // 5)))
            for j in range(25)
        ]
        result = TwoLayerJoin(
            resolution=4, universe=universe, backend=backend
        ).join(a, b)
        assert_matches_ground_truth(result, a, b)
        assert result.stats.dedup_checks == 0

    def test_objects_spanning_whole_tile_rows(self, backend):
        a = [box_object(i, (0.0, 2.0 * i), (10.0, 2.0 * i + 3.0)) for i in range(5)]
        b = [box_object(j, (1.0 * j, 0.0), (1.0 * j + 0.5, 10.0)) for j in range(10)]
        result = TwoLayerJoin(resolution=5, backend=backend).join(a, b)
        assert_matches_ground_truth(result, a, b)
        assert result.stats.dedup_checks == 0

    def test_objects_outside_fixed_universe(self, backend):
        # Objects entirely outside / straddling a fixed universe clamp
        # into the edge tiles identically on both backends.
        universe = MBR((0.0, 0.0), (10.0, 10.0))
        a = [
            box_object(0, (-5.0, -5.0), (-1.0, -1.0)),   # fully outside (low)
            box_object(1, (12.0, 3.0), (1e19, 4.0)),     # fully outside (high, huge)
            box_object(2, (-2.0, 4.0), (3.0, 6.0)),      # straddling
        ]
        b = [
            box_object(0, (-4.0, -4.0), (-2.0, -2.0)),
            box_object(1, (14.0, 3.5), (1e19, 3.8)),
            box_object(2, (1.0, 5.0), (2.0, 5.5)),
        ]
        result = TwoLayerJoin(
            resolution=5, universe=universe, backend=backend
        ).join(a, b)
        assert_matches_ground_truth(result, a, b)
        assert result.stats.dedup_checks == 0

    def test_empty_sides(self, backend):
        a = uniform_boxes(10, seed=75, dim=2)
        assert TwoLayerJoin(backend=backend).join([], a).pairs == []
        assert TwoLayerJoin(backend=backend).join(a, []).pairs == []
        assert TwoLayerJoin(backend=backend).join([], []).pairs == []


class TestBackendParity:
    def test_pair_sets_and_replication_agree(self):
        a = uniform_boxes(70, seed=76, dim=2, side_range=(0.0, 25.0))
        b = uniform_boxes(160, seed=77, dim=2, side_range=(0.0, 25.0))
        results = {
            backend: TwoLayerJoin(cell_size=30.0, backend=backend).join(a, b)
            for backend in ("object", "columnar")
        }
        assert (
            results["object"].sorted_pairs() == results["columnar"].sorted_pairs()
        )
        assert (
            results["object"].stats.replicated_entries
            == results["columnar"].stats.replicated_entries
        )
        for result in results.values():
            assert result.stats.dedup_checks == 0

    def test_registry_against_pbsm(self):
        a = uniform_boxes(60, seed=78, dim=2, side_range=(0.0, 20.0))
        b = uniform_boxes(140, seed=79, dim=2, side_range=(0.0, 20.0))
        for name in ("TwoLayer-500", "TwoLayer-100"):
            two_layer = make_algorithm(name).join(a, b)
            pbsm = make_algorithm(name.replace("TwoLayer", "PBSM")).join(a, b)
            assert two_layer.sorted_pairs() == pbsm.sorted_pairs()
            assert two_layer.stats.dedup_checks == 0
            assert pbsm.stats.dedup_checks > 0  # the machinery being replaced


class TestClassifiedEntries:
    def test_columnar_masks_match_object_classification(self):
        import numpy as np
        from repro.geometry.columnar import CoordinateTable
        from repro.grid.columnar import ColumnarGrid
        from repro.grid.uniform import UniformGrid

        boxes = uniform_boxes(50, seed=80, dim=2, side_range=(0.0, 35.0))
        universe = MBR((0.0, 0.0), (1000.0, 1000.0))
        object_grid = UniformGrid(universe, resolution=10)
        grid = ColumnarGrid(
            np.array(universe.lo), np.array(universe.hi), resolution=10
        )
        table = CoordinateTable.from_objects(boxes)
        obj_idx, keys, masks = grid.entries(table, with_class_masks=True)
        expected = {}
        for i, obj in enumerate(boxes):
            ranges = object_grid.index_ranges(obj.mbr)
            for coords in object_grid.cells_overlapping(obj.mbr):
                mask = 0
                for d, (lo, _hi) in enumerate(ranges):
                    if coords[d] == lo:
                        mask |= 1 << d
                key = sum(
                    c * r for c, r in zip(coords, grid._radix.tolist())
                )
                expected[(i, key)] = mask
        assert len(obj_idx) == len(expected)
        for i, key, mask in zip(obj_idx.tolist(), keys.tolist(), masks.tolist()):
            assert expected[(i, key)] == mask

    def test_exactly_one_home_tile_per_object(self):
        import numpy as np
        from repro.geometry.columnar import CoordinateTable
        from repro.grid.columnar import ColumnarGrid

        boxes = uniform_boxes(80, seed=81, dim=3, side_range=(0.0, 80.0))
        table = CoordinateTable.from_objects(boxes)
        grid = ColumnarGrid(
            np.zeros(3), np.full(3, 1000.0), resolution=8
        )
        obj_idx, _keys, masks = grid.entries(table, with_class_masks=True)
        home = obj_idx[masks == full_mask(3)]
        assert sorted(home.tolist()) == list(range(len(boxes)))
