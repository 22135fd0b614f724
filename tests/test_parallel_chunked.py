"""Chunked execution: the BlueGene/P decomposition must be lossless.

``ParallelChunkedJoin(spec, workers=1, n_chunks=k)`` is the one-core
simulation of a ``k``-core deployment: every region is joined in turn
by a single worker and the pairs each region owns are merged.  These
cases pin that the simulation reports exactly the global join's pairs
for any chunk count, axis, layout and inner algorithm, and that
objects straddling region borders are seen by every region they touch
and reported once.
"""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.objects import box_object, point_object
from repro.joins.registry import AlgorithmSpec, make_algorithm
from repro.parallel.engine import ParallelChunkedJoin
from repro.validation import assert_matches_ground_truth

A = uniform_boxes(80, seed=121, side_range=(0.0, 30.0))
B = uniform_boxes(240, seed=122, side_range=(0.0, 30.0))


def chunked(algorithm="NL", n_chunks=4, **kwargs):
    """The one-core chunked simulation of ``algorithm``."""
    return ParallelChunkedJoin(algorithm, workers=1, n_chunks=n_chunks, **kwargs)


class TestChunkedJoin:
    def test_name_reflects_base(self):
        assert chunked("TOUCH", n_chunks=4).name == "Parallel[TOUCHx4@1w]"

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7])
    def test_equals_global_join(self, n_chunks):
        result = chunked(n_chunks=n_chunks).join(A, B)
        assert_matches_ground_truth(result, A, B)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_any_axis(self, axis):
        assert_matches_ground_truth(chunked(axis=axis).join(A, B), A, B)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            chunked(n_chunks=2, axis=9).join(A, B)

    def test_with_touch_base(self):
        assert_matches_ground_truth(chunked("TOUCH").join(A, B), A, B)

    def test_with_pbsm_base(self):
        join = chunked("PBSM-100", n_chunks=3)
        assert_matches_ground_truth(join.join(A, B), A, B)

    def test_boundary_straddlers_not_duplicated(self):
        """Objects crossing slab borders are seen twice, reported once."""
        # One object exactly astride the 2-chunk boundary of [4, 6].
        a = [box_object(0, (4.0, 0.0), (6.0, 1.0))]
        b = [box_object(0, (4.5, 0.0), (5.5, 1.0))]
        result = chunked(n_chunks=2).join(a, b)
        assert result.pairs == [(0, 0)]
        assert result.stats.duplicates_suppressed >= 1

    def test_statistics_merged(self):
        result = chunked().join(A, B)
        # Total comparisons across chunks at least cover the pairs found.
        assert result.stats.comparisons >= len(result.pairs)
        assert result.stats.result_pairs == len(result.pairs)
        assert result.stats.extra["n_chunks"] == 4

    def test_memory_is_per_chunk_peak(self):
        one = chunked("TOUCH", n_chunks=1).join(A, B)
        many = chunked("TOUCH", n_chunks=8).join(A, B)
        # A single chunk holds everything; eight chunks each hold less.
        assert many.stats.memory_bytes <= one.stats.memory_bytes

    def test_clustered_data(self):
        clustered_a = clustered_boxes(60, seed=123, n_clusters=4)
        clustered_b = clustered_boxes(180, seed=124, n_clusters=4)
        result = chunked("TOUCH", n_chunks=5).join(clustered_a, clustered_b)
        assert_matches_ground_truth(result, clustered_a, clustered_b)

    def test_empty_inputs(self):
        join = chunked()
        assert join.join([], B).pairs == []
        assert join.join(A, []).pairs == []

    def test_accepts_algorithm_spec(self):
        join = chunked(AlgorithmSpec.create("TOUCH"), n_chunks=3)
        assert join.name == "Parallel[TOUCHx3@1w]"
        assert_matches_ground_truth(join.join(A, B), A, B)

    def test_phase_timings_recorded(self):
        extra = chunked().join(A, B).stats.extra
        assert extra["workers"] == 1
        assert extra["decompose"] == "slabs"
        assert extra["decompose_seconds"] >= 0.0
        assert extra["worker_join_seconds"] >= 0.0
        assert extra["merge_seconds"] >= 0.0
        # One worker runs the regions back to back.
        assert extra["worker_seconds_sum"] == pytest.approx(
            sum(extra["per_chunk_seconds"])
        )


class TestTileChunking:
    def test_name_marks_tiles(self):
        assert chunked(kind="tiles").name == "Parallel[NLx4:tiles@1w]"

    @pytest.mark.parametrize("n_chunks", [1, 2, 4, 6])
    def test_equals_global_join(self, n_chunks):
        join = chunked(n_chunks=n_chunks, kind="tiles")
        assert_matches_ground_truth(join.join(A, B), A, B)

    def test_with_touch_base(self):
        join = chunked("TOUCH", kind="tiles")
        assert_matches_ground_truth(join.join(A, B), A, B)

    def test_clustered_data(self):
        clustered_a = clustered_boxes(60, seed=125, n_clusters=4)
        clustered_b = clustered_boxes(180, seed=126, n_clusters=4)
        result = chunked("TOUCH", n_chunks=9, kind="tiles").join(clustered_a, clustered_b)
        assert_matches_ground_truth(result, clustered_a, clustered_b)

    def test_corner_straddler_not_duplicated(self):
        """A pair astride the centre corner of a 2 x 2 grid: four tiles
        see it, exactly one reports it."""
        a = [
            box_object(0, (0.0, 0.0), (1.0, 1.0)),  # pins universe lo
            box_object(1, (4.0, 4.0), (6.0, 6.0)),
            box_object(2, (9.0, 9.0), (10.0, 10.0)),  # pins universe hi
        ]
        b = [box_object(0, (4.5, 4.5), (5.5, 5.5))]
        result = chunked(kind="tiles").join(a, b)
        assert result.pairs == [(1, 0)]
        assert result.stats.duplicates_suppressed == 3


class TestTableInputs:
    """The engine runs on coordinate tables; object lists are converted
    once, table-backed Datasets are sliced as given."""

    def test_table_backed_datasets_match_object_inputs(self):
        from_objects = chunked("TOUCH").join(A, B)
        from_tables = chunked("TOUCH").join(
            Dataset.from_table(CoordinateTable.from_objects(A)),
            Dataset.from_table(CoordinateTable.from_objects(B)),
        )
        assert from_tables.pair_set() == from_objects.pair_set()
        assert from_tables.stats.comparisons == from_objects.stats.comparisons

    def test_pairs_arrive_as_int64_arrays_in_region_order(self):
        first = chunked("TOUCH", n_chunks=5).join(A, B).pair_arrays()
        second = chunked("TOUCH", n_chunks=5).join(A, B).pair_arrays()
        assert first.a.dtype == np.int64 and first.b.dtype == np.int64
        # Regions merge in a fixed order, so the pair sequence repeats.
        assert np.array_equal(first.a, second.a)
        assert np.array_equal(first.b, second.b)
        assert len(first.a) == len(make_algorithm("TOUCH").join(A, B).pairs)


class TestBoundaryOwnership:
    """Regression: reference points exactly on an interior slab edge.

    Ownership resolves by binary search over the global edge list
    (:meth:`~repro.parallel.decompose.Decomposition.owner_indices`), so
    an interior edge belongs to exactly one (the right-hand) slab — the
    historical per-slab interval test closed only the final slab.
    """

    def test_reference_point_on_interior_edge(self):
        # Universe [0, 10] (pinned by the A boxes), 2 slabs, edge at 5.0.
        # Both objects start exactly at the edge: reference == 5.0.
        a = [
            box_object(0, (0.0, 0.0), (1.0, 1.0)),  # pins universe lo
            box_object(1, (5.0, 0.0), (6.0, 1.0)),
            box_object(2, (9.0, 0.0), (10.0, 1.0)),  # pins universe hi
        ]
        b = [box_object(0, (5.0, 0.0), (5.5, 1.0))]
        result = chunked(n_chunks=2).join(a, b)
        assert sorted(result.pairs) == [(1, 0)]

    def test_zero_extent_reference_on_interior_edge(self):
        # A point with zero extent sitting exactly on the slab edge of a
        # [0, 10] universe cut into 4: seen by both adjacent slabs, owned
        # by exactly one.
        a = [box_object(0, (0.0, 0.0), (10.0, 1.0))]
        b = [point_object(0, (2.5, 0.5)), point_object(1, (7.5, 0.5))]
        for n_chunks in (2, 4, 8):
            result = chunked(n_chunks=n_chunks).join(a, b)
            assert sorted(result.pairs) == [(0, 0), (0, 1)], n_chunks

    def test_rule_shared_with_decompose_module(self):
        """The engine's region ownership and the decompose primitives
        agree edge-for-edge."""
        from repro.geometry.mbr import MBR
        from repro.parallel.decompose import Decomposition

        universe = MBR((0.0, 0.0), (10.0, 10.0))
        decomposition = Decomposition.slabs(universe, 4, axis=0)
        edge = MBR((5.0, 0.0), (5.0, 0.0))
        assert decomposition.owner_index(edge, edge) == 2  # right-hand slab
        # The engine sees a pair starting on that edge in two regions
        # and reports it once.
        a = [
            box_object(0, (0.0, 0.0), (10.0, 10.0)),
            box_object(1, (5.0, 0.0), (5.0, 0.0)),
        ]
        b = [point_object(0, (5.0, 0.0))]
        result = chunked(n_chunks=4).join(a, b)
        assert sorted(result.pairs) == [(0, 0), (1, 0)]
