"""Analytic selectivity estimation (Aref & Samet-style cost model)."""

import pytest

from repro.datasets.synthetic import gaussian_boxes, uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.objects import box_object
from repro.joins.nested_loop import NestedLoopJoin
from repro.stats.estimate import (
    estimate_pair_probability,
    estimate_result_pairs,
    estimate_selectivity,
    mean_side_lengths,
)


class TestMeanSides:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_side_lengths([])

    def test_mean_per_dimension(self):
        objs = [box_object(0, (0, 0), (2, 4)), box_object(1, (0, 0), (4, 0))]
        assert mean_side_lengths(objs) == (3.0, 2.0)

    def test_columnar_table_accepted(self):
        objs = [box_object(0, (0, 0), (2, 4)), box_object(1, (0, 0), (4, 0))]
        table = CoordinateTable.from_objects(objs)
        assert mean_side_lengths(table) == (3.0, 2.0)

    def test_columnar_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_side_lengths(CoordinateTable.from_objects([]))

    def test_columnar_matches_object_loop(self):
        objects = list(uniform_boxes(500, seed=7, side_range=(0.0, 25.0)))
        from_objects = mean_side_lengths(objects)
        from_table = mean_side_lengths(CoordinateTable.from_objects(objects))
        assert from_table == pytest.approx(from_objects, rel=1e-12)


class TestPairProbability:
    def test_minkowski_window(self):
        # sides 1 and 1 with eps 2 in a 100-unit 1D universe: (1+1+4)/100.
        assert estimate_pair_probability((1.0,), (1.0,), (100.0,), epsilon=2.0) == 0.06

    def test_caps_at_one(self):
        assert estimate_pair_probability((80.0,), (80.0,), (100.0,)) == 1.0

    def test_degenerate_dimension_ignored(self):
        assert estimate_pair_probability((1.0, 1.0), (1.0, 1.0), (100.0, 0.0)) == 0.02

    def test_dimensions_multiply(self):
        p = estimate_pair_probability((1.0, 1.0), (1.0, 1.0), (10.0, 10.0))
        assert p == pytest.approx(0.04)


class TestAgainstMeasurement:
    def test_uniform_estimate_within_factor_two(self):
        """On uniform data the model must be accurate."""
        a = uniform_boxes(300, seed=141, side_range=(0.0, 30.0))
        b = uniform_boxes(900, seed=142, side_range=(0.0, 30.0))
        predicted = estimate_result_pairs(a, b)
        measured = len(NestedLoopJoin().join(a, b).pairs)
        assert measured / 2 <= predicted <= measured * 2

    def test_skewed_data_underestimated(self):
        """On skewed data the uniform model is a lower bound."""
        a = gaussian_boxes(300, seed=143, sigma=100.0, side_range=(0.0, 20.0))
        b = gaussian_boxes(900, seed=144, sigma=100.0, side_range=(0.0, 20.0))
        predicted = estimate_result_pairs(a, b)
        measured = len(NestedLoopJoin().join(a, b).pairs)
        assert predicted < measured

    def test_empty_datasets(self):
        assert estimate_selectivity([], []) == 0.0
        assert estimate_result_pairs([], [box_object(0, (0,), (1,))]) == 0.0

    def test_epsilon_monotone(self):
        a = uniform_boxes(100, seed=145)
        b = uniform_boxes(100, seed=146)
        assert estimate_selectivity(a, b, 10.0) > estimate_selectivity(a, b, 1.0)
