"""Table-backed datasets, array inflation and the table-native TOUCH join.

A box dataset stores a coordinate table; its objects are a cached view.
These tests pin that the storage change is invisible: generators, the
transforms and TOUCH's one-shot join give exactly what the object model
gives, and the columnar one-shot path builds no object at all.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.bench.runner as runner
import repro.datasets.synthetic as synthetic
from repro.bench.config import RunOptions
from repro.core.distance_join import distance_join
from repro.datasets.base import Dataset
from repro.datasets.synthetic import clustered_boxes, gaussian_boxes, uniform_boxes
from repro.datasets.transform import concat, inflate, reindexed, sample_fraction
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.grid.columnar import ColumnarGrid
from repro.joins.base import JoinResult, PairArrays
from repro.joins.local import grid_kernel_columnar
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

GENERATORS = {
    "uniform": uniform_boxes,
    "gaussian": gaussian_boxes,
    "clustered": lambda n, **kw: clustered_boxes(n, n_clusters=7, **kw),
}


def _object_boxes(lows, sides, space):
    """The generators' former output: one object per row, built in Python."""
    lows = np.clip(lows, 0.0, space - sides)
    highs = lows + sides
    return [
        SpatialObject(i, MBR(lo, hi))
        for i, (lo, hi) in enumerate(zip(lows.tolist(), highs.tolist()))
    ]


def _bits(table: CoordinateTable) -> bytes:
    return table.ids.tobytes() + table.coords.tobytes()


def _object_built(dataset: Dataset) -> Dataset:
    """The same boxes as an object-built dataset."""
    return Dataset(
        [SpatialObject(o.oid, o.mbr, o.geometry) for o in dataset],
        name=dataset.name,
        universe=dataset.universe,
        metadata=dataset.metadata,
    )


class TestGenerators:
    @pytest.mark.parametrize("distribution", sorted(GENERATORS))
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [3, 20130622])
    def test_output_equals_object_construction(
        self, monkeypatch, distribution, dim, seed
    ):
        inputs = []
        original = synthetic._boxes_from_arrays

        def recording(lows, sides, space, name, metadata):
            inputs.append((lows.copy(), sides.copy(), space))
            return original(lows, sides, space, name, metadata)

        monkeypatch.setattr(synthetic, "_boxes_from_arrays", recording)
        dataset = GENERATORS[distribution](300, dim=dim, seed=seed, space=120.0)
        expected = _object_boxes(*inputs[0])
        assert dataset.table_backed
        assert len(dataset) == 300 and dataset.dim == dim
        assert [o.oid for o in dataset] == [o.oid for o in expected]
        assert [o.mbr for o in dataset] == [o.mbr for o in expected]
        assert _bits(dataset.to_table()) == _bits(CoordinateTable.from_objects(expected))

    def test_objects_are_cached(self):
        dataset = uniform_boxes(40, seed=5)
        first = dataset[3]
        assert dataset[3] is first
        assert list(dataset)[3] is first

    def test_to_table_and_from_table_are_zero_copy(self):
        dataset = uniform_boxes(40, seed=6)
        table = dataset.to_table()
        assert dataset.to_table() is table
        assert Dataset.from_table(table).to_table() is table

    def test_universe_of_undeclared_table_is_tight_bound(self):
        objects = list(uniform_boxes(60, seed=7))
        dataset = Dataset.from_table(CoordinateTable.from_objects(objects))
        assert dataset.universe == Dataset(objects).universe

    def test_geometry_count_must_match_rows(self):
        table = uniform_boxes(4, seed=8).to_table()
        with pytest.raises(ValueError, match="3 geometries for 4 table rows"):
            Dataset.from_table(table, geometries=[None] * 3)


class TestInflate:
    @pytest.mark.parametrize("epsilon", [0.5, 5.0, 1e-9, 33.25])
    def test_bit_identical_to_mbr_expand(self, epsilon):
        dataset = clustered_boxes(500, seed=11, n_clusters=9)
        expanded = CoordinateTable.from_mbrs(
            [o.mbr.expand(epsilon) for o in dataset], ids=dataset.to_table().ids
        )
        for source in (dataset, _object_built(dataset)):
            inflated = inflate(source, epsilon)
            assert inflated.table_backed
            assert _bits(inflated.to_table()) == _bits(expanded)
            assert [o.mbr for o in inflated] == [o.inflated(epsilon).mbr for o in source]
            assert inflated.universe == source.universe.expand(epsilon)

    def test_zero_epsilon_keeps_coordinates(self):
        dataset = uniform_boxes(50, seed=12)
        inflated = inflate(dataset, 0)
        assert inflated.to_table().coords is dataset.to_table().coords
        assert [o.mbr for o in inflated] == [o.mbr for o in dataset]

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        dataset = uniform_boxes(10, seed=13)
        with pytest.raises(ValueError, match="finite and non-negative"):
            inflate(dataset, epsilon)
        with pytest.raises(ValueError, match="finite and non-negative"):
            dataset[0].mbr.expand(epsilon)

    def test_nan_epsilon_join_raises(self):
        a, b = uniform_boxes(30, seed=14), uniform_boxes(30, seed=15)
        with pytest.raises(ValueError, match="nan"):
            runner.run_algorithm("TOUCH", a, b, float("nan"))
        with pytest.raises(ValueError, match="nan"):
            runner.run_algorithm("TOUCH", list(a), list(b), float("nan"))
        with pytest.raises(ValueError, match="nan"):
            distance_join(a, b, float("nan"))

    def test_geometries_survive(self):
        shapes = ["s0", None, "s2"]
        table = uniform_boxes(3, seed=16).to_table()
        inflated = inflate(Dataset.from_table(table, geometries=shapes), 1.0)
        assert [o.geometry for o in inflated] == shapes


class TestDerivation:
    @pytest.fixture
    def pair(self):
        dataset = gaussian_boxes(120, seed=21)
        return dataset, _object_built(dataset)

    @staticmethod
    def _same(left: Dataset, right: Dataset) -> None:
        assert [(o.oid, o.mbr) for o in left] == [(o.oid, o.mbr) for o in right]

    def test_slicing_and_take(self, pair):
        table, objects = pair
        for derived, reference in (
            (table[10:40], objects[10:40]),
            (table[::3], objects[::3]),
            (table.take(25), objects.take(25)),
        ):
            assert derived.table_backed
            self._same(derived, reference)

    def test_slices_share_built_objects(self, pair):
        table, _ = pair
        built = list(table)
        assert table[5:9][0] is built[5]

    def test_renamed(self, pair):
        table, objects = pair
        renamed = table.renamed("other")
        assert renamed.name == "other" and renamed.table_backed
        self._same(renamed, objects)

    def test_sample_fraction(self, pair):
        table, objects = pair
        sampled = sample_fraction(table, 0.25, seed=4)
        assert sampled.table_backed
        self._same(sampled, sample_fraction(objects, 0.25, seed=4))

    def test_sample_fraction_of_empty_dataset_names_it(self):
        with pytest.raises(ValueError, match="'nothing'"):
            sample_fraction(Dataset([], name="nothing"), 0.5)

    def test_reindexed(self, pair):
        table, objects = pair
        shifted = reindexed(table, start=1000)
        assert shifted.table_backed
        self._same(shifted, reindexed(objects, start=1000))

    def test_concat(self, pair):
        table, objects = pair
        other = uniform_boxes(30, seed=22)
        joined = concat(table, other)
        assert joined.table_backed
        self._same(joined, concat(objects, _object_built(other)))
        assert joined.universe == table.universe.union(other.universe)

    def test_concat_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="2-D"):
            concat(uniform_boxes(5, seed=23), uniform_boxes(5, dim=2, seed=24))


class TestJoinResultArrays:
    def test_arrays_and_tuples_agree(self):
        a = np.array([3, 1, 2, 1], dtype=np.int64)
        b = np.array([9, 8, 7, 6], dtype=np.int64)
        from_arrays = JoinResult("x", PairArrays(a, b), JoinStatistics())
        from_list = JoinResult("x", [(3, 9), (1, 8), (2, 7), (1, 6)], JoinStatistics())
        assert len(from_arrays) == len(from_list) == 4
        assert from_arrays.pair_set() == from_list.pair_set()
        assert from_arrays.sorted_pairs() == from_list.sorted_pairs()
        assert from_arrays.pairs == from_list.pairs

    def test_tuples_built_once(self):
        result = JoinResult(
            "x", PairArrays(np.arange(3), np.arange(3)), JoinStatistics()
        )
        assert result.pairs is result.pairs

    def test_empty(self):
        result = JoinResult("x", PairArrays.empty(), JoinStatistics())
        assert len(result) == 0 and result.pairs == [] and result.pair_set() == frozenset()


def _capture(monkeypatch):
    captured = []
    original = runner.record_from_result

    def capturing(result, *args, **kwargs):
        captured.append(result)
        return original(result, *args, **kwargs)

    monkeypatch.setattr(runner, "record_from_result", capturing)
    return captured


COUNTERS = (
    "result_pairs", "comparisons", "filtered", "node_tests", "memory_bytes",
)
EXTRAS = ("columnar_table_bytes", "local_grid_peak_bytes", "local_grid_bytes", "tree_nodes")


class TestTouchParity:
    @pytest.fixture(scope="class")
    def workload(self):
        edge = 60.0
        return (
            clustered_boxes(900, space=edge, n_clusters=20, seed=31),
            clustered_boxes(2500, space=edge, n_clusters=20, seed=32),
        )

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    @pytest.mark.parametrize("kernel", ["grid", "sweep", "nested"])
    def test_table_backed_equals_object_built(
        self, monkeypatch, workload, backend, kernel
    ):
        captured = _capture(monkeypatch)
        a, b = workload
        outcomes = []
        for inputs in ((a, b), (_object_built(a), _object_built(b)), (list(a), list(b))):
            record = runner.run_algorithm(
                "TOUCH", *inputs, 2.0,
                options=RunOptions(workers=0, backend=backend),
                local_kernel=kernel, num_partitions=64,
            )
            result = captured.pop()
            assert len(result) == record.result_pairs
            outcomes.append(
                (
                    result.pairs,
                    tuple(getattr(record, name) for name in COUNTERS),
                    tuple(record.extra.get(name) for name in EXTRAS),
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][1][0] > 0

    def test_columnar_one_shot_builds_no_object(self, monkeypatch, workload):
        captured = _capture(monkeypatch)
        options = RunOptions(workers=0, backend="columnar")
        a, b = (Dataset.from_table(d.to_table(), name=d.name) for d in workload)
        expected = runner.run_algorithm("TOUCH", list(a), list(b), 2.0, options=options)
        reference = captured.pop().pair_set()
        a, b = (Dataset.from_table(d.to_table(), name=d.name) for d in workload)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("the table-native one-shot built a SpatialObject")

        monkeypatch.setattr(SpatialObject, "__init__", forbidden)
        record = runner.run_algorithm("TOUCH", a, b, 2.0, options=options)
        result = captured.pop()
        monkeypatch.undo()
        assert record.result_pairs == expected.result_pairs
        assert record.comparisons == expected.comparisons
        assert result.pair_set() == reference


def test_local_grid_bytes_count_distinct_cells():
    """The one key sort's distinct count equals ``np.unique``'s."""
    table_a = clustered_boxes(400, space=30.0, n_clusters=4, seed=41).to_table()
    table_b = clustered_boxes(900, space=30.0, n_clusters=4, seed=42).to_table()
    stats = JoinStatistics()
    grid_kernel_columnar(table_a, table_b, stats)

    lo = np.minimum(table_a.lo.min(axis=0), table_b.lo.min(axis=0))
    hi = np.maximum(table_a.hi.max(axis=0), table_b.hi.max(axis=0))
    avg_side = float((table_b.hi - table_b.lo).sum() / (len(table_b) * table_b.dim))
    cell = max(avg_side * 4.0, float((hi - lo).max()) / 64, 1e-12)
    b_obj, b_keys = ColumnarGrid(lo, hi, cell_size=cell).entries(table_b)
    expected = memmodel.grid_cells_bytes(len(np.unique(b_keys)), len(b_obj))
    assert stats.extra["local_grid_bytes"] == expected
    assert stats.extra["local_grid_peak_bytes"] == expected


def test_benchmark_trace_hooks_stay_live(monkeypatch):
    """``perfbench/layers.py`` wraps these names to time each layer.

    On table-backed inputs the columnar TOUCH one-shot must still pass
    through every layer hook, and through neither object conversion.
    """
    import repro.core.touch as touch
    from repro.core.tree import TouchTree
    from repro.joins.base import SpatialJoinAlgorithm

    calls: dict[str, int] = {}

    def count(owner, attr):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        calls[name] = 0
        wrap = original.__func__ if isinstance(original, classmethod) else original

        def counted(*args, **kwargs):
            calls[name] += 1
            return wrap(*args, **kwargs)

        monkeypatch.setattr(
            owner, attr, classmethod(counted) if isinstance(original, classmethod) else counted
        )

    for owner, attr in [
        (runner, "inflate"),
        (touch, "assign_table_b"),
        (touch, "leaf_order_table"),
        (touch, "join_assigned_nodes_columnar"),
        (TouchTree, "__init__"),
        (SpatialJoinAlgorithm, "join"),
        (CoordinateTable, "from_objects"),
        (SpatialObject, "inflated"),
    ]:
        count(owner, attr)
    a = uniform_boxes(300, seed=51, side_range=(0.0, 20.0))
    b = uniform_boxes(900, seed=52, side_range=(0.0, 20.0))
    record = runner.run_algorithm(
        "TOUCH", a, b, 1.0, options=RunOptions(workers=0, backend="columnar")
    )
    assert record.result_pairs > 0
    converted = {"CoordinateTable.from_objects", "SpatialObject.inflated"}
    assert {name for name, n in calls.items() if n == 0} == converted
