"""The array STR and the array-built TOUCH tree against per-object STR.

``reference_str`` is the recursive per-object Sort-Tile-Recursive
packing that :func:`repro.rtree.str_pack.str_partition` used before STR
moved onto arrays, kept here verbatim as the reference.  Both
:func:`~repro.rtree.str_pack.str_order` and :class:`TouchTree` must
reproduce its groups exactly — membership *and* order — because the
object backend's comparison counters and the columnar leaf layout both
follow the bucket order.
"""

import math

import numpy as np
import pytest

from repro.core.local_join import leaf_order_table
from repro.core.tree import TouchNode, TouchTree
from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject
from repro.rtree.str_pack import str_order, str_partition


# -- the reference: per-object STR ------------------------------------------


def reference_str(items, capacity, center_of, dim):
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not items:
        return []
    return _reference_tile(list(items), capacity, center_of, 0, dim)


def _reference_tile(items, capacity, center_of, axis, dims_left):
    n = len(items)
    if n <= capacity:
        return [items]
    if dims_left <= 1:
        items.sort(key=lambda item: center_of(item)[axis])
        return [items[i : i + capacity] for i in range(0, n, capacity)]
    partitions_needed = math.ceil(n / capacity)
    slab_count = math.ceil(partitions_needed ** (1.0 / dims_left))
    slab_size = math.ceil(n / slab_count)
    items.sort(key=lambda item: center_of(item)[axis])
    groups = []
    for start in range(0, n, slab_size):
        slab = items[start : start + slab_size]
        groups.extend(
            _reference_tile(slab, capacity, center_of, axis + 1, dims_left - 1)
        )
    return groups


def reference_tree(objects, fanout, leaf_capacity):
    """Pre-order ``(level, mbr, bucket oids)`` of the per-object build."""
    dim = objects[0].mbr.dim
    buckets = reference_str(objects, leaf_capacity, lambda o: o.mbr.center(), dim)
    nodes = [
        TouchNode(total_mbr(o.mbr for o in bucket), level=0, entities_a=bucket)
        for bucket in buckets
    ]
    level = 0
    while len(nodes) > 1:
        level += 1
        groups = reference_str(nodes, fanout, lambda n: n.mbr.center(), dim)
        nodes = [
            TouchNode(total_mbr(n.mbr for n in group), level=level, children=group)
            for group in groups
        ]
    return layout(nodes[0].iter_subtree())


def layout(nodes):
    return [
        (node.level, node.mbr, [obj.oid for obj in node.entities_a])
        for node in nodes
    ]


def center(obj):
    return obj.mbr.center()


# -- inputs -----------------------------------------------------------------


def tied_objects():
    """Many equal centers (three stacked boxes per x) and exact duplicates."""
    objects = [
        SpatialObject(i, MBR((float(i % 5), 0.0), (float(i % 5) + 1.0, 1.0)))
        for i in range(40)
    ]
    objects += [SpatialObject(40 + i, MBR((2.0, 2.0), (3.0, 3.0))) for i in range(25)]
    # Different boxes, same center.
    objects += [
        SpatialObject(65 + i, MBR((2.0 - i, 2.0 - i), (3.0 + i, 3.0 + i)))
        for i in range(10)
    ]
    return objects


def datasets():
    yield "uniform-1d", list(uniform_boxes(150, seed=1, dim=1))
    yield "uniform-2d", list(uniform_boxes(300, seed=2, dim=2))
    yield "uniform-3d", list(uniform_boxes(400, seed=3, dim=3))
    yield "clustered-3d", list(clustered_boxes(500, seed=4))
    yield "ties", tied_objects()


DATASETS = dict(datasets())


# -- str_partition / str_order ----------------------------------------------


class TestArrayStrMatchesReference:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("capacity", [1, 2, 3, 8, 31])
    def test_same_groups_in_same_order(self, name, capacity):
        objects = DATASETS[name]
        dim = objects[0].mbr.dim
        expected = reference_str(objects, capacity, center, dim)
        got = str_partition(objects, capacity, center, dim)
        assert [[o.oid for o in g] for g in got] == [
            [o.oid for o in g] for g in expected
        ]

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_str_order_is_the_flat_layout(self, name):
        objects = DATASETS[name]
        dim = objects[0].mbr.dim
        centers = np.array([o.mbr.center() for o in objects])
        order, starts = str_order(centers, 4)
        expected = reference_str(objects, 4, center, dim)
        assert order.tolist() == [o.oid for g in expected for o in g]
        sizes = np.diff(np.append(starts, len(order))).tolist()
        assert sizes == [len(g) for g in expected]

    @pytest.mark.parametrize("n", [1, 5, 8])
    def test_at_or_under_capacity_is_one_unsorted_group(self, n):
        objects = list(uniform_boxes(n, seed=9, dim=3))
        got = str_partition(objects, 8, center, 3)
        assert [[o.oid for o in g] for g in got] == [list(range(n))]

    def test_empty_and_bad_capacity(self):
        order, starts = str_order(np.empty((0, 2)), 3)
        assert len(order) == 0 and len(starts) == 0
        with pytest.raises(ValueError, match=">= 1"):
            str_order(np.zeros((3, 2)), 0)


# -- the array-built TOUCH tree ---------------------------------------------


class TestTreeMatchesReference:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("fanout", [2, 8])
    @pytest.mark.parametrize("num_partitions", [None, 1, 7, 64])
    def test_buckets_and_nodes(self, name, fanout, num_partitions):
        objects = DATASETS[name]
        tree = TouchTree(objects, fanout=fanout, num_partitions=num_partitions)
        assert layout(tree.iter_nodes()) == reference_tree(
            objects, fanout, tree.leaf_capacity
        )

    def test_capacity_above_n_is_a_single_leaf(self):
        objects = list(uniform_boxes(6, seed=11, dim=2))
        tree = TouchTree(objects, leaf_capacity=10)
        assert tree.height == 1
        assert [o.oid for o in tree.root.entities_a] == list(range(6))

    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("fanout", [2, 8])
    def test_leaf_order_table_equals_leaf_by_leaf_build(self, name, fanout):
        tree = TouchTree(DATASETS[name], fanout=fanout, num_partitions=16)
        table, flat = leaf_order_table(tree)
        slices = tree.leaf_slices
        rows = []
        expected_slices = []
        for leaf in tree.leaves():
            expected_slices.append((len(rows), len(rows) + len(leaf.entities_a)))
            rows.extend(leaf.entities_a)
        expected = CoordinateTable.from_objects(rows)
        assert np.array_equal(table.coords, expected.coords)
        assert np.array_equal(table.ids, expected.ids)
        assert [slices[leaf] for leaf in tree.leaves()] == expected_slices
        assert flat.sub_stop[0] - flat.sub_start[0] == len(rows)


class TestMixedDimensionality:
    def test_tree_names_the_object_and_both_dims(self):
        objects = [
            SpatialObject(3, MBR((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))),
            SpatialObject(4, MBR((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))),
            SpatialObject(9, MBR((0.0, 0.0), (1.0, 1.0))),
        ]
        with pytest.raises(ValueError, match=r"#9 is 2-D.*#3 .* 3-D"):
            TouchTree(objects)
