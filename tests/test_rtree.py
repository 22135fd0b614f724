"""Unit tests for the bulk-loaded R-Tree substrate."""

import pytest

from repro.datasets.synthetic import uniform_boxes
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject, box_object
from repro.rtree.rtree import RTree
from repro.stats.counters import JoinStatistics


class TestConstruction:
    def test_empty_tree(self):
        tree = RTree([])
        assert tree.root is None
        assert tree.height == 0
        assert tree.query(MBR((0, 0), (1, 1))) == []
        assert tree.memory_bytes() == 0

    def test_single_object(self):
        obj = box_object(1, (0, 0), (1, 1))
        tree = RTree([obj])
        assert tree.height == 1
        assert tree.root.is_leaf
        assert tree.root.mbr == obj.mbr

    def test_rejects_small_fanout(self):
        with pytest.raises(ValueError, match="fanout"):
            RTree([], fanout=1)

    def test_rejects_bad_leaf_capacity(self):
        with pytest.raises(ValueError, match="leaf_capacity"):
            RTree([], leaf_capacity=0)

    def test_rejects_unknown_method(self):
        objs = list(uniform_boxes(10, seed=1))
        with pytest.raises(ValueError, match="packing method"):
            RTree(objs, method="zorder")

    def test_leaf_capacity_defaults_to_fanout(self):
        objs = list(uniform_boxes(64, seed=1))
        tree = RTree(objs, fanout=4)
        assert all(
            len(node.objects) <= 4 for node in tree.iter_nodes() if node.is_leaf
        )

    @pytest.mark.parametrize("method", ["str", "hilbert"])
    def test_all_objects_in_leaves(self, method):
        objs = list(uniform_boxes(100, seed=2))
        tree = RTree(objs, fanout=4, method=method)
        stored = sorted(o.oid for o in tree.root.iter_leaf_objects())
        assert stored == list(range(100))

    @pytest.mark.parametrize("method", ["str", "hilbert"])
    def test_node_mbrs_enclose_children(self, method):
        objs = list(uniform_boxes(120, seed=3))
        tree = RTree(objs, fanout=3, method=method)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for obj in node.objects:
                    assert node.mbr.contains(obj.mbr)
            else:
                for child in node.children:
                    assert node.mbr.contains(child.mbr)

    def test_fanout_bounds_children(self):
        objs = list(uniform_boxes(200, seed=4))
        tree = RTree(objs, fanout=5)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert 1 <= len(node.children) <= 5

    def test_levels_decrease_towards_leaves(self):
        objs = list(uniform_boxes(50, seed=5))
        tree = RTree(objs, fanout=2)
        for node in tree.iter_nodes():
            for child in node.children:
                assert child.level == node.level - 1

    def test_height_grows_logarithmically(self):
        small = RTree(list(uniform_boxes(16, seed=6)), fanout=2)
        large = RTree(list(uniform_boxes(256, seed=7)), fanout=2)
        assert large.height > small.height

    def test_counts(self):
        objs = list(uniform_boxes(64, seed=8))
        tree = RTree(objs, fanout=2)
        assert tree.leaf_count() == 32
        assert tree.node_count() >= 63  # at least a full binary tree


class TestQuery:
    def test_query_finds_exactly_intersecting(self):
        objs = list(uniform_boxes(300, seed=9))
        tree = RTree(objs, fanout=4)
        query = MBR((100.0, 100.0, 100.0), (300.0, 300.0, 300.0))
        expected = {o.oid for o in objs if query.intersects(o.mbr)}
        got = {o.oid for o in tree.query(query)}
        assert got == expected

    def test_query_counts_statistics(self):
        objs = list(uniform_boxes(100, seed=10))
        tree = RTree(objs, fanout=2)
        stats = JoinStatistics()
        tree.query(MBR((0, 0, 0), (1000, 1000, 1000)), stats)
        # A full-universe query visits every leaf: one comparison per object.
        assert stats.comparisons == 100
        assert stats.node_tests > 0

    def test_query_empty_region(self):
        objs = list(uniform_boxes(100, seed=11))
        tree = RTree(objs, fanout=4)
        assert tree.query(MBR((2000, 2000, 2000), (2001, 2001, 2001))) == []

    def test_query_with_duplicated_mbrs(self):
        mbr = MBR((1.0, 1.0), (2.0, 2.0))
        objs = [SpatialObject(i, mbr) for i in range(10)]
        tree = RTree(objs, fanout=2)
        assert len(tree.query(mbr)) == 10


class TestMemory:
    def test_memory_grows_with_objects(self):
        small = RTree(list(uniform_boxes(32, seed=12)), fanout=2)
        large = RTree(list(uniform_boxes(512, seed=13)), fanout=2)
        assert large.memory_bytes() > small.memory_bytes()

    @pytest.mark.parametrize("method", ["str", "hilbert"])
    @pytest.mark.parametrize("fanout", [2, 8])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_build_time_count_matches_a_walk(self, method, fanout, n):
        from repro.stats import memory as memmodel

        objs = list(uniform_boxes(n, seed=15)) if n else []
        tree = RTree(objs, fanout=fanout, method=method)
        walked = sum(1 for _ in tree.iter_nodes())
        assert tree.node_count() == walked
        expected = (
            walked * memmodel.node_bytes(tree.dim, fanout)
            + memmodel.reference_list_bytes(n)
            if n
            else 0
        )
        assert tree.memory_bytes() == expected

    def test_smaller_fanout_means_more_nodes(self):
        objs = list(uniform_boxes(256, seed=14))
        assert RTree(objs, fanout=2).node_count() > RTree(objs, fanout=8).node_count()
