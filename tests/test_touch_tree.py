"""TOUCH phase 1: the hierarchical data-oriented partitioning tree."""

import math

import pytest

from repro.core.tree import TouchNode, TouchTree
from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.mbr import MBR
from repro.geometry.objects import box_object

OBJECTS = list(uniform_boxes(200, seed=81))


class TestConstruction:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            TouchTree([])

    def test_rejects_small_fanout(self):
        with pytest.raises(ValueError, match="fanout"):
            TouchTree(OBJECTS, fanout=1)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError, match="num_partitions"):
            TouchTree(OBJECTS, num_partitions=0)

    def test_rejects_bad_leaf_capacity(self):
        with pytest.raises(ValueError, match="leaf_capacity"):
            TouchTree(OBJECTS, leaf_capacity=0)

    def test_partition_count_determines_bucket_size(self):
        tree = TouchTree(OBJECTS, num_partitions=50)
        assert tree.leaf_capacity == math.ceil(200 / 50)

    def test_leaf_capacity_overrides_partitions(self):
        tree = TouchTree(OBJECTS, num_partitions=50, leaf_capacity=25)
        assert tree.leaf_capacity == 25

    def test_single_bucket_tree(self):
        tree = TouchTree(OBJECTS[:5], leaf_capacity=10)
        assert tree.height == 1
        assert tree.root.is_leaf
        assert len(tree.root.entities_a) == 5


class TestStructure:
    def test_all_objects_in_leaves_exactly_once(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        stored = sorted(o.oid for o in tree.root.iter_leaf_objects())
        assert stored == list(range(200))

    def test_leaf_buckets_bounded(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        for leaf in tree.leaves():
            assert 1 <= len(leaf.entities_a) <= tree.leaf_capacity

    def test_mbrs_enclose_children(self):
        tree = TouchTree(OBJECTS, num_partitions=32, fanout=3)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for obj in node.entities_a:
                    assert node.mbr.contains(obj.mbr)
            else:
                for child in node.children:
                    assert node.mbr.contains(child.mbr)

    def test_fanout_respected(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert len(node.children) <= 2

    def test_smaller_fanout_taller_tree(self):
        """§5.2.1: the smaller the fanout, the higher the tree."""
        tall = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        flat = TouchTree(OBJECTS, num_partitions=64, fanout=16)
        assert tall.height > flat.height

    def test_levels_consistent(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        for node in tree.iter_nodes():
            for child in node.children:
                assert child.level == node.level - 1
        assert all(leaf.level == 0 for leaf in tree.leaves())

    def test_entities_b_start_empty(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        assert tree.assigned_b_count() == 0
        assert all(node.entities_b == [] for node in tree.iter_nodes())

    def test_str_buckets_are_tight_on_clustered_data(self):
        clustered = list(clustered_boxes(300, seed=82, n_clusters=5, cluster_sigma=20.0))
        tree = TouchTree(clustered, num_partitions=30)
        universe_volume = 1000.0**3
        total_leaf_volume = sum(leaf.mbr.volume() for leaf in tree.leaves())
        # STR buckets on 5 tight clusters must cover a small fraction of
        # the universe (slab cuts can still produce a few long slivers).
        assert total_leaf_volume < universe_volume / 5


class TestAccounting:
    def test_memory_includes_b_assignments(self):
        tree = TouchTree(OBJECTS, num_partitions=32)
        before = tree.memory_bytes()
        tree.root.entities_b.append(box_object(0, (0, 0, 0), (1, 1, 1)))
        assert tree.memory_bytes() > before

    @pytest.mark.parametrize("fanout", [2, 8])
    @pytest.mark.parametrize("partitions", [1, 7, 64])
    def test_build_time_figures_match_a_walk(self, fanout, partitions):
        from repro.stats import memory as memmodel

        tree = TouchTree(OBJECTS, num_partitions=partitions, fanout=fanout)
        walked = sum(1 for _ in tree.iter_nodes())
        assert tree.node_count() == walked
        assert tree.index_bytes == tree.memory_bytes() == (
            walked * memmodel.node_bytes(tree.dim, fanout)
            + memmodel.reference_list_bytes(len(OBJECTS))
        )

    def test_node_count_and_height(self):
        tree = TouchTree(OBJECTS, num_partitions=64, fanout=2)
        assert tree.node_count() >= 64
        assert tree.height >= 7  # 64 leaves, fanout 2

    def test_repr(self):
        node = TouchNode(MBR((0, 0), (1, 1)), level=0)
        assert "level=0" in repr(node)


class TestColumnarBuildsNoNodes:
    """The columnar phases read the tree's arrays; nodes are a lazy view."""

    @staticmethod
    def _count(monkeypatch):
        """Count every ``TouchNode``, and every ``MBR.trusted`` made while
        a TOUCH join or prepare runs (the front door's own boxes, such as
        the inflated build side's universe, are not TOUCH's)."""
        from repro.core.touch import TouchJoin

        counts = {"nodes": 0, "mbrs": 0}
        inside = []
        node_init = TouchNode.__init__
        trusted = MBR.trusted.__func__

        def counting_init(self, *args, **kwargs):
            counts["nodes"] += 1
            node_init(self, *args, **kwargs)

        def counting_trusted(cls, lo, hi):
            counts["mbrs"] += bool(inside)
            return trusted(cls, lo, hi)

        def scoped(method):
            def run(*args, **kwargs):
                inside.append(True)
                try:
                    return method(*args, **kwargs)
                finally:
                    inside.pop()

            return run

        monkeypatch.setattr(TouchNode, "__init__", counting_init)
        monkeypatch.setattr(MBR, "trusted", classmethod(counting_trusted))
        monkeypatch.setattr(TouchJoin, "join", scoped(TouchJoin.join))
        monkeypatch.setattr(TouchJoin, "prepare", scoped(TouchJoin.prepare))
        return counts

    def test_one_shot_and_prepare(self, monkeypatch):
        from repro.bench.config import RunOptions
        from repro.bench.runner import run_algorithm
        from repro.core.touch import TouchJoin

        a = uniform_boxes(400, space=30.0, side_range=(0.5, 2.0), seed=82)
        b = uniform_boxes(300, space=30.0, side_range=(0.5, 2.0), seed=83)
        objects_a = list(a)
        counts = self._count(monkeypatch)
        record = run_algorithm(
            "TOUCH", a, b, 1.0, options=RunOptions(workers=0, backend="columnar")
        )
        index = TouchJoin(backend="columnar").prepare(objects_a)
        assert record.result_pairs > 0 and record.extra["backend"] == "columnar"
        assert counts == {"nodes": 0, "mbrs": 0}
        # The object view is still there on demand, built once.
        tree = index.payload["tree"]
        assert sum(1 for _ in tree.iter_nodes()) == tree.node_count()
        assert counts["nodes"] == tree.node_count()
        tree.leaves()
        assert counts["nodes"] == tree.node_count()


class TestPhaseTimers:
    def test_assign_seconds_exclude_the_hierarchy_build(self, monkeypatch):
        import time

        from repro.core.touch import TouchJoin
        from repro.geometry.hierarchy import FlatHierarchy

        delay = 0.2
        flat_init = FlatHierarchy.__init__

        def slow_init(self, *args, **kwargs):
            time.sleep(delay)
            flat_init(self, *args, **kwargs)

        monkeypatch.setattr(FlatHierarchy, "__init__", slow_init)
        a = list(uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=84))
        b = list(uniform_boxes(100, space=20.0, side_range=(0.5, 2.0), seed=85))
        stats = TouchJoin(backend="columnar").join(a, b).stats
        assert stats.build_seconds >= delay
        assert stats.assign_seconds < delay
