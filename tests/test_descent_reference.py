"""The frontier passes of TOUCH over the flat hierarchy, against references.

``reference_probe`` is the stack-based ``probe_assigned_nodes_columnar``
that TOUCH probes ran before the descent moved onto the flattened
hierarchy, kept here verbatim as the reference.  The level-synchronous
descent must report the same pairs (multiplicity included) and the same
``comparisons`` and ``node_tests``, whatever the chunk size.
``reference_assign`` is the ``TouchNode``-stack ``assign_table_b`` the
columnar phases ran before assignment moved onto the flat hierarchy; the
flat assignment must land every B row in the same node as it and as the
scalar ``locate_node``, with the same ``filtered``, and count the same
``node_tests`` as the stack walk.
``reference_flatten`` is the per-node aggregation ``flatten_hierarchy``
used before it became one numpy pass per level.
``reference_build`` and ``reference_flatten_hierarchy`` are the
``TouchNode``-by-``TouchNode`` tree build and its lowering to flat
arrays that TOUCH ran before the tree was built as arrays straight from
the STR levels; the array build must reproduce all six arrays, the leaf
table and the tree figures bit for bit.
"""

import numpy as np
import pytest

from repro.core.assignment import assign_table_b, locate_node
from repro.core.local_join import leaf_order_table, probe_assigned_nodes_columnar
from repro.core.touch import TouchJoin
from repro.core.tree import TouchNode, TouchTree
from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry import hierarchy
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.rtree.str_pack import str_order
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics


# -- the reference: stack-walk probe ----------------------------------------


def reference_probe(table_a, leaf_slices, table_b, assigned, stats):
    pairs = []
    ids_a, ids_b = table_a.ids, table_b.ids
    lo_b, hi_b = table_b.lo, table_b.hi
    comparisons = 0
    node_tests = 0
    for node, b_rows in assigned.items():
        stack = [(node, np.asarray(b_rows))]
        while stack:
            current, rows = stack.pop()
            if len(rows) == 0:
                continue
            if current.is_leaf:
                start, stop = leaf_slices[current]
                if stop == start:
                    continue
                comparisons += (stop - start) * len(rows)
                hit = np.nonzero(
                    (table_a.lo[start:stop, None, :] <= hi_b[rows][None, :, :]).all(
                        axis=2
                    )
                    & (table_a.hi[start:stop, None, :] >= lo_b[rows][None, :, :]).all(
                        axis=2
                    )
                )
                if len(hit[0]):
                    oid_a = ids_a[start + hit[0]]
                    oid_b = ids_b[rows[hit[1]]]
                    pairs.extend(zip(oid_a.tolist(), oid_b.tolist()))
                continue
            children = current.children
            child_lo = np.array([c.mbr.lo for c in children])
            child_hi = np.array([c.mbr.hi for c in children])
            overlap = (lo_b[rows][:, None, :] <= child_hi[None, :, :]).all(axis=2) & (
                hi_b[rows][:, None, :] >= child_lo[None, :, :]
            ).all(axis=2)
            node_tests += len(rows) * len(children)
            for index, child in enumerate(children):
                stack.append((child, rows[overlap[:, index]]))
    stats.comparisons += comparisons
    stats.node_tests += node_tests
    return pairs


# -- the reference: TouchNode-stack assignment -------------------------------


def reference_assign(tree, table_b, stats):
    """``{node: B rows}`` for every node that received rows."""
    n = len(table_b)
    assigned = {}
    if n == 0:
        return assigned
    lo, hi = table_b.lo, table_b.hi
    node_tests = n  # every object is tested against the root MBR
    root = tree.root
    root_lo = np.asarray(root.mbr.lo)
    root_hi = np.asarray(root.mbr.hi)
    in_root = (lo <= root_hi).all(axis=1) & (hi >= root_lo).all(axis=1)
    filtered = int(n - in_root.sum())

    stack = [(root, np.nonzero(in_root)[0])]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        if node.is_leaf:
            assigned[node] = rows
            continue
        children = node.children
        child_lo = np.array([c.mbr.lo for c in children])
        child_hi = np.array([c.mbr.hi for c in children])
        overlap = (lo[rows][:, None, :] <= child_hi[None, :, :]).all(axis=2) & (
            hi[rows][:, None, :] >= child_lo[None, :, :]
        ).all(axis=2)
        node_tests += len(rows) * len(children)
        hits = overlap.sum(axis=1)
        filtered += int((hits == 0).sum())
        several = hits >= 2
        if several.any():
            assigned[node] = rows[several]
        single = hits == 1
        if single.any():
            child_of = overlap[single].argmax(axis=1)
            single_rows = rows[single]
            for index, child in enumerate(children):
                routed = single_rows[child_of == index]
                if len(routed):
                    stack.append((child, routed))

    stats.node_tests += node_tests
    stats.filtered += filtered
    return assigned


def reference_flatten(tree, leaf_slices):
    """Per-node ``(sub_start, sub_stop)`` in pre-order."""

    def walk(node):
        if node.is_leaf:
            return leaf_slices[node]
        parts = [walk(child) for child in node.children]
        return min(p[0] for p in parts), max(p[1] for p in parts)

    return [walk(node) for node in tree.iter_nodes()]


# -- the reference: node-by-node build and flatten_hierarchy ----------------


def _group_bounds(lo, hi, order, starts):
    return (
        np.minimum.reduceat(lo[order], starts, axis=0),
        np.maximum.reduceat(hi[order], starts, axis=0),
    )


def _mbrs(lo, hi):
    return [
        MBR.trusted(tuple(row_lo), tuple(row_hi))
        for row_lo, row_hi in zip(lo.tolist(), hi.tolist())
    ]


def reference_build(objects, table, fanout, leaf_capacity):
    """``(root, leaf_slices, leaf_table, node_count)`` of the node build."""
    leaf_order, starts = str_order((table.lo + table.hi) / 2.0, leaf_capacity)
    bounds = [*starts.tolist(), len(leaf_order)]
    ranges = list(zip(bounds, bounds[1:]))
    lo, hi = _group_bounds(table.lo, table.hi, leaf_order, starts)
    if objects is None:
        nodes = [TouchNode(mbr, level=0) for mbr in _mbrs(lo, hi)]
    else:
        rows = leaf_order.tolist()
        nodes = [
            TouchNode(mbr, level=0, entities_a=[objects[row] for row in rows[a:b]])
            for mbr, (a, b) in zip(_mbrs(lo, hi), ranges)
        ]
    leaf_ranges = dict(zip(nodes, ranges))
    level = 0
    while len(nodes) > 1:
        level += 1
        order, starts = str_order((lo + hi) / 2.0, fanout)
        lo, hi = _group_bounds(lo, hi, order, starts)
        grouped = [nodes[i] for i in order.tolist()]
        bounds = [*starts.tolist(), len(grouped)]
        nodes = [
            TouchNode(mbr, level=level, children=grouped[a:b])
            for mbr, a, b in zip(_mbrs(lo, hi), bounds, bounds[1:])
        ]
    root = nodes[0]

    pieces = []
    leaf_slices = {}
    stop = 0
    node_count = 0
    for node in root.iter_subtree():
        node_count += 1
        if node.is_leaf:
            a, b = leaf_ranges[node]
            leaf_slices[node] = (stop, stop + b - a)
            stop += b - a
            pieces.append(leaf_order[a:b])
    leaf_table = table.take(np.concatenate(pieces))
    return root, leaf_slices, leaf_table, node_count


def reference_flatten_hierarchy(root, leaf_slices):
    """The six flat arrays, lowered from the nodes in pre-order."""
    nodes = list(root.iter_subtree())
    count = len(nodes)
    index = {node: position for position, node in enumerate(nodes)}
    corners = CoordinateTable.from_mbrs([node.mbr for node in nodes])
    level = np.fromiter((node.level for node in nodes), np.int64, count)
    fan = np.fromiter((len(node.children) for node in nodes), np.int64, count)
    children_ptr = np.concatenate(([0], np.cumsum(fan)))
    children_idx = np.fromiter(
        (index[child] for node in nodes for child in node.children),
        np.int64,
        int(children_ptr[-1]),
    )
    leaves = np.flatnonzero(level == 0)
    spans = np.fromiter(
        (row for i in leaves.tolist() for row in leaf_slices[nodes[i]]),
        np.int64,
        2 * len(leaves),
    )
    sub_start = np.zeros(count, dtype=np.int64)
    sub_stop = np.zeros(count, dtype=np.int64)
    sub_start[leaves], sub_stop[leaves] = spans[0::2], spans[1::2]
    inner = np.flatnonzero(fan)
    runs = children_ptr[inner]
    for step in range(1, int(level.max()) + 1):
        at = level[inner] == step
        settle = inner[at]
        sub_start[settle] = np.minimum.reduceat(sub_start[children_idx], runs)[at]
        sub_stop[settle] = np.maximum.reduceat(sub_stop[children_idx], runs)[at]
    return (
        np.ascontiguousarray(corners.lo),
        np.ascontiguousarray(corners.hi),
        children_ptr,
        children_idx,
        sub_start,
        sub_stop,
    )


# -- fixtures ---------------------------------------------------------------


def _objects(coords):
    dim = coords.shape[1] // 2
    return [
        SpatialObject(oid, MBR(tuple(row[:dim]), tuple(row[dim:])))
        for oid, row in enumerate(coords.tolist())
    ]


def _zero_width(n, dim, seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 20.0, size=(n, dim))
    hi = lo.copy()
    # Half the boxes are points, the rest are flat in one dimension.
    hi[n // 2 :, 1:] += rng.uniform(0.0, 2.0, size=(n - n // 2, dim - 1))
    return np.hstack([lo, hi])


def _table(objects):
    return CoordinateTable.from_objects(list(objects))


def _node_index(tree):
    """Flat index of every view node: its position in ``iter_nodes()``."""
    return {node: position for position, node in enumerate(tree.iter_nodes())}


def _flat_assign(tree, table_b, stats):
    """The flat assignment, keyed by ``TouchNode`` as the reference probe takes it."""
    nodes, rows = assign_table_b(tree.flat, table_b, stats)
    by_index = list(tree.iter_nodes())
    return {by_index[node]: rows[nodes == node] for node in np.unique(nodes).tolist()}


def _compare(tree, table_b, assigned):
    table_a, flat = leaf_order_table(tree)
    index = _node_index(tree)
    want_stats, got_stats = JoinStatistics(), JoinStatistics()
    want = reference_probe(table_a, tree.leaf_slices, table_b, assigned, want_stats)
    seeds = np.repeat(
        np.array([index[node] for node in assigned], dtype=np.int64),
        [len(rows) for rows in assigned.values()],
    )
    rows = np.concatenate([np.empty(0, dtype=np.int64), *assigned.values()])
    got = probe_assigned_nodes_columnar(flat, table_a, table_b, seeds, rows, got_stats)
    assert sorted(got) == sorted(want)
    assert got_stats.comparisons == want_stats.comparisons
    assert got_stats.node_tests == want_stats.node_tests
    return got, got_stats


@pytest.fixture(params=[None, 1, 7], ids=["chunk-default", "chunk-1", "chunk-7"])
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(hierarchy, "CHUNK_DESCENT_PAIRS", request.param)
    return request.param


# -- descent == stack walk --------------------------------------------------


class TestDescentMatchesStackWalk:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fanout", [2, 8])
    def test_assigned_probe(self, chunk, dim, fanout):
        a = uniform_boxes(300, space=20.0, dim=dim, side_range=(0.2, 2.0), seed=31)
        b = uniform_boxes(120, space=24.0, dim=dim, side_range=(0.2, 4.0), seed=32)
        tree = TouchTree(list(a), fanout=fanout, num_partitions=40)
        table_b = _table(b)
        stats = JoinStatistics()
        assigned = _flat_assign(tree, table_b, stats)
        got, _ = _compare(tree, table_b, assigned)
        assert got

    @pytest.mark.parametrize("fanout", [2, 8])
    def test_seeds_at_root_internal_nodes_and_leaves(self, chunk, fanout):
        a = clustered_boxes(250, space=20.0, n_clusters=6, seed=33)
        b = uniform_boxes(90, space=20.0, side_range=(0.5, 5.0), seed=34)
        tree = TouchTree(list(a), fanout=fanout, num_partitions=30)
        nodes = list(tree.iter_nodes())
        internal = [node for node in nodes if not node.is_leaf and node is not tree.root]
        leaves = [node for node in nodes if node.is_leaf]
        assert internal and leaves
        rows = np.arange(90, dtype=np.int64)
        assigned = {
            tree.root: rows[0:30],
            internal[len(internal) // 2]: rows[30:60],
            leaves[len(leaves) // 3]: rows[60:80],
            leaves[-1]: rows[80:90],
        }
        _compare(tree, _table(b), assigned)

    def test_filtered_rows_stay_out(self, chunk):
        a = uniform_boxes(200, space=10.0, dim=2, side_range=(0.1, 1.0), seed=35)
        b = uniform_boxes(100, space=40.0, dim=2, side_range=(0.1, 1.0), seed=36)
        tree = TouchTree(list(a), fanout=2, num_partitions=25)
        table_b = _table(b)
        stats = JoinStatistics()
        assigned = _flat_assign(tree, table_b, stats)
        assert stats.filtered > 0
        got, _ = _compare(tree, table_b, assigned)
        kept = {int(row) for rows in assigned.values() for row in rows}
        assert {oid_b for _, oid_b in got} <= {int(table_b.ids[r]) for r in kept}

    def test_empty_assignment(self, chunk):
        tree = TouchTree(list(uniform_boxes(50, seed=37)), num_partitions=8)
        got, stats = _compare(tree, _table(uniform_boxes(5, seed=38)), {})
        assert got == [] and stats.comparisons == 0 and stats.node_tests == 0

    def test_empty_row_blocks(self, chunk):
        tree = TouchTree(list(uniform_boxes(50, seed=37)), num_partitions=8)
        empty = np.empty(0, dtype=np.int64)
        got, stats = _compare(
            tree, _table(uniform_boxes(5, seed=38)), {tree.root: empty}
        )
        assert got == [] and stats.comparisons == 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_single_leaf_tree(self, chunk, dim):
        a = uniform_boxes(40, space=5.0, dim=dim, side_range=(0.5, 2.0), seed=39)
        b = uniform_boxes(30, space=5.0, dim=dim, side_range=(0.5, 2.0), seed=40)
        tree = TouchTree(list(a), leaf_capacity=64)
        assert tree.height == 1
        table_b = _table(b)
        assigned = _flat_assign(tree, table_b, JoinStatistics())
        got, stats = _compare(tree, table_b, assigned)
        assert stats.node_tests == 0 and got

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fanout", [2, 8])
    def test_zero_width_boxes(self, chunk, dim, fanout):
        objects_a = _objects(_zero_width(160, dim, seed=41))
        coords_b = _zero_width(60, dim, seed=42)
        # Some probes sit exactly on A points: closed boxes must touch.
        coords_b[:10] = np.array([o.mbr.lo + o.mbr.lo for o in objects_a[:10]])
        tree = TouchTree(objects_a, fanout=fanout, num_partitions=20)
        table_b = CoordinateTable(coords_b, np.arange(60, dtype=np.int64))
        rows = np.arange(60, dtype=np.int64)
        got, _ = _compare(tree, table_b, {tree.root: rows})
        assert {(i, i) for i in range(10)} <= set(got)

    @pytest.mark.parametrize("fanout", [2, 8])
    def test_probe_covering_the_universe(self, chunk, fanout):
        a = list(uniform_boxes(150, space=20.0, dim=3, side_range=(0.2, 2.0), seed=43))
        tree = TouchTree(a, fanout=fanout, num_partitions=20)
        table_b = CoordinateTable(
            np.array([[-1.0] * 3 + [21.0] * 3]), np.array([7], dtype=np.int64)
        )
        assigned = _flat_assign(tree, table_b, JoinStatistics())
        got, stats = _compare(tree, table_b, assigned)
        assert sorted(got) == [(obj.oid, 7) for obj in sorted(a, key=lambda o: o.oid)]
        assert stats.comparisons == len(a)

    @pytest.mark.parametrize(
        "probe_side", [(0.5, 2.0), (6.0, 18.0)], ids=["thin", "fat"]
    )
    def test_prepared_index_probe(self, chunk, probe_side):
        # The hierarchy TOUCH's prepare() builds, with its default
        # fanout and partitioning; fat probes cover whole subtrees.
        a = list(uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=21))
        b = uniform_boxes(200, space=20.0, side_range=probe_side, seed=77)
        tree = TouchJoin(backend="columnar").prepare(a).payload["tree"]
        table_b = _table(b)
        assigned = _flat_assign(tree, table_b, JoinStatistics())
        got, _ = _compare(tree, table_b, assigned)
        assert got


# -- flat assignment == TouchNode stack == scalar walk -----------------------


def _check_assignment(tree, table_b, objects_b):
    """Land every B row three ways; returns the flat landing per row."""
    flat = tree.flat
    index = _node_index(tree)
    n = len(table_b)

    flat_stats = JoinStatistics()
    nodes, rows = assign_table_b(flat, table_b, flat_stats)
    assert len(np.unique(rows)) == len(rows)  # single assignment (Lemma 3)
    for node in np.unique(nodes).tolist():
        assert np.all(np.diff(rows[nodes == node]) > 0)  # table order kept
    got = np.full(n, -1, dtype=np.int64)
    got[rows] = nodes

    ref_stats = JoinStatistics()
    want = np.full(n, -1, dtype=np.int64)
    for node, node_rows in reference_assign(tree, table_b, ref_stats).items():
        want[node_rows] = index[node]

    scalar_stats = JoinStatistics()
    scalar = np.full(n, -1, dtype=np.int64)
    for row, obj in enumerate(objects_b):
        node = locate_node(tree.root, obj.mbr, scalar_stats)
        if node is not None:
            scalar[row] = index[node]
        else:
            scalar_stats.filtered += 1

    assert got.tolist() == want.tolist() == scalar.tolist()
    assert flat_stats.filtered == ref_stats.filtered == scalar_stats.filtered
    # The scalar walk stops testing children at the second hit; the
    # batched passes test them all.
    assert flat_stats.node_tests == ref_stats.node_tests >= scalar_stats.node_tests
    return got


class TestFlatAssignmentMatchesReferences:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fanout", [2, 8])
    def test_uniform(self, chunk, dim, fanout):
        a = uniform_boxes(300, space=20.0, dim=dim, side_range=(0.2, 2.0), seed=51)
        b = list(uniform_boxes(200, space=26.0, dim=dim, side_range=(0.2, 4.0), seed=52))
        tree = TouchTree(list(a), fanout=fanout, num_partitions=40)
        landed = _check_assignment(tree, _table(b), b)
        # Rows land at the root, at inner nodes, at leaves and nowhere.
        assert {-1, 0} <= set(landed.tolist())
        assert (landed > 0).any()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_single_leaf_tree(self, chunk, dim):
        a = uniform_boxes(40, space=5.0, dim=dim, side_range=(0.5, 2.0), seed=53)
        b = list(uniform_boxes(30, space=8.0, dim=dim, side_range=(0.5, 2.0), seed=54))
        tree = TouchTree(list(a), leaf_capacity=64)
        assert tree.height == 1
        landed = _check_assignment(tree, _table(b), b)
        assert set(landed.tolist()) == {-1, 0}

    @pytest.mark.parametrize("fanout", [2, 8])
    def test_dead_space_filtered_below_the_root(self, chunk, fanout):
        # Two clusters in opposite corners: the root spans the empty gap
        # between them, which no child covers.
        near = uniform_boxes(60, space=4.0, dim=2, side_range=(0.1, 0.5), seed=55)
        far = [
            SpatialObject(
                100 + obj.oid,
                MBR(tuple(c + 16.0 for c in obj.mbr.lo), tuple(c + 16.0 for c in obj.mbr.hi)),
            )
            for obj in near
        ]
        tree = TouchTree([*near, *far], fanout=fanout, num_partitions=12)
        gap = [
            SpatialObject(i, MBR((9.0 + i * 0.1, 9.0), (9.5 + i * 0.1, 9.5)))
            for i in range(8)
        ]
        inside = list(uniform_boxes(40, space=20.0, dim=2, side_range=(0.1, 1.0), seed=56))
        b = [*gap, *inside]
        landed = _check_assignment(tree, _table(b), b)
        assert (landed[: len(gap)] == -1).all()
        assert all(tree.root.mbr.intersects(obj.mbr) for obj in gap)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fanout", [2, 8])
    def test_zero_width_boxes(self, chunk, dim, fanout):
        objects_a = _objects(_zero_width(160, dim, seed=57))
        coords_b = _zero_width(60, dim, seed=58)
        coords_b[:10] = np.array([o.mbr.lo + o.mbr.lo for o in objects_a[:10]])
        tree = TouchTree(objects_a, fanout=fanout, num_partitions=20)
        table_b = CoordinateTable(coords_b, np.arange(60, dtype=np.int64))
        landed = _check_assignment(tree, table_b, table_b.to_objects())
        assert (landed[:10] >= 0).all()

    @pytest.mark.parametrize("fanout", [2, 8])
    def test_probe_covering_the_universe(self, chunk, fanout):
        a = list(uniform_boxes(150, space=20.0, dim=3, side_range=(0.2, 2.0), seed=59))
        tree = TouchTree(a, fanout=fanout, num_partitions=20)
        table_b = CoordinateTable(
            np.array([[-1.0] * 3 + [21.0] * 3]), np.array([7], dtype=np.int64)
        )
        landed = _check_assignment(tree, table_b, table_b.to_objects())
        assert landed.tolist() == [0]

    def test_clustered_prepared_tree(self, chunk):
        a = list(clustered_boxes(400, space=50.0, n_clusters=6, seed=60))
        b = list(clustered_boxes(300, space=50.0, n_clusters=6, seed=61))
        tree = TouchJoin(backend="columnar").prepare(a).payload["tree"]
        _check_assignment(tree, _table(b), b)

    def test_empty_batch(self):
        tree = TouchTree(list(uniform_boxes(50, seed=62)), num_partitions=8)
        empty = CoordinateTable(np.empty((0, 6)), np.empty(0, dtype=np.int64))
        assert _check_assignment(tree, empty, []).tolist() == []


# -- flattened hierarchy ----------------------------------------------------


def tied_objects():
    """Many equal STR centers (three stacked boxes per x) and duplicates."""
    objects = [
        SpatialObject(i, MBR((float(i % 5), 0.0), (float(i % 5) + 1.0, 1.0)))
        for i in range(40)
    ]
    objects += [SpatialObject(40 + i, MBR((2.0, 2.0), (3.0, 3.0))) for i in range(25)]
    objects += [
        SpatialObject(65 + i, MBR((2.0 - i, 2.0 - i), (3.0 + i, 3.0 + i)))
        for i in range(10)
    ]
    return objects


BUILD_INPUTS = {
    "uniform-1d": lambda: list(uniform_boxes(200, dim=1, seed=44)),
    "uniform-2d": lambda: list(uniform_boxes(200, dim=2, seed=44)),
    "uniform-3d": lambda: list(uniform_boxes(200, dim=3, seed=44)),
    "ties": tied_objects,
    "single": lambda: list(uniform_boxes(1, dim=2, seed=44)),
}


class TestFlattenHierarchy:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("fanout", [2, 3, 8])
    @pytest.mark.parametrize("partitions", [1, 7, 64, None])
    def test_aggregates_match_per_node_walk(self, dim, fanout, partitions):
        objects = list(uniform_boxes(200, dim=dim, seed=44))
        tree = TouchTree(objects, fanout=fanout, num_partitions=partitions)
        flat = tree.flat
        expected = reference_flatten(tree, tree.leaf_slices)
        got = list(zip(flat.sub_start.tolist(), flat.sub_stop.tolist()))
        assert got == expected
        nodes = list(tree.iter_nodes())
        index = _node_index(tree)
        assert len(nodes) == len(flat)
        for position, node in enumerate(nodes):
            kids = flat.children_idx[
                flat.children_ptr[position] : flat.children_ptr[position + 1]
            ]
            assert kids.tolist() == [index[child] for child in node.children]
            assert flat.node_lo[position].tolist() == list(node.mbr.lo)
            assert flat.node_hi[position].tolist() == list(node.mbr.hi)

    @pytest.mark.parametrize("name", sorted(BUILD_INPUTS))
    @pytest.mark.parametrize("fanout", [2, 3, 8])
    @pytest.mark.parametrize("partitions", [1, 7, 64, None])
    @pytest.mark.parametrize("source", ["objects", "table"])
    def test_array_build_matches_node_build(self, name, fanout, partitions, source):
        objects = BUILD_INPUTS[name]()
        table = CoordinateTable.from_objects(objects)
        tree = TouchTree(
            objects if source == "objects" else table,
            fanout=fanout,
            num_partitions=partitions,
        )
        root, leaf_slices, leaf_table, node_count = reference_build(
            objects if source == "objects" else None,
            table,
            fanout,
            tree.leaf_capacity,
        )
        flat = tree.flat
        got = (
            flat.node_lo,
            flat.node_hi,
            flat.children_ptr,
            flat.children_idx,
            flat.sub_start,
            flat.sub_stop,
        )
        for array, want in zip(got, reference_flatten_hierarchy(root, leaf_slices)):
            assert array.dtype == want.dtype and array.shape == want.shape
            assert array.tobytes() == want.tobytes()
        assert tree.leaf_table.coords.tobytes() == leaf_table.coords.tobytes()
        assert tree.leaf_table.ids.tobytes() == leaf_table.ids.tobytes()
        assert tree.node_count() == node_count
        assert tree.height == root.level + 1
        assert tree.index_bytes == node_count * memmodel.node_bytes(
            tree.dim, fanout
        ) + memmodel.reference_list_bytes(len(objects))
        # The node view mirrors the reference nodes, buckets included.
        view = [
            (node.level, node.mbr, [o.oid for o in node.entities_a])
            for node in tree.iter_nodes()
        ]
        if source == "table":
            assert all(not node.entities_a for node in tree.iter_nodes())
            view = [(level, mbr) for level, mbr, _ in view]
            want_view = [(node.level, node.mbr) for node in root.iter_subtree()]
        else:
            want_view = [
                (node.level, node.mbr, [o.oid for o in node.entities_a])
                for node in root.iter_subtree()
            ]
        assert view == want_view
        assert list(tree.leaf_slices.values()) == list(leaf_slices.values())


# -- memory accounting ------------------------------------------------------


class TestProbeMemoryAccounting:
    def test_columnar_probe_counts_the_flat_hierarchy(self):
        a = list(uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=45))
        b = list(uniform_boxes(50, space=20.0, side_range=(0.5, 2.0), seed=46))
        join = TouchJoin(backend="columnar")
        index = join.prepare(a)
        payload = index.payload
        result = join.probe(index, b)
        table_bytes = (
            payload["table_a"].nbytes
            + payload["flat"].nbytes
            + CoordinateTable.from_objects(b).nbytes
        )
        assert payload["flat"].nbytes > 0
        assert result.stats.extra["columnar_table_bytes"] == table_bytes
        assert result.stats.memory_bytes == (
            payload["tree"].memory_bytes() + table_bytes
        )
