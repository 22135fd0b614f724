"""TOUCH's hierarchical data-oriented partitioning tree (paper §4.3).

Phase one of TOUCH: the objects of dataset A are grouped into ``p``
spatially coherent buckets with STR packing (the paper's choice, §5.1);
every bucket becomes a leaf node, and the hierarchy is built bottom-up by
repeatedly STR-grouping ``fanout`` nodes under a parent whose MBR encloses
them.  Unlike a disk R-Tree, the fanout and bucket size are free
parameters — "we no longer have to align the data structures for the disk
page size" (§4.1).

The tree is arrays only.  A arrives as a coordinate table (or is read
once into one), every STR level is one
:func:`~repro.rtree.str_pack.str_order` call over a centers array, and
bucket and node MBRs are ``np.minimum/maximum.reduceat`` reductions over
the grouped rows.  One pass over those levels lays the tree out as a
:class:`~repro.geometry.hierarchy.FlatHierarchy` and A as a table in
leaf order (``leaf_table``), which is all the columnar phases read.

Numbering rule: flat node ``i`` is the ``i``-th node of the pre-order
walk that pops a stack and pushes a node's children in order
(:meth:`TouchNode.iter_subtree`), so a node's *last* child follows it
directly.  Leaves take their A rows in that order too, so every
subtree's rows form one contiguous ``[sub_start, sub_stop)`` range.

:class:`TouchNode` objects exist only as the object backend's view: the
first access to :attr:`TouchTree.root`, :meth:`~TouchTree.iter_nodes`,
:meth:`~TouchTree.leaves` or :attr:`~TouchTree.leaf_slices` builds them
from the arrays, with each leaf's bucket of objects (``entities_a``)
when the tree was built from objects; the object-model assignment phase
then attaches B objects (``entities_b``) to them.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable
from repro.geometry.hierarchy import FlatHierarchy
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.rtree.str_pack import str_order
from repro.stats import memory as memmodel

__all__ = ["TouchNode", "TouchTree", "DEFAULT_FANOUT", "DEFAULT_PARTITIONS"]

DEFAULT_FANOUT = 2  # the paper's best setting (§6.1)
DEFAULT_PARTITIONS = 1024  # the paper's bucket count (§6.1)


class TouchNode:
    """A node of the TOUCH tree.

    Attributes
    ----------
    mbr:
        Tight bound of the A objects below this node (assignment never
        enlarges MBRs: B objects are attached, not bounded).
    level:
        0 for leaves (buckets), increasing towards the root.
    children:
        Child nodes (empty for leaves).
    entities_a:
        The bucket of A objects (leaves only).
    entities_b:
        B objects assigned to this node during phase two.
    """

    __slots__ = ("mbr", "level", "children", "entities_a", "entities_b")

    def __init__(
        self,
        mbr: MBR,
        level: int,
        children: "list[TouchNode] | None" = None,
        entities_a: list[SpatialObject] | None = None,
    ) -> None:
        self.mbr = mbr
        self.level = level
        self.children = children if children is not None else []
        self.entities_a = entities_a if entities_a is not None else []
        self.entities_b: list[SpatialObject] = []

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a bucket of A objects."""
        return self.level == 0

    def __repr__(self) -> str:
        return (
            f"TouchNode(level={self.level}, |A|={len(self.entities_a)}, "
            f"|B|={len(self.entities_b)}, children={len(self.children)})"
        )

    def iter_subtree(self) -> Iterator["TouchNode"]:
        """This node and all descendants, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def iter_leaf_objects(self) -> Iterator[SpatialObject]:
        """All A objects in the leaves of this subtree."""
        for node in self.iter_subtree():
            if node.is_leaf:
                yield from node.entities_a


class TouchTree:
    """The phase-one hierarchy built on dataset A.

    Parameters
    ----------
    data_a:
        Dataset A (non-empty): its objects, or its coordinate table.
        The node view's leaves carry their bucket of objects
        (``entities_a``) only when built from objects — the object-model
        phases need them; the columnar phases read ``leaf_table`` alone.
    fanout:
        Children per internal node (paper default: 2).
    num_partitions:
        Number of leaf buckets ``p`` (paper §6.1 setting: 1024).  The
        bucket capacity is ``ceil(|A| / p)``.  When ``None``, Algorithm
        2's literal rule applies instead: buckets have ``fanout`` objects
        ("partition objs into partitions of size fo"), which couples the
        leaf MBR size to the fanout — the mechanism behind the Figure 14
        filtering/comparison trends.  Ignored when ``leaf_capacity`` is
        given.
    leaf_capacity:
        Direct bucket capacity override.

    Attributes
    ----------
    flat:
        The hierarchy as a :class:`~repro.geometry.hierarchy.FlatHierarchy`
        in the pre-order of the module's numbering rule.
    leaf_table:
        Dataset A as a :class:`~repro.geometry.columnar.CoordinateTable`
        with every leaf's bucket a contiguous row range, leaves in
        pre-order (the ranges ``flat.sub_start``/``flat.sub_stop``).
    height:
        Number of levels (1 for a single-bucket tree).
    """

    def __init__(
        self,
        data_a: "Sequence[SpatialObject] | CoordinateTable",
        fanout: int = DEFAULT_FANOUT,
        num_partitions: int | None = DEFAULT_PARTITIONS,
        leaf_capacity: int | None = None,
    ) -> None:
        if len(data_a) == 0:
            raise ValueError("cannot build a TOUCH tree on an empty dataset")
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")

        n = len(data_a)
        if leaf_capacity is None:
            if num_partitions is None:
                leaf_capacity = fanout  # Algorithm 2: buckets of size fo
            else:
                if num_partitions < 1:
                    raise ValueError(
                        f"num_partitions must be >= 1, got {num_partitions}"
                    )
                leaf_capacity = max(1, math.ceil(n / num_partitions))
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")

        if isinstance(data_a, CoordinateTable):
            self._objects, table = None, data_a
        else:
            self._objects = list(data_a)
            table = CoordinateTable.from_objects(self._objects)
        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self.dim = table.dim
        self.n_objects_a = n
        self.flat, self._leaf_rows, self.height = _build_flat(
            table, leaf_capacity, fanout
        )
        self.leaf_table = table.take(self._leaf_rows)
        self._root: TouchNode | None = None
        self._leaf_slices: dict[TouchNode, tuple[int, int]] = {}
        #: Analytic bytes of the nodes and A's bucket references.  The
        #: tree never changes after the build, so a probe reads this
        #: instead of walking the nodes.
        self.index_bytes = len(self.flat) * memmodel.node_bytes(
            self.dim, fanout
        ) + memmodel.reference_list_bytes(n)

    # -- the object backend's node view -------------------------------------
    @property
    def root(self) -> TouchNode:
        """The root :class:`TouchNode`; the first access builds the view."""
        if self._root is None:
            self._root = self._build_view()
        return self._root

    @property
    def leaf_slices(self) -> "dict[TouchNode, tuple[int, int]]":
        """Each view leaf's ``(start, stop)`` row range in ``leaf_table``."""
        self.root  # builds the view on first access
        return self._leaf_slices

    def _build_view(self) -> TouchNode:
        """One :class:`TouchNode` per flat node, children before parents."""
        flat = self.flat
        ptr = flat.children_ptr.tolist()
        kids = flat.children_idx.tolist()
        starts = flat.sub_start.tolist()
        stops = flat.sub_stop.tolist()
        objects = self._objects
        rows = self._leaf_rows.tolist() if objects is not None else None
        nodes: list = [None] * len(flat)
        boxes = zip(flat.node_lo.tolist(), flat.node_hi.tolist())
        for i, (lo, hi) in reversed(list(enumerate(boxes))):
            mbr = MBR.trusted(tuple(lo), tuple(hi))
            children = [nodes[k] for k in kids[ptr[i] : ptr[i + 1]]]
            if children:
                nodes[i] = TouchNode(mbr, children[0].level + 1, children)
                continue
            bucket = None
            if rows is not None:
                bucket = [objects[row] for row in rows[starts[i] : stops[i]]]
            nodes[i] = TouchNode(mbr, level=0, entities_a=bucket)
        self._leaf_slices = {
            node: (starts[i], stops[i]) for i, node in enumerate(nodes) if node.is_leaf
        }
        return nodes[0]

    # -- inspection -------------------------------------------------------
    def iter_nodes(self) -> Iterator[TouchNode]:
        """All nodes, pre-order (flat node ``i`` is the ``i``-th)."""
        yield from self.root.iter_subtree()

    def leaves(self) -> list[TouchNode]:
        """All leaf buckets."""
        return [node for node in self.iter_nodes() if node.is_leaf]

    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.flat)

    def assigned_b_count(self) -> int:
        """B objects currently attached anywhere in the tree."""
        if self._root is None:
            return 0  # no view, so nothing was attached
        return sum(len(node.entities_b) for node in self.iter_nodes())

    def memory_bytes(self) -> int:
        """Analytic footprint: nodes, bucket references, B references.

        TOUCH "keeps the buckets constructed based on dataset A in
        addition to the tree" (§6.4), which is why its footprint sits
        slightly above INL's single tree.
        """
        return self.index_bytes + memmodel.reference_list_bytes(
            self.assigned_b_count()
        )


def _build_flat(table: CoordinateTable, leaf_capacity: int, fanout: int):
    """STR-build the hierarchy over ``table`` straight into flat arrays.

    Returns ``(flat, leaf_rows, height)``: ``leaf_rows`` lists the rows
    of ``table`` in leaf order.

    Bottom-up, each STR level yields its nodes' corners and, per node,
    the subtree's node count and A row count (``np.add.reduceat`` over
    each group of children).  Top-down, every child's pre-order position
    and first row follow from its parent's: the stack walk visits a
    parent's children last to first, so child ``j`` starts after the
    subtrees of children ``j + 1, ...`` — an exclusive suffix sum within
    the group.
    """
    dim = table.dim
    # Corners stay (D, n) column blocks throughout, like table.cols.
    lo, hi = table.cols[:dim], table.cols[dim:]
    leaf_order, leaf_starts = str_order(((lo + hi) / 2.0).T, leaf_capacity)
    lo, hi = _group_bounds(lo, hi, leaf_order, leaf_starts)
    rows = _group_sizes(leaf_starts, len(leaf_order))
    # levels[k]: corners, subtree node counts and row counts of level k;
    # groupings[k]: the (order, starts) that group level k under k + 1.
    levels = [(lo, hi, np.ones(lo.shape[1], dtype=np.int64), rows)]
    groupings = []
    while lo.shape[1] > 1:
        order, starts = str_order(((lo + hi) / 2.0).T, fanout)
        lo, hi = _group_bounds(lo, hi, order, starts)
        _, _, size, rows = levels[-1]
        levels.append((
            lo,
            hi,
            1 + np.add.reduceat(size[order], starts),
            np.add.reduceat(rows[order], starts),
        ))
        groupings.append((order, starts))

    count = int(levels[-1][2][0])
    node_cols = np.empty((2 * dim, count))
    sub_start = np.empty(count, dtype=np.int64)
    sub_stop = np.empty(count, dtype=np.int64)
    fan = np.zeros(count, dtype=np.int64)
    slot_parent, slot_rank, slot_child = [], [], []
    pos = np.zeros(1, dtype=np.int64)  # the root is flat node 0, row 0
    off = np.zeros(1, dtype=np.int64)
    for k in range(len(levels) - 1, -1, -1):
        lo, hi, _, rows = levels[k]
        node_cols[:dim, pos], node_cols[dim:, pos] = lo, hi
        sub_start[pos], sub_stop[pos] = off, off + rows
        if k == 0:
            break
        order, starts = groupings[k - 1]
        _, _, child_size, child_rows = levels[k - 1]
        group_fan = _group_sizes(starts, len(order))
        parent = np.repeat(np.arange(len(starts)), group_fan)
        child_pos = pos[parent] + 1 + _later_in_group(child_size[order], starts)
        child_off = off[parent] + _later_in_group(child_rows[order], starts)
        fan[pos] = group_fan
        slot_parent.append(pos[parent])
        slot_rank.append(np.arange(len(order)) - starts[parent])
        slot_child.append(child_pos)
        pos = np.empty(len(order), dtype=np.int64)
        off = np.empty(len(order), dtype=np.int64)
        pos[order], off[order] = child_pos, child_off

    children_ptr = np.concatenate(([0], np.cumsum(fan)))
    children_idx = np.empty(count - 1, dtype=np.int64)
    if slot_child:
        at = children_ptr[np.concatenate(slot_parent)] + np.concatenate(slot_rank)
        children_idx[at] = np.concatenate(slot_child)
    # Leaf g's rows leaf_order[leaf_starts[g]:...] move to off[g]...
    leaf = np.repeat(np.arange(len(leaf_starts)), levels[0][3])
    leaf_rows = np.empty(len(leaf_order), dtype=np.int64)
    leaf_rows[off[leaf] + np.arange(len(leaf_order)) - leaf_starts[leaf]] = leaf_order
    flat = FlatHierarchy(node_cols, children_ptr, children_idx, sub_start, sub_stop)
    return flat, leaf_rows, len(levels)


def _group_bounds(lo, hi, order, starts):
    """Tight ``(lo, hi)`` ``(D, groups)`` bound of each group
    ``order[starts[g]:...]`` of the ``(D, n)`` corner blocks."""
    return (
        np.minimum.reduceat(lo.take(order, axis=1), starts, axis=1),
        np.maximum.reduceat(hi.take(order, axis=1), starts, axis=1),
    )


def _group_sizes(starts, total: int):
    """Members per group, for groups starting at ``starts`` of ``total``."""
    return np.diff(np.append(starts, total))


def _later_in_group(values, starts):
    """Per item, the sum of ``values`` over the later items of its group."""
    running = np.cumsum(values)
    ends = np.append(starts[1:], len(values)) - 1
    return np.repeat(running[ends], _group_sizes(starts, len(values))) - running
