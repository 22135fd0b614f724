"""TOUCH's hierarchical data-oriented partitioning tree (paper §4.3).

Phase one of TOUCH: the objects of dataset A are grouped into ``p``
spatially coherent buckets with STR packing (the paper's choice, §5.1);
every bucket becomes a leaf node, and the hierarchy is built bottom-up by
repeatedly STR-grouping ``fanout`` nodes under a parent whose MBR encloses
them.  Unlike a disk R-Tree, the fanout and bucket size are free
parameters — "we no longer have to align the data structures for the disk
page size" (§4.1).

Nodes carry two entity lists: leaf nodes of a tree built from objects
hold their bucket of A objects (``entities_a``); any node may later
receive B objects (``entities_b``) during the object-model assignment
phase.

The build runs on arrays: A arrives as a coordinate table (or is read
once into one), every STR level is one
:func:`~repro.rtree.str_pack.str_order` call over a centers array, and
bucket and node MBRs are ``np.minimum/maximum.reduceat`` reductions
over the grouped rows.  The tree keeps A's table in leaf
order (``leaf_table``, ``leaf_slices``) for the columnar phases.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable
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
        Leaves carry their bucket of objects (``entities_a``) only when
        built from objects — the object-model phases need them; the
        columnar phases read ``leaf_table`` alone.
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
    leaf_table:
        Dataset A as a :class:`~repro.geometry.columnar.CoordinateTable`
        with every leaf's bucket a contiguous row range, leaves in
        :meth:`leaves` order.
    leaf_slices:
        Each leaf's ``(start, stop)`` row range in ``leaf_table``.
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
            objects, table = None, data_a
        else:
            objects = list(data_a)
            table = CoordinateTable.from_objects(objects)
        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self.dim = table.dim
        self.n_objects_a = n
        self.root = self._build(objects, table)
        #: Analytic bytes of the nodes and A's bucket references.  The
        #: tree never changes after the build, so a probe reads this
        #: instead of walking the nodes.
        self.index_bytes = self._node_count * memmodel.node_bytes(
            self.dim, fanout
        ) + memmodel.reference_list_bytes(n)

    def _build(
        self, objects: list[SpatialObject] | None, table: CoordinateTable
    ) -> TouchNode:
        leaf_order, starts = str_order((table.lo + table.hi) / 2.0, self.leaf_capacity)
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
            order, starts = str_order((lo + hi) / 2.0, self.fanout)
            lo, hi = _group_bounds(lo, hi, order, starts)
            grouped = [nodes[i] for i in order.tolist()]
            bounds = [*starts.tolist(), len(grouped)]
            nodes = [
                TouchNode(mbr, level=level, children=grouped[a:b])
                for mbr, a, b in zip(_mbrs(lo, hi), bounds, bounds[1:])
            ]
        root = nodes[0]

        # A in leaf order: every bucket one contiguous row range, buckets
        # in the pre-order of leaves(), so every subtree's rows are
        # contiguous too.  The same walk counts the nodes.
        pieces = []
        self.leaf_slices: dict[TouchNode, tuple[int, int]] = {}
        stop = 0
        self._node_count = 0
        for node in root.iter_subtree():
            self._node_count += 1
            if node.is_leaf:
                a, b = leaf_ranges[node]
                self.leaf_slices[node] = (stop, stop + b - a)
                stop += b - a
                pieces.append(leaf_order[a:b])
        self.leaf_table = table.take(np.concatenate(pieces))
        return root

    # -- inspection -------------------------------------------------------
    def iter_nodes(self) -> Iterator[TouchNode]:
        """All nodes, pre-order."""
        yield from self.root.iter_subtree()

    def leaves(self) -> list[TouchNode]:
        """All leaf buckets."""
        return [node for node in self.iter_nodes() if node.is_leaf]

    def node_count(self) -> int:
        """Total number of nodes (counted once, at build time)."""
        return self._node_count

    @property
    def height(self) -> int:
        """Number of levels (1 for a single-bucket tree)."""
        return self.root.level + 1

    def assigned_b_count(self) -> int:
        """B objects currently attached anywhere in the tree."""
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


def _group_bounds(lo, hi, order, starts):
    """Tight ``(lo, hi)`` bound of each group ``order[starts[g]:...]``."""
    return (
        np.minimum.reduceat(lo[order], starts, axis=0),
        np.maximum.reduceat(hi[order], starts, axis=0),
    )


def _mbrs(lo, hi) -> list[MBR]:
    """One :class:`MBR` per row of the ``(G, D)`` corner arrays.

    The rows bound valid boxes, so they are valid by construction.
    """
    return [
        MBR.trusted(tuple(row_lo), tuple(row_hi))
        for row_lo, row_hi in zip(lo.tolist(), hi.tolist())
    ]
