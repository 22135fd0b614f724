"""Bulk-loaded in-memory R-Tree.

This is the index substrate for three baselines of the paper:

- the **indexed nested loop** join queries one R-Tree once per probe
  object;
- the **synchronous traversal** join descends two R-Trees in lockstep;
- the **seeded tree** join bootstraps a second tree from an existing one.

The paper uses STR bulk loading ("the STR R-Tree exhibits the best
performance for non-extreme real world data"); Hilbert packing is provided
as an alternative for the packing ablation.
"""

from __future__ import annotations

from typing import Iterator, Literal, Sequence

from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.rtree.hilbert import hilbert_key_function
from repro.rtree.node import RTreeNode
from repro.rtree.str_pack import slices_of, str_partition
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

__all__ = ["RTree"]

PackingMethod = Literal["str", "hilbert"]


class RTree:
    """An immutable R-Tree built by bulk loading.

    Parameters
    ----------
    objects:
        Objects to index.  May be empty (queries then return nothing).
    fanout:
        Maximum children per internal node (the paper's best R-Tree
        configuration uses a fanout of 2).
    leaf_capacity:
        Maximum objects per leaf; defaults to ``fanout``.
    method:
        ``"str"`` (default, Sort-Tile-Recursive) or ``"hilbert"``.
    """

    def __init__(
        self,
        objects: Sequence[SpatialObject],
        fanout: int = 2,
        leaf_capacity: int | None = None,
        method: PackingMethod = "str",
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        leaf_capacity = fanout if leaf_capacity is None else leaf_capacity
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")

        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self.method = method
        self.n_objects = len(objects)
        self.dim = objects[0].mbr.dim if objects else 0
        #: Nodes per level are summed by ``_build``: the tree is immutable,
        #: so per-probe footprints never walk it.
        self._node_count = 0
        self.root = self._build(list(objects)) if objects else None

    # -- construction ---------------------------------------------------
    def _build(self, objects: list[SpatialObject]) -> RTreeNode:
        if self.method == "str":
            groups = str_partition(
                objects,
                self.leaf_capacity,
                center_of=lambda o: o.mbr.center(),
                dim=self.dim,
            )
        elif self.method == "hilbert":
            from repro.geometry.mbr import total_mbr

            key = hilbert_key_function(total_mbr(o.mbr for o in objects))
            objects = sorted(objects, key=lambda o: key(o.mbr))
            groups = slices_of(objects, self.leaf_capacity)
        else:
            raise ValueError(f"unknown packing method: {self.method!r}")

        nodes: list[RTreeNode] = [RTreeNode.leaf(group) for group in groups]
        self._node_count = len(nodes)
        while len(nodes) > 1:
            if self.method == "str":
                node_groups = str_partition(
                    nodes,
                    self.fanout,
                    center_of=lambda n: n.mbr.center(),
                    dim=self.dim,
                )
            else:  # preserve the Hilbert order upwards
                node_groups = slices_of(nodes, self.fanout)
            nodes = [RTreeNode.parent_of(group) for group in node_groups]
            self._node_count += len(nodes)
        return nodes[0]

    # -- queries ----------------------------------------------------------
    def query(self, query_mbr: MBR, stats: JoinStatistics | None = None) -> list[SpatialObject]:
        """All indexed objects whose MBR intersects ``query_mbr``.

        When ``stats`` is given, object-level tests are counted as
        ``comparisons`` and node-level tests as ``node_tests`` — exactly
        the accounting the indexed nested loop join needs.
        """
        hits: list[SpatialObject] = []
        if self.root is None:
            return hits
        stack = [self.root]
        if stats is None:
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    hits.extend(o for o in node.objects if query_mbr.intersects(o.mbr))
                else:
                    stack.extend(c for c in node.children if query_mbr.intersects(c.mbr))
            return hits
        while stack:
            node = stack.pop()
            if node.is_leaf:
                stats.comparisons += len(node.objects)
                hits.extend(o for o in node.objects if query_mbr.intersects(o.mbr))
            else:
                stats.node_tests += len(node.children)
                stack.extend(c for c in node.children if query_mbr.intersects(c.mbr))
        return hits

    # -- inspection ---------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a single leaf)."""
        return self.root.level + 1 if self.root is not None else 0

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """All nodes, pre-order."""
        if self.root is not None:
            yield from self.root.iter_subtree()

    def node_count(self) -> int:
        """Total number of nodes (counted once, at build time)."""
        return self._node_count

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for node in self.iter_nodes() if node.is_leaf)

    def memory_bytes(self) -> int:
        """Analytic footprint: nodes plus leaf object references."""
        if self.root is None:
            return 0
        return self._node_count * memmodel.node_bytes(self.dim, self.fanout) + memmodel.reference_list_bytes(
            self.n_objects
        )
