"""R-Tree node structure shared by the bulk-loaded R-Tree substrate."""

from __future__ import annotations

from typing import Iterator

from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject

__all__ = ["RTreeNode"]


class RTreeNode:
    """A node of a bulk-loaded R-Tree.

    Leaf nodes (``level == 0``) store objects; internal nodes store child
    nodes.  The node's MBR tightly encloses everything below it.
    """

    __slots__ = ("mbr", "level", "children", "objects")

    def __init__(
        self,
        mbr: MBR,
        level: int,
        children: "list[RTreeNode] | None" = None,
        objects: list[SpatialObject] | None = None,
    ) -> None:
        self.mbr = mbr
        self.level = level
        self.children = children if children is not None else []
        self.objects = objects if objects is not None else []

    @classmethod
    def leaf(cls, objects: list[SpatialObject]) -> "RTreeNode":
        """Build a leaf node tightly bounding ``objects`` (non-empty)."""
        return cls(total_mbr(o.mbr for o in objects), level=0, objects=objects)

    @classmethod
    def parent_of(cls, children: "list[RTreeNode]") -> "RTreeNode":
        """Build an internal node tightly bounding ``children`` (non-empty)."""
        level = children[0].level + 1
        return cls(total_mbr(c.mbr for c in children), level=level, children=children)

    @property
    def is_leaf(self) -> bool:
        """Whether this node stores objects rather than children."""
        return self.level == 0

    def __repr__(self) -> str:
        kind = f"{len(self.objects)} objects" if self.is_leaf else f"{len(self.children)} children"
        return f"RTreeNode(level={self.level}, {kind})"

    def iter_subtree(self) -> Iterator["RTreeNode"]:
        """Yield this node and every node below it (pre-order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def iter_leaf_objects(self) -> Iterator[SpatialObject]:
        """Yield every object stored in the leaves of this subtree."""
        for node in self.iter_subtree():
            if node.is_leaf:
                yield from node.objects
