"""TOUCH assignment phase (paper §4.4, Algorithm 3).

Each object ``b`` of dataset B descends from the root of the phase-one
tree.  At the current node, ``b`` is tested against the children's MBRs:

- **no child overlaps** — ``b`` is *filtered*: it cannot intersect any A
  object and is dropped (this is the filtering the paper measures in
  Figures 13/14a; it also fires below the root when ``b`` falls into dead
  space inside a node's MBR);
- **exactly one child overlaps** — descend into it;
- **several children overlap** — ``b`` is assigned to the current node.

The walk therefore attaches ``b`` to the lowest node whose MBR overlaps
``b`` while no second sibling subtree does; reaching a leaf attaches ``b``
to that bucket.  Every B object lands in at most one node — the
*single-assignment* property behind Lemma 3 (no duplicate results).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.columnar import CoordinateTable, pairs_overlap_mask
from repro.geometry.hierarchy import FlatHierarchy, expand_frontier
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.core.tree import TouchNode, TouchTree
from repro.stats.counters import JoinStatistics

__all__ = ["locate_node", "assign_dataset_b", "assign_table_b"]


def locate_node(root: TouchNode, mbr: MBR, stats: JoinStatistics | None = None) -> TouchNode | None:
    """Find the node ``mbr`` should be assigned to, or ``None`` to filter.

    Implements Algorithm 3 with the paper's evident intent (the published
    pseudocode resets its ``overlap`` flag per child and names the current
    node "parent of p" after ``p`` was advanced to the first overlapping
    child; both are transcription slips).
    """
    node_tests = 1
    if not root.mbr.intersects(mbr):
        if stats is not None:
            stats.node_tests += node_tests
        return None

    current = root
    result = current
    while not current.is_leaf:
        first_hit: TouchNode | None = None
        multiple = False
        for child in current.children:
            node_tests += 1
            if child.mbr.intersects(mbr):
                if first_hit is None:
                    first_hit = child
                else:
                    multiple = True
                    break
        if multiple:
            result = current
            break
        if first_hit is None:
            result = None  # dead space: filtered below the root
            break
        current = first_hit
        result = current
    if stats is not None:
        stats.node_tests += node_tests
    return result


def assign_dataset_b(
    tree: TouchTree,
    objects_b: Sequence[SpatialObject],
    stats: JoinStatistics | None = None,
) -> int:
    """Assign every object of B to the tree; returns the filtered count.

    Assigned objects are appended to their node's ``entities_b`` list;
    filtered objects are simply dropped (they can never produce a result
    pair — Lemma 1 still holds because a filtered object overlaps no
    node MBR and hence no A object).
    """
    filtered = 0
    root = tree.root
    for obj in objects_b:
        node = locate_node(root, obj.mbr, stats)
        if node is None:
            filtered += 1
        else:
            node.entities_b.append(obj)
    if stats is not None:
        stats.filtered += filtered
    return filtered


def assign_table_b(
    flat: FlatHierarchy,
    table_b: CoordinateTable,
    stats: JoinStatistics | None = None,
):
    """Columnar Algorithm 3: all of B descends the flat hierarchy together.

    The walk is level-synchronous, like the range descent of
    :func:`~repro.geometry.hierarchy.descend_hierarchy`: the frontier is
    a pair of parallel ``(flat node, B row)`` arrays, and each pass tests
    every internal entry against all of its node's children at once.
    Per row, the three cases of the scalar walk follow from the number
    of overlapping children: none filters the row, exactly one moves it
    to that child, several pin it to the current node; rows reaching a
    leaf stay there.  The decisions and ``filtered`` are those of
    :func:`assign_dataset_b`; ``node_tests`` counts every child tested,
    where the scalar walk stops at a node's second overlapping child.

    Returns ``(nodes, rows)``: for every assigned row of ``table_b``, the
    flat index of the node it lands in.  Rows of one node keep their
    table order.
    """
    rows = np.arange(len(table_b), dtype=np.int64)
    nodes = np.zeros(len(rows), dtype=np.int64)  # flat index 0 is the root
    keep = pairs_overlap_mask(flat.node_cols, nodes, table_b.cols, rows)
    node_tests = len(rows)
    filtered = len(rows) - int(keep.sum())
    nodes, rows = nodes[keep], rows[keep]
    # Empty first pieces keep the result defined when the root filters
    # every row.
    out_nodes = [nodes[:0]]
    out_rows = [rows[:0]]
    while len(nodes):
        leaf, owner, children, hit = expand_frontier(flat, table_b, nodes, rows)
        out_nodes.append(nodes[leaf])
        out_rows.append(rows[leaf])
        nodes, rows = nodes[~leaf], rows[~leaf]
        node_tests += len(children)
        hits = np.bincount(owner[hit], minlength=len(nodes))
        filtered += int((hits == 0).sum())
        several = hits >= 2
        out_nodes.append(nodes[several])
        out_rows.append(rows[several])
        moved = hit & (hits == 1)[owner]
        nodes, rows = children[moved], rows[owner[moved]]

    if stats is not None:
        stats.node_tests += node_tests
        stats.filtered += filtered
    return np.concatenate(out_nodes), np.concatenate(out_rows)
