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

from repro.geometry.columnar import CoordinateTable
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
    tree: TouchTree,
    table_b: CoordinateTable,
    objects_b: Sequence[SpatialObject] | None = None,
    stats: JoinStatistics | None = None,
) -> "dict[TouchNode, object]":
    """Columnar Algorithm 3: assign all of B level by level, in bulk.

    Instead of descending the tree once per object, whole batches of B
    descend together: at every node the pending batch is tested against
    all children's MBRs in one broadcasted comparison, and the three
    cases of the scalar walk are resolved per row — zero overlapping
    children filters the object, exactly one routes it to that child's
    batch, several pin it to the current node.  The decisions (and hence
    the ``filtered`` count and the node each object lands in) are
    identical to :func:`assign_dataset_b`; only the execution is batched.

    Returns ``{node: int64 row indices of table_b}`` for every node that
    received objects.  When ``objects_b`` is given, the corresponding
    objects are also appended to each node's ``entities_b`` so the tree
    stays inspectable exactly as after a scalar assignment.
    """
    n = len(table_b)
    assigned: dict[TouchNode, object] = {}
    if n == 0:
        return assigned
    lo, hi = table_b.lo, table_b.hi
    node_tests = n  # every object is tested against the root MBR
    root = tree.root
    root_lo = np.asarray(root.mbr.lo)
    root_hi = np.asarray(root.mbr.hi)
    in_root = (lo <= root_hi).all(axis=1) & (hi >= root_lo).all(axis=1)
    filtered = int(n - in_root.sum())

    stack: list[tuple[TouchNode, object]] = [(root, np.nonzero(in_root)[0])]
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

    if stats is not None:
        stats.node_tests += node_tests
        stats.filtered += filtered
    if objects_b is not None:
        for node, rows in assigned.items():
            node.entities_b.extend(objects_b[i] for i in rows.tolist())
    return assigned
