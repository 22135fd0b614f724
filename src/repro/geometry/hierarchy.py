"""TOUCH's tree as flat arrays, and the numpy range descent over them.

:class:`FlatHierarchy` holds the hierarchy as pre-order node arrays with
CSR children and contiguous subtree row ranges.
:class:`repro.core.tree.TouchTree` builds it in one pass over its STR
levels (the numbering rule is stated there); this module is purely
numeric, so the geometry layer stays free of tree imports.

:func:`descend_hierarchy` is the range descent every columnar probe
runs.  It is level-synchronous:
the frontier is a pair of parallel ``(node, B row)`` arrays, and every
step expands all internal entries to their children at once by CSR
arithmetic (:func:`expand_frontier`, which TOUCH's batched assignment
passes share), so the Python work per step is constant however many
nodes the frontier holds.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.columnar import (
    chunk_boundaries,
    concat_ranges,
    pairs_overlap_mask,
    read_only_view,
)

__all__ = ["CHUNK_DESCENT_PAIRS", "FlatHierarchy", "descend_hierarchy", "expand_frontier"]

#: B rows seeded per descent pass, and ``(A row, B row)`` leaf candidates
#: tested per pass, so the temporaries of one pass stay a few MB however
#: large the probe batch is.  Each seeded row fans out into several
#: frontier entries per level: one 32 000-box probe with ε = 5 allocated
#: about twice the stack walk's extra memory at ``1 << 15`` and about the
#: same at this size, while an 80-box serving batch still runs in one pass.
CHUNK_DESCENT_PAIRS = 1 << 13


class FlatHierarchy:
    """A TOUCH tree as flat arrays.

    Node order is the tree's DFS pre-order, which makes every subtree's
    descendant leaves — and hence its A rows in the leaf-order table —
    one contiguous range ``[sub_start, sub_stop)``.

    The node MBRs are one ``(2 * D, nodes)`` float64 column block,
    ``node_cols``, laid out like :attr:`CoordinateTable.cols
    <repro.geometry.columnar.CoordinateTable>`; ``node_lo`` and
    ``node_hi`` are read-only ``(nodes, D)`` views of it.
    """

    __slots__ = (
        "node_cols",
        "children_ptr",
        "children_idx",
        "sub_start",
        "sub_stop",
    )

    def __init__(
        self,
        node_cols,
        children_ptr,
        children_idx,
        sub_start,
        sub_stop,
    ) -> None:
        self.node_cols = node_cols
        self.children_ptr = children_ptr
        self.children_idx = children_idx
        self.sub_start = sub_start
        self.sub_stop = sub_stop

    def __len__(self) -> int:
        return self.node_cols.shape[1]

    @property
    def node_lo(self):
        """``(nodes, D)`` read-only view of the node MBRs' minimum corners."""
        return read_only_view(self.node_cols[: self.node_cols.shape[0] // 2].T)

    @property
    def node_hi(self):
        """``(nodes, D)`` read-only view of the node MBRs' maximum corners."""
        return read_only_view(self.node_cols[self.node_cols.shape[0] // 2 :].T)

    @property
    def nbytes(self) -> int:
        """Real memory footprint of the flat arrays."""
        return int(
            self.node_cols.nbytes
            + self.children_ptr.nbytes
            + self.children_idx.nbytes
            + self.sub_start.nbytes
            + self.sub_stop.nbytes
        )


def descend_hierarchy(flat: FlatHierarchy, table_a, table_b, seed_nodes, query_rows):
    """Range-descend every query from its assigned node to the leaves.

    ``table_a`` is dataset A in leaf order (the rows ``flat``'s subtree
    ranges index); query ``query_rows[i]`` of ``table_b`` starts at flat
    node ``seed_nodes[i]`` (its phase-2 assignment) and descends every
    child whose MBR it overlaps.  At the leaves it reaches, it is tested
    against the leaf's A rows.  Leaves partition A, so every intersecting
    ``(A row, B row)`` pair is reported exactly once.

    Returns ``(a_rows, b_rows, comparisons, node_tests)``: one count per
    leaf candidate tested and one per child MBR tested.
    """
    seed_nodes = np.asarray(seed_nodes, dtype=np.int64)
    query_rows = np.asarray(query_rows, dtype=np.int64)
    out_a: list = []
    out_b: list = []
    comparisons = 0
    node_tests = 0
    for lo in range(0, len(query_rows), CHUNK_DESCENT_PAIRS):
        hi = lo + CHUNK_DESCENT_PAIRS
        leaves, rows, tests = _reach_leaves(
            flat, table_b, seed_nodes[lo:hi], query_rows[lo:hi]
        )
        node_tests += tests
        comparisons += _leaf_hits(flat, table_a, table_b, leaves, rows, out_a, out_b)
    if not out_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, comparisons, node_tests
    return np.concatenate(out_a), np.concatenate(out_b), comparisons, node_tests


def _reach_leaves(flat: FlatHierarchy, table_b, nodes, rows):
    """Descend ``(node, B row)`` entries one level per pass.

    Returns the ``(leaf, B row)`` entries reached and the number of
    child MBRs tested on the way.
    """
    leaf_nodes: list = []
    leaf_rows: list = []
    tests = 0
    while len(nodes):
        leaf, owner, children, hit = expand_frontier(flat, table_b, nodes, rows)
        leaf_nodes.append(nodes[leaf])
        leaf_rows.append(rows[leaf])
        tests += len(children)
        nodes, rows = children[hit], rows[~leaf][owner[hit]]
    return np.concatenate(leaf_nodes), np.concatenate(leaf_rows), tests


def expand_frontier(flat: FlatHierarchy, table_b, nodes, rows):
    """Test every internal ``(node, B row)`` entry against all its node's children.

    Returns ``(leaf, owner, children, hit)``: ``leaf`` masks the entries
    at leaves; the others, in order, are expanded so that entry
    ``owner[k]`` meets child ``children[k]``, and ``hit[k]`` tells
    whether its B row overlaps that child's MBR.
    """
    ptr = flat.children_ptr
    first = ptr[nodes]
    fan = ptr[nodes + 1] - first
    leaf = fan == 0
    inner = ~leaf
    # Entry e's children are children_idx[first[e] : first[e] + fan[e]].
    owner, slots = concat_ranges(first[inner], fan[inner])
    children = flat.children_idx[slots]
    hit = pairs_overlap_mask(
        flat.node_cols, children, table_b.cols, rows[inner][owner]
    )
    return leaf, owner, children, hit


def _leaf_hits(flat: FlatHierarchy, table_a, table_b, leaves, rows, out_a, out_b):
    """Test every reached leaf's A rows against its B row, in chunks.

    A chunk holds whole ``(leaf, B row)`` entries, so it exceeds
    :data:`CHUNK_DESCENT_PAIRS` candidates by less than one leaf.
    Appends the hits to ``out_a`` / ``out_b`` and returns the number of
    candidates tested.
    """
    start = flat.sub_start[leaves]
    span = flat.sub_stop[leaves] - start
    for lo, hi in chunk_boundaries(span, CHUNK_DESCENT_PAIRS):
        entry, cand_a = concat_ranges(start[lo:hi], span[lo:hi])
        cand_b = rows[lo:hi][entry]
        keep = pairs_overlap_mask(table_a.cols, cand_a, table_b.cols, cand_b)
        out_a.append(cand_a[keep])
        out_b.append(cand_b[keep])
    return int(span.sum())
