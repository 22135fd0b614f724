"""TOUCH join phase (paper §4.5, Algorithm 4).

Every node holding B entities is joined against the A objects stored in
its descendant leaves.  The paper performs this *local join* with a
space-oriented uniform grid: the node's B objects are hashed into cells,
each A object probes the cells it overlaps, and candidate pairs found in a
shared cell are tested for intersection.  Pairs replicated across cells
are owned by exactly one cell (reference-point rule), so the local join is
duplicate-free, preserving Lemma 3 end-to-end.

The grid kernel is shared with the rest of the library
(:func:`repro.joins.local.grid_kernel`); the nested-loop and plane-sweep
kernels can be substituted for the local-join ablation (§5.2.2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.tree import TouchTree
from repro.geometry.columnar import CoordinateTable, stable_argsort
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, PairArrays
from repro.geometry.hierarchy import FlatHierarchy, descend_hierarchy
from repro.joins.local import COLUMNAR_KERNELS, LOCAL_KERNELS, grid_kernel
from repro.stats.counters import JoinStatistics

__all__ = [
    "join_assigned_nodes",
    "join_assigned_nodes_columnar",
    "probe_assigned_nodes_columnar",
    "leaf_order_table",
]


def join_assigned_nodes(
    tree: TouchTree,
    stats: JoinStatistics,
    kernel_name: str = "grid",
    cell_size_factor: float = 4.0,
    max_cells_per_dim: int = 64,
    emit: Callable[[SpatialObject, SpatialObject], None] | None = None,
) -> list[Pair]:
    """Run the local join under every node that received B entities.

    Parameters
    ----------
    tree:
        The phase-one tree after assignment.
    kernel_name:
        ``"grid"`` (Algorithm 4, default), ``"sweep"`` or ``"nested"``.
    cell_size_factor / max_cells_per_dim:
        Grid-kernel tuning (§5.2.2): cells are sized a multiple of the
        average object side, bounded in count per dimension.
    emit:
        Optional callback invoked per result pair *in addition to* the
        returned pair list (used by streaming consumers).
    """
    if kernel_name not in LOCAL_KERNELS:
        raise ValueError(f"unknown local kernel {kernel_name!r}")
    pairs: list[Pair] = []

    if emit is None:
        def sink(a: SpatialObject, b: SpatialObject) -> None:
            pairs.append((a.oid, b.oid))
    else:
        def sink(a: SpatialObject, b: SpatialObject) -> None:
            pairs.append((a.oid, b.oid))
            emit(a, b)

    for node in tree.iter_nodes():
        entities_b = node.entities_b
        if not entities_b:
            continue
        objects_a = (
            node.entities_a if node.is_leaf else list(node.iter_leaf_objects())
        )
        if not objects_a:
            continue
        if kernel_name == "grid":
            grid_kernel(
                objects_a,
                entities_b,
                stats,
                sink,
                cell_size_factor=cell_size_factor,
                max_cells_per_dim=max_cells_per_dim,
                universe=None,
            )
        else:
            LOCAL_KERNELS[kernel_name](objects_a, entities_b, stats, sink)
    return pairs


def join_assigned_nodes_columnar(
    flat: FlatHierarchy,
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    nodes,
    rows,
    stats: JoinStatistics,
    kernel_name: str = "grid",
    cell_size_factor: float = 4.0,
    max_cells_per_dim: int = 64,
) -> PairArrays:
    """Columnar Algorithm 4 driver: one batched kernel call per node.

    ``table_a`` holds dataset A in leaf order (the rows ``flat``'s
    subtree ranges index, see :func:`leaf_order_table`); B row
    ``rows[i]`` is assigned to flat node ``nodes[i]``, as produced by
    :func:`repro.core.assignment.assign_table_b`.  For every node holding
    B rows, the A rows ``[sub_start, sub_stop)`` of its subtree (a view,
    not a copy) are joined with those B rows by the selected columnar
    kernel.  Disjoint single-assignment batches keep the result
    duplicate-free (Lemma 3), exactly as in the object path.  The oid pairs come back as arrays,
    node by node.
    """
    if kernel_name not in COLUMNAR_KERNELS:
        raise ValueError(f"unknown local kernel {kernel_name!r}")
    if len(nodes) == 0:
        return PairArrays.empty()
    out_a, out_b = [], []
    order = stable_argsort(nodes)
    nodes, rows = nodes[order], rows[order]
    cuts = np.flatnonzero(np.diff(nodes)) + 1
    for node, b_rows in zip(nodes[np.r_[0, cuts]].tolist(), np.split(rows, cuts)):
        sub_start = int(flat.sub_start[node])
        sub_a = table_a.take(slice(sub_start, int(flat.sub_stop[node])))
        sub_b = table_b.take(b_rows)
        if kernel_name == "grid":
            hit_a, hit_b = COLUMNAR_KERNELS["grid"](
                sub_a,
                sub_b,
                stats,
                cell_size_factor=cell_size_factor,
                max_cells_per_dim=max_cells_per_dim,
            )
        else:
            hit_a, hit_b = COLUMNAR_KERNELS[kernel_name](sub_a, sub_b, stats)
        out_a.append(hit_a + sub_start)
        out_b.append(b_rows[hit_b])
    return PairArrays(
        table_a.ids[np.concatenate(out_a)], table_b.ids[np.concatenate(out_b)]
    )


def probe_assigned_nodes_columnar(
    flat: FlatHierarchy,
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    nodes,
    rows,
    stats: JoinStatistics,
) -> list[Pair]:
    """Probe-shaped phase 3: continue the assignment descent to the leaves.

    The one-shot local join re-partitions the whole A subtree under each
    assigned node with a fresh grid — the right shape when all of B is
    joined at once, but O(|A|) per call, which would erase the point of
    build-once/probe-many for small query batches.  Here the hierarchy
    itself serves as the probe index: every assigned B row ``rows[i]``
    starts at its phase-2 node ``nodes[i]`` (a flat index, as
    :func:`repro.core.assignment.assign_table_b` returns) and descends
    *every* overlapping child (a range descent, not the single-path
    assignment walk) down to the leaves, whose contiguous A rows it is
    tested against.  All rows descend together, one level per numpy
    pass over the flat hierarchy
    (:func:`~repro.geometry.hierarchy.descend_hierarchy`).  Leaves
    partition A, so the result is duplicate-free without any ownership
    tests; the pair set equals the one-shot join's while the work per
    batch is proportional to the branches the queries actually touch.
    """
    hit_a, hit_b, comparisons, node_tests = descend_hierarchy(
        flat, table_a, table_b, nodes, rows
    )
    stats.comparisons += comparisons
    stats.node_tests += node_tests
    return list(zip(table_a.ids[hit_a].tolist(), table_b.ids[hit_b].tolist()))


def leaf_order_table(tree: TouchTree):
    """Dataset A as a coordinate table in leaf order, plus the flat tree.

    The tree builds both once (:attr:`TouchTree.leaf_table`,
    :attr:`TouchTree.flat`): every subtree's A rows are the contiguous
    range ``[sub_start, sub_stop)`` of the table, so gathering the A
    objects under any node is a slice rather than a scattered copy.
    """
    return tree.leaf_table, tree.flat
