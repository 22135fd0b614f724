"""TOUCH — the paper's contribution (§4, Algorithm 1).

The three phases:

1. **Tree building** (:class:`~repro.core.tree.TouchTree`): STR-bucket
   dataset A and build an R-Tree-like hierarchy over the buckets.
2. **Assignment** (:func:`~repro.core.assignment.assign_dataset_b`):
   attach every object of B to the lowest tree node whose MBR overlaps it
   with no overlapping sibling; objects overlapping nothing are filtered.
3. **Join** (:func:`~repro.core.local_join.join_assigned_nodes`): each
   node holding B objects is grid-joined against the A objects of its
   descendant leaves.

The combination gives data-oriented partitioning (small, tight buckets,
like an R-Tree) without replication of either dataset (unlike PBSM) and
without the rigid space-oriented grid of S3.

Phases two and three exist in two executions: the original per-object
walk (``backend="object"``) and a columnar one (``backend="columnar"``)
that stores both datasets as contiguous coordinate arrays and replaces
the per-object loops with batched numpy kernels — same tree, same
assignment decisions, same candidate tests, same pairs, just executed in
bulk (see ``docs/backends.md``).

Example
-------
>>> from repro.datasets import uniform_boxes
>>> from repro.core import TouchJoin
>>> a = uniform_boxes(1000, seed=1)
>>> b = uniform_boxes(5000, seed=2)
>>> result = TouchJoin().join(a, b)
>>> result.stats.comparisons < 1000 * 5000
True
"""

from __future__ import annotations

import time

from repro.core.assignment import assign_dataset_b, assign_table_b, locate_node
from repro.core.local_join import (
    join_assigned_nodes,
    join_assigned_nodes_columnar,
    leaf_order_table,
    probe_assigned_nodes_columnar,
)
from repro.core.tree import DEFAULT_FANOUT, DEFAULT_PARTITIONS, TouchTree
from repro.geometry.columnar import (
    BACKENDS,
    CoordinateTable,
    resolve_backend,
    validate_backend,
)
from repro.geometry.objects import SpatialObject
from repro.joins.base import Pair, PairArrays, SpatialJoinAlgorithm
from repro.joins.local import LOCAL_KERNELS
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

__all__ = ["TouchJoin", "resolve_backend", "BACKENDS"]


class TouchJoin(SpatialJoinAlgorithm):
    """The TOUCH in-memory spatial join.

    Parameters
    ----------
    fanout:
        Tree fanout; smaller fanouts give taller trees, better-distributed
        B assignments and fewer comparisons (§5.2.1, Figure 14).  Paper
        default: 2.
    num_partitions:
        Number of leaf buckets ``p`` (paper default: 1024; the effective
        bucket capacity is ``ceil(|A| / p)``).  Pass ``None`` for
        Algorithm 2's literal coupling of bucket size to the fanout —
        used by the Figure 14 fanout sweep.
    leaf_capacity:
        Direct bucket-capacity override (bypasses ``num_partitions``).
    local_kernel:
        Local-join kernel: ``"grid"`` (Algorithm 4, default), ``"sweep"``
        or ``"nested"`` — exposed for the §5.2.2 ablation.  Both backends
        honour the selection.
    cell_size_factor:
        Local grid cell size as a multiple of the mean object side; the
        paper requires cells "considerably larger than the average size
        of the objects".
    max_cells_per_dim:
        Upper bound on local-grid resolution per dimension.
    backend:
        ``"auto"`` (default: columnar), ``"object"`` (per-object Python
        loops) or ``"columnar"`` (contiguous coordinate arrays + batched
        kernels).  Both produce the identical pair set and identical
        ``comparisons`` counts.
    """

    name = "TOUCH"

    def __init__(
        self,
        fanout: int = DEFAULT_FANOUT,
        num_partitions: int | None = DEFAULT_PARTITIONS,
        leaf_capacity: int | None = None,
        local_kernel: str = "grid",
        cell_size_factor: float = 4.0,
        max_cells_per_dim: int = 64,
        backend: str = "auto",
    ) -> None:
        self.backend = validate_backend(backend)
        self.fanout = fanout
        self.num_partitions = num_partitions
        self.leaf_capacity = leaf_capacity
        self.local_kernel = local_kernel
        self.cell_size_factor = cell_size_factor
        self.max_cells_per_dim = max_cells_per_dim
        #: Tree of the most recent join, kept for inspection by tests,
        #: examples and the filtering experiments (Figures 13/14).
        self.last_tree: TouchTree | None = None

    def describe(self) -> dict:
        return {
            "fanout": self.fanout,
            "num_partitions": self.num_partitions,
            "leaf_capacity": self.leaf_capacity,
            "local_kernel": self.local_kernel,
            "cell_size_factor": self.cell_size_factor,
            "max_cells_per_dim": self.max_cells_per_dim,
            "backend": self.backend,
        }

    def estimate_bytes(self, n_a: int, n_b: int, dim: int) -> int:
        # Both tables plus the STR tree over A: L leaf buckets and the
        # ~L * f/(f-1) internal nodes of an f-ary hierarchy above them,
        # plus one stored reference per indexed object.
        base = super().estimate_bytes(n_a, n_b, dim)
        if n_a == 0:
            return base
        fanout = max(2, self.fanout)
        leaves = max(1, min(n_a, self.num_partitions or n_a))
        nodes = leaves * fanout // (fanout - 1) + 1
        return (
            base
            + nodes * memmodel.node_bytes(dim, fanout)
            + memmodel.reference_list_bytes(n_a)
        )

    def runs_on_tables(self) -> bool:
        return resolve_backend(self.backend) == "columnar"

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> "list[Pair] | PairArrays":
        if self.runs_on_tables():
            return self._execute_table(
                CoordinateTable.from_objects(objects_a),
                CoordinateTable.from_objects(objects_b),
                stats,
            )
        self._check_kernel()
        if not objects_a or not objects_b:
            return []
        stats.extra["backend"] = "object"

        # Phase 1: hierarchical data-oriented partitioning of A.
        build_start = time.perf_counter()
        tree = self._tree(objects_a)
        tree.root  # the object phases walk the node view: build it here
        stats.build_seconds = time.perf_counter() - build_start

        # Phase 2: single-assignment of B into the tree, with filtering.
        assign_start = time.perf_counter()
        assign_dataset_b(tree, objects_b, stats)
        stats.assign_seconds = time.perf_counter() - assign_start

        # Phase 3: grid-based local joins under every assigned node.
        join_start = time.perf_counter()
        pairs = join_assigned_nodes(
            tree,
            stats,
            kernel_name=self.local_kernel,
            cell_size_factor=self.cell_size_factor,
            max_cells_per_dim=self.max_cells_per_dim,
        )
        stats.join_seconds = time.perf_counter() - join_start

        stats.memory_bytes = tree.memory_bytes() + stats.extra.get(
            "local_grid_peak_bytes", 0
        )
        self._tree_extras(tree, stats)
        self.last_tree = tree
        return pairs

    def _execute_table(
        self,
        table_a: CoordinateTable,
        table_b: CoordinateTable,
        stats: JoinStatistics,
    ) -> PairArrays:
        """The columnar one-shot join: tables in, oid arrays out.

        No :class:`SpatialObject` is built: the tree is built from
        ``table_a``, and B is assigned and joined as rows of ``table_b``.
        """
        self._check_kernel()
        if len(table_a) == 0 or len(table_b) == 0:
            return PairArrays.empty()
        stats.extra["backend"] = "columnar"

        # Phase 1: hierarchical data-oriented partitioning of A, built
        # as the flat hierarchy and A in leaf order.
        build_start = time.perf_counter()
        tree = self._tree(table_a)
        leaf_table, flat = leaf_order_table(tree)
        stats.build_seconds = time.perf_counter() - build_start

        # Phase 2, batched: all of B descends the flat hierarchy level by
        # level.
        assign_start = time.perf_counter()
        nodes, rows = assign_table_b(flat, table_b, stats)
        stats.assign_seconds = time.perf_counter() - assign_start

        # Phase 3, batched: one columnar kernel call per assigned node.
        join_start = time.perf_counter()
        pairs = join_assigned_nodes_columnar(
            flat,
            leaf_table,
            table_b,
            nodes,
            rows,
            stats,
            kernel_name=self.local_kernel,
            cell_size_factor=self.cell_size_factor,
            max_cells_per_dim=self.max_cells_per_dim,
        )
        stats.join_seconds = time.perf_counter() - join_start

        # The coordinate tables are real allocations the columnar backend
        # keeps resident for the whole join: count them (arr.nbytes), on
        # top of the shared analytic tree + local-grid model, so the
        # figure-table memory numbers stay honest across backends.  The
        # assigned B rows are counted as the object path's node
        # references.
        table_bytes = leaf_table.nbytes + table_b.nbytes
        stats.extra["columnar_table_bytes"] = table_bytes
        stats.memory_bytes = (
            tree.index_bytes
            + memmodel.reference_list_bytes(len(rows))
            + stats.extra.get("local_grid_peak_bytes", 0)
            + table_bytes
        )
        self._tree_extras(tree, stats)
        self.last_tree = tree
        return pairs

    def _check_kernel(self) -> None:
        if self.local_kernel not in LOCAL_KERNELS:
            raise ValueError(f"unknown local kernel {self.local_kernel!r}")

    def _tree(self, data_a) -> TouchTree:
        return TouchTree(
            data_a,
            fanout=self.fanout,
            num_partitions=self.num_partitions,
            leaf_capacity=self.leaf_capacity,
        )

    # -- build/probe lifecycle -----------------------------------------
    def _build(self, objects_a, stats):
        """Phase 1 once: the hierarchy over A, reused by every probe.

        The tree carries the columnar leaf-order table and the flat
        hierarchy, so warm probes skip straight to assignment + range
        descent.
        """
        self._check_kernel()
        if not objects_a:
            return None
        backend = resolve_backend(self.backend)
        # Only the object probe walks leaf buckets of objects.
        tree = self._tree(
            objects_a
            if backend == "object"
            else CoordinateTable.from_objects(objects_a)
        )
        payload = {"tree": tree, "backend": backend}
        if backend == "columnar":
            payload["table_a"], payload["flat"] = leaf_order_table(tree)
        else:
            tree.root  # the object probe walks the node view: build it here
        self.last_tree = tree
        return payload

    def _probe(self, payload, objects_b, stats):
        """Phase-2 walk + range continuation, never mutating the tree.

        Each probe object is *assigned* exactly as in phase 2
        (:func:`~repro.core.assignment.locate_node` — dead-space
        filtering included), then descends every overlapping branch of
        its assigned subtree down to the leaves, whose A objects it is
        intersection-tested against.  Leaves partition A, so the result
        is duplicate-free without ownership tests, and the pair set
        equals the one-shot join's; re-partitioning the whole A subtree
        with a per-call grid (the one-shot local join, O(|A|) per call)
        is exactly what the prepared lifecycle avoids.
        """
        if payload is None or not objects_b:
            return []
        if payload["backend"] == "columnar":
            return self._probe_table(
                payload, CoordinateTable.from_objects(objects_b), stats
            )
        tree = payload["tree"]
        stats.extra["backend"] = "object"

        assign_start = time.perf_counter()
        assignments: dict = {}
        filtered = 0
        root = tree.root
        for obj in objects_b:
            node = locate_node(root, obj.mbr, stats)
            if node is None:
                filtered += 1
            else:
                assignments.setdefault(node, []).append(obj)
        stats.filtered += filtered
        stats.assign_seconds = time.perf_counter() - assign_start

        join_start = time.perf_counter()
        pairs: list[Pair] = []
        comparisons = 0
        node_tests = 0
        for node, assigned_objects in assignments.items():
            for obj in assigned_objects:
                mbr_b = obj.mbr
                stack = [node]
                while stack:
                    current = stack.pop()
                    if current.is_leaf:
                        for a in current.entities_a:
                            comparisons += 1
                            if a.mbr.intersects(mbr_b):
                                pairs.append((a.oid, obj.oid))
                        continue
                    for child in current.children:
                        node_tests += 1
                        if child.mbr.intersects(mbr_b):
                            stack.append(child)
        stats.comparisons += comparisons
        stats.node_tests += node_tests
        stats.join_seconds = time.perf_counter() - join_start
        stats.memory_bytes = tree.index_bytes
        self._tree_extras(tree, stats)
        return pairs

    def _probe_table(self, payload, table_b, stats):
        """Columnar probe: batched assignment + batched range descent."""
        if payload is None or len(table_b) == 0:
            return []
        if payload["backend"] != "columnar":
            return self._probe(payload, table_b.to_objects(), stats)
        tree = payload["tree"]
        stats.extra["backend"] = "columnar"

        flat = payload["flat"]
        assign_start = time.perf_counter()
        nodes, rows = assign_table_b(flat, table_b, stats)
        stats.assign_seconds = time.perf_counter() - assign_start

        join_start = time.perf_counter()
        pairs = probe_assigned_nodes_columnar(
            flat, payload["table_a"], table_b, nodes, rows, stats
        )
        stats.join_seconds = time.perf_counter() - join_start

        table_bytes = payload["table_a"].nbytes + flat.nbytes + table_b.nbytes
        stats.extra["columnar_table_bytes"] = table_bytes
        stats.memory_bytes = tree.index_bytes + table_bytes
        self._tree_extras(tree, stats)
        return pairs

    @staticmethod
    def _tree_extras(tree: TouchTree, stats: JoinStatistics) -> None:
        stats.extra["tree_height"] = tree.height
        stats.extra["tree_nodes"] = tree.node_count()
