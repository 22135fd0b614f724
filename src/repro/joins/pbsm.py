"""PBSM — Partition Based Spatial-Merge join (Patel & DeWitt).

The paper's strongest baseline.  PBSM overlays the universe with a uniform
grid and assigns every object to *all* cells it overlaps (multiple
assignment).  Corresponding cell pairs are then joined locally.  Because
objects are replicated, (a) more comparisons are performed, (b) the memory
footprint grows with replication — the effect behind the paper's "two
orders of magnitude more memory" for PBSM-500 — and (c) results must be
deduplicated.

Like the paper's implementation, deduplication happens *during* the join
via the reference-point method (Dittrich & Seeger), so no additional
result memory is needed.

The two configurations the paper evaluates are ``PBSM(resolution=500)``
(fast, memory-hungry) and ``PBSM(resolution=100)`` (slower, leaner).
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.columnar import (
    CoordinateTable,
    resolve_backend,
    validate_backend,
)
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject
from repro.grid import resolution_label
from repro.grid.columnar import ColumnarGrid, grid_join_pairs
from repro.grid.uniform import UniformGrid
from repro.joins.base import Pair, SpatialJoinAlgorithm
from repro.joins.local import LOCAL_KERNELS
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

__all__ = ["PBSMJoin"]


class PBSMJoin(SpatialJoinAlgorithm):
    """Uniform-grid multiple-assignment join.

    Parameters
    ----------
    resolution:
        Number of grid cells per dimension (the paper sweeps 100 and 500
        over its 1000-unit universe).
    cell_size:
        Alternative, scale-invariant configuration: the cell edge length
        in space units.  The paper's PBSM-500 is ``cell_size = 2.0`` and
        PBSM-100 is ``cell_size = 10.0``; configuring by cell size keeps
        the replication factor (and hence the memory/time behaviour)
        identical on density-scaled universes.  At most one of
        ``resolution`` / ``cell_size`` may be given; giving neither
        defaults to the paper's ``resolution = 500``.
    local_kernel:
        Kernel joining the object lists of a cell pair; the paper uses the
        plane sweep (``"sweep"``, default).  The columnar backend joins
        cell pairs with the batch intersection primitive instead (every
        co-located pair tested in bulk, i.e. nested-loop comparison
        semantics) — the pair set is identical either way.
    universe:
        Optional fixed universe; by default the union of both datasets'
        extents is used.
    backend:
        ``"auto"`` (columnar), ``"object"`` or ``"columnar"``.
    """

    name = "PBSM"

    #: The paper's universe edge, used to display cell-size configurations
    #: under their familiar names (cell 2.0 -> "PBSM-500").
    PAPER_SPACE = 1000.0

    def __init__(
        self,
        resolution: int | None = None,
        cell_size: float | None = None,
        local_kernel: str = "sweep",
        universe: MBR | None = None,
        backend: str = "auto",
    ) -> None:
        if resolution is None and cell_size is None:
            resolution = 500
        if resolution is not None and cell_size is not None:
            raise ValueError("specify at most one of resolution and cell_size")
        if resolution is not None and resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        if cell_size is not None and cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if local_kernel not in LOCAL_KERNELS:
            raise ValueError(f"unknown local kernel {local_kernel!r}")
        self.resolution = resolution
        self.cell_size = cell_size
        self.local_kernel = local_kernel
        self.universe = universe
        self.backend = validate_backend(backend)
        self.name = "PBSM-" + resolution_label(
            resolution, cell_size, self.PAPER_SPACE
        )

    def describe(self) -> dict:
        return {
            "resolution": self.resolution,
            "cell_size": self.cell_size,
            "local_kernel": self.local_kernel,
            "backend": self.backend,
        }

    def estimate_bytes(self, n_a: int, n_b: int, dim: int) -> int:
        # Both tables plus two per-dataset grids; replication is only
        # known after hashing (PBSM-500 reaches ~80x on paper workloads),
        # so price the assumed pre-build factor.
        refs = memmodel.GRID_REPLICATION_ESTIMATE * (n_a + n_b)
        return super().estimate_bytes(n_a, n_b, dim) + 2 * memmodel.grid_cells_bytes(
            refs, refs
        )

    def _execute(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        stats: JoinStatistics,
    ) -> list[Pair]:
        if not objects_a or not objects_b:
            return []
        universe = self.universe
        if universe is None:
            universe = total_mbr(o.mbr for o in objects_a).union(
                total_mbr(o.mbr for o in objects_b)
            )
        backend = resolve_backend(self.backend)
        stats.extra["backend"] = backend
        if backend == "columnar":
            return self._execute_columnar(objects_a, objects_b, universe, stats)
        return self._execute_object(objects_a, objects_b, universe, stats)

    # -- grid construction (shared by one-shot and lifecycle paths) -----
    def _make_grid(self, universe: MBR) -> UniformGrid:
        if self.resolution is not None:
            return UniformGrid(universe, resolution=self.resolution)
        return UniformGrid(universe, cell_size=self.cell_size)

    def _make_columnar_grid(self, universe: MBR) -> ColumnarGrid:
        if self.resolution is not None:
            return ColumnarGrid(universe.lo, universe.hi, resolution=self.resolution)
        return ColumnarGrid(universe.lo, universe.hi, cell_size=self.cell_size)

    def _execute_object(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        universe: MBR,
        stats: JoinStatistics,
    ) -> list[Pair]:
        build_start = time.perf_counter()
        grid_a = self._make_grid(universe)
        grid_b = self._make_grid(universe)
        for obj in objects_a:
            grid_a.insert(obj, obj.mbr)
        for obj in objects_b:
            grid_b.insert(obj, obj.mbr)
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries = (grid_a.reference_count - len(objects_a)) + (
            grid_b.reference_count - len(objects_b)
        )

        join_start = time.perf_counter()
        pairs = self._merge_object_grids(grid_a, grid_b, stats)
        stats.join_seconds = time.perf_counter() - join_start

        stats.memory_bytes = grid_a.memory_bytes() + grid_b.memory_bytes()
        return pairs

    def _merge_object_grids(
        self,
        grid_a: UniformGrid,
        grid_b: UniformGrid,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Join corresponding cells of the two per-side hash grids."""
        kernel = LOCAL_KERNELS[self.local_kernel]
        pairs: list[Pair] = []
        duplicates = 0

        # Iterate the sparser map and probe the denser one.
        if len(grid_a) <= len(grid_b):
            outer, inner, a_side_outer = grid_a, grid_b, True
        else:
            outer, inner, a_side_outer = grid_b, grid_a, False

        for coords, outer_items in outer.non_empty_cells():
            inner_items = inner.items_in_cell(coords)
            if not inner_items:
                continue
            cell_a = outer_items if a_side_outer else inner_items
            cell_b = inner_items if a_side_outer else outer_items

            def emit(a: SpatialObject, b: SpatialObject) -> None:
                nonlocal duplicates
                stats.dedup_checks += 1
                if grid_a.owns_pair(coords, a.mbr, b.mbr):
                    pairs.append((a.oid, b.oid))
                else:
                    duplicates += 1

            kernel(cell_a, cell_b, stats, emit)

        stats.duplicates_suppressed += duplicates
        return pairs

    def _execute_columnar(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        universe: MBR,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Batched PBSM: entry arrays instead of hash maps.

        Multiple assignment becomes one vectorised (object, cell-key,
        class-mask) entry enumeration per side; corresponding cells are
        joined by indexing B's entries by key and looking A's up against
        them; the candidate pairs of every shared cell are intersection-
        tested and reference-point-deduplicated in bulk.
        """
        build_start = time.perf_counter()
        table_a = CoordinateTable.from_objects(objects_a)
        table_b = CoordinateTable.from_objects(objects_b)
        grid = self._make_columnar_grid(universe)
        entries_a = grid.entries(table_a, with_class_masks=True)
        entries_b = grid.entries(table_b, with_class_masks=True)
        (a_obj, a_keys, _), (b_obj, b_keys, _) = entries_a, entries_b
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries = (len(a_obj) - len(objects_a)) + (
            len(b_obj) - len(objects_b)
        )
        # The batch cell merge has nested-loop comparison semantics
        # (every co-located pair is tested), whatever local_kernel the
        # object path would have used per cell pair.
        stats.extra["cell_join"] = "batch"

        join_start = time.perf_counter()
        idx_a, idx_b = grid_join_pairs(
            grid, table_a, table_b, entries_a, entries_b, stats
        )
        pairs: list[Pair] = list(
            zip(table_a.ids[idx_a].tolist(), table_b.ids[idx_b].tolist())
        )
        stats.join_seconds = time.perf_counter() - join_start

        # Same analytic model as the object path (populated cells plus
        # stored references, both per-side hash grids), plus the real
        # footprint of the coordinate tables this backend allocates.
        table_bytes = table_a.nbytes + table_b.nbytes
        stats.extra["columnar_table_bytes"] = table_bytes
        stats.memory_bytes = (
            memmodel.grid_cells_bytes(
                len(np.unique(a_keys)) if len(a_keys) else 0, len(a_obj)
            )
            + memmodel.grid_cells_bytes(
                len(np.unique(b_keys)) if len(b_keys) else 0, len(b_obj)
            )
            + table_bytes
        )
        return pairs

    # -- build/probe lifecycle -----------------------------------------
    def _build(self, objects_a, stats):
        """Partition A once; probes bring only their own entries.

        Without an explicit ``universe`` the grid is fixed to A's extent
        at build time (a one-shot join would union both sides).  Probe
        objects outside of it clamp into the edge cells — the same
        ownership semantics both backends already apply to out-of-universe
        objects — so the pair set still matches a one-shot join exactly.
        """
        if not objects_a:
            return None
        universe = self.universe
        if universe is None:
            universe = total_mbr(o.mbr for o in objects_a)
        backend = resolve_backend(self.backend)
        if backend == "columnar":
            from repro.grid.columnar import sort_entries

            table_a = CoordinateTable.from_objects(objects_a)
            grid = self._make_columnar_grid(universe)
            entries_a = grid.entries(table_a, with_class_masks=True)
            index_a = sort_entries(entries_a[1])
            stats.replicated_entries += len(entries_a[0]) - len(objects_a)
            return {
                "backend": "columnar",
                "table_a": table_a,
                "grid": grid,
                "prepared_a": (entries_a, index_a),
                "n_a": len(objects_a),
                "a_cells_bytes": memmodel.grid_cells_bytes(
                    index_a.populated_cells, len(entries_a[0])
                ),
            }
        grid_a = self._make_grid(universe)
        for obj in objects_a:
            grid_a.insert(obj, obj.mbr)
        stats.replicated_entries += grid_a.reference_count - len(objects_a)
        return {
            "backend": "object",
            "universe": universe,
            "grid_a": grid_a,
            "n_a": len(objects_a),
        }

    def _probe(self, payload, objects_b, stats):
        if payload is None or not objects_b:
            return []
        if payload["backend"] == "columnar":
            return self._probe_table(
                payload, CoordinateTable.from_objects(objects_b), stats
            )
        stats.extra["backend"] = "object"
        grid_a = payload["grid_a"]
        build_start = time.perf_counter()
        grid_b = self._make_grid(payload["universe"])
        for obj in objects_b:
            grid_b.insert(obj, obj.mbr)
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries += grid_b.reference_count - len(objects_b)

        join_start = time.perf_counter()
        pairs = self._merge_object_grids(grid_a, grid_b, stats)
        stats.join_seconds = time.perf_counter() - join_start
        stats.memory_bytes = grid_a.memory_bytes() + grid_b.memory_bytes()
        return pairs

    def _probe_table(self, payload, table_b, stats):
        if payload is None or len(table_b) == 0:
            return []
        if payload["backend"] != "columnar":
            return self._probe(payload, table_b.to_objects(), stats)
        from repro.grid.columnar import grid_probe_pairs

        stats.extra["backend"] = "columnar"
        stats.extra["cell_join"] = "batch"
        grid = payload["grid"]
        table_a = payload["table_a"]

        build_start = time.perf_counter()
        entries_b = grid.entries(table_b, with_class_masks=True)
        b_obj, b_keys, _ = entries_b
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries += len(b_obj) - len(table_b)

        join_start = time.perf_counter()
        idx_a, idx_b = grid_probe_pairs(
            table_a, table_b, payload["prepared_a"], entries_b, stats
        )
        pairs: list[Pair] = list(
            zip(table_a.ids[idx_a].tolist(), table_b.ids[idx_b].tolist())
        )
        stats.join_seconds = time.perf_counter() - join_start
        # Mirror the one-shot accounting (per-side cell model + resident
        # tables) so cached-vs-rebuild memory columns stay comparable.
        table_bytes = table_a.nbytes + table_b.nbytes
        stats.extra["columnar_table_bytes"] = table_bytes
        stats.memory_bytes = (
            payload["a_cells_bytes"]
            + memmodel.grid_cells_bytes(
                len(np.unique(b_keys)) if len(b_keys) else 0, len(b_obj)
            )
            + table_bytes
        )
        return pairs
