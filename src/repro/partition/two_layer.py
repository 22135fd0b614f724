"""Two-layer space-oriented partitioning join: duplicate-free by design.

The modern alternative to PBSM's reference-point machinery (Tsitsigkos
& Mamoulis, "Parallel In-Memory Evaluation of Spatial Joins", 2019;
Tsitsigkos et al., "Two-layer Space-oriented Partitioning for Non-point
Data", 2023).  Layer one overlays the universe with a uniform tile grid
and multiple-assigns both datasets, but classifies every replica by
which corner of its home tile it owns (the class masks of
:mod:`repro.partition.classes`).  Layer two joins each tile with the
reduced *mini-join matrix* — only class combinations whose begin
corners pin the pair to the current tile are compared — so the union of
all mini-joins contains every intersecting pair exactly once and **no
per-pair ownership test is ever executed** (``stats.dedup_checks`` is
asserted 0 by the bench harness and the test suite).

Two execution backends, mirroring PBSM:

- ``object`` — per-tile class buckets of
  :class:`~repro.geometry.objects.SpatialObject`, each allowed class
  pair joined with a local kernel from :mod:`repro.joins.local`
  (plane sweep by default);
- ``columnar`` — flat ``(object, tile-key, class-mask)`` entry arrays
  from :meth:`ColumnarGrid.entries(..., with_class_masks=True)
  <repro.grid.columnar.ColumnarGrid.entries>`, tile-merged by key
  (:func:`~repro.grid.columnar.entry_join_candidates`) and
  mask-filtered before one batched intersection test per chunk
  (:class:`~repro.geometry.columnar.CoordinateTable` kernels).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.geometry.columnar import (
    CoordinateTable,
    pairs_overlap_mask,
    resolve_backend,
    validate_backend,
)
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject
from repro.grid import UniformGrid, resolution_label
from repro.grid.columnar import ColumnarGrid, entry_join_candidates
from repro.joins.base import Pair, SpatialJoinAlgorithm
from repro.joins.local import LOCAL_KERNELS
from repro.partition.classes import full_mask, mini_join_masks
from repro.stats import memory as memmodel
from repro.stats.counters import JoinStatistics

__all__ = ["TwoLayerJoin"]


class TwoLayerJoin(SpatialJoinAlgorithm):
    """Tile overlay + per-tile class lists + duplicate-free mini-joins.

    Parameters
    ----------
    resolution:
        Number of tiles per dimension.
    cell_size:
        Alternative, scale-invariant configuration: the tile edge length
        in space units (``TwoLayer-500`` is ``cell_size = 2.0`` over the
        paper's 1000-unit universe, like PBSM).  At most one of
        ``resolution`` / ``cell_size`` may be given; giving neither
        defaults to ``resolution = 100`` — two-layer tiles are normally
        coarser than PBSM cells because the mini-joins, not the tile
        granularity, bound the comparison count.
    local_kernel:
        Object-backend kernel joining two class lists of a tile:
        ``"sweep"`` (default, as in the source papers) or ``"nested"``.
        The ``"grid"`` kernel is rejected — it deduplicates internally
        with reference-point tests, which would break this algorithm's
        defining ``dedup_checks == 0`` guarantee.  The columnar backend
        always batch-tests the mask-filtered candidates (nested
        comparison semantics); the pair set is identical either way.
    universe:
        Optional fixed universe; defaults to the union of both datasets'
        extents.  Objects outside a fixed universe clamp into the edge
        tiles on both backends.
    backend:
        ``"auto"`` (columnar), ``"object"`` or ``"columnar"``.
    """

    name = "TwoLayer"

    #: The paper universe edge used for familiar display names
    #: (cell 2.0 -> "TwoLayer-500"), shared with PBSM.
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
            resolution = 100
        if resolution is not None and cell_size is not None:
            raise ValueError("specify at most one of resolution and cell_size")
        if resolution is not None and resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        if cell_size is not None and cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if local_kernel not in LOCAL_KERNELS:
            raise ValueError(f"unknown local kernel {local_kernel!r}")
        if local_kernel == "grid":
            raise ValueError(
                "the grid kernel deduplicates with per-pair reference-point "
                "tests; the two-layer join exists to perform none — use "
                "'sweep' or 'nested'"
            )
        self.resolution = resolution
        self.cell_size = cell_size
        self.local_kernel = local_kernel
        self.universe = universe
        self.backend = validate_backend(backend)
        self.name = "TwoLayer-" + resolution_label(
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
        # Both tables plus the uniform grid: real replication is only
        # known after hashing, so price the assumed pre-build factor
        # (relative footprints are what the governor compares).
        refs = memmodel.GRID_REPLICATION_ESTIMATE * (n_a + n_b)
        return super().estimate_bytes(n_a, n_b, dim) + memmodel.grid_cells_bytes(
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

    # -- object backend -------------------------------------------------
    def _execute_object(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        universe: MBR,
        stats: JoinStatistics,
    ) -> list[Pair]:
        build_start = time.perf_counter()
        grid = self._make_grid(universe)
        dim = universe.dim
        n_classes = 1 << dim
        tiles_a, entries_a = self._assign_side(grid, objects_a, n_classes)
        tiles_b, entries_b = self._assign_side(grid, objects_b, n_classes)
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries = (entries_a - len(objects_a)) + (
            entries_b - len(objects_b)
        )

        kernel = LOCAL_KERNELS[self.local_kernel]
        matrix = mini_join_masks(dim)
        pairs: list[Pair] = []

        def emit(a: SpatialObject, b: SpatialObject) -> None:
            pairs.append((a.oid, b.oid))

        join_start = time.perf_counter()
        for coords, groups_b in tiles_b.items():
            groups_a = tiles_a.get(coords)
            if groups_a is None:
                continue
            for mask_a, mask_b in matrix:
                tile_a = groups_a[mask_a]
                tile_b = groups_b[mask_b]
                if tile_a and tile_b:
                    kernel(tile_a, tile_b, stats, emit)
        stats.join_seconds = time.perf_counter() - join_start
        stats.memory_bytes = memmodel.grid_cells_bytes(
            len(tiles_a.keys() | tiles_b.keys()), entries_a + entries_b
        )
        return pairs

    # -- columnar backend -----------------------------------------------
    def _execute_columnar(
        self,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
        universe: MBR,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Batched two-layer join over flat classified entry arrays."""
        build_start = time.perf_counter()
        table_a = CoordinateTable.from_objects(objects_a)
        table_b = CoordinateTable.from_objects(objects_b)
        if self.resolution is not None:
            grid = ColumnarGrid(universe.lo, universe.hi, resolution=self.resolution)
        else:
            grid = ColumnarGrid(universe.lo, universe.hi, cell_size=self.cell_size)
        a_obj, a_keys, a_masks = grid.entries(table_a, with_class_masks=True)
        b_obj, b_keys, b_masks = grid.entries(table_b, with_class_masks=True)
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries = (len(a_obj) - len(objects_a)) + (
            len(b_obj) - len(objects_b)
        )
        # Like columnar PBSM, every surviving co-located candidate is
        # batch-tested (nested comparison semantics per tile).
        stats.extra["cell_join"] = "batch"

        join_start = time.perf_counter()
        pairs = self._masked_batch_join(
            entry_join_candidates(a_keys, b_keys, grid.total_cells),
            (a_obj, a_masks),
            (b_obj, b_masks),
            table_a,
            table_b,
            full_mask(grid.dim),
            stats,
        )
        stats.join_seconds = time.perf_counter() - join_start

        table_bytes = table_a.nbytes + table_b.nbytes
        mask_bytes = int(a_masks.nbytes + b_masks.nbytes)
        stats.extra["columnar_table_bytes"] = table_bytes
        stats.memory_bytes = (
            memmodel.grid_cells_bytes(
                len(np.unique(np.concatenate((a_keys, b_keys))))
                if len(a_keys) + len(b_keys)
                else 0,
                len(a_obj) + len(b_obj),
            )
            + table_bytes
            + mask_bytes
        )
        return pairs

    @staticmethod
    def _masked_batch_join(
        candidates,
        entries_a,
        entries_b,
        table_a: CoordinateTable,
        table_b: CoordinateTable,
        full: int,
        stats: JoinStatistics,
    ) -> list[Pair]:
        """Layer two in bulk: mask-filter candidate chunks, batch-test.

        ``candidates`` yields co-located ``(ent_a, ent_b)`` entry-index
        chunks (one-shot: :func:`entry_join_candidates`; probe:
        :func:`~repro.grid.columnar.probe_join_candidates` over the
        presorted build entries); ``entries_*`` carry the per-entry
        ``(object_index, class_mask)`` payloads.  Only pairs whose
        classes jointly own the tile's begin corner on every axis are
        intersection-tested — duplicate-free with zero ownership tests.
        """
        a_obj, a_masks = entries_a
        b_obj, b_masks = entries_b
        comparisons = 0
        out_a: list = []
        out_b: list = []
        for ent_a, ent_b in candidates:
            allowed = (a_masks[ent_a] | b_masks[ent_b]) == full
            ent_a, ent_b = ent_a[allowed], ent_b[allowed]
            comparisons += len(ent_a)
            cand_a, cand_b = a_obj[ent_a], b_obj[ent_b]
            hit = pairs_overlap_mask(table_a.cols, cand_a, table_b.cols, cand_b)
            out_a.append(cand_a[hit])
            out_b.append(cand_b[hit])
        stats.comparisons += comparisons
        if not out_a:
            return []
        idx_a = np.concatenate(out_a)
        idx_b = np.concatenate(out_b)
        return list(zip(table_a.ids[idx_a].tolist(), table_b.ids[idx_b].tolist()))

    # -- build/probe lifecycle -----------------------------------------
    @staticmethod
    def _assign_side(
        grid: UniformGrid,
        objects: list[SpatialObject],
        n_classes: int,
        restrict: "set | None" = None,
    ) -> tuple[dict, int]:
        """Classified per-tile buckets of one dataset.

        Returns ``({tile coords: per-class object lists}, entries)``.
        With ``restrict`` given, only tiles in that set are populated —
        probes skip tiles holding no build objects, which cannot emit
        pairs (the owner tile of any pair contains both objects).
        """
        tiles: dict[tuple[int, ...], list] = {}
        entries = 0
        for obj in objects:
            ranges = grid.index_ranges(obj.mbr)
            for coords in itertools.product(
                *(range(lo, hi + 1) for lo, hi in ranges)
            ):
                if restrict is not None and coords not in restrict:
                    continue
                mask = 0
                for d, (lo, _hi) in enumerate(ranges):
                    if coords[d] == lo:
                        mask |= 1 << d
                bucket = tiles.get(coords)
                if bucket is None:
                    bucket = [[] for _ in range(n_classes)]
                    tiles[coords] = bucket
                bucket[mask].append(obj)
                entries += 1
        return tiles, entries

    def _build(self, objects_a, stats):
        """Layer one over A only; the tile grid is fixed to A's extent.

        Probe objects outside the build universe clamp into the edge
        tiles — the ownership algebra is unchanged under clamping (the
        same guarantee the one-shot join gives objects outside a fixed
        ``universe``), so pair sets match the one-shot path exactly.
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
            a_obj, a_keys, a_masks = grid.entries(table_a, with_class_masks=True)
            index_a = sort_entries(a_keys)
            stats.replicated_entries += len(a_obj) - len(objects_a)
            return {
                "backend": "columnar",
                "table_a": table_a,
                "grid": grid,
                "a_obj": a_obj,
                "a_keys": a_keys,
                "a_masks": a_masks,
                "index_a": index_a,
            }
        grid = self._make_grid(universe)
        n_classes = 1 << universe.dim
        tiles_a, entries_a = self._assign_side(grid, objects_a, n_classes)
        stats.replicated_entries += entries_a - len(objects_a)
        return {
            "backend": "object",
            "grid": grid,
            "dim": universe.dim,
            "tiles_a": tiles_a,
            "entries_a": entries_a,
        }

    def _probe(self, payload, objects_b, stats):
        if payload is None or not objects_b:
            return []
        if payload["backend"] == "columnar":
            return self._probe_table(
                payload, CoordinateTable.from_objects(objects_b), stats
            )
        stats.extra["backend"] = "object"
        grid = payload["grid"]
        tiles_a = payload["tiles_a"]
        n_classes = 1 << payload["dim"]

        build_start = time.perf_counter()
        tiles_b, entries_b = self._assign_side(
            grid, objects_b, n_classes, restrict=tiles_a.keys()
        )
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries += entries_b - len(objects_b)

        kernel = LOCAL_KERNELS[self.local_kernel]
        matrix = mini_join_masks(payload["dim"])
        pairs: list[Pair] = []

        def emit(a: SpatialObject, b: SpatialObject) -> None:
            pairs.append((a.oid, b.oid))

        join_start = time.perf_counter()
        for coords, groups_b in tiles_b.items():
            groups_a = tiles_a[coords]
            for mask_a, mask_b in matrix:
                tile_a = groups_a[mask_a]
                tile_b = groups_b[mask_b]
                if tile_a and tile_b:
                    kernel(tile_a, tile_b, stats, emit)
        stats.join_seconds = time.perf_counter() - join_start
        # Same analytic model as the one-shot path (tiles + stored
        # entries of both sides) so cached-vs-rebuild memory columns
        # stay comparable; probe-side tiles are a subset of A's.
        stats.memory_bytes = memmodel.grid_cells_bytes(
            len(tiles_a), payload["entries_a"] + entries_b
        )
        return pairs

    def _probe_table(self, payload, table_b, stats):
        if payload is None or len(table_b) == 0:
            return []
        if payload["backend"] != "columnar":
            return self._probe(payload, table_b.to_objects(), stats)
        from repro.grid.columnar import probe_join_candidates

        stats.extra["backend"] = "columnar"
        stats.extra["cell_join"] = "batch"
        grid = payload["grid"]

        build_start = time.perf_counter()
        b_obj, b_keys, b_masks = grid.entries(table_b, with_class_masks=True)
        stats.build_seconds = time.perf_counter() - build_start
        stats.replicated_entries += len(b_obj) - len(table_b)

        join_start = time.perf_counter()
        pairs = self._masked_batch_join(
            probe_join_candidates(payload["index_a"], b_keys),
            (payload["a_obj"], payload["a_masks"]),
            (b_obj, b_masks),
            payload["table_a"],
            table_b,
            full_mask(grid.dim),
            stats,
        )
        stats.join_seconds = time.perf_counter() - join_start

        # Mirror the one-shot accounting: populated tiles + entries of
        # both sides, the resident coordinate tables and the class masks.
        table_bytes = payload["table_a"].nbytes + table_b.nbytes
        stats.extra["columnar_table_bytes"] = table_bytes
        populated = len(np.union1d(payload["index_a"].cell_keys, b_keys))
        stats.memory_bytes = (
            memmodel.grid_cells_bytes(
                populated, len(payload["a_obj"]) + len(b_obj)
            )
            + table_bytes
            + int(payload["a_masks"].nbytes + b_masks.nbytes)
        )
        return pairs
