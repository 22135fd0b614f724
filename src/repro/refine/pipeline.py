"""The refine stage of the filter-refine join pipeline.

A :class:`RefinePipeline` consumes candidate ``(oid_a, oid_b)`` pairs
from *any* registry algorithm (the filter stage — unchanged MBR
machinery) and keeps exactly the pairs whose exact Euclidean shape
distance is within epsilon.  Per candidate pair, in order:

1. **False-hit prune** — ``gap(mbr_a, mbr_b)^2 > eps^2`` proves the
   shapes apart (the MBR gap lower-bounds the shape distance).  Counted
   in ``false_hit_prunes``.  This fires because the candidate filter
   uses L-inf box inflation while the exact predicate is Euclidean: a
   diagonal neighbour intersects the inflated box yet sits further than
   epsilon.
2. **True-hit shortcut** (Kipf et al.) — both shapes expose an interior
   rectangle (a box *subset* of the shape) and
   ``gap(int_a, int_b)^2 <= eps^2`` proves the pair within epsilon
   without an exact test.  Counted in ``true_hits``.
3. **Exact test** — the segment-cross minimum distance plus containment
   checks for filled shapes.  Counted in ``exact_tests``.

The accounting identity ``true_hits + exact_tests == candidate_pairs -
false_hit_prunes`` holds by construction and is pinned by the parity
suite.  Surviving pairs are counted in ``refined_pairs`` and returned
in candidate order, so both backends (object / columnar) produce the
identical list.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np

from repro.geometry.columnar import resolve_backend
from repro.geometry.mbr import check_epsilon
from repro.geometry.shapes import KIND_CODES, box_gap_sq, shape_distance_sq
from repro.geometry.vertex_table import VertexTable, shape_of
from repro.refine import kernels
from repro.stats.counters import JoinStatistics

__all__ = ["RefinePipeline", "MissingShapesError"]


class MissingShapesError(ValueError):
    """``geometry="exact"`` was requested for a dataset without shapes."""

    def __init__(self, dataset: str):
        self.dataset = dataset
        super().__init__(
            f"dataset {dataset!r} carries no shape payloads; "
            "geometry='exact' needs vertex data (use a polygon/linestring "
            "workload such as 'polygons', or attach shapes to the dataset)"
        )


class _Side:
    """Per-side refinement view: shapes plus row-indexed columnar tables.

    The columnar tables come straight from one
    :class:`~repro.geometry.vertex_table.VertexTable` per ``refine()``
    call: MBRs by CSR reduction, 2-D boundaries as a flat segment table.
    Interior rectangles are cached on the shapes, so they are read per
    shape.
    """

    __slots__ = (
        "shapes", "index", "dim", "table", "mbr_lo", "mbr_hi",
        "int_lo", "int_hi", "segs", "seg_offsets",
    )

    def __init__(self, objects: Sequence, columnar: bool):
        self.shapes = [shape_of(obj) for obj in objects]
        self.index = {obj.oid: i for i, obj in enumerate(objects)}
        self.dim = self.shapes[0].dim if self.shapes else 0
        if not (columnar and self.shapes):
            return
        for obj, shape in zip(objects, self.shapes):
            if shape.dim != self.dim:
                raise ValueError(
                    f"dimensionality mismatch: object #{obj.oid} is "
                    f"{shape.dim}-D, object #{objects[0].oid} on the same "
                    f"side is {self.dim}-D"
                )
        table = VertexTable.from_shapes(self.shapes, range(len(self.shapes)))
        self.table = table
        starts = table.offsets[:-1]
        self.mbr_lo = np.minimum.reduceat(table.vertices, starts, axis=0)
        self.mbr_hi = np.maximum.reduceat(table.vertices, starts, axis=0)
        self.int_lo = np.full_like(self.mbr_lo, np.nan)
        self.int_hi = np.full_like(self.mbr_hi, np.nan)
        for i, shape in enumerate(self.shapes):
            interior = shape.interior_rectangle()
            if interior is not None:
                self.int_lo[i] = interior.lo
                self.int_hi[i] = interior.hi
        if self.dim == 2:
            self.segs, self.seg_offsets = kernels.segment_table(
                table.vertices, table.offsets, table.kinds
            )

    def seg_runs(self, rows):
        """``(start, count)`` of each row's run in the segment table."""
        start = self.seg_offsets[rows]
        return start, self.seg_offsets[rows + 1] - start

    def contain(self, rows, points):
        """Whether filled shape ``rows[k]`` contains ``points[k]``.

        Boxes test the closed box, polygons ray-cast their rings; the
        other kinds are not filled and contain nothing.
        """
        kinds = self.table.kinds[rows]
        inside = np.zeros(len(rows), dtype=bool)
        box = kinds == KIND_CODES["box"]
        lo, hi, point = self.mbr_lo[rows[box]], self.mbr_hi[rows[box]], points[box]
        inside[box] = ((lo <= point) & (point <= hi)).all(axis=1)
        ring = kinds == KIND_CODES["polygon"]
        runs = self.seg_runs(rows[ring])
        inside[ring] = kernels.polygons_contain(self.segs, *runs, points[ring])
        return inside

    def first_vertices(self, rows):
        return self.table.vertices[self.table.offsets[rows]]


class RefinePipeline:
    """Exact refinement of candidate pairs at a fixed epsilon.

    Parameters
    ----------
    epsilon:
        The join distance; the exact predicate is
        ``shape_distance <= epsilon`` (Euclidean).  ``0`` degenerates to
        an exact intersection test.
    backend:
        ``"auto"`` / ``"object"`` / ``"columnar"`` with the same
        resolution rules as the filter kernels.  Every backend returns
        the identical refined list.
    """

    def __init__(self, epsilon: float, backend: str = "auto"):
        self.epsilon = check_epsilon(epsilon)
        self.backend = resolve_backend(backend)

    def refine(
        self,
        pairs: Sequence[tuple[int, int]],
        objects_a: Sequence,
        objects_b: Sequence,
        stats: JoinStatistics | None = None,
    ) -> list[tuple[int, int]]:
        """Filter candidate pairs down to exact matches, in candidate order.

        ``objects_a`` / ``objects_b`` must expose **original** (never
        epsilon-inflated) extents: either objects carrying
        :class:`~repro.geometry.shapes.Shape` geometry, or plain MBR
        objects which refine as solid boxes over ``obj.mbr``.
        """
        if stats is None:
            stats = JoinStatistics()
        stats.candidate_pairs += len(pairs)
        if not pairs:
            return []
        columnar = self.backend == "columnar"
        side_a = _Side(objects_a, columnar)
        side_b = _Side(objects_b, columnar)
        if columnar:
            kept = self._refine_columnar(pairs, side_a, side_b, stats)
        else:
            kept = self._refine_object(pairs, side_a, side_b, stats)
        stats.refined_pairs += len(kept)
        return kept

    # -- object backend -------------------------------------------------
    def _refine_object(self, pairs, side_a, side_b, stats):
        eps_sq = self.epsilon * self.epsilon
        kept = []
        for pair in pairs:
            i = side_a.index[pair[0]]
            j = side_b.index[pair[1]]
            sa = side_a.shapes[i]
            sb = side_b.shapes[j]
            box_a = sa.mbr()
            box_b = sb.mbr()
            if box_gap_sq(box_a.lo, box_a.hi, box_b.lo, box_b.hi) > eps_sq:
                stats.false_hit_prunes += 1
                continue
            int_a = sa.interior_rectangle()
            int_b = sb.interior_rectangle()
            if (
                int_a is not None
                and int_b is not None
                and box_gap_sq(int_a.lo, int_a.hi, int_b.lo, int_b.hi) <= eps_sq
            ):
                stats.true_hits += 1
                kept.append(pair)
                continue
            stats.exact_tests += 1
            if shape_distance_sq(sa, sb) <= eps_sq:
                kept.append(pair)
        return kept

    # -- columnar backend -----------------------------------------------
    def _refine_columnar(self, pairs, side_a, side_b, stats):
        eps_sq = self.epsilon * self.epsilon
        rows_a = np.fromiter(
            (side_a.index[p[0]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        rows_b = np.fromiter(
            (side_b.index[p[1]] for p in pairs), dtype=np.int64, count=len(pairs)
        )
        if side_a.dim != side_b.dim:
            raise ValueError(
                f"dimensionality mismatch: object #{pairs[0][0]} is "
                f"{side_a.dim}-D, object #{pairs[0][1]} is {side_b.dim}-D"
            )
        mbr_gap = kernels.box_gap_sq_batch(
            side_a.mbr_lo[rows_a],
            side_a.mbr_hi[rows_a],
            side_b.mbr_lo[rows_b],
            side_b.mbr_hi[rows_b],
        )
        alive = mbr_gap <= eps_sq
        stats.false_hit_prunes += int(len(pairs) - int(alive.sum()))
        int_gap = kernels.box_gap_sq_batch(
            side_a.int_lo[rows_a],
            side_a.int_hi[rows_a],
            side_b.int_lo[rows_b],
            side_b.int_hi[rows_b],
        )
        keep = alive & (int_gap <= eps_sq)
        stats.true_hits += int(keep.sum())
        exact = np.flatnonzero(alive & ~keep)
        stats.exact_tests += len(exact)
        if len(exact):
            keep[exact] = self._exact_within(
                side_a, rows_a[exact], side_b, rows_b[exact], eps_sq
            )
        return list(compress(pairs, keep.tolist()))

    @staticmethod
    def _exact_within(side_a, rows_a, side_b, rows_b, eps_sq):
        """Exact tests of indeterminate pairs: segment pass, then containment.

        Box/point pairs never get here: their interior rectangle is the
        whole shape, so the true-hit screen decides them.
        """
        if side_a.dim != 2:
            sa = side_a.shapes[rows_a[0]]
            sb = side_b.shapes[rows_b[0]]
            raise ValueError(
                f"exact {sa.kind}/{sb.kind} distance requires 2-D shapes, "
                f"got {sa.dim}-D"
            )
        best = kernels.min_cross_sq(
            side_a.segs, *side_a.seg_runs(rows_a),
            side_b.segs, *side_b.seg_runs(rows_b),
        )
        within = best <= eps_sq
        # Boundaries apart: a filled shape may still swallow the other whole.
        apart = np.flatnonzero(~within)
        if len(apart):
            ra, rb = rows_a[apart], rows_b[apart]
            within[apart] = side_a.contain(ra, side_b.first_vertices(rb))
            within[apart] |= side_b.contain(rb, side_a.first_vertices(ra))
        return within
