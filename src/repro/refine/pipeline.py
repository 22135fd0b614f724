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
   checks for filled shapes.  Counted in ``exact_tests``.  The columnar
   backend settles each pair with the cheapest sufficient test
   (:meth:`RefinePipeline._exact_within`).

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

from repro.datasets.base import Dataset
from repro.geometry.columnar import resolve_backend
from repro.geometry.mbr import check_epsilon
from repro.geometry.shapes import (
    KIND_CODES,
    KIND_NAMES,
    Shape,
    box_gap_sq,
    shape_distance_sq,
)
from repro.geometry.vertex_table import VertexTable, shape_of
from repro.joins.base import PairArrays
from repro.refine import kernels
from repro.stats.counters import JoinStatistics

__all__ = [
    "MissingShapesError", "OidRows", "RefinePipeline", "RefineView",
    "first_witness_sq", "segment_pass_sq", "witness_sq",
]


class MissingShapesError(ValueError):
    """``geometry="exact"`` was requested for a dataset without shapes."""

    def __init__(self, dataset: str):
        self.dataset = dataset
        super().__init__(
            f"dataset {dataset!r} carries no shape payloads; "
            "geometry='exact' needs vertex data (use a polygon/linestring "
            "workload such as 'polygons', or attach shapes to the dataset)"
        )


class OidRows:
    """Candidate oids to rows of one side, which must not repeat an oid.

    A sorted-oid lookup, or the identity when the oids are ``0..n-1``
    in row order.  ``where`` names the side's objects in errors.
    """

    __slots__ = ("where", "_order", "_sorted")

    def __init__(self, ids, where: str):
        self.where = where
        self._order = None
        self._sorted = ids
        if not np.array_equal(ids, np.arange(len(ids))):
            self._order = np.argsort(ids, kind="stable")
            self._sorted = ids[self._order]
        repeated = np.flatnonzero(self._sorted[1:] == self._sorted[:-1])
        if len(repeated):
            raise ValueError(
                f"duplicate oid {int(self._sorted[repeated[0]])} in {where}: "
                "pairs name objects by oid, so each oid must be unique"
            )

    def rows(self, oids, side: str):
        """The rows of ``oids``; an unknown oid raises naming it."""
        n = len(self._sorted)
        if self._order is None:
            missing = (oids < 0) | (oids >= n)
        elif n:
            pos = np.minimum(np.searchsorted(self._sorted, oids), n - 1)
            missing = self._sorted[pos] != oids
        else:
            missing = np.ones(len(oids), dtype=bool)
        if missing.any():
            raise ValueError(
                f"candidate oid {int(oids[np.argmax(missing)])} is not an "
                f"object of side {side} ({self.where})"
            )
        return oids if self._order is None else self._order[pos]


def _object_rows(objects, name: str | None = None) -> OidRows:
    """The :class:`OidRows` of an object sequence (``name``: its dataset)."""
    ids = np.fromiter((obj.oid for obj in objects), dtype=np.int64, count=len(objects))
    return OidRows(ids, f"dataset {name!r}" if name else "the object list")


class RefineView:
    """One side of a refine: row-indexed columns over its exact shapes.

    Built from spatial objects: their shapes, else solid boxes over
    ``obj.mbr``.  Holds the side's
    :class:`~repro.geometry.vertex_table.VertexTable`, ``(d, n)`` MBR
    and interior-rectangle columns (NaN: no interior), each row's
    coordinate ``magnitude``, for 2-D sides the ``(2, V)`` vertex and
    ``(4, S)`` segment tables with CSR offsets and the ``(2, S)``
    segment box columns, and the :class:`OidRows` lookup.  A
    :class:`~repro.datasets.base.Dataset` builds its view once and
    caches it (:meth:`~repro.datasets.base.Dataset.refine_view`); plain
    object lists get a fresh one per refine call.
    """

    __slots__ = (
        "has_shapes", "oid_rows", "table", "dim", "mbr_lo", "mbr_hi",
        "int_lo", "int_hi", "magnitude", "points", "segs", "seg_offsets",
        "seg_lo", "seg_hi",
    )

    def __init__(self, objects: Sequence, name: str | None = None):
        shapes = [shape_of(obj) for obj in objects]
        self.has_shapes = any(isinstance(obj.geometry, Shape) for obj in objects)
        self.oid_rows = _object_rows(objects, name)
        self.dim = shapes[0].dim if shapes else 2
        for obj, shape in zip(objects, shapes):
            if shape.dim != self.dim:
                raise ValueError(
                    f"dimensionality mismatch: object #{obj.oid} is "
                    f"{shape.dim}-D, object #{objects[0].oid} on the same "
                    f"side is {self.dim}-D"
                )
        table = VertexTable.from_shapes(shapes, [obj.oid for obj in objects])
        self.table = table
        mbr_lo = mbr_hi = np.empty((0, self.dim))
        if shapes:
            starts = table.offsets[:-1]
            mbr_lo = np.minimum.reduceat(table.vertices, starts, axis=0)
            mbr_hi = np.maximum.reduceat(table.vertices, starts, axis=0)
        int_lo = np.full_like(mbr_lo, np.nan)
        int_hi = np.full_like(mbr_hi, np.nan)
        for i, shape in enumerate(shapes):
            interior = shape.interior_rectangle()
            if interior is not None:
                int_lo[i] = interior.lo
                int_hi[i] = interior.hi
        self.mbr_lo, self.mbr_hi, self.int_lo, self.int_hi = (
            np.ascontiguousarray(rows.T) for rows in (mbr_lo, mbr_hi, int_lo, int_hi)
        )
        self.magnitude = np.maximum(abs(mbr_lo), abs(mbr_hi)).max(axis=1, initial=0.0)
        self.points = self.segs = self.seg_offsets = self.seg_lo = self.seg_hi = None
        if self.dim == 2:
            self.points = np.ascontiguousarray(table.vertices.T)
            self.segs, self.seg_offsets = kernels.segment_table(
                table.vertices, table.offsets, table.kinds
            )
            self.seg_lo = np.minimum(self.segs[:2], self.segs[2:])
            self.seg_hi = np.maximum(self.segs[:2], self.segs[2:])

    def vertex_runs(self, rows):
        """``(start, count)`` of each row's run in the vertex buffer."""
        start = self.table.offsets[rows]
        return start, self.table.offsets[rows + 1] - start

    def seg_runs(self, rows):
        """``(start, count)`` of each row's run in the segment table."""
        start = self.seg_offsets[rows]
        return start, self.seg_offsets[rows + 1] - start

    def vertex_segment(self, rows, local):
        """Segment-table column of a segment touching vertex ``local[k]``
        of row ``rows[k]``."""
        _, count = self.vertex_runs(rows)
        kinds = self.table.kinds[rows]
        return self.seg_offsets[rows] + kernels.vertex_segments(kinds, count, local)

    def in_mbr(self, rows, points, margin):
        """Whether ``points[k]`` lies in row ``rows[k]``'s closed MBR
        widened by ``margin`` (a scalar or one value per row)."""
        inside = np.ones(len(rows), dtype=bool)
        for d, (lo, hi) in enumerate(zip(self.mbr_lo, self.mbr_hi)):
            point = points[:, d]
            inside &= (lo[rows] - margin <= point) & (point <= hi[rows] + margin)
        return inside

    def contain(self, rows, points, margin):
        """Whether filled shape ``rows[k]`` contains ``points[k]``.

        Boxes test the closed box, polygons ray-cast their rings; the
        other kinds are not filled and contain nothing.  A point more
        than ``margin[k]`` outside a ring's MBR is outside the ring
        (:func:`kernels.rounding_margin`), so only the others are cast.
        """
        kinds = self.table.kinds[rows]
        inside = np.zeros(len(rows), dtype=bool)
        box = np.flatnonzero(kinds == KIND_CODES["box"])
        inside[box] = self.in_mbr(rows[box], points[box], 0.0)
        ring = np.flatnonzero(kinds == KIND_CODES["polygon"])
        ring = ring[self.in_mbr(rows[ring], points[ring], margin[ring])]
        runs = self.seg_runs(rows[ring])
        inside[ring] = kernels.polygons_contain(self.segs, *runs, points[ring])
        return inside

    def first_vertices(self, rows):
        return self.table.vertices[self.table.offsets[rows]]


def _vertex_pair_sq(view_a, rows_a, local_a, view_b, rows_b, local_b):
    """Segment float between a segment touching vertex ``local_a[k]`` of
    A's row and one touching vertex ``local_b[k]`` of B's row.

    Both segments are in the pair's segment cross product, so the float
    is one the reference minimum is taken over: never below it, and
    ``float <= eps^2`` decides "within" exactly as the full pass would.
    """
    return kernels.segment_pairs_sq(
        view_a.segs, view_a.vertex_segment(rows_a, local_a),
        view_b.segs, view_b.vertex_segment(rows_b, local_b),
    )


def first_witness_sq(view_a, rows_a, view_b, rows_b):
    """Per 2-D pair, the segment float at local vertex 0 of each side."""
    first = np.zeros(len(rows_a), dtype=np.int64)
    return _vertex_pair_sq(view_a, rows_a, first, view_b, rows_b, first)


def witness_sq(view_a, rows_a, view_b, rows_b):
    """Per 2-D pair, the segment float of the vertex pair a walk finds:
    A's vertex nearest the centre of B's MBR, B's nearest that, A's
    nearest B's (:func:`kernels.nearest_vertices`)."""
    runs_a = view_a.vertex_runs(rows_a)
    runs_b = view_b.vertex_runs(rows_b)
    centre = (view_b.mbr_lo[:, rows_b] + view_b.mbr_hi[:, rows_b]) * 0.5
    local_a = kernels.nearest_vertices(view_a.points, *runs_a, *centre)
    local_b = kernels.nearest_vertices(
        view_b.points, *runs_b, *view_a.points[:, runs_a[0] + local_a]
    )
    local_a = kernels.nearest_vertices(
        view_a.points, *runs_a, *view_b.points[:, runs_b[0] + local_b]
    )
    return _vertex_pair_sq(view_a, rows_a, local_a, view_b, rows_b, local_b)


def segment_pass_sq(view_a, rows_a, view_b, rows_b, reach_sq):
    """Per 2-D pair, the segment-cross minimum over the segments near
    the other shape's MBR.

    Each side keeps the segments whose boxes lie within squared reach
    ``reach_sq[k]`` of the other side's MBR
    (:func:`kernels.near_segments`), and :func:`kernels.min_cross_sq`
    crosses the kept runs; a pair with a side left empty gets ``inf``.
    With a reach of at least ``epsilon`` plus
    :func:`kernels.rounding_margin`, every dropped segment pair computes
    above ``eps^2``, so the result is ``<= eps^2`` exactly when the full
    cross product's minimum is.
    """
    box_a = view_a.mbr_lo[:, rows_a], view_a.mbr_hi[:, rows_a]
    box_b = view_b.mbr_lo[:, rows_b], view_b.mbr_hi[:, rows_b]
    cols_a, kept_a = kernels.near_segments(
        view_a.seg_lo, view_a.seg_hi, *view_a.seg_runs(rows_a), *box_b, reach_sq
    )
    cols_b, kept_b = kernels.near_segments(
        view_b.seg_lo, view_b.seg_hi, *view_b.seg_runs(rows_b), *box_a, reach_sq
    )
    best = np.full(len(rows_a), np.inf)
    both = np.flatnonzero((kept_a > 0) & (kept_b > 0))
    if len(both):
        start_a = np.cumsum(kept_a) - kept_a
        start_b = np.cumsum(kept_b) - kept_b
        best[both] = kernels.min_cross_sq(
            view_a.segs[:, cols_a], start_a[both], kept_a[both],
            view_b.segs[:, cols_b], start_b[both], kept_b[both],
        )
    return best


def _view(side) -> RefineView:
    """A dataset's cached view, or a fresh one over an object list."""
    if isinstance(side, Dataset):
        return side.refine_view()
    return RefineView(side)


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
        pairs: "Sequence[tuple[int, int]] | PairArrays",
        objects_a: Sequence,
        objects_b: Sequence,
        stats: JoinStatistics | None = None,
    ) -> "list[tuple[int, int]] | PairArrays":
        """Filter candidate pairs down to exact matches, in candidate order.

        ``pairs`` are ``(oid_a, oid_b)`` tuples or a
        :class:`~repro.joins.base.PairArrays`; the kept pairs come back
        in the same form.  ``objects_a`` / ``objects_b`` must expose
        **original** (never epsilon-inflated) extents: objects carrying
        :class:`~repro.geometry.shapes.Shape` geometry, or plain MBR
        objects which refine as solid boxes over ``obj.mbr``.  A
        :class:`~repro.datasets.base.Dataset` side refines against its
        cached :class:`RefineView`, so repeat refines rebuild nothing.
        A candidate oid missing from its side, or a side holding an oid
        twice, raises :class:`ValueError` naming the oid.
        """
        if stats is None:
            stats = JoinStatistics()
        arrays = isinstance(pairs, PairArrays)
        count = len(pairs.a) if arrays else len(pairs)
        stats.candidate_pairs += count
        if not count:
            return PairArrays.empty() if arrays else []
        oids = pairs if arrays else PairArrays.from_pairs(pairs)
        if self.backend == "columnar":
            keep = self._keep_columnar(
                oids, _view(objects_a), _view(objects_b), stats
            )
        else:
            keep = np.fromiter(
                self._keep_object(oids, objects_a, objects_b, stats),
                dtype=bool, count=count,
            )
        stats.refined_pairs += int(keep.sum())
        if arrays:
            return PairArrays(pairs.a[keep], pairs.b[keep])
        return list(compress(pairs, keep.tolist()))

    # -- object backend (the reference) ---------------------------------
    def _keep_object(self, oids, objects_a, objects_b, stats):
        """Per candidate, in order, whether it is within epsilon."""
        eps_sq = self.epsilon * self.epsilon
        rows_a = _object_rows(objects_a).rows(oids.a, "A")
        rows_b = _object_rows(objects_b).rows(oids.b, "B")
        shapes_a = [shape_of(obj) for obj in objects_a]
        shapes_b = [shape_of(obj) for obj in objects_b]
        for i, j in zip(rows_a.tolist(), rows_b.tolist()):
            sa = shapes_a[i]
            sb = shapes_b[j]
            box_a = sa.mbr()
            box_b = sb.mbr()
            if box_gap_sq(box_a.lo, box_a.hi, box_b.lo, box_b.hi) > eps_sq:
                stats.false_hit_prunes += 1
                yield False
                continue
            int_a = sa.interior_rectangle()
            int_b = sb.interior_rectangle()
            if (
                int_a is not None
                and int_b is not None
                and box_gap_sq(int_a.lo, int_a.hi, int_b.lo, int_b.hi) <= eps_sq
            ):
                stats.true_hits += 1
                yield True
                continue
            stats.exact_tests += 1
            yield shape_distance_sq(sa, sb) <= eps_sq

    # -- columnar backend -----------------------------------------------
    def _keep_columnar(self, oids, view_a, view_b, stats):
        """Candidate mask over row arrays: prune, true hits, exact tests."""
        eps_sq = self.epsilon * self.epsilon
        rows_a = view_a.oid_rows.rows(oids.a, "A")
        rows_b = view_b.oid_rows.rows(oids.b, "B")
        if view_a.dim != view_b.dim:
            raise ValueError(
                f"dimensionality mismatch: object #{int(oids.a[0])} is "
                f"{view_a.dim}-D, object #{int(oids.b[0])} is {view_b.dim}-D"
            )
        mbr_gap = kernels.box_gap_sq_pairs(
            view_a.mbr_lo, view_a.mbr_hi, rows_a, view_b.mbr_lo, view_b.mbr_hi, rows_b
        )
        alive = np.flatnonzero(mbr_gap <= eps_sq)
        stats.false_hit_prunes += len(rows_a) - len(alive)
        rows_a, rows_b = rows_a[alive], rows_b[alive]
        hit = kernels.box_gap_sq_pairs(
            view_a.int_lo, view_a.int_hi, rows_a, view_b.int_lo, view_b.int_hi, rows_b
        ) <= eps_sq
        stats.true_hits += int(hit.sum())
        keep = np.zeros(len(mbr_gap), dtype=bool)
        keep[alive] = hit
        exact = np.flatnonzero(~hit)
        stats.exact_tests += len(exact)
        if len(exact):
            keep[alive[exact]] = self._exact_within(
                view_a, rows_a[exact], view_b, rows_b[exact]
            )
        return keep

    def _exact_within(self, view_a, rows_a, view_b, rows_b):
        """Exact tests of indeterminate pairs, cheapest sufficient test
        first: the first-vertex witness (:func:`first_witness_sq`), the
        nearest-vertex walk (:func:`witness_sq`), the pruned segment
        pass (:func:`segment_pass_sq`), then gated containment — the
        cascade and why none changes a decision are in
        :mod:`repro.refine.kernels`.  Box/point pairs never get here:
        their interior rectangle is the whole shape, so the true-hit
        screen decides them.
        """
        epsilon = self.epsilon
        eps_sq = epsilon * epsilon
        if view_a.dim != 2:
            kind_a = KIND_NAMES[int(view_a.table.kinds[rows_a[0]])]
            kind_b = KIND_NAMES[int(view_b.table.kinds[rows_b[0]])]
            raise ValueError(
                f"exact {kind_a}/{kind_b} distance requires 2-D shapes, "
                f"got {view_a.dim}-D"
            )
        within = first_witness_sq(view_a, rows_a, view_b, rows_b) <= eps_sq
        open_ = np.flatnonzero(~within)
        if len(open_):
            ra, rb = rows_a[open_], rows_b[open_]
            within[open_] = witness_sq(view_a, ra, view_b, rb) <= eps_sq
            open_ = open_[~within[open_]]
        if not len(open_):
            return within
        ra, rb = rows_a[open_], rows_b[open_]
        magnitude = np.maximum(view_a.magnitude[ra], view_b.magnitude[rb])
        margin = kernels.rounding_margin(magnitude, epsilon)
        reach = epsilon + margin
        near = segment_pass_sq(view_a, ra, view_b, rb, reach * reach) <= eps_sq
        # Boundaries apart: a filled shape may still swallow the other whole.
        apart = np.flatnonzero(~near)
        if len(apart):
            ra, rb, margin = ra[apart], rb[apart], margin[apart]
            near[apart] = view_a.contain(ra, view_b.first_vertices(rb), margin)
            near[apart] |= view_b.contain(rb, view_a.first_vertices(ra), margin)
        within[open_] = near
        return within
