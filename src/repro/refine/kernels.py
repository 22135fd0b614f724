"""Exact-geometry refinement kernels (scalar forms + batched numpy twins).

The refinement predicate is Euclidean: ``shape_distance(a, b) <=
epsilon``, evaluated on *squared* distances throughout.  Three kernel
families, each with a scalar canonical form and a batched numpy twin
that mirrors the scalar arithmetic **operation for operation**, so the
object and columnar refinement backends reach bit-identical decisions
(the same discipline the MBR kernels follow):

- :func:`repro.geometry.shapes.box_gap_sq` /
  :func:`box_gap_sq_pairs` — squared Euclidean gap between closed
  boxes, over ``(d, n)`` corner columns one dimension at a time; powers
  the MBR **false-hit** prune, the interior-rectangle **true-hit**
  shortcut and the segment prune (:func:`near_segments`);
- :func:`repro.geometry.shapes.segment_distance_sq` /
  :func:`min_cross_sq` — Ericson's clamped closest-point between
  segments, minimised over the segment cross product of every
  candidate pair in one pass;
- :func:`repro.geometry.shapes.polygon_contains` /
  :func:`polygons_contain` — boundary-inclusive point-in-polygon: a
  point is inside when it lies on some edge or crosses an odd number.

The columnar exact test settles each pair with the cheapest
sufficient test (:meth:`repro.refine.pipeline.RefinePipeline._exact_within`):

1. a *first-vertex witness*: :func:`segment_pairs_sq` of the segments
   at local vertex 0 of each side (:func:`vertex_segments`);
2. a *nearest-vertex walk*: A's vertex nearest the centre of B's MBR,
   B's nearest that, A's nearest B's — one linear pass per step
   (:func:`nearest_vertices`) — then the same float for one segment
   touching each vertex.  Both witnesses are floats :func:`min_cross_sq`
   minimises over, so ``witness <= eps^2`` implies the reference
   decision "within"; the vertex distances only choose the segments;
3. :func:`min_cross_sq` over only the segments whose boxes lie within
   ``epsilon`` plus :func:`rounding_margin` of the other shape's MBR
   (:func:`near_segments`): every dropped segment pair computes above
   ``eps^2``;
4. :func:`polygons_contain` only for first vertices inside the other
   MBR widened by the same margin.

On ``exact_polygons`` the first witness settles 4 673 of 11 403 exact
tests (seed 20130622) and the walk 4 804 of the other 6 730 (4 768 of
6 723 at seed 4242): the pairs the all-pairs closest vertex pair
settled, at ``O(ca + cb)`` vertex work per pair instead of ``O(ca *
cb)``.  The prune cuts the segment pass from 117 155 to 8 635 segment
pairs, and no point is ray-cast.

The batched kernels walk a flat ``(pair, segment pair)`` (or ``(pair,
vertex)``) index space in chunks of :data:`CHUNK_SEGMENT_PAIRS`, so
every temporary stays the same size however many vertices a pair
carries; a pair may straddle chunk edges.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.columnar import concat_ranges
from repro.geometry.shapes import KIND_CODES

__all__ = [
    "CHUNK_SEGMENT_PAIRS",
    "box_gap_sq_pairs",
    "min_cross_sq",
    "near_segments",
    "nearest_vertices",
    "polygons_contain",
    "rounding_margin",
    "segment_pairs_sq",
    "segment_table",
    "vertex_segments",
]

#: Segment pairs (or point/edge pairs) evaluated per vectorised step.
CHUNK_SEGMENT_PAIRS = 1 << 15


def box_gap_sq_pairs(lo_a, hi_a, rows_a, lo_b, hi_b, rows_b):
    """Squared gap of box ``rows_a[k]`` to box ``rows_b[k]``, per pair.

    ``lo_a`` / ``hi_a`` (and B's) are ``(d, n)`` corner columns, one
    row per dimension.  Each dimension gathers 1-D columns by row and
    adds its square to the sum in dimension order: the same float as
    :func:`~repro.geometry.shapes.box_gap_sq`.  NaN rows (missing
    interior rectangles) give NaN gaps, which compare ``False`` against
    any epsilon: exactly "no shortcut".
    """
    total = None
    for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b):
        gap = np.maximum(la[rows_a] - hb[rows_b], lb[rows_b] - ha[rows_a])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        if total is None:
            total = gap
        else:
            total += gap
    return total


def rounding_margin(magnitude, epsilon):
    """Distance a segment or point screen widens its reach by.

    ``2**-40 * (magnitude + epsilon)`` for shapes whose coordinates are
    at most ``magnitude`` in absolute value.  The screens drop only
    segments (or ray-cast points) whose box gap to the other shape's
    MBR exceeds ``epsilon + margin``; the margin makes that safe:

    - every branch of :func:`_segment_distance_sq` clamps ``s`` and
      ``t`` to ``[0, 1]``, so its closest points ``a + d1 * s`` and
      ``c + d2 * t`` lie within ``7u * M`` per coordinate of points on
      the two segments (``u = 2**-53``, ``M`` the magnitude), and the
      difference vector ``g`` within ``23u * M`` of one joining them;
    - a segment whose box is ``G`` from the other MBR thus computes at
      least ``(1 - 3u) * (G - 23u * M)**2`` against every segment
      there, and the box gap itself is computed within a ``5u``
      relative error;
    - ``2**-40 = 8192u`` covers both with a factor of over 100 to
      spare, and the relative ``epsilon`` term covers the rounding of
      ``epsilon**2`` and of the reach, so every dropped segment pair
      computes above ``eps**2``.  A ray cast from a point more than the
      margin outside a ring's MBR crosses an even number of edges and
      touches none, for the same reason.

    The bound does not cover the proper-crossing override, which
    reports 0 when four orientation signs say so: a pair of
    near-parallel segments whose endpoints lie within rounding of each
    other's lines can round to "crossing" while far apart.  Such a
    pair's reference float is itself a rounding artefact.
    """
    return (magnitude + epsilon) * 2.0**-40


def near_segments(seg_lo, seg_hi, start, count, box_lo, box_hi, reach_sq):
    """Segments of each pair's run whose boxes lie within reach of its box.

    Pair ``k`` screens segments ``start[k]:start[k] + count[k]`` (boxes
    in the ``(2, S)`` columns ``seg_lo`` / ``seg_hi``) against column
    ``k`` of ``box_lo`` / ``box_hi``, keeping a segment when its squared
    box gap is at most ``reach_sq[k]``.  Returns ``(cols, kept)``: the
    kept segment columns, pair by pair in run order, and how many each
    pair kept.
    """
    pair, cols = concat_ranges(start, count)
    gap = box_gap_sq_pairs(seg_lo, seg_hi, cols, box_lo, box_hi, pair)
    near = gap <= reach_sq[pair]
    return cols[near], np.bincount(pair[near], minlength=len(start))


def segment_table(vertices, offsets, kinds):
    """2-D boundaries of CSR vertex rows as a segment table + CSR offsets.

    The table is ``(4, S)``: rows ``x1, y1, x2, y2``, one column per
    segment.  Object ``i`` owns columns ``seg_offsets[i]:seg_offsets[i +
    1]``, in the order :meth:`~repro.geometry.shapes.Shape.segments`
    lists them: a point is one zero-length segment, a linestring joins
    consecutive vertices, a polygon also closes its ring, and a box
    ``(lo, hi)`` walks its four corners from ``lo``.
    """
    starts = offsets[:-1]
    counts = offsets[1:] - starts
    box = kinds == KIND_CODES["box"]
    stays = box | (kinds == KIND_CODES["point"])
    nseg = np.where(box, 4, counts - (kinds == KIND_CODES["linestring"]))
    seg_offsets = np.zeros(len(kinds) + 1, dtype=np.int64)
    np.cumsum(nseg, out=seg_offsets[1:])
    owner = np.repeat(np.arange(len(kinds)), nseg)
    local = np.arange(int(seg_offsets[-1])) - seg_offsets[owner]
    first = starts[owner]
    # Box columns are placeholders here, filled from corners below.
    head = np.where(box[owner], first, first + local)
    tail = np.where(stays[owner], head, head + 1)
    # A polygon's last edge closes the ring back to its first vertex.
    closing = (kinds[owner] == KIND_CODES["polygon"]) & (local == counts[owner] - 1)
    tail[closing] = first[closing]
    segs = np.stack(
        [vertices[head, 0], vertices[head, 1], vertices[tail, 0], vertices[tail, 1]]
    )
    lo, hi = vertices[starts[box]], vertices[starts[box] + 1]
    xs = np.stack([lo[:, 0], hi[:, 0], hi[:, 0], lo[:, 0]])  # corner k, box j
    ys = np.stack([lo[:, 1], lo[:, 1], hi[:, 1], hi[:, 1]])
    sides = seg_offsets[:-1][box] + np.arange(4)[:, None]
    segs[:, sides] = np.stack([xs, ys, np.roll(xs, -1, 0), np.roll(ys, -1, 0)])
    return segs, seg_offsets


def _chunks(work):
    """Walk the flat index space of per-pair ``work`` counts in chunks.

    Yields ``(p0, p1, starts, pair, local)``: the chunk covers pairs
    ``p0:p1``; ``starts`` are the positions where each of them begins
    inside the chunk (a ``reduceat`` index), and ``pair`` / ``local``
    name, per element, its pair and its offset within that pair's work.
    Every ``work`` entry must be positive.
    """
    bounds = np.zeros(len(work) + 1, dtype=np.int64)
    np.cumsum(work, out=bounds[1:])
    total = int(bounds[-1])
    for lo in range(0, total, CHUNK_SEGMENT_PAIRS):
        hi = min(lo + CHUNK_SEGMENT_PAIRS, total)
        p0 = int(np.searchsorted(bounds, lo, side="right")) - 1
        p1 = int(np.searchsorted(bounds, hi, side="left"))
        begin = np.maximum(bounds[p0:p1], lo)
        end = np.minimum(bounds[p0 + 1 : p1 + 1], hi)
        pair = np.repeat(np.arange(p0, p1), end - begin)
        local = np.arange(lo, hi) - bounds[pair]
        yield p0, p1, begin - lo, pair, local


def _segment_distance_sq(ax, ay, bx, by, cx, cy, dx, dy):
    """Elementwise :func:`~repro.geometry.shapes.segment_distance_sq`.

    Every element takes the scalar form's branch and computes it with
    the same operations in the same order, so it is the same float.
    Guards for zero-length segments and parallel pairs run only when a
    chunk holds one.
    """
    d1x = bx - ax
    d1y = by - ay
    d2x = dx - cx
    d2y = dy - cy
    rx = ax - cx
    ry = ay - cy
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry
    c = d1x * rx + d1y * ry
    b = d1x * d2x + d1y * d2y

    point_a = a <= 0.0
    point_e = e <= 0.0
    degenerate = bool(point_a.any() or point_e.any())
    safe_a = np.where(point_a, 1.0, a) if degenerate else a
    safe_e = np.where(point_e, 1.0, e) if degenerate else e
    denom = a * e - b * b
    parallel = denom == 0.0
    if parallel.any():
        s_gen = np.clip((b * f - c * e) / np.where(parallel, 1.0, denom), 0.0, 1.0)
        s_gen = np.where(parallel, 0.0, s_gen)
    else:
        s_gen = np.clip((b * f - c * e) / denom, 0.0, 1.0)
    t_num = b * s_gen + f
    below = t_num < 0.0
    above = t_num > e
    s_low = np.clip(-c / safe_a, 0.0, 1.0)
    s_high = np.clip((b - c) / safe_a, 0.0, 1.0)
    t = np.where(below, 0.0, np.where(above, 1.0, t_num / safe_e))
    s = np.where(below, s_low, np.where(above, s_high, s_gen))
    if degenerate:
        t_a0 = np.clip(f / safe_e, 0.0, 1.0)
        s = np.where(point_a, 0.0, np.where(point_e, s_low, s))
        t = np.where(point_a, np.where(point_e, 0.0, t_a0), np.where(point_e, 0.0, t))

    gx = (ax + d1x * s) - (cx + d2x * t)
    gy = (ay + d1y * s) - (cy + d2y * t)
    crossing = (
        (d1x * (cy - ay) - d1y * (cx - ax)) * (d1x * (dy - ay) - d1y * (dx - ax)) < 0.0
    ) & ((d2x * ry - d2y * rx) * (d2x * (by - cy) - d2y * (bx - cx)) < 0.0)
    return np.where(crossing, 0.0, gx * gx + gy * gy)


def min_cross_sq(segs_a, start_a, count_a, segs_b, start_b, count_b):
    """Per-pair minimum squared distance over each segment cross product.

    Pair ``k`` crosses segments ``start_a[k]:start_a[k] + count_a[k]``
    of segment table ``segs_a`` with the matching run of ``segs_b``.
    The batched twin of looping
    :func:`~repro.geometry.shapes.segment_distance_sq` over all
    ``count_a[k] * count_b[k]`` segment pairs: the minimum of the same
    floats is the same float.
    """
    best = np.full(len(start_a), np.inf)
    for p0, p1, starts, pair, local in _chunks(count_a * count_b):
        row_a, row_b = np.divmod(local, count_b[pair])
        row_a += start_a[pair]
        row_b += start_b[pair]
        dist = _segment_distance_sq(
            *(column[row_a] for column in segs_a),
            *(column[row_b] for column in segs_b),
        )
        np.minimum(best[p0:p1], np.minimum.reduceat(dist, starts), out=best[p0:p1])
    return best


def nearest_vertices(points, start, count, qx, qy):
    """Per pair, the run-local index of its vertex nearest a query point.

    Pair ``k`` scans columns ``start[k]:start[k] + count[k]`` of the
    ``(2, V)`` vertex table ``points`` (rows ``x, y``) under the plain
    squared distance to ``(qx[k], qy[k])``; the first nearest wins ties.
    """
    best = np.full(len(start), np.inf)
    where = np.zeros(len(start), dtype=np.int64)
    x, y = points
    for p0, p1, starts, pair, local in _chunks(count):
        rows = start[pair] + local
        dx = x[rows] - qx[pair]
        dy = y[rows] - qy[pair]
        dist = dx * dx + dy * dy
        low = np.minimum.reduceat(dist, starts)
        hits = np.flatnonzero(dist == low[pair - p0])
        # Every pair of the chunk attains its minimum: keep its first hit.
        first = hits[np.diff(pair[hits], prepend=-1) != 0]
        better = low < best[p0:p1]
        best[p0:p1][better] = low[better]
        where[p0:p1][better] = local[first][better]
    return where


def vertex_segments(kinds, count, local):
    """Run offset of a segment with vertex ``local`` as an endpoint.

    For objects of ``kinds`` with ``count`` vertices, in
    :func:`segment_table` order: a polygon's or linestring's segment
    ``i`` starts at vertex ``i``, except that a linestring's last vertex
    only ends segment ``count - 2``; a point is its one segment; a box's
    ``lo`` starts side 0 and its ``hi`` starts side 2.
    """
    line = kinds == KIND_CODES["linestring"]
    return np.where(
        kinds == KIND_CODES["box"],
        2 * local,
        np.where(line, np.minimum(local, count - 2), local),
    )


def segment_pairs_sq(segs_a, cols_a, segs_b, cols_b):
    """Squared distance of segment ``cols_a[k]`` to segment ``cols_b[k]``.

    The same floats :func:`min_cross_sq` computes for these segment
    pairs.
    """
    return _segment_distance_sq(
        *(column[cols_a] for column in segs_a),
        *(column[cols_b] for column in segs_b),
    )


def polygons_contain(segs, start, count, points):
    """Boundary-inclusive ray casting of ``points[k]`` against ring ``k``.

    Ring ``k`` is the polygon whose edges are segments
    ``start[k]:start[k] + count[k]`` of segment table ``segs``.  The
    decision is :func:`~repro.geometry.shapes.polygon_contains`'s:
    inside when the point lies exactly on some edge, else when it
    crosses an odd number of them.
    """
    on_edge = np.zeros(len(start), dtype=bool)
    crossings = np.zeros(len(start), dtype=np.int64)
    for p0, p1, starts, pair, local in _chunks(count):
        x1, y1, x2, y2 = (column[start[pair] + local] for column in segs)
        x, y = points[pair, 0], points[pair, 1]
        touch = _segment_distance_sq(x, y, x, y, x1, y1, x2, y2) == 0.0
        spans = (y1 > y) != (y2 > y)
        # Only spanning edges divide, and a spanning edge has y2 != y1.
        t = (y - y1) / np.where(spans, y2 - y1, 1.0)
        cross = spans & (x < x1 + t * (x2 - x1))
        on_edge[p0:p1] |= np.logical_or.reduceat(touch, starts)
        crossings[p0:p1] += np.add.reduceat(cross.astype(np.int64), starts)
    return on_edge | (crossings % 2 == 1)
