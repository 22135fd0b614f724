"""Columnar (structure-of-arrays) geometry: the vectorised hot path.

The object model (:class:`~repro.geometry.mbr.MBR` tuples wrapped in
:class:`~repro.geometry.objects.SpatialObject`) is convenient but pays
interpreter overhead on every intersection test.  The paper's point is
that after TOUCH's partitioning the join is CPU-bound on exactly those
tests, so this module stores a whole dataset as one contiguous
``(N, 2 * D)`` float64 array — ``[:, :D]`` the minimum corners, ``[:, D:]``
the maximum corners — plus an ``(N,)`` int64 id vector, and provides
batch kernels over it:

- :func:`intersects_many` — the full |A| × |B| boolean intersection
  matrix, one broadcasted comparison instead of |A|·|B| Python calls;
- :func:`intersect_pairs` — the intersecting index pairs, computed in
  bounded-memory chunks (the batch nested-loop primitive);
- :func:`sweep_pairs` — a vectorised forward plane-sweep along dimension
  0, generating only the candidate pairs whose sweep intervals overlap;
- :func:`overlap_mask` / :func:`pairs_overlap_mask` — one-box-vs-table
  and paired box-vs-row tests; the latter runs the TOUCH frontier passes.

All predicates use closed-box semantics (touching boundaries intersect),
bit-for-bit the same rule as :meth:`MBR.intersects`.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.geometry.mbr import MBR

if TYPE_CHECKING:  # avoid a runtime cycle with repro.geometry.objects
    from repro.geometry.objects import SpatialObject

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "validate_backend",
    "CoordinateTable",
    "DEFAULT_DIM",
    "intersects_many",
    "intersect_pairs",
    "sweep_pairs",
    "overlap_mask",
    "pairs_overlap_mask",
    "axes_overlap_mask",
    "concat_ranges",
    "chunk_boundaries",
    "DEFAULT_CANDIDATE_CHUNK",
]

#: Upper bound on materialised candidate pairs per vectorised chunk.
#: Bounds peak memory of the batch kernels at roughly
#: ``DEFAULT_CANDIDATE_CHUNK * (2 * D + 2) * 8`` bytes of temporaries.
DEFAULT_CANDIDATE_CHUNK = 1 << 22


#: Valid values of the ``backend`` parameter of the ported algorithms.
BACKENDS = ("auto", "object", "columnar")

#: Dimensionality assumed for empty tables built without an explicit
#: ``dim`` (the library's native datasets are 3-D boxes).
DEFAULT_DIM = 3


def validate_backend(backend: str) -> str:
    """Constructor-time check of a backend selector; returns it."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


def resolve_backend(backend: str) -> str:
    """Normalise a backend selector to an executable backend name.

    ``"auto"`` is the columnar path; ``"object"`` and ``"columnar"``
    resolve to themselves.
    """
    validate_backend(backend)
    return "columnar" if backend == "auto" else backend


class CoordinateTable:
    """A dataset of axis-aligned boxes in columnar form.

    Parameters
    ----------
    coords:
        ``(N, 2 * D)`` float64 array; row ``i`` holds the minimum corner
        of box ``i`` in columns ``[0, D)`` and the maximum corner in
        columns ``[D, 2 * D)``.
    ids:
        ``(N,)`` int64 array of object identifiers (the ``oid`` reported
        in result pairs).

    The table is the columnar twin of a list of
    :class:`~repro.geometry.objects.SpatialObject`; conversions preserve
    ids and coordinates exactly (float64 in, float64 out).
    """

    __slots__ = ("coords", "ids")

    def __init__(self, coords, ids) -> None:
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] % 2 != 0 or coords.shape[1] == 0:
            raise ValueError(
                f"coords must have shape (N, 2*D) with D >= 1, got {coords.shape}"
            )
        if ids.shape != (coords.shape[0],):
            raise ValueError(
                f"ids shape {ids.shape} does not match {coords.shape[0]} rows"
            )
        self.coords = coords
        self.ids = ids

    # -- construction --------------------------------------------------
    @classmethod
    def from_objects(
        cls, objects: Sequence["SpatialObject"], dim: int | None = None
    ) -> "CoordinateTable":
        """Build a table from spatial objects (ids taken from ``oid``).

        An empty sequence yields a well-formed ``(0, 2 * dim)`` table
        (``dim`` defaults to :data:`DEFAULT_DIM` when it cannot be
        inferred), so empty-side joins flow through the columnar
        kernels instead of tripping a shape-inference error.
        """
        if not objects:
            dim = DEFAULT_DIM if dim is None else dim
            return cls(
                np.empty((0, 2 * dim), dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        mbrs = [obj.mbr for obj in objects]
        ids = np.fromiter(
            map(attrgetter("oid"), objects), dtype=np.int64, count=len(objects)
        )
        return cls(_corner_rows(mbrs, ids), ids)

    @classmethod
    def from_mbrs(
        cls,
        mbrs: Iterable[MBR],
        ids: Sequence[int] | None = None,
        dim: int | None = None,
    ) -> "CoordinateTable":
        """Build a table from raw MBRs with sequential (or given) ids.

        Empty input yields a ``(0, 2 * dim)`` table exactly like
        :meth:`from_objects`.
        """
        boxes = list(mbrs)
        if not boxes:
            dim = DEFAULT_DIM if dim is None else dim
            return cls(
                np.empty((0, 2 * dim), dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
        id_arr = np.arange(len(boxes), dtype=np.int64) if ids is None else ids
        return cls(_corner_rows(boxes, id_arr), id_arr)

    # -- basic protocol ------------------------------------------------
    def __len__(self) -> int:
        return self.coords.shape[0]

    def __repr__(self) -> str:
        return f"CoordinateTable(n={len(self)}, dim={self.dim})"

    @property
    def dim(self) -> int:
        """Number of spatial dimensions."""
        return self.coords.shape[1] // 2

    @property
    def lo(self):
        """``(N, D)`` view of the minimum corners."""
        return self.coords[:, : self.dim]

    @property
    def hi(self):
        """``(N, D)`` view of the maximum corners."""
        return self.coords[:, self.dim :]

    @property
    def nbytes(self) -> int:
        """Real memory footprint of the coordinate and id arrays."""
        return int(self.coords.nbytes + self.ids.nbytes)

    # -- conversion ----------------------------------------------------
    def mbr(self, index: int) -> MBR:
        """The ``index``-th box as an object-model MBR."""
        dim = self.dim
        row = self.coords[index]
        return MBR(tuple(row[:dim]), tuple(row[dim:]))

    def to_objects(self, geometries: "Sequence | None" = None) -> "list[SpatialObject]":
        """Materialise the table as a list of spatial objects.

        ``geometries``, when given, holds one exact-geometry payload (or
        ``None``) per row, attached to the matching object.
        """
        from repro.geometry.objects import SpatialObject

        dim = self.dim
        rows = self.coords.tolist()
        ids = self.ids.tolist()
        if geometries is None:
            geometries = [None] * len(ids)
        return [
            SpatialObject(oid, MBR(tuple(row[:dim]), tuple(row[dim:])), geometry)
            for oid, row, geometry in zip(ids, rows, geometries)
        ]

    def take(self, indices) -> "CoordinateTable":
        """Row subset as a new table: a copy for an index array, a view
        sharing this table's memory for a ``slice``."""
        return CoordinateTable(self.coords[indices], self.ids[indices])

    def bounds(self):
        """``(lo, hi)`` vectors of the tight bound over all rows.

        Raises
        ------
        ValueError
            On an empty table — there is no meaningful bound, and a
            bare numpy reduction error would not name the culprit.
        """
        if len(self) == 0:
            raise ValueError(f"bounds() of an empty table: {self!r} has no rows")
        return self.lo.min(axis=0), self.hi.max(axis=0)


def _corner_rows(mbrs: Sequence[MBR], ids) -> "np.ndarray":
    """``(N, 2 * D)`` corner rows of non-empty ``mbrs``, one ``np.fromiter``.

    ``ids`` name the boxes in the error raised when their
    dimensionalities differ; without that check a flat fill would
    silently shift every later row.
    """
    dim = mbrs[0].dim
    n = len(mbrs)
    dims = np.fromiter(map(len, map(attrgetter("lo"), mbrs)), dtype=np.int64, count=n)
    mixed = np.flatnonzero(dims != dim)
    if len(mixed):
        first = int(mixed[0])
        raise ValueError(
            f"dimensionality mismatch: object #{ids[first]} is "
            f"{dims[first]}-D, object #{ids[0]} on the same side is {dim}-D"
        )
    corners = chain.from_iterable(
        chain.from_iterable(map(attrgetter("lo", "hi"), mbrs))
    )
    return np.fromiter(corners, dtype=np.float64, count=n * 2 * dim).reshape(
        n, 2 * dim
    )


# -- flat candidate-range machinery ------------------------------------
def concat_ranges(starts, counts):
    """Vectorised ``concatenate([arange(s, s + c) for s, c in ...])``.

    Also returns the index of the originating range for every element —
    the backbone of every candidate-pair generator in this module: given
    per-anchor candidate windows ``[start, start + count)`` it produces
    the flat ``(anchor_index, candidate_index)`` arrays in one shot,
    without a Python-level loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    anchors = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total, dtype=np.int64) - offsets[anchors]
    return anchors, starts[anchors] + positions


def chunk_boundaries(counts, chunk: int):
    """Split anchor indices so each block yields <= ``chunk`` candidates.

    ``counts[i]`` is the number of candidates anchor ``i`` contributes;
    the returned ``(lo, hi)`` anchor ranges partition all anchors so
    every range's candidate total stays near the ``chunk`` budget (a
    single anchor may exceed it on its own).  Shared by every chunked
    candidate generator (sweep, grid cell join, batch nested loop).
    """
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    if total <= chunk:
        return [(0, len(counts))]
    cuts = np.searchsorted(cum, np.arange(chunk, total, chunk), side="left") + 1
    edges = [0, *[int(c) for c in cuts], len(counts)]
    return [
        (edges[i], edges[i + 1])
        for i in range(len(edges) - 1)
        if edges[i] < edges[i + 1]
    ]


# -- batch predicates --------------------------------------------------
def intersects_many(table_a: CoordinateTable, table_b: CoordinateTable):
    """Full boolean intersection matrix, shape ``(len(a), len(b))``.

    ``result[i, j]`` is ``True`` iff box ``i`` of A and box ``j`` of B
    share at least one point — exactly
    ``table_a.mbr(i).intersects(table_b.mbr(j))``, closed-box semantics.
    Materialises |A| × |B| booleans: meant for moderate inputs and for
    validation; use :func:`intersect_pairs` for large joins.
    """
    if table_a.dim != table_b.dim:
        raise ValueError(f"dimension mismatch: {table_a.dim} vs {table_b.dim}")
    a_lo = table_a.lo[:, None, :]
    a_hi = table_a.hi[:, None, :]
    b_lo = table_b.lo[None, :, :]
    b_hi = table_b.hi[None, :, :]
    return ((a_lo <= b_hi) & (b_lo <= a_hi)).all(axis=2)


def overlap_mask(table: CoordinateTable, lo, hi):
    """``(N,)`` mask of table rows intersecting the box ``(lo, hi)``."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return axes_overlap_mask(table, range(table.dim), lo, hi)


def pairs_overlap_mask(box_lo, box_hi, boxes, table: CoordinateTable, rows):
    """Mask of the pairs ``(box boxes[k], table row rows[k])`` that overlap.

    ``box_lo`` / ``box_hi`` are ``(M, D)`` corner arrays indexed by
    ``boxes``.  Closed-box semantics.  The test runs one dimension at a
    time on 1-D gathers of single coordinate columns, so no ``(K, D)``
    temporaries are held.
    """
    dim = table.dim
    cols = table.coords
    mask = cols[:, 0].take(rows) <= box_hi[:, 0].take(boxes)
    for d in range(dim):
        if d:
            mask &= cols[:, d].take(rows) <= box_hi[:, d].take(boxes)
        mask &= cols[:, dim + d].take(rows) >= box_lo[:, d].take(boxes)
    return mask


def axes_overlap_mask(table: CoordinateTable, axes, lows, highs):
    """``(N,)`` mask of rows whose interval on each listed axis overlaps.

    The partial-dimensional variant of :func:`overlap_mask`: only the
    ``axes`` are constrained (closed intervals, same float64 semantics as
    :meth:`MBR.intersects`), the rest stay free.  This is the membership
    test of the slab/tile decomposition — a region bounds one or two
    axes, never all — vectorised so the parallel engine can slice
    per-region coordinate blocks without a per-object Python loop.
    """
    dim = table.dim
    mask = np.ones(len(table), dtype=bool)
    for axis, lo, hi in zip(axes, lows, highs):
        mask &= table.coords[:, axis + dim] >= lo  # row hi >= interval lo
        mask &= table.coords[:, axis] <= hi  # row lo <= interval hi
    return mask


# -- batch join kernels ------------------------------------------------
def intersect_pairs(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """All intersecting ``(index_a, index_b)`` pairs, nested-loop order.

    Tests every pair (|A| · |B| comparisons) with bounded peak memory by
    processing blocks of A rows; pair order matches the object-model
    nested loop (A-major, then B).
    """
    if table_a.dim != table_b.dim:
        raise ValueError(f"dimension mismatch: {table_a.dim} vs {table_b.dim}")
    n_a, n_b = len(table_a), len(table_b)
    if n_a == 0 or n_b == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows_per_block = max(1, chunk // max(1, n_b))
    out_a, out_b = [], []
    b_lo = table_b.lo[None, :, :]
    b_hi = table_b.hi[None, :, :]
    for start in range(0, n_a, rows_per_block):
        stop = min(n_a, start + rows_per_block)
        block = (
            (table_a.lo[start:stop, None, :] <= b_hi)
            & (b_lo <= table_a.hi[start:stop, None, :])
        ).all(axis=2)
        hit_a, hit_b = np.nonzero(block)
        out_a.append(hit_a.astype(np.int64) + start)
        out_b.append(hit_b.astype(np.int64))
    return np.concatenate(out_a), np.concatenate(out_b)


def sweep_pairs(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Vectorised forward plane-sweep along dimension 0.

    Returns ``(index_a, index_b, candidates)`` where the index arrays
    list every intersecting pair exactly once and ``candidates`` is the
    number of pair tests performed (the plane-sweep comparison count:
    pairs whose dimension-0 intervals overlap).

    The classic forward scan splits pairs by which box starts first:

    - pass 1 anchors on A: candidates ``b`` with
      ``a.lo0 <= b.lo0 <= a.hi0``;
    - pass 2 anchors on B: candidates ``a`` with
      ``b.lo0 < a.lo0 <= b.hi0`` (strict on the left so ties are owned
      by pass 1).

    Both passes locate their candidate windows with two ``searchsorted``
    calls against the lo-sorted opposite table and materialise them with
    :func:`concat_ranges` — no per-object Python loop.
    """
    if table_a.dim != table_b.dim:
        raise ValueError(f"dimension mismatch: {table_a.dim} vs {table_b.dim}")
    empty = np.empty(0, dtype=np.int64)
    if len(table_a) == 0 or len(table_b) == 0:
        return empty, empty, 0

    out_a: list = []
    out_b: list = []
    candidates = 0

    order_b = np.argsort(table_b.lo[:, 0], kind="stable")
    order_a = np.argsort(table_a.lo[:, 0], kind="stable")

    candidates += _sweep_pass(
        table_a, table_b, order_b, out_a, out_b, anchor_is_a=True, chunk=chunk
    )
    candidates += _sweep_pass(
        table_b, table_a, order_a, out_b, out_a, anchor_is_a=False, chunk=chunk
    )

    if not out_a:
        return empty, empty, candidates
    return np.concatenate(out_a), np.concatenate(out_b), candidates


def _sweep_pass(
    anchors: CoordinateTable,
    others: CoordinateTable,
    order_other,
    out_anchor: list,
    out_other: list,
    anchor_is_a: bool,
    chunk: int,
) -> int:
    """One direction of the forward scan; appends hits, returns tests.

    ``anchor_is_a`` selects the tie rule: anchoring on A takes candidates
    with ``b.lo0 >= a.lo0`` (``side='left'``), anchoring on B takes the
    strictly-later A starts (``side='right'``), so every pair is generated
    by exactly one pass.
    """
    other_lo0 = others.lo[order_other, 0]
    side = "left" if anchor_is_a else "right"
    starts = np.searchsorted(other_lo0, anchors.lo[:, 0], side=side)
    ends = np.searchsorted(other_lo0, anchors.hi[:, 0], side="right")
    counts = np.maximum(ends - starts, 0)
    total = 0
    for lo_i, hi_i in chunk_boundaries(counts, chunk):
        anchor_idx, window_pos = concat_ranges(starts[lo_i:hi_i], counts[lo_i:hi_i])
        if len(anchor_idx) == 0:
            continue
        anchor_idx += lo_i
        other_idx = order_other[window_pos]
        total += len(anchor_idx)
        # Dimension 0 already overlaps by construction; test the rest.
        dim = anchors.dim
        keep = np.ones(len(anchor_idx), dtype=bool)
        for d in range(1, dim):
            keep &= anchors.lo[anchor_idx, d] <= others.hi[other_idx, d]
            keep &= anchors.hi[anchor_idx, d] >= others.lo[other_idx, d]
        out_anchor.append(anchor_idx[keep])
        out_other.append(other_idx[keep])
    return total
