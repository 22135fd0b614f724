"""Columnar (structure-of-arrays) geometry: the vectorised hot path.

The object model (:class:`~repro.geometry.mbr.MBR` tuples wrapped in
:class:`~repro.geometry.objects.SpatialObject`) is convenient but pays
interpreter overhead on every intersection test.  The paper's point is
that after TOUCH's partitioning the join is CPU-bound on exactly those
tests, so this module stores a whole dataset as one ``(2 * D, N)``
float64 column block — rows ``[:D]`` the minimum corners, rows ``[D:]``
the maximum corners, each row contiguous — plus an ``(N,)`` int64 id
vector, and provides batch kernels over it:

- :func:`intersects_many` — the full |A| × |B| boolean intersection
  matrix, one broadcast per dimension instead of |A|·|B| Python calls;
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
    "read_only_view",
    "stable_argsort",
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
        ``(N, 2 * D)`` float64 rows; row ``i`` holds the minimum corner
        of box ``i`` in columns ``[0, D)`` and the maximum corner in
        columns ``[D, 2 * D)``.  The rows are stored transposed (see
        below); :meth:`from_columns` takes the stored form directly.
    ids:
        ``(N,)`` int64 array of object identifiers (the ``oid`` reported
        in result pairs).

    Storage is one ``(2 * D, N)`` float64 block, :attr:`cols`: row
    ``d < D`` is the minimum corner along dimension ``d`` of every box,
    row ``D + d`` the maximum.  Each row is contiguous, so a gather of
    one coordinate for a batch of boxes (``cols[d].take(rows)``) reads
    one column instead of copying a strided one whole first.
    :attr:`coords`, :attr:`lo` and :attr:`hi` are read-only transposed
    views of the block in the row layout.

    The table is the columnar twin of a list of
    :class:`~repro.geometry.objects.SpatialObject`; conversions preserve
    ids and coordinates exactly (float64 in, float64 out).
    """

    __slots__ = ("cols", "ids", "coords")

    def __init__(self, coords, ids) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(
                f"coords must have shape (N, 2*D) with D >= 1, got {coords.shape}"
            )
        self._store(coords.T, ids)

    @classmethod
    def from_columns(cls, cols, ids) -> "CoordinateTable":
        """A table over a ``(2 * D, N)`` column block, shared when its
        rows are already contiguous float64 (copied otherwise)."""
        table = cls.__new__(cls)
        table._store(np.asarray(cols, dtype=np.float64), ids)
        return table

    def _store(self, cols, ids) -> None:
        if cols.ndim == 2 and cols.shape[1] > 1 and cols.strides[1] != cols.itemsize:
            cols = np.ascontiguousarray(cols)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if cols.ndim != 2 or cols.shape[0] % 2 != 0 or cols.shape[0] == 0:
            raise ValueError(
                f"coords must have shape (N, 2*D) with D >= 1, got {cols.T.shape}"
            )
        if ids.shape != (cols.shape[1],):
            raise ValueError(
                f"ids shape {ids.shape} does not match {cols.shape[1]} rows"
            )
        self.cols = cols
        self.ids = ids
        self.coords = read_only_view(cols.T)

    def __reduce__(self):
        return (CoordinateTable.from_columns, (self.cols, self.ids))

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
            return cls._empty(dim)
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
            return cls._empty(dim)
        id_arr = np.arange(len(boxes), dtype=np.int64) if ids is None else ids
        return cls(_corner_rows(boxes, id_arr), id_arr)

    @classmethod
    def _empty(cls, dim: int | None) -> "CoordinateTable":
        dim = DEFAULT_DIM if dim is None else dim
        return cls.from_columns(
            np.empty((2 * dim, 0), dtype=np.float64), np.empty(0, dtype=np.int64)
        )

    # -- basic protocol ------------------------------------------------
    def __len__(self) -> int:
        return self.cols.shape[1]

    def __repr__(self) -> str:
        return f"CoordinateTable(n={len(self)}, dim={self.dim})"

    @property
    def dim(self) -> int:
        """Number of spatial dimensions."""
        return self.cols.shape[0] // 2

    @property
    def lo(self):
        """``(N, D)`` read-only view of the minimum corners."""
        return read_only_view(self.cols[: self.dim].T)

    @property
    def hi(self):
        """``(N, D)`` read-only view of the maximum corners."""
        return read_only_view(self.cols[self.dim :].T)

    @property
    def nbytes(self) -> int:
        """Real memory footprint of the coordinate and id arrays."""
        return int(self.cols.nbytes + self.ids.nbytes)

    # -- conversion ----------------------------------------------------
    def mbr(self, index: int) -> MBR:
        """The ``index``-th box as an object-model MBR."""
        dim = self.dim
        column = self.cols[:, index]
        return MBR(tuple(column[:dim]), tuple(column[dim:]))

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
        """Row subset as a new table: a copy for an index array or a
        boolean mask, a view sharing this table's memory for a
        ``slice``."""
        ids = self.ids[indices]
        if isinstance(indices, slice):
            return CoordinateTable.from_columns(self.cols[:, indices], ids)
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        # ``ids[indices]`` above rejected anything but integer positions;
        # an empty list arrives as float64.
        rows = indices.astype(np.intp, copy=False)
        return CoordinateTable.from_columns(self.cols.take(rows, axis=1), ids)

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
        dim = self.dim
        return self.cols[:dim].min(axis=1), self.cols[dim:].max(axis=1)


def read_only_view(view):
    """``view`` with writes switched off (it aliases a table's block)."""
    view.flags.writeable = False
    return view


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


# -- sorting ------------------------------------------------------------
#: Composite integer keys ``key * n + position`` stay below this bound,
#: so they never overflow int64.
_COMPOSITE_LIMIT = 1 << 62


def stable_argsort(keys):
    """Exactly ``np.argsort(keys, kind="stable")``, only faster.

    - Integer keys in ``[0, bound)`` sort as the unique composite
      ``key * n + position`` with the default ``np.sort`` and come back
      as ``composite % n``: no two composites tie, so the unstable sort
      has nothing to reorder.  A negative key, or ``bound * n`` reaching
      ``2**62``, takes the stable sort.
    - Float keys take the default ``argsort``, kept only when the sorted
      keys hold no tie and no NaN (``NaN != NaN`` would hide a tie);
      otherwise the stable sort runs.
    - Any other dtype takes the stable sort.
    """
    keys = np.asarray(keys)
    n = len(keys)
    kind = keys.dtype.kind
    if n > 1 and kind in "iu":
        if int(keys.min()) >= 0 and (int(keys.max()) + 1) * n < _COMPOSITE_LIMIT:
            composite = keys.astype(np.int64) * n
            composite += np.arange(n, dtype=np.int64)
            composite.sort()
            return np.remainder(composite, n, out=composite)
    elif n > 1 and kind == "f":
        order = np.argsort(keys)
        ordered = keys[order]
        if not (np.isnan(ordered[-1]) or (ordered[1:] == ordered[:-1]).any()):
            return order
    return np.argsort(keys, kind="stable")


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
    # Element j of range i sits at flat position offset_i + j and takes
    # the value start_i + j: the flat position plus start_i - offset_i.
    shift = starts - np.cumsum(counts) + counts
    values = shift.take(anchors)
    values += np.arange(total, dtype=np.int64)
    return anchors, values


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
    return _block_overlap(table_a.cols, table_b.cols)


def _block_overlap(cols_a, cols_b):
    """``(len(a), len(b))`` overlap matrix of two column blocks, built
    one dimension at a time from contiguous rows of each block."""
    dim = cols_a.shape[0] // 2
    matrix = cols_a[0][:, None] <= cols_b[dim][None, :]
    matrix &= cols_b[0][None, :] <= cols_a[dim][:, None]
    for d in range(1, dim):
        matrix &= cols_a[d][:, None] <= cols_b[dim + d][None, :]
        matrix &= cols_b[d][None, :] <= cols_a[dim + d][:, None]
    return matrix


def overlap_mask(table: CoordinateTable, lo, hi):
    """``(N,)`` mask of table rows intersecting the box ``(lo, hi)``."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return axes_overlap_mask(table, range(table.dim), lo, hi)


def pairs_overlap_mask(cols_a, rows_a, cols_b, rows_b):
    """Mask of the pairs ``(box rows_a[k] of A, box rows_b[k] of B)`` that
    overlap.

    ``cols_a`` / ``cols_b`` are ``(2 * D, N)`` column blocks
    (:attr:`CoordinateTable.cols`, :attr:`FlatHierarchy.node_cols
    <repro.geometry.hierarchy.FlatHierarchy>`).  Closed-box semantics.
    The test runs one dimension at a time on 1-D gathers from contiguous
    block rows, so no ``(K, D)`` temporaries are held and no column is
    copied whole.
    """
    dim = cols_a.shape[0] // 2
    mask = cols_a[0].take(rows_a) <= cols_b[dim].take(rows_b)
    mask &= cols_b[0].take(rows_b) <= cols_a[dim].take(rows_a)
    for d in range(1, dim):
        mask &= cols_a[d].take(rows_a) <= cols_b[dim + d].take(rows_b)
        mask &= cols_b[d].take(rows_b) <= cols_a[dim + d].take(rows_a)
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
        mask &= table.cols[axis + dim] >= lo  # row hi >= interval lo
        mask &= table.cols[axis] <= hi  # row lo <= interval hi
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
    for start in range(0, n_a, rows_per_block):
        stop = min(n_a, start + rows_per_block)
        block = _block_overlap(table_a.cols[:, start:stop], table_b.cols)
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

    order_b = np.argsort(table_b.cols[0], kind="stable")
    order_a = np.argsort(table_a.cols[0], kind="stable")

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
    dim = anchors.dim
    anchor_cols, other_cols = anchors.cols, others.cols
    other_lo0 = other_cols[0].take(order_other)
    side = "left" if anchor_is_a else "right"
    starts = np.searchsorted(other_lo0, anchor_cols[0], side=side)
    ends = np.searchsorted(other_lo0, anchor_cols[dim], side="right")
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
        keep = np.ones(len(anchor_idx), dtype=bool)
        for d in range(1, dim):
            keep &= anchor_cols[d].take(anchor_idx) <= other_cols[dim + d].take(other_idx)
            keep &= anchor_cols[dim + d].take(anchor_idx) >= other_cols[d].take(other_idx)
        out_anchor.append(anchor_idx[keep])
        out_other.append(other_idx[keep])
    return total
