"""Vectorised uniform grid over coordinate tables.

The columnar twin of :class:`repro.grid.uniform.UniformGrid`: the same
geometry (same resolution rules, the same clamped cell indexing, the
same reference-point deduplication rule) but computed for whole tables
at once.  Instead of a hash map of cells it works with flat *entry*
arrays — ``(object_index, cell_key)`` pairs, one per (object, overlapped
cell) — produced without any per-object Python loop, and joins two entry
sets by grouping one side by key and looking the other up against it.

Candidate semantics match the object-model grid joins exactly: a pair is
tested once per cell both objects share, so ``stats.comparisons`` of a
columnar grid join equals the object path's count bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.geometry.columnar import (
    CoordinateTable,
    DEFAULT_CANDIDATE_CHUNK,
    chunk_boundaries,
    concat_ranges,
    pairs_overlap_mask,
    stable_argsort,
)

__all__ = [
    "ColumnarGrid",
    "CellDirectory",
    "SortedEntries",
    "box_entry_counts",
    "cell_directory",
    "cells_spanned",
    "entry_join_candidates",
    "grid_join_pairs",
    "grid_row_join",
    "row_windows",
    "index_entries",
    "sort_entries",
    "probe_join_candidates",
    "grid_probe_pairs",
]


def cells_spanned(spans):
    """Per row of ``(M, D)`` integer cell spans, the cells it covers.

    Multiplies one column at a time: the same integers as
    ``spans.prod(axis=1)``, without a reduction along the short axis.
    """
    cells = spans[:, 0].copy()
    for d in range(1, spans.shape[1]):
        cells *= spans[:, d]
    return cells


def _radix_of(sizes):
    """Row-major mixed-radix place values of a ``sizes`` shape."""
    radix = np.ones(len(sizes), dtype=np.int64)
    for d in range(len(sizes) - 2, -1, -1):
        radix[d] = radix[d + 1] * sizes[d + 1]
    return radix


class ColumnarGrid:
    """Cell geometry of a uniform grid, computed in bulk.

    Parameters mirror :class:`~repro.grid.uniform.UniformGrid`: exactly
    one of ``resolution`` (cells per dimension) and ``cell_size`` (target
    cell edge length) must be given; degenerate universe extents collapse
    to one cell in that dimension.  ``lo`` / ``hi`` are the universe
    corners as length-``D`` vectors.
    """

    __slots__ = ("lo", "hi", "resolution", "cell_width", "_radix")

    def __init__(self, lo, hi, resolution=None, cell_size=None) -> None:
        if (resolution is None) == (cell_size is None):
            raise ValueError("specify exactly one of resolution or cell_size")
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        dim = self.lo.shape[0]
        extents = self.hi - self.lo

        if resolution is not None:
            res = np.broadcast_to(
                np.asarray(resolution, dtype=np.int64), (dim,)
            ).copy()
            if (res < 1).any():
                raise ValueError(f"resolution must be >= 1 per dimension, got {res}")
        else:
            size = np.broadcast_to(
                np.asarray(cell_size, dtype=np.float64), (dim,)
            ).copy()
            if (size <= 0).any():
                raise ValueError(f"cell_size must be positive, got {size}")
            res = np.maximum(1, np.ceil(extents / size)).astype(np.int64)
        self.resolution = res
        self.cell_width = np.where(extents > 0, extents / res, 0.0)
        # Mixed-radix factors: key = ((i0 * R1) + i1) * R2 + i2 ...
        self._radix = _radix_of(res)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def total_cells(self) -> int:
        """Nominal cell count (most are empty on realistic data)."""
        return int(self.resolution.prod())

    # -- coordinate mathematics ---------------------------------------
    def cell_indices(self, points):
        """Clamped per-dimension cell indices of ``(M, D)`` points.

        Points outside the universe clamp to the nearest edge cell, the
        same ownership semantics as the object-model
        :meth:`~repro.grid.uniform.UniformGrid.cell_of_point`.  The
        clamp happens in float space *before* the integer cast: casting
        first overflowed int64 for coordinates far beyond a fixed
        universe (``np.float64 -> int64`` wraps to ``INT64_MIN``), which
        silently dropped such points into cell 0 instead of the last
        cell and diverged from the object path.
        """
        width = self.cell_width
        safe = np.where(width > 0, width, 1.0)
        raw = np.floor((points - self.lo) / safe)
        raw[:, width <= 0] = 0.0
        last = (self.resolution - 1).astype(np.float64)
        return np.clip(raw, 0.0, last).astype(np.int64)

    def keys_of(self, indices):
        """Mixed-radix scalar key of ``(M, D)`` per-dimension indices."""
        return indices @ self._radix

    def index_ranges(self, table: CoordinateTable):
        """Inclusive ``(lo_idx, hi_idx)`` cell ranges per table row."""
        return self.cell_indices(table.lo), self.cell_indices(table.hi)

    # -- bulk multiple assignment --------------------------------------
    def entries(self, table: CoordinateTable, with_class_masks: bool = False):
        """Flat ``(object_index, cell_key)`` arrays, one entry per cell a
        box overlaps (PBSM's multiple assignment, vectorised).

        Entries come object by object, and each object's cells in
        row-major order of its per-dimension offsets.  Objects are
        grouped by span shape (cells covered per dimension): a group's
        entries are its base keys plus one precomputed offset block,
        written in a single broadcast add — constant work per entry, no
        per-entry index arithmetic.

        With ``with_class_masks=True`` a third array is returned: the
        two-layer class mask of each entry, bit ``d`` set iff the cell is
        the one containing the box's low corner along dimension ``d``
        (i.e. the per-dimension offset is zero).  Mask ``2**dim - 1`` is
        the home cell (class A); cleared bits mark replicas entering
        from a lower neighbour (classes B/C/D in 2-D).
        """
        return self.range_entries(*self.index_ranges(table), with_class_masks)

    def range_entries(self, lo_idx, hi_idx, with_class_masks: bool = False):
        """:meth:`entries` of boxes given by their inclusive cell ranges.

        Object ``i`` is the box spanning cells ``lo_idx[i]`` to
        ``hi_idx[i]`` (as :meth:`index_ranges` returns them).
        """
        spans = hi_idx - lo_idx + 1
        per_object = cells_spanned(spans)
        total = int(per_object.sum())
        obj_idx = np.repeat(np.arange(len(spans), dtype=np.int64), per_object)
        keys = np.empty(total, dtype=np.int64)
        masks = np.empty(total, dtype=np.int64) if with_class_masks else None
        if total:
            block_start = np.cumsum(per_object) - per_object
            base = self.keys_of(lo_idx)
            # One mixed-radix code per span shape; bounded by the cell
            # count, like the keys themselves.
            widest = spans.max(axis=0)
            shape_code = (spans - 1) @ _radix_of(widest)
            by_shape = stable_argsort(shape_code)
            cuts = np.flatnonzero(np.diff(shape_code[by_shape])) + 1
            for group in np.split(by_shape, cuts):
                block_keys, block_masks = self._offset_block(spans[group[0]])
                dest = (block_start[group, None] + np.arange(len(block_keys))).ravel()
                keys[dest] = (base[group, None] + block_keys).ravel()
                if masks is not None:
                    masks[dest] = np.tile(block_masks, len(group))
        if masks is not None:
            return obj_idx, keys, masks
        return obj_idx, keys

    def row_ranges(self, lo_idx, hi_idx):
        """Per box, one key range per row of cells along the last axis.

        Box ``i`` spans cells ``lo_idx[i]`` to ``hi_idx[i]`` (inclusive).
        Its cells along the last axis have consecutive row-major keys, so
        each row of them is the key range ``[first, last]``.  Returns
        ``(obj, first, last, masks)``, box by box and each box's rows in
        row-major order, the order :meth:`range_entries` lists the rows'
        cells in.  ``masks`` are the class masks of the rows' cells
        without the last-axis bit, which is set exactly in the row's
        first cell.
        """
        axis = self.dim - 1
        row_hi = hi_idx.copy()
        row_hi[:, axis] = lo_idx[:, axis]
        obj, first, masks = self.range_entries(lo_idx, row_hi, with_class_masks=True)
        width = hi_idx[:, axis] - lo_idx[:, axis]
        masks &= ~(1 << axis)
        return obj, first, first + width[obj], masks

    def _offset_block(self, shape):
        """Key offsets and class masks of a box spanning ``shape`` cells.

        Row-major over the per-dimension offsets (last dimension
        fastest), relative to the box's low-corner cell.
        """
        offsets = np.indices(tuple(shape.tolist()), dtype=np.int64).reshape(
            self.dim, -1
        )
        block_keys = self._radix @ offsets
        bits = np.left_shift(1, np.arange(self.dim, dtype=np.int64))
        block_masks = bits @ (offsets == 0).astype(np.int64)
        return block_keys, block_masks


# -- indexing one side's entries by cell ---------------------------------
class SortedEntries(NamedTuple):
    """One entry set sorted by cell key (:func:`sort_entries`).

    The entries of cell ``cell_keys[c]`` are
    ``order[cell_bounds[c]:cell_bounds[c + 1]]``.  Its size follows the
    entries, not the grid, so it suits grids with more cells than
    entries and indices kept for many probes.
    """

    order: np.ndarray
    cell_keys: np.ndarray
    cell_bounds: np.ndarray

    @property
    def populated_cells(self) -> int:
        return len(self.cell_keys)

    def locate(self, anchor_keys):
        """``(matched, starts, counts)``: the anchors whose key is
        indexed, and their windows into ``order``.  One binary search
        per anchor among the distinct keys."""
        pos = np.searchsorted(self.cell_keys, anchor_keys)
        np.minimum(pos, len(self.cell_keys) - 1, out=pos)
        matched = np.flatnonzero(self.cell_keys[pos] == anchor_keys)
        pos = pos[matched]
        starts = self.cell_bounds[pos]
        return matched, starts, self.cell_bounds[pos + 1] - starts

    def windows(self, first_keys, last_keys):
        """``(starts, counts)``: per key range ``[first, last]``, its
        window into ``order``.  Two binary searches per range."""
        starts = self.cell_bounds[np.searchsorted(self.cell_keys, first_keys)]
        stops = self.cell_bounds[
            np.searchsorted(self.cell_keys, last_keys, side="right")
        ]
        return starts, stops - starts


class CellDirectory(NamedTuple):
    """One entry set grouped by a dense per-cell directory
    (:func:`cell_directory`).

    The entries of cell ``k`` are ``order[starts[k]:starts[k] +
    counts[k]]``, for every ``k`` below the grid's cell count, so a
    lookup is one gather per anchor.
    """

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @property
    def populated_cells(self) -> int:
        return int(np.count_nonzero(self.counts))

    def locate(self, anchor_keys):
        """Same contract as :meth:`SortedEntries.locate`."""
        per_anchor = self.counts[anchor_keys]
        matched = np.flatnonzero(per_anchor)
        return matched, self.starts[anchor_keys[matched]], per_anchor[matched]

    def windows(self, first_keys, last_keys):
        """Same contract as :meth:`SortedEntries.windows`."""
        starts = self.starts[first_keys]
        return starts, self.starts[last_keys] + self.counts[last_keys] - starts


def sort_entries(keys) -> SortedEntries:
    """Key-sort one entry set once, for repeated probing.

    Returns the stable argsort of ``keys``, the distinct keys in
    ascending order, and the boundaries of their runs in ``order``
    (``len(cell_keys) + 1`` of them).  Build-once/probe-many joins sort
    the *build* side's entries at prepare time so that each probe batch
    only pays one binary search per probe entry
    (:func:`probe_join_candidates`).
    """
    order = stable_argsort(keys)
    sorted_keys = keys[order]
    if len(sorted_keys) == 0:
        return SortedEntries(order, sorted_keys, np.zeros(1, dtype=np.int64))
    change = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    bounds = np.concatenate(([0], change, [len(sorted_keys)])).astype(np.int64)
    return SortedEntries(order, sorted_keys[bounds[:-1]], bounds)


def cell_directory(keys, total_cells: int) -> CellDirectory:
    """Per-cell entry counts and run starts over all ``total_cells``.

    ``order`` is the same stable argsort :func:`sort_entries` uses, so
    each cell's window lists its entries in the same order.
    """
    counts = np.bincount(keys, minlength=total_cells)
    starts = np.cumsum(counts) - counts
    return CellDirectory(stable_argsort(keys), starts, counts)


def index_entries(keys, total_cells: int, anchor_entries: int):
    """Index the entries of one side of a one-shot key join.

    A grid with no more cells than the two sides have entries
    (``len(keys) + anchor_entries``) gets a :func:`cell_directory`,
    whose arrays are then no larger than the entry arrays; a larger
    grid (fine resolutions, high dimensions) gets :func:`sort_entries`.
    Both yield the same windows in the same order.
    """
    if total_cells <= len(keys) + anchor_entries:
        return cell_directory(keys, total_cells)
    return sort_entries(keys)


def box_entry_counts(counts, shape, lo_idx, hi_idx):
    """Indexed entries inside each inclusive cell box, from per-cell
    ``counts`` in row-major order over ``shape``.

    Builds the summed-volume table of the counts once, then reads each
    box ``[lo_idx[i], hi_idx[i]]`` with ``2 ** D`` signed gathers.
    """
    shape = tuple(int(size) for size in shape)
    dim = len(shape)
    volume = np.zeros(tuple(size + 1 for size in shape), dtype=np.int64)
    volume[(slice(1, None),) * dim] = np.reshape(counts, shape)
    for axis in range(dim):
        np.cumsum(volume, axis=axis, out=volume)
    radix = _radix_of([size + 1 for size in shape])
    # Corner keys, one dimension at a time: each corner takes hi + 1 or
    # lo per dimension and is subtracted iff it took lo an odd number
    # of times.
    corners = [(np.zeros(len(lo_idx), dtype=np.int64), False)]
    for d in range(dim):
        upper = (hi_idx[:, d] + 1) * radix[d]
        lower = lo_idx[:, d] * radix[d]
        corners = [(key + upper, odd) for key, odd in corners] + [
            (key + lower, not odd) for key, odd in corners
        ]
    flat = volume.ravel()
    total = np.zeros(len(lo_idx), dtype=np.int64)
    for key, odd in corners:
        if odd:
            total -= flat[key]
        else:
            total += flat[key]
    return total


# -- candidate windows -----------------------------------------------------
def entry_join_candidates(
    keys_a,
    keys_b,
    total_cells: int,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Co-located *entry index* pairs of two flat key arrays, chunked.

    Indexes B's entries by cell key (:func:`index_entries`, keys below
    ``total_cells``) and finds every A entry's window of B entries;
    yields ``(entries_a, entries_b)`` index arrays into the original
    entry arrays, one element per (A entry, B entry) pair sharing a
    cell, A entries in order and each window in B's stable key order.
    Callers look up whatever per-entry payload they carry through these
    indices: :func:`grid_join_pairs` the object indices and class masks,
    the two-layer join (:mod:`repro.partition.two_layer`) the same.
    """
    if len(keys_a) == 0 or len(keys_b) == 0:
        return
    index = index_entries(keys_b, total_cells, len(keys_a))
    yield from _key_windows(index, keys_a, chunk)


def probe_join_candidates(
    build_index: SortedEntries,
    probe_keys,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """Co-located entry pairs of a presorted build side and a probe batch.

    The probe twin of :func:`entry_join_candidates`: ``build_index`` is
    :func:`sort_entries` of the build side's keys, computed once.
    Yields ``(entries_build, entries_probe)`` index arrays into the
    original entry arrays — the same candidate multiset as
    ``entry_join_candidates(build, probe)`` (one element per
    key-sharing pair), so ``stats.comparisons`` counts are identical;
    only the pair order differs.
    """
    for probe_idx, build_idx in _key_windows(build_index, probe_keys, chunk):
        yield build_idx, probe_idx


def _key_windows(index, anchor_keys, chunk: int):
    """``(anchor entry, indexed entry)`` pairs sharing a key, chunked.

    ``index`` is a :class:`SortedEntries` or a :class:`CellDirectory` of
    the indexed side.  Only anchors whose key the indexed side has go
    on: in a skewed join most anchor entries fall in cells the other
    side never uses.
    """
    if len(index.order) == 0 or len(anchor_keys) == 0:
        return
    matched, starts, counts = index.locate(anchor_keys)
    if len(matched) == 0:
        return
    for lo_i, hi_i in chunk_boundaries(counts, chunk):
        anchor_idx, window_pos = concat_ranges(starts[lo_i:hi_i], counts[lo_i:hi_i])
        yield matched[anchor_idx + lo_i], index.order[window_pos]


# -- the intersection test and ownership -----------------------------------
def grid_probe_pairs(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    prepared_a,
    entries_b,
    stats,
):
    """Probe-side twin of :func:`grid_join_pairs` over a prepared A side.

    ``prepared_a`` is ``(entries_a, index_a)``: A's
    ``(obj, keys, masks)`` entries and the :func:`sort_entries` of its
    keys, computed once at prepare time; ``entries_b`` are the probe
    batch's ``(obj, keys, masks)`` entries.  Candidate generation, the
    intersection test and the ownership rule are the same as the
    one-shot join, so the returned ``(index_a, index_b)`` pair set
    matches it exactly.
    """
    entries_a, index_a = prepared_a
    windows = probe_join_candidates(index_a, entries_b[1])
    return _owned_hits(table_a, table_b, entries_a, entries_b, windows, stats)


def grid_join_pairs(
    grid: ColumnarGrid,
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    entries_a,
    entries_b,
    stats,
    index_b=None,
):
    """Join two entry sets: intersection test + reference-point dedup.

    The shared core of every columnar grid join (TOUCH's local join and
    PBSM's cell merge): generates the co-located candidate pairs, keeps
    the truly intersecting ones, and lets each cell report only the
    pairs it owns.  ``entries_*`` are ``(obj, keys, masks)`` as
    :meth:`ColumnarGrid.entries` returns them with class masks.
    Increments ``stats.comparisons`` once per candidate and
    ``stats.duplicates_suppressed`` per disowned intersection; returns
    the owned ``(index_a, index_b)`` pair arrays.  ``index_b`` is
    :func:`index_entries` of B's keys when the caller already holds it
    (it is built here otherwise).
    """
    keys_a, keys_b = entries_a[1], entries_b[1]
    if index_b is None:
        index_b = index_entries(keys_b, grid.total_cells, len(keys_a))
    windows = _key_windows(index_b, keys_a, DEFAULT_CANDIDATE_CHUNK)
    return _owned_hits(table_a, table_b, entries_a, entries_b, windows, stats)


def _owned_hits(table_a, table_b, entries_a, entries_b, windows, stats):
    """Test ``(ent_a, ent_b)`` window chunks, keep the owned hits.

    A hit found in cell ``c`` is owned there iff ``c`` holds the
    reference point ``max(a.lo, b.lo)`` (Dittrich & Seeger).  Clamped
    cell indexing is monotone, so that point's cell is, per dimension,
    the larger of the two boxes' low cells; ``c`` lies in both boxes'
    cell ranges, so it equals that maximum exactly where ``c`` is one of
    the boxes' low cells, i.e. where one of the two class-mask bits is
    set.  The cell owns the pair iff the masks cover every dimension.
    """
    # The partition package imports this module; import lazily.
    from repro.partition.classes import full_mask

    obj_a, _keys_a, masks_a = entries_a
    obj_b, _keys_b, masks_b = entries_b
    full = full_mask(table_a.dim)
    comparisons = 0
    duplicates = 0
    dedup_checks = 0
    out_a: list = []
    out_b: list = []
    for ent_a, ent_b in windows:
        cand_a, cand_b = obj_a[ent_a], obj_b[ent_b]
        comparisons += len(cand_a)
        hits = np.flatnonzero(
            pairs_overlap_mask(table_a.cols, cand_a, table_b.cols, cand_b)
        )
        owned = hits[(masks_a[ent_a[hits]] | masks_b[ent_b[hits]]) == full]
        dedup_checks += len(hits)
        duplicates += len(hits) - len(owned)
        out_a.append(cand_a[owned])
        out_b.append(cand_b[owned])
    stats.comparisons += comparisons
    stats.duplicates_suppressed += duplicates
    stats.dedup_checks += dedup_checks
    empty = np.empty(0, dtype=np.int64)
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def row_windows(grid: ColumnarGrid, index_b, lo_idx, hi_idx):
    """The rows of cells of A's boxes that hold B entries, with their
    windows into ``index_b.order``.

    Box ``i`` of A spans cells ``lo_idx[i]`` to ``hi_idx[i]``; its rows
    of cells along the last axis are :meth:`ColumnarGrid.row_ranges`.
    In row-major keys a row of cells is one contiguous window of B's
    key-sorted entries, so each costs one lookup in ``index_b`` (a
    :class:`CellDirectory` or :class:`SortedEntries`) instead of one per
    cell.  Returns ``(obj, first, masks, starts, counts)`` for the rows
    whose window is not empty, in :meth:`~ColumnarGrid.row_ranges`
    order; the rest are dropped here, so their arrays are freed before
    any candidate is built.
    """
    obj, first, last, masks = grid.row_ranges(lo_idx, hi_idx)
    starts, counts = index_b.windows(first, last)
    live = np.flatnonzero(counts)
    return obj[live], first[live], masks[live], starts[live], counts[live]


def grid_row_join(
    table_a: CoordinateTable,
    table_b: CoordinateTable,
    windows_a,
    entries_b,
    index_b,
    stats,
    chunk: int = DEFAULT_CANDIDATE_CHUNK,
):
    """:func:`grid_join_pairs` with A probing by rows of cells.

    ``windows_a`` are ``(obj, first, masks, starts, counts)`` as
    :func:`row_windows` returns them (``obj`` indexing ``table_a``);
    ``entries_b`` are B's ``(obj, keys, masks)`` entries and ``index_b``
    their :func:`index_entries`.  B's objects, keys, class masks and
    coordinates are gathered into ``index_b``'s key order once, and
    every candidate reads them by window position.

    The candidates, their order and every counter are those of
    :func:`grid_join_pairs` over A's per-cell entries: a window lists
    its cells in key order and each cell's entries in B's stable order.
    An A cell's class mask is the row's, plus the last-axis bit where the
    B entry's key is the row's first key.  Returns the owned
    ``(index_a, index_b)`` pair arrays.
    """
    # The partition package imports this module; import lazily.
    from repro.partition.classes import full_mask

    obj_a, first, masks_a, starts, counts = windows_a
    order = index_b.order
    obj_b = entries_b[0].take(order)
    keys_b = entries_b[1].take(order)
    masks_b = entries_b[2].take(order)
    cols_b = table_b.cols.take(obj_b, axis=1)
    full = full_mask(table_a.dim)
    last_bit = 1 << (table_a.dim - 1)
    comparisons = 0
    duplicates = 0
    dedup_checks = 0
    out_a: list = []
    out_b: list = []
    for lo_i, hi_i in chunk_boundaries(counts, chunk):
        ranges, pos = concat_ranges(starts[lo_i:hi_i], counts[lo_i:hi_i])
        ranges += lo_i
        cand_a = obj_a.take(ranges)
        comparisons += len(pos)
        hits = np.flatnonzero(pairs_overlap_mask(table_a.cols, cand_a, cols_b, pos))
        hit_pos, hit_ranges = pos.take(hits), ranges.take(hits)
        cell_masks = masks_b.take(hit_pos) | masks_a.take(hit_ranges)
        cell_masks[keys_b.take(hit_pos) == first.take(hit_ranges)] |= last_bit
        owned = cell_masks == full
        dedup_checks += len(hits)
        duplicates += len(hits) - int(np.count_nonzero(owned))
        out_a.append(cand_a.take(hits[owned]))
        out_b.append(obj_b.take(hit_pos[owned]))
    stats.comparisons += comparisons
    stats.duplicates_suppressed += duplicates
    stats.dedup_checks += dedup_checks
    # chunk_boundaries yields at least one (possibly empty) chunk.
    return np.concatenate(out_a), np.concatenate(out_b)
