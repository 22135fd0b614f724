"""Corner-ownership classes and the duplicate-free mini-join matrix.

The two-layer space-oriented partitioning scheme (Tsitsigkos &
Mamoulis 2019; Tsitsigkos et al. 2023) replaces reference-point
deduplication with a *classification* of every replica.  An object
assigned to the tiles its MBR overlaps gets, per tile, a **class
mask**: bit ``d`` is set iff the tile is the one containing the MBR's
low corner along dimension ``d``.  In the papers' 2-D notation:

=========== ====== =====================================================
mask (y, x) class  meaning
=========== ====== =====================================================
``11``      A      home tile — both low-corner coordinates begin here
``10``      B      replica entering from the x-neighbour (x began earlier)
``01``      C      replica entering from the y-neighbour (y began earlier)
``00``      D      replica entering from the diagonal neighbour
=========== ====== =====================================================

(bit 0 is the x axis, bit 1 the y axis, and so on.)

**Mini-join matrix.** Within one tile, a pair of replicas is joined
only when their masks *cover every dimension* (``mask_a | mask_b ==
full``): A×A, A×B, B×A, A×C, C×A, A×D, D×A, B×C and C×B in 2-D —
B×B, C×C and anything involving two D-sides are skipped.

**Why this is duplicate-free by construction.**  Cell indexing is
monotone, so the tile of the pair's reference point ``ref[d] =
max(a.lo[d], b.lo[d])`` (the minimum corner of the MBR intersection,
exactly Dittrich & Seeger's dedup point) has per-dimension index
``max(cell(a.lo[d]), cell(b.lo[d]))``.  In that tile — and only in
that tile — every dimension has at least one of the two masks' bits
set; in any other shared tile some dimension has both bits clear (both
objects began in an earlier tile) or a mask bit mismatch.  Running the
allowed mini-joins therefore reports each intersecting pair exactly
once *without any per-pair ownership test*: ``stats.dedup_checks``
stays 0.

The same algebra places probe replicas on the sharded serving tier's
shards, with decomposition regions playing the tiles.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "full_mask",
    "mini_join_masks",
    "class_label",
]


def full_mask(n_axes: int) -> int:
    """The home-tile (class A) mask: every dimension's begin bit set."""
    if n_axes < 1:
        raise ValueError(f"n_axes must be >= 1, got {n_axes}")
    return (1 << n_axes) - 1


@lru_cache(maxsize=None)
def mini_join_masks(n_axes: int) -> tuple[tuple[int, int], ...]:
    """All ``(mask_a, mask_b)`` combinations whose union covers every axis.

    This is the mini-join matrix: exactly the class pairs whose joint
    begin corners pin the pair's reference point to the current tile.
    3 combinations on one axis (A×A, A×B, B×A), 9 on two, 27 on three.
    """
    full = full_mask(n_axes)
    return tuple(
        (mask_a, mask_b)
        for mask_a in range(full + 1)
        for mask_b in range(full + 1)
        if mask_a | mask_b == full
    )


def class_label(mask: int, n_axes: int) -> str:
    """Human-readable class name: ``A``–``D`` in 2-D, bit string beyond."""
    full = full_mask(n_axes)
    if n_axes <= 2:
        return {full: "A", full & ~1: "B", full & ~2: "C", 0: "D"}.get(
            mask, format(mask, f"0{n_axes}b")
        )
    return format(mask, f"0{n_axes}b")
