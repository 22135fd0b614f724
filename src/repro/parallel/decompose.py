"""Spatial decomposition of the multiprocess engine (and its neighbours).

§3 of the paper: "the dataset is split into 16K contiguous subsets, each
subset is loaded in the memory of a core and the distance join is
performed locally (independent of the other cores and thus massively
parallel)".  This module owns the geometry of that decomposition, which
the multiprocess engine (:class:`~repro.parallel.engine.ParallelChunkedJoin`),
the memory governor and the sharded serving tier share:

- **slabs**: the universe is cut into ``n_chunks`` contiguous intervals
  along one axis (the paper's BlueGene/P layout);
- **tiles**: a 2-D grid over two axes, the layout of "Parallel In-Memory
  Evaluation of Spatial Joins" — finer regions at the same chunk count,
  so skewed data spreads across workers more evenly.

Every region receives each object whose MBR *touches* it (closed
intervals — objects straddling a boundary are seen by several regions).
Cross-region duplicates are suppressed with the reference-point rule: a
pair belongs to the unique region containing the point
``ref[d] = max(a.lo[d], b.lo[d])`` on every partitioned axis ``d``.

Ownership is resolved by binary search over the *shared* region edges
(:meth:`Decomposition.owner_cell`), which makes the intervals half-open
``[edge_i, edge_i+1)`` with the final interval closed at the universe
bound.  Resolving against the global edge list (rather than testing each
region's own ``[lo, hi)`` in isolation) guarantees every reference point
has exactly one owner even when floating-point rounding makes adjacent
interval bounds disagree — the historical per-slab test lost pairs whose
reference point landed exactly on an interior edge a slab believed it
did not own.  :meth:`Decomposition.owner_indices` is the same rule over
whole pair arrays (one ``searchsorted`` per partitioned axis), pinned
to the scalar :meth:`Decomposition.owns` by ``tests/test_decompose.py``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.geometry.mbr import MBR

__all__ = [
    "slab_bounds",
    "tile_grid",
    "adaptive_chunk_count",
    "Region",
    "Decomposition",
    "DECOMPOSE_KINDS",
    "CHUNKS_PER_WORKER",
]

#: Valid values of the ``kind`` / ``--decompose`` selector.
DECOMPOSE_KINDS = ("slabs", "tiles")

#: Regions per worker of the default decomposition.  Every region pays
#: a join's fixed cost (tree build, pickling, merge), so a few regions
#: per worker beat many small ones; two rather than one lets a worker
#: that finishes early take a second region when the data is skewed.
CHUNKS_PER_WORKER = 2


def slab_bounds(lo: float, hi: float, n_chunks: int) -> list[tuple[float, float]]:
    """Split ``[lo, hi]`` into ``n_chunks`` equal contiguous intervals."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if hi < lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    width = (hi - lo) / n_chunks
    bounds = [(lo + i * width, lo + (i + 1) * width) for i in range(n_chunks)]
    # Close the final slab exactly at hi to avoid floating-point gaps.
    bounds[-1] = (bounds[-1][0], hi)
    return bounds


def tile_grid(n_chunks: int, extent_x: float, extent_y: float) -> tuple[int, int]:
    """Factor ``n_chunks`` into an ``(nx, ny)`` grid of near-square tiles.

    Among all factorisations ``nx * ny == n_chunks`` the one whose tiles
    are closest to square (cell aspect ratio nearest 1 given the two
    universe extents) is chosen, so elongated universes get more cuts
    along their long axis.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    best = (n_chunks, 1)
    best_score = math.inf
    for nx in range(1, n_chunks + 1):
        if n_chunks % nx:
            continue
        ny = n_chunks // nx
        width = extent_x / nx if extent_x > 0 else 1.0
        height = extent_y / ny if extent_y > 0 else 1.0
        aspect = max(width, height) / max(min(width, height), 1e-300)
        if aspect < best_score:
            best_score = aspect
            best = (nx, ny)
    return best


def adaptive_chunk_count(workers: int) -> int:
    """The default region count: :data:`CHUNKS_PER_WORKER` per worker.

    It does not grow with the input: more regions only add per-region
    fixed costs and boundary replication once every worker is busy.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return CHUNKS_PER_WORKER * workers


@dataclass(frozen=True)
class Region:
    """One contiguous piece of the decomposed universe.

    ``axes[i]`` is the partitioned axis of coordinate ``i``; ``cells[i]``
    the region's interval index along that axis; ``lows[i]``/``highs[i]``
    the interval bounds.  Frozen and tuple-only, so regions pickle across
    process boundaries for free.
    """

    index: int
    axes: tuple[int, ...]
    cells: tuple[int, ...]
    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def touches(self, mbr: MBR) -> bool:
        """Closed-interval membership: does the MBR overlap this region?"""
        return all(
            mbr.hi[axis] >= lo and mbr.lo[axis] <= hi
            for axis, lo, hi in zip(self.axes, self.lows, self.highs)
        )


class Decomposition:
    """A slab or tile cutting of a universe, with the ownership rule.

    Construct via :meth:`slabs`, :meth:`tiles` or :meth:`build`; the
    resulting object is picklable and is shipped verbatim to worker
    processes so parent and workers agree bit-for-bit on region edges.
    """

    __slots__ = ("kind", "axes", "shape", "bounds", "edges", "regions")

    def __init__(
        self,
        kind: str,
        axes: tuple[int, ...],
        bounds: tuple[tuple[tuple[float, float], ...], ...],
    ) -> None:
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if len(axes) != len(bounds) or not axes:
            raise ValueError("axes and bounds must align and be non-empty")
        self.kind = kind
        self.axes = axes
        self.bounds = bounds
        self.shape = tuple(len(per_axis) for per_axis in bounds)
        # Left edges per axis: the shared ownership ruler (see owner_cell).
        self.edges = tuple(
            tuple(lo for lo, _ in per_axis) for per_axis in bounds
        )
        self.regions = self._build_regions()

    def _build_regions(self) -> list[Region]:
        regions: list[Region] = []
        # C-order enumeration over the per-axis interval indices.
        counts = self.shape
        total = math.prod(counts)
        for flat in range(total):
            cells = []
            rest = flat
            for count in reversed(counts):
                rest, cell = divmod(rest, count)
                cells.append(cell)
            cells.reverse()
            regions.append(
                Region(
                    index=flat,
                    axes=self.axes,
                    cells=tuple(cells),
                    lows=tuple(
                        self.bounds[i][cell][0] for i, cell in enumerate(cells)
                    ),
                    highs=tuple(
                        self.bounds[i][cell][1] for i, cell in enumerate(cells)
                    ),
                )
            )
        return regions

    # -- construction --------------------------------------------------
    @classmethod
    def slabs(cls, universe: MBR, n_chunks: int, axis: int = 0) -> "Decomposition":
        """Contiguous slabs along one axis (the paper's §3 layout)."""
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if axis >= universe.dim:
            raise ValueError(
                f"axis {axis} out of range for {universe.dim}-dimensional data"
            )
        per_axis = tuple(slab_bounds(universe.lo[axis], universe.hi[axis], n_chunks))
        return cls("slabs", (axis,), (per_axis,))

    @classmethod
    def tiles(
        cls, universe: MBR, n_chunks: int, axes: tuple[int, int] = (0, 1)
    ) -> "Decomposition":
        """A near-square 2-D grid of ``n_chunks`` tiles over two axes."""
        ax, ay = axes
        if ax == ay:
            raise ValueError(f"tile axes must differ, got {axes}")
        for axis in axes:
            if axis < 0:
                raise ValueError(f"axis must be >= 0, got {axis}")
            if axis >= universe.dim:
                raise ValueError(
                    f"axis {axis} out of range for {universe.dim}-dimensional data"
                )
        nx, ny = tile_grid(
            n_chunks,
            universe.hi[ax] - universe.lo[ax],
            universe.hi[ay] - universe.lo[ay],
        )
        return cls(
            "tiles",
            (ax, ay),
            (
                tuple(slab_bounds(universe.lo[ax], universe.hi[ax], nx)),
                tuple(slab_bounds(universe.lo[ay], universe.hi[ay], ny)),
            ),
        )

    @classmethod
    def build(
        cls,
        universe: MBR,
        kind: str = "slabs",
        n_chunks: int = 4,
        axis: int = 0,
    ) -> "Decomposition":
        """Dispatch on ``kind``; tiles fall back to slabs in 1-D."""
        if kind not in DECOMPOSE_KINDS:
            raise ValueError(
                f"unknown decomposition kind {kind!r}; expected one of "
                f"{', '.join(DECOMPOSE_KINDS)}"
            )
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        if axis < 0:
            raise ValueError(f"axis must be >= 0, got {axis}")
        if axis >= universe.dim:
            raise ValueError(
                f"axis {axis} out of range for {universe.dim}-dimensional data"
            )
        if kind == "tiles" and universe.dim >= 2:
            return cls.tiles(universe, n_chunks, axes=(axis, (axis + 1) % universe.dim))
        return cls.slabs(universe, n_chunks, axis=axis)

    # -- pickling (``__slots__`` without a dict) -----------------------
    def __reduce__(self):
        return (Decomposition, (self.kind, self.axes, self.bounds))

    # -- protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.regions)

    def __repr__(self) -> str:
        return f"Decomposition({self.kind}, shape={self.shape}, axes={self.axes})"

    def describe(self) -> dict:
        return {"decompose": self.kind, "shape": self.shape, "axes": self.axes}

    # -- the shared ownership rule -------------------------------------
    def owner_cell(self, coordinate: int, value: float) -> int:
        """Interval index owning ``value`` along partitioned coordinate.

        Binary search over the shared left-edge list: half-open
        ``[edge_i, edge_i+1)`` intervals whose last member also owns the
        closing universe bound (and, defensively, anything beyond it).
        Total on the whole axis — no value can fall between regions.
        """
        edges = self.edges[coordinate]
        return min(max(bisect_right(edges, value) - 1, 0), len(edges) - 1)

    def owner_index(self, mbr_a: MBR, mbr_b: MBR) -> int:
        """Flat index of the region owning the pair ``(a, b)``.

        The reference point is ``max(a.lo[d], b.lo[d])`` per partitioned
        axis — a point both MBRs contain, so the owning region sees both
        objects and the local join reports the pair there.
        """
        flat = 0
        for coordinate, axis in enumerate(self.axes):
            reference = max(mbr_a.lo[axis], mbr_b.lo[axis])
            flat = flat * self.shape[coordinate] + self.owner_cell(
                coordinate, reference
            )
        return flat

    def owns(self, region: Region, mbr_a: MBR, mbr_b: MBR) -> bool:
        """Does ``region`` own the pair under the reference-point rule?"""
        return self.owner_index(mbr_a, mbr_b) == region.index

    def owner_indices(self, lo_a, lo_b) -> np.ndarray:
        """:meth:`owner_index` of many pairs at once.

        ``lo_a`` / ``lo_b`` are ``(N, D)`` low corners, row ``i`` of each
        holding pair ``i``'s.  ``searchsorted(side="right") - 1``,
        clipped to the edge list, is :meth:`owner_cell`'s
        ``bisect_right`` rule; the cells fold into the flat C-order
        region index.
        """
        flat = np.zeros(len(lo_a), dtype=np.int64)
        for coordinate, axis in enumerate(self.axes):
            edges = np.asarray(self.edges[coordinate], dtype=np.float64)
            reference = np.maximum(lo_a[:, axis], lo_b[:, axis])
            cell = np.searchsorted(edges, reference, side="right") - 1
            np.clip(cell, 0, len(edges) - 1, out=cell)
            flat = flat * self.shape[coordinate] + cell
        return flat

    # -- routing -------------------------------------------------------
    def covering_indices(self, mbr: MBR) -> list[int]:
        """Flat indices of every region the MBR covers (routing rule).

        The per-axis interval range is ``[owner_cell(lo), owner_cell(hi)]``
        — exactly the membership rule of :meth:`covers`, enumerated once
        for the whole decomposition instead of tested region by region.
        The sharded serving tier routes each probe MBR to precisely these
        shards; :meth:`covers` remains the per-region oracle the tests
        pin this enumeration against.
        """
        ranges = []
        for coordinate, axis in enumerate(self.axes):
            lo_cell = self.owner_cell(coordinate, mbr.lo[axis])
            hi_cell = self.owner_cell(coordinate, mbr.hi[axis])
            ranges.append(range(lo_cell, hi_cell + 1))
        flats: list[int] = []
        for cells in itertools.product(*ranges):
            flat = 0
            for coordinate, cell in enumerate(cells):
                flat = flat * self.shape[coordinate] + cell
            flats.append(flat)
        return flats

    # -- the two-layer classification ----------------------------------
    def covers(self, region: Region, mbr: MBR) -> bool:
        """Index-range membership of the two-layer scheme.

        The MBR belongs to the regions whose interval index lies within
        ``[owner_cell(lo), owner_cell(hi)]`` on every partitioned axis —
        the multiple assignment of the two-layer scheme, resolved on the
        same shared-edge ruler as pair ownership (the serving tier's
        shard placement, :meth:`covering_indices`).  Unlike the closed
        :meth:`Region.touches` test it excludes objects meeting a region
        only at its low boundary (their low corner is owned by the next
        region over); those replicas can never contribute an owned pair,
        and dropping them is what makes the per-region class mini-joins
        duplicate-free without any per-pair test.
        """
        for coordinate, axis in enumerate(self.axes):
            cell = region.cells[coordinate]
            if not (
                self.owner_cell(coordinate, mbr.lo[axis])
                <= cell
                <= self.owner_cell(coordinate, mbr.hi[axis])
            ):
                return False
        return True

    def class_mask(self, region: Region, mbr: MBR) -> int:
        """Two-layer class mask of ``mbr``'s replica in ``region``.

        Bit ``i`` is set iff the region owns the MBR's low corner along
        partitioned coordinate ``i`` (see :mod:`repro.partition.classes`
        for the mini-join algebra built on these masks).  Exactly one
        covering region — the home region — has every bit set.
        """
        mask = 0
        for coordinate, axis in enumerate(self.axes):
            if self.owner_cell(coordinate, mbr.lo[axis]) == region.cells[coordinate]:
                mask |= 1 << coordinate
        return mask

    # -- membership ----------------------------------------------------
    def members(self, region: Region, objects):
        """Objects whose MBR touches the region (closed intervals)."""
        return [obj for obj in objects if region.touches(obj.mbr)]
