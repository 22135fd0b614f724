"""Minimum bounding rectangles (MBRs) in arbitrary dimension.

The MBR is the workhorse of the filtering phase of every spatial join in
this library: objects are approximated by axis-aligned boxes and all
object-object "comparisons" counted by the paper are intersection tests
between two MBRs.

An :class:`MBR` is immutable.  Its ``lo`` and ``hi`` corners are plain
tuples of floats, which keeps the hot intersection test free of numpy
overhead for the small dimensionalities (2-3) used throughout the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

__all__ = ["MBR", "check_epsilon", "mbr_of_points", "total_mbr"]


def check_epsilon(epsilon: float) -> float:
    """``epsilon`` as a float, after rejecting negative or non-finite values.

    The one ε check of the library (:meth:`MBR.expand`, the array
    :func:`~repro.datasets.transform.inflate`, the query service and
    the refine stage): a NaN would otherwise build NaN boxes that
    silently match nothing.
    """
    value = float(epsilon)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    return value


class MBR:
    """An axis-aligned minimum bounding rectangle in ``D`` dimensions.

    Parameters
    ----------
    lo:
        Coordinates of the minimum corner, one per dimension.
    hi:
        Coordinates of the maximum corner.  ``hi[d] >= lo[d]`` must hold
        in every dimension ``d``.

    Examples
    --------
    >>> box = MBR((0.0, 0.0), (2.0, 1.0))
    >>> box.volume()
    2.0
    >>> box.intersects(MBR((1.0, 0.5), (3.0, 3.0)))
    True
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo = tuple(float(c) for c in lo)
        hi = tuple(float(c) for c in hi)
        if len(lo) != len(hi):
            raise ValueError(f"corner dimensionality mismatch: {len(lo)} vs {len(hi)}")
        if not lo:
            raise ValueError("MBR must have at least one dimension")
        for d, (lo_c, hi_c) in enumerate(zip(lo, hi)):
            if hi_c < lo_c:
                raise ValueError(f"hi < lo in dimension {d}: {hi_c} < {lo_c}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def trusted(cls, lo: tuple, hi: tuple) -> "MBR":
        """A box from float tuples already known to be valid.

        Skips the constructor's per-dimension validation, for boxes that
        are valid by construction (inflations, bounds of valid boxes).
        """
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    # -- immutability -------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MBR is immutable")

    def __reduce__(self):
        # Default slot pickling would call __setattr__ (blocked above);
        # rebuild through the constructor instead so MBRs can cross
        # process boundaries (multiprocessing-based chunked execution).
        return (MBR, (self.lo, self.hi))

    # -- basic protocol ----------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.lo)

    def __repr__(self) -> str:
        return f"MBR({self.lo!r}, {self.hi!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        """Iterate over ``(lo, hi)`` intervals, one per dimension."""
        return iter(zip(self.lo, self.hi))

    # -- predicates ----------------------------------------------------
    def intersects(self, other: "MBR") -> bool:
        """Return ``True`` iff the two boxes share at least one point.

        Touching boundaries count as intersecting, matching the closed-box
        semantics of the paper's overlap definition ("intersection and
        containment").
        """
        for slo, shi, olo, ohi in zip(self.lo, self.hi, other.lo, other.hi):
            if shi < olo or ohi < slo:
                return False
        return True

    def contains(self, other: "MBR") -> bool:
        """Return ``True`` iff ``other`` lies entirely inside this box."""
        for slo, shi, olo, ohi in zip(self.lo, self.hi, other.lo, other.hi):
            if olo < slo or ohi > shi:
                return False
        return True

    def contains_point(self, point: Sequence[float]) -> bool:
        """Return ``True`` iff ``point`` lies inside this (closed) box."""
        for lo_c, hi_c, p in zip(self.lo, self.hi, point):
            if p < lo_c or p > hi_c:
                return False
        return True

    # -- constructive operations ---------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """Smallest box enclosing both inputs."""
        lo = tuple(min(s, o) for s, o in zip(self.lo, other.lo))
        hi = tuple(max(s, o) for s, o in zip(self.hi, other.hi))
        return MBR(lo, hi)

    def intersection(self, other: "MBR") -> "MBR | None":
        """The overlap box, or ``None`` when the boxes are disjoint."""
        lo = tuple(max(s, o) for s, o in zip(self.lo, other.lo))
        hi = tuple(min(s, o) for s, o in zip(self.hi, other.hi))
        for lo_c, hi_c in zip(lo, hi):
            if hi_c < lo_c:
                return None
        return MBR(lo, hi)

    def expand(self, epsilon: float) -> "MBR":
        """Minkowski-inflate the box by ``epsilon`` on every side.

        This is the reduction used by the paper (after Jacox & Samet) to
        turn a distance join with threshold ``epsilon`` into an
        intersection join: the inflated box of ``a`` intersects ``b``'s box
        iff the L-infinity distance of the two boxes is at most ``epsilon``
        (and therefore whenever the Euclidean distance is).
        """
        epsilon = check_epsilon(epsilon)
        # Valid by construction: lo - eps <= lo <= hi <= hi + eps.
        return MBR.trusted(
            tuple([c - epsilon for c in self.lo]),
            tuple([c + epsilon for c in self.hi]),
        )

    def translate(self, offset: Sequence[float]) -> "MBR":
        """Return the box shifted by ``offset``."""
        return MBR(
            tuple(c + o for c, o in zip(self.lo, offset)),
            tuple(c + o for c, o in zip(self.hi, offset)),
        )

    # -- measures --------------------------------------------------------
    def side_lengths(self) -> tuple[float, ...]:
        """Edge length per dimension."""
        return tuple(hi - lo for lo, hi in zip(self.lo, self.hi))

    def volume(self) -> float:
        """Product of all side lengths (area in 2D)."""
        return math.prod(self.side_lengths())

    def margin(self) -> float:
        """Sum of all side lengths (half-perimeter in 2D)."""
        return sum(self.side_lengths())

    def center(self) -> tuple[float, ...]:
        """Geometric center."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lo, self.hi))

    def min_distance(self, other: "MBR") -> float:
        """Euclidean distance between the closest points of the two boxes.

        Zero when the boxes intersect.  Used by the refinement phase and
        by tests validating the ε-inflation reduction.
        """
        acc = 0.0
        for slo, shi, olo, ohi in zip(self.lo, self.hi, other.lo, other.hi):
            if ohi < slo:
                gap = slo - ohi
            elif shi < olo:
                gap = olo - shi
            else:
                gap = 0.0
            acc += gap * gap
        return math.sqrt(acc)

    def overlap_volume(self, other: "MBR") -> float:
        """Volume of the intersection (zero when disjoint)."""
        inter = self.intersection(other)
        return inter.volume() if inter is not None else 0.0


def mbr_of_points(points: Iterable[Sequence[float]]) -> MBR:
    """Tight bounding box of a non-empty collection of points."""
    it = iter(points)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cannot bound an empty point set") from None
    lo = list(first)
    hi = list(first)
    for point in it:
        for d, c in enumerate(point):
            if c < lo[d]:
                lo[d] = c
            elif c > hi[d]:
                hi[d] = c
    return MBR(lo, hi)


def total_mbr(mbrs: Iterable[MBR]) -> MBR:
    """Tight bounding box enclosing a non-empty collection of boxes."""
    it = iter(mbrs)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cannot bound an empty MBR set") from None
    lo = list(first.lo)
    hi = list(first.hi)
    for box in it:
        for d, c in enumerate(box.lo):
            if c < lo[d]:
                lo[d] = c
        for d, c in enumerate(box.hi):
            if c > hi[d]:
                hi[d] = c
    return MBR(lo, hi)
