"""Exact vertex-based geometry: the shape layer under filter-refine.

MBR joins answer "which bounding boxes come within epsilon"; the TOUCH
paper's workloads (meshes, trajectories) are non-point geometries for
which the MBR test is only a *candidate* filter.  This module is the
shape vocabulary of the refinement stage:

- :class:`Point` — a single vertex, any dimensionality;
- :class:`LineString` — an open polyline (trajectories, neuron
  branches), 2-D or 3-D;
- :class:`Polygon` — a simple 2-D ring, treated as a *filled* region;
- :class:`BoxShape` — an axis-aligned solid box of any dimensionality;
  the canonical fallback for legacy MBR-only objects so that a mixed
  dataset can flow through one refinement pipeline.

Every shape knows its tight :meth:`Shape.mbr` and an optional
**interior rectangle** — an axis-aligned box fully contained in the
shape (Kipf et al.'s interior approximation).  Because the interior
rectangle is a *subset* of the shape, ``dist(interior_a, interior_b) <=
epsilon`` proves ``dist(a, b) <= epsilon`` without an exact test (the
"true hit" shortcut); symmetrically ``dist(mbr_a, mbr_b) > epsilon``
proves the pair apart (the "false hit" prune).

Degenerate payloads are rejected at construction with errors naming the
object id (polygons with fewer than three vertices, zero-length
linestrings, non-finite coordinates) so malformed data never reaches a
kernel.

The exact predicate is **Euclidean**: ``shape_distance(a, b) <=
epsilon``.  All internal comparisons happen on *squared* distances
(:func:`shape_distance_sq`), which keeps the scalar and vectorized
refinement kernels bit-for-bit consistent.
"""

from __future__ import annotations

import math
from typing import ClassVar, Iterable, Sequence

from repro.geometry.mbr import MBR

__all__ = [
    "Shape",
    "Point",
    "LineString",
    "Polygon",
    "BoxShape",
    "KIND_CODES",
    "KIND_NAMES",
    "shape_distance",
    "shape_distance_sq",
    "shape_from_payload",
    "shape_to_payload",
    "box_gap_sq",
    "polygon_contains",
    "segment_distance_sq",
]

#: Stable kind codes used by the columnar :class:`~repro.geometry.vertex_table.VertexTable`
#: and the JSON serving protocol.  Never renumber — fingerprints and
#: wire frames embed them.
KIND_CODES = {"box": 0, "point": 1, "linestring": 2, "polygon": 3}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}


def _label(kind: str, oid: object) -> str:
    return f"{kind} #{oid}" if oid is not None else kind


def _validate_vertices(
    vertices: Iterable[Sequence[float]], kind: str, oid: object, minimum: int
) -> tuple[tuple[float, ...], ...]:
    rows = []
    for row in vertices:
        rows.append(tuple(float(value) for value in row))
    if len(rows) < minimum:
        raise ValueError(
            f"{_label(kind, oid)}: needs at least {minimum} "
            f"vertices, got {len(rows)}"
        )
    dim = len(rows[0])
    if dim == 0:
        raise ValueError(f"{_label(kind, oid)}: vertices must have at least 1 coordinate")
    for index, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError(
                f"{_label(kind, oid)}: vertex {index} has {len(row)} "
                f"coordinates, expected {dim}"
            )
        for value in row:
            if not math.isfinite(value):
                raise ValueError(
                    f"{_label(kind, oid)}: non-finite coordinate {value!r} "
                    f"in vertex {index}"
                )
    return tuple(rows)


def _clamp01(value: float) -> float:
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def segment_distance_sq(
    ax: float, ay: float, bx: float, by: float,
    cx: float, cy: float, dx: float, dy: float,
) -> float:
    """Squared minimum distance between segments (a,b) and (c,d).

    Ericson's clamped closest-point computation.  The vectorized
    refinement kernels mirror this arithmetic operation for operation
    so every backend reaches the same float, which is what
    lets the parity suite demand identical refined pair sets.

    Segments that properly cross (each one's endpoints strictly on
    opposite sides of the other's line) are exactly 0 apart.  The
    closest-point arithmetic would leave rounding residue at the
    crossing, and at ``epsilon = 0`` that residue decides the pair.
    """
    d1x = bx - ax
    d1y = by - ay
    d2x = dx - cx
    d2y = dy - cy
    rx = ax - cx
    ry = ay - cy
    if (d1x * (cy - ay) - d1y * (cx - ax)) * (d1x * (dy - ay) - d1y * (dx - ax)) < 0.0 and (
        d2x * ry - d2y * rx
    ) * (d2x * (by - cy) - d2y * (bx - cx)) < 0.0:
        return 0.0
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry
    if a <= 0.0 and e <= 0.0:
        return rx * rx + ry * ry
    if a <= 0.0:
        s = 0.0
        t = _clamp01(f / e)
    else:
        c = d1x * rx + d1y * ry
        if e <= 0.0:
            t = 0.0
            s = _clamp01(-c / a)
        else:
            b = d1x * d2x + d1y * d2y
            denom = a * e - b * b
            s = _clamp01((b * f - c * e) / denom) if denom != 0.0 else 0.0
            t = b * s + f
            if t < 0.0:
                t = 0.0
                s = _clamp01(-c / a)
            elif t > e:
                t = 1.0
                s = _clamp01((b - c) / a)
            else:
                t = t / e
    gx = (ax + d1x * s) - (cx + d2x * t)
    gy = (ay + d1y * s) - (cy + d2y * t)
    return gx * gx + gy * gy


def box_gap_sq(
    lo_a: Sequence[float], hi_a: Sequence[float],
    lo_b: Sequence[float], hi_b: Sequence[float],
) -> float:
    """Squared Euclidean gap between two closed axis-aligned boxes."""
    acc = 0.0
    for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b):
        gap = la - hb
        other = lb - ha
        if other > gap:
            gap = other
        if gap > 0.0:
            acc += gap * gap
    return acc


def polygon_contains(vertices: Sequence[Sequence[float]], point: Sequence[float]) -> bool:
    """Boundary-inclusive point-in-polygon by ray casting (2-D)."""
    x, y = point[0], point[1]
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        # Exact on-edge points belong to the closed region.
        if segment_distance_sq(x, y, x, y, x1, y1, x2, y2) == 0.0:
            return True
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            if x < x1 + t * (x2 - x1):
                inside = not inside
    return inside


class Shape:
    """Base class for exact geometries.

    Satisfies the :class:`~repro.geometry.objects.SpatialObject`
    geometry protocol (``min_distance(other) -> float``) so shapes plug
    into the legacy per-pair refinement unchanged.
    """

    __slots__ = ("vertices", "_mbr", "_interior")

    kind: ClassVar[str] = "shape"
    min_vertices: ClassVar[int] = 1
    #: Filled shapes contribute containment tests to the exact predicate.
    filled: ClassVar[bool] = False

    def __init__(self, vertices: Iterable[Sequence[float]], *, oid: object = None):
        self.vertices = _validate_vertices(vertices, self.kind, oid, self.min_vertices)
        self._validate(oid)
        self._mbr = None
        self._interior = False  # sentinel: not computed yet (None is a valid result)

    def _validate(self, oid: object) -> None:  # pragma: no cover - overridden
        pass

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def mbr(self) -> MBR:
        if self._mbr is None:
            lo = tuple(min(v[d] for v in self.vertices) for d in range(self.dim))
            hi = tuple(max(v[d] for v in self.vertices) for d in range(self.dim))
            self._mbr = MBR(lo, hi)
        return self._mbr

    def interior_rectangle(self) -> MBR | None:
        """An axis-aligned box fully contained in the shape, or ``None``."""
        if self._interior is False:
            self._interior = self._compute_interior()
        return self._interior

    def _compute_interior(self) -> MBR | None:
        return None

    def segments(self) -> tuple[tuple[float, float, float, float], ...]:
        """The shape's boundary as flat 2-D segments ``(x1, y1, x2, y2)``."""
        raise TypeError(f"{self.kind} has no segment decomposition")

    def min_distance(self, other) -> float:
        if isinstance(other, Shape):
            return math.sqrt(shape_distance_sq(self, other))
        # Legacy geometries (Cylinder, Box) own their own dispatch.
        return other.min_distance(self)  # pragma: no cover - symmetry hook

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Shape)
            and self.kind == other.kind
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.vertices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({len(self.vertices)} vertices, dim={self.dim})"

    def __reduce__(self):
        return (type(self), (self.vertices,))


class Point(Shape):
    """A single location; any dimensionality."""

    __slots__ = ()
    kind = "point"
    min_vertices = 1
    filled = False

    def __init__(self, vertices, *, oid=None):
        super().__init__(vertices, oid=oid)
        if len(self.vertices) != 1:
            raise ValueError(f"{_label(self.kind, oid)}: expected exactly 1 vertex")

    def _compute_interior(self) -> MBR | None:
        return self.mbr()

    def segments(self):
        x, y = self.vertices[0][0], self.vertices[0][1]
        return ((x, y, x, y),)


class BoxShape(Shape):
    """A solid axis-aligned box given as two vertices ``(lo, hi)``.

    The exact-geometry stand-in for legacy MBR-only objects: callers
    attach ``BoxShape(obj.mbr.lo, obj.mbr.hi)`` *before* epsilon
    inflation so refinement always sees original extents.
    """

    __slots__ = ()
    kind = "box"
    min_vertices = 2
    filled = True

    def __init__(self, lo, hi=None, *, oid=None):
        if hi is None:
            vertices = lo
        else:
            vertices = (tuple(lo), tuple(hi))
        super().__init__(vertices, oid=oid)

    def _validate(self, oid) -> None:
        if len(self.vertices) != 2:
            raise ValueError(f"{_label(self.kind, oid)}: expected exactly 2 vertices")
        lo, hi = self.vertices
        for d, (a, b) in enumerate(zip(lo, hi)):
            if b < a:
                raise ValueError(
                    f"{_label(self.kind, oid)}: hi < lo in dimension {d}"
                )

    def _compute_interior(self) -> MBR | None:
        return self.mbr()

    def contains_point(self, point: Sequence[float]) -> bool:
        lo, hi = self.vertices
        return all(a <= x <= b for a, x, b in zip(lo, point, hi))

    def segments(self):
        (x1, y1), (x2, y2) = self.vertices
        return (
            (x1, y1, x2, y1),
            (x2, y1, x2, y2),
            (x2, y2, x1, y2),
            (x1, y2, x1, y1),
        )


class LineString(Shape):
    """An open polyline; 2-D or 3-D, positive total length."""

    __slots__ = ()
    kind = "linestring"
    min_vertices = 2
    filled = False

    def _validate(self, oid) -> None:
        length = 0.0
        for a, b in zip(self.vertices, self.vertices[1:]):
            length += math.dist(a, b)
        if length <= 0.0:
            raise ValueError(f"{_label(self.kind, oid)}: zero-length linestring")

    def segments(self):
        return tuple(
            (a[0], a[1], b[0], b[1])
            for a, b in zip(self.vertices, self.vertices[1:])
        )


class Polygon(Shape):
    """A simple 2-D ring (implicitly closed), treated as filled."""

    __slots__ = ()
    kind = "polygon"
    min_vertices = 3
    filled = True

    def _validate(self, oid) -> None:
        if self.dim != 2:
            raise ValueError(
                f"{_label(self.kind, oid)}: polygons must be 2-D, "
                f"got {self.dim}-D vertices"
            )
        if len(self.vertices) > 3 and self.vertices[0] == self.vertices[-1]:
            # Accept an explicitly closed ring but store it open.
            self.vertices = self.vertices[:-1]

    def contains_point(self, point: Sequence[float]) -> bool:
        return polygon_contains(self.vertices, point)

    def segments(self):
        verts = self.vertices
        n = len(verts)
        return tuple(
            (verts[i][0], verts[i][1], verts[(i + 1) % n][0], verts[(i + 1) % n][1])
            for i in range(n)
        )

    def _compute_interior(self) -> MBR | None:
        """Largest centered box from a shrinking geometric search.

        Conservative by construction: a candidate rectangle counts only
        when all four corners are inside the (closed) polygon and no
        polygon edge crosses the rectangle's open interior — which is
        exactly the condition for rect ⊆ polygon on a simple ring.
        """
        box = self.mbr()
        cx = (box.lo[0] + box.hi[0]) * 0.5
        cy = (box.lo[1] + box.hi[1]) * 0.5
        half_x = (box.hi[0] - box.lo[0]) * 0.5
        half_y = (box.hi[1] - box.lo[1]) * 0.5
        shrink = 0.5
        for _ in range(6):
            hx = half_x * shrink
            hy = half_y * shrink
            lo = (cx - hx, cy - hy)
            hi = (cx + hx, cy + hy)
            if self._rect_inside(lo, hi):
                return MBR(lo, hi)
            shrink *= 0.5
        if self.contains_point((cx, cy)):
            return MBR((cx, cy), (cx, cy))
        return None

    def _rect_inside(self, lo, hi) -> bool:
        corners = ((lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1]))
        for corner in corners:
            if not polygon_contains(self.vertices, corner):
                return False
        for x1, y1, x2, y2 in self.segments():
            if _segment_crosses_open_rect(x1, y1, x2, y2, lo, hi):
                return False
        return True


def _segment_crosses_open_rect(x1, y1, x2, y2, lo, hi) -> bool:
    """Liang-Barsky clip: does the segment enter the rectangle's open interior?"""
    dx = x2 - x1
    dy = y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x1 - lo[0]),
        (dx, hi[0] - x1),
        (-dy, y1 - lo[1]),
        (dy, hi[1] - y1),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return False
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return False
            if r < t1:
                t1 = r
    if t1 <= t0:
        return False
    tm = (t0 + t1) * 0.5
    mx = x1 + tm * dx
    my = y1 + tm * dy
    return lo[0] < mx < hi[0] and lo[1] < my < hi[1]


_BOXLIKE = ("box", "point")


def _as_boxlike(shape: Shape) -> tuple[Sequence[float], Sequence[float]]:
    if shape.kind == "point":
        vertex = shape.vertices[0]
        return vertex, vertex
    return shape.vertices[0], shape.vertices[1]


def shape_distance_sq(a: Shape, b: Shape) -> float:
    """Squared Euclidean minimum distance between two (filled) shapes."""
    if a.dim != b.dim:
        raise ValueError(f"dimensionality mismatch: {a.dim} vs {b.dim}")
    if a.kind in _BOXLIKE and b.kind in _BOXLIKE:
        lo_a, hi_a = _as_boxlike(a)
        lo_b, hi_b = _as_boxlike(b)
        return box_gap_sq(lo_a, hi_a, lo_b, hi_b)
    if a.dim != 2:
        raise ValueError(
            f"exact {a.kind}/{b.kind} distance requires 2-D shapes, got {a.dim}-D"
        )
    best = math.inf
    segs_a = a.segments()
    segs_b = b.segments()
    for ax, ay, bx, by in segs_a:
        for cx, cy, dx, dy in segs_b:
            d = segment_distance_sq(ax, ay, bx, by, cx, cy, dx, dy)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    if best > 0.0:
        # Boundaries apart: a filled shape may still swallow the other whole.
        if a.filled and _filled_contains(a, b.vertices[0]):
            return 0.0
        if b.filled and _filled_contains(b, a.vertices[0]):
            return 0.0
    return best


def _filled_contains(shape: Shape, point: Sequence[float]) -> bool:
    if shape.kind == "box":
        return shape.contains_point(point)
    return polygon_contains(shape.vertices, point)


def shape_distance(a: Shape, b: Shape) -> float:
    """Euclidean minimum distance between two shapes."""
    return math.sqrt(shape_distance_sq(a, b))


def shape_to_payload(shape: Shape) -> list:
    """JSON-friendly ``[kind, [x, y, ...]]`` flat-vertex encoding."""
    flat: list[float] = []
    for vertex in shape.vertices:
        flat.extend(vertex)
    return [shape.kind, len(shape.vertices[0]), flat]


_KIND_CLASSES = {
    "box": BoxShape,
    "point": Point,
    "linestring": LineString,
    "polygon": Polygon,
}


def shape_from_payload(payload: Sequence, *, oid: object = None) -> Shape:
    """Inverse of :func:`shape_to_payload`."""
    kind, dim, flat = payload[0], int(payload[1]), payload[2]
    try:
        cls = _KIND_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown shape kind {kind!r}") from None
    if dim <= 0 or len(flat) % dim:
        raise ValueError(f"{_label(str(kind), oid)}: malformed vertex payload")
    vertices = [tuple(flat[i : i + dim]) for i in range(0, len(flat), dim)]
    if cls is BoxShape:
        return BoxShape(vertices, oid=oid)
    return cls(vertices, oid=oid)
