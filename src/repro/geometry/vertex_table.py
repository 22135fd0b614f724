"""Columnar vertex storage for exact geometries (``VertexTable``).

The filter stage runs on :class:`~repro.geometry.columnar.CoordinateTable`
— fixed-width MBR rows — and is deliberately unaware of exact shapes.
This module adds the refinement-side twin: one flat ``float64`` vertex
buffer plus CSR offsets per object, so a dataset of polygons /
linestrings / points / boxes travels as four numpy arrays:

- ``vertices`` — ``(total_vertices, dim)`` float64, all objects
  concatenated in row order;
- ``offsets`` — ``(n_objects + 1,)`` int64 CSR bounds (object ``i``
  owns rows ``offsets[i]:offsets[i + 1]``);
- ``kinds`` — ``(n_objects,)`` int64 :data:`~repro.geometry.shapes.KIND_CODES`;
- ``ids`` — ``(n_objects,)`` int64 object ids.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.shapes import (
    KIND_CODES,
    KIND_NAMES,
    BoxShape,
    LineString,
    Point,
    Polygon,
    Shape,
)

__all__ = ["VertexTable", "shape_of"]

_KIND_CLASSES = {
    KIND_CODES["box"]: BoxShape,
    KIND_CODES["point"]: Point,
    KIND_CODES["linestring"]: LineString,
    KIND_CODES["polygon"]: Polygon,
}


def shape_of(obj) -> Shape:
    """The object's exact shape, falling back to a box over its MBR.

    The fallback reads ``obj.mbr`` as-is — callers that inflate build
    sides must attach box shapes *before* inflating (``run_algorithm``
    does) so refinement always evaluates original extents.
    """
    geometry = getattr(obj, "geometry", None)
    if isinstance(geometry, Shape):
        return geometry
    mbr = obj.mbr
    return BoxShape(mbr.lo, mbr.hi, oid=getattr(obj, "oid", None))


class VertexTable:
    """Columnar CSR vertex buffer over a sequence of shaped objects."""

    __slots__ = ("vertices", "offsets", "kinds", "ids")

    def __init__(self, vertices, offsets, kinds, ids):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.kinds = np.ascontiguousarray(kinds, dtype=np.int64)
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        if self.vertices.ndim != 2:
            raise ValueError("vertices must be a (total_vertices, dim) array")
        n = len(self.kinds)
        if len(self.offsets) != n + 1 or len(self.ids) != n:
            raise ValueError("offsets/kinds/ids lengths are inconsistent")
        if n and int(self.offsets[-1]) != len(self.vertices):
            raise ValueError("CSR offsets do not cover the vertex buffer")

    # -- construction ---------------------------------------------------
    @classmethod
    def from_objects(cls, objects: Sequence) -> "VertexTable":
        """Build from spatial objects, attaching box shapes where needed."""
        return cls.from_shapes(
            [shape_of(obj) for obj in objects],
            [obj.oid for obj in objects],
        )

    @classmethod
    def from_shapes(
        cls, shapes: Sequence[Shape], ids: Iterable[int]
    ) -> "VertexTable":
        if not shapes:
            return cls(
                np.empty((0, 2), dtype=np.float64),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        dim = shapes[0].dim
        counts = np.fromiter(
            (len(shape.vertices) for shape in shapes), dtype=np.int64, count=len(shapes)
        )
        offsets = np.zeros(len(shapes) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for i, shape in enumerate(shapes):
            if shape.dim != dim:
                raise ValueError(
                    f"mixed dimensionality: shape {i} is {shape.dim}-D, expected {dim}-D"
                )
        coordinates = chain.from_iterable(
            chain.from_iterable(shape.vertices for shape in shapes)
        )
        vertices = np.fromiter(
            coordinates, dtype=np.float64, count=int(offsets[-1]) * dim
        ).reshape(-1, dim)
        kinds = np.fromiter(
            (KIND_CODES[shape.kind] for shape in shapes),
            dtype=np.int64,
            count=len(shapes),
        )
        return cls(vertices, offsets, kinds, np.fromiter(ids, dtype=np.int64))

    # -- basic views ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def nbytes(self) -> int:
        return (
            self.vertices.nbytes
            + self.offsets.nbytes
            + self.kinds.nbytes
            + self.ids.nbytes
        )

    def shape_at(self, index: int) -> Shape:
        lo, hi = int(self.offsets[index]), int(self.offsets[index + 1])
        cls = _KIND_CLASSES[int(self.kinds[index])]
        vertices = [tuple(row) for row in self.vertices[lo:hi]]
        return cls(vertices, oid=int(self.ids[index]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = sorted({KIND_NAMES[int(k)] for k in self.kinds})
        return (
            f"VertexTable({len(self)} objects, {len(self.vertices)} vertices, "
            f"dim={self.dim}, kinds={kinds})"
        )
