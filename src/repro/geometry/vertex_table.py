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

It mirrors ``CoordinateTable``'s shared-memory hand-off exactly
(`to_shared` publishes one segment, workers `shm_slice` just their
rows), which is how the parallel engine ships vertex slices to workers
without pickling coordinate buffers.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.columnar import (
    SharedTableBlock,
    _attach_segment,
    require_shm,
)
from repro.geometry.shapes import (
    KIND_CODES,
    KIND_NAMES,
    BoxShape,
    LineString,
    Point,
    Polygon,
    Shape,
)

__all__ = ["VertexTable", "SharedVertexHandle", "shape_of"]

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

    __slots__ = ("vertices", "offsets", "kinds", "ids", "_shm")

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
        self._shm = None

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

    def to_shapes(self) -> list[Shape]:
        return [self.shape_at(i) for i in range(len(self))]

    def take(self, indices) -> "VertexTable":
        """Materialise a row subset (CSR re-slice) as a private table."""
        indices = np.asarray(indices, dtype=np.int64)
        starts = self.offsets[indices]
        counts = self.offsets[indices + 1] - starts
        new_offsets = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(counts, out=new_offsets[1:])
        if len(indices) == 0:
            gathered = np.empty((0, self.dim), dtype=np.float64)
        else:
            from repro.geometry.columnar import concat_ranges

            _, rows = concat_ranges(starts, counts)
            gathered = self.vertices[rows]
        return VertexTable(
            gathered, new_offsets, self.kinds[indices], self.ids[indices]
        )

    # -- shared-memory hand-off ----------------------------------------
    def to_shared(self, name: str | None = None) -> SharedTableBlock:
        """Publish into one segment: vertex block, then the int64 blocks."""
        require_shm()
        from multiprocessing import shared_memory as _shared_memory

        vertices = np.ascontiguousarray(self.vertices)
        ints = np.concatenate([self.offsets, self.kinds, self.ids])
        total = vertices.nbytes + ints.nbytes
        segment = _shared_memory.SharedMemory(
            name=name, create=True, size=max(total, 1)
        )
        handle = SharedVertexHandle(
            segment.name, len(self), len(self.vertices), self.dim
        )
        buf = segment.buf
        np.frombuffer(buf, dtype=np.float64, count=vertices.size)[...] = (
            vertices.reshape(-1)
        )
        np.frombuffer(
            buf, dtype=np.int64, count=ints.size, offset=vertices.nbytes
        )[...] = ints
        return SharedTableBlock(segment, handle)

    @classmethod
    def from_shared(cls, handle: "SharedVertexHandle") -> "VertexTable":
        """Attach a published table as a zero-copy view (publisher owns it)."""
        require_shm()
        segment = _attach_segment(handle.name)
        rows, total, dim = handle.rows, handle.total_vertices, handle.dim
        vertices = np.frombuffer(
            segment.buf, dtype=np.float64, count=total * dim
        ).reshape(total, dim)
        ints = np.frombuffer(
            segment.buf,
            dtype=np.int64,
            count=3 * rows + 1,
            offset=vertices.nbytes,
        )
        table = cls.__new__(cls)
        table.vertices = vertices
        table.offsets = ints[: rows + 1]
        table.kinds = ints[rows + 1 : 2 * rows + 1]
        table.ids = ints[2 * rows + 1 :]
        table._shm = segment
        return table

    @classmethod
    def shm_slice(cls, handle: "SharedVertexHandle", indices) -> "VertexTable":
        """Copy the ``indices`` objects of a published table and detach."""
        view = cls.from_shared(handle)
        try:
            return view.take(indices)
        finally:
            view.release()

    def release(self) -> None:
        """Drop a :meth:`from_shared` attachment (no-op otherwise)."""
        segment, self._shm = self._shm, None
        if segment is None:
            return
        dim = self.dim
        self.vertices = np.empty((0, dim), dtype=np.float64)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.kinds = np.empty(0, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a caller kept a view alive
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = sorted({KIND_NAMES[int(k)] for k in self.kinds})
        return (
            f"VertexTable({len(self)} objects, {len(self.vertices)} vertices, "
            f"dim={self.dim}, kinds={kinds})"
        )


class SharedVertexHandle:
    """Picklable locator of a vertex table published with ``to_shared()``."""

    __slots__ = ("name", "rows", "total_vertices", "dim")

    def __init__(self, name: str, rows: int, total_vertices: int, dim: int) -> None:
        self.name = name
        self.rows = rows
        self.total_vertices = total_vertices
        self.dim = dim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedVertexHandle({self.name!r}, rows={self.rows}, "
            f"vertices={self.total_vertices}, dim={self.dim})"
        )

    def __getstate__(self):
        return (self.name, self.rows, self.total_vertices, self.dim)

    def __setstate__(self, state) -> None:
        self.name, self.rows, self.total_vertices, self.dim = state

