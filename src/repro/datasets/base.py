"""Dataset container shared by generators, IO and the bench harness."""

from __future__ import annotations

from typing import Iterator, Sequence, overload

import numpy as np

from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR, total_mbr
from repro.geometry.objects import SpatialObject

__all__ = ["Dataset"]


class Dataset(Sequence[SpatialObject]):
    """An immutable sequence of spatial objects with provenance metadata.

    Join algorithms accept any sequence of objects; :class:`Dataset` adds
    the universe extent (needed by grid-based algorithms when a fixed
    universe is desired), a human-readable name and generator metadata
    used by the benchmark reports.

    A dataset is stored in one of two ways:

    - **table-backed** (:meth:`from_table`, the synthetic box
      generators, :func:`~repro.datasets.transform.inflate`): a
      :class:`CoordinateTable` plus an optional per-row geometry list.
      The :class:`SpatialObject` view is built on first iteration or
      indexing and cached, so object identity is stable, and
      :meth:`to_table` returns the stored table without copying;
    - **object-built** (the constructor): the objects given, converted
      by :meth:`to_table` on every call.
    """

    def __init__(
        self,
        objects: Sequence[SpatialObject],
        name: str = "dataset",
        universe: MBR | None = None,
        metadata: dict | None = None,
    ) -> None:
        self._objects: list[SpatialObject] | None = list(objects)
        self._table: CoordinateTable | None = None
        self._geometries: list | None = None
        self._view = None
        self.name = name
        self._universe = universe
        self.metadata = dict(metadata or {})

    @classmethod
    def from_table(
        cls,
        table: CoordinateTable,
        name: str = "table",
        universe: MBR | None = None,
        metadata: dict | None = None,
        geometries: Sequence | None = None,
    ) -> "Dataset":
        """A table-backed dataset over ``table`` (no copy).

        ``geometries`` optionally holds one exact-geometry payload (or
        ``None``) per row; the objects built from the table carry them.
        """
        if geometries is not None:
            geometries = list(geometries)
            if len(geometries) != len(table):
                raise ValueError(
                    f"dataset {name!r}: {len(geometries)} geometries for "
                    f"{len(table)} table rows"
                )
            if all(geometry is None for geometry in geometries):
                geometries = None
        dataset = cls((), name=name, universe=universe, metadata=metadata)
        dataset._objects = None
        dataset._table = table
        dataset._geometries = geometries
        return dataset

    @property
    def table_backed(self) -> bool:
        """Whether the coordinate table is the storage (see the class doc)."""
        return self._table is not None

    def _object_list(self) -> list[SpatialObject]:
        """The objects, built from the table once and cached."""
        if self._objects is None:
            self._objects = self._table.to_objects(self._geometries)
        return self._objects

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        if self._table is not None:
            return len(self._table)
        return len(self._objects)

    @overload
    def __getitem__(self, index: int) -> SpatialObject: ...

    @overload
    def __getitem__(self, index: slice) -> "Dataset": ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._subset(index, self.name)
        return self._object_list()[index]

    def __iter__(self) -> Iterator[SpatialObject]:
        return iter(self._object_list())

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, n={len(self)})"

    def _subset(self, rows, name: str, universe: MBR | None = None) -> "Dataset":
        """The ``rows`` (a slice or a sequence of indices) as a new dataset.

        Keeps the storage kind, and shares any objects already built.
        """
        if universe is None:
            universe = self._universe

        def pick(items):
            if isinstance(rows, slice):
                return items[rows]
            return [items[i] for i in rows]

        if self._table is None:
            return Dataset(
                pick(self._objects), name=name, universe=universe,
                metadata=self.metadata,
            )
        index = rows if isinstance(rows, slice) else np.asarray(rows, dtype=np.int64)
        subset = Dataset.from_table(
            self._table.take(index),
            name=name,
            universe=universe,
            metadata=self.metadata,
            geometries=None if self._geometries is None else pick(self._geometries),
        )
        if self._objects is not None:
            subset._objects = pick(self._objects)
        return subset

    # -- spatial extent -----------------------------------------------------
    @property
    def universe(self) -> MBR:
        """Declared universe, or the tight bound of the objects."""
        if self._universe is None:
            if len(self) == 0:
                raise ValueError(f"dataset {self.name!r} is empty and has no universe")
            if self._table is not None:
                lo, hi = self._table.bounds()
                self._universe = MBR.trusted(tuple(lo.tolist()), tuple(hi.tolist()))
            else:
                self._universe = total_mbr(o.mbr for o in self._objects)
        return self._universe

    @property
    def dim(self) -> int:
        """Dimensionality of the objects."""
        if self._table is not None:
            return self._table.dim
        if self._objects:
            return self._objects[0].mbr.dim
        return self.universe.dim

    # -- exact-geometry payloads --------------------------------------------
    def geometries(self) -> list | None:
        """One exact-geometry payload (or ``None``) per object, or ``None``
        when no object carries one."""
        if self._table is not None:
            return self._geometries
        geometries = [obj.geometry for obj in self._objects]
        if all(geometry is None for geometry in geometries):
            return None
        return geometries

    @property
    def has_shapes(self) -> bool:
        """Whether any object carries an exact shape payload.

        ``geometry="exact"`` joins require shape-carrying datasets;
        MBR-only objects inside a shaped dataset refine as solid boxes
        over their MBR.  Read from the cached :meth:`refine_view`.
        """
        return self.geometries() is not None and self.refine_view().has_shapes

    def refine_view(self):
        """The dataset's refine view (``RefineView``), built once and cached.

        Row-indexed vertex, MBR, interior-rectangle and segment columns
        plus an oid lookup: what the exact refine stage reads.  Objects
        without a shape refine as solid boxes over their MBR.
        """
        if self._view is None:
            from repro.refine.pipeline import RefineView

            self._view = RefineView(self._object_list(), self.name)
        return self._view

    def vertex_table(self):
        """The dataset's shapes in columnar CSR form (``VertexTable``).

        MBR-only objects contribute box shapes over their MBR; the
        refinement-phase twin of :meth:`to_table`, read from the cached
        :meth:`refine_view`.
        """
        return self.refine_view().table

    # -- columnar conversion ------------------------------------------------
    def to_table(self) -> CoordinateTable:
        """The dataset as a contiguous coordinate table (columnar form).

        Ids are the object ``oid``\\ s; coordinates round-trip exactly.
        A table-backed dataset returns its stored table (no copy).
        Exact geometries (refinement shapes) are not carried — the table
        is the filtering-phase view of the data (see :meth:`vertex_table`
        for the refinement-phase twin).
        """
        if self._table is not None:
            return self._table
        return CoordinateTable.from_objects(self._objects)

    # -- derivation -----------------------------------------------------------
    def renamed(self, name: str) -> "Dataset":
        """Same objects under a different name."""
        return self._subset(slice(None), name)

    def take(self, n: int) -> "Dataset":
        """First ``n`` objects (used by the density sweeps)."""
        return self._subset(slice(None, n), f"{self.name}[:{n}]")
