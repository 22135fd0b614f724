"""Dataset transformations used by experiments and examples."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import check_epsilon

__all__ = ["sample_fraction", "inflate", "reindexed", "concat"]


def sample_fraction(dataset: Dataset, fraction: float, seed: int | None = None) -> Dataset:
    """Uniform random subset with ``fraction`` of the objects (≥ 1)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if len(dataset) == 0:
        raise ValueError(f"cannot sample from dataset {dataset.name!r}: it is empty")
    rng = np.random.default_rng(seed)
    n = max(1, int(len(dataset) * fraction))
    chosen = rng.choice(len(dataset), size=n, replace=False)
    return dataset._subset(
        chosen.tolist(), f"{dataset.name}~{fraction:.0%}", universe=dataset.universe
    )


def inflate(dataset: "Dataset | Sequence", epsilon: float):
    """Every MBR Minkowski-inflated by ``epsilon`` (the ε-reduction of §4).

    A :class:`Dataset` inflates in one array operation over its
    coordinate table, bit-identical to :meth:`MBR.expand` per box; at
    ``epsilon == 0`` the table is shared unchanged.  The result is
    table-backed and keeps the geometries.  Any other object sequence
    becomes a list of :meth:`SpatialObject.inflated` copies, shapes
    carried through.
    """
    epsilon = check_epsilon(epsilon)
    if not isinstance(dataset, Dataset):
        return [obj.inflated(epsilon) for obj in dataset]
    table = dataset.to_table()
    if epsilon:
        dim = table.dim
        cols = np.empty(table.cols.shape)
        np.subtract(table.cols[:dim], epsilon, out=cols[:dim])
        np.add(table.cols[dim:], epsilon, out=cols[dim:])
        table = CoordinateTable.from_columns(cols, table.ids)
    return Dataset.from_table(
        table,
        name=f"{dataset.name}+eps{epsilon:g}",
        universe=dataset.universe.expand(epsilon),
        metadata={**dataset.metadata, "epsilon": epsilon},
        geometries=dataset.geometries(),
    )


def reindexed(dataset: Dataset, start: int = 0) -> Dataset:
    """Table-backed dataset with sequential oids starting at ``start``."""
    table = dataset.to_table()
    return Dataset.from_table(
        CoordinateTable.from_columns(
            table.cols, np.arange(start, start + len(table), dtype=np.int64)
        ),
        name=dataset.name,
        universe=dataset._universe,
        metadata=dataset.metadata,
        geometries=dataset.geometries(),
    )


def concat(first: Dataset, second: Dataset, name: str | None = None) -> Dataset:
    """Table-backed concatenation of two datasets (oids are *not* reassigned)."""
    table_a, table_b = first.to_table(), second.to_table()
    if table_a.dim != table_b.dim:
        raise ValueError(
            f"cannot concatenate {first.name!r} ({table_a.dim}-D) and "
            f"{second.name!r} ({table_b.dim}-D)"
        )
    geometries_a, geometries_b = first.geometries(), second.geometries()
    geometries = None
    if geometries_a is not None or geometries_b is not None:
        geometries = (geometries_a or [None] * len(table_a)) + (
            geometries_b or [None] * len(table_b)
        )
    return Dataset.from_table(
        CoordinateTable.from_columns(
            np.concatenate([table_a.cols, table_b.cols], axis=1),
            np.concatenate([table_a.ids, table_b.ids]),
        ),
        name=name or f"{first.name}+{second.name}",
        universe=first.universe.union(second.universe),
        metadata={"parts": [first.name, second.name]},
        geometries=geometries,
    )
