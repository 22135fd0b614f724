"""Cheap dataset sketches: the statistics the cost model runs on.

A :class:`DatasetSketch` condenses a dataset into a few hundred bytes —
cardinality, extent, per-dimension mean MBR sides, density, shape
fraction and small per-dimension center histograms — computed in one
columnar pass over the ``(N, 2D)`` coordinate block.  Sketches are
cached process-wide
by dataset fingerprint, so the optimizer prices a repeatedly-probed
dataset once, not per query.

The histogram bins drive the skew metric that picks the parallel
decompose kind; everything else feeds the per-algorithm cost formulas in
:mod:`repro.optimizer.cost`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.geometry.columnar import DEFAULT_DIM, CoordinateTable
from repro.geometry.objects import SpatialObject

__all__ = [
    "DatasetSketch",
    "sketch_dataset",
    "sketch_table",
    "clear_sketch_cache",
    "HIST_BINS",
]

#: Bins per dimension of the center histograms.  16 is enough to expose
#: cluster-level skew (the decompose heuristic only needs "is one slab
#: much fuller than the mean") while keeping a sketch trivially small.
HIST_BINS = 16

#: Sketches retained in the process-wide fingerprint cache.
_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class DatasetSketch:
    """Summary statistics of one dataset, keyed by its fingerprint.

    Attributes
    ----------
    n, dim:
        Cardinality and spatial dimensionality.
    lo, hi:
        Tight per-dimension bounds over all MBRs.
    mean_sides:
        Per-dimension mean MBR side length (the Aref & Samet input).
    density:
        Total MBR volume over the extent volume — the expected number of
        datasets objects covering a random point (degenerate dimensions
        are skipped, matching the selectivity model).
    shape_fraction:
        Fraction of objects carrying an exact refinement shape.
    histograms:
        Per-dimension counts of MBR centers over :data:`HIST_BINS`
        equal-width bins spanning ``[lo[d], hi[d]]``.
    fingerprint:
        The :func:`~repro.service.fingerprint.dataset_fingerprint` the
        sketch was computed from (cache key and provenance).
    """

    n: int
    dim: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    mean_sides: tuple[float, ...]
    density: float
    shape_fraction: float
    histograms: tuple[tuple[int, ...], ...]
    fingerprint: str

    def extents(self) -> tuple[float, ...]:
        """Per-dimension extent of the bounding box."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def skew(self) -> float:
        """Max histogram-bin occupancy relative to the uniform mean.

        1.0 means perfectly even; a clustered dataset where one of the
        :data:`HIST_BINS` bins holds half the centers scores ≈ 8.  The
        parallel engine's decompose heuristic switches from slabs to
        tiles above :data:`repro.optimizer.cost.SKEW_TILES_THRESHOLD`.
        """
        if self.n == 0:
            return 1.0
        expected = self.n / HIST_BINS
        worst = max((max(h) for h in self.histograms), default=0)
        return worst / expected if expected > 0 else 1.0

    def as_dict(self) -> dict:
        """Exact JSON-safe view (round-trips through :meth:`from_dict`)."""
        return {
            "n": self.n,
            "dim": self.dim,
            "lo": list(self.lo),
            "hi": list(self.hi),
            "mean_sides": list(self.mean_sides),
            "density": self.density,
            "shape_fraction": self.shape_fraction,
            "histograms": [list(h) for h in self.histograms],
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DatasetSketch":
        """Rebuild a sketch from :meth:`as_dict` output (wire payloads)."""
        return cls(
            n=int(payload["n"]),
            dim=int(payload["dim"]),
            lo=tuple(float(v) for v in payload["lo"]),
            hi=tuple(float(v) for v in payload["hi"]),
            mean_sides=tuple(float(v) for v in payload["mean_sides"]),
            density=float(payload["density"]),
            shape_fraction=float(payload["shape_fraction"]),
            histograms=tuple(
                tuple(int(c) for c in h) for h in payload["histograms"]
            ),
            fingerprint=str(payload["fingerprint"]),
        )


_cache_lock = threading.Lock()
_sketch_cache: "OrderedDict[str, DatasetSketch]" = OrderedDict()


def clear_sketch_cache() -> None:
    """Drop every cached sketch (tests and long-lived servers)."""
    with _cache_lock:
        _sketch_cache.clear()


def _shape_fraction(objects: Sequence[SpatialObject]) -> float:
    from repro.geometry.shapes import Shape

    if not objects:
        return 0.0
    shaped = sum(1 for obj in objects if isinstance(obj.geometry, Shape))
    return shaped / len(objects)


def _empty_sketch(dim: int, fingerprint: str) -> DatasetSketch:
    return DatasetSketch(
        n=0,
        dim=dim,
        lo=(0.0,) * dim,
        hi=(0.0,) * dim,
        mean_sides=(0.0,) * dim,
        density=0.0,
        shape_fraction=0.0,
        histograms=((0,) * HIST_BINS,) * dim,
        fingerprint=fingerprint,
    )


def _sketch_columnar(
    table: CoordinateTable, shape_fraction: float, fingerprint: str
) -> DatasetSketch:
    dim = table.dim
    lo_all = table.lo.min(axis=0)
    hi_all = table.hi.max(axis=0)
    sides = table.hi - table.lo
    mean_sides = sides.mean(axis=0)
    extents = hi_all - lo_all
    live = extents > 0
    if live.any():
        volumes = np.prod(sides[:, live], axis=1)
        density = float(volumes.sum() / np.prod(extents[live]))
    else:
        density = 0.0
    centers = (table.lo + table.hi) * 0.5
    histograms = []
    for d in range(dim):
        if extents[d] > 0:
            counts, _ = np.histogram(
                centers[:, d], bins=HIST_BINS, range=(lo_all[d], hi_all[d])
            )
        else:
            counts = np.zeros(HIST_BINS, dtype=np.int64)
            counts[0] = len(table)
        histograms.append(tuple(int(c) for c in counts))
    return DatasetSketch(
        n=len(table),
        dim=dim,
        lo=tuple(float(v) for v in lo_all),
        hi=tuple(float(v) for v in hi_all),
        mean_sides=tuple(float(v) for v in mean_sides),
        density=density,
        shape_fraction=shape_fraction,
        histograms=tuple(histograms),
        fingerprint=fingerprint,
    )


def sketch_table(table: CoordinateTable) -> DatasetSketch:
    """Sketch a raw coordinate table (the MBR-batch probe fast path).

    Tables have no object identities, so the cache key is a digest of
    the coordinate block itself (prefixed to keep it disjoint from
    object-dataset fingerprints).
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(table.lo, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(table.hi, dtype=np.float64).tobytes())
    fingerprint = "table:" + digest.hexdigest()
    with _cache_lock:
        cached = _sketch_cache.get(fingerprint)
        if cached is not None:
            _sketch_cache.move_to_end(fingerprint)
            return cached
    if len(table) == 0:
        sketch = _empty_sketch(table.dim, fingerprint)
    else:
        sketch = _sketch_columnar(table, 0.0, fingerprint)
    with _cache_lock:
        _sketch_cache[fingerprint] = sketch
        while len(_sketch_cache) > _CACHE_CAPACITY:
            _sketch_cache.popitem(last=False)
    return sketch


def sketch_dataset(
    dataset: Union[Sequence[SpatialObject], "object"],
    fingerprint: str | None = None,
) -> DatasetSketch:
    """Sketch a dataset (or ``Dataset``), cached by fingerprint.

    ``fingerprint`` may be passed by callers that already computed it
    (the query service keys its index cache on the same digest); when
    omitted it is computed here, sharing one columnar conversion with
    the stats pass so a cold sketch scans the coordinates once, not
    twice.  Hits return the cached sketch without touching the
    coordinates again.  A raw :class:`CoordinateTable` routes through
    :func:`sketch_table`.
    """
    from repro.service.fingerprint import dataset_fingerprint

    if isinstance(dataset, CoordinateTable):
        return sketch_table(dataset)
    objects = dataset if isinstance(dataset, (list, tuple)) else list(dataset)
    table = None
    if fingerprint is None:
        if objects:
            table = CoordinateTable.from_objects(objects)
        fingerprint = dataset_fingerprint(objects, table=table)
    with _cache_lock:
        cached = _sketch_cache.get(fingerprint)
        if cached is not None:
            _sketch_cache.move_to_end(fingerprint)
            return cached
    if not objects:
        sketch = _empty_sketch(DEFAULT_DIM, fingerprint)
    else:
        if table is None:
            table = CoordinateTable.from_objects(objects)
        sketch = _sketch_columnar(table, _shape_fraction(objects), fingerprint)
    with _cache_lock:
        _sketch_cache[fingerprint] = sketch
        while len(_sketch_cache) > _CACHE_CAPACITY:
            _sketch_cache.popitem(last=False)
    return sketch
