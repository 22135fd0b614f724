"""Deterministic dataset fingerprints for index-cache keys.

A fingerprint digests exactly what a built index depends on: the object
ids and the MBR coordinates, in dataset order.  Two datasets with the
same objects in the same order share a fingerprint regardless of how
they were constructed (generator, IO round-trip, ``Dataset`` wrapper or
plain list): the ids and coordinates are digested as the raw int64 and
float64 bytes of the dataset's :class:`CoordinateTable`.

Exact shape payloads are digested too (position, kind code, vertex
count, vertices — struct-packed), so a
shape-carrying dataset never shares cache entries with the MBR-only
dataset of the same boxes; datasets without any shapes digest exactly
as before the filter-refine split, keeping their fingerprints stable.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

from repro.geometry.columnar import CoordinateTable
from repro.geometry.objects import SpatialObject

__all__ = ["dataset_fingerprint"]


def dataset_fingerprint(
    dataset: Sequence[SpatialObject], table=None
) -> str:
    """Hex digest identifying a dataset's ids + coordinates.

    O(N) — the service computes it once per registered dataset (and per
    ad-hoc query dataset), not per probe.  ``table`` may be the
    dataset's already-materialised :class:`CoordinateTable` — callers
    that hold one (the optimizer's sketch pass) save the conversion;
    the digest bytes are identical either way.
    """
    digest = hashlib.sha256()
    objects = dataset if isinstance(dataset, (list, tuple)) else list(dataset)
    if not objects:
        return digest.hexdigest()
    if table is None:
        table = CoordinateTable.from_objects(objects)
    digest.update(table.ids.tobytes())
    digest.update(table.coords.tobytes())
    _digest_shapes(digest, objects)
    return digest.hexdigest()


def _digest_shapes(digest, objects) -> None:
    """Fold exact shape payloads into the digest (no-op without shapes).

    Little-endian struct records; shaped positions are encoded
    explicitly so "shape on object 0" and "shape on object 1" never
    collide.
    """
    from repro.geometry.shapes import KIND_CODES, Shape

    header_pack = struct.Struct("<qqq").pack
    for position, obj in enumerate(objects):
        shape = obj.geometry
        if not isinstance(shape, Shape):
            continue
        vertices = shape.vertices
        digest.update(
            header_pack(position, KIND_CODES[shape.kind], len(vertices))
        )
        row_pack = struct.Struct(f"<{len(vertices[0])}d").pack
        for vertex in vertices:
            digest.update(row_pack(*vertex))
