"""Disk spill store for over-budget join partitions.

When the memory governor (:mod:`repro.memory.budgeted`) decides a
partition does not fit the budget, its row-slices — the coordinates and
ids of both datasets' members — are written to a private temporary
directory as ``.npy`` files (one file per partition, two arrays per
side) and the in-memory member lists are dropped.  Reading a partition
back **consumes** it: the file is deleted as soon as the rows are
rematerialised, so a store holds each spilled partition at most once
and the directory empties as the join drains its spill queue.

Failure handling follows the PR 7 shared-memory hygiene rules: any I/O
problem while reading a partition back — the file deleted underneath
us, truncation, corruption — surfaces as :class:`SpillError` naming the
partition and path (never a bare ``FileNotFoundError``), and
:meth:`SpillStore.close` removes the directory unconditionally, so both
successful joins and crashes leave no spill files on disk.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject

__all__ = ["SpillError", "SpilledPartition", "SpillStore"]


class SpillError(RuntimeError):
    """A spilled partition could not be written or read back."""


class SpilledPartition:
    """Handle to one partition resident on disk instead of in memory."""

    __slots__ = ("pid", "path", "n_a", "n_b", "file_bytes")

    def __init__(self, pid: int, path: str, n_a: int, n_b: int, file_bytes: int) -> None:
        self.pid = pid
        self.path = path
        self.n_a = n_a
        self.n_b = n_b
        self.file_bytes = file_bytes

    def __repr__(self) -> str:
        return (
            f"SpilledPartition(pid={self.pid}, n_a={self.n_a}, "
            f"n_b={self.n_b}, file_bytes={self.file_bytes})"
        )


def _pack(objects: list[SpatialObject]):
    """Rows of one dataset side as (coords, ids) arrays."""
    dim = objects[0].mbr.dim if objects else 0
    coords = np.empty((len(objects), 2 * dim), dtype=np.float64)
    ids = np.empty(len(objects), dtype=np.int64)
    for row, obj in enumerate(objects):
        coords[row, :dim] = obj.mbr.lo
        coords[row, dim:] = obj.mbr.hi
        ids[row] = obj.oid
    return coords, ids


def _unpack(coords, ids) -> list[SpatialObject]:
    dim = coords.shape[1] // 2
    return [
        SpatialObject(int(oid), MBR(tuple(row[:dim]), tuple(row[dim:])))
        for oid, row in zip(ids.tolist(), coords.tolist())
    ]


class SpillStore:
    """Owns one temporary directory of spilled partition row-slices.

    Use as a context manager (or call :meth:`close` in a ``finally``):
    the directory is created lazily in the constructor and removed —
    with every remaining file — on close, success or crash alike.
    """

    def __init__(self, root: str | None = None) -> None:
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=root)
        self.bytes_written = 0
        self.bytes_read = 0
        self.partitions_written = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Remove the spill directory and everything in it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- spill / unspill -----------------------------------------------
    def write(
        self,
        pid: int,
        objects_a: list[SpatialObject],
        objects_b: list[SpatialObject],
    ) -> SpilledPartition:
        """Spill one partition's rows; the caller drops its references."""
        if self._closed:
            raise SpillError("spill store is closed")
        path = os.path.join(self.directory, f"part{pid:05d}.npy")
        try:
            with open(path, "wb") as fh:
                for side in (objects_a, objects_b):
                    coords, ids = _pack(side)
                    np.save(fh, coords, allow_pickle=False)
                    np.save(fh, ids, allow_pickle=False)
            file_bytes = os.path.getsize(path)
        except OSError as exc:
            raise SpillError(f"failed to spill partition {pid} to {path}: {exc}") from exc
        self.bytes_written += file_bytes
        self.partitions_written += 1
        return SpilledPartition(pid, path, len(objects_a), len(objects_b), file_bytes)

    def read(
        self, partition: SpilledPartition
    ) -> tuple[list[SpatialObject], list[SpatialObject]]:
        """Unspill one partition — and delete its file (read-once)."""
        try:
            with open(partition.path, "rb") as fh:
                sides = []
                for _ in range(2):
                    coords = np.load(fh, allow_pickle=False)
                    ids = np.load(fh, allow_pickle=False)
                    sides.append(_unpack(coords, ids))
                objects_a, objects_b = sides
        except (OSError, ValueError, EOFError) as exc:
            raise SpillError(
                f"failed to read spilled partition {partition.pid} back from "
                f"{partition.path}: {exc}"
            ) from exc
        if len(objects_a) != partition.n_a or len(objects_b) != partition.n_b:
            raise SpillError(
                f"spilled partition {partition.pid} at {partition.path} is "
                f"truncated: expected {partition.n_a}x{partition.n_b} rows, "
                f"got {len(objects_a)}x{len(objects_b)}"
            )
        self.bytes_read += partition.file_bytes
        try:
            os.unlink(partition.path)
        except OSError:
            pass
        return objects_a, objects_b
