"""Shared-memory coordinate-table hand-off: lifecycle and parity.

The parallel engine publishes each dataset once as a
``multiprocessing.shared_memory`` block and ships only row indices to
workers (``tests/test_parallel_parity.py`` pins the pair parity against
the pickle path engine-wide).  These tests pin the primitive layer:
publish / attach / slice round-trips, handle pickling, the
unlink-on-close lifecycle that must never strand ``/dev/shm`` segments,
and the engine's crash behaviour (a killed worker surfaces as
:class:`~repro.parallel.engine.WorkerCrashError`, segments still freed).
"""

from __future__ import annotations

import glob
import pickle

import numpy as np
import pytest

from repro.datasets import uniform_boxes
from repro.geometry.columnar import (
    HAVE_SHM,
    CoordinateTable,
    SharedTableHandle,
)
from repro.joins.registry import make_algorithm
from repro.parallel.engine import (
    ParallelChunkedJoin,
    WorkerCrashError,
    shutdown_pools,
)

pytestmark = pytest.mark.skipif(
    not HAVE_SHM, reason="multiprocessing.shared_memory unavailable"
)


def _segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _table(n: int, seed: int = 0) -> CoordinateTable:
    rng = np.random.default_rng(seed)
    lo = rng.random((n, 3)) * 10.0
    hi = lo + rng.random((n, 3))
    return CoordinateTable(
        np.hstack([lo, hi]), np.arange(n, dtype=np.int64)
    )


class TestSharedBlockLifecycle:
    def test_publish_attach_roundtrip(self):
        table = _table(32)
        block = table.to_shared()
        try:
            view = CoordinateTable.from_shared(block.handle)
            assert np.array_equal(view.coords, table.coords)
            assert np.array_equal(view.ids, table.ids)
            view.release()
        finally:
            block.close(unlink=True)

    def test_shm_slice_copies_and_detaches(self):
        table = _table(16, seed=1)
        before = _segments()
        with table.to_shared() as block:
            rows = np.array([3, 1, 7], dtype=np.int64)
            sub = table.take(rows)
            sliced = CoordinateTable.shm_slice(block.handle, rows)
            assert np.array_equal(sliced.coords, sub.coords)
            assert np.array_equal(sliced.ids, sub.ids)
            # The slice owns private copies: mutating it cannot touch
            # the published block.
            sliced.coords[:] = -1.0
            again = CoordinateTable.shm_slice(block.handle, rows)
            assert np.array_equal(again.coords, sub.coords)
        assert _segments() == before

    def test_close_unlinks_and_is_idempotent(self):
        before = _segments()
        block = _table(8).to_shared()
        assert len(_segments()) == len(before) + 1
        block.close(unlink=True)
        assert _segments() == before
        block.close(unlink=True)  # second close must be a no-op

    def test_handle_pickles(self):
        table = _table(4, seed=2)
        with table.to_shared() as block:
            handle = pickle.loads(pickle.dumps(block.handle))
            assert isinstance(handle, SharedTableHandle)
            assert (handle.name, handle.rows, handle.dim) == (
                block.handle.name,
                block.handle.rows,
                block.handle.dim,
            )
            view = CoordinateTable.from_shared(handle)
            assert np.array_equal(view.ids, table.ids)
            view.release()

    def test_empty_table_publishes(self):
        empty = CoordinateTable.from_mbrs([])
        with empty.to_shared() as block:
            view = CoordinateTable.shm_slice(
                block.handle, np.empty(0, dtype=np.int64)
            )
            assert len(view) == 0 and view.dim == empty.dim


@pytest.mark.parallel
class TestEngineShmLifecycle:
    """Fault injection: the parent must clean up whatever workers do."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    @staticmethod
    def _datasets():
        a = uniform_boxes(120, space=20.0, side_range=(0.5, 2.0), seed=31)
        b = uniform_boxes(150, space=20.0, side_range=(0.5, 2.0), seed=32)
        return list(a), list(b)

    def test_worker_crash_raises_and_frees_segments(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        monkeypatch.setattr(engine, "_run_chunk", _kill_worker)
        before = _segments()
        join = ParallelChunkedJoin(
            "TOUCH", workers=2, n_chunks=4, handoff="shm"
        )
        with pytest.raises(WorkerCrashError) as crash:
            join.join(objects_a, objects_b)
        # The error carries the engine's statistics: handoff mode and
        # the crash marker are visible to callers.
        stats = crash.value.stats
        assert stats.extra["worker_crashed"] is True
        assert stats.extra["handoff"] == "shm"
        assert stats.extra["pickled_coord_bytes"] == 0
        assert _segments() == before

    def test_engine_recovers_after_crash(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        expected = make_algorithm("TOUCH").join(objects_a, objects_b)
        original = engine._run_chunk
        monkeypatch.setattr(engine, "_run_chunk", _kill_worker)
        with pytest.raises(WorkerCrashError):
            ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4).join(
                objects_a, objects_b
            )
        monkeypatch.setattr(engine, "_run_chunk", original)
        result = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4).join(
            objects_a, objects_b
        )
        assert result.pair_set() == expected.pair_set()

    def test_normal_run_leaves_no_segments(self):
        objects_a, objects_b = self._datasets()
        before = _segments()
        result = ParallelChunkedJoin(
            "TOUCH", workers=2, n_chunks=4, handoff="shm"
        ).join(objects_a, objects_b)
        assert _segments() == before
        assert result.stats.extra["pickled_coord_bytes"] == 0

    def test_forced_shm_without_support_raises(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        monkeypatch.setattr(engine, "HAVE_SHM", False)
        join = ParallelChunkedJoin("TOUCH", workers=1, handoff="shm")
        with pytest.raises(RuntimeError, match="shm"):
            join.join(objects_a, objects_b)
        # auto degrades instead of raising
        auto = ParallelChunkedJoin("TOUCH", workers=1, n_chunks=2).join(
            objects_a, objects_b
        )
        assert auto.stats.extra["handoff"] == "pickle"


def _kill_worker(task):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)
