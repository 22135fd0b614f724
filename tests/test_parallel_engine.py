"""Unit tests for the multiprocess engine: specs, merge, phase timings
and worker crashes (boundary ownership and the one-core chunked
simulation are in ``test_parallel_chunked.py``)."""

import multiprocessing
import pickle

import pytest

from repro.datasets.synthetic import uniform_boxes
from repro.geometry.objects import box_object
from repro.joins.nested_loop import NestedLoopJoin
from repro.joins.registry import ALGORITHMS, AlgorithmSpec, make_algorithm
from repro.parallel.engine import (
    ParallelChunkedJoin,
    WorkerCrashError,
    shutdown_pools,
)
from repro.stats.counters import JoinStatistics
from repro.validation import assert_matches_ground_truth

A = uniform_boxes(60, seed=31, space=60.0, side_range=(0.0, 8.0))
B = uniform_boxes(150, seed=32, space=60.0, side_range=(0.0, 8.0))


class TestAlgorithmSpec:
    def test_round_trips_through_pickle(self):
        spec = AlgorithmSpec.create("TOUCH", fanout=4, backend="object")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        algorithm = clone.make()
        assert algorithm.name == "TOUCH"
        assert algorithm.describe()["fanout"] == 4

    def test_every_registered_algorithm_has_a_spec(self):
        for name in ALGORITHMS:
            algorithm = AlgorithmSpec.create(name).make()
            assert algorithm.name

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            AlgorithmSpec.create("FASTJOIN")

    def test_override_order_is_normalised(self):
        assert AlgorithmSpec.create("TOUCH", b=1, a=2) == AlgorithmSpec.create(
            "TOUCH", a=2, b=1
        )


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelChunkedJoin("TOUCH", workers=0)
        with pytest.raises(ValueError, match="n_chunks"):
            ParallelChunkedJoin("TOUCH", workers=1, n_chunks=0)
        with pytest.raises(ValueError, match="axis"):
            ParallelChunkedJoin("TOUCH", workers=1, axis=-1)
        with pytest.raises(ValueError, match="kind"):
            ParallelChunkedJoin("TOUCH", workers=1, kind="shards")

    @pytest.mark.parametrize("max_bytes", [0, -1, True, 1.5])
    def test_rejects_bad_max_bytes(self, max_bytes):
        with pytest.raises(ValueError, match="positive integer byte count"):
            ParallelChunkedJoin("TOUCH", workers=2, max_bytes=max_bytes)

    def test_rejects_bare_factory(self):
        with pytest.raises(TypeError, match="registry name or an AlgorithmSpec"):
            ParallelChunkedJoin(NestedLoopJoin, workers=1)

    def test_rejects_overrides_with_spec(self):
        with pytest.raises(TypeError, match="registry name"):
            ParallelChunkedJoin(AlgorithmSpec.create("TOUCH"), workers=1, fanout=4)

    def test_name_encodes_configuration(self):
        join = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4)
        assert join.name == "Parallel[TOUCHx4@2w]"
        join = ParallelChunkedJoin("NL", workers=3, kind="tiles")
        assert join.name == "Parallel[NLxauto:tiles@3w]"


class TestExecution:
    def test_empty_inputs(self):
        join = ParallelChunkedJoin("NL", workers=2, n_chunks=2)
        assert join.join([], B).pairs == []
        assert join.join(A, []).pairs == []

    def test_result_matches_ground_truth(self):
        join = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4)
        assert_matches_ground_truth(join.join(A, B), A, B)

    def test_phase_timings_recorded(self):
        result = ParallelChunkedJoin("NL", workers=2, n_chunks=3).join(A, B)
        extra = result.stats.extra
        assert extra["workers"] == 2
        assert extra["n_chunks"] == 3
        assert extra["decompose"] == "slabs"
        assert extra["decompose_seconds"] >= 0.0
        assert extra["merge_seconds"] >= 0.0
        assert len(extra["per_chunk_seconds"]) == 3
        # The fan-out wall covers every chunk's in-worker time at 2
        # workers over 3 chunks (some chunks run back-to-back).
        assert extra["worker_join_seconds"] >= max(extra["per_chunk_seconds"])
        assert extra["worker_seconds_sum"] == pytest.approx(
            sum(extra["per_chunk_seconds"])
        )

    def test_adaptive_chunk_count_used(self):
        result = ParallelChunkedJoin("NL", workers=2).join(A, B)
        assert result.stats.extra["n_chunks"] == 4

    def test_memory_is_per_chunk_peak(self):
        one = ParallelChunkedJoin("TOUCH", workers=1, n_chunks=1).join(A, B)
        many = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=8).join(A, B)
        assert many.stats.memory_bytes <= one.stats.memory_bytes

    def test_boundary_straddler_reported_once(self):
        a = [box_object(0, (4.0, 0.0), (6.0, 1.0))]
        b = [box_object(0, (4.5, 0.0), (5.5, 1.0))]
        result = ParallelChunkedJoin("NL", workers=2, n_chunks=2).join(a, b)
        assert result.pairs == [(0, 0)]
        assert result.stats.duplicates_suppressed >= 1

    def test_repeated_oid_in_a_region_raises(self):
        # Ownership looks pairs' rows up by oid, so an oid must name one
        # object per side.
        a = [box_object(3, (0.0, 0.0), (1.0, 1.0)), box_object(3, (0.5, 0.0), (2.0, 1.0))]
        b = [box_object(0, (0.5, 0.0), (1.0, 1.0))]
        with pytest.raises(ValueError, match="duplicate oid 3"):
            ParallelChunkedJoin("NL", workers=1, n_chunks=2).join(a, b)

    def test_geometry_objects_survive_the_round_trip(self):
        # The worker joins pickled coordinate slices; ids and
        # coordinates must round-trip exactly (float64 in, float64 out).
        a = [box_object(7, (0.1, 0.2), (0.30000000000000004, 0.4))]
        b = [box_object(9, (0.3, 0.2), (0.5, 0.4))]
        result = ParallelChunkedJoin("NL", workers=1, n_chunks=2).join(a, b)
        assert result.pairs == [(7, 9)]


class TestMergeSemantics:
    """Counters add, memory maxes — the documented merge contract."""

    def test_counters_add_and_memory_maxes(self):
        left = JoinStatistics(
            comparisons=10,
            node_tests=3,
            result_pairs=2,
            duplicates_suppressed=1,
            filtered=4,
            replicated_entries=5,
            memory_bytes=1000,
            build_seconds=0.5,
            assign_seconds=0.25,
            join_seconds=0.125,
            total_seconds=1.0,
        )
        right = JoinStatistics(
            comparisons=7,
            node_tests=2,
            result_pairs=3,
            duplicates_suppressed=2,
            filtered=1,
            replicated_entries=2,
            memory_bytes=600,
            build_seconds=0.5,
            assign_seconds=0.25,
            join_seconds=0.125,
            total_seconds=2.0,
        )
        left.merge(right)
        assert left.comparisons == 17
        assert left.node_tests == 5
        assert left.result_pairs == 5
        assert left.duplicates_suppressed == 3
        assert left.filtered == 5
        assert left.replicated_entries == 7
        assert left.memory_bytes == 1000  # max, not sum
        assert left.build_seconds == 1.0
        assert left.assign_seconds == 0.5
        assert left.join_seconds == 0.25
        assert left.total_seconds == 3.0

    def test_engine_merge_matches_manual_sum(self):
        result = ParallelChunkedJoin("NL", workers=2, n_chunks=4).join(A, B)
        # NL compares every A x B pair per chunk; the merged count is the
        # sum over chunks of |chunk_a| * |chunk_b|, never less than the
        # global pair count.
        assert result.stats.comparisons >= len(result.pairs)
        assert result.stats.result_pairs == len(result.pairs)


class TestPoolLifecycle:
    def test_shutdown_pools_is_idempotent(self):
        ParallelChunkedJoin("NL", workers=1, n_chunks=1).join(A, B)
        shutdown_pools()
        shutdown_pools()
        # Pools are recreated transparently after a shutdown.
        result = ParallelChunkedJoin("NL", workers=1, n_chunks=1).join(A, B)
        assert_matches_ground_truth(result, A, B)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the workers must inherit the patched class",
)
def test_touch_engine_builds_no_objects(monkeypatch):
    """A columnar TOUCH engine join stays on tables in parent and workers."""
    from repro.datasets.transform import inflate
    from repro.geometry.columnar import CoordinateTable

    a, b = inflate(A, 1.0), B
    expected = make_algorithm("TOUCH").join(a, b).pair_set()

    def forbidden(*args, **kwargs):
        raise AssertionError("a SpatialObject list was built")

    shutdown_pools()  # fresh workers fork after the patch
    monkeypatch.setattr(CoordinateTable, "to_objects", forbidden)
    try:
        join = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4, start_method="fork")
        assert join.join(a, b).pair_set() == expected
    finally:
        shutdown_pools()


def _kill_worker(task):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parallel
class TestWorkerCrash:
    """Fault injection: a dead worker surfaces, the pool is replaced."""

    def setup_method(self):
        shutdown_pools()

    def teardown_method(self):
        shutdown_pools()

    @staticmethod
    def _datasets():
        a = uniform_boxes(120, space=20.0, side_range=(0.5, 2.0), seed=31)
        b = uniform_boxes(150, space=20.0, side_range=(0.5, 2.0), seed=32)
        return list(a), list(b)

    def test_worker_crash_raises_and_evicts_pool(self, monkeypatch):
        import repro.parallel.engine as engine

        objects_a, objects_b = self._datasets()
        monkeypatch.setattr(engine, "_run_chunk", _kill_worker)
        join = ParallelChunkedJoin("TOUCH", workers=2, n_chunks=4)
        with pytest.raises(WorkerCrashError) as crash:
            join.join(objects_a, objects_b)
        # The error carries the engine's statistics, crash marker set.
        assert crash.value.stats.extra["worker_crashed"] is True
        assert (join.start_method, 2) not in engine._EXECUTORS

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
