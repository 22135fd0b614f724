"""The memory governor: budget ledger, spill store, budgeted-join parity.

Parity is the load-bearing property: a budgeted join must return the
*identical* pair set as the unbudgeted base algorithm at every budget,
while actually spilling (counters prove it) and leaving no spill files
behind.  The fault-injection tests pin the failure contract: a vanished
or truncated spill file surfaces as :class:`SpillError`, and the spill
directory is removed on success *and* on crash.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.config import RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.synthetic import uniform_boxes
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.joins.base import dimensionality
from repro.joins.registry import available, make_algorithm
from repro.memory import (
    BudgetedSpatialJoin,
    MemoryBudget,
    SpillError,
    SpillStore,
    validate_max_bytes,
)
from repro.parallel import ParallelChunkedJoin
from repro.service import SpatialQueryService

EPS = 0.5


@pytest.fixture(scope="module")
def dense_pair():
    """Dense enough (2-6-unit boxes in a 100-unit cube) to yield pairs."""
    return (
        uniform_boxes(400, space=100.0, dim=3, side_range=(2.0, 6.0), seed=21),
        uniform_boxes(300, space=100.0, dim=3, side_range=(2.0, 6.0), seed=22),
    )


def footprint(name, pair, **overrides):
    a, b = pair
    algo = make_algorithm(name, **overrides)
    return algo.estimate_bytes(len(a), len(b), dimensionality(a, b))


class TestMemoryBudget:
    def test_charge_release_peak(self):
        budget = MemoryBudget(100)
        assert budget.free_bytes == 100
        budget.charge(60)
        assert budget.fits(40) and not budget.fits(41)
        budget.charge(40)
        assert budget.peak_bytes == 100
        budget.release(60)
        assert budget.used_bytes == 40
        budget.release(1000)  # clamps at zero, never negative
        assert budget.used_bytes == 0
        assert budget.peak_bytes == 100

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(100).charge(-1)

    @pytest.mark.parametrize("bad", [0, -1, True, False, 1.5, "64", None])
    def test_validate_max_bytes_rejects(self, bad):
        with pytest.raises(ValueError) as excinfo:
            validate_max_bytes(bad)
        assert "max_bytes" in str(excinfo.value)

    def test_validate_names_the_argument(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            validate_max_bytes(0, argument="capacity_bytes")


class TestSpillStore:
    def _objects(self, n, seed):
        return uniform_boxes(n, space=50.0, dim=3, seed=seed)

    def test_round_trip(self):
        a, b = self._objects(20, 1), self._objects(30, 2)
        with SpillStore() as store:
            part = store.write(0, a, b)
            assert part.n_a == 20 and part.n_b == 30
            assert part.file_bytes > 0
            assert store.bytes_written == part.file_bytes
            back_a, back_b = store.read(part)
        assert [(o.oid, o.mbr) for o in back_a] == [(o.oid, o.mbr) for o in a]
        assert [(o.oid, o.mbr) for o in back_b] == [(o.oid, o.mbr) for o in b]

    @pytest.mark.parametrize(
        "dim, n_a, n_b",
        [(1, 6, 4), (2, 5, 9), (3, 7, 0), (3, 0, 7), (2, 0, 0)],
        ids=["1d", "2d", "empty-b", "empty-a", "both-empty"],
    )
    def test_round_trip_is_plain_npy(self, dim, n_a, n_b):
        """Every side spills as two pickle-free ``.npy`` arrays."""
        import numpy as np

        a = uniform_boxes(n_a, space=50.0, dim=dim, seed=11)
        b = uniform_boxes(n_b, space=50.0, dim=dim, seed=12)
        with SpillStore() as store:
            part = store.write(3, a, b)
            with open(part.path, "rb") as handle:
                arrays = [np.load(handle, allow_pickle=False) for _ in range(4)]
            assert [arr.dtype for arr in arrays] == [
                np.float64, np.int64, np.float64, np.int64
            ]
            assert [len(arr) for arr in arrays] == [n_a, n_a, n_b, n_b]
            back_a, back_b = store.read(part)
        assert [(o.oid, o.mbr) for o in back_a] == [(o.oid, o.mbr) for o in a]
        assert [(o.oid, o.mbr) for o in back_b] == [(o.oid, o.mbr) for o in b]

    def test_round_trip_extreme_values(self):
        """Ids past 32 bits, signed zeros and infinite sides survive."""
        a = [
            SpatialObject(2**40 + 1, MBR((-0.0, -1e300), (0.0, 1e300))),
            SpatialObject(-5, MBR((float("-inf"), 2.5), (float("inf"), 2.5))),
        ]
        b = [SpatialObject(0, MBR((1e-300, -3.0), (2e-300, -2.0)))]
        with SpillStore() as store:
            back_a, back_b = store.read(store.write(0, a, b))
        assert [(o.oid, o.mbr) for o in back_a] == [(o.oid, o.mbr) for o in a]
        assert repr(back_a[0].mbr.lo[0]) == "-0.0"
        assert [(o.oid, o.mbr) for o in back_b] == [(o.oid, o.mbr) for o in b]

    def test_read_once_deletes_the_file(self):
        a, b = self._objects(5, 3), self._objects(5, 4)
        with SpillStore() as store:
            part = store.write(7, a, b)
            assert os.path.exists(part.path)
            store.read(part)
            assert not os.path.exists(part.path)
            with pytest.raises(SpillError):
                store.read(part)

    def test_close_removes_directory_even_with_unread_partitions(self):
        a, b = self._objects(5, 5), self._objects(5, 6)
        store = SpillStore()
        store.write(0, a, b)
        directory = store.directory
        assert os.path.isdir(directory)
        store.close()
        assert not os.path.exists(directory)
        store.close()  # idempotent

    def test_missing_file_raises_spill_error(self):
        a, b = self._objects(5, 7), self._objects(5, 8)
        with SpillStore() as store:
            part = store.write(0, a, b)
            os.remove(part.path)
            with pytest.raises(SpillError):
                store.read(part)

    def test_corrupt_file_raises_spill_error(self):
        a, b = self._objects(8, 9), self._objects(8, 10)
        with SpillStore() as store:
            part = store.write(0, a, b)
            with open(part.path, "r+b") as handle:
                handle.truncate(16)
            with pytest.raises(SpillError):
                store.read(part)


class TestBudgetedParity:
    @pytest.mark.parametrize("name", [info.name for info in available()])
    def test_every_algorithm_spills_to_the_same_pairs(self, name, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm(name).join(a, b).pair_set()
        assert baseline, "workload must produce pairs for parity to mean anything"
        estimated = footprint(name, dense_pair)
        for divisor in (2, 4):
            joiner = BudgetedSpatialJoin(name, max_bytes=estimated // divisor)
            result = joiner.join(a, b)
            assert result.pair_set() == baseline
            assert result.stats.extra["spilled_partitions"] > 0
            assert result.stats.extra["unspills"] > 0
            assert result.stats.extra["spill_bytes_written"] > 0
            assert joiner.last_spill_dir is not None
            assert not os.path.exists(joiner.last_spill_dir)

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_backend_parity_under_budget(self, backend, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm("TOUCH", backend=backend).join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair, backend=backend)
        joiner = BudgetedSpatialJoin(
            lambda: make_algorithm("TOUCH", backend=backend),
            max_bytes=estimated // 4,
        )
        result = joiner.join(a, b)
        assert result.pair_set() == baseline
        assert result.stats.extra["spilled_partitions"] > 0

    def test_fitting_join_runs_the_base_directly(self, dense_pair):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        result = BudgetedSpatialJoin("NL", max_bytes=estimated * 10).join(a, b)
        assert result.pair_set() == make_algorithm("NL").join(a, b).pair_set()
        assert result.stats.extra["spilled_partitions"] == 0
        assert result.stats.extra["unspills"] == 0

    def test_empty_inputs(self):
        result = BudgetedSpatialJoin("NL", max_bytes=1).join([], [])
        assert result.pairs == []

    def test_slab_decomposition_parity(self, dense_pair):
        a, b = dense_pair
        baseline = make_algorithm("TOUCH").join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair)
        joiner = BudgetedSpatialJoin("TOUCH", max_bytes=estimated // 3, kind="slabs")
        assert joiner.join(a, b).pair_set() == baseline


class TestSkewRecursion:
    def test_stacked_boxes_recurse_then_overrun(self):
        """Identical boxes cannot be split: recursion bottoms out cleanly.

        Small ``max_partitions``/``max_depth`` keep the degenerate case
        from fanning out combinatorially (every region holds every box).
        """
        box = MBR((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        a = [SpatialObject(i, box) for i in range(12)]
        b = [SpatialObject(i, box) for i in range(12)]
        joiner = BudgetedSpatialJoin(
            "NL", max_bytes=64, max_partitions=2, max_depth=1
        )
        result = joiner.join(a, b)
        assert result.pair_set() == make_algorithm("NL").join(a, b).pair_set()
        assert len(result.pairs) == 12 * 12
        assert result.stats.extra["recursive_repartitions"] > 0
        assert result.stats.extra["budget_overruns"] > 0
        assert not os.path.exists(joiner.last_spill_dir)


class _ExplodingJoin:
    """A base algorithm that dies mid-join, for crash-hygiene tests."""

    name = "Exploding"

    def __init__(self):
        self._inner = make_algorithm("NL")
        self.estimate_bytes = self._inner.estimate_bytes

    def join(self, a, b):
        raise RuntimeError("synthetic mid-join crash")


class TestFaultInjection:
    def test_vanished_spill_file_is_a_spill_error(self, dense_pair, monkeypatch):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        original_read = SpillStore.read

        def vanishing_read(self, partition):
            if os.path.exists(partition.path):
                os.remove(partition.path)
            return original_read(self, partition)

        monkeypatch.setattr(SpillStore, "read", vanishing_read)
        joiner = BudgetedSpatialJoin("NL", max_bytes=estimated // 4)
        with pytest.raises(SpillError):
            joiner.join(a, b)
        assert not os.path.exists(joiner.last_spill_dir)

    def test_base_join_crash_still_cleans_the_spill_dir(self, dense_pair):
        a, b = dense_pair
        joiner = BudgetedSpatialJoin(_ExplodingJoin, max_bytes=1024)
        with pytest.raises(RuntimeError, match="synthetic mid-join crash"):
            joiner.join(a, b)
        assert joiner.last_spill_dir is not None
        assert not os.path.exists(joiner.last_spill_dir)

    def test_custom_spill_root(self, dense_pair, tmp_path):
        a, b = dense_pair
        estimated = footprint("NL", dense_pair)
        joiner = BudgetedSpatialJoin(
            "NL", max_bytes=estimated // 4, spill_root=str(tmp_path)
        )
        baseline = make_algorithm("NL").join(a, b).pair_set()
        assert joiner.join(a, b).pair_set() == baseline
        assert list(tmp_path.iterdir()) == []  # per-join dir removed


class TestRunOptionsPlumbing:
    def test_options_max_bytes_budgets_the_run(self, dense_pair):
        a, b = dense_pair
        plain = run_algorithm("TOUCH", a, b, EPS)
        inflated = [o.inflated(EPS) for o in a]
        estimated = make_algorithm("TOUCH").estimate_bytes(
            len(a), len(b), dimensionality(inflated, b)
        )
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(max_bytes=estimated // 4)
        )
        assert record.result_pairs == plain.result_pairs
        assert record.extra["spilled_partitions"] > 0
        assert record.extra["budget_bytes"] == estimated // 4

    def test_env_budgets_the_run_under_options(self, dense_pair, monkeypatch):
        a, b = dense_pair
        inflated = [o.inflated(EPS) for o in a]
        estimated = make_algorithm("TOUCH").estimate_bytes(
            len(a), len(b), dimensionality(inflated, b)
        )
        monkeypatch.setenv("REPRO_MAX_BYTES", str(estimated // 4))
        record = run_algorithm("TOUCH", a, b, EPS)
        assert record.extra["budget_bytes"] == estimated // 4
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(max_bytes=estimated // 2)
        )
        assert record.extra["budget_bytes"] == estimated // 2

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5])
    def test_run_options_validation(self, bad):
        with pytest.raises(ValueError, match="max_bytes"):
            RunOptions(max_bytes=bad)


class TestMaxBytesValidation:
    """One check and one message behind every entry point of a budget."""

    ENTRY_POINTS = {
        "validate_max_bytes": validate_max_bytes,
        "RunOptions": lambda value: RunOptions(max_bytes=value),
        "ParallelChunkedJoin": lambda value: ParallelChunkedJoin(
            "TOUCH", workers=2, max_bytes=value
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "8"])
    def test_same_message_everywhere(self, entry, bad):
        expected = f"max_bytes must be a positive integer byte count, got {bad!r}"
        with pytest.raises(ValueError) as raised:
            self.ENTRY_POINTS[entry](bad)
        assert str(raised.value) == expected

    def test_names_the_argument(self):
        with pytest.raises(ValueError, match="^budget must be a positive"):
            validate_max_bytes(0, argument="budget")

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_accepts_a_positive_count(self, entry):
        self.ENTRY_POINTS[entry](1)


class TestServiceAcceptance:
    """The PR's acceptance criterion, via the service front door."""

    @pytest.mark.parametrize("algorithm", ["TOUCH", "TwoLayer-500"])
    def test_quarter_budget_probe_parity(self, algorithm, dense_pair):
        a, b = dense_pair
        inflated = [o.inflated(EPS) for o in a]
        baseline = make_algorithm(algorithm).join(inflated, list(b)).pair_set()
        estimated = make_algorithm(algorithm).estimate_bytes(
            len(a), len(b), dimensionality(a, b)
        )
        service = SpatialQueryService(max_bytes=estimated // 4)
        service.register("build", a)
        result = service.probe("build", b, EPS, algorithm=algorithm)
        assert result.pair_set() == baseline
        assert result.parameters["cache"] == "spilled"
        stats = service.stats()
        assert stats["spilled_partitions"] > 0
        assert stats["spilled_joins"] == 1
        assert stats["spill_bytes_written"] > 0
        spill_dir = result.parameters["spill_dir"]
        assert spill_dir and not os.path.exists(spill_dir)

    def test_per_probe_override_wins(self, dense_pair):
        a, b = dense_pair
        estimated = make_algorithm("TOUCH").estimate_bytes(
            len(a), len(b), dimensionality(a, b)
        )
        service = SpatialQueryService()  # no service-wide budget
        service.register("build", a)
        budgeted = service.probe("build", b, EPS, max_bytes=estimated // 4)
        plain = service.probe("build", b, EPS)
        assert budgeted.pair_set() == plain.pair_set()
        assert budgeted.parameters["cache"] == "spilled"
        assert plain.parameters["cache"] in ("cold", "warm")


@pytest.mark.parallel
class TestParallelBudget:
    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    def test_worker_budgets_preserve_parity(self, kind, dense_pair):
        from repro.parallel.engine import ParallelChunkedJoin

        a, b = dense_pair
        baseline = make_algorithm("TOUCH").join(a, b).pair_set()
        estimated = footprint("TOUCH", dense_pair)
        engine = ParallelChunkedJoin(
            "TOUCH", workers=2, kind=kind, max_bytes=estimated // 2
        )
        result = engine.join(a, b)
        assert result.pair_set() == baseline
        assert result.stats.extra["worker_max_bytes"] == estimated // 4
        assert result.stats.extra["spilled_partitions"] > 0
