"""Compiled kernel tier: availability modes and parity pins.

The container running these tests has no numba, which is exactly the
interesting configuration: ``REPRO_COMPILED=force`` runs the tier's
numpy versions (for the TOUCH descent, the columnar probe's own
frontier descent), so every compiled entry point is exercised and
parity-pinned here; the CI
``compiled-parity`` job repeats the same suite with numba installed,
where the jitted kernels must produce the same answers.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.core.local_join import (
    flatten_hierarchy,
    probe_assigned_nodes_columnar,
)
from repro.core.touch import TouchJoin
from repro.datasets import uniform_boxes
from repro.geometry import compiled as compiled_mod
from repro.geometry.columnar import (
    BACKENDS,
    CoordinateTable,
    intersect_pairs,
    resolve_backend,
    sweep_pairs,
)
from repro.geometry.compiled import (
    compiled_available,
    compiled_mode,
    descend_ranges,
    intersect_pairs_compiled,
    sweep_pairs_compiled,
)
from repro.joins.nested_loop import NestedLoopJoin
from repro.joins.registry import make_algorithm
from repro.stats.counters import JoinStatistics


@pytest.fixture
def force_compiled(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "force")


def _random_table(n: int, seed: int, side: float = 1.5) -> CoordinateTable:
    rng = np.random.default_rng(seed)
    lo = rng.random((n, 3)) * 20.0
    hi = lo + rng.random((n, 3)) * side
    return CoordinateTable(np.hstack([lo, hi]), np.arange(n, dtype=np.int64))


def _pairs_set(idx_a, idx_b):
    return set(zip(idx_a.tolist(), idx_b.tolist()))


class TestAvailability:
    def test_mode_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "sometimes")
        with pytest.raises(ValueError, match="REPRO_COMPILED"):
            compiled_mode()

    def test_off_never_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "off")
        assert not compiled_available()

    def test_force_available_without_numba(self, force_compiled):
        assert compiled_available()

    def test_auto_tracks_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED", raising=False)
        assert compiled_available() == compiled_mod.HAVE_NUMBA

    def test_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "force")
        assert resolve_backend("compiled") == "compiled"
        # Partition-replicating algorithms opt out and land on columnar.
        assert resolve_backend("compiled", allow_compiled=False) == "columnar"
        # auto never drifts to compiled: opting in is explicit.
        assert resolve_backend("auto") == "columnar"
        # When the tier reports unavailable the request degrades.
        monkeypatch.setenv("REPRO_COMPILED", "off")
        assert resolve_backend("compiled") == "columnar"


class TestKernelParity:
    """Compiled intersect/sweep == columnar, pairs and candidate counts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_intersect_matches_columnar(self, force_compiled, seed):
        table_a = _random_table(70, seed)
        table_b = _random_table(110, seed + 50)
        got_a, got_b = intersect_pairs_compiled(table_a, table_b)
        want_a, want_b = intersect_pairs(table_a, table_b)
        assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sweep_matches_columnar(self, force_compiled, seed):
        table_a = _random_table(80, seed)
        table_b = _random_table(90, seed + 50)
        got_a, got_b, got_cand = sweep_pairs_compiled(table_a, table_b)
        want_a, want_b, want_cand = sweep_pairs(table_a, table_b)
        assert got_cand == want_cand
        assert _pairs_set(got_a, got_b) == _pairs_set(want_a, want_b)

    def test_sweep_tie_rule(self, force_compiled):
        # Identical lo[0] on both sides: the two-pass tie ownership must
        # count each pair exactly once, like the columnar sweep.
        coords = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]] * 3)
        table_a = CoordinateTable(coords.copy(), np.arange(3, dtype=np.int64))
        table_b = CoordinateTable(coords.copy(), np.arange(3, dtype=np.int64))
        got_a, got_b, got_cand = sweep_pairs_compiled(table_a, table_b)
        want_a, want_b, want_cand = sweep_pairs(table_a, table_b)
        assert len(got_a) == 9 and got_cand == want_cand
        assert _pairs_set(got_a, got_b) == _pairs_set(want_a, want_b)

    def test_empty_sides(self, force_compiled):
        empty = CoordinateTable.from_mbrs([])
        table = _random_table(5, 9)
        for a, b in ((empty, table), (table, empty), (empty, empty)):
            idx_a, idx_b = intersect_pairs_compiled(a, b)
            assert len(idx_a) == 0 and len(idx_b) == 0
            idx_a, idx_b, candidates = sweep_pairs_compiled(a, b)
            assert len(idx_a) == 0 and candidates == 0


class TestRangeDescent:
    """The flattened descent == the uncompiled probe walk, counters included."""

    @staticmethod
    def _build(n_a=300, seed=21):
        objects_a = list(
            uniform_boxes(n_a, space=20.0, side_range=(0.5, 2.0), seed=seed)
        )
        join = TouchJoin(backend="columnar")
        payload = join._build(objects_a, JoinStatistics())
        tree = payload["tree"]
        return tree, payload["table_a"], tree.leaf_slices

    def test_flat_aggregates(self, force_compiled):
        tree, table_a, leaf_slices = self._build()
        flat = flatten_hierarchy(tree, leaf_slices)
        root = flat.index[tree.root]
        # The root subtree spans all of A and aggregates every internal
        # node's child count.
        assert flat.sub_stop[root] - flat.sub_start[root] == len(table_a)
        internal_children = sum(
            len(node.children)
            for node in tree.iter_nodes()
            if not node.is_leaf
        )
        assert int(flat.sub_tests[root]) == internal_children

    @pytest.mark.parametrize("probe_side", [(0.5, 2.0), (6.0, 18.0)])
    def test_descent_matches_columnar_probe(self, force_compiled, probe_side):
        # Fat probes (second parametrization) cover whole subtrees, so
        # the true-hit shortcut fires; counters must not notice.
        tree, table_a, leaf_slices = self._build()
        from repro.core.assignment import assign_table_b

        table_b = CoordinateTable.from_objects(
            list(
                uniform_boxes(
                    200, space=20.0, side_range=probe_side, seed=77
                )
            )
        )
        flat = flatten_hierarchy(tree, leaf_slices)
        stats_ref = JoinStatistics()
        assigned_ref = assign_table_b(tree, table_b, None, stats_ref)
        want = probe_assigned_nodes_columnar(
            flat, table_a, table_b, assigned_ref, stats_ref
        )

        stats_got = JoinStatistics()
        assigned_got = assign_table_b(tree, table_b, None, stats_got)
        got = probe_assigned_nodes_columnar(
            flat, table_a, table_b, assigned_got, stats_got, compiled=True
        )
        assert sorted(got) == sorted(want)
        assert stats_got.comparisons == stats_ref.comparisons
        assert stats_got.node_tests == stats_ref.node_tests

    def test_universe_covering_probe_emits_every_row(self, force_compiled):
        tree, table_a, leaf_slices = self._build(n_a=120, seed=5)
        flat = flatten_hierarchy(tree, leaf_slices)
        universe_lo = table_a.lo.min(axis=0) - 1.0
        universe_hi = table_a.hi.max(axis=0) + 1.0
        table_b = CoordinateTable(
            np.concatenate([universe_lo, universe_hi])[None, :],
            np.array([0], dtype=np.int64),
        )
        root = flat.index[tree.root]
        hit_a, hit_b, comparisons, node_tests = descend_ranges(
            flat,
            table_a,
            table_b,
            np.array([root], dtype=np.int64),
            np.array([0], dtype=np.int64),
        )
        assert sorted(hit_a.tolist()) == list(range(len(table_a)))
        assert hit_b.tolist() == [0] * len(table_a)
        # True hit at the root: the charge equals a full descent of the
        # whole tree for one probe row.
        assert comparisons == len(table_a)
        assert node_tests == int(flat.sub_tests[root])


class TestAlgorithmsCompiled:
    def test_touch_one_shot_pairs(self, force_compiled):
        a = uniform_boxes(400, space=20.0, side_range=(0.5, 2.0), seed=11)
        b = uniform_boxes(600, space=20.0, side_range=(2.0, 10.0), seed=12)
        want = TouchJoin(backend="columnar").join(a, b)
        got = TouchJoin(backend="compiled").join(a, b)
        assert got.stats.extra["backend"] == "compiled"
        assert got.pair_set() == want.pair_set()

    @pytest.mark.parametrize("kernel", ["nested", "sweep"])
    def test_touch_local_kernels_exact(self, force_compiled, kernel):
        a = uniform_boxes(250, space=20.0, side_range=(0.5, 2.0), seed=13)
        b = uniform_boxes(350, space=20.0, side_range=(0.5, 3.0), seed=14)
        want = TouchJoin(backend="columnar", local_kernel=kernel).join(a, b)
        got = TouchJoin(backend="compiled", local_kernel=kernel).join(a, b)
        assert got.pair_set() == want.pair_set()
        assert got.stats.comparisons == want.stats.comparisons

    def test_touch_probe_counters_exact(self, force_compiled):
        a = list(uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=15))
        b = list(uniform_boxes(200, space=20.0, side_range=(4.0, 12.0), seed=16))
        outcomes = {}
        for backend in ("columnar", "compiled"):
            join = TouchJoin(backend=backend)
            index = join.prepare(a)
            result = join.probe(index, b)
            outcomes[backend] = (
                result.pair_set(),
                result.stats.comparisons,
                result.stats.node_tests,
            )
        assert outcomes["columnar"] == outcomes["compiled"]

    def test_nested_loop(self, force_compiled):
        a = uniform_boxes(150, space=20.0, side_range=(0.5, 2.0), seed=17)
        b = uniform_boxes(200, space=20.0, side_range=(0.5, 2.0), seed=18)
        want = NestedLoopJoin(backend="columnar").join(a, b)
        got = NestedLoopJoin(backend="compiled").join(a, b)
        assert got.pair_set() == want.pair_set()
        assert got.stats.comparisons == want.stats.comparisons

    @pytest.mark.parametrize("name", ["PBSM-500", "TwoLayer-500"])
    def test_partitioners_demote_to_columnar(self, force_compiled, name):
        a = uniform_boxes(200, space=20.0, side_range=(0.5, 2.0), seed=19)
        b = uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=20)
        want = make_algorithm(name, backend="columnar").join(a, b)
        got = make_algorithm(name, backend="compiled").join(a, b)
        assert got.pair_set() == want.pair_set()
        assert got.stats.comparisons == want.stats.comparisons
        assert got.stats.extra.get("backend") == "columnar"


class TestEmptySidesEveryBackend:
    """Empty-side joins through every backend (the from_objects fix)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name", ["NL", "TOUCH", "PBSM-500", "TwoLayer-500"]
    )
    def test_empty_sides(self, force_compiled, backend, name):
        objects = list(
            uniform_boxes(40, space=20.0, side_range=(0.5, 2.0), seed=23)
        )
        algorithm = make_algorithm(name, backend=backend)
        assert algorithm.join([], objects).pairs == []
        assert algorithm.join(objects, []).pairs == []
        assert algorithm.join([], []).pairs == []
