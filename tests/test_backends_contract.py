"""Cross-backend contract: columnar == object, workload by workload.

The columnar backend must return the exact pair set of the object
backend — and, for TOUCH and NL, the exact instrumentation counters —
on every workload of the algorithm contract suite (3-D and 2-D, all
three distributions, with and without ε-inflation, edge cases).
"""

import pytest

from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.datasets.transform import inflate
from repro.geometry.columnar import BACKENDS
from repro.joins.registry import BACKEND_AWARE, make_algorithm

#: Counters that must match bit-for-bit across backends (PBSM excepted
#: on comparisons: its columnar cell join counts nested-loop candidates
#: where the object path sweeps).
_EXACT_COUNTERS = (
    "filtered",
    "replicated_entries",
    "duplicates_suppressed",
    "dedup_checks",
)

PORTED = sorted(BACKEND_AWARE)


def _both(algorithm, dataset_a, dataset_b):
    obj = make_algorithm(algorithm, backend="object").join(dataset_a, dataset_b)
    col = make_algorithm(algorithm, backend="columnar").join(dataset_a, dataset_b)
    assert col.pair_set() == obj.pair_set(), algorithm
    assert len(col.pairs) == len(obj.pairs)  # set-equal AND duplicate-free
    for counter in _EXACT_COUNTERS:
        assert getattr(col.stats, counter) == getattr(obj.stats, counter), counter
    if algorithm in ("TOUCH", "NL"):
        assert col.stats.comparisons == obj.stats.comparisons
    return obj, col


@pytest.mark.parametrize("algorithm", PORTED)
class TestBackendParity3D:
    def test_uniform(self, algorithm, small_uniform_pair):
        _both(algorithm, *small_uniform_pair)

    def test_gaussian(self, algorithm, small_gaussian_pair):
        _both(algorithm, *small_gaussian_pair)

    def test_clustered(self, algorithm, small_clustered_pair):
        _both(algorithm, *small_clustered_pair)

    def test_with_epsilon_inflation(self, algorithm, small_uniform_pair):
        dataset_a, dataset_b = small_uniform_pair
        _both(algorithm, inflate(dataset_a, 25.0), dataset_b)


@pytest.mark.parametrize("algorithm", PORTED)
class TestBackendParity2D:
    def test_uniform_2d(self, algorithm):
        a = uniform_boxes(60, seed=31, dim=2, side_range=(0.0, 40.0))
        b = uniform_boxes(180, seed=32, dim=2, side_range=(0.0, 40.0))
        _both(algorithm, a, b)

    def test_clustered_2d(self, algorithm):
        a = clustered_boxes(60, seed=33, dim=2, n_clusters=5)
        b = clustered_boxes(180, seed=34, dim=2, n_clusters=5)
        _both(algorithm, a, b)


@pytest.mark.parametrize("algorithm", PORTED)
class TestBackendParityEdges:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_inputs(self, algorithm, backend, small_uniform_pair):
        dataset_a, _ = small_uniform_pair
        join = make_algorithm(algorithm, backend=backend).join
        assert join([], []).pairs == []
        assert join(dataset_a, []).pairs == []
        assert join([], dataset_a).pairs == []

    def test_touching_boundaries(self, algorithm):
        from repro.geometry.objects import box_object

        a = [box_object(0, (0, 0), (1, 1)), box_object(1, (5, 5), (6, 6))]
        b = [
            box_object(0, (1, 0), (2, 1)),
            box_object(1, (6, 6), (7, 7)),
            box_object(2, (3, 3), (4, 4)),
        ]
        obj, col = _both(algorithm, a, b)
        assert col.pair_set() == {(0, 0), (1, 1)}

    def test_identical_datasets(self, algorithm):
        data = list(uniform_boxes(40, seed=35, side_range=(0.0, 60.0)))
        _both(algorithm, data, data)

    def test_auto_resolves_to_columnar(self, algorithm, small_uniform_pair):
        """``auto`` runs the columnar path: same backend, pairs and counters."""
        dataset_a, dataset_b = small_uniform_pair
        auto = make_algorithm(algorithm, backend="auto").join(dataset_a, dataset_b)
        col = make_algorithm(algorithm, backend="columnar").join(dataset_a, dataset_b)
        assert auto.stats.extra["backend"] == "columnar"
        assert auto.pair_set() == col.pair_set()
        assert auto.stats.comparisons == col.stats.comparisons


@pytest.mark.parametrize("kernel", ["grid", "sweep", "nested"])
def test_touch_kernels_backend_parity(kernel, small_clustered_pair):
    """Every local-join kernel has a matching columnar twin."""
    from repro.core.touch import TouchJoin

    dataset_a, dataset_b = small_clustered_pair
    obj = TouchJoin(local_kernel=kernel, backend="object").join(dataset_a, dataset_b)
    col = TouchJoin(local_kernel=kernel, backend="columnar").join(dataset_a, dataset_b)
    assert col.pair_set() == obj.pair_set()
    assert col.stats.comparisons == obj.stats.comparisons


@pytest.mark.parametrize("kernel", ["grid", "sweep", "nested"])
def test_touch_fat_probes_backend_parity(kernel):
    """Probe boxes far larger than the build side's leaves.

    Most B objects are assigned to internal nodes and cover whole
    subtrees, the case where a descent could stop early; the counters
    must still match the object backend.
    """
    from repro.core.touch import TouchJoin

    a = uniform_boxes(400, space=20.0, side_range=(0.5, 2.0), seed=11)
    b = uniform_boxes(600, space=20.0, side_range=(2.0, 10.0), seed=12)
    obj = TouchJoin(local_kernel=kernel, backend="object").join(a, b)
    col = TouchJoin(local_kernel=kernel, backend="columnar").join(a, b)
    assert col.pair_set() == obj.pair_set()
    assert col.stats.comparisons == obj.stats.comparisons
    assert col.stats.filtered == obj.stats.filtered


@pytest.mark.parametrize(
    "probe_side", [(0.5, 2.0), (4.0, 12.0)], ids=["thin", "fat"]
)
def test_touch_prepare_probe_counters_backend_parity(probe_side):
    """Build once, probe once: pairs, comparisons and node tests agree."""
    from repro.core.touch import TouchJoin

    a = list(uniform_boxes(300, space=20.0, side_range=(0.5, 2.0), seed=15))
    b = list(uniform_boxes(200, space=20.0, side_range=probe_side, seed=16))
    outcomes = {}
    for backend in ("object", "columnar"):
        join = TouchJoin(backend=backend)
        result = join.probe(join.prepare(a), b)
        outcomes[backend] = (
            result.pair_set(),
            result.stats.comparisons,
            result.stats.node_tests,
        )
    assert outcomes["columnar"] == outcomes["object"]
    assert outcomes["object"][0], "the workload must produce pairs"


def test_backend_recorded_in_stats(small_uniform_pair):
    dataset_a, dataset_b = small_uniform_pair
    result = make_algorithm("TOUCH").join(dataset_a, dataset_b)
    assert result.stats.extra["backend"] == "columnar"  # numpy is installed
    result = make_algorithm("TOUCH", backend="object").join(dataset_a, dataset_b)
    assert result.stats.extra["backend"] == "object"


def test_backend_override_ignored_for_object_only_algorithms():
    """A sweep can pass one backend to every registered algorithm."""
    algorithm = make_algorithm("S3", backend="columnar")
    assert not hasattr(algorithm, "backend")


def test_cli_backend_flag(tmp_path, capsys):
    """`repro-touch run --backend` threads down to every join."""
    import json
    import os

    from repro.bench.cli import main

    os.environ["REPRO_SCALE"] = "smoke"
    try:
        out = tmp_path / "fig13.json"
        assert main(["run", "fig13", "--backend", "object", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["backend"] == "object"
        assert all(row["backend"] == "object" for row in payload["rows"])
        capsys.readouterr()
    finally:
        del os.environ["REPRO_SCALE"]


def test_runner_env_backend(small_uniform_pair, monkeypatch):
    from repro.bench.config import RunOptions
    from repro.bench.runner import run_algorithm

    dataset_a, dataset_b = small_uniform_pair
    monkeypatch.setenv("REPRO_BACKEND", "object")
    record = run_algorithm("TOUCH", dataset_a, dataset_b, 5.0)
    assert record.extra["backend"] == "object"
    # options= and an explicit per-call override both beat the environment.
    record = run_algorithm(
        "TOUCH", dataset_a, dataset_b, 5.0, options=RunOptions(backend="columnar")
    )
    assert record.extra["backend"] == "columnar"
    record = run_algorithm("TOUCH", dataset_a, dataset_b, 5.0, backend="columnar")
    assert record.extra["backend"] == "columnar"


def test_run_experiment_records_env_backend(monkeypatch):
    """Regression: with only ``REPRO_BACKEND`` set every row ran the env
    backend but ``ExperimentResult.backend`` stayed ``None``."""
    from repro.bench.experiments import run_experiment

    monkeypatch.setenv("REPRO_SCALE", "smoke")
    monkeypatch.setenv("REPRO_BACKEND", "object")
    result = run_experiment("fig13")
    assert result.backend == "object"
    assert {row["backend"] for row in result.rows} == {"object"}
