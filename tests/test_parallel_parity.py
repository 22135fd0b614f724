"""Deep parity/property suite: every engine returns the same join.

The contract pinned here, for every registered algorithm:

- **pair parity** — sequential and the multiprocess engine at 1/2/4
  workers over slabs and tiles return identical *sorted pair sets* on
  uniform, gaussian (skewed) and clustered data, equal to
  ``brute_force_pairs``;
- **counter parity** — for the same ``(kind, n_chunks)`` configuration
  the engine reports exactly the same summed comparison counters
  independent of the worker count (parallelism may change wall-clock,
  never work); one worker is the one-core simulation of the chunked
  deployment;
- **degenerate inputs** — empty sides, every object inside one slab,
  objects spanning every slab boundary, and zero-extent MBRs sitting
  exactly on slab edges neither lose nor duplicate pairs.

The whole module is marked ``parallel`` so CI can run it standalone
(``pytest -m parallel``) on every supported Python version.
"""

import random

import pytest

from repro.datasets.synthetic import clustered_boxes, gaussian_boxes, uniform_boxes
from repro.geometry.objects import SpatialObject, box_object, point_object
from repro.joins.registry import ALGORITHMS, BACKEND_AWARE, AlgorithmSpec
from repro.parallel.engine import ParallelChunkedJoin
from repro.validation import assert_matches_ground_truth, brute_force_pairs

pytestmark = pytest.mark.parallel

N_CHUNKS = 4
WORKER_STEPS = (1, 2, 4)
KINDS = ("slabs", "tiles")

#: Dense small workloads: every distribution the satellite asks for.
DATASETS = {
    "uniform": (
        uniform_boxes(60, seed=41, space=60.0, side_range=(0.0, 8.0)),
        uniform_boxes(150, seed=42, space=60.0, side_range=(0.0, 8.0)),
    ),
    "gaussian": (  # the skewed distribution (mass piles at the centre)
        gaussian_boxes(60, seed=43, space=60.0, side_range=(0.0, 8.0)),
        gaussian_boxes(150, seed=44, space=60.0, side_range=(0.0, 8.0)),
    ),
    "clustered": (
        clustered_boxes(60, seed=45, space=60.0, n_clusters=3, side_range=(0.0, 8.0)),
        clustered_boxes(150, seed=46, space=60.0, n_clusters=3, side_range=(0.0, 8.0)),
    ),
}


def engine_results(name: str, objects_a, objects_b, backend: str | None = None):
    """Run one algorithm sequentially and through every engine
    configuration; yield ``(label, counter_key, result)``.

    The counter key groups runs whose summed work must be identical:
    one per decomposition kind, whatever the worker count.
    """
    overrides = {"backend": backend} if backend else {}
    spec = AlgorithmSpec.create(name, **overrides)
    yield "sequential", None, spec.make().join(objects_a, objects_b)
    for kind in KINDS:
        for workers in WORKER_STEPS:
            parallel = ParallelChunkedJoin(
                spec, workers=workers, n_chunks=N_CHUNKS, kind=kind
            )
            yield (
                f"parallel:{kind}:{workers}w",
                kind,
                parallel.join(objects_a, objects_b),
            )


def assert_engine_parity(name: str, objects_a, objects_b, backend=None):
    """Pair parity vs sequential; counter parity within a configuration."""
    objects_a, objects_b = list(objects_a), list(objects_b)
    reference_pairs = None
    comparisons_by_key: dict[str, int] = {}
    for label, counter_key, result in engine_results(
        name, objects_a, objects_b, backend
    ):
        if reference_pairs is None:
            reference_pairs = result.sorted_pairs()
            assert sorted(brute_force_pairs(objects_a, objects_b)) == reference_pairs
            continue
        assert result.sorted_pairs() == reference_pairs, (
            f"{name} via {label}: pair set diverges from sequential"
        )
        expected = comparisons_by_key.setdefault(
            counter_key, result.stats.comparisons
        )
        assert result.stats.comparisons == expected, (
            f"{name} via {label}: summed comparisons {result.stats.comparisons} "
            f"!= {expected} of the first {counter_key} engine"
        )


class TestEveryAlgorithm:
    """All registered algorithms × all engines, uniform data."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_engine_parity(self, name):
        objects_a, objects_b = DATASETS["uniform"]
        assert_engine_parity(name, objects_a, objects_b)


class TestEveryBackend:
    """Backend-aware algorithms × both geometry backends × engines."""

    @pytest.mark.parametrize("name", sorted(BACKEND_AWARE))
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_engine_parity(self, name, backend):
        objects_a, objects_b = DATASETS["uniform"]
        assert_engine_parity(name, objects_a, objects_b, backend=backend)

    def test_backends_agree_under_the_parallel_engine(self):
        objects_a, objects_b = DATASETS["uniform"]
        results = {}
        for backend in ("object", "columnar"):
            spec = AlgorithmSpec.create("TOUCH", backend=backend)
            engine = ParallelChunkedJoin(spec, workers=2, n_chunks=N_CHUNKS)
            results[backend] = engine.join(objects_a, objects_b)
        assert (
            results["object"].sorted_pairs() == results["columnar"].sorted_pairs()
        )
        assert (
            results["object"].stats.comparisons
            == results["columnar"].stats.comparisons
        )


class TestDistributions:
    """Skewed and clustered data through the full engine matrix."""

    @pytest.mark.parametrize("distribution", ["gaussian", "clustered"])
    @pytest.mark.parametrize("name", ["TOUCH", "PBSM-100", "NL"])
    def test_engine_parity(self, name, distribution):
        objects_a, objects_b = DATASETS[distribution]
        assert_engine_parity(name, objects_a, objects_b)


class TestDegenerateInputs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("workers", WORKER_STEPS)
    def test_empty_sides(self, kind, workers):
        objects_a, _ = DATASETS["uniform"]
        engine = ParallelChunkedJoin(
            "NL", workers=workers, n_chunks=N_CHUNKS, kind=kind
        )
        assert engine.join([], list(objects_a)).pairs == []
        assert engine.join(list(objects_a), []).pairs == []
        assert engine.join([], []).pairs == []

    def test_all_objects_in_one_slab(self):
        # Everything inside x ∈ [0, 1] of a [0, 10] universe: three of the
        # four slabs receive A objects but no B objects (or vice versa).
        objects_a = [box_object(i, (0.1 * i, 0.0), (0.1 * i + 0.3, 1.0)) for i in range(8)]
        objects_b = [box_object(i, (0.05 * i, 0.0), (0.05 * i + 0.2, 1.0)) for i in range(8)]
        objects_a.append(box_object(99, (9.5, 0.0), (10.0, 1.0)))  # pins the universe
        assert_engine_parity("NL", objects_a, objects_b)

    def test_objects_spanning_every_slab_boundary(self):
        # A objects cover the full axis, so each lands in all four slabs.
        objects_a = [box_object(i, (0.0, float(i)), (10.0, i + 1.5)) for i in range(6)]
        objects_b = [
            box_object(j, (2.5 * (j % 5), 0.0), (2.5 * (j % 5) + 1.0, 10.0))
            for j in range(10)
        ]
        assert_engine_parity("NL", objects_a, objects_b)
        assert_engine_parity("TOUCH", objects_a, objects_b)

    def test_zero_extent_mbrs_on_slab_edges(self):
        # Universe [0, 10] cut into 4 slabs: edges at 2.5, 5.0, 7.5.  A
        # point object sits exactly on each edge (zero extent in every
        # dimension) and must pair with the boxes covering it exactly once.
        objects_a = [box_object(0, (0.0, 0.0), (10.0, 10.0))]
        objects_b = [
            point_object(j, (edge, 5.0)) for j, edge in enumerate([0.0, 2.5, 5.0, 7.5, 10.0])
        ]
        assert_engine_parity("NL", objects_a, objects_b)
        # And point-point coincidence right on an interior edge:
        objects_a = [
            point_object(0, (2.5, 1.0)),
            box_object(1, (0.0, 0.0), (10.0, 10.0)),
        ]
        objects_b = [point_object(0, (2.5, 1.0))]
        assert_engine_parity("NL", objects_a, objects_b)

    def test_single_pair_universe(self):
        objects_a = [box_object(0, (1.0, 1.0), (2.0, 2.0))]
        objects_b = [box_object(0, (1.5, 1.5), (2.5, 2.5))]
        assert_engine_parity("NL", objects_a, objects_b)


class TestRandomised:
    """Property check on adversarial random boxes (many shared corners)."""

    @pytest.mark.parametrize("seed", [7, 99, 2013])
    def test_random_boxes_with_snapped_corners(self, seed):
        rng = random.Random(seed)

        def snapped_box(oid):
            # Snap corners to a coarse lattice so MBRs collide with slab
            # edges and each other far more often than generic floats.
            lo = [rng.randint(0, 20) / 2.0 for _ in range(2)]
            extent = [rng.randint(0, 6) / 2.0 for _ in range(2)]
            hi = [min(c + e, 10.0) for c, e in zip(lo, extent)]
            return SpatialObject(oid, box_object(oid, lo, hi).mbr)

        objects_a = [snapped_box(i) for i in range(40)]
        objects_b = [snapped_box(j) for j in range(90)]
        assert_engine_parity("NL", objects_a, objects_b)
        for workers in (2, 4):
            result = ParallelChunkedJoin(
                "PBSM-100", workers=workers, n_chunks=5, kind="slabs"
            ).join(objects_a, objects_b)
            assert_matches_ground_truth(result, objects_a, objects_b)
