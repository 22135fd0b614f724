"""Duplicate-freedom property suite on adversarial boundary data.

Every multiple-assignment path in the library (PBSM cells, grid local
joins, the chunked/parallel region cut, the two-layer mini-joins) must
return a *duplicate-free pair multiset* — each intersecting pair exactly
once — even when the data conspires to sit exactly on the partition
boundaries.  Three adversarial workloads probe that:

- **corner points** — zero-extent MBRs placed exactly on cell/tile
  corners of the canonical grid configurations (multiples of 2, 2.5 and
  10 space units, i.e. PBSM/TwoLayer cell edges and slab/tile edges of
  a 4-way decomposition);
- **shared-edge lattice** — axis-aligned unit boxes tiling the plane so
  every box shares full edges (and corners) with its neighbours;
- **row spanners** — objects spanning whole rows of tiles/slabs, so
  each is replicated into every partition along an axis.

Checked for every registered algorithm, both geometry backends where
supported, sequentially and through the multiprocess engine at one
worker (the one-core chunked simulation, at 4 and 9 regions) and two.
"""

import pytest

from repro.geometry.objects import box_object, point_object
from repro.joins.registry import ALGORITHMS, BACKEND_AWARE, AlgorithmSpec
from repro.parallel.engine import ParallelChunkedJoin
from repro.validation import assert_matches_ground_truth


def corner_points():
    """Zero-extent MBRs on the lattice corners of every grid in play."""
    objects_a = [box_object(0, (0.0, 0.0), (10.0, 10.0))]
    objects_a += [
        box_object(1 + i, (2.5 * i, 0.0), (2.5 * i + 2.5, 10.0)) for i in range(4)
    ]
    # Corners at multiples of 2.5 (slab/tile edges of a 4-way cut over
    # [0, 10]) and of 2.0 (scaled PBSM/TwoLayer cell edges).
    objects_b = [
        point_object(100 + 10 * i + j, (2.5 * i, 2.5 * j))
        for i in range(5)
        for j in range(5)
    ]
    objects_b += [
        point_object(200 + 10 * i + j, (2.0 * i, 2.0 * j))
        for i in range(6)
        for j in range(6)
    ]
    return objects_a, objects_b


def shared_edge_lattice():
    """Unit boxes tiling [0, 6]^2: every interior edge is shared twice."""
    objects_a = [
        box_object(10 * i + j, (float(i), float(j)), (i + 1.0, j + 1.0))
        for i in range(6)
        for j in range(6)
    ]
    objects_b = [
        box_object(10 * i + j, (float(i), float(j)), (i + 1.0, j + 1.0))
        for i in range(1, 5)
        for j in range(1, 5)
    ]
    return objects_a, objects_b


def row_spanners():
    """Objects spanning whole rows of tiles against column spanners."""
    objects_a = [
        box_object(i, (0.0, 1.5 * i), (12.0, 1.5 * i + 2.0)) for i in range(8)
    ]
    objects_b = [
        box_object(j, (1.5 * j, 0.0), (1.5 * j + 2.0, 12.0)) for j in range(8)
    ]
    objects_b.append(box_object(99, (0.0, 0.0), (12.0, 12.0)))  # spans everything
    return objects_a, objects_b


WORKLOADS = {
    "corner_points": corner_points,
    "shared_edge_lattice": shared_edge_lattice,
    "row_spanners": row_spanners,
}

#: Algorithms driven through the multiprocess engines (a representative
#: slice: the replaced machinery, its replacement, the paper's champion
#: and the ground-truth baseline) — every algorithm already runs through
#: the full engine matrix in tests/test_parallel_parity.py.
ENGINE_ALGORITHMS = ("NL", "PBSM-500", "TwoLayer-500", "TOUCH")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestSequentialDuplicateFreedom:
    def test_exact_multiset(self, algorithm, workload):
        objects_a, objects_b = WORKLOADS[workload]()
        result = AlgorithmSpec.create(algorithm).make().join(objects_a, objects_b)
        # assert_matches_ground_truth includes assert_no_duplicates.
        assert_matches_ground_truth(result, objects_a, objects_b)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("backend", ["object", "columnar"])
@pytest.mark.parametrize("algorithm", sorted(BACKEND_AWARE))
class TestBackendDuplicateFreedom:
    def test_exact_multiset(self, algorithm, backend, workload):
        objects_a, objects_b = WORKLOADS[workload]()
        result = (
            AlgorithmSpec.create(algorithm, backend=backend)
            .make()
            .join(objects_a, objects_b)
        )
        assert_matches_ground_truth(result, objects_a, objects_b)
        if algorithm.startswith("TwoLayer"):
            assert result.stats.dedup_checks == 0


@pytest.mark.parallel
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", ENGINE_ALGORITHMS)
class TestEngineDuplicateFreedom:
    def test_chunked(self, algorithm, workload):
        # The one-core simulation on a finer cut: 9 slabs, or a 3 x 3
        # tile grid whose four interior corners each touch four tiles.
        objects_a, objects_b = WORKLOADS[workload]()
        for kind in ("slabs", "tiles"):
            engine = ParallelChunkedJoin(algorithm, workers=1, n_chunks=9, kind=kind)
            result = engine.join(objects_a, objects_b)
            assert_matches_ground_truth(result, objects_a, objects_b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel(self, algorithm, workload, workers):
        objects_a, objects_b = WORKLOADS[workload]()
        for kind in ("slabs", "tiles"):
            engine = ParallelChunkedJoin(
                algorithm, workers=workers, n_chunks=4, kind=kind
            )
            result = engine.join(objects_a, objects_b)
            assert_matches_ground_truth(result, objects_a, objects_b)
