#!/usr/bin/env python3
"""Parallel join: the paper's §3 per-core decomposition on a worker pool.

Joins a Figure-9-style uniform workload sequentially and through the
multiprocess engine — one worker (the one-core simulation of the
chunked deployment) and two workers over slabs and tiles — verifying
that every run returns the identical pair set and showing the
per-phase timing breakdown.  Each region travels to its worker as
pickled coordinate-table slices, the worker joins them on tables and
keeps the pairs it owns in one array pass.

Run:  python examples/parallel_join.py
"""

from repro.joins.registry import AlgorithmSpec
from repro.parallel import ParallelChunkedJoin, shutdown_pools
from repro.datasets.synthetic import uniform_boxes
from repro.datasets.transform import inflate


def main() -> None:
    # 1. A dense uniform workload (the build side inflated by eps, as in
    #    the paper's distance-join methodology).
    epsilon = 2.0
    dataset_a = uniform_boxes(1_500, space=250.0, seed=1)
    dataset_b = uniform_boxes(4_500, space=250.0, seed=2)
    build = inflate(dataset_a, epsilon)
    print(f"workload: |A|={len(dataset_a)}, |B|={len(dataset_b)}, eps={epsilon:g}")

    # 2. One TOUCH configuration, sequential and parallel.  The spec is
    #    picklable, so the multiprocess engine can rebuild the algorithm
    #    inside every worker ("each core builds its own index").
    spec = AlgorithmSpec.create("TOUCH")
    sequential = spec.make().join(build, dataset_b)
    print(f"\nsequential          : {sequential.stats.total_seconds:.3f}s, "
          f"{len(sequential.pairs):,} pairs")

    chunked = ParallelChunkedJoin(spec, workers=1, n_chunks=4).join(build, dataset_b)
    print(f"1 worker, 4 slabs   : {chunked.stats.total_seconds:.3f}s, "
          f"{len(chunked.pairs):,} pairs, "
          f"{chunked.stats.duplicates_suppressed} boundary duplicates suppressed")

    for kind in ("slabs", "tiles"):
        engine = ParallelChunkedJoin(spec, workers=2, n_chunks=4, kind=kind)
        result = engine.join(build, dataset_b)
        extra = result.stats.extra
        print(f"parallel 2w, {kind:5s} : {result.stats.total_seconds:.3f}s, "
              f"{len(result.pairs):,} pairs  "
              f"[decompose {extra['decompose_seconds']:.3f}s | "
              f"fan-out {extra['worker_join_seconds']:.3f}s | "
              f"merge {extra['merge_seconds']:.3f}s]")
        assert result.pair_set() == sequential.pair_set(), "engines must agree"

    assert chunked.pair_set() == sequential.pair_set(), "engines must agree"
    print("\nall engines returned the identical pair set "
          "(boundary ownership dedups straddlers exactly once)")
    shutdown_pools()


if __name__ == "__main__":
    main()
