#!/usr/bin/env python3
"""GIS proximity: 2D spatial join of landmarks against road segments.

The paper's introduction motivates spatial joins with geographic
applications ("detect collisions or proximity between geographical
features: landmarks, houses, roads").  This example runs TOUCH in 2D on a
synthetic city: clustered building footprints joined against a road
network, asking "which buildings lie within 25 m of a road?" — and shows
the BlueGene/P-style chunked execution (§3) on the same query: the
multiprocess engine with one worker joining four regions in turn.

Run:  python examples/gis_collision_detection.py
"""

import numpy as np

from repro import distance_join
from repro.datasets import Dataset, clustered_boxes
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.parallel import ParallelChunkedJoin, shutdown_pools


def make_road_network(n_segments: int, space: float, seed: int) -> Dataset:
    """Random axis-aligned road segments as thin boxes (width 4 m)."""
    rng = np.random.default_rng(seed)
    objects = []
    for oid in range(n_segments):
        x, y = rng.uniform(0, space, size=2)
        length = rng.uniform(50.0, 400.0)
        if rng.uniform() < 0.5:  # east-west road
            lo = (x, y)
            hi = (min(space, x + length), y + 4.0)
        else:  # north-south road
            lo = (x, y)
            hi = (x + 4.0, min(space, y + length))
        objects.append(SpatialObject(oid, MBR(lo, hi)))
    universe = MBR((0.0, 0.0), (space, space))
    return Dataset(objects, name="roads", universe=universe)


def main() -> None:
    space = 10_000.0  # a 10 km x 10 km city
    buildings = clustered_boxes(
        4_000, space=space, dim=2, n_clusters=30, cluster_sigma=400.0,
        side_range=(5.0, 40.0), seed=3,
    ).renamed("buildings")
    roads = make_road_network(800, space, seed=4)
    print(f"{len(buildings):,} buildings (30 districts), {len(roads):,} road segments")

    # Which buildings are within 25 m of a road?
    result = distance_join(roads, buildings, epsilon=25.0, order="keep")
    near_road = {oid_b for _, oid_b in result.pairs}
    print(f"\nbuildings within 25 m of a road: {len(near_road):,} "
          f"of {len(buildings):,} ({100 * len(near_road) / len(buildings):.1f}%)")
    print(f"  candidate pairs : {len(result.pairs):,}")
    print(f"  comparisons     : {result.stats.comparisons:,} "
          f"(brute force: {len(roads) * len(buildings):,})")
    print(f"  total time      : {result.stats.total_seconds:.3f}s")

    # The same join decomposed into four contiguous chunks (one per
    # "core"), exactly like the paper's BlueGene/P deployment; one
    # worker process joins them one after another.
    chunked = ParallelChunkedJoin("TOUCH", workers=1, n_chunks=4)
    inflated = [obj.inflated(25.0) for obj in roads]
    chunk_result = chunked.join(inflated, list(buildings))
    shutdown_pools()
    assert chunk_result.pair_set() == result.pair_set()
    print(f"\nchunked execution (4 chunks) reproduces the result exactly:"
          f" {len(chunk_result.pairs):,} pairs,"
          f" {chunk_result.stats.duplicates_suppressed} boundary duplicates suppressed")


if __name__ == "__main__":
    main()
