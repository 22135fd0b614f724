#!/usr/bin/env python3
"""Algorithm shootout: every join of the paper's evaluation on one workload.

Reproduces the spirit of Figure 8 interactively: all eight approaches
(nested loop, plane sweep, PBSM-500/100, S3, INL, synchronous R-Tree
traversal, TOUCH — plus the seeded-tree extension) joined on the same
Gaussian workload, reporting the paper's three metrics: comparisons,
execution time and memory footprint.  All results are cross-validated.

Run:  python examples/algorithm_shootout.py
"""

from repro import available, gaussian_boxes, make_algorithm
from repro.bench.reporting import format_table
from repro.datasets.transform import inflate
from repro.validation import assert_all_equivalent


def main() -> None:
    epsilon = 10.0
    dataset_a = inflate(gaussian_boxes(1_000, seed=5), epsilon)
    dataset_b = gaussian_boxes(4_000, seed=6)
    print(
        f"joining {len(dataset_a):,} x {len(dataset_b):,} Gaussian boxes "
        f"(eps = {epsilon:g}, applied to dataset A)\n"
    )

    rows = []
    results = []
    for name in [info.name for info in available()]:
        result = make_algorithm(name).join(dataset_a, dataset_b)
        results.append(result)
        stats = result.stats
        rows.append(
            {
                "algorithm": result.algorithm,
                "pairs": len(result.pairs),
                "comparisons": stats.comparisons,
                "node_tests": stats.node_tests,
                "filtered": stats.filtered,
                "memory_KiB": round(stats.memory_bytes / 1024, 1),
                "seconds": round(stats.total_seconds, 4),
            }
        )

    assert_all_equivalent(results)
    print(format_table(rows, columns=list(rows[0])))
    print("\nall algorithms returned the identical result set")

    fastest = min(rows, key=lambda r: r["seconds"])
    leanest = min(rows, key=lambda r: r["memory_KiB"])
    fewest = min(rows, key=lambda r: r["comparisons"])
    print(f"fastest: {fastest['algorithm']}  |  leanest: {leanest['algorithm']}"
          f"  |  fewest comparisons: {fewest['algorithm']}")


if __name__ == "__main__":
    main()
