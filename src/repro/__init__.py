"""TOUCH: in-memory spatial join by hierarchical data-oriented partitioning.

A complete reproduction of Nobari et al., SIGMOD 2013: the TOUCH
algorithm, every baseline of the paper's evaluation (nested loop, plane
sweep, PBSM, S3, indexed nested loop, synchronous R-Tree traversal), the
substrates they need (MBR geometry, STR/Hilbert bulk-loaded R-Trees,
uniform hash grids), workload generators, and a benchmark harness that
regenerates every table and figure of the paper.

Quickstart
----------
>>> from repro import TouchJoin, distance_join, uniform_boxes
>>> a = uniform_boxes(1_000, seed=1)
>>> b = uniform_boxes(5_000, seed=2)
>>> result = distance_join(a, b, epsilon=10.0)
>>> result.stats.comparisons < len(a) * len(b)
True
"""

from repro.core import TouchJoin, distance_join, spatial_join
from repro.datasets import (
    Dataset,
    clustered_boxes,
    gaussian_boxes,
    neuroscience_datasets,
    uniform_boxes,
)
from repro.joins import (
    ALGORITHMS,
    AlgorithmInfo,
    IndexedNestedLoopJoin,
    JoinResult,
    NestedLoopJoin,
    PBSMJoin,
    PlaneSweepJoin,
    RTreeSyncJoin,
    S3Join,
    SeededTreeJoin,
    available,
    make_algorithm,
)
from repro.joins.registry import AlgorithmSpec
from repro.partition import TwoLayerJoin
from repro.stats import JoinStatistics


def __getattr__(name: str):
    # The multiprocess engine is exported lazily: resolving it imports
    # multiprocessing machinery sequential users never need.
    if name == "ParallelChunkedJoin":
        from repro.parallel.engine import ParallelChunkedJoin

        return ParallelChunkedJoin
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "TouchJoin",
    "distance_join",
    "spatial_join",
    "Dataset",
    "uniform_boxes",
    "gaussian_boxes",
    "clustered_boxes",
    "neuroscience_datasets",
    "JoinResult",
    "JoinStatistics",
    "NestedLoopJoin",
    "PlaneSweepJoin",
    "PBSMJoin",
    "S3Join",
    "IndexedNestedLoopJoin",
    "RTreeSyncJoin",
    "SeededTreeJoin",
    "TwoLayerJoin",
    "ALGORITHMS",
    "AlgorithmInfo",
    "available",
    "make_algorithm",
    "AlgorithmSpec",
    "ParallelChunkedJoin",
    "__version__",
]
