"""Spatial join algorithms: baselines from the paper's evaluation."""

from repro.joins.base import JoinResult, Pair, SpatialJoinAlgorithm
from repro.joins.indexed_nested_loop import IndexedNestedLoopJoin
from repro.joins.nested_loop import NestedLoopJoin
from repro.joins.pbsm import PBSMJoin
from repro.joins.plane_sweep import PlaneSweepJoin
from repro.joins.quadtree import QuadtreeJoin
from repro.joins.registry import (
    ALGORITHMS,
    AlgorithmInfo,
    available,
    make_algorithm,
)
from repro.joins.rtree_join import RTreeSyncJoin
from repro.joins.s3 import S3Join
from repro.joins.seeded_tree import SeededTreeJoin
from repro.joins.sssj import SSSJJoin

__all__ = [
    "JoinResult",
    "Pair",
    "SpatialJoinAlgorithm",
    "NestedLoopJoin",
    "PlaneSweepJoin",
    "PBSMJoin",
    "S3Join",
    "IndexedNestedLoopJoin",
    "RTreeSyncJoin",
    "SeededTreeJoin",
    "QuadtreeJoin",
    "SSSJJoin",
    "ALGORITHMS",
    "AlgorithmInfo",
    "available",
    "make_algorithm",
]
