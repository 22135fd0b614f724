"""Join statistics: the implementation-independent metrics of the paper.

Every join algorithm fills a :class:`JoinStatistics` instance.  The paper's
headline metric is ``comparisons`` — the number of object-object MBR
intersection tests — which is independent of language and machine, plus
execution time and memory footprint.  We also track several secondary
counters (node tests, filtered objects, replication) that the paper
discusses qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["JoinStatistics"]


@dataclass
class JoinStatistics:
    """Counters and timings collected while executing a spatial join.

    Attributes
    ----------
    comparisons:
        Object-object MBR intersection tests (the paper's headline count).
    node_tests:
        Object-node or node-node MBR tests performed while navigating index
        structures.  The paper excludes these from the headline metric; we
        keep them for analysis.
    result_pairs:
        Number of intersecting pairs reported.
    duplicates_suppressed:
        Candidate pairs discarded by deduplication (reference-point method
        in PBSM and in grid local joins).
    dedup_checks:
        Per-pair ownership tests performed to suppress duplicates from
        multiple assignment (reference-point tests in PBSM cells and grid
        local joins, region-ownership tests in the parallel
        engine, result-set membership probes in the quadtree join).
        The two-layer partition join is duplicate-free by construction
        and keeps this at exactly 0.
    filtered:
        Objects of the probe dataset eliminated before any object-object
        comparison (TOUCH / S3 filtering; Figures 13 and 14a).
    replicated_entries:
        Total object references stored in partitioning structures beyond
        one per object (multiple assignment in PBSM, grid replication in
        local joins).
    memory_bytes:
        Analytic memory footprint of the algorithm's data structures, per
        the model in :mod:`repro.stats.memory`.
    build_seconds / assign_seconds / join_seconds:
        Wall-clock duration of the three phases (tree/index/partition
        construction, assignment/probing, actual joining).  Algorithms
        without a phase leave it at zero.
    total_seconds:
        End-to-end wall-clock duration, including structure building, as
        the paper reports ("the time to build the indexing structures is
        included").
    candidate_pairs / false_hit_prunes / true_hits / exact_tests /
    refined_pairs:
        Filter-refine accounting (``geometry="exact"`` runs only; all
        stay 0 on pure-MBR workloads).  ``candidate_pairs`` counts pairs
        entering refinement, ``false_hit_prunes`` the pairs eliminated
        by the Euclidean MBR-gap prune, ``true_hits`` the pairs accepted
        via the interior-rectangle shortcut without an exact test,
        ``exact_tests`` the pairs that needed one, and ``refined_pairs``
        the survivors.  ``true_hits + exact_tests == candidate_pairs -
        false_hit_prunes`` holds by construction.
    """

    comparisons: int = 0
    node_tests: int = 0
    result_pairs: int = 0
    duplicates_suppressed: int = 0
    dedup_checks: int = 0
    filtered: int = 0
    replicated_entries: int = 0
    candidate_pairs: int = 0
    false_hit_prunes: int = 0
    true_hits: int = 0
    exact_tests: int = 0
    refined_pairs: int = 0
    memory_bytes: int = 0
    build_seconds: float = 0.0
    assign_seconds: float = 0.0
    join_seconds: float = 0.0
    total_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "JoinStatistics") -> None:
        """Accumulate another statistics object into this one.

        Used by the multiprocess engine to combine
        per-chunk statistics: counters add up (total work is invariant
        under parallelisation), timings add up (sequential-equivalent
        work), and the memory footprint takes the maximum, matching the
        per-core peak-resident semantics of the paper's §3 deployment.
        ``extra`` is deliberately untouched — engines record their own
        phase wall-clocks there (``decompose_seconds``,
        ``worker_join_seconds``, ``merge_seconds``, per-chunk lists)
        after merging, and ``total_seconds`` is overwritten by
        :meth:`SpatialJoinAlgorithm.join` with the true end-to-end
        wall-clock, so parallel speedup shows as ``total_seconds``
        dropping below the summed phase times.
        """
        self.comparisons += other.comparisons
        self.node_tests += other.node_tests
        self.result_pairs += other.result_pairs
        self.duplicates_suppressed += other.duplicates_suppressed
        self.dedup_checks += other.dedup_checks
        self.filtered += other.filtered
        self.replicated_entries += other.replicated_entries
        self.candidate_pairs += other.candidate_pairs
        self.false_hit_prunes += other.false_hit_prunes
        self.true_hits += other.true_hits
        self.exact_tests += other.exact_tests
        self.refined_pairs += other.refined_pairs
        self.memory_bytes = max(self.memory_bytes, other.memory_bytes)
        self.build_seconds += other.build_seconds
        self.assign_seconds += other.assign_seconds
        self.join_seconds += other.join_seconds
        self.total_seconds += other.total_seconds

    def as_dict(self) -> dict:
        """Flat dictionary view used by the benchmark reporter."""
        return {
            "comparisons": self.comparisons,
            "node_tests": self.node_tests,
            "result_pairs": self.result_pairs,
            "duplicates_suppressed": self.duplicates_suppressed,
            "dedup_checks": self.dedup_checks,
            "filtered": self.filtered,
            "replicated_entries": self.replicated_entries,
            "candidate_pairs": self.candidate_pairs,
            "false_hit_prunes": self.false_hit_prunes,
            "true_hits": self.true_hits,
            "exact_tests": self.exact_tests,
            "refined_pairs": self.refined_pairs,
            "memory_bytes": self.memory_bytes,
            "build_seconds": self.build_seconds,
            "assign_seconds": self.assign_seconds,
            "join_seconds": self.join_seconds,
            "total_seconds": self.total_seconds,
        }
