"""Experiment definitions: one per table and figure of the paper's §6.

Each ``experiment_*`` function regenerates the rows/series of one paper
artifact at a configurable scale and returns an :class:`ExperimentResult`
whose ``rows`` hold exactly the quantities the paper plots (comparisons,
execution time, memory, filtered objects, selectivity).  The ``notes``
field records the paper's qualitative claim that the experiment is meant
to reproduce; ``EXPERIMENTS.md`` tracks paper-vs-measured per claim.
"""

from __future__ import annotations

import gc
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import execute
from repro.bench.config import RunOptions, Scale, current_scale
from repro.bench.runner import RunRecord, record_from_result, run_algorithm
from repro.bench.workloads import (
    FIG8_ALGORITHMS,
    LARGE_ALGORITHMS,
    LARGE_DISTRIBUTIONS,
    SHAPE_DISTRIBUTIONS,
    neuro_pair,
    synthetic_pair,
)
from repro.core.distance_join import distance_join
from repro.datasets.io import read_dataset, write_dataset
from repro.datasets.neuroscience import density_subsets
from repro.datasets.transform import inflate
from repro.joins.registry import make_algorithm

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]


@dataclass
class ExperimentResult:
    """Rows regenerating one paper table/figure, plus provenance."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: str = ""
    scale: str = ""
    backend: str | None = None

    def add(self, record: RunRecord, **extra) -> None:
        row = record.as_dict()
        row.update(extra)
        self.rows.append(row)


# --------------------------------------------------------------------------
# Table 1 — dataset selectivity
# --------------------------------------------------------------------------
def experiment_table1(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Selectivity (Equation 1, ×1e-6) of every dataset pair and ε."""
    out = ExperimentResult(
        "table1",
        "Table 1: join selectivity of the datasets (x1e-6)",
        notes=(
            "Paper ordering at fixed epsilon: gaussian > clustered > uniform "
            "for the synthetic datasets; selectivity grows with epsilon."
        ),
        scale=scale.name,
    )
    for distribution in LARGE_DISTRIBUTIONS:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.table1_a, scale.table1_b, scale, space=scale.table1_space
        )
        for epsilon in scale.epsilons:
            record = run_algorithm(
                "TOUCH", dataset_a, dataset_b, epsilon, options=options
            )
            out.add(record, selectivity_e6=record.selectivity * 1e6)
    axons, dendrites = neuro_pair(scale)
    for epsilon in scale.epsilons:
        record = run_algorithm("TOUCH", axons, dendrites, epsilon, options=options)
        out.add(record, selectivity_e6=record.selectivity * 1e6)
    return out


# --------------------------------------------------------------------------
# §6.3 — loading the data
# --------------------------------------------------------------------------
def experiment_loading(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Load time vs the fastest state-of-the-art join (PBSM-500)."""
    out = ExperimentResult(
        "loading",
        "Sec. 6.3: loading time is dwarfed by the join time",
        notes=(
            "Paper: loading never exceeds 2s while PBSM-500 takes 334-1512s; "
            "the measured ratio join/load should be >> 1 at every size."
        ),
        scale=scale.name,
    )
    dataset_a, _ = synthetic_pair("uniform", scale.large_a, scale.large_a, scale)
    with tempfile.TemporaryDirectory(prefix="repro-loading-") as tmp:
        for n_b in scale.large_b_steps:
            _, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
            path = Path(tmp) / f"b-{n_b}.bin"
            write_dataset(dataset_b, path)
            # Collect before timing: at the small reproduction scales a
            # load takes ~1ms, so a generational GC pause from earlier
            # allocations landing inside the window would dominate the
            # measurement (observed: a gen-2 pass made the first load
            # look 10x slower than the join at smoke scale).
            gc.collect()
            start = time.perf_counter()
            loaded = read_dataset(path)
            load_seconds = time.perf_counter() - start
            record = run_algorithm(
                "PBSM-500", dataset_a, loaded, scale.large_epsilon, options=options
            )
            out.add(
                record,
                load_seconds=load_seconds,
                join_over_load=(
                    record.total_seconds / load_seconds if load_seconds > 0 else float("inf")
                ),
            )
    return out


# --------------------------------------------------------------------------
# Figure 8 — small uniform datasets, all eight algorithms
# --------------------------------------------------------------------------
def experiment_fig8(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Comparisons and execution time, small uniform datasets, ε = 10."""
    out = ExperimentResult(
        "fig8",
        "Figure 8: small uniform datasets, increasing |B|, eps=10",
        notes=(
            "Paper: TOUCH and both PBSM configurations drastically outperform "
            "NL and PS in comparisons and time; execution time tracks the "
            "number of comparisons; PBSM-500 beats PBSM-100 on comparisons."
        ),
        scale=scale.name,
    )
    for n_b in scale.fig8_b_steps:
        dataset_a, dataset_b = synthetic_pair(
            "uniform", scale.fig8_a, n_b, scale, space=scale.fig8_space
        )
        for algorithm in FIG8_ALGORITHMS:
            out.add(
                run_algorithm(
                    algorithm, dataset_a, dataset_b, scale.fig8_epsilon,
                    options=options,
                )
            )
    return out


# --------------------------------------------------------------------------
# Figures 9/10/11 — large datasets per distribution
# --------------------------------------------------------------------------
def _experiment_large(
    distribution: str, figure: str, scale: Scale, options: RunOptions
) -> ExperimentResult:
    out = ExperimentResult(
        figure,
        f"Figure {figure[3:]}: large {distribution} datasets, increasing |B|, eps=5",
        notes=(
            "Paper: TOUCH is ~1 order of magnitude faster than PBSM-500, which "
            "is ~1 order faster than S3/INL/RTree; PBSM-500 uses ~2 orders of "
            "magnitude more memory; comparisons follow gaussian > clustered > "
            "uniform across the figures."
        ),
        scale=scale.name,
    )
    for n_b in scale.large_b_steps:
        dataset_a, dataset_b = synthetic_pair(distribution, scale.large_a, n_b, scale)
        for algorithm in LARGE_ALGORITHMS:
            out.add(
                run_algorithm(
                    algorithm, dataset_a, dataset_b, scale.large_epsilon,
                    options=options,
                )
            )
    return out


def experiment_fig9(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Large uniform datasets (comparisons / time / memory)."""
    return _experiment_large("uniform", "fig9", scale, options)


def experiment_fig10(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Large Gaussian datasets (comparisons / time / memory)."""
    return _experiment_large("gaussian", "fig10", scale, options)


def experiment_fig11(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Large clustered datasets (comparisons / time / memory)."""
    return _experiment_large("clustered", "fig11", scale, options)


# --------------------------------------------------------------------------
# Figure 12 — varying the distance threshold ε
# --------------------------------------------------------------------------
def experiment_fig12(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Execution time for ε = 5 vs ε = 10 on all distributions."""
    out = ExperimentResult(
        "fig12",
        "Figure 12: impact of doubling eps on execution time (|A| = |B|)",
        notes=(
            "Paper: doubling eps roughly doubles execution time for most "
            "approaches; both PBSM configurations grow super-linearly because "
            "replication increases with eps."
        ),
        scale=scale.name,
    )
    for distribution in LARGE_DISTRIBUTIONS:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, scale.large_a, scale
        )
        for algorithm in LARGE_ALGORITHMS:
            for epsilon in scale.epsilons:
                out.add(
                    run_algorithm(
                        algorithm, dataset_a, dataset_b, epsilon, options=options
                    )
                )
    return out


# --------------------------------------------------------------------------
# Figure 13 — TOUCH's filtering capability
# --------------------------------------------------------------------------
def experiment_fig13(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Objects of B filtered by TOUCH per distribution and |B|."""
    out = ExperimentResult(
        "fig13",
        "Figure 13: filtering capability of TOUCH, eps=5",
        notes=(
            "Paper: the less uniform the distribution, the more objects are "
            "filtered — none for uniform, some for gaussian, most for "
            "clustered (e.g. 440K of 9.6M)."
        ),
        scale=scale.name,
    )
    for distribution in LARGE_DISTRIBUTIONS:
        for n_b in scale.large_b_steps:
            dataset_a, dataset_b = synthetic_pair(distribution, scale.large_a, n_b, scale)
            record = run_algorithm(
                "TOUCH", dataset_a, dataset_b, scale.large_epsilon, options=options
            )
            out.add(record, filtered_fraction=record.filtered / max(1, record.n_b))
    return out


# --------------------------------------------------------------------------
# Figure 14 — impact of the fanout
# --------------------------------------------------------------------------
def experiment_fig14(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Fanout sweep: filtered objects (14a) and comparisons (14b)."""
    out = ExperimentResult(
        "fig14",
        "Figure 14: impact of TOUCH's fanout on filtering and comparisons",
        notes=(
            "Paper: smaller fanouts filter more (gaussian/clustered; uniform "
            "filters nothing) and need fewer comparisons — about 1.5x fewer "
            "at fanout 2 than at fanout 20."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[-1]
    for distribution in LARGE_DISTRIBUTIONS:
        dataset_a, dataset_b = synthetic_pair(distribution, scale.large_a, n_b, scale)
        for fanout in scale.fanout_sweep:
            # num_partitions=None selects Algorithm 2's literal rule
            # (leaf buckets of size `fanout`), the mechanism behind the
            # paper's Figure 14 trends (see repro.core.tree.TouchTree).
            record = run_algorithm(
                "TOUCH",
                dataset_a,
                dataset_b,
                scale.large_epsilon,
                fanout=fanout,
                num_partitions=None,
                options=options,
            )
            out.add(record, fanout=fanout)
    return out


# --------------------------------------------------------------------------
# Figure 15 — increasingly dense neuroscience datasets
# --------------------------------------------------------------------------
def experiment_fig15(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Execution time vs density (% subsets of the neuro model), ε = 5."""
    out = ExperimentResult(
        "fig15",
        "Figure 15: execution time for increasingly dense neuroscience data",
        notes=(
            "Paper: at full density TOUCH is ~8x faster than PBSM-500 and "
            "~50x faster than the best of S3/RTree/INL, with ~12x less "
            "memory than PBSM-500."
        ),
        scale=scale.name,
    )
    axons, dendrites = neuro_pair(scale)
    for fraction, subset_a, subset_b in density_subsets(
        axons, dendrites, fractions=scale.density_fractions, seed=scale.seed
    ):
        for algorithm in LARGE_ALGORITHMS:
            record = run_algorithm(
                algorithm, subset_a, subset_b, scale.large_epsilon, options=options
            )
            out.add(record, density_fraction=fraction)
    return out


# --------------------------------------------------------------------------
# Figure 16 — neuroscience datasets, both ε
# --------------------------------------------------------------------------
def experiment_fig16(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Time / comparisons / memory on the neuro pair for ε ∈ {5, 10}."""
    out = ExperimentResult(
        "fig16",
        "Figure 16: neuroscience datasets, eps in {5, 10}",
        notes=(
            "Paper: TOUCH outperforms all approaches in time and memory; "
            "PBSM-500 is second-fastest but needs far more memory; filtering "
            "removes 26.58% of B at eps=5 and 21.23% at eps=10 (dense centre, "
            "sparse rim)."
        ),
        scale=scale.name,
    )
    axons, dendrites = neuro_pair(scale)
    for algorithm in LARGE_ALGORITHMS:
        for epsilon in scale.epsilons:
            record = run_algorithm(
                algorithm, axons, dendrites, epsilon, options=options
            )
            out.add(record, filtered_fraction=record.filtered / max(1, record.n_b))
    return out


# --------------------------------------------------------------------------
# Ablations (design choices discussed in §5.2)
# --------------------------------------------------------------------------
def experiment_ablation_localjoin(scale: Scale, options: RunOptions) -> ExperimentResult:
    """TOUCH local-join kernel and grid cell-size factor (§5.2.2)."""
    out = ExperimentResult(
        "ablation_localjoin",
        "Ablation: TOUCH local-join kernel and cell size (Sec. 5.2.2)",
        notes=(
            "The grid kernel should beat the nested kernel; cells much "
            "smaller than the objects inflate replication, much larger cells "
            "inflate comparisons."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    for kernel in ("grid", "sweep", "nested"):
        record = run_algorithm(
            "TOUCH", dataset_a, dataset_b, scale.large_epsilon,
            local_kernel=kernel, options=options,
        )
        out.add(record, local_kernel=kernel, cell_size_factor=None)
    for factor in (1.0, 2.0, 4.0, 8.0, 16.0):
        record = run_algorithm(
            "TOUCH", dataset_a, dataset_b, scale.large_epsilon,
            cell_size_factor=factor, options=options,
        )
        out.add(record, local_kernel="grid", cell_size_factor=factor)
    return out


def experiment_ablation_joinorder(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Build-side choice: smaller dataset first vs larger first (§5.2.3)."""
    out = ExperimentResult(
        "ablation_joinorder",
        "Ablation: join order — build on the smaller vs the larger dataset",
        notes=(
            "Paper heuristic: building on the smaller dataset speeds up tree "
            "construction and improves filtering."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[-1]
    dataset_a, dataset_b = synthetic_pair("clustered", scale.large_a, n_b, scale)
    for order in ("keep", "swap"):
        algorithm = make_algorithm("TOUCH")
        result = distance_join(
            dataset_a, dataset_b, scale.large_epsilon, algorithm=algorithm, order=order
        )
        record = record_from_result(
            result, dataset_a.name, len(dataset_a), len(dataset_b), scale.large_epsilon
        )
        out.add(record, order="small-first" if order == "keep" else "large-first")
    return out


def experiment_ablation_partitions(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Leaf bucket count sweep (§5.2.1; the paper fixes p = 1024)."""
    out = ExperimentResult(
        "ablation_partitions",
        "Ablation: number of leaf partitions p",
        notes="More partitions give tighter leaves (fewer comparisons) at "
        "the cost of a taller tree and longer assignment.",
        scale=scale.name,
    )
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    for partitions in (64, 256, 1024, 4096):
        record = run_algorithm(
            "TOUCH",
            dataset_a,
            dataset_b,
            scale.large_epsilon,
            num_partitions=partitions,
            options=options,
        )
        out.add(record, num_partitions=partitions)
    return out


def experiment_ablation_chunked(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Chunked execution (§3's per-core decomposition): result parity."""
    out = ExperimentResult(
        "ablation_chunked",
        "Ablation: BlueGene/P-style contiguous chunking",
        notes=(
            "The union of per-chunk joins must equal the global join; "
            "per-chunk memory (the per-core footprint) shrinks with more "
            "chunks while total comparisons stay near-constant."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    build = inflate(dataset_a, scale.large_epsilon)
    for n_chunks in (1, 2, 4, 8):
        # One worker joins the regions one after another: the one-core
        # simulation of the per-core deployment.
        from repro.parallel.engine import ParallelChunkedJoin

        algorithm = ParallelChunkedJoin("TOUCH", workers=1, n_chunks=n_chunks)
        result = algorithm.join(build, dataset_b)
        record = record_from_result(
            result, dataset_a.name, len(dataset_a), len(dataset_b), scale.large_epsilon
        )
        out.add(record, n_chunks=n_chunks)
    return out


# --------------------------------------------------------------------------
# Two-layer partition join vs the reference-point baselines
# --------------------------------------------------------------------------
#: The duplicate-free join, its grid-overlay twin and the paper's champion.
TWO_LAYER_ALGORITHMS = ("TwoLayer-500", "PBSM-500", "TOUCH")


def experiment_two_layer(scale: Scale, options: RunOptions) -> ExperimentResult:
    """TwoLayer vs PBSM-500/TOUCH on the Figures 9–11 workloads.

    For every workload the three algorithms must return the *identical*
    pair set (asserted — the comparison is worthless otherwise) and the
    TwoLayer rows must report ``dedup_checks == 0``: the two-layer
    mini-join matrix is duplicate-free by construction, so not a single
    reference-point test may execute anywhere in its path.

    Joins run sequentially and in-process on purpose — the assertions
    need the raw pair sets and the inner algorithms' own counters — so
    only ``options.backend`` applies here, not the engine selection.
    """
    out = ExperimentResult(
        "two_layer",
        "Two-layer partition join vs PBSM-500/TOUCH (Figs. 9-11 workloads)",
        notes=(
            "Tsitsigkos & Mamoulis: per-tile class mini-joins avoid every "
            "per-pair dedup test of the reference-point method while "
            "reporting the same pair set; replication matches PBSM at the "
            "same tile size, comparisons drop with the skipped class "
            "combinations."
        ),
        scale=scale.name,
    )
    overrides = {"backend": options.backend} if options.backend else {}
    for distribution in LARGE_DISTRIBUTIONS:
        for n_b in scale.large_b_steps:
            dataset_a, dataset_b = synthetic_pair(
                distribution, scale.large_a, n_b, scale
            )
            build = inflate(dataset_a, scale.large_epsilon)
            probe = list(dataset_b)
            reference_pairs = None
            for algorithm in TWO_LAYER_ALGORITHMS:
                result = make_algorithm(algorithm, **overrides).join(build, probe)
                record = record_from_result(
                    result,
                    dataset_a.name,
                    len(dataset_a),
                    len(dataset_b),
                    scale.large_epsilon,
                )
                if algorithm.startswith("TwoLayer"):
                    if result.stats.dedup_checks != 0:
                        raise AssertionError(
                            f"{algorithm} on {dataset_a.name}/|B|={n_b} performed "
                            f"{result.stats.dedup_checks} dedup checks; the "
                            "two-layer join must perform none"
                        )
                if reference_pairs is None:
                    reference_pairs = result.pair_set()
                elif result.pair_set() != reference_pairs:
                    raise AssertionError(
                        f"{algorithm} on {dataset_a.name}/|B|={n_b} diverges "
                        f"from {TWO_LAYER_ALGORITHMS[0]}: "
                        f"{len(reference_pairs - result.pair_set())} missing, "
                        f"{len(result.pair_set() - reference_pairs)} spurious"
                    )
                out.add(record, distribution=distribution)
    return out


# --------------------------------------------------------------------------
# §3 — speedup vs workers (the BlueGene/P deployment, on multicore)
# --------------------------------------------------------------------------
#: Worker counts of the scaling sweep (the Fig-9-style speedup curve).
PARALLEL_WORKER_STEPS = (1, 2, 4)


def experiment_parallel_scaling(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Speedup-vs-workers on the Figure 9 uniform workload, both cuttings.

    One sequential baseline, then the multiprocess engine at 1/2/4
    workers over slabs and tiles; every run must return the baseline's
    pair set (asserted — the curve is worthless if parity breaks).
    Each run picks its own engine; only ``options.backend`` carries over.
    """
    out = ExperimentResult(
        "parallel_scaling",
        "Sec. 3: multiprocess speedup vs workers, Figure-9 uniform workload",
        notes=(
            "The paper's deployment joins contiguous subsets independently "
            "per core; with partition-granular parallelism the speedup "
            "should grow near-linearly until the core count (Tsitsigkos & "
            "Mamoulis) while pair sets stay identical to sequential."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    baseline = run_algorithm(
        "TOUCH", dataset_a, dataset_b, scale.large_epsilon,
        options=RunOptions(workers=0, backend=options.backend),
    )
    out.add(baseline, engine="sequential", workers=0, speedup=1.0)
    for decompose in ("slabs", "tiles"):
        for workers in PARALLEL_WORKER_STEPS:
            record = run_algorithm(
                "TOUCH",
                dataset_a,
                dataset_b,
                scale.large_epsilon,
                options=RunOptions(
                    workers=workers, decompose=decompose, backend=options.backend
                ),
            )
            if record.result_pairs != baseline.result_pairs:
                raise AssertionError(
                    f"parallel({workers}, {decompose}) returned "
                    f"{record.result_pairs} pairs, sequential returned "
                    f"{baseline.result_pairs}"
                )
            out.add(
                record,
                engine="parallel",
                speedup=(
                    baseline.total_seconds / record.total_seconds
                    if record.total_seconds > 0
                    else float("inf")
                ),
            )
    return out


# --------------------------------------------------------------------------
# Build-once/probe-many: the query service vs rebuild-per-query
# --------------------------------------------------------------------------
#: Algorithms of the repeated-probe comparison: the paper's champion and
#: the duplicate-free two-layer join, both with reusable indexes.
REPEATED_PROBE_ALGORITHMS = ("TOUCH", "TwoLayer-500")

#: Query count of the serve loop (the acceptance workload probes the
#: cached index 100 times).
REPEATED_PROBE_QUERIES = 100


def experiment_repeated_probe(scale: Scale, options: RunOptions) -> ExperimentResult:
    """100 query batches: cached index vs index rebuilt per query.

    The Figure-9 uniform A side is indexed once per algorithm through
    the :class:`~repro.service.SpatialQueryService`; B is cut into
    :data:`REPEATED_PROBE_QUERIES` batches, each issued as one query.
    The identical batches are then joined by fresh one-shot instances
    (the rebuild-per-query shape every ``run_algorithm`` call had before
    the service existed).  Pair-set parity between the two paths is
    **hard-asserted per batch** inside the driver — a speedup that
    dropped pairs would be worthless.

    Joins run sequentially and in-process (``options.backend``
    applies; ``options.workers`` does not — the service is an
    in-process engine).
    """
    out = ExperimentResult(
        "repeated_probe",
        "Build-once/probe-many: cached index vs rebuild-per-query",
        notes=(
            "Amortising index construction across probes is where "
            "real-world speedups live (Tsitsigkos et al.; Kipf et al.): "
            "the cached path must return the identical pairs at a "
            "fraction of the rebuild-per-query wall-clock — >= 5x on the "
            "medium Fig. 9 workload."
        ),
        scale=scale.name,
    )
    from repro.service import SpatialQueryService
    from repro.service.driver import run_serve_workload

    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    overrides = {"backend": options.backend} if options.backend else {}
    for algorithm in REPEATED_PROBE_ALGORITHMS:
        summary = run_serve_workload(
            dataset_a,
            dataset_b,
            scale.large_epsilon,
            algorithm=algorithm,
            probes=REPEATED_PROBE_QUERIES,
            compare_rebuild=True,
            service=SpatialQueryService(capacity=4),
            **overrides,
        )
        common = dict(
            algorithm=summary["algorithm"],
            dataset=dataset_a.name,
            n_a=len(dataset_a),
            n_b=n_b,
            epsilon=scale.large_epsilon,
            node_tests=0,
            filtered=0,
            replicated_entries=0,
            duplicates_suppressed=0,
            dedup_checks=0,
            memory_bytes=0,
            build_seconds=0.0,
            assign_seconds=0.0,
            join_seconds=0.0,
        )
        out.add(
            RunRecord(
                **common,
                result_pairs=summary["rebuild_pairs"],
                comparisons=summary["rebuild_comparisons"],
                total_seconds=summary["rebuild_seconds"],
                extra={
                    "mode": "rebuild",
                    "probes": summary["probes"],
                    "batch": summary["batch"],
                },
            )
        )
        out.add(
            RunRecord(
                **common,
                result_pairs=summary["result_pairs"],
                comparisons=summary["comparisons"],
                total_seconds=summary["serve_seconds"],
                extra={
                    "mode": "cached",
                    "probes": summary["probes"],
                    "batch": summary["batch"],
                    "index_build_seconds": summary["build_seconds"],
                    "warm_queries": summary["warm_queries"],
                    "speedup": summary["speedup"],
                },
            )
        )
    return out


#: Shard counts swept by the serve_load experiment (1 = scatter-gather
#: machinery over a single worker, the overhead floor).
SERVE_LOAD_SHARDS = (1, 2, 4)

#: Query batches issued per shard count, and how many fly concurrently.
SERVE_LOAD_PROBES = 40
SERVE_LOAD_CONCURRENCY = 8


def experiment_serve_load(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Concurrent scatter-gather serving: qps and tail latency per shard count.

    The Figure-9 uniform pair is served through the sharded tier
    (:mod:`repro.serving`) at each :data:`SERVE_LOAD_SHARDS` count:
    build side sharded by the slab cutting, probe batches fanned out
    concurrently and merged scatter-gather.  Every batch's pair set is
    hard-asserted against the single-process service inside the load
    generator, so the qps / p50 / p99 rows can never hide dropped
    pairs.  One row per shard count lands in the benchmark trajectory.
    """
    out = ExperimentResult(
        "serve_load",
        "Sharded serving tier: throughput and tail latency vs shard count",
        notes=(
            "The ROADMAP north star is serving heavy traffic: N shard "
            "workers each own a spatial cut of the build dataset "
            "(two-layer masks keep merges duplicate-free) and an asyncio "
            "router scatter-gathers every probe to its overlapping "
            "shards only.  Parity vs the single-process service is "
            "asserted on every batch."
        ),
        scale=scale.name,
    )
    from repro.serving import run_scatter_workload

    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    overrides = {"backend": options.backend} if options.backend else {}
    for shards in SERVE_LOAD_SHARDS:
        summary = run_scatter_workload(
            list(dataset_a),
            list(dataset_b),
            scale.large_epsilon,
            algorithm="TOUCH",
            shards=shards,
            probes=SERVE_LOAD_PROBES,
            concurrency=SERVE_LOAD_CONCURRENCY,
            **overrides,
        )
        out.add(
            RunRecord(
                algorithm=summary["algorithm"],
                dataset=dataset_a.name,
                n_a=len(dataset_a),
                n_b=n_b,
                epsilon=scale.large_epsilon,
                result_pairs=summary["result_pairs"],
                comparisons=0,
                node_tests=0,
                filtered=0,
                replicated_entries=summary["replicas"] - len(dataset_a),
                duplicates_suppressed=0,
                dedup_checks=0,
                memory_bytes=0,
                build_seconds=summary["build_seconds"],
                assign_seconds=0.0,
                join_seconds=0.0,
                total_seconds=summary["serve_seconds"],
                extra={
                    "mode": "sharded",
                    "shards": shards,
                    "probes": summary["probes"],
                    "batch": summary["batch"],
                    "concurrency": summary["concurrency"],
                    "qps": summary["qps"],
                    "p50_ms": summary["p50_ms"],
                    "p99_ms": summary["p99_ms"],
                    "max_ms": summary["max_ms"],
                    "fanout_avg": summary["fanout_avg"],
                    "parity": summary.get("parity", False),
                },
            )
        )
    return out


# --------------------------------------------------------------------------
# Memory governor — budgeted joins with partition spilling
# --------------------------------------------------------------------------
#: Algorithms tracked by the spill benchmark: the paper's champion and
#: the duplicate-free two-layer join.
SPILL_ALGORITHMS = ("TOUCH", "TwoLayer-500")

#: Budget fractions of the unbudgeted footprint the sweep shrinks to.
SPILL_BUDGET_DIVISORS = (2, 4, 8)


def experiment_bench_spill(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Budgeted joins at shrinking byte budgets, parity hard-asserted.

    For each algorithm the Figure-9 uniform workload runs unbudgeted
    first, then through :class:`~repro.memory.BudgetedSpatialJoin` at
    1/2, 1/4 and 1/8 of the estimated footprint.  Three invariants are
    *asserted*, not reported: every budgeted run returns the baseline's
    exact pair set, every budgeted run actually spills
    (``spilled_partitions > 0`` — otherwise the sweep measures
    nothing), and the per-join spill directory is gone by the time the
    join returns.  Rows carry the spill counters and the wall-clock
    cost of trading memory for disk.
    """
    from repro.joins.base import dimensionality

    out = ExperimentResult(
        "bench_spill",
        "Memory-budgeted joins: spill counters and cost vs byte budget",
        notes=(
            "TOUCH assumes both datasets fit in RAM; the memory governor "
            "removes that assumption by spilling over-budget partitions "
            "to disk and unspilling them in passes (AsterixDB-style "
            "build/probe spill lifecycle).  Pair parity with the "
            "in-memory join is exact at every budget."
        ),
        scale=scale.name,
    )
    overrides = {"backend": options.backend} if options.backend else {}
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    build = inflate(dataset_a, scale.large_epsilon)
    probe = list(dataset_b)
    dim = dimensionality(build, probe)
    for algorithm in SPILL_ALGORITHMS:
        baseline = make_algorithm(algorithm, **overrides).join(build, probe)
        baseline_pairs = baseline.pair_set()
        footprint = make_algorithm(algorithm, **overrides).estimate_bytes(
            len(build), len(probe), dim
        )
        record = record_from_result(
            baseline, dataset_a.name, len(dataset_a), len(dataset_b),
            scale.large_epsilon,
        )
        out.add(record, budget="unbounded", footprint_bytes=footprint)
        for divisor in SPILL_BUDGET_DIVISORS:
            budget = max(1, footprint // divisor)
            joiner = execute.executor(algorithm, overrides, max_bytes=budget)
            result = joiner.join(build, probe)
            if result.pair_set() != baseline_pairs:
                raise AssertionError(
                    f"{algorithm} at budget 1/{divisor} diverges from the "
                    f"unbudgeted join: "
                    f"{len(baseline_pairs - result.pair_set())} missing, "
                    f"{len(result.pair_set() - baseline_pairs)} spurious"
                )
            if result.stats.extra.get("spilled_partitions", 0) <= 0:
                raise AssertionError(
                    f"{algorithm} at budget 1/{divisor} spilled nothing — "
                    "the sweep must exercise the spill path to measure it"
                )
            if joiner.last_spill_dir and Path(joiner.last_spill_dir).exists():
                raise AssertionError(
                    f"{algorithm} at budget 1/{divisor} left spill files "
                    f"behind in {joiner.last_spill_dir}"
                )
            record = record_from_result(
                result, dataset_a.name, len(dataset_a), len(dataset_b),
                scale.large_epsilon,
            )
            out.add(record, budget=f"1/{divisor}", footprint_bytes=footprint)
    return out


#: Algorithms the filter-refine experiment drives the pipeline through —
#: one per index family (the spatial-partitioning hierarchy, a
#: space-partitioner, an index-probe join).
REFINE_ALGORITHMS = ("TOUCH", "PBSM-500", "RTree")


def experiment_filter_refine(scale: Scale, options: RunOptions) -> ExperimentResult:
    """Exact joins over non-point workloads, oracle parity hard-asserted.

    For each shape workload (clustered polygons, linestrings) and each
    algorithm in :data:`REFINE_ALGORITHMS`, the candidate join runs
    filter-only (``geometry="mbr"``) and through the full filter–refine
    pipeline.  Three invariants are *asserted*, not reported: the
    refined pair set equals the brute-force exact-predicate oracle
    (:func:`~repro.validation.brute_force_exact_pairs`), the counter
    identity ``true_hits + exact_tests == candidate_pairs -
    false_hit_prunes`` holds, and the refined set is a subset of the
    candidates.  Rows carry refine selectivity (refined / candidates)
    and the true-hit shortcut rate, so the sweep shows what the exact
    predicate costs on top of the MBR filter.
    """
    from repro.validation import brute_force_exact_pairs

    out = ExperimentResult(
        "filter_refine",
        "Filter-refine exact joins over polygon/linestring workloads",
        notes=(
            "The MBR join is only the filter stage for non-point "
            "geometry; the refine stage evaluates the exact distance "
            "predicate on the candidates, with interior-rectangle "
            "true-hit and MBR-gap false-hit shortcuts bounding the "
            "exact tests.  Every refined pair set is asserted equal to "
            "the brute-force exact oracle."
        ),
        scale=scale.name,
    )
    overrides = {"backend": options.backend} if options.backend else {}
    epsilon = scale.large_epsilon
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    for distribution in SHAPE_DISTRIBUTIONS:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, n_b, scale
        )
        oracle = brute_force_exact_pairs(dataset_a, dataset_b, epsilon)
        for algorithm in REFINE_ALGORITHMS:
            candidates = execute.join(
                make_algorithm(algorithm, **overrides),
                dataset_a, dataset_b, epsilon,
            )
            record = record_from_result(
                candidates, dataset_a.name, len(dataset_a), len(dataset_b),
                epsilon,
            )
            out.add(record, geometry="mbr")

            exact = execute.join(
                make_algorithm(algorithm, **overrides),
                dataset_a, dataset_b, epsilon,
                geometry="exact", backend=options.backend,
            )
            stats = exact.stats
            refined_set = exact.pair_set()
            if refined_set != oracle:
                raise AssertionError(
                    f"{algorithm} on {dataset_a.name} diverges from the "
                    f"exact oracle: {len(oracle - refined_set)} missing, "
                    f"{len(refined_set - oracle)} spurious"
                )
            if not refined_set <= candidates.pair_set():
                raise AssertionError(
                    f"{algorithm} on {dataset_a.name} refined pairs "
                    "outside the candidate set"
                )
            if (
                stats.true_hits + stats.exact_tests
                != stats.candidate_pairs - stats.false_hit_prunes
            ):
                raise AssertionError(
                    f"{algorithm} on {dataset_a.name} breaks the refine "
                    f"counter identity: {stats.true_hits} true hits + "
                    f"{stats.exact_tests} exact tests != "
                    f"{stats.candidate_pairs} candidates - "
                    f"{stats.false_hit_prunes} false-hit prunes"
                )
            record = record_from_result(
                exact, dataset_a.name, len(dataset_a), len(dataset_b),
                epsilon,
            )
            out.add(
                record,
                refine_selectivity=(
                    stats.refined_pairs / stats.candidate_pairs
                    if stats.candidate_pairs
                    else 1.0
                ),
                true_hit_rate=(
                    stats.true_hits / stats.candidate_pairs
                    if stats.candidate_pairs
                    else 0.0
                ),
            )
    return out


# --------------------------------------------------------------------------
# Adaptive optimizer — algorithm="auto" vs the per-workload oracle
# --------------------------------------------------------------------------
#: Explicit variants raced against auto: the tracked headline algorithms
#: plus the finer-grid variants the cost model tends to pick one-shot.
AUTO_ORACLE_ALGORITHMS = (
    "TOUCH", "TwoLayer-500", "PBSM-500", "PBSM-100", "TwoLayer-100",
)

#: Fraction of the oracle's wall-clock auto may exceed before the row is
#: flagged (``within_margin=False``); never an assertion — CI hardware
#: timing is too noisy for a hard gate, and the trajectory script owns
#: the warn-level gating.
AUTO_ORACLE_MARGIN = 0.10


def experiment_auto_oracle(scale: Scale, options: RunOptions) -> ExperimentResult:
    """``algorithm="auto"`` vs every explicit variant, parity asserted.

    For each Figure-9/11 workload auto runs first (its row's
    ``total_seconds`` includes planning — sketching both datasets and
    scoring the registry), then every :data:`AUTO_ORACLE_ALGORITHMS`
    member joins the identical datasets.  Pair-count parity across all
    runs is **hard-asserted** — an optimizer that changes the answer is
    broken, full stop.  Each auto row records the chosen plan, the
    per-workload oracle (the fastest explicit variant of the same run)
    and the auto/oracle wall-clock ratio; ``within_margin`` flags rows
    beyond :data:`AUTO_ORACLE_MARGIN`, reported rather than asserted
    because shared CI hardware makes sub-10% timing a coin flip.
    """
    out = ExperimentResult(
        "auto_oracle",
        'Adaptive optimizer: algorithm="auto" vs the per-workload oracle',
        notes=(
            "The cost model must pick a near-oracle variant from dataset "
            "sketches alone: identical pairs always, wall-clock within "
            f"{AUTO_ORACLE_MARGIN:.0%} of the fastest explicit variant "
            "(planning overhead included in auto's time)."
        ),
        scale=scale.name,
    )
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    for distribution in ("uniform", "clustered"):
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, n_b, scale
        )
        start = time.perf_counter()
        auto_record = run_algorithm(
            "auto", dataset_a, dataset_b, scale.large_epsilon, options=options
        )
        auto_seconds = time.perf_counter() - start
        references = []
        for algorithm in AUTO_ORACLE_ALGORITHMS:
            start = time.perf_counter()
            record = run_algorithm(
                algorithm, dataset_a, dataset_b, scale.large_epsilon,
                options=options,
            )
            wall = time.perf_counter() - start
            if record.result_pairs != auto_record.result_pairs:
                raise AssertionError(
                    f"auto ({auto_record.algorithm}) disagrees with "
                    f"{algorithm} on {distribution}/|B|={n_b}: "
                    f"{auto_record.result_pairs} vs {record.result_pairs} pairs"
                )
            references.append((algorithm, wall, record))
        oracle_name, oracle_seconds, _ = min(references, key=lambda r: r[1])
        ratio = auto_seconds / oracle_seconds if oracle_seconds > 0 else 1.0
        out.add(
            auto_record,
            distribution=distribution,
            mode="auto",
            chosen=auto_record.algorithm,
            auto_seconds=auto_seconds,
            oracle_algorithm=oracle_name,
            oracle_seconds=oracle_seconds,
            oracle_ratio=ratio,
            within_margin=ratio <= 1.0 + AUTO_ORACLE_MARGIN,
        )
        for algorithm, wall, record in references:
            out.add(
                record,
                distribution=distribution,
                mode="explicit",
                wall_seconds=wall,
            )
    return out


#: experiment id → definition, in paper order.
EXPERIMENTS: dict[str, Callable[[Scale, RunOptions], ExperimentResult]] = {
    "table1": experiment_table1,
    "loading": experiment_loading,
    "fig8": experiment_fig8,
    "fig9": experiment_fig9,
    "fig10": experiment_fig10,
    "fig11": experiment_fig11,
    "fig12": experiment_fig12,
    "fig13": experiment_fig13,
    "fig14": experiment_fig14,
    "fig15": experiment_fig15,
    "fig16": experiment_fig16,
    "ablation_localjoin": experiment_ablation_localjoin,
    "ablation_joinorder": experiment_ablation_joinorder,
    "ablation_partitions": experiment_ablation_partitions,
    "ablation_chunked": experiment_ablation_chunked,
    "two_layer": experiment_two_layer,
    "parallel_scaling": experiment_parallel_scaling,
    "repeated_probe": experiment_repeated_probe,
    "serve_load": experiment_serve_load,
    "bench_spill": experiment_bench_spill,
    "filter_refine": experiment_filter_refine,
    "auto_oracle": experiment_auto_oracle,
}


def run_experiment(
    name: str,
    scale: Scale | str | None = None,
    options: RunOptions | None = None,
) -> ExperimentResult:
    """Run one experiment by id at the given (or ``REPRO_SCALE``) scale.

    ``options`` (the CLI's ``--backend`` / ``--workers`` / ``--decompose``
    / ``--max-bytes`` / ``--geometry`` flags) is resolved
    once over :meth:`RunOptions.from_env` and handed to the definition,
    which passes it to every :func:`run_algorithm` join.  Experiments
    that pick their own engine per run (``parallel_scaling``,
    ``two_layer``, ``repeated_probe``, ``serve_load``, ``bench_spill``,
    ``filter_refine``) read only ``options.backend``.
    ``geometry="exact"`` routes joins through the filter–refine
    pipeline, which requires shape-carrying datasets — experiments over
    MBR-only workloads raise :class:`~repro.refine.MissingShapesError`
    naming the dataset.  The resolved backend is recorded as
    :attr:`ExperimentResult.backend`.
    """
    if not isinstance(scale, Scale):
        scale = current_scale(scale)
    try:
        definition = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    options = (options or RunOptions()).over(RunOptions.from_env())
    result = definition(scale, options)
    result.backend = options.backend
    return result
