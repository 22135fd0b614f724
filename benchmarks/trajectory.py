"""Benchmark-trajectory runner: record the perf curve, gate regressions.

Runs the medium Figure-9 (uniform) and Figure-11 (clustered) workloads
for the headline algorithms, the ``repeated_probe`` build-once/
probe-many workload, the ``serve_load`` sharded scatter-gather
workload (one row per shard count, qps + p50/p99 in the row extras),
the ``bench_spill`` memory-governor workload (budgeted joins at a
quarter of the estimated footprint, spill counters in the row extras),
the ``filter_refine`` non-point workload (mbr vs exact TOUCH on
the polygon/linestring datasets, refine counters in the row extras),
and the ``auto_oracle`` workload (``algorithm="auto"`` raced against
the fastest explicit variant, pair parity hard-asserted, the
auto/oracle ratio warn-gated), and writes a flat ``BENCH_PR<N>.json``
artifact at the repo root — the
committed point of this PR's performance trajectory.  Row schema
(stable across PRs, so points are comparable)::

    {"algorithm": ..., "backend": ..., "workload": ..., "seconds": ..., "pairs": ...}

When an earlier ``BENCH_*.json`` point exists, matching rows are
compared and any slowdown beyond ``--threshold`` (default 25%) is
reported as a **warning** — CI hardware varies, so timing never hard-
fails unless ``--strict`` is given.  Pair-count mismatches against the
previous point are warned about loudly too: same workload, same scale,
different pairs means a correctness change, not noise.

Usage::

    python benchmarks/trajectory.py --out BENCH_PR7.json
    python benchmarks/trajectory.py --scale smoke --quick   # CI-less dry run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

from repro.bench.config import SCALES, RunOptions
from repro.bench.runner import run_algorithm
from repro.bench.workloads import synthetic_pair
from repro.service.driver import run_serve_workload

#: The headline algorithms whose trajectory we track: the paper's
#: champion, the duplicate-free two-layer join, and the strongest
#: replicating baseline.
TRAJECTORY_ALGORITHMS = ("TOUCH", "TwoLayer-500", "PBSM-500")

#: (figure, distribution) pairs of the tracked one-shot workloads.
TRAJECTORY_FIGURES = (("fig9", "uniform"), ("fig11", "clustered"))

#: Queries issued against the cached index in the serve workload (the
#: acceptance workload probes 100 times).
SERVE_PROBES = 100

#: The serve workload must beat rebuild-per-query by this factor on the
#: medium workload; below it the script warns (or fails with --strict).
MIN_SERVE_SPEEDUP = 5.0

#: Shard counts tracked for the scatter-gather serving tier (two points
#: minimum, so the trajectory records fan-out scaling, not one sample).
SERVE_LOAD_SHARDS = (1, 2, 4)

#: Batches issued / kept in flight per serve_load shard count.
SERVE_LOAD_PROBES = 40
SERVE_LOAD_CONCURRENCY = 8

#: Budget fractions of the estimated footprint tracked by the spill rows.
SPILL_DIVISORS = (4,)

#: Shape workloads tracked by the filter-refine rows (mbr = filter
#: only, exact = filter + refinement; the counter identity is asserted).
FILTER_REFINE_DISTRIBUTIONS = ("polygons", "lines")

#: Oracle pool raced against ``algorithm="auto"``: the tracked headline
#: algorithms plus the finer-grid variants the cost model tends to pick
#: for one-shot workloads.
AUTO_ORACLE_POOL = TRAJECTORY_ALGORITHMS + ("PBSM-100", "TwoLayer-100")

#: auto must land within this fraction of the per-workload oracle (the
#: fastest pool member, timed in the same run); beyond it the script
#: warns (or fails with --strict).  The margin absorbs auto's real
#: planning cost — fingerprinting and sketching both datasets — plus
#: ordinary timing noise.
AUTO_ORACLE_MARGIN = 0.10


def run_figures(scale, backend: str | None) -> list[dict]:
    """One-shot joins: one row per (figure, algorithm) at one |B| step."""
    rows = []
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    for figure, distribution in TRAJECTORY_FIGURES:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, n_b, scale
        )
        workload = f"{figure}/{distribution}/a{scale.large_a}-b{n_b}/eps{scale.large_epsilon:g}"
        for algorithm in TRAJECTORY_ALGORITHMS:
            overrides = {"backend": backend} if backend else {}
            start = time.perf_counter()
            record = run_algorithm(
                algorithm, dataset_a, dataset_b, scale.large_epsilon, **overrides
            )
            wall = time.perf_counter() - start
            rows.append(
                {
                    "algorithm": record.algorithm,
                    "backend": record.extra.get("backend", backend or "auto"),
                    "workload": workload,
                    "seconds": wall,
                    "pairs": record.result_pairs,
                }
            )
            print(
                f"  {record.algorithm:14s} {workload:42s} "
                f"{wall:8.3f}s  pairs={record.result_pairs}"
            )
    return rows


def run_repeated_probe(scale, backend: str | None) -> tuple[list[dict], list[str]]:
    """The serve workload: cached-index and rebuild-per-query rows."""
    rows: list[dict] = []
    warnings: list[str] = []
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    overrides = {"backend": backend} if backend else {}
    for algorithm in ("TOUCH", "TwoLayer-500"):
        summary = run_serve_workload(
            dataset_a,
            dataset_b,
            scale.large_epsilon,
            algorithm=algorithm,
            probes=SERVE_PROBES,
            compare_rebuild=True,  # hard-asserts pair parity per batch
            **overrides,
        )
        workload = (
            f"repeated_probe/uniform/a{scale.large_a}-b{n_b}"
            f"/eps{scale.large_epsilon:g}/q{summary['probes']}"
        )
        resolved = backend or "auto"
        rows.append(
            {
                "algorithm": summary["algorithm"],
                "backend": resolved,
                "workload": f"{workload}/cached",
                "seconds": summary["serve_seconds"],
                "pairs": summary["result_pairs"],
            }
        )
        rows.append(
            {
                "algorithm": summary["algorithm"],
                "backend": resolved,
                "workload": f"{workload}/rebuild",
                "seconds": summary["rebuild_seconds"],
                "pairs": summary["rebuild_pairs"],
            }
        )
        print(
            f"  {summary['algorithm']:14s} {workload:42s} cached "
            f"{summary['serve_seconds']:.3f}s vs rebuild "
            f"{summary['rebuild_seconds']:.3f}s -> {summary['speedup']:.1f}x "
            "(parity asserted)"
        )
        if scale.name != "smoke" and summary["speedup"] < MIN_SERVE_SPEEDUP:
            warnings.append(
                f"{summary['algorithm']} serve speedup {summary['speedup']:.1f}x "
                f"is below the {MIN_SERVE_SPEEDUP:g}x build-once/probe-many target"
            )
    return rows, warnings


def run_serve_load(scale, backend: str | None) -> list[dict]:
    """The sharded tier: one row per shard count, parity-asserted.

    ``seconds`` is the concurrent wall-clock of the whole batch set;
    qps and the latency percentiles ride in the row's extra keys (the
    comparison gate only reads ``seconds`` / ``pairs``, so the schema
    stays stable).
    """
    from repro.serving import run_scatter_workload

    rows: list[dict] = []
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    overrides = {"backend": backend} if backend else {}
    resolved = backend or "auto"
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
        workload = (
            f"serve_load/uniform/a{scale.large_a}-b{n_b}"
            f"/eps{scale.large_epsilon:g}/shards{shards}"
        )
        rows.append(
            {
                "algorithm": summary["algorithm"],
                "backend": resolved,
                "workload": workload,
                "seconds": summary["serve_seconds"],
                "pairs": summary["result_pairs"],
                "qps": summary["qps"],
                "p50_ms": summary["p50_ms"],
                "p99_ms": summary["p99_ms"],
            }
        )
        print(
            f"  {summary['algorithm']:14s} {workload:42s} "
            f"{summary['qps']:7.1f} qps  p50 {summary['p50_ms']:.2f} ms  "
            f"p99 {summary['p99_ms']:.2f} ms (parity asserted)"
        )
    return rows


def run_spill(scale, backend: str | None) -> list[dict]:
    """Memory-governor rows: budgeted joins at 1/4 footprint, parity asserted.

    ``seconds`` is the budgeted join's wall-clock (the memory/disk
    trade's cost); spill counters ride in the row extras.  Parity with
    the unbudgeted join is asserted — a spill row that drops pairs must
    never land in the trajectory.
    """
    from repro.datasets.transform import inflate
    from repro.joins.base import dimensionality
    from repro.joins.registry import make_algorithm
    from repro.memory import BudgetedSpatialJoin

    rows: list[dict] = []
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    build = inflate(dataset_a, scale.large_epsilon)
    probe = list(dataset_b)
    dim = dimensionality(build, probe)
    overrides = {"backend": backend} if backend else {}
    resolved = backend or "auto"
    for algorithm in ("TOUCH", "TwoLayer-500"):
        baseline = make_algorithm(algorithm, **overrides).join(build, probe)
        footprint = make_algorithm(algorithm, **overrides).estimate_bytes(
            len(build), len(probe), dim
        )
        for divisor in SPILL_DIVISORS:
            budget = max(1, footprint // divisor)
            joiner = BudgetedSpatialJoin(
                lambda: make_algorithm(algorithm, **overrides),
                max_bytes=budget,
            )
            start = time.perf_counter()
            result = joiner.join(build, probe)
            wall = time.perf_counter() - start
            if result.pair_set() != baseline.pair_set():
                raise AssertionError(
                    f"budgeted {algorithm} at 1/{divisor} footprint diverges "
                    "from the unbudgeted join"
                )
            extra = result.stats.extra
            if extra.get("spilled_partitions", 0) <= 0:
                raise AssertionError(
                    f"budgeted {algorithm} at 1/{divisor} footprint spilled "
                    "nothing; the row would not measure the spill path"
                )
            workload = (
                f"bench_spill/uniform/a{scale.large_a}-b{n_b}"
                f"/eps{scale.large_epsilon:g}/budget1-{divisor}"
            )
            rows.append(
                {
                    "algorithm": algorithm,
                    "backend": resolved,
                    "workload": workload,
                    "seconds": wall,
                    "pairs": len(result.pairs),
                    "budget_bytes": budget,
                    "spilled_partitions": extra["spilled_partitions"],
                    "spill_bytes_written": extra["spill_bytes_written"],
                    "unspills": extra["unspills"],
                    "spill_passes": extra["spill_passes"],
                }
            )
            print(
                f"  {algorithm:14s} {workload:42s} "
                f"{wall:8.3f}s  pairs={len(result.pairs)} "
                f"spilled={extra['spilled_partitions']} "
                f"unspills={extra['unspills']} (parity asserted)"
            )
    return rows


def run_filter_refine(scale, backend: str | None) -> list[dict]:
    """Filter-refine rows: mbr vs exact TOUCH on the shape workloads.

    The exact rows carry the refine counters; the counter identity
    ``true_hits + exact_tests == candidate_pairs - false_hit_prunes``
    is asserted (full oracle parity is pinned by the test suite and the
    ``refine-parity`` CI job, which this script does not repeat at
    trajectory scale).
    """
    rows = []
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    for distribution in FILTER_REFINE_DISTRIBUTIONS:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, n_b, scale
        )
        for geometry in ("mbr", "exact"):
            workload = (
                f"filter_refine/{distribution}/a{scale.large_a}-b{n_b}"
                f"/eps{scale.large_epsilon:g}/{geometry}"
            )
            overrides = {"backend": backend} if backend else {}
            start = time.perf_counter()
            record = run_algorithm(
                "TOUCH", dataset_a, dataset_b, scale.large_epsilon,
                options=RunOptions(geometry=geometry), **overrides,
            )
            wall = time.perf_counter() - start
            row = {
                "algorithm": record.algorithm,
                "backend": record.extra.get("backend", backend or "auto"),
                "workload": workload,
                "seconds": wall,
                "pairs": record.result_pairs,
            }
            if geometry == "exact":
                extra = record.extra
                if (
                    extra["true_hits"] + extra["exact_tests"]
                    != extra["candidate_pairs"] - extra["false_hit_prunes"]
                ):
                    raise AssertionError(
                        f"refine counter identity broken on {workload}: "
                        f"{extra['true_hits']} + {extra['exact_tests']} != "
                        f"{extra['candidate_pairs']} - "
                        f"{extra['false_hit_prunes']}"
                    )
                row.update(
                    candidate_pairs=extra["candidate_pairs"],
                    false_hit_prunes=extra["false_hit_prunes"],
                    true_hits=extra["true_hits"],
                    exact_tests=extra["exact_tests"],
                    refine_seconds=extra["refine_seconds"],
                )
            rows.append(row)
            print(
                f"  {record.algorithm:14s} {workload:42s} "
                f"{wall:8.3f}s  pairs={record.result_pairs}"
                + (
                    f" cands={row['candidate_pairs']} "
                    f"true_hits={row['true_hits']} (identity asserted)"
                    if geometry == "exact"
                    else ""
                )
            )
    return rows


def run_auto_oracle(
    scale,
    backend: str | None,
    cached_oracle: "dict[str, float] | None" = None,
) -> tuple[list[dict], list[str]]:
    """Race ``algorithm="auto"`` against a per-workload oracle.

    One-shot Fig-9/Fig-11: auto joins each workload (its wall-clock
    includes planning), then every :data:`AUTO_ORACLE_POOL` member joins
    the identical datasets; pair counts are **asserted identical**
    across all runs, and auto is warn-gated within
    :data:`AUTO_ORACLE_MARGIN` of the fastest member.  Repeated-probe:
    the serve loop runs with auto end-to-end — ``compare_rebuild``
    hard-asserts pair-set parity per batch — gated against the best
    cached serve timing (``cached_oracle`` maps algorithm → cached
    seconds from this run's ``repeated_probe`` rows; without one, a
    TOUCH serve pass is timed as the reference).
    """
    rows: list[dict] = []
    warnings: list[str] = []
    overrides = {"backend": backend} if backend else {}
    resolved = backend or "auto"
    n_b = scale.large_b_steps[len(scale.large_b_steps) // 2]
    for figure, distribution in TRAJECTORY_FIGURES:
        dataset_a, dataset_b = synthetic_pair(
            distribution, scale.large_a, n_b, scale
        )
        workload = (
            f"auto_oracle/{figure}/{distribution}"
            f"/a{scale.large_a}-b{n_b}/eps{scale.large_epsilon:g}"
        )
        start = time.perf_counter()
        record = run_algorithm(
            "auto", dataset_a, dataset_b, scale.large_epsilon, **overrides
        )
        auto_seconds = time.perf_counter() - start
        chosen = record.algorithm
        auto_pairs = record.result_pairs
        oracle_name, oracle_seconds = "", float("inf")
        for algorithm in AUTO_ORACLE_POOL:
            start = time.perf_counter()
            reference = run_algorithm(
                algorithm, dataset_a, dataset_b, scale.large_epsilon, **overrides
            )
            wall = time.perf_counter() - start
            if reference.result_pairs != auto_pairs:
                raise AssertionError(
                    f"auto ({chosen}) disagrees with {algorithm} on "
                    f"{workload}: {auto_pairs} vs {reference.result_pairs} pairs"
                )
            if wall < oracle_seconds:
                oracle_name, oracle_seconds = algorithm, wall
        ratio = auto_seconds / oracle_seconds if oracle_seconds > 0 else 1.0
        rows.append(
            {
                # Keyed as "auto" so the cross-PR comparison tracks the
                # optimizer itself even when its choice changes.
                "algorithm": "auto",
                "backend": resolved,
                "workload": workload,
                "seconds": auto_seconds,
                "pairs": auto_pairs,
                "chosen": chosen,
                "oracle_algorithm": oracle_name,
                "oracle_seconds": oracle_seconds,
                "oracle_ratio": ratio,
            }
        )
        print(
            f"  {'auto->' + chosen:14s} {workload:42s} "
            f"{auto_seconds:8.3f}s  oracle {oracle_name} "
            f"{oracle_seconds:.3f}s ({ratio:.2f}x, parity asserted)"
        )
        if scale.name != "smoke" and ratio > 1.0 + AUTO_ORACLE_MARGIN:
            warnings.append(
                f"auto ({chosen}) on {workload} took {ratio:.2f}x the oracle "
                f"{oracle_name} ({auto_seconds:.3f}s vs {oracle_seconds:.3f}s); "
                f"margin is {AUTO_ORACLE_MARGIN:.0%}"
            )

    # Repeated probes: auto through the serve loop, parity per batch.
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    summary = run_serve_workload(
        dataset_a,
        dataset_b,
        scale.large_epsilon,
        algorithm="auto",
        probes=SERVE_PROBES,
        compare_rebuild=True,  # hard-asserts pair-set parity per batch
        **overrides,
    )
    workload = (
        f"auto_oracle/repeated_probe/uniform/a{scale.large_a}-b{n_b}"
        f"/eps{scale.large_epsilon:g}/q{summary['probes']}"
    )
    oracle_name, oracle_seconds = "", float("inf")
    for name, seconds in (cached_oracle or {}).items():
        if seconds < oracle_seconds:
            oracle_name, oracle_seconds = name, seconds
    if not oracle_name:
        reference = run_serve_workload(
            dataset_a,
            dataset_b,
            scale.large_epsilon,
            algorithm="TOUCH",
            probes=SERVE_PROBES,
            **overrides,
        )
        oracle_name, oracle_seconds = "TOUCH", reference["serve_seconds"]
    ratio = (
        summary["serve_seconds"] / oracle_seconds if oracle_seconds > 0 else 1.0
    )
    rows.append(
        {
            "algorithm": "auto",
            "backend": resolved,
            "workload": workload,
            "seconds": summary["serve_seconds"],
            "pairs": summary["result_pairs"],
            "chosen": summary["algorithm"],
            "oracle_algorithm": oracle_name,
            "oracle_seconds": oracle_seconds,
            "oracle_ratio": ratio,
        }
    )
    print(
        f"  {'auto->' + summary['algorithm']:14s} {workload:42s} "
        f"{summary['serve_seconds']:8.3f}s  oracle {oracle_name} "
        f"{oracle_seconds:.3f}s ({ratio:.2f}x, parity asserted)"
    )
    if scale.name != "smoke" and ratio > 1.0 + AUTO_ORACLE_MARGIN:
        warnings.append(
            f"auto ({summary['algorithm']}) on {workload} took {ratio:.2f}x "
            f"the cached oracle {oracle_name} ({summary['serve_seconds']:.3f}s "
            f"vs {oracle_seconds:.3f}s); margin is {AUTO_ORACLE_MARGIN:.0%}"
        )
    return rows, warnings


def previous_point(
    root: Path, out: Path, current_pr: int | None
) -> "tuple[str, dict] | None":
    """The latest committed ``BENCH_PR<N>.json`` from a *previous* PR.

    With ``current_pr`` known, only strictly lower-numbered points
    qualify — this PR's own committed point must never serve as its
    baseline (it was recorded on different hardware, so comparing a
    fresh run against it would gate on machine deltas, not code).
    """
    candidates = []
    for path in root.glob("BENCH_*.json"):
        if path.resolve() == out.resolve():
            continue
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match is None:
            continue
        order = int(match.group(1))
        if current_pr is not None and order >= current_pr:
            continue
        candidates.append((order, path))
    if not candidates:
        return None
    _, path = max(candidates)
    try:
        return path.name, json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"WARNING: could not read previous point {path.name}: {error}")
        return None


def compare_points(rows: list[dict], previous: dict, threshold: float) -> list[str]:
    """Warnings for rows slower than (or disagreeing with) the last point.

    The previous point is committed data from another PR on another
    machine — a missing row, a missing key, or a malformed entry must
    never crash the gate.  Anything that cannot be compared prints a
    "no baseline" note and the run continues.
    """
    warnings = []
    old_rows: dict[tuple, dict] = {}
    previous_rows = previous.get("rows") if isinstance(previous, dict) else None
    for row in previous_rows or []:
        try:
            old_rows[(row["algorithm"], row["backend"], row["workload"])] = row
        except (TypeError, KeyError):
            print("WARNING: malformed row in previous point; ignoring it")
    for row in rows:
        key = (row["algorithm"], row["backend"], row["workload"])
        label = f"{row['algorithm']} [{row['backend']}] {row['workload']}"
        old = old_rows.get(key)
        if old is None:
            print(f"no baseline for {label}; skipping comparison")
            continue
        old_pairs = old.get("pairs")
        old_seconds = old.get("seconds")
        if not isinstance(old_seconds, (int, float)) or isinstance(
            old_seconds, bool
        ):
            print(
                f"no baseline timing for {label} (previous row lacks "
                "'seconds'); skipping comparison"
            )
            continue
        if old_pairs is not None and row["pairs"] != old_pairs:
            warnings.append(
                f"{row['algorithm']} {row['workload']}: pairs changed "
                f"{old_pairs} -> {row['pairs']} — same workload, different "
                "result; investigate before trusting any timing"
            )
        if old_seconds > 0:
            slowdown = row["seconds"] / old_seconds - 1.0
            if slowdown > threshold:
                warnings.append(
                    f"{row['algorithm']} {row['workload']}: {slowdown:+.0%} "
                    f"({old_seconds:.3f}s -> {row['seconds']:.3f}s) exceeds "
                    f"the {threshold:.0%} regression threshold"
                )
    return warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--backend", default=None, help="geometry backend override")
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_PR10.json"), help="trajectory point to write"
    )
    parser.add_argument(
        "--compare-root",
        type=Path,
        default=None,
        help="directory holding previous BENCH_*.json points (default: --out's directory)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional slowdown vs the previous point that triggers a warning",
    )
    parser.add_argument(
        "--pr",
        type=int,
        default=None,
        help="this point's PR number (default: parsed from --out); only "
        "strictly older BENCH_PR<N>.json points are used as the baseline",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the repeated_probe and serve_load workloads (fast "
        "smoke of the runner)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any regression warning instead of warning only",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    print(f"benchmark trajectory @ scale={scale.name}")
    rows = run_figures(scale, args.backend)
    warnings: list[str] = []
    if not args.quick:
        probe_rows, probe_warnings = run_repeated_probe(scale, args.backend)
        rows.extend(probe_rows)
        warnings.extend(probe_warnings)
        rows.extend(run_serve_load(scale, args.backend))
        rows.extend(run_spill(scale, args.backend))
        rows.extend(run_filter_refine(scale, args.backend))
        cached_oracle = {
            row["algorithm"]: row["seconds"]
            for row in probe_rows
            if row["workload"].endswith("/cached")
        }
        auto_rows, auto_warnings = run_auto_oracle(
            scale, args.backend, cached_oracle
        )
        rows.extend(auto_rows)
        warnings.extend(auto_warnings)

    point = {
        "schema": "bench-trajectory/v1",
        "scale": scale.name,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    current_pr = args.pr
    if current_pr is None:
        match = re.match(r"BENCH_PR(\d+)", args.out.name)
        current_pr = int(match.group(1)) if match else None
    root = args.compare_root or args.out.parent
    previous = previous_point(root, args.out, current_pr)
    if previous is not None:
        name, data = previous
        print(f"comparing against previous trajectory point {name}")
        warnings.extend(compare_points(rows, data, args.threshold))
    else:
        print("no previous-PR BENCH_PR<N>.json point found; recording a first one")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {args.out}")

    for warning in warnings:
        print(f"WARNING: {warning}")
    if warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
