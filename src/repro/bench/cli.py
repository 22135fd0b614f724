"""Command-line harness: regenerate any table/figure of the paper.

Usage::

    repro-touch list
    repro-touch run fig9 --scale small
    repro-touch run table1 --json results/table1.json
    repro-touch all --scale smoke --out-dir results/

(Equivalently: ``python -m repro.bench.cli ...``.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.config import DEFAULT_SCALE, GEOMETRY_MODES, SCALES, RunOptions
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import print_experiment, save_json
from repro.geometry.columnar import BACKENDS, validate_backend
from repro.joins.registry import available
from repro.parallel.decompose import DECOMPOSE_KINDS

__all__ = ["main", "build_parser"]


def _backend_arg(value: str) -> str:
    """``--backend`` parser: the library's own message names the value."""
    try:
        return validate_backend(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro-touch",
        description="Regenerate the tables and figures of the TOUCH paper (SIGMOD'13).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scales")

    backend_kwargs = dict(
        type=_backend_arg,
        choices=BACKENDS,
        default=None,
        help="geometry backend for every join of the experiment "
        "(object | columnar | auto, which is columnar); algorithms "
        "without a columnar port run unchanged — used for backend "
        "ablation sweeps",
    )
    workers_kwargs = dict(
        type=int,
        default=None,
        metavar="N",
        help="run every join through the multiprocess engine with N "
        "worker processes (the paper's §3 per-core decomposition); "
        "omit for sequential execution",
    )
    decompose_kwargs = dict(
        choices=DECOMPOSE_KINDS,
        default=None,
        help="universe cutting for --workers: contiguous 1-D slabs "
        "(default, the paper's BlueGene/P layout) or a 2-D tile grid",
    )
    max_bytes_kwargs = dict(
        type=int,
        default=None,
        metavar="BYTES",
        help="memory budget per join (env REPRO_MAX_BYTES): joins whose "
        "priced footprint exceeds it spill over-budget partitions to "
        "disk and join them in passes; pair sets are identical to the "
        "unbudgeted run",
    )
    geometry_kwargs = dict(
        choices=GEOMETRY_MODES,
        default=None,
        help="join geometry (env REPRO_GEOMETRY): mbr (default) joins "
        "bounding boxes only; exact runs the filter-refine pipeline — "
        "MBR candidates refined against true polygon/linestring "
        "extents — and requires a shape-carrying dataset (polygons | "
        "lines | neuro)",
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", choices=sorted(SCALES), default=None)
    run.add_argument("--backend", **backend_kwargs)
    run.add_argument("--workers", **workers_kwargs)
    run.add_argument("--decompose", **decompose_kwargs)
    run.add_argument("--max-bytes", **max_bytes_kwargs)
    run.add_argument("--geometry", **geometry_kwargs)
    run.add_argument("--json", type=Path, default=None, help="also write rows as JSON")
    run.add_argument(
        "--chart",
        metavar="METRIC",
        default=None,
        help="also render an ASCII chart of METRIC vs |B| per algorithm "
        "(e.g. total_seconds, comparisons, memory_bytes)",
    )

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--scale", choices=sorted(SCALES), default=None)
    everything.add_argument("--backend", **backend_kwargs)
    everything.add_argument("--workers", **workers_kwargs)
    everything.add_argument("--decompose", **decompose_kwargs)
    everything.add_argument("--max-bytes", **max_bytes_kwargs)
    everything.add_argument("--geometry", **geometry_kwargs)
    everything.add_argument(
        "--out-dir", type=Path, default=None, help="write one JSON per experiment"
    )

    explain_cmd = sub.add_parser(
        "explain",
        help="show the optimizer's plan for a workload without running "
        "the join (what algorithm=auto would execute, with the full "
        "scored candidate list)",
    )
    explain_cmd.add_argument("--scale", choices=sorted(SCALES), default=None)
    explain_cmd.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="named workload dataset (uniform | gaussian | clustered | "
        "polygons | lines | neuro)",
    )
    explain_cmd.add_argument(
        "--distribution",
        choices=("uniform", "gaussian", "clustered"),
        default="uniform",
        help="synthetic workload distribution when --dataset is omitted",
    )
    explain_cmd.add_argument(
        "--algorithm",
        default="auto",
        choices=[info.name for info in available()] + ["auto"],
        help="auto (default) lets the optimizer choose; a concrete name "
        "pins the algorithm but still shows every candidate's score",
    )
    explain_cmd.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="distance threshold (default: scale's eps)",
    )
    explain_cmd.add_argument("--backend", **backend_kwargs)
    explain_cmd.add_argument("--workers", **workers_kwargs)
    explain_cmd.add_argument("--decompose", **decompose_kwargs)
    explain_cmd.add_argument("--max-bytes", **max_bytes_kwargs)
    explain_cmd.add_argument("--geometry", **geometry_kwargs)
    explain_cmd.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="candidates shown in the score table (all are in --json)",
    )
    explain_cmd.add_argument(
        "--json", type=Path, default=None, help="also write the plan as JSON"
    )

    serve = sub.add_parser(
        "serve",
        help="drive the build-once/probe-many query service on a "
        "repeated-query workload (add --shards for the scatter-gather "
        "tier, --port to keep serving)",
    )
    serve.add_argument("--scale", choices=sorted(SCALES), default=None)
    serve.add_argument(
        "--dataset",
        default=None,
        metavar="NAME",
        help="named workload dataset (uniform | gaussian | clustered | "
        "polygons | lines | neuro); unknown names list the registry "
        "instead of crashing",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve through N shard-worker processes with scatter-gather "
        "probe routing (omit for the single-process service)",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="C",
        help="probe batches kept in flight against the sharded tier",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help="after loading the dataset, keep serving the JSON-lines "
        "protocol on this port until interrupted (implies --shards 2 "
        "unless given)",
    )
    serve.add_argument(
        "--algorithm",
        default="TOUCH",
        choices=[info.name for info in available()] + ["auto"],
        help="join algorithm whose index the service builds and probes "
        "(auto lets the cost-model optimizer choose per workload)",
    )
    serve.add_argument(
        "--distribution",
        choices=("uniform", "gaussian", "clustered"),
        default="uniform",
        help="synthetic workload distribution (Figure 9/10/11 data)",
    )
    serve.add_argument(
        "--probes",
        type=int,
        default=100,
        metavar="N",
        help="number of query batches issued against the cached index",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="M",
        help="objects per query batch (default: |B| / probes)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=None, help="distance threshold (default: scale's eps)"
    )
    serve.add_argument(
        "--shard-layout",
        choices=DECOMPOSE_KINDS,
        default="slabs",
        help="universe cutting for --shards: contiguous 1-D slabs or a "
        "2-D tile grid",
    )
    serve.add_argument("--backend", **backend_kwargs)
    serve.add_argument("--geometry", **geometry_kwargs)
    serve.add_argument(
        "--compare-rebuild",
        action="store_true",
        help="also join every batch with rebuild-per-query one-shot "
        "instances, hard-assert pair parity and report the speedup",
    )
    serve.add_argument("--json", type=Path, default=None, help="also write the summary as JSON")
    return parser


def _options(args) -> RunOptions:
    """The one :class:`RunOptions` a ``run`` / ``all`` / ``explain`` call
    builds from its flags."""
    return RunOptions(
        backend=args.backend,
        workers=args.workers,
        decompose=args.decompose,
        max_bytes=args.max_bytes,
        geometry=args.geometry,
    )


def _cmd_list() -> int:
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print(f"scales: {', '.join(SCALES)} (default: {DEFAULT_SCALE}, env REPRO_SCALE)")
    return 0


def _cmd_run(
    experiment: str,
    scale: str | None,
    json_path: Path | None,
    chart_metric: str | None,
    options: RunOptions,
) -> int:
    from repro.refine import MissingShapesError

    try:
        result = run_experiment(experiment, scale, options)
    except MissingShapesError as exc:
        # ``--geometry exact`` over an MBR-only workload: name the
        # dataset and exit cleanly instead of dumping a traceback, the
        # same contract as ``serve`` with an unknown dataset name.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print_experiment(result)
    if chart_metric is not None:
        from repro.bench.charts import chart_for_experiment

        print(
            chart_for_experiment(
                result.rows,
                y_key=chart_metric,
                title=f"{result.title} — {chart_metric}",
            )
        )
        print()
    if json_path is not None:
        save_json(result, json_path)
        print(f"wrote {json_path}")
    return 0


def _cmd_all(scale: str | None, out_dir: Path | None, options: RunOptions) -> int:
    from repro.refine import MissingShapesError

    for name in EXPERIMENTS:
        try:
            result = run_experiment(name, scale, options)
        except MissingShapesError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print_experiment(result)
        if out_dir is not None:
            save_json(result, out_dir / f"{name}.json")
    return 0


def _serve_forever(service, dataset_name: str, port: int) -> int:
    """Keep a sharded tier answering the JSON-lines protocol on a port."""
    import asyncio
    import time

    from repro.serving.router import serve_front

    server = asyncio.run_coroutine_threadsafe(
        serve_front(service.router, port=port), service._loop
    ).result()
    host, bound_port = server.sockets[0].getsockname()[:2]
    print(
        f"serving dataset {dataset_name!r} on {host}:{bound_port} "
        f"({service.cluster.shards} shards) — Ctrl-C to stop"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _cmd_serve_sharded(args, dataset_a, dataset_b, epsilon, overrides) -> int:
    """Scatter-gather path of ``serve``: boot shards, drive or listen."""
    import json

    from repro.serving import ShardedQueryService, run_scatter_workload

    shards = args.shards or 2
    if args.port is not None:
        with ShardedQueryService(
            shards=shards, kind=args.shard_layout, backend=args.backend
        ) as service:
            service.register(args.dataset or args.distribution, list(dataset_a))
            return _serve_forever(
                service, args.dataset or args.distribution, args.port
            )
    summary = run_scatter_workload(
        list(dataset_a),
        list(dataset_b),
        epsilon,
        algorithm=args.algorithm,
        shards=shards,
        kind=args.shard_layout,
        probes=args.probes,
        batch=args.batch,
        concurrency=args.concurrency,
        geometry=args.geometry,
        **overrides,
    )
    print(
        f"== sharded query service: {summary['algorithm']} x {shards} shards "
        f"({summary['kind']}, eps={epsilon}) =="
    )
    print(
        f"   {summary['n_build']} build objects -> {summary['replicas']} shard "
        f"replicas; {summary['probes']} batches of {summary['batch']} at "
        f"concurrency {summary['concurrency']}"
    )
    print(
        f"   {summary['result_pairs']} pairs, {summary['qps']:.1f} qps, "
        f"p50 {summary['p50_ms']:.2f} ms, p99 {summary['p99_ms']:.2f} ms, "
        f"avg fan-out {summary['fanout_avg']:.2f} shards/probe"
    )
    if summary.get("parity"):
        print("   pair parity vs single-process service: asserted on every batch")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=2, default=str))
        print(f"wrote {args.json}")
    return 0


def _cmd_explain(args) -> int:
    """Print the optimizer's plan for a named workload, execution-free."""
    import json

    from repro.bench.config import current_scale
    from repro.bench.runner import explain
    from repro.bench.workloads import named_pair

    scale = current_scale(args.scale)
    try:
        dataset_a, dataset_b = named_pair(
            args.dataset or args.distribution, scale
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    epsilon = args.epsilon if args.epsilon is not None else scale.large_epsilon
    plan = explain(
        args.algorithm, dataset_a, dataset_b, epsilon, options=_options(args)
    )
    name = args.dataset or args.distribution
    print(
        f"== plan: {name} a{plan.sketch_a.n}-b{plan.sketch_b.n} "
        f"(scale={scale.name}, eps={epsilon}) =="
    )
    execution = (
        f"{plan.workers} workers over {plan.decompose}"
        if plan.workers
        else "sequential"
    )
    print(f"   choose {plan.algorithm} [{plan.backend}], {execution}")
    print(
        f"   est {plan.cost_seconds:.4g}s, ~{plan.est_result_pairs:.4g} "
        f"result pairs (calibration {plan.calibration})"
    )
    print(f"   {plan.reason}")
    if plan.pinned:
        print(f"   pinned by caller: {', '.join(plan.pinned)}")
    shown = plan.candidates[: args.top] if args.top > 0 else plan.candidates
    print(f"   candidates (top {len(shown)} of {len(plan.candidates)}):")
    for candidate in shown:
        marker = "->" if candidate.chosen else "  "
        note = f"  ({candidate.note})" if candidate.note else ""
        print(
            f"   {marker} {candidate.algorithm:<14} {candidate.backend:<9}"
            f" {candidate.cost_seconds:12.4g}s{note}"
        )
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(plan.as_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args) -> int:
    """Run a repeated-query workload through the query service."""
    import json

    from repro.bench.config import current_scale
    from repro.bench.workloads import named_pair

    scale = current_scale(args.scale)
    try:
        dataset_a, dataset_b = named_pair(
            args.dataset or args.distribution, scale
        )
    except KeyError as exc:
        # The registry names the known datasets; surface that instead of
        # the historical bare traceback, with a non-zero exit.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    epsilon = args.epsilon if args.epsilon is not None else scale.large_epsilon
    overrides = {"backend": args.backend} if args.backend else {}
    if args.shards is not None or args.port is not None:
        return _cmd_serve_sharded(args, dataset_a, dataset_b, epsilon, overrides)

    from repro.service.driver import run_serve_workload

    summary = run_serve_workload(
        dataset_a,
        dataset_b,
        epsilon,
        algorithm=args.algorithm,
        probes=args.probes,
        batch=args.batch,
        compare_rebuild=args.compare_rebuild,
        geometry=args.geometry,
        **overrides,
    )
    print(
        f"== query service: {summary['algorithm']} on "
        f"{args.dataset or args.distribution} (scale={scale.name}, "
        f"eps={epsilon}) =="
    )
    print(
        f"   indexed {summary['n_build']} objects once "
        f"({summary['build_seconds']:.4f}s), served {summary['probes']} "
        f"query batches of {summary['batch']} ({summary['warm_queries']} warm)"
    )
    per_query = summary["serve_seconds"] / summary["probes"]
    print(
        f"   {summary['result_pairs']} pairs in {summary['serve_seconds']:.4f}s "
        f"({per_query * 1000:.2f} ms/query, "
        f"{summary['probes'] / summary['serve_seconds']:.0f} queries/s)"
        if summary["serve_seconds"] > 0
        else f"   {summary['result_pairs']} pairs (too fast to time)"
    )
    if args.compare_rebuild:
        print(
            f"   rebuild-per-query: {summary['rebuild_seconds']:.4f}s -> "
            f"speedup {summary['speedup']:.1f}x (pair parity asserted on "
            "every batch)"
        )
    stats = summary["service_stats"]
    print(
        f"   cache: {stats['warm_hits']} hits, {stats['cold_builds']} builds, "
        f"{stats['evictions']} evictions, {stats['cached_indexes']} resident"
    )
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=2, default=str))
        print(f"wrote {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "run":
        return _cmd_run(
            args.experiment, args.scale, args.json, args.chart, _options(args)
        )
    if args.command == "all":
        return _cmd_all(args.scale, args.out_dir, _options(args))
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
