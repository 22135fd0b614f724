"""Benchmark of record for the TOUCH reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot_clustered --seed 20130622 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing code in
the path; ``--trace 1`` measures the per-layer metrics (half the time
untraced, half traced, so the tracing overhead is measured too).  The
metric names and units come from ``BENCHMARK.json`` at the repository
root.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give a readable summary and the host facts.  A traced run
also writes its spans to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns ``(percentile, seconds, samples)``; ``None`` under 20 samples.
    """
    n = len(latencies)
    if n < 20:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(latencies)[rank - 1], n


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts(backends) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": sorted(backends) or ["unreported"],
    }


def scaled_setup(workload) -> tuple[float, float]:
    """One set-up: wall seconds and host-speed-scaled seconds."""
    before = hostspeed.kernel_seconds()
    seconds = workload.setup()
    after = hostspeed.kernel_seconds()
    return seconds, seconds / hostspeed.slowdown(before, after)


def measure(workload, seconds: float):
    """Untraced run: the end-to-end metrics, scaled to the calm host."""
    setups = [scaled_setup(workload) for _ in range(workload.SETUPS)]
    phase = workload.run_phase(seconds)
    workload.close()  # reap the shard workers before reading their RSS
    if not phase.latencies:
        raise RuntimeError(f"no operation succeeded: {phase.errors[:3]}")
    metrics = {
        "setup_s": statistics.median(scaled for _raw, scaled in setups),
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.scaled) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"as measured: setup_s={statistics.median(raw for raw, _ in setups):.4f} "
        f"ops_per_s={phase.raw_ops_per_s:.4f} "
        f"op_p50_ms={statistics.median(phase.latencies) * 1e3:.3f} "
        f"host_slowdown={statistics.median(phase.slowdowns):.3f}"
    )
    return metrics, [phase], {}


def measure_traced(workload, seconds: float):
    """Traced run: half the time untraced, half traced; per-layer metrics."""
    workload.setup()
    plain = workload.run_phase(seconds / 2)
    workload.trace_on()
    traced = workload.run_phase(seconds / 2)
    spans = workload.trace_off()
    if not traced.latencies or not plain.latencies:
        raise RuntimeError(f"no operation succeeded: {traced.errors[:3]}")
    metrics = layers.summarize(
        spans["local"], spans["workers"], traced.latencies, traced.stats,
        traced.parameters,
    )
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    metrics["host.slowdown"] = statistics.median(traced.slowdowns)
    traced.backends.update(spans.get("backends", []))
    return metrics, [plain, traced], spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: run from a repository checkout ({src} and "
            f"{spec_path} are required)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pins = json.loads((HERE / "pins.json").read_text())

    if args.trace:
        # Before any shard worker forks, so the workers inherit the spans.
        layers.install()
    _why, factory = workloads.WORKLOADS[args.workload]
    workload = factory(args.seed)
    try:
        start = time.perf_counter()
        reference_pairs = workload.compute_reference()
        reference_s = time.perf_counter() - start
        if args.trace:
            metrics, phases, spans = measure_traced(workload, args.seconds)
        else:
            metrics, phases, spans = measure(workload, args.seconds)
    finally:
        workload.close()

    pinned = pins["pair_counts"][args.workload].get(str(args.seed))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    backends = set().union(*(p.backends for p in phases))
    errors = [e for p in phases for e in p.errors]
    correct = failed == 0 and (pinned is None or pinned == reference_pairs)

    last = phases[-1]
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops={len(last.latencies)} reference_pairs={reference_pairs} "
        f"pinned={pinned} reference_s={reference_s:.2f}"
    )
    found = tail(last.latencies)
    if found is not None:
        pct, seconds, samples = found
        print(f"op_tail_ms={seconds * 1e3:.3f} at p{pct:.1f} of {samples} ops (as measured)")
    for error in errors[:5]:
        print(f"error: {error}")
    print(json.dumps({"host": host_facts(backends)}))

    if spans:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.trace.json").write_text(
            json.dumps(spans)
        )

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
