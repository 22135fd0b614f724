"""Backend-parity smoke benchmark for CI.

Runs one small Figure-9-style workload through every backend-aware
algorithm on both geometry backends, asserts that each algorithm returns
the *identical* result-pair set either way, and writes the wall-clock
timings as JSON (uploaded as a CI artifact so backend performance is
tracked over time).  Every join also runs on object-built copies of the
(table-backed) generated datasets, and must return the same pair set.

Exit code 0 means parity held for every algorithm; any mismatch raises.

Usage::

    python benchmarks/smoke_backends.py --out bench-smoke.json
    python benchmarks/smoke_backends.py --scale small --algorithms TOUCH NL
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.bench.config import SCALES
from repro.bench.workloads import synthetic_pair
from repro.datasets.base import Dataset
from repro.datasets.transform import inflate
from repro.joins.registry import BACKEND_AWARE, make_algorithm

#: Canonical order of the backend-aware algorithms for the smoke run.
DEFAULT_ALGORITHMS = ("TOUCH", "NL", "PBSM-100", "TwoLayer-100")


def smoke_one(algorithm: str, dataset_a, dataset_b, epsilon: float) -> dict:
    """Join one workload on both backends; assert identical pair sets.

    Each backend joins the table-backed inputs (timed) and object-built
    copies of them; the two pair sets must be equal.
    """
    build = inflate(dataset_a, epsilon)
    build_objects = Dataset(list(build), name=build.name)
    probe_objects = Dataset(list(dataset_b), name=dataset_b.name)
    runs = {}
    for backend in ("object", "columnar"):
        join = make_algorithm(algorithm, backend=backend)
        start = time.perf_counter()
        result = join.join(build, dataset_b)
        wall = time.perf_counter() - start
        from_objects = join.join(build_objects, probe_objects).pair_set()
        if from_objects != result.pair_set():
            raise AssertionError(
                f"{algorithm} ({backend}): table-backed and object-built "
                f"inputs give different pair sets "
                f"({len(result.pair_set())} vs {len(from_objects)} pairs)"
            )
        runs[backend] = {
            "wall_seconds": wall,
            "total_seconds": result.stats.total_seconds,
            "comparisons": result.stats.comparisons,
            "result_pairs": len(result.pairs),
            "memory_bytes": result.stats.memory_bytes,
            "pair_set": result.pair_set(),
        }
    obj, col = runs["object"], runs["columnar"]
    if obj["pair_set"] != col["pair_set"]:
        missing = obj["pair_set"] - col["pair_set"]
        extra = col["pair_set"] - obj["pair_set"]
        raise AssertionError(
            f"{algorithm}: backend results diverge — columnar is missing "
            f"{len(missing)} pairs and adds {len(extra)} spurious pairs"
        )
    for backend_run in runs.values():
        del backend_run["pair_set"]
    speedup = (
        obj["wall_seconds"] / col["wall_seconds"] if col["wall_seconds"] > 0 else None
    )
    return {"algorithm": algorithm, "runs": runs, "speedup_columnar": speedup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=list(DEFAULT_ALGORITHMS),
        choices=sorted(BACKEND_AWARE),
        help="backend-aware algorithms to smoke-test",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the timing report as JSON"
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    n_b = scale.large_b_steps[-1]
    dataset_a, dataset_b = synthetic_pair("uniform", scale.large_a, n_b, scale)
    report = {
        "workload": {
            "distribution": "uniform",
            "n_a": len(dataset_a),
            "n_b": len(dataset_b),
            "epsilon": scale.large_epsilon,
            "scale": scale.name,
        },
        "python": platform.python_version(),
        "results": [],
    }
    for algorithm in args.algorithms:
        entry = smoke_one(algorithm, dataset_a, dataset_b, scale.large_epsilon)
        report["results"].append(entry)
        runs = entry["runs"]
        print(
            f"{algorithm:10s} pairs={runs['object']['result_pairs']:8d}  "
            f"object={runs['object']['wall_seconds']:.3f}s  "
            f"columnar={runs['columnar']['wall_seconds']:.3f}s  "
            f"speedup={entry['speedup_columnar']:.2f}x  parity=OK (tables = objects)"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
