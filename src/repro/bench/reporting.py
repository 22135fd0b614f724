"""Tabulation of experiment results: paper-style rows on stdout or JSON."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from repro.bench.experiments import ExperimentResult

__all__ = ["format_table", "print_experiment", "save_json", "summarize_series"]

#: Default column order for printed experiment tables.
DEFAULT_COLUMNS = (
    "algorithm",
    "dataset",
    "n_b",
    "epsilon",
    "result_pairs",
    "comparisons",
    "memory_bytes",
    "filtered",
    "total_seconds",
)

#: Parallel-engine columns, surfaced (in this order) right after the
#: default columns whenever rows carry them: the decomposition, the
#: worker count, and the three phase wall-clocks recorded by the
#: multiprocess engine in ``JoinStatistics.extra``.
PARALLEL_COLUMNS = (
    "workers",
    "n_chunks",
    "decompose",
    "dedup",
    "decompose_seconds",
    "worker_join_seconds",
    "merge_seconds",
)


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Fixed-width text table of the selected columns."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = [c for c in DEFAULT_COLUMNS if any(c in row for row in rows)]
        columns += [c for c in PARALLEL_COLUMNS if any(c in row for row in rows)]
        extras = sorted(
            {key for row in rows for key in row}
            - set(columns)
            - set(DEFAULT_COLUMNS)
            - set(PARALLEL_COLUMNS)
            - {
                "n_a",
                "selectivity",
                "node_tests",
                "replicated_entries",
                "duplicates_suppressed",
                "dedup_checks",
                "build_seconds",
                "assign_seconds",
                "join_seconds",
            }
        )
        columns = list(columns) + extras
    cells = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in cells
    )
    return "\n".join([header, rule, body])


def print_experiment(result: ExperimentResult, columns: Sequence[str] | None = None) -> None:
    """Print one experiment in the paper's row/series layout."""
    print(f"== {result.title} (scale={result.scale}) ==")
    if result.notes:
        print(f"   paper expectation: {result.notes}")
    print(format_table(result.rows, columns))
    print()


def save_json(result: ExperimentResult, path: str | Path) -> Path:
    """Persist an experiment result as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "notes": result.notes,
        "scale": result.scale,
        "backend": result.backend,
        "rows": result.rows,
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


def summarize_series(
    rows: Sequence[dict], series_key: str, x_key: str, y_key: str
) -> dict[str, list[tuple]]:
    """Group rows into ``{series: [(x, y), ...]}`` — one paper curve each."""
    series: dict[str, list[tuple]] = {}
    for row in rows:
        series.setdefault(str(row.get(series_key)), []).append(
            (row.get(x_key), row.get(y_key))
        )
    for points in series.values():
        points.sort(key=lambda xy: (xy[0] is None, xy[0]))
    return series
