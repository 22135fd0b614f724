"""Benchmark harness: scales, workloads, runner, experiments, reporting."""

import json

import pytest

from repro.bench.config import SCALES, RunOptions, current_scale
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import format_table, save_json, summarize_series
from repro.bench.runner import run_algorithm
from repro.bench.workloads import (
    FIG8_ALGORITHMS,
    LARGE_ALGORITHMS,
    neuro_pair,
    synthetic_pair,
)

SMOKE = SCALES["smoke"]


class TestConfig:
    def test_all_scales_well_formed(self):
        for scale in SCALES.values():
            assert scale.fig8_a > 0
            assert len(scale.fig8_b_steps) >= 1
            assert len(scale.large_b_steps) >= 1
            assert scale.epsilons == (5.0, 10.0)

    def test_scales_ordered_by_size(self):
        assert SCALES["smoke"].large_a < SCALES["small"].large_a
        assert SCALES["small"].large_a < SCALES["medium"].large_a
        assert SCALES["medium"].large_a < SCALES["paper"].large_a

    def test_paper_scale_matches_paper_cardinalities(self):
        paper = SCALES["paper"]
        assert paper.fig8_a == 10_000
        assert paper.large_a == 1_600_000
        assert paper.large_b_steps[-1] == 9_600_000
        assert paper.table1_a == 160_000

    def test_current_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.delenv("REPRO_SCALE")
        assert current_scale("medium").name == "medium"

    def test_unknown_scale(self):
        with pytest.raises(KeyError, match="unknown scale"):
            current_scale("galactic")


class TestWorkloads:
    def test_synthetic_pair_cached(self):
        first = synthetic_pair("uniform", 100, 200, SMOKE)
        second = synthetic_pair("uniform", 100, 200, SMOKE)
        assert first[0] is second[0]

    def test_pair_sizes(self):
        dataset_a, dataset_b = synthetic_pair("gaussian", 50, 150, SMOKE)
        assert len(dataset_a) == 50 and len(dataset_b) == 150

    def test_neuro_pair_ratio(self):
        axons, dendrites = neuro_pair(SMOKE)
        assert len(dendrites) > len(axons)

    def test_algorithm_lists_match_paper(self):
        assert "NL" in FIG8_ALGORITHMS and "PS" in FIG8_ALGORITHMS
        assert "NL" not in LARGE_ALGORITHMS and "PS" not in LARGE_ALGORITHMS
        assert "TOUCH" in LARGE_ALGORITHMS


class TestRunner:
    def test_run_algorithm_record(self):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        record = run_algorithm("TOUCH", dataset_a, dataset_b, 10.0)
        assert record.algorithm == "TOUCH"
        assert record.n_a == 60 and record.n_b == 120
        assert record.epsilon == 10.0
        assert record.total_seconds > 0
        assert 0.0 <= record.selectivity <= 1.0

    def test_overrides_forwarded(self):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        record = run_algorithm("TOUCH", dataset_a, dataset_b, 5.0, fanout=8)
        assert record.extra["tree_height"] >= 1

    def test_as_dict_flat(self):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        row = run_algorithm("NL", dataset_a, dataset_b, 5.0).as_dict()
        assert row["comparisons"] == 60 * 120


class TestExperiments:
    def test_registry_covers_every_paper_artifact(self):
        expected = {
            "table1",
            "loading",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99", SMOKE)

    def test_table1_rows(self):
        result = run_experiment("table1", SMOKE)
        datasets = {row["dataset"] for row in result.rows}
        assert len(result.rows) == 8  # (3 synthetic + neuro) x 2 eps
        assert any("uniform" in d for d in datasets)
        assert any("neuro" in d for d in datasets)
        assert all("selectivity_e6" in row for row in result.rows)

    def test_fig13_reports_filtering(self):
        result = run_experiment("fig13", SMOKE)
        assert all(row["algorithm"] == "TOUCH" for row in result.rows)
        assert all("filtered_fraction" in row for row in result.rows)

    def test_fig14_sweeps_fanout(self):
        result = run_experiment("fig14", SMOKE)
        fanouts = {row["fanout"] for row in result.rows}
        assert fanouts == set(SMOKE.fanout_sweep)

    def test_loading_join_dominates_load(self):
        result = run_experiment("loading", SMOKE)
        assert all(row["join_over_load"] > 1.0 for row in result.rows)

    def test_repeated_probe_modes_and_parity(self):
        result = run_experiment("repeated_probe", SMOKE)
        modes = {(row["algorithm"], row["mode"]) for row in result.rows}
        assert modes == {
            ("TOUCH", "rebuild"),
            ("TOUCH", "cached"),
            ("TwoLayer-500", "rebuild"),
            ("TwoLayer-500", "cached"),
        }
        by_algorithm = {}
        for row in result.rows:
            by_algorithm.setdefault(row["algorithm"], {})[row["mode"]] = row
        for rows in by_algorithm.values():
            # The driver hard-asserts per-batch pair parity; the summary
            # totals must agree too.
            assert rows["cached"]["result_pairs"] == rows["rebuild"]["result_pairs"]
            assert rows["cached"]["speedup"] > 0

    def test_ablation_chunked_result_parity(self):
        result = run_experiment("ablation_chunked", SMOKE)
        counts = {row["result_pairs"] for row in result.rows}
        assert len(counts) == 1  # identical pairs at every chunk count


class TestParallelRunner:
    def test_explicit_workers_selects_parallel_engine(self):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        sequential = run_algorithm("TOUCH", dataset_a, dataset_b, 5.0)
        record = run_algorithm(
            "TOUCH", dataset_a, dataset_b, 5.0, options=RunOptions(workers=2)
        )
        assert record.algorithm.startswith("Parallel[TOUCH")
        assert record.extra["workers"] == 2
        assert record.result_pairs == sequential.result_pairs

    def test_decompose_kind_forwarded(self):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        record = run_algorithm(
            "NL", dataset_a, dataset_b, 5.0,
            options=RunOptions(workers=2, decompose="tiles"),
        )
        assert record.extra["decompose"] == "tiles"

    def test_env_parallel_and_explicit_sequential(self, monkeypatch):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "slabs")
        from_env = run_algorithm("NL", dataset_a, dataset_b, 5.0)
        forced_sequential = run_algorithm(
            "NL", dataset_a, dataset_b, 5.0, options=RunOptions(workers=0)
        )
        assert from_env.algorithm.startswith("Parallel[NL")
        assert forced_sequential.algorithm == "NL"
        assert from_env.result_pairs == forced_sequential.result_pairs

    def test_env_override(self, monkeypatch):
        """Each ``REPRO_*`` parallel variable is read on its own; an unset
        one stays unspecified (the engine default applies)."""
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        assert RunOptions.from_env() == RunOptions(workers=3, decompose="tiles")
        monkeypatch.delenv("REPRO_DECOMPOSE")
        assert RunOptions.from_env() == RunOptions(workers=3)
        monkeypatch.delenv("REPRO_WORKERS")
        assert RunOptions.from_env().workers is None

    def test_env_junk_values_name_the_variable(self, monkeypatch):
        """Regression: junk REPRO_* values used to surface as bare
        ``int()`` tracebacks (or deep engine errors) with no hint which
        environment variable was at fault."""
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS='many'"):
            RunOptions.from_env()
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError, match="REPRO_WORKERS='-2'"):
            RunOptions.from_env()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "shards")
        with pytest.raises(ValueError, match="REPRO_DECOMPOSE='shards'"):
            RunOptions.from_env()
        monkeypatch.delenv("REPRO_DECOMPOSE")
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(ValueError, match="REPRO_BACKEND='fortran'"):
            RunOptions.from_env()

    def test_env_zero_workers_stays_sequential(self, monkeypatch):
        dataset_a, dataset_b = synthetic_pair("uniform", 60, 120, SMOKE)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert RunOptions.from_env().workers == 0
        record = run_algorithm("NL", dataset_a, dataset_b, 5.0)
        assert record.algorithm == "NL"

    def test_run_algorithm_surfaces_env_error(self, monkeypatch):
        dataset_a, dataset_b = synthetic_pair("uniform", 30, 60, SMOKE)
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            run_algorithm("NL", dataset_a, dataset_b, 5.0)

    def test_parallel_scaling_experiment(self):
        result = run_experiment("parallel_scaling", SMOKE)
        engines = {row["engine"] for row in result.rows}
        assert engines == {"sequential", "parallel"}
        pair_counts = {row["result_pairs"] for row in result.rows}
        assert len(pair_counts) == 1  # identical pairs on every engine
        assert all("speedup" in row for row in result.rows)
        kinds = {row["decompose"] for row in result.rows if row["engine"] == "parallel"}
        assert kinds == {"slabs", "tiles"}

    def test_run_experiment_threads_workers(self):
        result = run_experiment("fig13", SMOKE, RunOptions(workers=1))
        assert all(
            row["algorithm"].startswith("Parallel[TOUCH") for row in result.rows
        )


class TestReporting:
    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_phase_timing_columns_surfaced_in_order(self):
        rows = [
            {
                "algorithm": "Parallel[TOUCHx4@2w]",
                "total_seconds": 0.5,
                "workers": 2,
                "n_chunks": 4,
                "decompose": "slabs",
                "decompose_seconds": 0.01,
                "worker_join_seconds": 0.4,
                "merge_seconds": 0.002,
            }
        ]
        table = format_table(rows)
        header = table.splitlines()[0]
        assert "decompose_seconds" in header
        assert "worker_join_seconds" in header
        assert "merge_seconds" in header
        # Stable order: the engine columns follow the default metrics.
        assert header.index("workers") < header.index("decompose_seconds")
        assert header.index("decompose_seconds") < header.index("worker_join_seconds")
        assert header.index("worker_join_seconds") < header.index("merge_seconds")

    def test_format_table_columns(self):
        rows = [{"algorithm": "TOUCH", "comparisons": 12, "total_seconds": 0.5}]
        table = format_table(rows, columns=["algorithm", "comparisons"])
        assert "TOUCH" in table and "12" in table
        assert "total_seconds" not in table

    def test_save_json_roundtrip(self, tmp_path):
        result = run_experiment("table1", SMOKE)
        path = save_json(result, tmp_path / "t1.json")
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "table1"
        assert len(payload["rows"]) == len(result.rows)

    def test_summarize_series(self):
        rows = [
            {"algorithm": "TOUCH", "n_b": 2, "total_seconds": 0.2},
            {"algorithm": "TOUCH", "n_b": 1, "total_seconds": 0.1},
            {"algorithm": "S3", "n_b": 1, "total_seconds": 0.3},
        ]
        series = summarize_series(rows, "algorithm", "n_b", "total_seconds")
        assert series["TOUCH"] == [(1, 0.1), (2, 0.2)]
        assert series["S3"] == [(1, 0.3)]
