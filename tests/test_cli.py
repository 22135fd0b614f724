"""The repro-touch command-line harness."""

import json

import pytest

from repro.bench.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["run", "table1", "--scale", "smoke"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "galactic"])

    def test_workers_and_decompose_flags(self):
        args = build_parser().parse_args(
            ["run", "fig9", "--workers", "4", "--decompose", "tiles"]
        )
        assert args.workers == 4
        assert args.decompose == "tiles"
        args = build_parser().parse_args(["all", "--workers", "2"])
        assert args.workers == 2 and args.decompose is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9", "--decompose", "shards"])

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--probes", "12", "--algorithm", "TwoLayer-500", "--compare-rebuild"]
        )
        assert args.probes == 12
        assert args.algorithm == "TwoLayer-500"
        assert args.compare_rebuild is True
        assert args.batch is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--algorithm", "MagicJoin"])

    def test_no_dedup_flag(self):
        # The engine has one boundary-duplicate policy; there is no flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig9", "--workers", "2", "--dedup", "partition"]
            )

    def test_explain_flags(self):
        args = build_parser().parse_args(
            ["explain", "--scale", "smoke", "--algorithm", "TOUCH", "--top", "3"]
        )
        assert args.algorithm == "TOUCH"
        assert args.top == 3
        assert build_parser().parse_args(["explain"]).algorithm == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--algorithm", "MagicJoin"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out and "smoke" in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "table1", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "TOUCH" in out

    def test_run_writes_json(self, tmp_path, capsys):
        target = tmp_path / "out" / "table1.json"
        assert main(["run", "table1", "--scale", "smoke", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["experiment"] == "table1"

    def test_run_fig13(self, capsys):
        assert main(["run", "fig13", "--scale", "smoke"]) == 0
        assert "filter" in capsys.readouterr().out.lower()

    def test_env_backend_recorded_like_flag(self, tmp_path, monkeypatch, capsys):
        """``REPRO_BACKEND`` and ``--backend`` resolve to the same rows and
        both record the backend at the top of the JSON payload."""
        deterministic = ("algorithm", "n_a", "n_b", "result_pairs", "comparisons")
        flag_json = tmp_path / "flag.json"
        argv = ["run", "fig13", "--scale", "smoke", "--json"]
        assert main([*argv, str(flag_json), "--backend", "object"]) == 0
        monkeypatch.setenv("REPRO_BACKEND", "object")
        env_json = tmp_path / "env.json"
        assert main([*argv, str(env_json)]) == 0
        capsys.readouterr()
        flag, env = (json.loads(p.read_text()) for p in (flag_json, env_json))
        assert env["backend"] == flag["backend"] == "object"
        assert all(row["backend"] == "object" for row in env["rows"])
        assert [{k: row[k] for k in deterministic} for row in env["rows"]] == [
            {k: row[k] for k in deterministic} for row in flag["rows"]
        ]

    def test_run_with_workers(self, capsys):
        assert main(["run", "table1", "--scale", "smoke", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Parallel[TOUCH" in out
        assert "worker_join_seconds" in out

    def test_run_parallel_scaling(self, capsys):
        assert main(["run", "parallel_scaling", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "sequential" in out

    def test_explain_prints_plan(self, capsys):
        assert main(["explain", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "candidates" in out

    def test_explain_writes_json(self, tmp_path, capsys):
        target = tmp_path / "plan.json"
        assert (
            main(
                [
                    "explain",
                    "--scale",
                    "smoke",
                    "--algorithm",
                    "TOUCH",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        payload = json.loads(target.read_text())
        assert payload["algorithm"] == "TOUCH"
        assert "algorithm" in payload["pinned"]
        assert any(c["chosen"] for c in payload["candidates"])

    def test_explain_unknown_dataset_exits_2(self, capsys):
        assert main(["explain", "--scale", "smoke", "--dataset", "nope"]) == 2
        assert "known" in capsys.readouterr().err
