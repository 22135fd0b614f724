"""RunOptions: the one execution-option path.

Pins the two layers of ``run_algorithm`` — ``options`` object >
``REPRO_*`` environment (``RunOptions.from_env``) > engine default —
plus ``RunOptions.from_env`` validation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.config import RunOptions
from repro.bench.runner import explain, run_algorithm
from repro.datasets.synthetic import uniform_boxes
from repro.joins.registry import BACKEND_AWARE
from repro.service import SpatialQueryService

EPS = 2.5


@pytest.fixture(scope="module")
def pair():
    return (
        uniform_boxes(60, seed=81, space=30.0),
        uniform_boxes(150, seed=82, space=30.0),
    )


class TestRunOptionsObject:
    def test_defaults_are_all_unspecified(self):
        options = RunOptions()
        assert options.workers is None
        assert options.decompose is None
        assert options.backend is None
        assert options.reuse_index is None
        assert options.describe() == {}

    def test_frozen(self):
        options = RunOptions(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 4

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": -1}, "workers must be >= 0"),
            ({"decompose": "hexagons"}, "unknown decompose kind"),
            ({"backend": "gpu"}, "unknown backend"),
        ],
    )
    def test_validation_is_eager(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunOptions(**kwargs)

    def test_over_set_fields_win(self):
        base = RunOptions(workers=4, decompose="slabs", backend="object")
        overlay = RunOptions(workers=0, geometry="exact")
        merged = overlay.over(base)
        assert merged == RunOptions(
            workers=0, decompose="slabs", backend="object", geometry="exact"
        )

    def test_over_none_defers(self):
        base = RunOptions(workers=3)
        assert RunOptions().over(base) is base

    def test_describe_reports_set_fields(self):
        options = RunOptions(workers=2, decompose="tiles", reuse_index=True)
        assert options.describe() == {
            "workers": 2,
            "decompose": "tiles",
            "reuse_index": True,
        }

    @pytest.mark.parametrize("field", ["dedup", "handoff"])
    def test_no_engine_mode_fields(self, field):
        # The engine has one hand-off and one boundary-duplicate policy.
        with pytest.raises(TypeError):
            RunOptions(**{field: "auto"})


class TestFromEnv:
    def test_unset_environment_is_all_none(self, monkeypatch):
        for name in (
            "REPRO_WORKERS",
            "REPRO_DECOMPOSE",
            "REPRO_BACKEND",
        ):
            monkeypatch.delenv(name, raising=False)
        assert RunOptions.from_env() == RunOptions()

    def test_reads_every_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        monkeypatch.setenv("REPRO_BACKEND", "object")
        assert RunOptions.from_env() == RunOptions(
            workers=3, decompose="tiles", backend="object"
        )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_WORKERS", "many"),
            ("REPRO_WORKERS", "-2"),
            ("REPRO_DECOMPOSE", "hexagons"),
            ("REPRO_BACKEND", "gpu"),
        ],
    )
    def test_junk_values_name_the_variable(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            RunOptions.from_env()


class TestCurrentOptions:
    """The options a run resolves to: ``options`` over ``from_env()``.

    ``explain`` resolves exactly as ``run_algorithm`` does, so its plan
    shows the resolved fields without running the join.
    """

    ENV = ("REPRO_WORKERS", "REPRO_DECOMPOSE", "REPRO_BACKEND")

    def test_default_is_empty(self, pair, monkeypatch):
        for name in self.ENV:
            monkeypatch.delenv(name, raising=False)
        a, b = pair
        plan = explain("auto", a, b, EPS)
        assert not {"workers", "decompose", "backend"} & set(plan.pinned)

    def test_env_flows_through(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        a, b = pair
        plan = explain("auto", a, b, EPS)
        assert plan.workers == 2
        assert plan.decompose == "tiles"
        assert {"workers", "decompose"} <= set(plan.pinned)

    def test_scope_beats_env(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        a, b = pair
        plan = explain(
            "auto", a, b, EPS, options=RunOptions(workers=4, decompose="slabs")
        )
        assert plan.workers == 4
        assert plan.decompose == "slabs"
        plan = explain("TOUCH", a, b, EPS, options=RunOptions(backend="object"))
        assert plan.backend == "object"


class TestRunAlgorithmPrecedence:
    """The two layers, pinned pairwise on real joins.

    ``workers`` selects the engine, and the engine stamps itself into
    ``extra`` (``n_chunks`` present iff the multiprocess engine ran), so
    each layer's victory is observable from the record.
    """

    @pytest.mark.parallel
    def test_options_object_selects_the_engine(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(workers=2, decompose="tiles")
        )
        assert record.extra["workers"] == 2
        assert record.extra["decompose"] == "tiles"

    @pytest.mark.parallel
    def test_options_object_beats_environment(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=0))
        assert "n_chunks" not in record.extra  # sequential path ran

    @pytest.mark.parallel
    def test_options_beat_environment_field_by_field(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        monkeypatch.setenv("REPRO_BACKEND", "object")
        a, b = pair
        # Fields set on options win; the rest come from the environment.
        record = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(decompose="slabs"))
        assert record.extra["workers"] == 2
        assert record.extra["decompose"] == "slabs"
        record = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=0))
        assert "n_chunks" not in record.extra
        assert record.extra["backend"] == "object"
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(workers=0, backend="columnar")
        )
        assert record.extra["backend"] == "columnar"

    def test_env_zero_workers_pins_sequential(self, pair, monkeypatch):
        """``REPRO_WORKERS=0`` pins sequential execution like ``workers=0``:
        the optimizer sees it as a pin instead of a free choice."""
        monkeypatch.setenv("REPRO_WORKERS", "0")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS)
        assert "n_chunks" not in record.extra
        plan = run_algorithm("auto", a, b, EPS).extra["plan"]
        assert plan["workers"] == 0
        assert "workers" in plan["pinned"]

    @pytest.mark.parallel
    def test_env_decompose_read_on_its_own(self, pair, monkeypatch):
        """``REPRO_DECOMPOSE`` applies even when the worker count comes
        from ``options`` rather than ``REPRO_WORKERS``."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        assert RunOptions.from_env() == RunOptions(decompose="tiles")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=2))
        assert record.extra["decompose"] == "tiles"

    @pytest.mark.parallel
    def test_environment_still_applies_when_unspecified(self, pair, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_DECOMPOSE", "tiles")
        a, b = pair
        record = run_algorithm("TOUCH", a, b, EPS)
        assert record.extra["workers"] == 2
        assert record.extra["decompose"] == "tiles"

    def test_options_backend_feeds_algorithm(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(backend="object")
        )
        assert record.extra["backend"] == "object"

    def test_explicit_backend_override_beats_options(self, pair):
        a, b = pair
        record = run_algorithm(
            "TOUCH",
            a,
            b,
            EPS,
            options=RunOptions(backend="object"),
            backend="columnar",
        )
        assert record.extra["backend"] == "columnar"

    def test_options_reuse_index_routes_through_service(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=2)
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(reuse_index=service)
        )
        assert record.extra["cache"] == "cold"
        again = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(reuse_index=service)
        )
        assert again.extra["cache"] == "warm"
        assert again.result_pairs == record.result_pairs

    def test_reuse_index_with_workers_still_rejected(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="cannot be combined"):
            run_algorithm(
                "TOUCH",
                a,
                b,
                EPS,
                options=RunOptions(workers=2, reuse_index=True),
            )


class TestRemovedKwargs:
    """The pre-RunOptions call kwargs are gone, not silently ignored."""

    @pytest.mark.parametrize(
        "name, value",
        [("workers", 2), ("decompose", "tiles"), ("dedup", "partition"),
         ("reuse_index", True)],
    )
    def test_rejected(self, pair, name, value):
        a, b = pair
        with pytest.raises(TypeError):
            run_algorithm("TOUCH", a, b, EPS, **{name: value})

    def test_reuse_index_false_is_unspecified(self, pair):
        """``reuse_index=False`` means no service, like the default."""
        a, b = pair
        record = run_algorithm(
            "TOUCH", a, b, EPS, options=RunOptions(reuse_index=False)
        )
        assert "cache" not in record.extra
        assert RunOptions(reuse_index=False).describe() == {}

    def test_no_kwargs_no_warning(self, pair):
        import warnings

        a, b = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            record = run_algorithm("TOUCH", a, b, EPS)
            run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=0))
        assert record.result_pairs > 0

    @pytest.mark.parallel
    def test_legacy_and_new_spellings_agree(self, pair, monkeypatch):
        """The environment and ``options=`` spellings run the same join."""
        a, b = pair
        modern = run_algorithm("TOUCH", a, b, EPS, options=RunOptions(workers=2))
        monkeypatch.setenv("REPRO_WORKERS", "2")
        from_env = run_algorithm("TOUCH", a, b, EPS)
        assert from_env.algorithm == modern.algorithm
        assert from_env.extra["workers"] == modern.extra["workers"] == 2
        assert from_env.result_pairs == modern.result_pairs


class TestCompiledBackendRejected:
    """The deleted ``compiled`` tier is refused by name at every entry point."""

    LISTED = "auto, object, columnar"

    def test_backend_values(self):
        from repro.geometry.columnar import BACKENDS, resolve_backend

        assert BACKENDS == ("auto", "object", "columnar")
        assert resolve_backend("auto") == "columnar"

    @pytest.mark.parametrize("name", sorted(BACKEND_AWARE))
    def test_make_algorithm(self, name):
        from repro.joins.registry import make_algorithm

        with pytest.raises(ValueError, match="'compiled'") as info:
            make_algorithm(name, backend="compiled")
        assert self.LISTED in str(info.value)

    def test_run_options(self):
        with pytest.raises(ValueError, match="'compiled'") as info:
            RunOptions(backend="compiled")
        assert self.LISTED in str(info.value)

    def test_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        with pytest.raises(ValueError, match="'compiled'") as info:
            RunOptions.from_env()
        assert self.LISTED in str(info.value)

    def test_cli(self, capsys):
        from repro.bench.cli import main

        with pytest.raises(SystemExit) as info:
            main(["run", "fig13", "--backend", "compiled"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'compiled'" in err and self.LISTED in err
