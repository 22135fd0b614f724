"""The query service: cache semantics, concurrency, parity, driver, CLI."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.config import RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.base import Dataset
from repro.datasets.synthetic import uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import BoxShape, LineString, Point, Polygon
from repro.joins.registry import available, make_algorithm
from repro.optimizer.sketch import sketch_dataset
from repro.service import (
    IndexCache,
    IndexKey,
    SpatialQueryService,
    dataset_fingerprint,
    default_service,
    probe_batches,
    reset_default_service,
    run_serve_workload,
)

EPS = 2.5


def _boxes_2d():
    return [
        SpatialObject(
            i,
            MBR(
                (i * 1.5, (i * 7) % 11 - 0.25),
                (i * 1.5 + 2.0, (i * 7) % 11 + 1.75),
            ),
        )
        for i in range(40)
    ]


def _boxes_3d():
    return [
        SpatialObject(
            100 + 3 * i,
            MBR(
                (i * 0.5, -i * 0.25, (i % 5) * 2.0),
                (i * 0.5 + 1.0, -i * 0.25 + 0.5, (i % 5) * 2.0 + 3.125),
            ),
        )
        for i in range(30)
    ]


def _shaped():
    """Every shape kind, plus shapeless objects between them."""
    objects = []
    for i in range(24):
        x, y = i * 3.0, (i * 5) % 7 * 1.25
        kind = i % 5
        if kind == 0:
            shape = Polygon([(x, y), (x + 2, y), (x + 2.5, y + 1.5), (x, y + 2)])
        elif kind == 1:
            shape = LineString([(x, y), (x + 1.0, y + 0.75), (x + 2.25, y)])
        elif kind == 2:
            shape = Point([(x + 0.5, y + 0.5)])
        elif kind == 3:
            shape = BoxShape((x, y), (x + 1.5, y + 0.5))
        else:
            objects.append(SpatialObject(i, MBR((x, y), (x + 1.0, y + 1.0))))
            continue
        objects.append(SpatialObject(i, shape.mbr(), shape))
    return objects


def _boxes_1d():
    return [
        SpatialObject(7 * i, MBR((i * 0.75 - 4.0,), (i * 0.75 - 4.0 + (i % 4) * 0.5,)))
        for i in range(25)
    ]


def _single_box():
    """One box with an id past 32 bits and an extent spanning 2e6."""
    return [SpatialObject(2**40 + 3, MBR((-1.5, -2.25, -1e6), (0.0, 3.5, 1e6)))]


PINNED_DATASETS = {
    "boxes_1d": _boxes_1d,
    "boxes_2d": _boxes_2d,
    "boxes_2d_reversed": lambda: _boxes_2d()[::-1],
    "boxes_3d": _boxes_3d,
    "empty": list,
    "shaped": _shaped,
    "single_box": _single_box,
}
PINNED_DIGESTS = {
    "boxes_1d": "3b740c2fb5e315b7f7da46b9b24051e191e06e38ad6e7b2b329e81c199b42dda",
    "boxes_2d": "d759583ef794bafc06811b561ed0b1fae1251cde79435278b4da5103b885dce3",
    "boxes_2d_reversed": "049ecdefc417206fe73dc708d39caecb89568dc9c269f1cc9aef2a160eceb00f",
    "boxes_3d": "bb9b0aae9a92adbe9b80d5a229a199f5b9814fafa3bfd832deea206380a4ea96",
    "empty": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "shaped": "9f66ca84178c46072c082a5d24425c845e68c570e69de1cb3cbf708016c157aa",
    "single_box": "077ba3047901b61889189c8e8bb996936732d7bcd896e9f54236bb0db1a3d1a2",
}


@pytest.fixture(scope="module")
def pair():
    return (
        uniform_boxes(120, seed=71, space=40.0),
        uniform_boxes(300, seed=72, space=40.0),
    )


def expected_pairs(pair, algorithm="TOUCH", **overrides):
    a, b = pair
    build = [obj.inflated(EPS) for obj in a]
    return make_algorithm(algorithm, **overrides).join(build, list(b)).pair_set()


class TestFingerprint:
    def test_deterministic_and_order_sensitive(self, pair):
        a, _ = pair
        objects = list(a)
        assert dataset_fingerprint(objects) == dataset_fingerprint(list(a))
        assert dataset_fingerprint(objects) != dataset_fingerprint(objects[::-1])
        assert dataset_fingerprint(objects[:-1]) != dataset_fingerprint(objects)

    def test_wrapper_independent(self, pair):
        a, _ = pair
        assert dataset_fingerprint(a) == dataset_fingerprint(tuple(a))

    def test_empty_dataset(self):
        assert isinstance(dataset_fingerprint([]), str)

    @pytest.mark.parametrize("dataset", sorted(PINNED_DIGESTS))
    def test_digest_format_is_pinned(self, dataset):
        """Cache keys of the service and the sketch cache never drift.

        Any change to the digested byte layout changes every cache key,
        so the hex digests of fixed 1-D, 2-D, 3-D, shaped, single-box
        and empty datasets are pinned (the reversed 2-D dataset pins
        the order sensitivity).
        """
        objects = PINNED_DATASETS[dataset]()
        assert dataset_fingerprint(objects) == PINNED_DIGESTS[dataset]
        assert sketch_dataset(objects).fingerprint == PINNED_DIGESTS[dataset]

    @pytest.mark.parametrize("dataset", sorted(PINNED_DIGESTS))
    def test_pinned_digest_independent_of_container(self, dataset):
        """Tuple, iterator, ``Dataset`` and pre-built table digest alike."""
        objects = PINNED_DATASETS[dataset]()
        want = PINNED_DIGESTS[dataset]
        assert dataset_fingerprint(tuple(objects)) == want
        assert dataset_fingerprint(iter(objects)) == want
        assert dataset_fingerprint(Dataset(objects, name=dataset)) == want
        if objects:
            table = CoordinateTable.from_objects(objects)
            assert dataset_fingerprint(objects, table=table) == want


class TestIndexCache:
    @staticmethod
    def key(tag: str) -> IndexKey:
        return IndexKey.create(tag, "TOUCH", {}, None, 5.0)

    @staticmethod
    def build(tag: str):
        algorithm = make_algorithm("NL")
        return algorithm.prepare([])

    def test_lru_eviction_order(self):
        cache = IndexCache(capacity=2)
        for tag in ("a", "b"):
            cache.get_or_build(self.key(tag), lambda: self.build(tag))
        # Touch "a" so "b" becomes the LRU victim.
        assert cache.get(self.key("a")) is not None
        cache.get_or_build(self.key("c"), lambda: self.build("c"))
        assert cache.get(self.key("b")) is None  # evicted
        assert cache.get(self.key("a")) is not None
        assert cache.get(self.key("c")) is not None
        assert cache.stats()["evictions"] == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            IndexCache(capacity=0)

    def test_backend_is_part_of_the_key(self):
        assert IndexKey.create("f", "TOUCH", {}, "object", 5.0) != IndexKey.create(
            "f", "TOUCH", {}, "columnar", 5.0
        )
        # backend inside config is normalised out, never silently ignored
        assert IndexKey.create(
            "f", "TOUCH", {"backend": "object"}, "object", 5.0
        ) == IndexKey.create("f", "TOUCH", {}, "object", 5.0)

    def test_put_keys_and_clear(self):
        cache = IndexCache(capacity=2)
        cache.put(self.key("a"), self.build("a"))
        cache.put(self.key("b"), self.build("b"))
        assert cache.keys() == [self.key("a"), self.key("b")]
        assert len(cache) == 2
        # Re-putting refreshes recency like a hit would.
        cache.put(self.key("a"), self.build("a"))
        assert cache.keys() == [self.key("b"), self.key("a")]
        cache.clear()
        assert len(cache) == 0
        assert cache.get(self.key("a")) is None

    def test_failed_build_releases_the_key(self):
        """Regression: a raising builder must not leak its per-key build
        lock, and a retry must be able to build (and cache) normally."""
        cache = IndexCache(capacity=2)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="boom"):
                cache.get_or_build(
                    self.key("a"), lambda: (_ for _ in ()).throw(RuntimeError("boom"))
                )
        assert not cache._building
        built, warm = cache.get_or_build(self.key("a"), lambda: self.build("a"))
        assert built is not None and warm is False

    def test_get_or_build_builds_once(self):
        cache = IndexCache(capacity=2)
        calls = []

        def builder():
            calls.append(1)
            return self.build("a")

        _, warm_first = cache.get_or_build(self.key("a"), builder)
        _, warm_second = cache.get_or_build(self.key("a"), builder)
        assert (warm_first, warm_second) == (False, True)
        assert len(calls) == 1


class TestServiceSemantics:
    def test_warm_and_cold_queries(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=4)
        service.register("neurons", a)
        expected = expected_pairs(pair)
        cold = service.query("neurons", b, EPS)
        warm = service.query("neurons", b, EPS)
        assert cold.parameters["cache"] == "cold"
        assert warm.parameters["cache"] == "warm"
        assert cold.pair_set() == warm.pair_set() == expected
        stats = service.stats()
        assert stats["queries"] == 2
        assert stats["warm_hits"] == 1
        assert stats["cold_builds"] == 1

    def test_unknown_dataset_name(self):
        service = SpatialQueryService()
        with pytest.raises(KeyError, match="unknown dataset"):
            service.query("nope", [], EPS)

    def test_negative_epsilon_rejected(self, pair):
        a, b = pair
        service = SpatialQueryService()
        with pytest.raises(ValueError, match="epsilon"):
            service.query(list(a), b, -1.0)

    def test_adhoc_dataset_and_dataset_wrapper(self, pair):
        a, b = pair
        service = SpatialQueryService()
        result = service.query(list(a), Dataset(list(b), name="probe"), EPS)
        assert result.pair_set() == expected_pairs(pair)

    def test_config_change_misses_the_cache(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=4)
        service.register("d", a)
        service.query("d", b, EPS, algorithm="TOUCH")
        fanout = service.query("d", b, EPS, algorithm="TOUCH", fanout=4)
        assert fanout.parameters["cache"] == "cold"
        other_eps = service.query("d", b, 2 * EPS, algorithm="TOUCH")
        assert other_eps.parameters["cache"] == "cold"
        again = service.query("d", b, EPS, algorithm="TOUCH")
        assert again.parameters["cache"] == "warm"
        assert service.stats()["cold_builds"] == 3

    def test_backend_change_misses_the_cache(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=4)
        service.register("d", a)
        first = service.query("d", b, EPS, backend="object")
        second = service.query("d", b, EPS, backend="columnar")
        assert first.parameters["cache"] == "cold"
        assert second.parameters["cache"] == "cold"
        assert first.pair_set() == second.pair_set()

    def test_lru_eviction_through_the_service(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=2)
        service.register("d", a)
        service.query("d", b, EPS, algorithm="TOUCH")
        service.query("d", b, EPS, algorithm="PBSM-500")
        service.query("d", b, EPS, algorithm="INL")  # evicts TOUCH
        evicted = service.query("d", b, EPS, algorithm="TOUCH")
        assert evicted.parameters["cache"] == "cold"
        assert service.stats()["evictions"] >= 2

    def test_register_returns_fingerprint_and_lists_datasets(self, pair):
        a, _ = pair
        service = SpatialQueryService()
        fingerprint = service.register("d", a)
        assert fingerprint == dataset_fingerprint(list(a))
        assert service.datasets() == {"d": len(a)}

    @pytest.mark.parametrize(
        "algorithm",
        sorted(info.name for info in available() if info.prepare_aware),
    )
    def test_parity_per_algorithm(self, algorithm, pair):
        a, b = pair
        service = SpatialQueryService()
        service.register("d", a)
        result = service.query("d", b, EPS, algorithm=algorithm)
        assert result.pair_set() == expected_pairs(pair, algorithm)

    def test_concurrent_probes_identical(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=4)
        service.register("d", a)
        expected = expected_pairs(pair)
        batches = [list(b)[i::4] for i in range(4)]

        def worker(seed: int):
            out = set()
            for batch in batches:
                out |= service.query("d", batch, EPS).pair_set()
            return frozenset(out)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(worker, range(6)))
        assert all(result == expected for result in results)
        # All threads raced the same key: the index was built exactly once.
        assert service.stats()["cold_builds"] == 1

    def test_probe_mbrs_batch(self, pair):
        a, _ = pair
        service = SpatialQueryService()
        service.register("d", a)
        queries = [
            MBR((0.0, 0.0, 0.0), (8.0, 8.0, 8.0)),
            MBR((30.0, 30.0, 30.0), (31.0, 31.0, 31.0)),
            MBR((-90.0, -90.0, -90.0), (-89.0, -89.0, -89.0)),
        ]
        result = service.probe_mbrs("d", queries, EPS)
        build = [obj.inflated(EPS) for obj in a]
        expected = set()
        for position, query in enumerate(queries):
            for obj in build:
                if obj.mbr.intersects(query):
                    expected.add((obj.oid, position))
        assert result.pair_set() == expected

    def test_probe_mbrs_requires_queries(self, pair):
        a, _ = pair
        service = SpatialQueryService()
        with pytest.raises(ValueError, match="at least one"):
            service.probe_mbrs(list(a), [], EPS)

    def test_default_service_is_a_singleton(self):
        reset_default_service()
        assert default_service() is default_service()
        reset_default_service()


class TestRunAlgorithmReuse:
    def test_reuse_index_records_cache_state(self, pair):
        a, b = pair
        service = SpatialQueryService(capacity=4)
        plain = run_algorithm("TOUCH", list(a), list(b), EPS)
        cold = run_algorithm(
            "TOUCH", list(a), list(b), EPS, options=RunOptions(reuse_index=service)
        )
        warm = run_algorithm(
            "TOUCH", list(a), list(b), EPS, options=RunOptions(reuse_index=service)
        )
        assert cold.extra["cache"] == "cold"
        assert warm.extra["cache"] == "warm"
        assert cold.result_pairs == warm.result_pairs == plain.result_pairs

    def test_reuse_index_true_uses_default_service(self, pair):
        a, b = pair
        reset_default_service()
        try:
            options = RunOptions(reuse_index=True)
            cold = run_algorithm("TOUCH", list(a), list(b), EPS, options=options)
            warm = run_algorithm("TOUCH", list(a), list(b), EPS, options=options)
            assert (cold.extra["cache"], warm.extra["cache"]) == ("cold", "warm")
        finally:
            reset_default_service()

    def test_reuse_index_rejects_workers(self, pair):
        a, b = pair
        with pytest.raises(ValueError, match="reuse_index"):
            run_algorithm(
                "TOUCH", list(a), list(b), EPS,
                options=RunOptions(workers=2, reuse_index=True),
            )


class TestDriver:
    def test_probe_batches_shapes(self, pair):
        _, b = pair
        batches = probe_batches(list(b), probes=7)
        assert len(batches) == 7
        assert all(batches)
        wrapped = probe_batches(list(b)[:5], probes=3, batch=4)
        assert all(len(chunk) == 4 for chunk in wrapped)

    def test_probe_batches_validation(self, pair):
        _, b = pair
        with pytest.raises(ValueError, match="empty"):
            probe_batches([], probes=2)
        with pytest.raises(ValueError, match="probes"):
            probe_batches(list(b), probes=0)
        with pytest.raises(ValueError, match="batch"):
            probe_batches(list(b), probes=2, batch=0)

    def test_run_serve_workload_with_rebuild_parity(self, pair):
        a, b = pair
        summary = run_serve_workload(
            list(a), list(b), EPS, probes=5, compare_rebuild=True
        )
        assert summary["parity"] is True
        assert summary["cold_queries"] == 1
        assert summary["warm_queries"] == 4
        assert summary["result_pairs"] == summary["rebuild_pairs"]
        assert summary["speedup"] > 0


class TestServeCli:
    def test_serve_subcommand(self, capsys):
        from repro.bench.cli import main

        assert main(["serve", "--scale", "smoke", "--probes", "5"]) == 0
        out = capsys.readouterr().out
        assert "query service" in out
        assert "5 query batches" in out

    def test_serve_compare_rebuild_and_json(self, tmp_path, capsys):
        import json

        from repro.bench.cli import main

        target = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "smoke",
                    "--probes",
                    "4",
                    "--algorithm",
                    "TwoLayer-500",
                    "--compare-rebuild",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out
        payload = json.loads(target.read_text())
        assert payload["parity"] is True
        assert payload["probes"] == 4
