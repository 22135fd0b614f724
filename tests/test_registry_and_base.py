"""Registry, JoinResult helpers and the algorithm base class."""

import pytest

from repro.geometry.objects import box_object
from repro.joins.base import JoinResult, SpatialJoinAlgorithm, dimensionality
from repro.joins.registry import (
    ALGORITHMS,
    BACKEND_AWARE,
    AlgorithmInfo,
    available,
    make_algorithm,
)
from repro.stats.counters import JoinStatistics


class TestRegistry:
    def test_names_cover_paper_evaluation(self):
        names = {info.name for info in available()}
        assert {
            "NL",
            "PS",
            "PBSM-500",
            "PBSM-100",
            "S3",
            "INL",
            "RTree",
            "TOUCH",
        } <= names

    def test_extensions_registered(self):
        names = {info.name for info in available()}
        assert {"SeededTree", "Quadtree", "SSSJ"} <= names

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            make_algorithm("SuperJoin9000")

    def test_every_factory_builds(self):
        for name in ALGORITHMS:
            algorithm = make_algorithm(name)
            assert isinstance(algorithm, SpatialJoinAlgorithm)

    def test_overrides_forwarded(self):
        algorithm = make_algorithm("TOUCH", fanout=7)
        assert algorithm.fanout == 7

    def test_paper_configurations(self):
        assert make_algorithm("INL").fanout == 2
        assert make_algorithm("RTree").fanout == 2
        assert make_algorithm("S3").fanout == 3
        assert make_algorithm("PBSM-500").name == "PBSM-500"
        assert make_algorithm("PBSM-100").name == "PBSM-100"


class TestAvailable:
    def test_one_record_per_registered_algorithm(self):
        infos = available()
        assert [info.name for info in infos] == list(ALGORITHMS)
        assert all(isinstance(info, AlgorithmInfo) for info in infos)

    def test_records_are_frozen_and_hashable(self):
        info = available()[0]
        with pytest.raises(Exception):
            info.name = "other"
        assert len({i for i in available()}) == len(available())

    def test_backend_aware_matches_constant(self):
        aware = {info.name for info in available() if info.backend_aware}
        assert aware == set(BACKEND_AWARE)

    def test_config_matches_default_describe(self):
        for info in available():
            assert info.config_dict() == make_algorithm(info.name).describe()

    def test_as_dict_is_json_safe(self):
        import json

        for info in available():
            assert json.loads(json.dumps(info.as_dict()))["name"] == info.name

    def test_touch_estimates_bytes(self):
        by_name = {info.name: info for info in available()}
        assert by_name["TOUCH"].estimates_bytes

    def test_same_tuple_returned(self):
        assert available() is available()


class TestDeprecatedHelpers:
    """The list helpers are deleted; ``available()`` is the one listing."""

    MODULES = ("repro", "repro.joins", "repro.joins.registry")

    def _assert_gone(self, name):
        import importlib

        for module in self.MODULES:
            assert not hasattr(importlib.import_module(module), name), module

    def test_algorithm_names_removed(self):
        self._assert_gone("algorithm_names")
        assert [info.name for info in available()] == list(ALGORITHMS)

    def test_prepare_aware_names_removed(self):
        self._assert_gone("prepare_aware_names")
        names = [info.name for info in available() if info.prepare_aware]
        assert names and set(names) <= set(ALGORITHMS)


class TestJoinResult:
    def _result(self, pairs):
        return JoinResult("x", pairs, JoinStatistics(result_pairs=len(pairs)))

    def test_len_and_repr(self):
        result = self._result([(1, 2), (3, 4)])
        assert len(result) == 2
        assert "pairs=2" in repr(result)

    def test_pair_set_and_sorted(self):
        result = self._result([(3, 4), (1, 2)])
        assert result.pair_set() == {(1, 2), (3, 4)}
        assert result.sorted_pairs() == [(1, 2), (3, 4)]

    def test_selectivity(self):
        result = self._result([(1, 2)])
        assert result.selectivity(10, 10) == 0.01
        assert result.selectivity(0, 10) == 0.0


class TestBaseTemplate:
    def test_join_fills_totals(self):
        class Trivial(SpatialJoinAlgorithm):
            name = "Trivial"

            def _execute(self, objects_a, objects_b, stats):
                return [(a.oid, b.oid) for a in objects_a for b in objects_b
                        if a.mbr.intersects(b.mbr)]

        a = [box_object(0, (0, 0), (2, 2))]
        b = [box_object(5, (1, 1), (3, 3))]
        result = Trivial().join(a, b)
        assert result.pairs == [(0, 5)]
        assert result.stats.result_pairs == 1
        assert result.stats.total_seconds > 0
        assert result.algorithm == "Trivial"

    def test_repr_includes_parameters(self):
        algorithm = make_algorithm("TOUCH", fanout=3)
        assert "fanout=3" in repr(algorithm)

    def test_dimensionality_helper(self):
        a = [box_object(0, (0, 0, 0), (1, 1, 1))]
        assert dimensionality(a, []) == 3
        assert dimensionality([], a) == 3
        assert dimensionality([], []) == 0
