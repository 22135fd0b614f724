"""The build/probe lifecycle: parity, reuse, immutability, fallbacks."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.joins.base import BuiltIndex, SpatialJoinAlgorithm
from repro.joins.registry import ALGORITHMS, available, make_algorithm

#: Algorithms with a genuinely reusable index.
PREPARE_AWARE = ("PBSM-500", "PBSM-100", "TwoLayer-500", "TwoLayer-100", "INL", "RTree", "TOUCH")

#: The backend-aware subset of the above.
PREPARE_BACKENDS = ("TOUCH", "TwoLayer-500", "PBSM-500")

EPS = 2.5


@pytest.fixture(scope="module")
def workload():
    a = uniform_boxes(150, seed=41, space=50.0)
    b = clustered_boxes(400, seed=42, space=50.0, n_clusters=8)
    build = [obj.inflated(EPS) for obj in a]
    return build, list(b)


def reference_pairs(name: str, build, probe, **overrides):
    return make_algorithm(name, **overrides).join(build, probe).pair_set()


class TestRegistry:
    def test_prepare_aware_names(self):
        aware = {info.name for info in available() if info.prepare_aware}
        assert aware == set(PREPARE_AWARE)

    def test_every_algorithm_supports_the_lifecycle(self, workload):
        build, probe = workload
        for name in ALGORITHMS:
            algorithm = make_algorithm(name)
            built = algorithm.prepare(build)
            assert isinstance(built, BuiltIndex)
            assert built.n_build == len(build)
            assert built.reusable == algorithm.supports_prepare()


class TestParity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_probe_matches_one_shot_join(self, name, workload):
        build, probe = workload
        expected = reference_pairs(name, build, probe)
        algorithm = make_algorithm(name)
        built = algorithm.prepare(build)
        assert algorithm.probe(built, probe).pair_set() == expected

    @pytest.mark.parametrize("name", PREPARE_BACKENDS)
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_backends_agree(self, name, backend, workload):
        build, probe = workload
        expected = reference_pairs(name, build, probe, backend=backend)
        algorithm = make_algorithm(name, backend=backend)
        built = algorithm.prepare(build)
        result = algorithm.probe(built, probe)
        assert result.pair_set() == expected
        assert result.stats.result_pairs == len(result.pairs)

    @pytest.mark.parametrize("name", PREPARE_AWARE)
    def test_repeated_probes_identical(self, name, workload):
        """The index must not be mutated by probing."""
        build, probe = workload
        algorithm = make_algorithm(name)
        built = algorithm.prepare(build)
        first = algorithm.probe(built, probe).pair_set()
        for _ in range(3):
            assert algorithm.probe(built, probe).pair_set() == first

    @pytest.mark.parametrize("name", PREPARE_AWARE)
    def test_probe_batches_union_to_full_join(self, name, workload):
        """Disjoint probe batches together cover the one-shot result."""
        build, probe = workload
        expected = reference_pairs(name, build, probe)
        algorithm = make_algorithm(name)
        built = algorithm.prepare(build)
        union = set()
        step = 50
        for start in range(0, len(probe), step):
            union |= algorithm.probe(built, probe[start : start + step]).pair_set()
        assert union == expected

    @pytest.mark.parametrize("name", PREPARE_AWARE)
    def test_probe_objects_outside_build_universe(self, name, workload):
        """Grid universes are fixed at build time; outliers must clamp."""
        build, _ = workload
        outliers = [
            SpatialObject(900, MBR((-40.0, -40.0, -40.0), (-39.0, -39.0, -39.0))),
            SpatialObject(901, MBR((200.0, 200.0, 200.0), (201.0, 202.0, 203.0))),
            # Row spanner: crosses the whole universe on one axis.
            SpatialObject(902, MBR((-10.0, 20.0, 20.0), (90.0, 21.0, 21.0))),
            SpatialObject(903, MBR((10.0, 10.0, 10.0), (11.0, 11.0, 11.0))),
        ]
        expected = reference_pairs(name, build, outliers)
        algorithm = make_algorithm(name)
        built = algorithm.prepare(build)
        assert algorithm.probe(built, outliers).pair_set() == expected


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_empty_sides(self, name, workload):
        build, probe = workload
        algorithm = make_algorithm(name)
        assert algorithm.probe(algorithm.prepare([]), probe).pairs == []
        built = algorithm.prepare(build)
        assert algorithm.probe(built, []).pairs == []

    def test_probe_rejects_foreign_index(self, workload):
        build, probe = workload
        built = make_algorithm("TOUCH").prepare(build)
        with pytest.raises(ValueError, match="prepared by"):
            make_algorithm("PBSM-500").probe(built, probe)

    def test_fallback_is_marked_non_reusable(self, workload):
        build, _ = workload
        algorithm = make_algorithm("NL")
        assert not algorithm.supports_prepare()
        assert not algorithm.prepare(build).reusable

    @pytest.mark.parametrize("name", ["TOUCH", "TwoLayer-500", "PBSM-500", "NL"])
    def test_probe_with_coordinate_table(self, name, workload):
        """Raw MBR tables probe identically to the equivalent objects."""
        from repro.geometry.columnar import CoordinateTable

        build, probe = workload
        queries = probe[:60]
        table = CoordinateTable.from_objects(queries)
        algorithm = make_algorithm(name)
        built = algorithm.prepare(build)
        assert (
            algorithm.probe(built, table).pair_set()
            == algorithm.probe(built, queries).pair_set()
        )

    def test_probe_parameters_report_lifecycle(self, workload):
        build, probe = workload
        algorithm = make_algorithm("TOUCH")
        built = algorithm.prepare(build)
        result = algorithm.probe(built, probe)
        assert result.parameters["lifecycle"] == "probe"
        assert result.parameters["n_build"] == len(build)


class TestTouchProbeWalksNoTree:
    """Served TOUCH probes run on the flat arrays built by ``prepare``."""

    @staticmethod
    def _outcome(result):
        stats = result.stats
        assert stats.extra["backend"] == "columnar"
        return (
            sorted(result.pairs),
            stats.comparisons,
            stats.filtered,
            stats.node_tests,
            stats.memory_bytes,
            stats.extra["tree_nodes"],
            stats.extra["tree_height"],
            stats.extra["columnar_table_bytes"],
        )

    def test_probes_match_an_unpatched_run(self, workload, monkeypatch):
        from repro.core.touch import TouchJoin
        from repro.core.tree import TouchNode, TouchTree
        from repro.geometry.columnar import CoordinateTable
        from repro.service import SpatialQueryService

        build, probe = workload
        boxes = [obj.mbr for obj in probe]
        join = TouchJoin(backend="columnar")
        index = join.prepare(build)
        service = SpatialQueryService(capacity=2)
        service.register("build", build)

        def run():
            return [
                self._outcome(result)
                for result in (
                    join.probe(index, CoordinateTable.from_mbrs(boxes)),
                    join.probe(index, probe),
                    service.probe("build", boxes, EPS, backend="columnar"),
                    service.probe("build", probe, EPS, backend="columnar"),
                )
            ]

        expected = run()  # also warms the service's index cache

        def walk(*_args, **_kwargs):
            raise AssertionError("a prepared probe walked the TouchNode tree")

        monkeypatch.setattr(TouchNode, "iter_subtree", walk)
        monkeypatch.setattr(TouchTree, "iter_nodes", walk)
        assert run() == expected


class TestTwoLayerProbeInvariants:
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_probe_performs_no_dedup_checks(self, backend, workload):
        """Duplicate-freedom by construction must survive the split."""
        build, probe = workload
        algorithm = make_algorithm("TwoLayer-500", backend=backend)
        built = algorithm.prepare(build)
        result = algorithm.probe(built, probe)
        assert result.stats.dedup_checks == 0
        assert len(result.pairs) == len(result.pair_set())


class TestBaseClassContract:
    def test_supports_prepare_detects_override(self):
        class Plain(SpatialJoinAlgorithm):
            name = "plain"

            def _execute(self, objects_a, objects_b, stats):
                return []

        class Split(Plain):
            name = "split"

            def _build(self, objects_a, stats):
                return objects_a

            def _probe(self, payload, objects_b, stats):
                return []

        assert not Plain.supports_prepare()
        assert Split.supports_prepare()
