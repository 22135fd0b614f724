"""Filter–refine pipeline: oracle parity, counters, CLI, engine modes.

The load-bearing contract of the geometry tier: for every registry
algorithm and every backend, the MBR filter stage followed by
:class:`~repro.refine.RefinePipeline` returns exactly the pair set of
the brute-force exact-predicate oracle, and the refine counters satisfy
``true_hits + exact_tests == candidate_pairs - false_hit_prunes``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.config import RunOptions
from repro.bench.runner import run_algorithm
from repro.datasets.synthetic import clustered_linestrings, clustered_polygons
from repro.geometry.columnar import BACKENDS
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import LineString, Point, Polygon
from repro.geometry.vertex_table import shape_of
from repro.joins.registry import available, make_algorithm
from repro.refine import MissingShapesError, RefinePipeline
from repro.stats.counters import JoinStatistics
from repro.validation import brute_force_exact_pairs, brute_force_pairs

EPSILON = 3.0


def dense_datasets():
    """Crowded polygon/polygon and polygon/linestring datasets.

    The shapes sit in a 40-unit square (spread over the paper's
    1000-unit universe, 100 shapes yield no candidates at all), so true
    hits, exact tests and containment all run.
    """
    polys = clustered_polygons(
        40, space=40.0, n_clusters=4, radius_range=(0.5, 4.0), seed=21
    )
    others = clustered_polygons(
        50, space=40.0, n_clusters=4, radius_range=(0.5, 4.0), seed=23
    )
    lines = clustered_linestrings(60, space=40.0, n_clusters=4, seed=22)
    return [(polys, others), (polys, lines)]


def dense_pairs():
    """:func:`dense_datasets` as object lists."""
    return [(list(a), list(b)) for a, b in dense_datasets()]


def refine_counters(stats):
    return (
        stats.candidate_pairs,
        stats.false_hit_prunes,
        stats.true_hits,
        stats.exact_tests,
        stats.refined_pairs,
    )


def filter_refine(algorithm, objects_a, objects_b, epsilon, backend="auto"):
    """The full two-stage join: MBR filter, then exact refinement.

    Shapes attach *before* inflation, like the production path in
    ``run_algorithm``: an MBR-only build object must refine as a box of
    its original extent, not of the ε-inflated one (which would count ε
    twice and admit pairs up to 2ε apart).
    """
    overrides = {"backend": backend} if backend else {}
    shaped = [
        obj if obj.geometry is not None
        else SpatialObject(obj.oid, obj.mbr, shape_of(obj))
        for obj in objects_a
    ]
    build = [obj.inflated(epsilon) for obj in shaped]
    result = make_algorithm(algorithm, **overrides).join(build, list(objects_b))
    stats = JoinStatistics()
    refined = RefinePipeline(epsilon, backend=backend).refine(
        result.pairs, build, objects_b, stats=stats
    )
    return refined, stats


def assert_counter_identity(stats):
    assert (
        stats.true_hits + stats.exact_tests
        == stats.candidate_pairs - stats.false_hit_prunes
    )
    assert stats.refined_pairs <= stats.candidate_pairs


class TestOracleParityEveryAlgorithmAndBackend:
    @pytest.mark.parametrize("algorithm", [info.name for info in available()])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_brute_force_oracle(self, algorithm, backend):
        for objects_a, objects_b in dense_pairs():
            oracle = brute_force_exact_pairs(objects_a, objects_b, EPSILON)
            refined, stats = filter_refine(
                algorithm, objects_a, objects_b, EPSILON, backend
            )
            assert stats.candidate_pairs > 0
            assert set(refined) == oracle
            assert_counter_identity(stats)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_epsilon_zero_is_exact_intersection(self, backend):
        for objects_a, objects_b in dense_pairs():
            oracle = brute_force_exact_pairs(objects_a, objects_b, 0.0)
            refined, stats = filter_refine(
                "TOUCH", objects_a, objects_b, 0.0, backend
            )
            assert stats.candidate_pairs > 0
            assert set(refined) == oracle
            assert_counter_identity(stats)

    def test_backends_agree_pair_for_pair(self):
        # Refine keeps candidate order, but each backend's TOUCH filter
        # emits candidates in its own order: whole runs compare as
        # sorted lists, the refine stage alone compares in order.
        for objects_a, objects_b in dense_pairs():
            runs = [
                filter_refine("TOUCH", objects_a, objects_b, EPSILON, backend)
                for backend in BACKENDS
            ]
            results = [sorted(refined) for refined, _ in runs]
            for other in results[1:]:
                assert other == results[0]
            counters = [refine_counters(stats) for _, stats in runs]
            for other in counters[1:]:
                assert other == counters[0]
            build = [obj.inflated(EPSILON) for obj in objects_a]
            candidates = make_algorithm("NL").join(build, objects_b).pairs
            refined = [
                RefinePipeline(EPSILON, backend=backend).refine(
                    candidates, build, objects_b
                )
                for backend in BACKENDS
            ]
            for other in refined[1:]:
                assert other == refined[0]


class TestAdversarialGeometry:
    def test_mbr_only_build_object_near_threshold(self):
        # Regression (hypothesis-found): the box fallback for an
        # MBR-only build object must come from its *original* MBR, not
        # the ε-inflated copy the filter index was built from — the
        # inflated fallback counts ε twice and admits pairs up to 2ε
        # apart.  Two point-boxes sqrt(26) ≈ 5.099 apart at ε = 5.
        from repro.geometry.mbr import MBR

        a = SpatialObject(0, MBR((0.0, 30.0), (0.0, 30.0)))
        b = SpatialObject(0, MBR((1.0, 25.0), (1.0, 25.0)))
        assert brute_force_exact_pairs([a], [b], 5.0) == set()
        for backend in BACKENDS:
            refined, stats = filter_refine("INL", [a], [b], 5.0, backend)
            assert refined == []
            assert_counter_identity(stats)

    def test_mbr_overlap_but_shapes_far(self):
        # Two diagonal hairpins: MBRs coincide, shapes sit in opposite
        # corners > epsilon apart — the classic false hit the filter
        # stage cannot see and the refine stage must kill.
        a = LineString([(0.0, 0.0), (1.0, 1.0)], oid=0)
        b = LineString([(0.0, 10.0), (1.0, 9.0)], oid=0)
        box = a.mbr().union(b.mbr())
        obj_a = SpatialObject(0, box, a)
        obj_b = SpatialObject(0, box, b)
        refined, stats = filter_refine("NL", [obj_a], [obj_b], 1.0)
        assert refined == []
        assert stats.candidate_pairs == 1
        assert brute_force_exact_pairs([obj_a], [obj_b], 1.0) == set()

    def test_touching_mbrs_disjoint_shapes_at_epsilon_zero(self):
        a = Polygon([(0, 0), (2, 0), (0, 2)], oid=0)  # lower-left triangle
        b = Polygon([(2, 2), (0.1, 2), (2, 0.1)], oid=1)  # upper-right
        obj_a = SpatialObject(0, a.mbr(), a)
        obj_b = SpatialObject(1, b.mbr(), b)
        assert obj_a.mbr.intersects(obj_b.mbr)
        refined, _ = filter_refine("NL", [obj_a], [obj_b], 0.0)
        assert refined == []

    def test_true_hit_shortcut_counts(self):
        # Overlapping solid squares: the interior rectangles already
        # touch, so the pair must resolve without an exact test.
        a = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)], oid=0)
        b = Polygon([(1, 1), (5, 1), (5, 5), (1, 5)], oid=0)
        obj_a = SpatialObject(0, a.mbr(), a)
        obj_b = SpatialObject(0, b.mbr(), b)
        refined, stats = filter_refine("NL", [obj_a], [obj_b], 1.0)
        assert refined == [(0, 0)]
        assert stats.true_hits == 1
        assert stats.exact_tests == 0


def shaped(shape, oid=0):
    return SpatialObject(oid, shape.mbr(), shape)


def mbr_only(lo, hi, oid=0):
    from repro.geometry.mbr import MBR

    return SpatialObject(oid, MBR(lo, hi))


# The big hexagon's interior rectangle sits in its middle, far from the
# nested shapes near its lower-left edge, so only containment can keep
# those pairs: their boundaries are more than EDGE_EPSILON apart.
HEXAGON = Polygon(
    [(0, 0), (30, 0), (40, 20), (30, 40), (0, 40), (-10, 20)], oid=0
)
TRIANGLE = Polygon([(2, 2), (6, 2), (2, 6)], oid=0)
EDGE_TRIANGLE = Polygon([(0, 0), (4, 0), (0, 4)], oid=0)
EDGE_EPSILON = 1.5

CONTAINMENT_CASES = {
    "polygon in polygon": ([shaped(TRIANGLE)], [shaped(HEXAGON)]),
    "polygon around polygon": ([shaped(HEXAGON)], [shaped(TRIANGLE)]),
    "box in polygon": ([mbr_only((3, 3), (5, 5))], [shaped(HEXAGON)]),
    "polygon in box": ([mbr_only((0, 0), (40, 40))], [shaped(TRIANGLE)]),
    "point on edge": (
        [shaped(EDGE_TRIANGLE)],
        [
            shaped(Point([(2.0, 0.0)], oid=0), 0),
            shaped(Point([(1.0, 3.0)], oid=1), 1),
            shaped(Point([(0.3, 3.7)], oid=2), 2),
        ],
    ),
    "point on vertex": (
        [shaped(Point([(4.0, 0.0)], oid=0))],
        [shaped(EDGE_TRIANGLE)],
    ),
    "point against linestring": (
        [
            shaped(Point([(1.0, 1.0)], oid=0), 0),
            shaped(Point([(3.0, 2.0)], oid=1), 1),
            shaped(Point([(9.0, 9.0)], oid=2), 2),
        ],
        [shaped(LineString([(0.0, 0.0), (2.0, 2.0), (2.0, 5.0)], oid=0))],
    ),
}
NESTED_CASES = (
    "polygon in polygon",
    "polygon around polygon",
    "box in polygon",
    "polygon in box",
)


class TestContainmentAndEdgeCases:
    @pytest.mark.parametrize("case", sorted(CONTAINMENT_CASES))
    @pytest.mark.parametrize("epsilon", [0.0, EDGE_EPSILON])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_oracle(self, case, epsilon, backend):
        objects_a, objects_b = CONTAINMENT_CASES[case]
        oracle = brute_force_exact_pairs(objects_a, objects_b, epsilon)
        refined, stats = filter_refine("NL", objects_a, objects_b, epsilon, backend)
        assert set(refined) == oracle
        assert_counter_identity(stats)
        if case in NESTED_CASES:
            assert oracle == {(0, 0)}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nested_polygons_need_containment(self, backend):
        # Neither screen decides the pair: it reaches the exact test and
        # only the containment pass keeps it.
        for case in NESTED_CASES[:3]:
            objects_a, objects_b = CONTAINMENT_CASES[case]
            refined, stats = filter_refine(
                "NL", objects_a, objects_b, EDGE_EPSILON, backend
            )
            assert refined == [(0, 0)]
            assert stats.exact_tests == 1

    @pytest.mark.parametrize(
        "case,cast",
        [
            ("polygon in polygon", 1),
            ("polygon around polygon", 1),
            ("box in polygon", 1),
            ("diagonal triangles", 0),
        ],
    )
    def test_ray_cast_runs_only_inside_the_other_mbr(self, monkeypatch, case, cast):
        # A swallowed shape's first vertex lies in the other MBR, so it
        # is cast and the pair kept; triangles whose MBRs are within
        # epsilon diagonally, but each first vertex outside the other
        # MBR, are apart without a cast.
        from repro.refine import kernels

        cases = dict(CONTAINMENT_CASES)
        cases["diagonal triangles"] = (
            [shaped(EDGE_TRIANGLE)],
            [shaped(Polygon([(5, 5), (9, 5), (5, 9)], oid=0))],
        )
        casts = []
        real = kernels.polygons_contain
        monkeypatch.setattr(
            kernels, "polygons_contain",
            lambda segs, start, *rest: casts.append(len(start))
            or real(segs, start, *rest),
        )
        refined, stats = filter_refine("NL", *cases[case], EDGE_EPSILON, "columnar")
        assert refined == ([(0, 0)] if cast else [])
        assert stats.exact_tests == 1
        assert sum(casts) == cast

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vertex_just_outside_the_ring_mbr_is_cast(self, backend):
        # The ring's edge (X1, Y1)-(X2, 0) rounds its crossing at y = 0
        # two ulps past X2, so the reference ray cast puts the line's
        # first vertex, one ulp right of the MBR, inside the triangle,
        # while every segment pair computes above 0.  Only a gate
        # widened by the rounding margin casts it.
        x1, x2 = -3379211.8877550564, 1000617.5
        y1 = x2 - x1
        ring = Polygon([(x1, y1), (x2, 0.0), (x1, -10.0)], oid=0)
        line = LineString([(np.nextafter(x2, np.inf), 0.0), (x2 - 1.0, y1 + 100.0)], oid=0)
        stats = JoinStatistics()
        kept = RefinePipeline(0.0, backend=backend).refine(
            [(0, 0)], [shaped(ring)], [shaped(line)], stats=stats
        )
        assert kept == [(0, 0)] and stats.exact_tests == 1


class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_does_not_change_results(self, monkeypatch, chunk):
        from repro.refine import kernels

        for objects_a, objects_b in dense_pairs():
            default = filter_refine("TOUCH", objects_a, objects_b, EPSILON, "columnar")
            monkeypatch.setattr(kernels, "CHUNK_SEGMENT_PAIRS", chunk)
            refined, stats = filter_refine(
                "TOUCH", objects_a, objects_b, EPSILON, "columnar"
            )
            monkeypatch.undo()
            assert default[1].exact_tests > 0
            assert refined == default[0]
            assert refine_counters(stats) == refine_counters(default[1])


def grid_shapes(seed, n=60):
    """Shapes of every kind on a half-unit grid.

    The coarse grid makes shared vertices, parallel and collinear edges
    and points lying exactly on edges common.
    """
    import random

    from repro.geometry.shapes import BoxShape

    rng = random.Random(seed)

    def coord():
        return rng.randrange(-8, 9) / 2

    shapes = []
    for oid in range(n):
        x, y = coord(), coord()
        w, h = rng.randrange(1, 4), rng.randrange(1, 4)
        kind = oid % 4
        if kind == 0:
            shapes.append(Point([(x, y)], oid=oid))
        elif kind == 1:
            shapes.append(LineString([(x, y), (x + w, y), (coord(), coord())], oid=oid))
        elif kind == 2:
            lean = rng.choice((-0.5, 0.0, 0.5))
            ring = [(x, y), (x + w, y), (x + w + lean, y + h), (x, y + h)]
            shapes.append(Polygon(ring[: rng.choice((3, 4))], oid=oid))
        else:
            shapes.append(BoxShape((x, y), (x + w / 2, y + h / 2 - 0.5), oid=oid))
    return shapes


class TestBatchedKernelsMatchScalar:
    """The batched kernels against the scalar loops they replace."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_float_and_decision(self, seed):
        import numpy as np

        from repro.geometry.shapes import polygon_contains, segment_distance_sq
        from repro.geometry.vertex_table import VertexTable
        from repro.refine import kernels

        shapes = grid_shapes(seed)
        table = VertexTable.from_shapes(shapes, range(len(shapes)))
        segs, offsets = kernels.segment_table(table.vertices, table.offsets, table.kinds)

        def runs(rows):
            return offsets[rows], offsets[rows + 1] - offsets[rows]

        for i, shape in enumerate(shapes):
            got = segs[:, offsets[i] : offsets[i + 1]].T.tolist()
            assert [tuple(row) for row in got] == list(shape.segments())

        rows_a, rows_b = np.divmod(np.arange(len(shapes) ** 2), len(shapes))
        best = kernels.min_cross_sq(segs, *runs(rows_a), segs, *runs(rows_b))
        for k, (i, j) in enumerate(zip(rows_a.tolist(), rows_b.tolist())):
            assert best[k] == min(
                segment_distance_sq(*sa, *sb)
                for sa in shapes[i].segments()
                for sb in shapes[j].segments()
            )

        # Every vertex and every edge midpoint against every polygon ring.
        probes = [v for shape in shapes for v in shape.vertices] + [
            ((x1 + x2) / 2, (y1 + y2) / 2)
            for shape in shapes
            for x1, y1, x2, y2 in shape.segments()
        ]
        rings = [i for i, shape in enumerate(shapes) if shape.kind == "polygon"]
        ring_rows = np.repeat(rings, len(probes))
        points = np.array(probes * len(rings), dtype=np.float64)
        inside = kernels.polygons_contain(segs, *runs(ring_rows), points)
        expected = [
            polygon_contains(shapes[i].vertices, point)
            for i, point in zip(ring_rows.tolist(), points.tolist())
        ]
        assert inside.tolist() == expected
        assert 0 < sum(expected) < len(expected)


coordinate = st.floats(
    min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def shaped_object(draw, oid):
    kind = draw(st.sampled_from(("point", "linestring", "polygon", "mbr")))
    if kind == "point":
        shape = Point([(draw(coordinate), draw(coordinate))], oid=oid)
    elif kind == "linestring":
        x, y = draw(coordinate), draw(coordinate)
        steps = draw(
            st.lists(
                st.tuples(
                    st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
                    st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
                ),
                min_size=1,
                max_size=4,
            )
        )
        verts = [(x, y)]
        for dx, dy in steps:
            x, y = x + dx, y + dy
            verts.append((x, y))
        verts.append((max(px for px, _ in verts) + 0.5, verts[0][1]))
        shape = LineString(verts, oid=oid)
    elif kind == "polygon":
        import math as _math

        cx, cy = draw(coordinate), draw(coordinate)
        n = draw(st.integers(min_value=3, max_value=6))
        radii = [
            draw(st.floats(min_value=0.5, max_value=6.0, allow_nan=False, width=32))
            for _ in range(n)
        ]
        shape = Polygon(
            [
                (
                    cx + r * _math.cos(2 * _math.pi * i / n),
                    cy + r * _math.sin(2 * _math.pi * i / n),
                )
                for i, r in enumerate(radii)
            ],
            oid=oid,
        )
    else:
        x, y = draw(coordinate), draw(coordinate)
        w = draw(st.floats(min_value=0, max_value=6, allow_nan=False, width=32))
        h = draw(st.floats(min_value=0, max_value=6, allow_nan=False, width=32))
        from repro.geometry.mbr import MBR

        return SpatialObject(oid, MBR((x, y), (x + w, y + h)))
    return SpatialObject(oid, shape.mbr(), shape)


@st.composite
def shaped_sets(draw):
    n_a = draw(st.integers(min_value=0, max_value=8))
    n_b = draw(st.integers(min_value=0, max_value=8))
    return (
        [draw(shaped_object(i)) for i in range(n_a)],
        [draw(shaped_object(i)) for i in range(n_b)],
    )


class TestPropertyOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        data=shaped_sets(),
        epsilon=st.sampled_from((0.0, 1.0, 5.0)),
        algorithm=st.sampled_from(sorted(info.name for info in available())),
        backend=st.sampled_from(BACKENDS),
    )
    def test_pipeline_equals_oracle(self, data, epsilon, algorithm, backend):
        objects_a, objects_b = data
        oracle = brute_force_exact_pairs(objects_a, objects_b, epsilon)
        refined, stats = filter_refine(
            algorithm, objects_a, objects_b, epsilon, backend
        )
        assert set(refined) == oracle
        assert_counter_identity(stats)
        # Soundness of the stages separately: refined ⊆ MBR candidates.
        candidates = brute_force_pairs(
            [obj.inflated(epsilon) for obj in objects_a], objects_b
        )
        assert set(refined) <= candidates


EXACT = RunOptions(geometry="exact")


class TestRunnerIntegration:
    def test_exact_record_counters(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        record = run_algorithm("TOUCH", polys, lines, EPSILON, options=EXACT)
        extra = record.extra
        assert extra["geometry"] == "exact"
        assert (
            extra["true_hits"] + extra["exact_tests"]
            == extra["candidate_pairs"] - extra["false_hit_prunes"]
        )
        oracle = brute_force_exact_pairs(list(polys), list(lines), EPSILON)
        assert record.result_pairs == len(oracle)

    def test_mbr_mode_records_unchanged(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        record = run_algorithm("TOUCH", polys, lines, EPSILON)
        for key in (
            "geometry",
            "candidate_pairs",
            "true_hits",
            "exact_tests",
            "false_hit_prunes",
            "refine_seconds",
        ):
            assert key not in record.extra

    def test_exact_requires_shapes(self):
        from repro.datasets.synthetic import uniform_boxes

        boxes_a = uniform_boxes(20, seed=41)
        boxes_b = uniform_boxes(20, seed=42)
        with pytest.raises(MissingShapesError, match=boxes_a.name):
            run_algorithm("TOUCH", boxes_a, boxes_b, EPSILON, options=EXACT)

    def test_workers_exact_matches_sequential(self):
        polys = clustered_polygons(30, seed=31)
        lines = clustered_linestrings(40, seed=32)
        sequential = run_algorithm("TOUCH", polys, lines, EPSILON, options=EXACT)
        parallel = run_algorithm(
            "TOUCH", polys, lines, EPSILON,
            options=RunOptions(workers=2, geometry="exact"),
        )
        assert parallel.result_pairs == sequential.result_pairs
        for key in ("candidate_pairs", "true_hits", "exact_tests"):
            assert parallel.extra[key] == sequential.extra[key]

    def test_one_core_tiles_exact_matches_sequential(self):
        # The engine hands back MBR candidates from any layout; the
        # parent refines them once, so the exact counters match too.
        polys = clustered_polygons(30, seed=33)
        lines = clustered_linestrings(40, seed=34)
        sequential = run_algorithm("TOUCH", polys, lines, EPSILON, options=EXACT)
        parallel = run_algorithm(
            "TOUCH", polys, lines, EPSILON,
            options=RunOptions(workers=1, decompose="tiles", geometry="exact"),
        )
        assert parallel.extra["decompose"] == "tiles"
        assert parallel.result_pairs == sequential.result_pairs
        for key in ("candidate_pairs", "true_hits", "exact_tests"):
            assert parallel.extra[key] == sequential.extra[key]


class TestPipelineValidation:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            RefinePipeline(-1.0)

    def test_rejects_infinite_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            RefinePipeline(float("inf"))

    def test_empty_candidates(self):
        stats = JoinStatistics()
        assert RefinePipeline(1.0).refine([], [], [], stats=stats) == []
        assert stats.candidate_pairs == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_dimensions_name_both(self, backend):
        polygon = shaped(Polygon([(0, 0), (4, 0), (0, 4)], oid=0), 0)
        point = shaped(Point([(1.0, 1.0, 0.0)], oid=1), 1)
        line = shaped(LineString([(0.0, 0.0), (2.0, 2.0)], oid=0))
        pipeline = RefinePipeline(1.0, backend=backend)
        # Mixed within one side, then one side 3-D against a 2-D side.
        for pairs, side_a, named in (
            ([(0, 0), (1, 0)], [polygon, point], "object #1 is 3-D"),
            ([(1, 0)], [point], "object #1 is 3-D, object #0 is 2-D"),
        ):
            with pytest.raises(ValueError, match="dimensionality mismatch") as info:
                pipeline.refine(pairs, side_a, [line])
            message = str(info.value)
            assert "3" in message and "2" in message
            if pipeline.backend != "object":
                assert named in message

    def test_mbr_only_objects_refine_as_boxes(self):
        from repro.geometry.mbr import MBR

        a = SpatialObject(0, MBR((0, 0), (1, 1)))
        b = SpatialObject(0, MBR((3, 0), (4, 1)))
        pipeline = RefinePipeline(1.0)
        assert pipeline.refine([(0, 0)], [a], [b]) == []
        assert RefinePipeline(2.0).refine([(0, 0)], [a], [b]) == [(0, 0)]
        assert shape_of(a).vertices == ((0.0, 0.0), (1.0, 1.0))


class TestCliExitCodes:
    def test_run_exact_without_shapes_exits_2(self, capsys):
        from repro.bench.cli import main

        assert main(["run", "fig9", "--scale", "smoke", "--geometry", "exact"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "uniform" in err
        assert "shape payloads" in err

    def test_run_filter_refine_experiment(self, capsys):
        from repro.bench.cli import main

        assert main(["run", "filter_refine", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "filter" in out.lower()


class TestUnknownAndDuplicateOids:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_oid_names_oid_and_side(self, backend):
        objs = [shaped(Polygon([(0, 0), (2, 0), (0, 2)], oid=0), 0)]
        pipeline = RefinePipeline(1.0, backend=backend)
        with pytest.raises(ValueError, match="oid 7 .*side B"):
            pipeline.refine([(0, 7)], objs, objs)
        with pytest.raises(ValueError, match="oid 7 .*side A"):
            pipeline.refine([(7, 0)], objs, objs)

    def test_unknown_oid_names_the_dataset(self):
        from repro.joins.base import PairArrays

        polys, lines = dense_datasets()[1]
        pairs = PairArrays(np.array([0]), np.array([len(lines) + 5]))
        with pytest.raises(ValueError, match=f"oid {len(lines) + 5} .*side B.*{lines.name}"):
            RefinePipeline(1.0, backend="columnar").refine(pairs, polys, lines)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_oid_is_rejected(self, backend):
        # The first oid-0 box contains the probe point; refining against
        # the last one silently dropped the pair.
        boxes = [mbr_only((0, 0), (4, 4)), mbr_only((50, 50), (51, 51))]
        probe = [shaped(Point([(1.0, 1.0)], oid=0), 0)]
        with pytest.raises(ValueError, match="duplicate oid 0"):
            RefinePipeline(0.5, backend=backend).refine([(0, 0)], boxes, probe)

    def test_duplicate_oid_in_a_dataset_names_it(self):
        from repro.datasets.base import Dataset

        boxes = Dataset(
            [mbr_only((0, 0), (4, 4)), mbr_only((50, 50), (51, 51))], name="twins"
        )
        with pytest.raises(ValueError, match="duplicate oid 0 in dataset 'twins'"):
            boxes.refine_view()


def box_gap_sq_rows(lo_a, hi_a, lo_b, hi_b):
    """The row form of the box screens: ``(P, d)`` corners, one
    ``sum(axis=1)`` per pair (the reference for the column form)."""
    gap = np.maximum(lo_a - hi_b, lo_b - hi_a)
    gap = np.maximum(gap, 0.0)
    return (gap * gap).sum(axis=1)


class TestColumnScreens:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equal_the_row_reference_float_for_float(self, dim):
        from repro.geometry.shapes import box_gap_sq
        from repro.refine import kernels

        rng = np.random.default_rng(dim)
        n = 500

        def boxes():
            lo = rng.uniform(-50.0, 50.0, (n, dim))
            hi = lo + rng.exponential(3.0, (n, dim))
            missing = rng.random(n) < 0.2  # rows without an interior
            lo[missing] = hi[missing] = np.nan
            return lo, hi

        (lo_a, hi_a), (lo_b, hi_b) = boxes(), boxes()
        rows_a, rows_b = rng.integers(0, n, 4000), rng.integers(0, n, 4000)
        got = kernels.box_gap_sq_pairs(
            np.ascontiguousarray(lo_a.T), np.ascontiguousarray(hi_a.T), rows_a,
            np.ascontiguousarray(lo_b.T), np.ascontiguousarray(hi_b.T), rows_b,
        )
        want = box_gap_sq_rows(lo_a[rows_a], hi_a[rows_a], lo_b[rows_b], hi_b[rows_b])
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got).any() and (got == 0.0).any() and (got > 0.0).any()
        for k in np.flatnonzero(~np.isnan(got))[:300].tolist():
            i, j = rows_a[k], rows_b[k]
            assert got[k] == box_gap_sq(lo_a[i], hi_a[i], lo_b[j], hi_b[j])


def count_crossed(monkeypatch):
    """The segment pairs of each later :func:`kernels.min_cross_sq` call."""
    from repro.refine import kernels

    crossed = []
    real = kernels.min_cross_sq
    monkeypatch.setattr(
        kernels, "min_cross_sq",
        lambda *args: crossed.append(int((args[2] * args[5]).sum())) or real(*args),
    )
    return crossed


def refine_both(objects_a, objects_b, epsilon, monkeypatch):
    """The columnar refine of the all-pairs candidates, checked against
    the object backend; returns its kept pairs and the segment pairs
    :func:`kernels.min_cross_sq` crossed."""
    crossed = count_crossed(monkeypatch)
    candidates = [(a.oid, b.oid) for a in objects_a for b in objects_b]
    stats, reference_stats = JoinStatistics(), JoinStatistics()
    kept = RefinePipeline(epsilon, backend="columnar").refine(
        candidates, objects_a, objects_b, stats=stats
    )
    reference = RefinePipeline(epsilon, backend="object").refine(
        candidates, objects_a, objects_b, stats=reference_stats
    )
    assert kept == reference
    assert refine_counters(stats) == refine_counters(reference_stats)
    return kept, crossed


class TestSegmentPrune:
    """The segment pass drops segments farther than epsilon plus the
    rounding margin from the other MBR without changing a decision."""

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_segment_box_exactly_epsilon_away(self, monkeypatch, shift):
        # Both witnesses miss; the line's first segment, whose box lies
        # exactly 2.5 below the square, is the one at distance epsilon.
        def moved(points):
            return [(x + shift, y + shift) for x, y in points]

        square = Polygon(moved([(4, 4), (0, 4), (0, 0), (4, 0)]), oid=0)
        line = LineString(moved([(-20, -2.5), (20, -2.5), (7, 2)]), oid=0)
        kept, crossed = refine_both([shaped(square)], [shaped(line)], 2.5, monkeypatch)
        # The line's last segment lies 3 right of the square: pruned.
        assert crossed == [4]
        if not shift:
            assert kept == [(0, 0)]

    def test_rounding_at_a_large_offset_is_kept(self, monkeypatch):
        # The line's last segment starts one ulp right of the triangle's
        # MBR, yet computes 0.0 against the edge (X1, 0)-(X2, 0), whose
        # far end rounds one ulp past X2: at epsilon 0 only a prune
        # widened by the rounding margin keeps that segment.
        x1, x2 = -786052.0742121477, 1000000.25
        triangle = Polygon([(x2, 5.0), (x1, 0.0), (x2, 0.0)], oid=0)
        line = LineString(
            [(x2 - 100.0, 50.0), (x2 + 10.0, 1.0), (np.nextafter(x2, np.inf), 0.0)],
            oid=0,
        )
        kept, _ = refine_both([shaped(triangle)], [shaped(line)], 0.0, monkeypatch)
        assert kept == [(0, 0)]

    def test_prune_crosses_fewer_segment_pairs(self, monkeypatch):
        from repro.refine import kernels
        from repro.refine.pipeline import segment_pass_sq

        real = kernels.min_cross_sq
        crossed = count_crossed(monkeypatch)
        eps_sq = EPSILON * EPSILON
        for dataset_a, dataset_b in dense_datasets():
            view_a, view_b = dataset_a.refine_view(), dataset_b.refine_view()
            rows_a, rows_b = np.divmod(
                np.arange(len(dataset_a) * len(dataset_b)), len(dataset_b)
            )
            near = kernels.box_gap_sq_pairs(
                view_a.mbr_lo, view_a.mbr_hi, rows_a, view_b.mbr_lo, view_b.mbr_hi, rows_b
            ) <= eps_sq
            rows_a, rows_b = rows_a[near], rows_b[near]
            runs_a, runs_b = view_a.seg_runs(rows_a), view_b.seg_runs(rows_b)
            full = real(view_a.segs, *runs_a, view_b.segs, *runs_b)
            magnitude = np.maximum(view_a.magnitude[rows_a], view_b.magnitude[rows_b])
            reach = EPSILON + kernels.rounding_margin(magnitude, EPSILON)
            crossed.clear()
            best = segment_pass_sq(view_a, rows_a, view_b, rows_b, reach * reach)
            assert ((best <= eps_sq) == (full <= eps_sq)).all()
            assert (best >= full).all()
            assert 0 < sum(crossed) < int((runs_a[1] * runs_b[1]).sum()) // 2


def witness_and_reference(shapes_a, shapes_b):
    """Every pair's witness float and ``min_cross_sq`` minimum."""
    from repro.refine import kernels
    from repro.refine.pipeline import RefineView, witness_sq

    view_a = RefineView([shaped(shape, i) for i, shape in enumerate(shapes_a)])
    view_b = RefineView([shaped(shape, i) for i, shape in enumerate(shapes_b)])
    rows_a, rows_b = np.divmod(
        np.arange(len(shapes_a) * len(shapes_b)), len(shapes_b)
    )
    witness = witness_sq(view_a, rows_a, view_b, rows_b)
    best = kernels.min_cross_sq(
        view_a.segs, *view_a.seg_runs(rows_a), view_b.segs, *view_b.seg_runs(rows_b)
    )
    return rows_a, rows_b, witness, best


def random_shapes(seed, n=40, lattice=False):
    """Polygons, linestrings and points around a 12-unit square."""
    import random

    rng = random.Random(seed)

    def coord():
        return rng.randrange(0, 25) / 2 if lattice else rng.uniform(0.0, 12.0)

    shapes = []
    for oid in range(n):
        kind = oid % 3
        if kind == 0:
            shapes.append(Point([(coord(), coord())], oid=oid))
            continue
        cx, cy = coord(), coord()
        if kind == 1:
            steps = [(cx, cy)]
            for _ in range(rng.randrange(1, 5)):
                steps.append((steps[-1][0] + rng.choice((-1, 1)) * rng.randrange(1, 3),
                               steps[-1][1] + rng.choice((-1, 0, 1))))
            shapes.append(LineString(steps, oid=oid))
        else:
            w, h = rng.randrange(1, 4), rng.randrange(1, 4)
            ring = [(cx, cy), (cx + w, cy), (cx + w, cy + h), (cx - 0.5, cy + h)]
            shapes.append(Polygon(ring[: rng.choice((3, 4))], oid=oid))
    return shapes


class TestWitnessPass:
    """The witness float is one of the pair's segment floats, so it is
    never below ``min_cross_sq``: accepting on it cannot change a
    decision."""

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("seed,lattice", [(0, False), (1, False), (2, True)])
    def test_witness_is_a_segment_float_of_the_pair(
        self, monkeypatch, chunk, seed, lattice
    ):
        from repro.geometry.shapes import segment_distance_sq
        from repro.refine import kernels

        if chunk is not None:
            monkeypatch.setattr(kernels, "CHUNK_SEGMENT_PAIRS", chunk)
        shapes = random_shapes(seed, lattice=lattice)
        rows_a, rows_b, witness, best = witness_and_reference(shapes, shapes)
        assert (witness >= best).all()
        for k, (i, j) in enumerate(zip(rows_a.tolist(), rows_b.tolist())):
            floats = {
                segment_distance_sq(*sa, *sb)
                for sa in shapes[i].segments()
                for sb in shapes[j].segments()
            }
            assert witness[k] in floats

    @pytest.mark.parametrize("seed,lattice", [(0, False), (1, False), (2, True)])
    def test_first_witness_is_a_segment_float_of_the_pair(self, seed, lattice):
        # Local vertex 0 heads each shape's first segment, whatever its
        # kind: the float is that segment pair's.
        from repro.geometry.shapes import segment_distance_sq
        from repro.refine.pipeline import RefineView, first_witness_sq

        shapes = random_shapes(seed, lattice=lattice)
        view = RefineView([shaped(shape, i) for i, shape in enumerate(shapes)])
        rows_a, rows_b = np.divmod(np.arange(len(shapes) ** 2), len(shapes))
        first = first_witness_sq(view, rows_a, view, rows_b)
        for k, (i, j) in enumerate(zip(rows_a.tolist(), rows_b.tolist())):
            segs_a, segs_b = shapes[i].segments(), shapes[j].segments()
            assert first[k] == segment_distance_sq(*segs_a[0], *segs_b[0])

    def test_linestring_tail_witness_stays_on_its_own_object(self):
        # The line's last vertex, heading no segment, is the one closest
        # to the probe; the next object in the table sits on the probe.
        line = LineString([(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)], oid=0)
        decoy = Point([(6.0, 4.0)], oid=1)
        probe = [Point([(6.0, 4.0)], oid=0)]
        _, _, witness, best = witness_and_reference([line, decoy], probe)
        assert witness.tolist() == [16.0, 0.0]
        assert best.tolist() == [16.0, 0.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vertex_distance_exactly_epsilon_is_kept(self, backend):
        # Vertices (1, 0) and (4, 4) are exactly 5 apart; the segments
        # only get closer at those endpoints.
        line = shaped(LineString([(-2.0, 0.0), (1.0, 0.0)], oid=0), 0)
        tri = shaped(Polygon([(4.0, 4.0), (8.0, 4.0), (8.0, 8.0)], oid=0), 0)
        stats = JoinStatistics()
        kept = RefinePipeline(5.0, backend=backend).refine(
            [(0, 0)], [line], [tri], stats=stats
        )
        assert kept == [(0, 0)] and stats.exact_tests == 1
        _, _, witness, best = witness_and_reference([line.geometry], [tri.geometry])
        assert witness.tolist() == best.tolist() == [25.0]
        assert RefinePipeline(4.999, backend=backend).refine(
            [(0, 0)], [line], [tri]
        ) == []

    def test_witness_at_exactly_epsilon_skips_the_segment_pass(self, monkeypatch):
        from repro.refine import kernels

        calls = []
        monkeypatch.setattr(
            kernels, "min_cross_sq",
            lambda *args, real=kernels.min_cross_sq: calls.append(len(args[1]))
            or real(*args),
        )
        line = shaped(LineString([(-2.0, 0.0), (1.0, 0.0)], oid=0), 0)
        tri = shaped(Polygon([(4.0, 4.0), (8.0, 4.0), (8.0, 8.0)], oid=0), 0)
        assert RefinePipeline(5.0, backend="columnar").refine(
            [(0, 0)], [line], [tri]
        ) == [(0, 0)]
        assert calls == []

    def test_witness_settles_most_within_pairs(self):
        from repro.refine import kernels
        from repro.refine.pipeline import witness_sq

        polys, others = dense_datasets()[0]
        view_a, view_b = polys.refine_view(), others.refine_view()
        rows_a, rows_b = np.divmod(np.arange(len(polys) * len(others)), len(others))
        best = kernels.min_cross_sq(
            view_a.segs, *view_a.seg_runs(rows_a), view_b.segs, *view_b.seg_runs(rows_b)
        )
        witness = witness_sq(view_a, rows_a, view_b, rows_b)
        within = best <= EPSILON * EPSILON
        assert within.sum() > 50
        assert (witness[within] <= EPSILON * EPSILON).mean() > 0.9


def closest_vertices(points_a, start_a, count_a, points_b, start_b, count_b):
    """Per pair, the local vertex indices of its closest vertex pair.

    The all-pairs witness the nearest-vertex walk replaced, kept as its
    reference: pair ``k`` crosses columns ``start_a[k]:start_a[k] +
    count_a[k]`` of the ``(2, V)`` table ``points_a`` with the matching
    run of ``points_b``; returns ``(i, j)``, a closest pair (the first
    in cross-product order on ties).
    """
    from repro.refine.kernels import _chunks

    best = np.full(len(start_a), np.inf)
    where = np.zeros(len(start_a), dtype=np.int64)
    ax, ay = points_a
    bx, by = points_b
    for p0, p1, starts, pair, local in _chunks(count_a * count_b):
        row_a, row_b = np.divmod(local, count_b[pair])
        row_a += start_a[pair]
        row_b += start_b[pair]
        dx = ax[row_a] - bx[row_b]
        dy = ay[row_a] - by[row_b]
        dist = dx * dx + dy * dy
        low = np.minimum.reduceat(dist, starts)
        hits = np.flatnonzero(dist == low[pair - p0])
        first = hits[np.diff(pair[hits], prepend=-1) != 0]
        better = low < best[p0:p1]
        best[p0:p1][better] = low[better]
        where[p0:p1][better] = local[first][better]
    return np.divmod(where, count_b)


def nearest_scalar(xs, ys, qx, qy):
    """Offset of the first vertex nearest ``(qx, qy)``, scalar-wise."""
    best, where = np.inf, 0
    for i, (x, y) in enumerate(zip(xs, ys)):
        dx, dy = x - qx, y - qy
        dist = dx * dx + dy * dy
        if dist < best:
            best, where = dist, i
    return where


class TestNearestVertexWalk:
    """The witness walks to a near vertex pair in three linear passes:
    A's vertex nearest the centre of B's MBR, B's nearest that, A's
    nearest B's."""

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_equals_scalar_first_minimum_on_lattice_ties(self, monkeypatch, chunk):
        # Half-unit lattice vertices and queries: distances are exact and
        # many runs hold two or more vertices at the least distance.
        from repro.refine import kernels

        if chunk is not None:
            monkeypatch.setattr(kernels, "CHUNK_SEGMENT_PAIRS", chunk)
        rng = np.random.default_rng(5)
        counts = rng.integers(1, 10, size=60)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        points = rng.integers(0, 9, size=(2, int(offsets[-1]))) / 2.0
        runs = rng.integers(0, len(counts), size=300)
        start, count = offsets[runs], counts[runs]
        qx, qy = rng.integers(0, 9, size=(2, len(runs))) / 2.0
        local = kernels.nearest_vertices(points, start, count, qx, qy)
        ties = 0
        for k in range(len(runs)):
            xs, ys = points[:, start[k] : start[k] + count[k]]
            assert local[k] == nearest_scalar(xs, ys, qx[k], qy[k])
            dist = (xs - qx[k]) ** 2 + (ys - qy[k]) ** 2
            ties += int((dist == dist.min()).sum() > 1)
        assert ties > 30

    def test_indices_stay_in_their_runs(self, monkeypatch):
        # Every kind, including a linestring whose nearest vertex is its
        # tail, which heads no segment and maps to the last one.
        from repro.geometry.shapes import BoxShape, segment_distance_sq
        from repro.refine import kernels

        calls = []

        def record(points, start, count, qx, qy, real=kernels.nearest_vertices):
            local = real(points, start, count, qx, qy)
            calls.append((count, local))
            return local

        monkeypatch.setattr(kernels, "nearest_vertices", record)
        line = LineString([(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)], oid=0)
        shapes = [
            line,
            Point([(6.0, 4.0)], oid=1),
            BoxShape((8.0, 1.0), (9.0, 2.0), oid=2),
            Polygon([(1.0, 5.0), (4.0, 5.0), (2.0, 8.0)], oid=3),
        ]
        rows_a, rows_b, witness, best = witness_and_reference(shapes, shapes)
        assert len(calls) == 3
        for count, local in calls:
            assert ((0 <= local) & (local < count)).all()
        assert (witness >= best).all()
        # Line against the point: the tail (6, 0) is A's last pick.
        k = 1
        assert calls[2][1][k] == 2
        assert witness[k] == segment_distance_sq(*line.segments()[-1], 6.0, 4.0, 6.0, 4.0)

    def test_walk_settles_what_closest_vertices_settles(self):
        # On the dense sets the walk settles all but one within pair the
        # all-pairs reference settles.  The walk is a local search: on
        # that polygon pair it stops at two corners 10.9 apart (squared)
        # that are each other's nearest, while the closest vertex pair
        # lies across the facing edges, 5.2 apart; the segment pass
        # then decides the pair.
        from repro.refine import kernels
        from repro.refine.pipeline import _vertex_pair_sq, witness_sq

        eps_sq = EPSILON * EPSILON
        missed = []
        for dataset_a, dataset_b in dense_datasets():
            view_a, view_b = dataset_a.refine_view(), dataset_b.refine_view()
            rows_a, rows_b = np.divmod(
                np.arange(len(dataset_a) * len(dataset_b)), len(dataset_b)
            )
            local_a, local_b = closest_vertices(
                view_a.points, *view_a.vertex_runs(rows_a),
                view_b.points, *view_b.vertex_runs(rows_b),
            )
            reference = _vertex_pair_sq(
                view_a, rows_a, local_a, view_b, rows_b, local_b
            ) <= eps_sq
            walk = witness_sq(view_a, rows_a, view_b, rows_b) <= eps_sq
            best = kernels.min_cross_sq(
                view_a.segs, *view_a.seg_runs(rows_a),
                view_b.segs, *view_b.seg_runs(rows_b),
            )
            assert not (walk & (best > eps_sq)).any()
            assert reference.sum() > 50
            missed.append(int((reference & ~walk).sum()))
        assert missed == [1, 0]


class TestRefineViews:
    @pytest.mark.parametrize("algorithm", [info.name for info in available()])
    def test_view_refine_equals_object_backend(self, algorithm):
        # Candidates refined as row arrays against the datasets' views
        # equal the object reference on the tuple list, in candidate
        # order and counter for counter.
        from repro.datasets.transform import inflate
        from repro.joins.base import PairArrays

        for dataset_a, dataset_b in dense_datasets():
            candidates = make_algorithm(algorithm).join(
                inflate(dataset_a, EPSILON), dataset_b
            ).pairs
            view_stats, object_stats = JoinStatistics(), JoinStatistics()
            kept = RefinePipeline(EPSILON, backend="columnar").refine(
                PairArrays.from_pairs(candidates), dataset_a, dataset_b,
                stats=view_stats,
            )
            reference = RefinePipeline(EPSILON, backend="object").refine(
                candidates, list(dataset_a), list(dataset_b), stats=object_stats
            )
            assert isinstance(kept, PairArrays)
            assert list(zip(kept.a.tolist(), kept.b.tolist())) == reference
            assert view_stats.exact_tests > 0
            assert refine_counters(view_stats) == refine_counters(object_stats)

    def test_warm_exact_service_probe_builds_only_the_probe_view(
        self, monkeypatch
    ):
        from repro.geometry.vertex_table import VertexTable
        from repro.service import SpatialQueryService

        polys = clustered_polygons(60, space=60.0, n_clusters=3, seed=51)
        others = list(clustered_polygons(80, space=60.0, n_clusters=3, seed=52))
        built = []
        init = VertexTable.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VertexTable, "__init__", counting)
        service = SpatialQueryService(capacity=2)
        service.register("polys", polys)
        assert built == []  # registering builds no refine view
        first = service.probe("polys", others, EPSILON, geometry="exact")
        assert len(built) == 2  # cold: the build side's and the probe's
        second = service.probe("polys", others, EPSILON, geometry="exact")
        assert len(built) == 3  # warm: the probe side's alone
        assert second.parameters["cache"] == "warm"
        assert second.stats.exact_tests > 0
        assert second.pairs == first.pairs

    def test_warm_exact_dataset_probe_reuses_its_view(self, monkeypatch):
        from repro.geometry.vertex_table import VertexTable
        from repro.service import SpatialQueryService

        polys = clustered_polygons(60, space=60.0, n_clusters=3, seed=51)
        others = clustered_polygons(80, space=60.0, n_clusters=3, seed=52)
        service = SpatialQueryService(capacity=2)
        service.register("polys", polys)
        first = service.probe("polys", others, EPSILON, geometry="exact")
        others.refine_view()
        built = []
        init = VertexTable.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VertexTable, "__init__", counting)
        second = service.probe("polys", others, EPSILON, geometry="exact")
        assert second.parameters["cache"] == "warm"
        assert built == []  # the probe Dataset's cached view is read
        assert sorted(second.pairs) == sorted(first.pairs)
        assert second.stats.exact_tests > 0
        # Through run_algorithm both Datasets keep their views.
        options = RunOptions(reuse_index=service, geometry="exact")
        polys.refine_view()
        run_algorithm("TOUCH", polys, others, EPSILON, options=options)
        built.clear()
        warm = run_algorithm("TOUCH", polys, others, EPSILON, options=options)
        assert warm.extra["cache"] == "warm"
        assert built == []
        assert warm.result_pairs == len(first)

    def test_second_exact_run_rebuilds_nothing(self, monkeypatch):
        from repro.geometry.shapes import Shape
        from repro.geometry.vertex_table import VertexTable

        polys = clustered_polygons(60, space=60.0, n_clusters=3, seed=51)
        others = clustered_polygons(80, space=60.0, n_clusters=3, seed=52)
        first = run_algorithm("TOUCH", polys, others, EPSILON, options=EXACT)
        built = {"VertexTable": 0, "SpatialObject": 0, "interior": 0}

        def counting(cls, name, method):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, method.__name__, wrapper)

        counting(VertexTable, "VertexTable", VertexTable.__init__)
        counting(SpatialObject, "SpatialObject", SpatialObject.__init__)
        counting(Shape, "interior", Shape.interior_rectangle)
        second = run_algorithm("TOUCH", polys, others, EPSILON, options=EXACT)
        assert built == {"VertexTable": 0, "SpatialObject": 0, "interior": 0}
        assert second.extra["exact_tests"] > 0
        for key in ("candidate_pairs", "false_hit_prunes", "true_hits",
                    "exact_tests", "refined_pairs"):
            assert second.extra[key] == first.extra[key]


def unscreened_exact_pairs(objects_a, objects_b, epsilon):
    """The oracle without its axis screen: every pair, scalar-wise."""
    from repro.geometry.shapes import shape_distance_sq

    threshold = float(epsilon) ** 2
    return {
        (a.oid, b.oid)
        for a in objects_a
        for b in objects_b
        if shape_distance_sq(shape_of(a), shape_of(b)) <= threshold
    }


def shifted(shapes, offset):
    """Lattice shapes moved by ``offset`` on both axes (still exact)."""
    return [
        type(shape)([(x + offset, y + offset) for x, y in shape.vertices])
        for shape in shapes
    ]


def oracle_cases():
    """Object-list pairs with the epsilons each is checked at."""
    cases = [(a, b, (0.0, EPSILON)) for a, b in dense_pairs()]
    for seed, lattice in ((0, False), (1, False), (2, True)):
        objects = [shaped(shape, i) for i, shape in enumerate(random_shapes(seed, lattice=lattice))]
        cases.append((objects, objects, (0.0, 0.5, 1.0, 3.0)))
    far = shifted(random_shapes(2, lattice=True), 1e6)
    objects = [shaped(shape, i) for i, shape in enumerate(far)]
    cases.append((objects, objects, (0.0, 0.5, 1.0)))
    for objects_a, objects_b in CONTAINMENT_CASES.values():
        cases.append((objects_a, objects_b, (0.0, EDGE_EPSILON)))
    # Triangles sharing the vertex (2, 0), and two MBR-touching ones apart.
    touching = (
        Polygon([(0, 0), (2, 0), (0, 2)]),
        Polygon([(2, 2), (0.1, 2), (2, 0.1)]),
        Polygon([(2, 0), (4, 0), (4, 2)]),
    )
    objects = [shaped(shape, oid) for oid, shape in enumerate(touching)]
    cases.append((objects, objects, (0.0, 0.5)))
    point_boxes = [mbr_only((0.0, 30.0), (0.0, 30.0), 0), mbr_only((1.0, 25.0), (1.0, 25.0), 1)]
    cases.append((point_boxes, point_boxes, (0.0, 5.0, 26**0.5)))
    touching_boxes = [mbr_only((0.0, 0.0), (1.0, 1.0), 0), mbr_only((1.0, 0.5), (2.0, 2.0), 1)]
    cases.append((touching_boxes, touching_boxes, (0.0,)))
    return cases


class TestScreenedOracle:
    """The oracle's axis screen skips only pairs the scalar loop would
    find apart, and skips most pairs of a spread-out set."""

    def test_equals_the_unscreened_scalar_loop(self):
        for objects_a, objects_b, epsilons in oracle_cases():
            for epsilon in epsilons:
                assert brute_force_exact_pairs(
                    objects_a, objects_b, epsilon
                ) == unscreened_exact_pairs(objects_a, objects_b, epsilon)

    def test_screen_skips_most_pairs(self, monkeypatch):
        from repro.geometry import shapes

        calls = []
        monkeypatch.setattr(
            shapes, "shape_distance_sq",
            lambda a, b, real=shapes.shape_distance_sq: calls.append(1) or real(a, b),
        )
        objects_a, objects_b = dense_pairs()[0]
        oracle = brute_force_exact_pairs(objects_a, objects_b, EPSILON)
        assert len(oracle) > 0
        assert 0 < len(calls) < len(objects_a) * len(objects_b) // 2

    def test_mixed_dimensions_raise(self):
        flat = mbr_only((0.0, 0.0), (1.0, 1.0))
        cube = mbr_only((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="dimensionality mismatch"):
            brute_force_exact_pairs([flat], [cube], 1.0)
