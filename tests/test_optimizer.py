"""Unit tests of the adaptive optimizer: sketches, cost model, plans.

The contracts pinned here are the ones ``algorithm="auto"`` stands on:
sketches are deterministic and cached by fingerprint, the cost model is
monotone in workload size and ε, and a :class:`~repro.optimizer.plan.Plan`
survives a JSON round-trip bit-for-bit (the wire/``stats.extra``
representation is the plan).
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.synthetic import clustered_boxes, uniform_boxes
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import BoxShape
from repro.joins.registry import ALGORITHMS, available
from repro.optimizer import (
    DEFAULT_CALIBRATION,
    HIST_BINS,
    Plan,
    choose_plan,
    clear_sketch_cache,
    score_candidates,
    sketch_dataset,
    sketch_table,
    work_units,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_sketch_cache()
    yield
    clear_sketch_cache()


def _pair(n_a=60, n_b=120, seed_a=101, seed_b=102):
    return uniform_boxes(n_a, seed=seed_a), uniform_boxes(n_b, seed=seed_b)


def reference_sketch(objects):
    """Per-object loop over MBRs: the sketch fields, no arrays."""
    dim = objects[0].mbr.dim
    lo = [min(o.mbr.lo[d] for o in objects) for d in range(dim)]
    hi = [max(o.mbr.hi[d] for o in objects) for d in range(dim)]
    extents = [hi[d] - lo[d] for d in range(dim)]
    live = [d for d in range(dim) if extents[d] > 0]
    density = 0.0
    if live:
        volume = 0.0
        for obj in objects:
            box = 1.0
            for d in live:
                box *= obj.mbr.hi[d] - obj.mbr.lo[d]
            volume += box
        extent_volume = 1.0
        for d in live:
            extent_volume *= extents[d]
        density = volume / extent_volume
    histograms = []
    for d in range(dim):
        counts = [0] * HIST_BINS
        if extents[d] > 0:
            width = extents[d] / HIST_BINS
            for obj in objects:
                center = (obj.mbr.lo[d] + obj.mbr.hi[d]) * 0.5
                counts[min(int((center - lo[d]) / width), HIST_BINS - 1)] += 1
        else:
            counts[0] = len(objects)
        histograms.append(tuple(counts))
    mean_sides = tuple(
        sum(o.mbr.hi[d] - o.mbr.lo[d] for o in objects) / len(objects)
        for d in range(dim)
    )
    shaped = sum(1 for o in objects if o.geometry is not None)
    return {
        "n": len(objects),
        "dim": dim,
        "lo": tuple(lo),
        "hi": tuple(hi),
        "mean_sides": mean_sides,
        "density": density,
        "shape_fraction": shaped / len(objects),
        "histograms": tuple(histograms),
    }


def _flat_in_y():
    """Every box has the same zero-height y: one degenerate dimension."""
    return [
        SpatialObject(i, MBR((i * 1.25, 3.0), (i * 1.25 + 2.0, 3.0)))
        for i in range(30)
    ]


def _half_shaped():
    objects = []
    for i in range(20):
        shape = BoxShape((i * 2.0, i % 3 * 1.0), (i * 2.0 + 1.5, i % 3 * 1.0 + 0.5))
        objects.append(SpatialObject(i, shape.mbr(), shape if i % 2 else None))
    return objects


SKETCH_DATASETS = {
    "uniform_1d": lambda: list(uniform_boxes(50, dim=1, seed=5)),
    "clustered_2d": lambda: list(clustered_boxes(150, dim=2, n_clusters=4, seed=7)),
    "uniform_3d": lambda: list(uniform_boxes(120, seed=6)),
    "flat_in_y": _flat_in_y,
    "one_point": lambda: [SpatialObject(3, MBR((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))],
    "half_shaped": _half_shaped,
}


# -- sketches ----------------------------------------------------------
class TestSketch:
    @pytest.mark.parametrize("dataset", sorted(SKETCH_DATASETS))
    def test_matches_per_object_reference(self, dataset):
        objects = SKETCH_DATASETS[dataset]()
        sketch = sketch_dataset(objects)
        want = reference_sketch(objects)
        for field in ("n", "dim", "lo", "hi", "shape_fraction", "histograms"):
            assert getattr(sketch, field) == want[field], field
        assert sketch.mean_sides == pytest.approx(want["mean_sides"], rel=1e-12)
        assert sketch.density == pytest.approx(want["density"], rel=1e-12)

    def test_deterministic_by_fingerprint(self):
        objects, _ = _pair()
        first = sketch_dataset(list(objects))
        clear_sketch_cache()
        second = sketch_dataset(list(objects))
        assert first == second
        assert first.fingerprint == second.fingerprint

    def test_cache_hit_returns_same_object(self):
        objects, _ = _pair()
        first = sketch_dataset(list(objects))
        second = sketch_dataset(list(objects))
        assert first is second

    def test_different_data_different_fingerprint(self):
        a, b = _pair()
        assert sketch_dataset(list(a)).fingerprint != sketch_dataset(
            list(b)
        ).fingerprint

    def test_values_on_handcrafted_objects(self):
        objects = [
            SpatialObject(0, MBR((0.0, 0.0), (2.0, 4.0))),
            SpatialObject(1, MBR((8.0, 6.0), (10.0, 10.0))),
        ]
        sketch = sketch_dataset(objects)
        assert sketch.n == 2
        assert sketch.dim == 2
        assert sketch.lo == (0.0, 0.0)
        assert sketch.hi == (10.0, 10.0)
        assert sketch.mean_sides == (2.0, 4.0)
        assert sketch.shape_fraction == 0.0

    def test_empty_dataset(self):
        sketch = sketch_dataset([])
        assert sketch.n == 0
        assert sketch.density == 0.0

    def test_table_sketch_matches_object_sketch_values(self):
        objects, _ = _pair()
        objects = list(objects)
        from_objects = sketch_dataset(objects)
        from_table = sketch_table(CoordinateTable.from_objects(objects))
        assert from_table.n == from_objects.n
        assert from_table.lo == from_objects.lo
        assert from_table.hi == from_objects.hi
        assert from_table.mean_sides == pytest.approx(from_objects.mean_sides)
        # ...but the cache keys stay disjoint: a table has no identities.
        assert from_table.fingerprint.startswith("table:")
        assert from_table.fingerprint != from_objects.fingerprint

    def test_table_sketch_cached(self):
        objects, _ = _pair()
        table = CoordinateTable.from_objects(list(objects))
        assert sketch_table(table) is sketch_table(
            CoordinateTable.from_objects(list(objects))
        )

    def test_sketch_json_round_trip(self):
        objects, _ = _pair()
        sketch = sketch_dataset(list(objects))
        restored = type(sketch).from_dict(json.loads(json.dumps(sketch.as_dict())))
        assert restored == sketch


# -- cost model --------------------------------------------------------
class TestCostModel:
    def test_more_objects_never_cheaper(self):
        small_a = sketch_dataset(list(uniform_boxes(50, seed=1)))
        small_b = sketch_dataset(list(uniform_boxes(100, seed=2)))
        big_a = sketch_dataset(list(uniform_boxes(400, seed=1)))
        big_b = sketch_dataset(list(uniform_boxes(800, seed=2)))
        for name in ALGORITHMS:
            small_units = sum(work_units(name, small_a, small_b, 5.0)[:2])
            big_units = sum(work_units(name, big_a, big_b, 5.0)[:2])
            assert big_units >= small_units, name

    def test_larger_epsilon_never_cheaper(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=3)))
        b = sketch_dataset(list(uniform_boxes(200, seed=4)))
        for name in ALGORITHMS:
            narrow = sum(work_units(name, a, b, 1.0)[:2])
            wide = sum(work_units(name, a, b, 10.0)[:2])
            assert wide >= narrow, name

    def test_scores_cover_registry_sorted_cheapest_first(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=5)))
        b = sketch_dataset(list(uniform_boxes(200, seed=6)))
        scores = score_candidates(a, b, 5.0)
        assert sorted(s.algorithm for s in scores) == sorted(ALGORITHMS)
        costs = [s.cost_seconds for s in scores]
        assert costs == sorted(costs)

    def test_rebuild_penalty_for_non_prepare_aware(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=5)))
        b = sketch_dataset(list(uniform_boxes(200, seed=6)))
        prepare_aware = {info.name for info in available() if info.prepare_aware}
        scores = score_candidates(a, b, 5.0, probes=50)
        for score in scores:
            if score.algorithm not in prepare_aware:
                assert "rebuilds per probe" in score.note

    def test_reuse_index_amortises_prepare_aware_build(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=5)))
        b = sketch_dataset(list(uniform_boxes(200, seed=6)))
        one_shot = {
            s.algorithm: s.cost_seconds for s in score_candidates(a, b, 5.0)
        }
        reused = score_candidates(a, b, 5.0, reuse_index=True)
        prepare_aware = {info.name for info in available() if info.prepare_aware}
        for score in reused:
            per_probe = float(
                DEFAULT_CALIBRATION["probe_overhead_seconds"]
            ) + float(
                DEFAULT_CALIBRATION["probe_overhead_extra"].get(
                    score.algorithm, 0.0
                )
            )
            if score.algorithm in prepare_aware:
                assert "amortised" in score.note
                # Amortised build + the per-probe overhead: strictly
                # below the one-shot build plus the same overhead.
                assert (
                    score.cost_seconds < one_shot[score.algorithm] + per_probe
                )

    def test_memory_budget_spill_penalty(self):
        a = sketch_dataset(list(uniform_boxes(400, seed=7)))
        b = sketch_dataset(list(uniform_boxes(800, seed=8)))
        unbounded = {
            s.algorithm: s.cost_seconds for s in score_candidates(a, b, 5.0)
        }
        squeezed = score_candidates(a, b, 5.0, max_bytes=1)
        assert any("over memory budget" in s.note for s in squeezed)
        for score in squeezed:
            assert score.cost_seconds >= unbounded[score.algorithm]


# -- plans -------------------------------------------------------------
class TestChoosePlan:
    def test_winner_is_cheapest_candidate(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=9)))
        b = sketch_dataset(list(uniform_boxes(200, seed=10)))
        plan = choose_plan(a, b, 5.0)
        assert plan.algorithm == plan.candidates[0].algorithm
        assert plan.chosen().algorithm == plan.algorithm
        assert sum(1 for c in plan.candidates if c.chosen) == 1

    def test_pinned_algorithm_respected_and_recorded(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=9)))
        b = sketch_dataset(list(uniform_boxes(200, seed=10)))
        plan = choose_plan(a, b, 5.0, algorithm="NL", workers=2)
        assert plan.algorithm == "NL"
        assert plan.workers == 2
        assert "algorithm" in plan.pinned
        assert "workers" in plan.pinned
        # The full candidate list is still scored (that's how explain
        # shows what auto would have picked instead).
        assert len(plan.candidates) == len(ALGORITHMS)

    def test_backend_auto_is_not_a_pin(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=9)))
        b = sketch_dataset(list(uniform_boxes(200, seed=10)))
        assert "backend" not in choose_plan(a, b, 5.0, backend="auto").pinned
        assert "backend" in choose_plan(a, b, 5.0, backend="object").pinned

    def test_unknown_algorithm_raises(self):
        a = sketch_dataset(list(uniform_boxes(50, seed=9)))
        b = sketch_dataset(list(uniform_boxes(50, seed=10)))
        with pytest.raises(KeyError):
            choose_plan(a, b, 5.0, algorithm="NoSuchJoin")

    def test_small_workload_stays_sequential(self):
        a = sketch_dataset(list(uniform_boxes(50, seed=11)))
        b = sketch_dataset(list(uniform_boxes(50, seed=12)))
        assert choose_plan(a, b, 1.0).workers == 0

    def test_plan_json_round_trip_exact(self):
        a = sketch_dataset(list(uniform_boxes(100, seed=13)))
        b = sketch_dataset(list(uniform_boxes(200, seed=14)))
        plan = choose_plan(a, b, 5.0, geometry="mbr", reuse_index=True)
        restored = Plan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert restored == plan

    def test_plan_is_deterministic(self):
        a_objects = list(uniform_boxes(100, seed=15))
        b_objects = list(uniform_boxes(200, seed=16))
        first = choose_plan(
            sketch_dataset(a_objects), sketch_dataset(b_objects), 5.0
        )
        clear_sketch_cache()
        second = choose_plan(
            sketch_dataset(list(a_objects)), sketch_dataset(list(b_objects)), 5.0
        )
        assert first == second
