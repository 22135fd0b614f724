"""One exact distance join through every front door.

``run_algorithm`` (one-shot, multiprocess, budgeted, cached and cached
under a budget), the query service and the sharded tier all run the
plan / executor / filter / refine phases of :mod:`repro.execute`.  On
one polygon workload dense enough for every refine outcome, each door
must return the same pairs and count the same refine work; a door that
refines pairs it then drops (or skips pairs it owns) shows up in the
counters even when its pair set is right.
"""

from __future__ import annotations

import pytest

import repro.bench.runner as runner
from repro.bench.config import RunOptions
from repro.datasets.synthetic import clustered_polygons
from repro.service import SpatialQueryService
from repro.serving import ShardedQueryService

EPSILON = 5.0
#: Far below the join's priced footprint, so the memory governor spills.
SPILL_BYTES = 200_000
COUNTERS = (
    "candidate_pairs", "false_hit_prunes", "true_hits", "exact_tests",
    "refined_pairs",
)
#: Doors that refine in this process (the sharded tier refines in its
#: workers and merges their counters).
IN_PROCESS = (
    "oneshot", "workers", "budgeted", "reuse_cold", "reuse_warm",
    "reuse_budgeted", "service",
)
DOORS = IN_PROCESS + ("sharded",)


@pytest.fixture(scope="module")
def datasets():
    a = clustered_polygons(2000, space=100.0, n_clusters=3, seed=51)
    b = clustered_polygons(3000, space=100.0, n_clusters=3, seed=52)
    return a, b


@pytest.fixture(scope="module")
def doors(datasets):
    """Door name -> (JoinResult, RunRecord or None)."""
    a, b = datasets
    captured = []
    record_from_result = runner.record_from_result

    def capture(result, *args, **kwargs):
        captured.append(result)
        return record_from_result(result, *args, **kwargs)

    service = SpatialQueryService()
    runs = {
        "oneshot": RunOptions(workers=0),
        "workers": RunOptions(workers=2),
        "budgeted": RunOptions(workers=0, max_bytes=SPILL_BYTES),
        "reuse_cold": RunOptions(workers=0, reuse_index=service),
        "reuse_warm": RunOptions(workers=0, reuse_index=service),
        "reuse_budgeted": RunOptions(
            workers=0, reuse_index=service, max_bytes=SPILL_BYTES
        ),
    }
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "record_from_result", capture)
        for name, options in runs.items():
            record = runner.run_algorithm(
                "TOUCH", a, b, EPSILON,
                options=RunOptions(geometry="exact").over(options),
            )
            assert len(captured) == 1
            out[name] = (captured.pop(), record)
    out["service"] = (
        SpatialQueryService().probe(a, b, EPSILON, geometry="exact"), None
    )
    with ShardedQueryService(shards=2) as sharded:
        sharded.register("a", a)
        out["sharded"] = (sharded.probe("a", b, EPSILON, geometry="exact"), None)
    return out


def _counters(result):
    return tuple(getattr(result.stats, name) for name in COUNTERS)


def test_workload_exercises_every_refine_outcome(doors):
    stats = doors["oneshot"][0].stats
    assert stats.false_hit_prunes > 0
    assert stats.true_hits > 0
    assert stats.exact_tests > 0
    assert 0 < stats.refined_pairs < stats.candidate_pairs


@pytest.mark.parametrize("door", DOORS)
def test_door_returns_the_oneshot_pairs(doors, door):
    expected = doors["oneshot"][0]
    result = doors[door][0]
    assert result.pair_set() == expected.pair_set()
    assert len(result) == result.stats.result_pairs == expected.stats.result_pairs


@pytest.mark.parametrize("door", DOORS)
def test_door_counts_the_oneshot_refine_work(doors, door):
    assert _counters(doors[door][0]) == _counters(doors["oneshot"][0])


@pytest.mark.parametrize("door", IN_PROCESS)
def test_door_records_the_refine_alike(doors, door):
    result, record = doors[door]
    stats = result.stats
    refine_seconds = stats.extra["refine_seconds"]
    assert refine_seconds > 0
    assert stats.join_seconds >= refine_seconds
    assert stats.total_seconds >= refine_seconds
    assert result.parameters["geometry"] == "exact"
    if record is not None:
        assert record.extra["geometry"] == "exact"
        assert record.extra["refine_seconds"] == refine_seconds
        assert record.result_pairs == stats.result_pairs


def test_budgeted_doors_spill(doors):
    for door in ("budgeted", "reuse_budgeted"):
        assert doors[door][1].extra["spilled_partitions"] > 0
    assert doors["reuse_budgeted"][1].extra["cache"] == "spilled"


def test_reuse_doors_go_cold_then_warm(doors):
    assert doors["reuse_cold"][1].extra["cache"] == "cold"
    assert doors["reuse_warm"][1].extra["cache"] == "warm"
