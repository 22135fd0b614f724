"""The sharded serving tier: routing, protocol, and the live topology.

Unit-level pins for the shard geometry (``covering_indices`` vs the
``covers`` oracle, the home-shard uniqueness lemma) and the JSON-lines
wire protocol, plus end-to-end tests against one real 3-shard cluster:
worker processes, scatter-gather probes, the ``serve_front`` listener,
and concurrent clients mixing a thread pool with raw asyncio
connections.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.cli import main as cli_main
from repro.datasets.synthetic import uniform_boxes
from repro.geometry.mbr import MBR
from repro.parallel.decompose import Decomposition
from repro.service import SpatialQueryService
from repro.serving import router as router_module
from repro.serving import (
    ProtocolError,
    RemoteError,
    ShardedQueryService,
    ShardMap,
    SyncConnection,
    percentile,
    run_scatter_workload,
    serve_front,
)
from repro.serving.protocol import (
    decode_boxes,
    decode_message,
    encode_boxes,
    encode_message,
)

EPS = 2.5
UNIVERSE = MBR((0.0, 0.0, 0.0), (40.0, 40.0, 40.0))


def random_mbrs(count: int, seed: int, span: float = 44.0) -> list[MBR]:
    """Random boxes, some poking past the universe boundary."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lo = [rng.uniform(-2.0, span) for _ in range(3)]
        side = [rng.uniform(0.0, 3.0) for _ in range(3)]
        out.append(MBR(lo, [c + s for c, s in zip(lo, side)]))
    return out


# ---------------------------------------------------------------------------
# Routing geometry
# ---------------------------------------------------------------------------
class TestCoveringIndices:
    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    @pytest.mark.parametrize("n_chunks", [1, 3, 6])
    def test_matches_the_covers_oracle(self, kind, n_chunks):
        decomposition = Decomposition.build(UNIVERSE, kind=kind, n_chunks=n_chunks)
        for box in random_mbrs(120, seed=hash((kind, n_chunks)) % 10_000):
            expected = [
                region.index
                for region in decomposition.regions
                if decomposition.covers(region, box)
            ]
            assert decomposition.covering_indices(box) == expected
            assert expected, "ownership clamps: every box covers >= 1 region"

    def test_point_box_covers_exactly_one_region(self):
        decomposition = Decomposition.build(UNIVERSE, kind="slabs", n_chunks=5)
        point = MBR((7.0, 7.0, 7.0), (7.0, 7.0, 7.0))
        assert len(decomposition.covering_indices(point)) == 1


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            ShardMap(UNIVERSE, 0)
        with pytest.raises(ValueError, match="unknown shard layout"):
            ShardMap(UNIVERSE, 2, kind="spirals")
        with pytest.raises(ValueError, match="zero objects"):
            ShardMap.for_objects([], 2)

    def test_full_mask_tracks_partitioned_axes(self):
        assert ShardMap(UNIVERSE, 4, kind="slabs").full_mask == 0b1
        tiled = ShardMap(UNIVERSE, 4, kind="tiles")
        assert tiled.full_mask == (1 << len(tiled.decomposition.axes)) - 1

    def test_len_and_describe(self):
        shard_map = ShardMap(UNIVERSE, 3)
        assert len(shard_map) == 3
        assert shard_map.describe()["shards"] == 3

    def test_membership_mirrors_covering_indices(self):
        objects = list(uniform_boxes(100, seed=31, space=40.0))
        shard_map = ShardMap.for_objects(objects, 4)
        members = shard_map.shard_members(objects)
        placed: dict[int, list[int]] = {obj.oid: [] for obj in objects}
        for shard, shard_objects in enumerate(members):
            for obj, mask in shard_objects:
                placed[obj.oid].append(shard)
                assert 0 <= mask <= shard_map.full_mask
        for obj in objects:
            assert placed[obj.oid] == shard_map.decomposition.covering_indices(
                obj.mbr
            )

    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    def test_every_intersecting_pair_has_exactly_one_home_shard(self, kind):
        """The duplicate-free lemma the scatter-gather merge rests on."""
        build = random_mbrs(40, seed=91)
        probes = random_mbrs(40, seed=92)
        shard_map = ShardMap(UNIVERSE, 6, kind=kind)
        decomposition = shard_map.decomposition
        for a in build:
            build_shards = {
                flat: decomposition.class_mask(decomposition.regions[flat], a)
                for flat in decomposition.covering_indices(a)
            }
            for q in probes:
                inflated = q.expand(EPS)
                if not a.intersects(inflated):
                    continue
                homes = [
                    shard
                    for shard, probe_mask in shard_map.route(inflated)
                    if shard in build_shards
                    and build_shards[shard] | probe_mask == shard_map.full_mask
                ]
                assert len(homes) == 1


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip(self):
        message = {"op": "probe", "epsilon": 2.5, "ids": [0, 7], "nested": {"x": 1}}
        frame = encode_message(message)
        assert frame.endswith(b"\n") and b" " not in frame
        assert decode_message(frame) == message

    def test_floats_survive_bit_for_bit(self):
        values = [0.1, 1e-17, 40.0 / 3.0, 2.5000000000000004]
        decoded = decode_message(encode_message({"v": values}))
        assert decoded["v"] == values

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError, match="undecodable frame"):
            decode_message(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2]\n")

    def test_box_round_trip(self):
        boxes = random_mbrs(25, seed=5)
        assert decode_boxes(encode_boxes(boxes)) == boxes

    def test_decode_boxes_rejects_odd_rows(self):
        with pytest.raises(ProtocolError, match="not 2\\*D"):
            decode_boxes([[1.0, 2.0, 3.0]])

    def test_remote_error_carries_type(self):
        error = RemoteError("boom", "KeyError")
        assert error.error_type == "KeyError"
        assert str(error) == "boom"


class TestPercentile:
    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="zero samples"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0], 1.5)


# ---------------------------------------------------------------------------
# The live topology (one shared 3-shard cluster for the whole module)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def data():
    return (
        list(uniform_boxes(120, seed=71, space=40.0)),
        list(uniform_boxes(300, seed=72, space=40.0)),
    )


@pytest.fixture(scope="module")
def sharded(data):
    build, _ = data
    with ShardedQueryService(shards=3, capacity=8) as service:
        service.register("build", build)
        yield service


@pytest.fixture(scope="module")
def reference(data):
    build, _ = data
    service = SpatialQueryService(capacity=8)
    service.register("build", build)
    return service


@pytest.mark.parallel
class TestShardedService:
    def test_register_reports_replication(self, sharded, data):
        build, _ = data
        info = sharded.datasets()
        assert info == {"build": len(build)}
        assert sharded.cluster.shards == 3

    def test_object_probe_matches_single_process(self, sharded, reference, data):
        _, probe = data
        expected = reference.probe("build", probe, EPS)
        got = sharded.probe("build", probe, EPS)
        assert sorted(got.pairs) == sorted(expected.pairs)
        assert got.parameters["shards"] == 3

    def test_single_mbr_probe(self, sharded, reference, data):
        _, probe = data
        box = probe[0].mbr
        expected = reference.probe("build", box, EPS)
        got = sharded.probe("build", box, EPS)
        assert sorted(got.pairs) == sorted(expected.pairs)

    def test_mbr_batch_and_aliases(self, sharded, reference, data):
        _, probe = data
        boxes = [obj.mbr for obj in probe[:40]]
        expected = reference.probe_mbrs("build", boxes, EPS)
        via_probe = sharded.probe("build", boxes, EPS)
        via_alias = sharded.probe_mbrs("build", boxes, EPS)
        via_query = sharded.query("build", probe[:40], EPS)
        assert sorted(via_probe.pairs) == sorted(expected.pairs)
        assert sorted(via_alias.pairs) == sorted(expected.pairs)
        assert {b for _, b in via_query.pairs} <= {obj.oid for obj in probe[:40]}

    def test_epsilon_zero_and_validation(self, sharded, data):
        _, probe = data
        result = sharded.probe("build", probe[:10], 0.0)
        assert result.parameters["epsilon"] == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            sharded.probe("build", probe[:10], -1.0)

    def test_unknown_dataset_names_the_registered_ones(self, sharded, data):
        _, probe = data
        with pytest.raises(KeyError, match="unknown dataset 'nope'.*build"):
            sharded.probe("nope", probe[:5], EPS)

    def test_empty_batch_rejected(self, sharded):
        with pytest.raises(ValueError, match="empty batch"):
            sharded.probe("build", [], EPS)
        with pytest.raises(ValueError, match="at least one query MBR"):
            sharded.probe_mbrs("build", [], EPS)

    def test_warm_cache_on_repeat(self, sharded, data):
        _, probe = data
        sharded.probe("build", probe[:20], EPS)
        again = sharded.probe("build", probe[:20], EPS)
        assert again.parameters["cache"] == "warm"

    def test_stats_and_health(self, sharded):
        stats = sharded.stats()
        assert stats["probes"] >= 1
        assert stats["subprobes"] >= stats["probes"]
        assert len(stats["per_shard"]) == 3
        health = sharded.health()
        assert [entry["shard"] for entry in health] == [0, 1, 2]
        assert all("build" in entry["datasets"] for entry in health)

    def test_concurrent_thread_pool_and_asyncio_clients(
        self, sharded, reference, data
    ):
        """The ISSUE's client mix: blocking threads + raw async sockets.

        Eight thread-pool clients hammer the sync facade while four
        asyncio clients speak the JSON-lines protocol to a
        ``serve_front`` listener on the same router — every response
        must match the single-process service pair-for-pair.
        """
        _, probe = data
        batches = [probe[i::6] for i in range(6)]
        expected = [
            sorted(reference.probe("build", chunk, EPS).pairs)
            for chunk in batches
        ]

        server = asyncio.run_coroutine_threadsafe(
            serve_front(sharded.router), sharded._loop
        ).result()
        port = server.sockets[0].getsockname()[1]
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(sharded.probe, "build", batches[i % 6], EPS)
                    for i in range(12)
                ]

                async def async_client(index: int) -> list:
                    chunk = batches[index % 6]
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    try:
                        writer.write(
                            encode_message(
                                {
                                    "op": "probe",
                                    "dataset": "build",
                                    "epsilon": EPS,
                                    "ids": [obj.oid for obj in chunk],
                                    "boxes": encode_boxes(
                                        [obj.mbr for obj in chunk]
                                    ),
                                }
                            )
                        )
                        await writer.drain()
                        response = decode_message(await reader.readline())
                        assert response["ok"], response
                        return sorted(
                            (a, b) for a, b in response["pairs"]
                        )
                    finally:
                        writer.close()

                async def drive() -> list:
                    return await asyncio.gather(
                        *(async_client(i) for i in range(8))
                    )

                async_pairs = asyncio.run(drive())
                for index, future in enumerate(futures):
                    assert sorted(future.result().pairs) == expected[index % 6]
                for index, pairs in enumerate(async_pairs):
                    assert pairs == expected[index % 6]
        finally:
            sharded._loop.call_soon_threadsafe(server.close)

    def test_serve_front_error_frames(self, sharded):
        server = asyncio.run_coroutine_threadsafe(
            serve_front(sharded.router), sharded._loop
        ).result()
        port = server.sockets[0].getsockname()[1]
        try:
            with SyncConnection("127.0.0.1", port) as connection:
                listing = connection.request({"op": "datasets"})
                assert listing["datasets"] == sharded.datasets()
                with pytest.raises(RemoteError, match="unknown op"):
                    connection.request({"op": "explode"})
                with pytest.raises(RemoteError, match="unknown dataset") as info:
                    connection.request(
                        {
                            "op": "probe",
                            "dataset": "nope",
                            "epsilon": EPS,
                            "boxes": [[0, 0, 0, 1, 1, 1]],
                        }
                    )
                assert info.value.error_type == "KeyError"
        finally:
            sharded._loop.call_soon_threadsafe(server.close)

    def test_not_running_raises(self):
        service = ShardedQueryService(shards=2)
        with pytest.raises(RuntimeError, match="not running"):
            service._call(None)


@pytest.mark.parallel
def test_frames_larger_than_the_default_stream_limit():
    """Register/probe frames past asyncio's 64 KiB default readline limit.

    The stream servers and pooled client connections must pass an
    explicit ``limit`` — with the default, a medium-scale registration
    killed the worker connection mid-frame (regression).
    """
    build = list(uniform_boxes(1600, seed=41, space=60.0))
    probe = list(uniform_boxes(400, seed=42, space=60.0))
    reference = SpatialQueryService(capacity=2)
    reference.register("big", build)
    expected = reference.probe("big", probe, EPS)
    with ShardedQueryService(shards=2, capacity=2) as service:
        service.register("big", build)
        got = service.probe("big", probe, EPS)
    assert sorted(got.pairs) == sorted(expected.pairs)


@pytest.mark.parallel
@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs POSIX job control")
def test_stalled_worker_fails_the_probe_within_the_deadline(data, monkeypatch):
    """A stopped shard worker costs its probes one deadline, not a hang.

    Shard 1 is SIGSTOPped, so the probe's request to it goes unanswered:
    the probe must fail once the (lowered) request deadline passes,
    naming the shard and the op.  After SIGCONT the tier serves the
    reference pairs again: a different batch than the stalled one, so a
    late reply left on a pooled connection would show.
    """
    build, probe = data
    reference = SpatialQueryService(capacity=2)
    reference.register("build", build)
    expected = sorted(reference.probe("build", probe, EPS).pairs)
    deadline = 1.0
    with ShardedQueryService(shards=2, capacity=2) as service:
        service.register("build", build)
        assert sorted(service.probe("build", probe, EPS).pairs) == expected
        monkeypatch.setattr(router_module, "REQUEST_TIMEOUT", deadline)
        pid = service.cluster.processes[1].pid
        os.kill(pid, signal.SIGSTOP)
        try:
            start = time.perf_counter()
            with pytest.raises(TimeoutError, match="shard 1: no reply to op 'probe'"):
                service.probe("build", probe[: len(probe) // 2], EPS)
            assert time.perf_counter() - start < deadline + 2.0
        finally:
            os.kill(pid, signal.SIGCONT)
        assert sorted(service.probe("build", probe, EPS).pairs) == expected


@pytest.mark.parallel
def test_scatter_workload_reports_and_asserts_parity(data):
    build, probe = data
    summary = run_scatter_workload(
        build, probe, EPS, shards=2, probes=6, concurrency=4
    )
    assert summary["parity"] is True
    assert summary["probes"] == 6
    assert summary["qps"] > 0
    assert summary["p99_ms"] >= summary["p50_ms"] >= 0
    assert summary["fanout_avg"] >= 1.0
    assert summary["result_pairs"] > 0


def test_cli_serve_unknown_dataset_lists_known(capsys):
    exit_code = cli_main(["serve", "--dataset", "nosuch", "--scale", "smoke"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "unknown dataset 'nosuch'" in captured.err
    assert "uniform" in captured.err and "neuro" in captured.err
