"""The benchmark's three workloads: inputs, reference, set-up, timed ops.

Every workload builds its inputs from the seed it is given, computes a
reference pair set off the clock through a different code path, and
then runs closed-loop operations against the program.  Each operation's
pair set is checked against the reference, off the clock as well.

=====================  ==============================================
workload               operation
=====================  ==============================================
``oneshot_clustered``  ``run_algorithm("TOUCH", A, B, 5)``, MBR join
``exact_polygons``     the same with ``geometry="exact"`` on polygons
``serve_sharded``      one 80-box probe batch through a 2-shard tier,
                       two batches in flight
=====================  ==============================================
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import hostspeed
import layers

EPSILON = 5.0
ALGORITHM = "TOUCH"
DEFAULT_SEED = 20130622


def universe_edge(n_a: int) -> float:
    """The repo's density-preserving universe: the paper's 1000-unit
    cube holding 1.6M build objects, shrunk to ``n_a`` at equal density."""
    return 1000.0 * (n_a / 1_600_000) ** (1.0 / 3.0)


@dataclass
class Phase:
    """What one timed phase produced.

    ``latencies`` / ``elapsed`` are wall seconds; ``scaled`` and
    ``scaled_elapsed`` are the same divided by the host slowdown
    measured around them (see :mod:`hostspeed`).
    """

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    elapsed: float = 0.0
    scaled_elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    stats: list = field(default_factory=list)
    parameters: list = field(default_factory=list)
    backends: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    def add_interval(self, seconds: float, slowdown: float) -> None:
        self.elapsed += seconds
        self.scaled_elapsed += seconds / slowdown
        self.slowdowns.append(slowdown)

    def add_latency(self, seconds: float, slowdown: float) -> None:
        self.latencies.append(seconds)
        self.scaled.append(seconds / slowdown)

    @property
    def ops_per_s(self) -> float:
        """Completed ops per host-speed-scaled second."""
        return len(self.latencies) / self.scaled_elapsed if self.scaled_elapsed else 0.0

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed if self.elapsed else 0.0


# -- one-shot joins through the run_algorithm front door -----------------

_captured: list = []


def _capture_results() -> None:
    """Keep the JoinResult that ``run_algorithm`` flattens into a record.

    ``run_algorithm`` returns only counts; the pair set that the check
    needs is the result it hands to ``record_from_result``.
    """
    import repro.bench.runner as runner

    if getattr(runner.record_from_result, "perfbench_capture", False):
        return
    original = runner.record_from_result

    def capturing(result, *args, **kwargs):
        _captured.append(result)
        return original(result, *args, **kwargs)

    capturing.perfbench_capture = True
    runner.record_from_result = capturing


class OneShot:
    """Closed loop of one-shot joins, one at a time."""

    SETUPS = 3

    def __init__(
        self, seed: int, distribution: str, n_a: int, n_b: int, geometry: str,
        **shape,
    ):
        from repro.bench.config import RunOptions
        from repro.datasets.synthetic import make_distribution

        edge = universe_edge(n_a)
        self.dataset_a = make_distribution(
            distribution, n_a, seed=seed, space=edge, **shape
        )
        self.dataset_b = make_distribution(
            distribution, n_b, seed=seed + 1, space=edge, **shape
        )
        self.geometry = geometry
        # workers=0 pins sequential execution whatever REPRO_* says.
        self.options = RunOptions(workers=0, geometry=geometry)
        self.reference: frozenset = frozenset()
        _capture_results()

    def compute_reference(self) -> int:
        """PBSM-100 filter (+ object-backend refine in exact mode)."""
        from repro.datasets.transform import inflate
        from repro.joins.registry import make_algorithm

        pbsm = make_algorithm("PBSM-100")
        if self.geometry == "exact":
            from repro.refine import RefinePipeline

            build = [obj.inflated(EPSILON) for obj in self.dataset_a]
            candidates = pbsm.join(build, self.dataset_b).pairs
            pairs = RefinePipeline(EPSILON, backend="object").refine(
                candidates, list(self.dataset_a), list(self.dataset_b)
            )
        else:
            pairs = pbsm.join(inflate(self.dataset_a, EPSILON), self.dataset_b).pairs
        self.reference = frozenset(pairs)
        return len(self.reference)

    def op(self):
        import repro.bench.runner as runner

        _captured.clear()
        runner.run_algorithm(
            ALGORITHM, self.dataset_a, self.dataset_b, EPSILON, options=self.options
        )
        return _captured.pop()

    def check(self, result) -> bool:
        return len(result.pairs) == len(self.reference) and (
            frozenset(result.pairs) == self.reference
        )

    def setup(self) -> float:
        """Ready to serve = one warm-up join; returns its seconds."""
        start = time.perf_counter()
        result = self.op()
        elapsed = time.perf_counter() - start
        if not self.check(result):
            raise RuntimeError("warm-up join disagrees with the reference")
        return elapsed

    def run_phase(self, seconds: float) -> Phase:
        """Ops until ``seconds`` of op time; checks run off the clock.

        The calibration kernel runs between ops, so every op is
        bracketed by two samples of the host's speed.
        """
        phase = Phase()
        before = hostspeed.kernel_seconds()
        while phase.elapsed < seconds:
            start = time.perf_counter()
            try:
                result = self.op()
            except Exception as exc:  # counted, never silently dropped
                result = exc
            elapsed = time.perf_counter() - start
            after = hostspeed.kernel_seconds()
            slowdown = hostspeed.slowdown(before, after)
            before = after
            phase.add_interval(elapsed, slowdown)
            phase.attempted += 1
            if isinstance(result, Exception):
                phase.failed += 1
                phase.errors.append(f"{type(result).__name__}: {result}")
                continue
            phase.add_latency(elapsed, slowdown)
            phase.stats.append(result.stats)
            phase.backends.add(str(result.stats.extra.get("backend", "unreported")))
            if not self.check(result):
                phase.failed += 1
                phase.errors.append("pair set differs from the reference")
            # Drop the pairs before the next op, so peak memory holds one
            # result, not two.
            del result
        return phase

    def trace_on(self) -> None:
        layers.enable()

    def trace_off(self) -> dict:
        layers.disable()
        return {"local": layers.collect(), "workers": []}

    def close(self) -> None:
        pass


# -- the sharded serving tier ---------------------------------------------

class ServeSharded:
    """Probe batches through a 2-shard tier, a closed loop of 2 clients."""

    SHARDS = 2
    CLIENTS = 2
    SETUPS = 7
    WINDOW_S = 1.0
    N_A = 8000
    N_B = 32000
    BATCH = 80

    def __init__(self, seed: int):
        from repro.datasets.synthetic import make_distribution

        edge = universe_edge(self.N_A)
        self.dataset_a = make_distribution("uniform", self.N_A, seed=seed, space=edge)
        dataset_b = make_distribution("uniform", self.N_B, seed=seed + 1, space=edge)
        boxes = [obj.mbr for obj in dataset_b]
        self.batches = [
            boxes[k : k + self.BATCH] for k in range(0, len(boxes), self.BATCH)
        ]
        self.reference: list[frozenset] = []
        self.service = None

    def compute_reference(self) -> int:
        """All of B as one probe of the single-process query service.

        Pairs come back as (build oid, position in B); position ``p``
        is entry ``p % BATCH`` of batch ``p // BATCH``.
        """
        from repro.service import SpatialQueryService

        local = SpatialQueryService()
        local.register("A", list(self.dataset_a))
        every_box = [box for batch in self.batches for box in batch]
        result = local.probe("A", every_box, EPSILON, algorithm=ALGORITHM)
        per_batch: list[list] = [[] for _ in self.batches]
        for oid_a, position in result.pairs:
            per_batch[position // self.BATCH].append((oid_a, position % self.BATCH))
        self.reference = [frozenset(pairs) for pairs in per_batch]
        return len(result.pairs)

    def _probe(self, k: int):
        return self.service.probe(
            "A", self.batches[k], EPSILON, algorithm=ALGORITHM
        )

    def check(self, k: int, result) -> bool:
        return len(result.pairs) == len(self.reference[k]) and (
            frozenset(result.pairs) == self.reference[k]
        )

    def setup(self) -> float:
        """Cluster start + register + warm-up probe; returns its seconds.

        A second call tears the previous cluster down first (off the
        clock), so only the last one serves the timed phase.
        """
        from repro.serving import ShardedQueryService

        self.close()
        start = time.perf_counter()
        service = ShardedQueryService(shards=self.SHARDS)
        self.service = service
        service.start()
        service.register("A", list(self.dataset_a))
        result = self._probe(0)
        elapsed = time.perf_counter() - start
        if not self.check(0, result):
            raise RuntimeError("warm-up probe disagrees with the reference")
        return elapsed

    def run_phase(self, seconds: float) -> Phase:
        """Two client threads, each sending its next batch on a reply.

        The phase runs in windows of :data:`WINDOW_S`.  Between windows
        the clients drain and the calibration kernel runs alone, so
        every window is bracketed by two samples of the host's speed.
        """
        phase = Phase()
        lock = threading.Lock()
        cursor = iter(range(1 << 62))
        before = hostspeed.kernel_seconds()
        while phase.elapsed < seconds:
            outcomes: list = []
            deadline = time.perf_counter() + min(self.WINDOW_S, seconds - phase.elapsed)

            def client() -> None:
                while time.perf_counter() < deadline:
                    with lock:
                        k = next(cursor) % len(self.batches)
                    start = time.perf_counter()
                    try:
                        result = self._probe(k)
                    except Exception as exc:  # counted, never silently dropped
                        result = exc
                    latency = time.perf_counter() - start
                    # Checked here and dropped, so memory does not grow
                    # with the number of probes a run completes.
                    if isinstance(result, Exception):
                        error = f"{type(result).__name__}: {result}"
                        outcomes.append((latency, error, None, None))
                        continue
                    error = None
                    if not self.check(k, result):
                        error = f"batch {k}: pair set differs from the reference"
                    outcomes.append((latency, error, result.stats, result.parameters))

            begin = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            window = time.perf_counter() - begin
            after = hostspeed.kernel_seconds()
            slowdown = hostspeed.slowdown(before, after)
            before = after
            phase.add_interval(window, slowdown)
            for latency, error, stats, parameters in outcomes:
                phase.attempted += 1
                if error is not None:
                    phase.failed += 1
                    phase.errors.append(error)
                if stats is None:
                    continue  # the probe raised: no latency to report
                phase.add_latency(latency, slowdown)
                phase.stats.append(stats)
                phase.parameters.append(parameters)
        return phase

    def _workers(self, message: dict) -> list[dict]:
        from repro.serving.protocol import SyncConnection

        replies = []
        for host, port in self.service.cluster.endpoints:
            with SyncConnection(host, port) as conn:
                replies.append(conn.request(message))
        return replies

    def trace_on(self) -> None:
        self._workers({"op": "perfbench_trace", "enable": True})
        layers.enable()

    def trace_off(self) -> dict:
        layers.disable()
        replies = self._workers({"op": "perfbench_trace", "collect": True})
        return {
            "local": layers.collect(),
            "workers": [reply["spans"] for reply in replies],
            "backends": sorted({b for reply in replies for b in reply["backends"]}),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {
    "oneshot_clustered": (
        "TOUCH one-shot MBR join on clustered boxes: build-side layers "
        "(inflate, tree, assignment, local join) do all the work",
        # 1000 clusters rather than the paper's 100: with 100, where the
        # clusters of A and B happen to overlap moves the pair count by
        # about 8% from seed to seed, more than a regression bound.
        lambda seed: OneShot(
            seed, "clustered", 32_000, 128_000, "mbr", n_clusters=1000
        ),
    ),
    "exact_polygons": (
        "TOUCH one-shot exact-geometry join on polygons: the refine stage "
        "dominates and the MBR filter is a small share",
        lambda seed: OneShot(seed, "polygons", 1_000, 4_000, "exact"),
    ),
    "serve_sharded": (
        "cached probe batches through the 2-shard serving tier: routing, "
        "wire codec and worker probes, no index build",
        ServeSharded,
    ),
}
