"""Ablation — BlueGene/P-style chunked execution (§3).

The paper's deployment splits the tissue into contiguous subsets and runs
an independent in-memory join per core.  This bench verifies the
decomposition semantics on one machine, one worker joining the regions
in turn: the union of per-chunk TOUCH joins must produce the same result-pair count at every chunk count, while
per-chunk peak memory (one "core") shrinks.
"""

import pytest

from _bench_utils import SCALE
from repro.bench.runner import record_from_result
from repro.bench.workloads import synthetic_pair
from repro.datasets.transform import inflate
from repro.joins.registry import make_algorithm
from repro.parallel.engine import ParallelChunkedJoin

_N_B = SCALE.large_b_steps[len(SCALE.large_b_steps) // 2]


@pytest.mark.benchmark(group="ablation-chunked")
@pytest.mark.parametrize("n_chunks", (1, 2, 4, 8), ids=lambda n: f"chunks{n}")
def test_chunked(benchmark, n_chunks):
    dataset_a, dataset_b = synthetic_pair("uniform", SCALE.large_a, _N_B, SCALE)
    build = inflate(dataset_a, SCALE.large_epsilon)
    reference = make_algorithm("TOUCH").join(build, dataset_b)

    def run():
        algorithm = ParallelChunkedJoin("TOUCH", workers=1, n_chunks=n_chunks)
        result = algorithm.join(build, dataset_b)
        return record_from_result(
            result, dataset_a.name, len(dataset_a), len(dataset_b), SCALE.large_epsilon
        )

    record = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert record.result_pairs == len(reference.pairs)
    benchmark.extra_info["n_chunks"] = n_chunks
    benchmark.extra_info["comparisons"] = record.comparisons
    benchmark.extra_info["memory_bytes"] = record.memory_bytes
    benchmark.extra_info["result_pairs"] = record.result_pairs
