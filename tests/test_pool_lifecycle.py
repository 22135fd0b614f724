"""Worker-pool lifecycle: no semaphore or shm leaks at interpreter exit.

The engine caches one :class:`~concurrent.futures.ProcessPoolExecutor`
per ``(start_method, workers)`` and registers an ``atexit`` teardown on
first use.  A clean interpreter exit must therefore never trip the
``multiprocessing.resource_tracker`` "leaked semaphore/shared_memory
objects" warnings.  These tests run a real join workload in a child
interpreter under ``-W error::ResourceWarning`` (spawn start method
included — the strictest lifecycle) and require a silent, zero-status
exit.  The script must live in a real file: spawn re-imports
``__main__``, which does not exist for stdin-fed code.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """\
import sys

from repro.datasets.synthetic import uniform_boxes
from repro.parallel.engine import ParallelChunkedJoin, shutdown_pools

START_METHOD = sys.argv[1]
EXPLICIT_SHUTDOWN = sys.argv[2] == "explicit"

if __name__ == "__main__":
    a = list(uniform_boxes(80, space=20.0, side_range=(0.5, 2.0), seed=1))
    b = list(uniform_boxes(100, space=20.0, side_range=(0.5, 2.0), seed=2))
    for _ in range(3):
        join = ParallelChunkedJoin(
            "TOUCH", workers=2, n_chunks=4, start_method=START_METHOD
        )
        result = join.join(a, b)
        assert result.pairs, "join produced no pairs"
    if EXPLICIT_SHUTDOWN:
        shutdown_pools()
    # else: the atexit hook registered on first executor use must
    # tear the cached pools down on its own.
    print("LIFECYCLE-OK")
"""


@pytest.mark.parallel
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("teardown", ["explicit", "atexit"])
def test_no_resource_leaks_at_exit(tmp_path, start_method, teardown):
    script = tmp_path / "pool_lifecycle_check.py"
    script.write_text(SCRIPT)
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", str(script),
         start_method, teardown],
        capture_output=True,
        text=True,
        timeout=120,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC,
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "LIFECYCLE-OK" in proc.stdout
    for marker in ("ResourceWarning", "leaked", "resource_tracker"):
        assert marker not in proc.stderr, proc.stderr
