"""Multiprocess execution of the paper's §3 decomposition.

- :mod:`repro.parallel.decompose` — slab/tile cutting and the shared
  boundary-ownership (reference-point) rule;
- :mod:`repro.parallel.engine` — the ``multiprocessing`` engine
  (``workers=1`` runs the regions one after another, the one-core
  simulation of the paper's deployment).
"""

from repro.parallel.decompose import (
    DECOMPOSE_KINDS,
    Decomposition,
    Region,
    adaptive_chunk_count,
    slab_bounds,
    tile_grid,
)

#: Engine names resolved lazily so importing the package (or anything
#: that re-exports it, like the top-level ``repro``) does not pull in
#: multiprocessing machinery for purely sequential use.
_ENGINE_EXPORTS = ("ParallelChunkedJoin", "shutdown_pools")


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.parallel import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ParallelChunkedJoin",
    "Decomposition",
    "Region",
    "DECOMPOSE_KINDS",
    "adaptive_chunk_count",
    "slab_bounds",
    "tile_grid",
    "shutdown_pools",
]
