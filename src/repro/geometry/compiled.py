"""Optional compiled (numba) kernel tier — ``backend="compiled"``.

The columnar backend already replaced per-object Python loops with
batched numpy; this module goes one step further for the three hottest
kernels by lowering them to scalar loops that numba can JIT to native
code:

- :func:`intersect_pairs_compiled` — the batch nested-loop intersection
  (same pair order and |A|·|B| comparison semantics as
  :func:`repro.geometry.columnar.intersect_pairs`);
- :func:`sweep_pairs_compiled` — the forward plane sweep along
  dimension 0 (same two-pass tie rule and candidate count as
  :func:`repro.geometry.columnar.sweep_pairs`);
- :func:`descend_ranges` — TOUCH's range descent over a flattened
  hierarchy (:class:`FlatHierarchy`), including the **true-hit
  shortcut** from Kipf et al.'s adaptive geospatial joins: a probe box
  that fully covers a node's MBR owns every A row beneath it, so the
  whole contiguous subtree row range is emitted without a single
  per-pair test.  Counter parity with the uncompiled descent is kept by
  charging the skipped work from precomputed subtree aggregates
  (``sub_tests`` / ``sub_stop - sub_start``), so ``comparisons`` and
  ``node_tests`` are bit-identical to a full descent.  Without numba it
  runs the columnar probe's own numpy descent
  (:func:`repro.geometry.hierarchy.descend_hierarchy`).

Availability is auto-detected exactly like the columnar backend detects
numpy: importable numba makes ``backend="compiled"`` resolve to the
jitted kernels, anything else degrades to the columnar path.  The
``REPRO_COMPILED`` environment variable refines detection:

- ``auto`` (default) — numba if importable, else unavailable;
- ``force`` — report the tier available even without numba and run the
  numpy version of each kernel (identical pairs and counters; used by
  the test suite and CI legs without numba);
- ``off`` — report the tier unavailable even with numba installed.

A numba compilation/runtime failure never breaks a join: the failing
kernel set is disabled for the process (with a ``RuntimeWarning``) and
every call transparently uses the numpy version.
"""

from __future__ import annotations

import os
import warnings

from repro.geometry.columnar import (
    HAVE_NUMPY,
    CoordinateTable,
    intersect_pairs,
    require_numpy,
    sweep_pairs,
)
from repro.geometry.hierarchy import FlatHierarchy, descend_hierarchy

try:  # pragma: no cover - numpy import guarded like columnar.py
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

try:  # pragma: no cover - numba is an optional accelerator
    import numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default container has none
    numba = None  # type: ignore[assignment]
    HAVE_NUMBA = False

__all__ = [
    "HAVE_NUMBA",
    "compiled_available",
    "compiled_mode",
    "using_numba",
    "intersect_pairs_compiled",
    "sweep_pairs_compiled",
    "descend_ranges",
]

#: Valid values of the ``REPRO_COMPILED`` detection override.
COMPILED_MODES = ("auto", "force", "off")

# One-shot numba failure latch: a kernel that fails to compile (or
# crashes at runtime) disables the jitted tier for the process so every
# later call goes straight to the numpy twins.
_NUMBA_KERNELS = None
_NUMBA_DISABLED = False


def compiled_mode() -> str:
    """The ``REPRO_COMPILED`` detection mode (validated)."""
    raw = os.environ.get("REPRO_COMPILED", "").strip().lower()
    if raw == "":
        return "auto"
    if raw not in COMPILED_MODES:
        raise ValueError(
            f"invalid REPRO_COMPILED={raw!r}: expected one of "
            f"{', '.join(COMPILED_MODES)}"
        )
    return raw


def compiled_available() -> bool:
    """Whether ``backend="compiled"`` resolves to this tier.

    ``force`` counts the numpy versions as available (same pairs and
    counters); ``off`` always says no; ``auto`` requires importable
    numba.
    """
    if not HAVE_NUMPY:
        return False
    mode = compiled_mode()
    if mode == "off":
        return False
    if mode == "force":
        return True
    return HAVE_NUMBA


def using_numba() -> bool:
    """Whether calls will actually dispatch to jitted kernels."""
    return HAVE_NUMBA and not _NUMBA_DISABLED and compiled_mode() != "off"


def _disable_numba(error: Exception) -> None:
    global _NUMBA_DISABLED
    if not _NUMBA_DISABLED:  # pragma: no cover - defensive path
        _NUMBA_DISABLED = True
        warnings.warn(
            f"numba kernel failed ({error!r}); the compiled tier now runs "
            "its numpy fallbacks for the rest of the process",
            RuntimeWarning,
            stacklevel=3,
        )


def _kernels():
    """The jitted kernel namespace, compiled lazily; None when unusable."""
    global _NUMBA_KERNELS
    if not using_numba():
        return None
    if _NUMBA_KERNELS is None:
        try:
            _NUMBA_KERNELS = _build_numba_kernels()
        except Exception as error:  # pragma: no cover - env dependent
            _disable_numba(error)
            return None
    return _NUMBA_KERNELS


# --------------------------------------------------------------------------
# Batch intersection + plane sweep
# --------------------------------------------------------------------------
def intersect_pairs_compiled(table_a: CoordinateTable, table_b: CoordinateTable):
    """All intersecting ``(index_a, index_b)`` pairs, nested-loop order.

    Drop-in replacement for :func:`~repro.geometry.columnar.intersect_pairs`
    (identical pair order); jitted when numba is usable, numpy otherwise.
    """
    require_numpy()
    if table_a.dim != table_b.dim:
        raise ValueError(f"dimension mismatch: {table_a.dim} vs {table_b.dim}")
    kernels = _kernels()
    if kernels is not None and len(table_a) and len(table_b):
        try:
            return kernels.intersect(table_a.lo, table_a.hi, table_b.lo, table_b.hi)
        except Exception as error:  # pragma: no cover - env dependent
            _disable_numba(error)
    return intersect_pairs(table_a, table_b)


def sweep_pairs_compiled(table_a: CoordinateTable, table_b: CoordinateTable):
    """Forward plane sweep: ``(index_a, index_b, candidates)``.

    Drop-in replacement for :func:`~repro.geometry.columnar.sweep_pairs`
    — same two-pass forward scan, same tie ownership, same candidate
    count, same anchor-major emission order.
    """
    require_numpy()
    if table_a.dim != table_b.dim:
        raise ValueError(f"dimension mismatch: {table_a.dim} vs {table_b.dim}")
    kernels = _kernels()
    if kernels is not None and len(table_a) and len(table_b):
        order_a = np.argsort(table_a.lo[:, 0], kind="stable")
        order_b = np.argsort(table_b.lo[:, 0], kind="stable")
        try:
            return kernels.sweep(
                table_a.lo, table_a.hi, table_b.lo, table_b.hi, order_a, order_b
            )
        except Exception as error:  # pragma: no cover - env dependent
            _disable_numba(error)
    return sweep_pairs(table_a, table_b)


# --------------------------------------------------------------------------
# TOUCH range descent over a flattened hierarchy
# --------------------------------------------------------------------------
def descend_ranges(flat: FlatHierarchy, table_a, table_b, seed_nodes, query_rows):
    """Range-descend every query from its assigned node to the leaves.

    Same contract as :func:`~repro.geometry.hierarchy.descend_hierarchy`
    (``table_a`` in leaf order, query ``query_rows[i]`` of ``table_b``
    seeded at flat node ``seed_nodes[i]``), which it runs whenever numba
    is not in use.  The jitted kernel adds the true-hit shortcut and
    charges the skipped work from the subtree aggregates, so the pairs
    and the ``comparisons`` / ``node_tests`` counters are identical.

    Returns ``(a_rows, b_rows, comparisons, node_tests)``.
    """
    require_numpy()
    seed_nodes = np.ascontiguousarray(seed_nodes, dtype=np.int64)
    query_rows = np.ascontiguousarray(query_rows, dtype=np.int64)
    kernels = _kernels()
    if kernels is not None and len(query_rows) and len(table_a):
        try:
            out_a, out_q, comparisons, node_tests = kernels.descend(
                flat.node_lo,
                flat.node_hi,
                flat.children_ptr,
                flat.children_idx,
                flat.sub_start,
                flat.sub_stop,
                flat.sub_tests,
                np.ascontiguousarray(table_a.lo),
                np.ascontiguousarray(table_a.hi),
                np.ascontiguousarray(table_b.lo[query_rows]),
                np.ascontiguousarray(table_b.hi[query_rows]),
                seed_nodes,
            )
            return out_a, query_rows[out_q], int(comparisons), int(node_tests)
        except Exception as error:  # pragma: no cover - env dependent
            _disable_numba(error)
    return descend_hierarchy(flat, table_a, table_b, seed_nodes, query_rows)


# --------------------------------------------------------------------------
# numba kernel construction (deferred so importing this module is free)
# --------------------------------------------------------------------------
def _build_numba_kernels():  # pragma: no cover - requires numba
    from types import SimpleNamespace

    from numba import njit

    @njit(cache=False)
    def bisect_left(arr, x):
        lo, hi = 0, arr.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if arr[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @njit(cache=False)
    def bisect_right(arr, x):
        lo, hi = 0, arr.shape[0]
        while lo < hi:
            mid = (lo + hi) // 2
            if arr[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @njit(cache=False)
    def intersect(a_lo, a_hi, b_lo, b_hi):
        n_a, n_b, dim = a_lo.shape[0], b_lo.shape[0], a_lo.shape[1]
        total = 0
        for i in range(n_a):
            for j in range(n_b):
                hit = True
                for d in range(dim):
                    if a_lo[i, d] > b_hi[j, d] or a_hi[i, d] < b_lo[j, d]:
                        hit = False
                        break
                if hit:
                    total += 1
        out_a = np.empty(total, np.int64)
        out_b = np.empty(total, np.int64)
        k = 0
        for i in range(n_a):
            for j in range(n_b):
                hit = True
                for d in range(dim):
                    if a_lo[i, d] > b_hi[j, d] or a_hi[i, d] < b_lo[j, d]:
                        hit = False
                        break
                if hit:
                    out_a[k] = i
                    out_b[k] = j
                    k += 1
        return out_a, out_b

    @njit(cache=False)
    def sweep_one_pass(
        anchor_lo, anchor_hi, other_lo, other_hi, order_other, left_side,
        out_anchor, out_other, fill
    ):
        # One direction of the forward scan.  With fill=False only the
        # hit/candidate counts are computed; with fill=True the hit
        # arrays are populated (anchor-major, window order).
        dim = anchor_lo.shape[1]
        n_other = order_other.shape[0]
        other_lo0 = np.empty(n_other, np.float64)
        for p in range(n_other):
            other_lo0[p] = other_lo[order_other[p], 0]
        hits = 0
        candidates = 0
        for i in range(anchor_lo.shape[0]):
            if left_side:
                start = bisect_left(other_lo0, anchor_lo[i, 0])
            else:
                start = bisect_right(other_lo0, anchor_lo[i, 0])
            stop = bisect_right(other_lo0, anchor_hi[i, 0])
            for p in range(start, stop):
                candidates += 1
                j = order_other[p]
                hit = True
                for d in range(1, dim):
                    if (
                        anchor_lo[i, d] > other_hi[j, d]
                        or anchor_hi[i, d] < other_lo[j, d]
                    ):
                        hit = False
                        break
                if hit:
                    if fill:
                        out_anchor[hits] = i
                        out_other[hits] = j
                    hits += 1
        return hits, candidates

    @njit(cache=False)
    def sweep(a_lo, a_hi, b_lo, b_hi, order_a, order_b):
        scratch = np.empty(0, np.int64)
        hits1, cand1 = sweep_one_pass(
            a_lo, a_hi, b_lo, b_hi, order_b, True, scratch, scratch, False
        )
        hits2, cand2 = sweep_one_pass(
            b_lo, b_hi, a_lo, a_hi, order_a, False, scratch, scratch, False
        )
        out_a = np.empty(hits1 + hits2, np.int64)
        out_b = np.empty(hits1 + hits2, np.int64)
        sweep_one_pass(
            a_lo, a_hi, b_lo, b_hi, order_b, True,
            out_a[:hits1], out_b[:hits1], True,
        )
        sweep_one_pass(
            b_lo, b_hi, a_lo, a_hi, order_a, False,
            out_b[hits1:], out_a[hits1:], True,
        )
        return out_a, out_b, cand1 + cand2

    @njit(cache=False)
    def descend(
        node_lo, node_hi, children_ptr, children_idx,
        sub_start, sub_stop, sub_tests,
        a_lo, a_hi, b_lo, b_hi, seeds,
    ):
        n_nodes = node_lo.shape[0]
        dim = node_lo.shape[1]
        cap = 1024
        out_a = np.empty(cap, np.int64)
        out_q = np.empty(cap, np.int64)
        count = 0
        comparisons = 0
        node_tests = 0
        stack = np.empty(n_nodes + 1, np.int64)
        for q in range(b_lo.shape[0]):
            depth = 1
            stack[0] = seeds[q]
            while depth > 0:
                depth -= 1
                node = stack[depth]
                covers = True
                for d in range(dim):
                    if b_lo[q, d] > node_lo[node, d] or b_hi[q, d] < node_hi[node, d]:
                        covers = False
                        break
                if covers:
                    # True hit: own the whole contiguous subtree range,
                    # charging the skipped tests from the aggregates.
                    span = sub_stop[node] - sub_start[node]
                    comparisons += span
                    node_tests += sub_tests[node]
                    need = count + span
                    if need > cap:
                        while cap < need:
                            cap *= 2
                        grown_a = np.empty(cap, np.int64)
                        grown_q = np.empty(cap, np.int64)
                        grown_a[:count] = out_a[:count]
                        grown_q[:count] = out_q[:count]
                        out_a = grown_a
                        out_q = grown_q
                    for r in range(sub_start[node], sub_stop[node]):
                        out_a[count] = r
                        out_q[count] = q
                        count += 1
                    continue
                c0 = children_ptr[node]
                c1 = children_ptr[node + 1]
                if c0 == c1:  # leaf bucket
                    for r in range(sub_start[node], sub_stop[node]):
                        comparisons += 1
                        hit = True
                        for d in range(dim):
                            if a_lo[r, d] > b_hi[q, d] or a_hi[r, d] < b_lo[q, d]:
                                hit = False
                                break
                        if hit:
                            if count == cap:
                                cap *= 2
                                grown_a = np.empty(cap, np.int64)
                                grown_q = np.empty(cap, np.int64)
                                grown_a[:count] = out_a[:count]
                                grown_q[:count] = out_q[:count]
                                out_a = grown_a
                                out_q = grown_q
                            out_a[count] = r
                            out_q[count] = q
                            count += 1
                    continue
                node_tests += c1 - c0
                for ci in range(c0, c1):
                    child = children_idx[ci]
                    hit = True
                    for d in range(dim):
                        if (
                            b_lo[q, d] > node_hi[child, d]
                            or b_hi[q, d] < node_lo[child, d]
                        ):
                            hit = False
                            break
                    if hit:
                        stack[depth] = child
                        depth += 1
        return out_a[:count], out_q[:count], comparisons, node_tests

    return SimpleNamespace(intersect=intersect, sweep=sweep, descend=descend)
