"""Two-layer space-oriented partitioning: duplicate-free partition joins.

The subsystem behind the registry's ``TwoLayer-*`` algorithms and the
sharded serving tier's probe placement: corner-ownership
class masks, the reduced mini-join matrix, and the
:class:`~repro.partition.two_layer.TwoLayerJoin` algorithm itself.
Unlike every reference-point path in the library, nothing in here ever
performs a per-pair ownership test (``stats.dedup_checks == 0``).
"""

from repro.partition.classes import (
    class_label,
    full_mask,
    mini_join_masks,
)
from repro.partition.two_layer import TwoLayerJoin

__all__ = [
    "TwoLayerJoin",
    "full_mask",
    "mini_join_masks",
    "class_label",
]
