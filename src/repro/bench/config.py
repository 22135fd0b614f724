"""Benchmark scales.

The paper joins 160K–9.6M objects on a 2.7 GHz Opteron in C++; CPython
needs smaller cardinalities to keep the full suite in benchmark-friendly
time.  Each :class:`Scale` keeps the paper's *structure* — the same
universe (1000 units per dimension), object sizes (sides uniform in
[0, 1]), ε ∈ {5, 10}, the B : A ratios of every sweep — and scales the
cardinalities by a constant factor (≈ 1/800 at the default ``small``
scale).

**Density preservation.**  The paper's qualitative results (who wins,
filtering rates, the fanout trends, PBSM's replication blow-up) are all
driven by the ratio between the ε-inflated object size and the
inter-object spacing.  Scaling the cardinality down inside the original
1000-unit universe would change that ratio by ~10× and invert several
trends, so each scale also shrinks the universe edge to
``1000 · (n / n_paper)^(1/3)``, keeping the paper's object density — and
with it every size-driven effect — intact.  Grid-based algorithms are
configured in *cell units* (scale-invariant), see
:mod:`repro.joins.registry`.

Select a scale with the ``REPRO_SCALE`` environment variable
(``smoke`` | ``small`` | ``medium`` | ``paper``) or per call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = [
    "Scale",
    "SCALES",
    "current_scale",
    "DEFAULT_SCALE",
    "RunOptions",
    "env_choice",
    "env_int",
]

DEFAULT_SCALE = "small"

# The paper's reference cardinalities, used for density-preserving
# universe scaling.
PAPER_SPACE = 1000.0
PAPER_LARGE_A = 1_600_000
PAPER_FIG8_TOTAL = 10_000 + 640_000  # A plus the largest B of Figure 8
PAPER_TABLE1_TOTAL = 160_000 + 1_600_000


@dataclass(frozen=True)
class Scale:
    """Cardinalities for every experiment at one scale.

    Attributes mirror the paper's workloads:

    - Figure 8 ("small datasets"): ``fig8_a`` fixed, B sweeps
      ``fig8_b_steps`` (paper: 10K × 160K..640K, ε = 10).
    - Figures 9-14 ("large datasets"): ``large_a`` fixed, B sweeps
      ``large_b_steps`` (paper: 1.6M × 1.6M..9.6M, ε = 5).
    - Neuroscience (Figures 15/16): ``neuro_neurons`` controls the
      generated model size (axons ≈ half the dendrites, as in the paper's
      644K × 1.285M subset).
    - Table 1 selectivity: ``table1_a`` × ``table1_b`` (paper:
      160K × 1600K).
    """

    name: str
    fig8_a: int
    fig8_b_steps: tuple[int, ...]
    large_a: int
    large_b_steps: tuple[int, ...]
    table1_a: int
    table1_b: int
    neuro_neurons: int
    density_fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    epsilons: tuple[float, float] = (5.0, 10.0)
    fanout_sweep: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    seed: int = 20130622  # SIGMOD'13 opening day

    @property
    def fig8_epsilon(self) -> float:
        """Figure 8 uses the larger ε (paper: 10)."""
        return self.epsilons[1]

    @property
    def large_epsilon(self) -> float:
        """Figures 9-11 and 13-15 use the smaller ε (paper: 5)."""
        return self.epsilons[0]

    # -- density-preserving universes ---------------------------------
    @staticmethod
    def _space_for(n_scaled: int, n_paper: int) -> float:
        return PAPER_SPACE * (n_scaled / n_paper) ** (1.0 / 3.0)

    @property
    def large_space(self) -> float:
        """Universe edge for the Figure 9-14 workloads (paper: 1000)."""
        return self._space_for(self.large_a, PAPER_LARGE_A)

    @property
    def fig8_space(self) -> float:
        """Universe edge for the Figure 8 workload."""
        return self._space_for(self.fig8_a + self.fig8_b_steps[-1], PAPER_FIG8_TOTAL)

    @property
    def table1_space(self) -> float:
        """Universe edge for the Table 1 workload."""
        return self._space_for(self.table1_a + self.table1_b, PAPER_TABLE1_TOTAL)


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        fig8_a=120,
        fig8_b_steps=(240, 480),
        large_a=300,
        large_b_steps=(300, 600),
        table1_a=150,
        table1_b=600,
        neuro_neurons=6,
        density_fractions=(0.5, 1.0),
        fanout_sweep=(2, 8, 20),
    ),
    "small": Scale(
        name="small",
        fig8_a=500,
        fig8_b_steps=(800, 1600, 2400, 3200),
        large_a=2000,
        large_b_steps=(2000, 4000, 6000, 8000, 10000, 12000),
        table1_a=800,
        table1_b=8000,
        neuro_neurons=16,
    ),
    "medium": Scale(
        name="medium",
        fig8_a=2000,
        fig8_b_steps=(3200, 6400, 9600, 12800),
        large_a=8000,
        large_b_steps=(8000, 16000, 24000, 32000, 40000, 48000),
        table1_a=3200,
        table1_b=32000,
        neuro_neurons=60,
    ),
    "paper": Scale(
        name="paper",
        fig8_a=10_000,
        fig8_b_steps=(160_000, 320_000, 480_000, 640_000),
        large_a=1_600_000,
        large_b_steps=(1_600_000, 3_200_000, 4_800_000, 6_400_000, 8_000_000, 9_600_000),
        table1_a=160_000,
        table1_b=1_600_000,
        neuro_neurons=12_000,
    ),
}


# --------------------------------------------------------------------------
# Execution options (the consolidated run_algorithm front door)
# --------------------------------------------------------------------------
def env_choice(name: str, choices: tuple[str, ...]) -> str | None:
    """Read an enumerated environment variable, or fail naming it.

    Junk values used to propagate deep into the engines before blowing
    up with a context-free traceback; every ``REPRO_*`` read
    validates here and raises a :class:`ValueError` that names the
    variable and the accepted values.
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    if raw not in choices:
        raise ValueError(
            f"invalid {name}={raw!r}: expected one of {', '.join(choices)}"
        )
    return raw


def env_int(name: str, minimum: int = 0) -> int | None:
    """Read an integer environment variable, or fail naming it."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {name}={raw!r}: expected an integer"
        ) from None
    if value < minimum:
        raise ValueError(f"invalid {name}={raw!r}: must be >= {minimum}")
    return value


def _decompose_kinds() -> tuple[str, ...]:
    # Imported lazily: config must stay importable without dragging the
    # engine modules (and numpy) in.
    from repro.parallel.decompose import DECOMPOSE_KINDS

    return tuple(DECOMPOSE_KINDS)


def _backend_names() -> tuple[str, ...]:
    from repro.geometry.columnar import BACKENDS

    return tuple(BACKENDS)


#: Valid values of the ``geometry`` execution option: ``"mbr"`` joins
#: bounding boxes exactly as every PR before the filter-refine split,
#: ``"exact"`` refines MBR candidates against the true shapes.
GEOMETRY_MODES = ("mbr", "exact")


@dataclass(frozen=True)
class RunOptions:
    """Execution options of one :func:`repro.bench.runner.run_algorithm` call.

    The one way execution options reach a join.  There are two layers:
    the fields set on an explicit ``options`` object win, and beneath
    them :meth:`from_env` reads the ``REPRO_*`` environment variables.
    ``None`` means *unspecified* — the next layer decides
    (``options=`` > ``REPRO_*`` > engine default).

    Attributes
    ----------
    workers:
        ``None`` defers to ``REPRO_WORKERS``, ``0`` forces sequential
        execution, ``>= 1`` routes the join through the multiprocess
        :class:`~repro.parallel.engine.ParallelChunkedJoin`.
    decompose:
        Universe cutting for the multiprocess engine (``"slabs"`` |
        ``"tiles"``; engine default ``"slabs"``).
    backend:
        Geometry backend forwarded to backend-aware algorithms
        (``"object"`` | ``"columnar"`` | ``"auto"``; ``"auto"`` is
        columnar).
    reuse_index:
        Route the join through the build-once/probe-many query service:
        ``True`` for the process-wide default service, a live
        :class:`~repro.service.SpatialQueryService` for a private one,
        ``False`` for a one-shot join.  Not environment-settable.
    max_bytes:
        Memory budget in bytes (``REPRO_MAX_BYTES``).  Joins whose
        priced footprint exceeds it run through the spilling
        :class:`~repro.memory.budgeted.BudgetedSpatialJoin`; with
        ``workers >= 1`` each worker gets an equal share, and with
        ``reuse_index`` the budget governs the service's probes and
        byte-accounted index cache.  ``None`` (default) means
        unbudgeted.
    geometry:
        Join predicate (``"mbr"`` | ``"exact"``; ``REPRO_GEOMETRY``).
        ``"mbr"`` (the default) joins bounding boxes under the paper's
        L∞ ε-reduction, bit-identical to the pre-pipeline behaviour.
        ``"exact"`` adds the refinement stage: MBR candidates are
        filtered down to pairs whose exact Euclidean shape distance is
        within ε, using the datasets' shape payloads.  The refine runs
        once in the calling process, also behind the multiprocess
        engine (whose workers return MBR candidates).
    """

    workers: int | None = None
    decompose: str | None = None
    backend: str | None = None
    reuse_index: "bool | object | None" = None
    max_bytes: int | None = None
    geometry: str | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_bytes is not None:
            # Imported lazily: config stays importable without numpy.
            from repro.memory.budget import validate_max_bytes

            validate_max_bytes(self.max_bytes)
        if self.decompose is not None and self.decompose not in _decompose_kinds():
            raise ValueError(
                f"unknown decompose kind {self.decompose!r}; expected one of "
                f"{', '.join(_decompose_kinds())}"
            )
        if self.backend is not None and self.backend not in _backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(_backend_names())}"
            )
        if self.geometry is not None and self.geometry not in GEOMETRY_MODES:
            raise ValueError(
                f"unknown geometry mode {self.geometry!r}; expected one of "
                f"{', '.join(GEOMETRY_MODES)}"
            )

    @classmethod
    def from_env(cls) -> "RunOptions":
        """The options encoded in the ``REPRO_*`` environment variables.

        The single reading of the environment: every variable maps to its
        own field, so ``REPRO_DECOMPOSE`` / ``REPRO_BACKEND`` apply without
        ``REPRO_WORKERS`` and ``REPRO_WORKERS=0`` (like an explicit
        ``workers=0``) pins sequential execution.  Unset variables stay
        ``None`` so engine defaults apply.  Values are validated eagerly
        with errors naming the variable.
        """
        workers = env_int("REPRO_WORKERS", minimum=0)
        return cls(
            workers=workers,
            decompose=env_choice("REPRO_DECOMPOSE", _decompose_kinds()),
            backend=env_choice("REPRO_BACKEND", _backend_names()),
            max_bytes=env_int("REPRO_MAX_BYTES", minimum=1),
            geometry=env_choice("REPRO_GEOMETRY", GEOMETRY_MODES),
        )

    def over(self, base: "RunOptions") -> "RunOptions":
        """Layer these options over ``base``: set fields win, ``None`` defers."""
        updates = {
            field: value
            for field, value in (
                ("workers", self.workers),
                ("decompose", self.decompose),
                ("backend", self.backend),
                ("reuse_index", self.reuse_index),
                ("max_bytes", self.max_bytes),
                ("geometry", self.geometry),
            )
            if value is not None
        }
        return replace(base, **updates) if updates else base

    def describe(self) -> dict:
        """The non-default fields, for reports and reprs."""
        out = {}
        for field in (
            "workers",
            "decompose",
            "backend",
            "max_bytes",
            "geometry",
        ):
            value = getattr(self, field)
            if value is not None:
                out[field] = value
        if self.reuse_index:
            out["reuse_index"] = True
        return out


def current_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, ``REPRO_SCALE``, or the default."""
    resolved = name or os.environ.get("REPRO_SCALE", DEFAULT_SCALE)
    try:
        return SCALES[resolved]
    except KeyError:
        raise KeyError(
            f"unknown scale {resolved!r}; known: {', '.join(SCALES)}"
        ) from None
