"""Calibration constants: work units → seconds, fit from BENCH data.

The analytic formulas in :mod:`repro.optimizer.cost` count elementary
operations; these constants price them in wall-clock seconds per
algorithm.  :data:`DEFAULT_CALIBRATION` ships values fit against the
committed ``BENCH_PR9.json`` medium-scale trajectory (the
:func:`fit_from_trajectory` output on that file, rounded): the one-shot
Fig-9/Fig-11 rows pin each algorithm's ``seconds_per_unit`` and the
repeated-probe cached rows pin the fixed per-probe overhead the grid
algorithms pay when a small batch re-scans their partitioning.

Algorithms never measured by a trajectory row fall back to
``default_seconds_per_unit``, deliberately pessimistic — an unmeasured
variant has to win by a wide analytic margin before auto risks it.

Refit after recording a new trajectory point with::

    from repro.optimizer.calibration import fit_from_trajectory
    fit_from_trajectory(["BENCH_PR10.json"])
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

__all__ = ["DEFAULT_CALIBRATION", "fit_from_trajectory"]


DEFAULT_CALIBRATION: dict = {
    "version": "pr10-fit-bench9",
    # Seconds per analytic work unit, per algorithm (columnar baseline).
    # Fit from the BENCH_PR9.json one-shot Fig-9/Fig-11 rows (mean over
    # the uniform and clustered workloads).
    "seconds_per_unit": {
        "TOUCH": 6.5e-07,
        "TwoLayer-500": 4.1e-07,
        "PBSM-500": 3.3e-07,
        "PBSM-100": 3.3e-07,
        "TwoLayer-100": 4.1e-07,
    },
    # Unmeasured variants: pessimistic so auto only picks them on a
    # wide analytic margin (pure-python tree descents are slow).
    "default_seconds_per_unit": 2.0e-06,
    # Fixed seconds per probe batch beyond the generic service
    # dispatch, per algorithm.  Fit from the repeated_probe cached rows:
    # a small batch probing a grid re-derives its partition mapping, so
    # the grid family pays ~0.17s/probe (TwoLayer-500 measured; the
    # same machinery backs the other grid variants) while TOUCH's tree
    # descent pays nothing measurable.
    "probe_overhead_extra": {
        "TwoLayer-500": 0.17,
        "TwoLayer-100": 0.17,
        "PBSM-500": 0.17,
        "PBSM-100": 0.17,
    },
    # Generic service dispatch + merge cost per probe batch.
    "probe_overhead_seconds": 0.03,
    # Object loops measured ~3x the columnar kernels across the
    # backend-parity smokes.
    "backend_factor": {"object": 3.0, "columnar": 1.0, "auto": 1.0},
    # Process spawn + pickled region hand-off per worker, and how much
    # of ideal linear speedup the engine typically achieves.
    "worker_spawn_seconds": 0.35,
    "parallel_efficiency": 0.6,
    # Over-budget joins spill partitions to disk and join in passes.
    "spill_penalty": 2.0,
    # Exact-geometry refinement per surviving candidate pair.
    "refine_seconds_per_pair": 2.0e-06,
}


_ONE_SHOT = re.compile(
    r"^fig\d+/(?P<dist>\w+)/a(?P<na>\d+)-b(?P<nb>\d+)/eps(?P<eps>[\d.]+)$"
)
_REPEATED = re.compile(
    r"^repeated_probe/(?P<dist>\w+)/a(?P<na>\d+)-b(?P<nb>\d+)"
    r"/eps(?P<eps>[\d.]+)/q(?P<q>\d+)/(?P<mode>cached|rebuild)$"
)


def _workload_units(match: re.Match, algorithm: str, scale_name: str):
    """Sketches + work units for a parsed trajectory workload."""
    from repro.bench.config import current_scale
    from repro.bench.workloads import synthetic_pair
    from repro.optimizer.cost import work_units
    from repro.optimizer.sketch import sketch_dataset

    scale = current_scale(scale_name)
    dataset_a, dataset_b = synthetic_pair(
        match["dist"], int(match["na"]), int(match["nb"]), scale
    )
    sketch_a = sketch_dataset(dataset_a)
    sketch_b = sketch_dataset(dataset_b)
    return work_units(algorithm, sketch_a, sketch_b, float(match["eps"]))


def fit_from_trajectory(
    paths: Iterable[str | Path], scale_name: str = "medium"
) -> dict:
    """Fit per-algorithm constants from committed trajectory points.

    Regenerates each row's workload at ``scale_name`` (the seeds are
    scale-stable, so the sketches match what was measured), computes the
    analytic unit counts, and solves ``seconds = units x constant``:

    - one-shot figure rows give ``seconds_per_unit`` (averaged when an
      algorithm appears on several workloads);
    - ``repeated_probe`` cached rows give ``probe_overhead_extra`` —
      the fixed per-probe residual after the modelled kernel work and
      the generic dispatch overhead are subtracted.

    Returns a full calibration dict (unfitted algorithms keep the
    shipped defaults); notable refits get committed into
    :data:`DEFAULT_CALIBRATION`.
    """
    generic_overhead = float(DEFAULT_CALIBRATION["probe_overhead_seconds"])
    unit_samples: dict[str, list[float]] = {}
    cached: dict[str, tuple[float, float, float, int]] = {}

    for path in paths:
        payload = json.loads(Path(path).read_text())
        for row in payload.get("rows", []):
            workload = row.get("workload", "")
            algorithm = row.get("algorithm")
            seconds = row.get("seconds")
            if not algorithm or not isinstance(seconds, (int, float)):
                continue
            if row.get("backend") not in (None, "auto", "columnar"):
                continue
            match = _ONE_SHOT.match(workload)
            if match:
                build_units, probe_units, _ = _workload_units(
                    match, algorithm, scale_name
                )
                unit_samples.setdefault(algorithm, []).append(
                    seconds / max(1.0, build_units + probe_units)
                )
                continue
            match = _REPEATED.match(workload)
            if match and match["mode"] == "cached":
                build_units, probe_units, _ = _workload_units(
                    match, algorithm, scale_name
                )
                cached[algorithm] = (
                    seconds,
                    build_units,
                    probe_units,
                    int(match["q"]),
                )

    constants = dict(DEFAULT_CALIBRATION["seconds_per_unit"])
    constants.update(
        (algorithm, sum(samples) / len(samples))
        for algorithm, samples in unit_samples.items()
    )
    overhead_extra = dict(DEFAULT_CALIBRATION["probe_overhead_extra"])
    for algorithm, (seconds, build_units, probe_units, q) in cached.items():
        constant = constants.get(
            algorithm, float(DEFAULT_CALIBRATION["default_seconds_per_unit"])
        )
        kernel = (build_units + probe_units) * constant
        overhead_extra[algorithm] = (
            max(0.0, seconds - kernel - q * generic_overhead) / q
        )

    fitted = dict(DEFAULT_CALIBRATION)
    fitted["seconds_per_unit"] = constants
    fitted["probe_overhead_extra"] = overhead_extra
    fitted["version"] = f"fit:{'+'.join(Path(p).name for p in paths)}"
    return fitted
