"""Synthetic 3D workloads, generated exactly as the paper describes (§6.2).

"We distribute spatial boxes with each side of uniform random length
(between 0 and 1) in a constant space of 1000 space units in each of the
three dimensions", under three distributions:

- **uniform** box positions;
- **Gaussian** positions with μ = 500, σ = 250;
- **clustered**: up to 100 uniformly chosen cluster locations, objects
  scattered around them with a Gaussian (μ = 0, σ = 220) offset.

All generators accept ``dim`` (the paper uses 3; tests also exercise 2)
and a ``seed`` for reproducibility, and clamp boxes into the universe so
grid-based algorithms see a closed world.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.geometry.columnar import CoordinateTable
from repro.geometry.mbr import MBR

__all__ = [
    "uniform_boxes",
    "gaussian_boxes",
    "clustered_boxes",
    "clustered_polygons",
    "clustered_linestrings",
    "make_distribution",
    "DISTRIBUTIONS",
    "SPACE_UNITS",
]

SPACE_UNITS = 1000.0  # the paper's universe edge length


def _universe(space: float, dim: int) -> MBR:
    return MBR((0.0,) * dim, (space,) * dim)


def _boxes_from_arrays(
    lows: np.ndarray, sides: np.ndarray, space: float, name: str, metadata: dict
) -> Dataset:
    """Clamp box origins into the universe; a table-backed dataset.

    Row ``i`` is object ``i``; its objects are built only on demand.
    """
    n, dim = lows.shape
    cols = np.empty((2 * dim, n))
    cols[:dim] = np.clip(lows, 0.0, space - sides).T
    np.add(cols[:dim], sides.T, out=cols[dim:])
    table = CoordinateTable.from_columns(cols, np.arange(n, dtype=np.int64))
    return Dataset.from_table(
        table, name=name, universe=_universe(space, dim), metadata=metadata
    )


def _shapes_dataset(shapes: list, name: str, metadata: dict) -> Dataset:
    """A table-backed dataset over 2-D exact shapes; row ``i`` is object ``i``.

    The table holds each shape's MBR, so the filter stage sees tight
    boxes; the universe is the tight bound of the shapes.
    """
    coords = np.array(
        [shape.mbr().lo + shape.mbr().hi for shape in shapes], dtype=np.float64
    ).reshape(len(shapes), 4)
    table = CoordinateTable(coords, np.arange(len(shapes), dtype=np.int64))
    return Dataset.from_table(table, name=name, metadata=metadata, geometries=shapes)


def uniform_boxes(
    n: int,
    space: float = SPACE_UNITS,
    dim: int = 3,
    side_range: tuple[float, float] = (0.0, 1.0),
    seed: int | None = None,
) -> Dataset:
    """Boxes with uniformly random positions (paper's *uniform* dataset)."""
    rng = np.random.default_rng(seed)
    sides = rng.uniform(side_range[0], side_range[1], size=(n, dim))
    lows = rng.uniform(0.0, 1.0, size=(n, dim)) * (space - sides)
    return _boxes_from_arrays(
        lows,
        sides,
        space,
        name=f"uniform-{n}",
        metadata={"distribution": "uniform", "n": n, "space": space, "seed": seed},
    )


def gaussian_boxes(
    n: int,
    space: float = SPACE_UNITS,
    dim: int = 3,
    mu: float | None = None,
    sigma: float | None = None,
    side_range: tuple[float, float] = (0.0, 1.0),
    seed: int | None = None,
) -> Dataset:
    """Boxes centred on a Gaussian cloud (paper's *Gaussian* dataset).

    The defaults follow §6.2 *relative to the universe*: μ = space/2
    (500 at the paper's 1000 units) and σ = space/4 (250), so
    density-scaled universes keep the same shape.  Positions are clamped
    into the universe, which concentrates mass near the centre and
    produces the highest selectivity of the three synthetic
    distributions (Table 1) — the ordering the experiments assert.
    """
    if mu is None:
        mu = space / 2.0
    if sigma is None:
        sigma = space / 4.0
    rng = np.random.default_rng(seed)
    sides = rng.uniform(side_range[0], side_range[1], size=(n, dim))
    centers = rng.normal(mu, sigma, size=(n, dim))
    lows = centers - sides / 2.0
    return _boxes_from_arrays(
        lows,
        sides,
        space,
        name=f"gaussian-{n}",
        metadata={
            "distribution": "gaussian",
            "n": n,
            "space": space,
            "mu": mu,
            "sigma": sigma,
            "seed": seed,
        },
    )


def clustered_boxes(
    n: int,
    space: float = SPACE_UNITS,
    dim: int = 3,
    n_clusters: int = 100,
    cluster_sigma: float | None = None,
    side_range: tuple[float, float] = (0.0, 1.0),
    seed: int | None = None,
) -> Dataset:
    """Boxes scattered around random cluster centres (paper's *clustered*).

    "The clustered distribution uniformly randomly chooses up to 100
    locations in 3D space around which the objects are distributed with a
    Gaussian distribution (μ = 0, σ = 220)" (§6.2).  The default σ is
    0.22 · space so density-scaled universes keep the same shape.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if cluster_sigma is None:
        cluster_sigma = 0.22 * space
    rng = np.random.default_rng(seed)
    sides = rng.uniform(side_range[0], side_range[1], size=(n, dim))
    cluster_centers = rng.uniform(0.0, space, size=(n_clusters, dim))
    membership = rng.integers(0, n_clusters, size=n)
    centers = cluster_centers[membership] + rng.normal(0.0, cluster_sigma, size=(n, dim))
    lows = centers - sides / 2.0
    return _boxes_from_arrays(
        lows,
        sides,
        space,
        name=f"clustered-{n}",
        metadata={
            "distribution": "clustered",
            "n": n,
            "space": space,
            "n_clusters": n_clusters,
            "cluster_sigma": cluster_sigma,
            "seed": seed,
        },
    )


def clustered_polygons(
    n: int,
    space: float = SPACE_UNITS,
    n_clusters: int = 100,
    cluster_sigma: float | None = None,
    vertex_range: tuple[int, int] = (3, 12),
    radius_range: tuple[float, float] = (0.1, 0.5),
    seed: int | None = None,
) -> Dataset:
    """Clustered random 2-D polygons with exact shape payloads.

    Star-shaped rings: random radii at sorted random angles around a
    clustered centre, which guarantees a simple (non-self-intersecting)
    polygon at any vertex count.  ``vertex_range`` bounds the vertex
    count per object; ``radius_range`` controls object size and with it
    join selectivity — the default maximum radius of 0.5 caps every
    MBR side at 1.0, the same per-object extent invariant the box
    distributions satisfy.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if vertex_range[0] < 3:
        raise ValueError(f"polygons need >= 3 vertices, got range {vertex_range}")
    if cluster_sigma is None:
        cluster_sigma = 0.22 * space
    from repro.geometry.shapes import Polygon

    rng = np.random.default_rng(seed)
    cluster_centers = rng.uniform(0.0, space, size=(n_clusters, 2))
    membership = rng.integers(0, n_clusters, size=n)
    centers = cluster_centers[membership] + rng.normal(0.0, cluster_sigma, size=(n, 2))
    centers = np.clip(centers, 0.0, space)
    counts = rng.integers(vertex_range[0], vertex_range[1] + 1, size=n)
    shapes = []
    for i in range(n):
        k = int(counts[i])
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        radii = rng.uniform(radius_range[0], radius_range[1], size=k)
        xs = centers[i, 0] + radii * np.cos(angles)
        ys = centers[i, 1] + radii * np.sin(angles)
        shapes.append(Polygon(list(zip(xs.tolist(), ys.tolist())), oid=i))
    # Tight universe: radii may poke past the clamped centres.
    return _shapes_dataset(
        shapes,
        f"polygons-{n}",
        {
            "distribution": "polygons",
            "n": n,
            "space": space,
            "n_clusters": n_clusters,
            "cluster_sigma": cluster_sigma,
            "vertex_range": vertex_range,
            "radius_range": radius_range,
            "seed": seed,
        },
    )


def clustered_linestrings(
    n: int,
    space: float = SPACE_UNITS,
    n_clusters: int = 100,
    cluster_sigma: float | None = None,
    segment_range: tuple[int, int] = (1, 8),
    step_range: tuple[float, float] = (0.04, 0.12),
    seed: int | None = None,
) -> Dataset:
    """Clustered random 2-D polylines (trajectory-style workload).

    Each linestring starts at a clustered point and takes
    ``segment_range`` random-walk steps of ``step_range`` length, so
    vertex counts stay bounded and selectivity tracks the step length.
    The default 8 × 0.12 walk caps every MBR side at 0.96 — inside the
    unit per-object extent the box distributions guarantee.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if segment_range[0] < 1:
        raise ValueError(f"linestrings need >= 1 segment, got range {segment_range}")
    if step_range[0] <= 0.0:
        raise ValueError(f"step lengths must be positive, got range {step_range}")
    if cluster_sigma is None:
        cluster_sigma = 0.22 * space
    from repro.geometry.shapes import LineString

    rng = np.random.default_rng(seed)
    cluster_centers = rng.uniform(0.0, space, size=(n_clusters, 2))
    membership = rng.integers(0, n_clusters, size=n)
    starts = cluster_centers[membership] + rng.normal(0.0, cluster_sigma, size=(n, 2))
    starts = np.clip(starts, 0.0, space)
    counts = rng.integers(segment_range[0], segment_range[1] + 1, size=n)
    shapes = []
    for i in range(n):
        k = int(counts[i])
        headings = rng.uniform(0.0, 2.0 * np.pi, size=k)
        steps = rng.uniform(step_range[0], step_range[1], size=k)
        dx = np.cumsum(steps * np.cos(headings))
        dy = np.cumsum(steps * np.sin(headings))
        xs = np.concatenate(([starts[i, 0]], starts[i, 0] + dx))
        ys = np.concatenate(([starts[i, 1]], starts[i, 1] + dy))
        shapes.append(LineString(list(zip(xs.tolist(), ys.tolist())), oid=i))
    return _shapes_dataset(
        shapes,
        f"lines-{n}",
        {
            "distribution": "lines",
            "n": n,
            "space": space,
            "n_clusters": n_clusters,
            "cluster_sigma": cluster_sigma,
            "segment_range": segment_range,
            "step_range": step_range,
            "seed": seed,
        },
    )


#: distribution name → generator, as used by the bench harness.
DISTRIBUTIONS = {
    "uniform": uniform_boxes,
    "gaussian": gaussian_boxes,
    "clustered": clustered_boxes,
    "polygons": clustered_polygons,
    "lines": clustered_linestrings,
}


def make_distribution(name: str, n: int, seed: int | None = None, **kwargs) -> Dataset:
    """Generate ``n`` boxes from the named distribution."""
    try:
        generator = DISTRIBUTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown distribution {name!r}; known: {', '.join(DISTRIBUTIONS)}"
        ) from None
    return generator(n, seed=seed, **kwargs)
