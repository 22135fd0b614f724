"""The shared slab/tile decomposition and boundary-ownership rule."""

import pickle
import random

import numpy as np
import pytest

from repro.geometry.mbr import MBR
from repro.parallel.decompose import (
    CHUNKS_PER_WORKER,
    Decomposition,
    adaptive_chunk_count,
    slab_bounds,
    tile_grid,
)

UNIVERSE_2D = MBR((0.0, 0.0), (10.0, 10.0))
UNIVERSE_3D = MBR((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))


class TestSlabBounds:
    def test_even_split(self):
        assert slab_bounds(0.0, 10.0, 2) == [(0.0, 5.0), (5.0, 10.0)]

    def test_single_chunk(self):
        assert slab_bounds(0.0, 10.0, 1) == [(0.0, 10.0)]

    def test_last_slab_closed_at_hi(self):
        bounds = slab_bounds(0.0, 1.0, 3)
        assert bounds[-1][1] == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n_chunks"):
            slab_bounds(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="invalid interval"):
            slab_bounds(1.0, 0.0, 2)


class TestTileGrid:
    def test_square_universe_square_grid(self):
        assert tile_grid(4, 10.0, 10.0) == (2, 2)
        assert tile_grid(16, 10.0, 10.0) == (4, 4)

    def test_elongated_universe_cut_along_long_axis(self):
        nx, ny = tile_grid(4, 100.0, 1.0)
        assert nx == 4 and ny == 1
        nx, ny = tile_grid(4, 1.0, 100.0)
        assert nx == 1 and ny == 4

    def test_prime_counts_degenerate_to_strips(self):
        assert tile_grid(7, 10.0, 10.0) in ((7, 1), (1, 7))

    def test_total_is_exact(self):
        for n in (1, 2, 3, 6, 12, 30):
            nx, ny = tile_grid(n, 10.0, 7.0)
            assert nx * ny == n

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="n_chunks"):
            tile_grid(0, 1.0, 1.0)


class TestAdaptiveChunkCount:
    def test_two_chunks_per_worker(self):
        assert CHUNKS_PER_WORKER == 2
        assert adaptive_chunk_count(workers=1) == 2
        assert adaptive_chunk_count(workers=4) == 8

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            adaptive_chunk_count(workers=0)


class TestSlabDecomposition:
    def test_regions_cover_universe(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 4, axis=0)
        assert len(decomposition) == 4
        assert decomposition.regions[0].lows == (0.0,)
        assert decomposition.regions[-1].highs == (10.0,)
        # Adjacent regions share an edge exactly.
        for left, right in zip(decomposition.regions, decomposition.regions[1:]):
            assert left.highs[0] == right.lows[0]

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            Decomposition.slabs(UNIVERSE_2D, 2, axis=5)
        with pytest.raises(ValueError, match="axis"):
            Decomposition.slabs(UNIVERSE_2D, 2, axis=-1)

    def test_membership_is_closed(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        on_edge = MBR((5.0, 1.0), (5.0, 2.0))  # zero extent, exactly on edge
        assert decomposition.regions[0].touches(on_edge)
        assert decomposition.regions[1].touches(on_edge)

    def test_ownership_is_half_open(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        just_left = MBR((4.999, 0.0), (6.0, 1.0))
        at_edge = MBR((5.0, 0.0), (6.0, 1.0))
        assert decomposition.owner_index(just_left, just_left) == 0
        assert decomposition.owner_index(at_edge, at_edge) == 1

    def test_interior_edge_reference_has_exactly_one_owner(self):
        """Regression: a reference point exactly on an interior slab edge.

        The historical per-slab rule closed only the *last* slab's
        interval; resolving ownership against the shared edge list makes
        every interior edge belong to exactly one (the right-hand) slab.
        """
        decomposition = Decomposition.slabs(UNIVERSE_2D, 4, axis=0)
        for edge_cell, edge in enumerate([0.0, 2.5, 5.0, 7.5, 10.0]):
            box = MBR((edge, 0.0), (min(edge + 1.0, 10.0), 1.0))
            owners = [
                region
                for region in decomposition.regions
                if decomposition.owns(region, box, box)
            ]
            assert len(owners) == 1
            assert owners[0].cells[0] == min(edge_cell, 3)
            # The owner also *sees* both objects, so the pair is found.
            assert owners[0].touches(box)

    def test_universe_hi_owned_by_last_slab(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 3, axis=0)
        point = MBR((10.0, 4.0), (10.0, 4.0))
        assert decomposition.owner_index(point, point) == 2

    def test_reference_point_is_max_of_los(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 2, axis=0)
        a = MBR((1.0, 0.0), (9.0, 1.0))  # spans both slabs
        b = MBR((6.0, 0.0), (7.0, 1.0))  # starts in slab 1
        assert decomposition.owner_index(a, b) == 1
        assert decomposition.owner_index(b, a) == 1  # symmetric


class TestTileDecomposition:
    def test_grid_shape(self):
        decomposition = Decomposition.tiles(UNIVERSE_3D, 4)
        assert decomposition.shape == (2, 2)
        assert len(decomposition) == 4
        assert decomposition.kind == "tiles"

    def test_flat_indices_match_owner_index(self):
        decomposition = Decomposition.tiles(UNIVERSE_2D, 4)
        probes = {
            (1.0, 1.0): (0, 0),
            (1.0, 6.0): (0, 1),
            (6.0, 1.0): (1, 0),
            (6.0, 6.0): (1, 1),
        }
        for point, cells in probes.items():
            box = MBR(point, point)
            flat = decomposition.owner_index(box, box)
            assert decomposition.regions[flat].cells == cells

    def test_same_axis_twice_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            Decomposition.tiles(UNIVERSE_2D, 4, axes=(1, 1))

    def test_corner_reference_single_owner(self):
        decomposition = Decomposition.tiles(UNIVERSE_2D, 4)
        corner = MBR((5.0, 5.0), (6.0, 6.0))
        owners = [
            region
            for region in decomposition.regions
            if decomposition.owns(region, corner, corner)
        ]
        assert len(owners) == 1 and owners[0].cells == (1, 1)


class TestBuildDispatch:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Decomposition.build(UNIVERSE_2D, kind="shards", n_chunks=2)

    def test_tiles_fall_back_to_slabs_in_1d(self):
        universe = MBR((0.0,), (10.0,))
        decomposition = Decomposition.build(universe, kind="tiles", n_chunks=3)
        assert decomposition.kind == "slabs"

    def test_high_axis_tiles_wrap(self):
        decomposition = Decomposition.build(
            UNIVERSE_3D, kind="tiles", n_chunks=4, axis=2
        )
        assert decomposition.axes == (2, 0)

    def test_out_of_range_axis_rejected_for_both_kinds(self):
        for kind in ("slabs", "tiles"):
            with pytest.raises(ValueError, match="out of range"):
                Decomposition.build(UNIVERSE_2D, kind=kind, n_chunks=2, axis=7)

    def test_picklable(self):
        decomposition = Decomposition.build(UNIVERSE_3D, kind="tiles", n_chunks=6)
        clone = pickle.loads(pickle.dumps(decomposition))
        assert clone.shape == decomposition.shape
        assert clone.bounds == decomposition.bounds
        assert [r.index for r in clone.regions] == [
            r.index for r in decomposition.regions
        ]


class TestEveryReferenceHasOneOwner:
    """Property: the ownership rule is a partition of the universe."""

    @pytest.mark.parametrize("kind,n_chunks", [("slabs", 5), ("tiles", 6)])
    def test_dense_probe_grid(self, kind, n_chunks):
        decomposition = Decomposition.build(UNIVERSE_2D, kind=kind, n_chunks=n_chunks)
        steps = 40
        for i in range(steps + 1):
            for j in range(steps + 1):
                point = MBR(
                    (10.0 * i / steps, 10.0 * j / steps),
                    (10.0 * i / steps, 10.0 * j / steps),
                )
                owners = sum(
                    decomposition.owns(region, point, point)
                    for region in decomposition.regions
                )
                assert owners == 1


def _ownership_boxes(decomposition, dim, n, rng):
    """Adversarial low corners: lattice-snapped boxes (many land on
    region edges), zero-extent points exactly on every interior edge,
    and boxes starting past either universe bound."""
    edges = [edge for per_axis in decomposition.edges for edge in per_axis]
    boxes = []
    for i in range(n):
        choice = i % 3
        if choice == 0:  # on the 0.25 lattice over [-1.5, 11.5]
            lo = [rng.randint(-6, 46) / 4.0 for _ in range(dim)]
            hi = [c + rng.randint(0, 8) / 4.0 for c in lo]
        elif choice == 1:  # a point whose coordinates sit on edges
            lo = [rng.choice(edges) for _ in range(dim)]
            hi = list(lo)
        else:  # past the universe on some axes
            lo = [rng.choice((-3.0, 12.5, rng.uniform(0.0, 10.0))) for _ in range(dim)]
            hi = [c + 1.0 for c in lo]
        boxes.append(MBR(tuple(lo), tuple(hi)))
    return boxes


class TestVectorisedOwnership:
    """``owner_indices`` over pair arrays agrees with the scalar rule."""

    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_chunks", [1, 5, 8])
    def test_matches_scalar_owns(self, kind, dim, n_chunks):
        universe = UNIVERSE_2D if dim == 2 else UNIVERSE_3D
        decomposition = Decomposition.build(universe, kind=kind, n_chunks=n_chunks)
        rng = random.Random(n_chunks * 10 + dim)
        boxes_a = _ownership_boxes(decomposition, dim, 90, rng)
        boxes_b = _ownership_boxes(decomposition, dim, 90, rng)
        pairs = [(a, b) for a in boxes_a for b in boxes_b]
        lo_a = np.array([a.lo for a, _ in pairs])
        lo_b = np.array([b.lo for _, b in pairs])
        owners = decomposition.owner_indices(lo_a, lo_b)
        assert owners.dtype == np.int64
        for region in decomposition.regions:
            expected = [decomposition.owns(region, a, b) for a, b in pairs]
            assert (owners == region.index).tolist() == expected, region

    def test_empty_pair_arrays(self):
        decomposition = Decomposition.build(UNIVERSE_2D, kind="tiles", n_chunks=4)
        empty = np.empty((0, 2))
        assert len(decomposition.owner_indices(empty, empty)) == 0

    @pytest.mark.parametrize("kind", ["slabs", "tiles"])
    def test_references_past_the_universe_clip_to_the_outer_regions(self, kind):
        decomposition = Decomposition.build(UNIVERSE_2D, kind=kind, n_chunks=4)
        below = np.array([[-5.0, -5.0]])
        above = np.array([[15.0, 15.0]])
        last = len(decomposition.regions) - 1
        assert decomposition.owner_indices(below, below).tolist() == [0]
        assert decomposition.owner_indices(above, above).tolist() == [last]
        # The reference is the larger low corner, so one side past the
        # upper bound moves the pair to the last region.
        assert decomposition.owner_indices(below, above).tolist() == [last]

    def test_interior_edge_owned_by_right_hand_slab(self):
        decomposition = Decomposition.slabs(UNIVERSE_2D, 4, axis=0)
        edge = MBR((5.0, 0.0), (5.0, 0.0))
        assert decomposition.owner_index(edge, edge) == 2  # right-hand slab
        corner = np.array([[5.0, 0.0]])
        assert decomposition.owner_indices(corner, corner).tolist() == [2]
