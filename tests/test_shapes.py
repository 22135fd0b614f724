"""Exact geometry types: construction, validation, distances, payloads."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.geometry.shapes import (
    KIND_CODES,
    BoxShape,
    LineString,
    Point,
    Polygon,
    box_gap_sq,
    polygon_contains,
    segment_distance_sq,
    shape_distance,
    shape_distance_sq,
    shape_from_payload,
    shape_to_payload,
)

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def linestring_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    verts = [(draw(coordinate), draw(coordinate)) for _ in range(n)]
    # Guarantee positive length: append a vertex strictly right of all.
    verts.append((max(x for x, _ in verts) + 1.0, verts[0][1]))
    return LineString(verts)


@st.composite
def polygon_strategy(draw):
    # Star-convex rings around a random center: always simple.
    cx, cy = draw(coordinate), draw(coordinate)
    n = draw(st.integers(min_value=3, max_value=8))
    radii = [
        draw(st.floats(min_value=0.5, max_value=10.0, allow_nan=False, width=32))
        for _ in range(n)
    ]
    verts = [
        (cx + r * math.cos(2 * math.pi * i / n), cy + r * math.sin(2 * math.pi * i / n))
        for i, r in enumerate(radii)
    ]
    return Polygon(verts)


@st.composite
def shape_strategy(draw):
    kind = draw(st.sampled_from(("point", "box", "linestring", "polygon")))
    if kind == "point":
        return Point([(draw(coordinate), draw(coordinate))])
    if kind == "box":
        x, y = draw(coordinate), draw(coordinate)
        w = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32))
        h = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=32))
        return BoxShape((x, y), (x + w, y + h))
    if kind == "linestring":
        return draw(linestring_strategy())
    return draw(polygon_strategy())


class TestValidation:
    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError, match=r"polygon #7.*at least 3"):
            Polygon([(0, 0), (1, 1)], oid=7)

    def test_polygon_must_be_2d(self):
        with pytest.raises(ValueError, match=r"polygon #3.*2-D"):
            Polygon([(0, 0, 0), (1, 0, 0), (0, 1, 0)], oid=3)

    def test_linestring_rejects_zero_length(self):
        with pytest.raises(ValueError, match=r"linestring #9.*zero-length"):
            LineString([(2, 2), (2, 2)], oid=9)

    def test_linestring_needs_two_vertices(self):
        with pytest.raises(ValueError, match=r"linestring #1.*at least 2"):
            LineString([(0, 0)], oid=1)

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ValueError, match=r"point #4.*non-finite"):
            Point([(float("nan"), 0.0)], oid=4)

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(ValueError, match=r"linestring #2.*vertex 1"):
            LineString([(0, 0), (1, 1, 1)], oid=2)

    def test_box_rejects_inverted_corners(self):
        with pytest.raises(ValueError, match=r"box #5.*hi < lo"):
            BoxShape((0, 0), (-1, 1), oid=5)

    def test_point_exactly_one_vertex(self):
        with pytest.raises(ValueError, match="exactly 1"):
            Point([(0, 0), (1, 1)])

    def test_closed_ring_stored_open(self):
        ring = Polygon([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])
        assert len(ring.vertices) == 4


class TestDistances:
    def test_disjoint_boxes_gap(self):
        a = BoxShape((0, 0), (1, 1))
        b = BoxShape((4, 0), (5, 1))
        assert shape_distance(a, b) == pytest.approx(3.0)

    def test_touching_boxes_zero(self):
        a = BoxShape((0, 0), (1, 1))
        b = BoxShape((1, 0), (2, 1))
        assert shape_distance_sq(a, b) == 0.0

    def test_crossing_segments_zero(self):
        a = LineString([(0, 0), (2, 2)])
        b = LineString([(0, 2), (2, 0)])
        assert shape_distance_sq(a, b) == 0.0

    def test_point_inside_polygon_zero(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert shape_distance_sq(square, Point([(2, 2)])) == 0.0

    def test_point_outside_polygon_boundary_distance(self):
        square = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert shape_distance(square, Point([(7, 2)])) == pytest.approx(3.0)

    def test_nested_polygons_zero(self):
        outer = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        inner = Polygon([(4, 4), (6, 4), (6, 6), (4, 6)])
        assert shape_distance_sq(outer, inner) == 0.0

    def test_off_grid_crossing_is_exactly_zero(self):
        # Closest-point arithmetic leaves ~5e-32 of rounding residue at
        # this crossing; at epsilon = 0 that residue would drop the pair.
        import numpy as np

        from repro.refine.kernels import min_cross_sq

        a = (18.355178661916955, 1.7734692111426937, 20.551338004947493, 1.4829026768533047)
        b = (20.222689723642464, -0.06676307744887255, 20.245935193655175, 1.6281133388944988)
        assert segment_distance_sq(*a, *b) == 0.0
        assert segment_distance_sq(*b, *a) == 0.0

        segs = np.array([a, b], dtype=np.float64).T
        one = np.ones(1, dtype=np.int64)
        assert min_cross_sq(segs, 0 * one, one, segs, one, one).tolist() == [0.0]

    def test_segment_distance_parallel(self):
        assert segment_distance_sq(0, 0, 1, 0, 0, 2, 1, 2) == pytest.approx(4.0)

    def test_mbr_touching_but_shapes_disjoint(self):
        # Two diagonal lines in overlapping MBRs but far apart — the
        # false-hit case the MBR filter cannot see.
        a = LineString([(0, 0), (1, 1)])
        b = LineString([(0, 1), (-1, 2)])
        assert a.mbr().intersects(MBR((-1, 0), (1, 2)))
        assert shape_distance_sq(a, b) > 0.0

    @given(shape_strategy(), shape_strategy())
    def test_distance_symmetric(self, a, b):
        # Symmetric up to float rounding: the segment loops visit the
        # operands in swapped order, so the last few ulps may differ.
        assert math.isclose(
            shape_distance_sq(a, b),
            shape_distance_sq(b, a),
            rel_tol=1e-9,
            abs_tol=1e-18,
        )

    @given(shape_strategy(), shape_strategy())
    def test_mbr_gap_lower_bounds_distance(self, a, b):
        box_a, box_b = a.mbr(), b.mbr()
        gap = box_gap_sq(box_a.lo, box_a.hi, box_b.lo, box_b.hi)
        assert gap <= shape_distance_sq(a, b) + 1e-9

    @given(shape_strategy())
    def test_self_distance_zero(self, shape):
        assert shape_distance_sq(shape, shape) == 0.0

    @given(polygon_strategy())
    def test_interior_rectangle_inside_mbr(self, polygon):
        interior = polygon.interior_rectangle()
        if interior is not None:
            assert polygon.mbr().contains(interior)
            for corner in (interior.lo, interior.hi):
                assert polygon_contains(polygon.vertices, corner)


class TestPayloads:
    @given(shape_strategy())
    def test_round_trip_bit_exact(self, shape):
        payload = shape_to_payload(shape)
        wire = json.loads(json.dumps(payload))
        back = shape_from_payload(wire, oid=0)
        assert type(back) is type(shape)
        assert back.vertices == shape.vertices

    def test_payload_kind_codes_stable(self):
        assert KIND_CODES == {"box": 0, "point": 1, "linestring": 2, "polygon": 3}
        assert shape_to_payload(Point([(1, 2)]))[0] == "point"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            shape_from_payload(["blob", 2, [0.0, 0.0]], oid=12)

    def test_bad_payload_names_object(self):
        with pytest.raises(ValueError, match="#12"):
            shape_from_payload(["polygon", 2, [0.0, 0.0, 1.0, 1.0]], oid=12)
