"""Columnar VertexTable: construction and shape fallback."""

import numpy as np
import pytest

from repro.geometry.mbr import MBR
from repro.geometry.objects import SpatialObject
from repro.geometry.shapes import BoxShape, LineString, Point, Polygon
from repro.geometry.vertex_table import VertexTable, shape_of


def mixed_objects():
    shapes = [
        Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
        LineString([(10, 10), (12, 14), (15, 11)]),
        Point([(20, 20)]),
        BoxShape((30, 30), (33, 35)),
        None,  # MBR-only object — box fallback in the table
    ]
    objects = []
    for i, shape in enumerate(shapes):
        mbr = shape.mbr() if shape is not None else MBR((40, 40), (42, 41))
        objects.append(SpatialObject(i, mbr, shape))
    return objects


class TestConstruction:
    def test_round_trips_every_kind(self):
        objects = mixed_objects()
        table = VertexTable.from_objects(objects)
        assert len(table) == len(objects)
        for i, obj in enumerate(objects):
            rebuilt = table.shape_at(i)
            expected = shape_of(obj)
            assert type(rebuilt) is type(expected)
            assert rebuilt.vertices == expected.vertices

    def test_flat_buffer_is_csr(self):
        table = VertexTable.from_objects(mixed_objects())
        assert table.vertices.dtype == np.float64
        assert table.offsets[0] == 0
        assert int(table.offsets[-1]) == len(table.vertices)
        assert np.all(np.diff(table.offsets) > 0)


class TestShapeOf:
    def test_falls_back_to_solid_box(self):
        obj = SpatialObject(7, MBR((1, 2), (3, 4)))
        fallback = shape_of(obj)
        assert isinstance(fallback, BoxShape)
        assert fallback.vertices == ((1.0, 2.0), (3.0, 4.0))

    def test_passes_through_attached_shape(self):
        shape = Point([(5, 5)])
        obj = SpatialObject(8, shape.mbr(), shape)
        assert shape_of(obj) is shape


class TestFingerprint:
    def test_shapes_change_dataset_fingerprint(self):
        from repro.datasets.base import Dataset
        from repro.service.fingerprint import dataset_fingerprint

        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        plain = Dataset([SpatialObject(0, square.mbr())], name="d")
        shaped = Dataset([SpatialObject(0, square.mbr(), square)], name="d")
        assert dataset_fingerprint(plain) != dataset_fingerprint(shaped)

    def test_different_shapes_differ(self):
        from repro.datasets.base import Dataset
        from repro.service.fingerprint import dataset_fingerprint

        a = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        b = Polygon([(0, 0), (2, 0), (2, 2), (0, 2.5)])
        fp_a = dataset_fingerprint(
            Dataset([SpatialObject(0, a.mbr().union(b.mbr()), a)], name="d")
        )
        fp_b = dataset_fingerprint(
            Dataset([SpatialObject(0, a.mbr().union(b.mbr()), b)], name="d")
        )
        assert fp_a != fp_b


class TestCacheKeys:
    def test_geometry_separates_index_keys(self):
        from repro.service.cache import IndexKey

        mbr_key = IndexKey.create("fp", "TOUCH", {}, None, 1.0)
        exact_key = IndexKey.create("fp", "TOUCH", {}, None, 1.0, geometry="exact")
        assert mbr_key != exact_key
        assert mbr_key.geometry == "mbr"


class TestDatasetShapes:
    def test_has_shapes_and_vertex_table(self):
        from repro.datasets.base import Dataset

        square = Polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        shaped = Dataset([SpatialObject(0, square.mbr(), square)], name="s")
        plain = Dataset([SpatialObject(0, square.mbr())], name="p")
        assert shaped.has_shapes and not plain.has_shapes
        table = shaped.vertex_table()
        assert len(table) == 1
        assert table.shape_at(0).vertices == square.vertices
        # Both read the dataset's cached refine view.
        assert shaped.vertex_table() is table
        assert shaped.refine_view().table is table

    def test_synthetic_shape_workloads_carry_shapes(self):
        from repro.datasets.synthetic import clustered_linestrings, clustered_polygons

        polys = clustered_polygons(12, seed=3)
        lines = clustered_linestrings(12, seed=4)
        assert polys.has_shapes and lines.has_shapes
        for obj in list(polys) + list(lines):
            shape = obj.geometry
            assert shape is not None
            # The object's MBR is exactly the shape's MBR — the filter
            # stage must see tight boxes or candidates go missing.
            assert obj.mbr.lo == pytest.approx(shape.mbr().lo)
            assert obj.mbr.hi == pytest.approx(shape.mbr().hi)
