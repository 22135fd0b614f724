"""``stable_argsort`` is exactly ``np.argsort(kind="stable")``.

The helper takes a faster route for integer keys (a unique composite
``key * n + position`` under the default sort) and for tie-free float
keys (the default argsort); every other input takes the stable sort.
These properties pin the returned permutation, element for element,
on each route and at each fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry.columnar import stable_argsort


def assert_stable(keys) -> None:
    keys = np.asarray(keys)
    got = stable_argsort(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestIntegerKeys:
    @given(
        hnp.arrays(
            st.sampled_from([np.int32, np.int64]),
            st.integers(0, 400),
            elements=st.integers(0, 12),
        )
    )
    def test_heavy_ties(self, keys):
        assert_stable(keys)

    @given(
        hnp.arrays(
            st.sampled_from([np.int32, np.int64]),
            st.integers(0, 300),
            elements=st.integers(-(2**31), 2**31 - 1),
        )
    )
    def test_wide_and_negative_keys(self, keys):
        assert_stable(keys)

    @given(
        hnp.arrays(np.int64, st.integers(0, 200), elements=st.integers(-5, 5))
    )
    def test_negative_keys_fall_back(self, keys):
        assert_stable(keys)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
    def test_unsigned_keys(self, dtype):
        rng = np.random.default_rng(3)
        assert_stable(rng.integers(0, 200, 5_000).astype(dtype))

    def test_composite_at_the_overflow_bound(self):
        # bound * n >= 2**62 would overflow the composite: stable sort.
        n = 1_000
        high = (1 << 62) // n
        keys = np.array([high, 0, high, 5] * (n // 4), dtype=np.int64)
        assert_stable(keys)
        assert_stable(np.array([2**63 - 1, 0, 2**63 - 1, 1], dtype=np.int64))
        assert_stable(np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64))

    def test_just_below_the_overflow_bound(self):
        n = 1_000
        high = (1 << 62) // n - 2
        keys = np.array([high, 0, high, 5] * (n // 4), dtype=np.int64)
        assert_stable(keys)

    def test_grid_sized_keys(self):
        rng = np.random.default_rng(7)
        assert_stable(rng.integers(0, 64**3, 91_613))


class TestFloatKeys:
    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 300),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        )
    )
    def test_any_floats(self, keys):
        assert_stable(keys)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, 300),
            elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan, np.inf]),
        )
    )
    def test_float_ties_signed_zeros_and_nans(self, keys):
        assert_stable(keys)

    def test_signed_zeros_tie(self):
        assert_stable(np.array([0.0, -0.0, 0.0, -0.0, 1.0]))
        assert_stable(np.array([-0.0, 0.0]))

    def test_nans_keep_their_order(self):
        assert_stable(np.array([np.nan, 1.0, np.nan, 0.0, np.nan]))
        assert_stable(np.array([2.0, np.nan]))

    def test_distinct_floats(self):
        rng = np.random.default_rng(11)
        assert_stable(rng.uniform(0.0, 100.0, 32_000))

    def test_float32_keys(self):
        rng = np.random.default_rng(12)
        assert_stable(rng.integers(0, 50, 2_000).astype(np.float32))


class TestOtherInputs:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.array([7]),
            np.array([2.5]),
            np.array([True, False, True, False]),
            [3, 1, 2, 1],
        ],
    )
    def test_small_and_other_dtypes(self, keys):
        assert_stable(keys)
