"""Tests for repro.utils.arrays.sorted_unique (must equal ``np.unique``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.arrays import sorted_unique


def _cases():
    rng = np.random.default_rng(20)
    return {
        "random": rng.integers(0, 1_000, size=5_000),
        "random_wide": rng.integers(-(2**62), 2**62, size=2_000, dtype=np.int64),
        "empty": np.array([], dtype=np.int64),
        "single": np.array([42]),
        "negative": rng.integers(-50, 0, size=300),
        "mixed_sign": np.array([3, -1, 0, -1, 3, 2**40, -(2**40)], dtype=np.int64),
        "all_duplicates": np.full(1_000, 7, dtype=np.int64),
        "already_unique": np.arange(100, 0, -1),
        "int32": rng.integers(-5, 5, size=400).astype(np.int32),
        "uint8": rng.integers(0, 256, size=400).astype(np.uint8),
        "two_d": rng.integers(0, 6, size=(30, 7)),
        "floats": rng.choice([1.0, -2.5, 3.0, 0.0, -0.0], size=200),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_equals_np_unique(name):
    values = _cases()[name]
    before = values.copy()
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(values, before)  # the input is not touched


@pytest.mark.parametrize("name", sorted(_cases()))
def test_overwrite_input_gives_the_same_answer(name):
    values = _cases()[name]
    want = np.unique(values)
    scratch = values.copy()
    got = sorted_unique(scratch, overwrite_input=True)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    if scratch.ndim == 1:  # sorted in place, duplicates kept
        np.testing.assert_array_equal(scratch, np.sort(values))


def test_python_sequences_and_scalars():
    np.testing.assert_array_equal(sorted_unique([5, 1, 5, 2]), [1, 2, 5])
    np.testing.assert_array_equal(sorted_unique(3), np.unique(3))
    np.testing.assert_array_equal(sorted_unique([]), np.unique([]))
