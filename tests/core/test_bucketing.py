"""Step-1 bucketing: the compiled hash grouping equals the numpy one.

:func:`repro.core.kernels.bucketize` runs the compiled one-pass hash
grouping when the compiled library loads and the numpy fingerprint grouping
otherwise.  Both must return the same bytes, and both must equal the
reference backend's partition: users grouped by their byte keys
(:func:`repro.core.greedy_framework._key_fn_for`) in dict order, which
numbers buckets by first occurrence.

Without a C compiler (``REPRO_KERNEL_CC=none``) only the numpy leg is
checked against the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import TopKIndex, kernels, kernels_cc
from repro.core.greedy_framework import _key_fn_for
from repro.core.preferences import top_k_table

KEY_SCORES = ("none", "first", "last", "all")

requires_compiled = pytest.mark.skipif(
    not kernels.parallel_available(),
    reason="compiled kernels unavailable (no C compiler)",
)

#: Scores whose keys differ only in bits: signed zeros and NaN payloads.
BIT_TWINS = [
    0.0,
    -0.0,
    np.float64(np.nan),
    np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=np.float64)[0],
    np.frombuffer(np.uint64(0xFFF8000000000000).tobytes(), dtype=np.float64)[0],
    1.0,
]


def numpy_bucketize(items_table, scores_table, key_scores):
    """kernels.bucketize on the numpy leg, whatever the box offers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_load_compiled", lambda: None)
        return kernels.bucketize(items_table, scores_table, key_scores)


def reference_buckets(items_table, scores_table, key_scores):
    """The reference backend's partition as exact bucketize arrays."""
    key_fn = _key_fn_for(key_scores)
    buckets: dict[bytes, list[int]] = {}
    for user in range(items_table.shape[0]):
        key = key_fn(np.ascontiguousarray(items_table[user], dtype=np.int64),
                     np.ascontiguousarray(scores_table[user], dtype=np.float64))
        buckets.setdefault(key, []).append(user)
    groups = list(buckets.values())
    inverse = np.empty(items_table.shape[0], dtype=np.int64)
    for bucket, members in enumerate(groups):
        inverse[members] = bucket
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    sorted_users = np.array([u for g in groups for u in g], dtype=np.int64)
    return inverse, sorted_users, np.cumsum(sizes) - sizes


def assert_same_bytes(expected, actual):
    __tracebackhide__ = True
    for a, b in zip(expected, actual, strict=True):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


def check_legs(items_table, scores_table):
    """Every key scheme: numpy == reference, and compiled == numpy bytes."""
    __tracebackhide__ = True
    for key_scores in KEY_SCORES:
        spec = reference_buckets(items_table, scores_table, key_scores)
        assert_same_bytes(spec, numpy_bucketize(items_table, scores_table, key_scores))
        assert_same_bytes(spec, kernels.bucketize(items_table, scores_table, key_scores))


@st.composite
def tables(draw, max_users=40, max_items=8):
    """Ranked top-k tables of a tie-heavy or fractional rating matrix."""
    n_users = draw(st.integers(0, max_users))
    n_items = draw(st.integers(1, max_items))
    levels = draw(st.sampled_from([st.integers(1, 2), st.integers(1, 5)]))
    elements = st.one_of(levels.map(float), st.sampled_from([0.0, -0.0, 0.5]))
    values = draw(hnp.arrays(np.float64, (n_users, n_items), elements=elements))
    k = draw(st.integers(1, n_items))
    return top_k_table(values, k)


@st.composite
def raw_tables(draw, max_users=40):
    """Unranked tables: few item ids, scores drawn from bit twins."""
    n_users = draw(st.integers(0, max_users))
    k = draw(st.integers(1, 4))
    items = draw(hnp.arrays(np.int64, (n_users, k), elements=st.integers(0, 2)))
    scores = draw(hnp.arrays(
        np.float64, (n_users, k), elements=st.sampled_from(BIT_TWINS)
    ))
    return items, scores


class TestBucketizeLegs:
    @settings(max_examples=80, deadline=None)
    @given(tables())
    def test_ranked_tables(self, drawn):
        check_legs(*drawn)

    @settings(max_examples=80, deadline=None)
    @given(raw_tables())
    def test_keys_differing_only_in_bits(self, drawn):
        check_legs(*drawn)

    @settings(max_examples=30, deadline=None)
    @given(tables())
    def test_int32_and_strided_tables(self, drawn):
        items_table, scores_table = drawn
        check_legs(items_table.astype(np.int32), scores_table)
        check_legs(np.asfortranarray(items_table), np.asfortranarray(scores_table))
        check_legs(items_table[::2], scores_table[::2])

    @settings(max_examples=30, deadline=None)
    @given(tables(max_users=30), st.data())
    def test_subset_tables(self, drawn, data):
        items_table, scores_table = drawn
        n_users, k = items_table.shape
        users = data.draw(st.lists(
            st.integers(0, n_users - 1), unique=True, max_size=n_users
        )) if n_users else []
        index = TopKIndex(items_table, scores_table, k).for_users(users)
        check_legs(*index.top_k(k))

    @pytest.mark.parametrize("n_users", [0, 1])
    def test_tiny(self, n_users):
        check_legs(np.zeros((n_users, 3), dtype=np.int64), np.ones((n_users, 3)))

    def test_every_user_tied(self):
        check_legs(np.zeros((500, 2), dtype=np.int64), np.ones((500, 2)))

    def test_every_k(self):
        rng = np.random.default_rng(5)
        values = rng.integers(1, 3, size=(200, 6)).astype(float)
        for k in range(1, 7):
            check_legs(*top_k_table(values, k))


@requires_compiled
@pytest.mark.parametrize("first_col, n_cols", [(-1, 1), (2, 2), (3, 1)])
def test_columns_outside_the_table_rejected(first_col, n_cols):
    tables = np.zeros((4, 3), dtype=np.int64), np.zeros((4, 3))
    with pytest.raises(ValueError):
        kernels_cc.load_compiled().bucket_rows(*tables, first_col, n_cols)
