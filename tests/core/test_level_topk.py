"""Level-bucketed CSR top-k: ranking a sparse store from its level codes.

A :class:`~repro.recsys.store.SparseStore` whose values sit on integer
levels keeps a ``uint8`` level code per stored entry and ranks from the
codes (:func:`repro.core.kernels.csr_top_k_table` with ``levels``): the
compiled kernel keeps a count and the first ``k`` items per level, the
numpy fallback sorts one integer key per candidate.  Both must give the
tables of the float64 kernel and of :func:`repro.core.kernels.top_k_table`
on the densified rows, bit for bit, for:

* heavy ties and rows with no stored entries;
* a fill at the scale minimum (no level below it), at a middle level (the
  below-fill band is reached), at the top level or above it (no level
  above the fill), off the levels (fractional), and below the lowest
  level;
* a ``-0.0`` fill, which ranks by value (a stored ``+0.0`` in the fill
  band keeps its own bits), and a stored ``-0.0``, which leaves the store
  without codes;
* every ``k`` from 1 to ``n_items``, int32 and int64 index arrays, and
  1, 2 and 8 threads.

The compiled cases skip without a C compiler (``REPRO_KERNEL_CC=none``);
the numpy ones run in both kernel legs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import kernels, kernels_cc
from repro.recsys.matrix import RatingScale
from repro.recsys.store import SparseStore

#: (scale, stored-value pool, fill) cases.
CASES = [
    (RatingScale(1.0, 5.0), (1.0, 2.0, 3.0, 4.0, 5.0), 1.0),
    (RatingScale(1.0, 5.0), (5.0, 5.0, 4.0), 1.0),
    (RatingScale(1.0, 5.0), (1.0, 2.0, 3.0, 4.0, 5.0), 3.0),
    (RatingScale(1.0, 5.0), (1.0, 3.0, 5.0), 5.0),
    (RatingScale(1.0, 5.5), (1.0, 2.0, 4.0, 5.0), 5.5),
    (RatingScale(1.0, 5.0), (1.0, 2.0, 4.0, 5.0), 2.5),
    (RatingScale(0.5, 4.5), (1.0, 2.0, 3.0, 4.0), 0.5),
    (RatingScale(-2.0, 3.0), (-2.0, 0.0, 1.0, 3.0), -0.0),
    (RatingScale(-2.0, 3.0), (-2.0, 0.0, 3.0), 0.0),
    (RatingScale(-2.0, 3.0), (-2.0, -0.0, 0.0, 3.0), 0.0),
]

THREADS = (1, 2, 8)


def assert_bit_identical(got, expected):
    __tracebackhide__ = True
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(
        np.ascontiguousarray(got[1]).view(np.uint64),
        np.ascontiguousarray(expected[1]).view(np.uint64),
    )


def build_store(rng, n_users, n_items, density, pool, fill, scale, index_dtype):
    stored = rng.random((n_users, n_items)) < density
    if n_users > 1:
        stored[rng.integers(n_users)] = False  # a row with no entries
    ratings = rng.choice(np.asarray(pool), size=(n_users, n_items))
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix((ratings[rows, cols], (rows, cols)), shape=(n_users, n_items))
    csr.indices = csr.indices.astype(index_dtype)
    csr.indptr = csr.indptr.astype(index_dtype)
    return SparseStore(csr, fill_value=fill, scale=scale)


def levels_of(store):
    return None if store._codes is None else (store._codes, *store._level_range)


def check_store(store, rows, k):
    """Every path ranks ``rows`` of ``store`` like the dense kernel."""
    csr, fill, n_items = store.csr, store.fill_value, store.n_items
    expected = kernels.top_k_table(store.to_dense()[rows], k)
    levels = levels_of(store)
    coded = levels is not None and not np.signbit(fill)
    float_args = (csr.data, csr.indices, csr.indptr, rows, n_items, k, fill)
    assert_bit_identical(kernels._csr_top_k_numpy(*float_args), expected)
    if coded:
        assert_bit_identical(
            kernels._csr_top_k_numpy(*float_args, levels), expected
        )
    backend = kernels_cc.load_compiled()
    for threads in THREADS:
        with kernels.use_kernel_threads(threads):
            assert_bit_identical(store.top_k(rows, k), expected)
            # The public entry point ranks a -0.0 fill by value.
            assert_bit_identical(
                kernels.csr_top_k_table(
                    csr, rows, k, fill, store.scale.maximum, levels
                ),
                expected,
            )
        if backend is None:
            continue
        assert_bit_identical(
            backend.csr_top_k(*float_args, store.scale.maximum, threads), expected
        )
        if coded:
            assert_bit_identical(
                backend.level_top_k(
                    store._codes, csr.indices, csr.indptr, rows, n_items, k,
                    fill, *store._level_range, threads,
                ),
                expected,
            )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_users=st.integers(1, 12),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    case=st.sampled_from(CASES),
    index_dtype=st.sampled_from((np.int32, np.int64)),
    data=st.data(),
)
def test_coded_float_and_dense_tables_agree(
    seed, n_users, n_items, density, case, index_dtype, data
):
    scale, pool, fill = case
    rng = np.random.default_rng(seed)
    store = build_store(rng, n_users, n_items, density, pool, fill, scale, index_dtype)
    # Codes exist exactly when no stored value is -0.0 (every pool is on
    # its scale's levels).
    stored_negative_zero = bool(np.signbit(store.csr.data[store.csr.data == 0]).any())
    assert (store._codes is None) == stored_negative_zero
    k = data.draw(st.integers(1, n_items), label="k")
    rows = np.concatenate([rng.permutation(n_users), [0, 0]]).astype(np.int64)
    check_store(store, rows, k)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"fill={c[2]!r}")
def test_every_k_on_a_larger_store(case):
    # Enough rows that 8 threads get several rows each, heavy ties, and
    # every k from 1 to n_items.
    scale, pool, fill = case
    store = build_store(
        np.random.default_rng(5), 200, 16, 0.5, pool, fill, scale, np.int32
    )
    rows = np.arange(store.n_users, dtype=np.int64)
    for k in range(1, store.n_items + 1):
        check_store(store, rows, k)


def test_the_below_fill_band_is_reached():
    # Fill 3 at a middle level: row 0 stores 5, 1, 2 and 3 (a stored fill)
    # over 5 items, so k = 5 reaches the stored values below the fill,
    # highest first, after the fill band of items 3 and 4.
    csr = sp.csr_matrix(([5.0, 1.0, 2.0, 3.0], [0, 1, 2, 3], [0, 4]), shape=(1, 5))
    store = SparseStore(csr, fill_value=3.0, scale=RatingScale(1.0, 5.0))
    assert store._codes.tolist() == [4, 0, 1, 2]
    items, values = store.top_k(None, 5)
    assert items.tolist() == [[0, 3, 4, 2, 1]]
    assert values.tolist() == [[5.0, 3.0, 3.0, 2.0, 1.0]]
    check_store(store, np.array([0]), 5)


def test_a_negative_zero_fill_keeps_the_stored_zero_bits():
    # A stored +0.0 ties the -0.0 fill: it ranks in the fill band by index
    # and keeps its own sign, which a level code cannot tell apart.
    csr = sp.csr_matrix(([0.0, 3.0], [0, 2], [0, 2]), shape=(1, 4))
    store = SparseStore(csr, fill_value=-0.0, scale=RatingScale(-2.0, 3.0))
    assert store._codes is not None
    items, values = store.top_k(None, 3)
    assert items.tolist() == [[2, 0, 1]]
    assert np.signbit(values[0]).tolist() == [False, False, True]
    check_store(store, np.array([0]), 3)
