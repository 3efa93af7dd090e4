"""CSR top-k parity: both CSR kernels equal the dense kernel on densified rows.

:func:`repro.core.kernels.csr_top_k_table` ranks a
:class:`~repro.recsys.store.SparseStore` straight from its CSR arrays.  Its
two implementations — the compiled kernel of :mod:`repro.core.kernels_cc`
and the numpy fallback used without a C compiler — are called directly, in
one process, and must be bit-identical (items, and value *bit patterns*) to
:func:`repro.core.kernels.top_k_table` on the densified rows for:

* stored entries equal to the fill value (they rank inside the fill band,
  by item index, with their own bits);
* empty rows and rows whose every stored entry equals the fill;
* ``k`` above the row's stored count and ``k = n_items``;
* a fill above some stored values (the below-fill band ranks last);
* tie-heavy integer ratings and ``±0.0`` (``-0.0 == +0.0`` ties resolve by
  index, exactly like the dense kernels);
* int32 and int64 ``indptr``/``indices``, read in place without a copy;
* a ``ceiling`` that is either the instance's largest stored value or
  ``+inf``: the compiled kernel stops a row's scan once its ``k`` best sit
  at the ceiling, and the result must not change (the numpy fallback
  takes no ceiling).

The numpy fallback ranks in row blocks of a fixed entry budget; with the
budget patched down, one call spans many blocks and still matches the
dense kernel bit for bit.  A :class:`~repro.recsys.store.SparseStore`
passes its scale maximum as the ceiling and ranks like a
:class:`~repro.recsys.store.DenseStore` over the same ratings.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import kernels, kernels_cc
from repro.recsys.matrix import RatingScale
from repro.recsys.store import DenseStore, SparseStore

#: Few levels (heavy ties), both zero signs and a fractional value.
LEVELS = (0.0, -0.0, 1.0, 2.0, 3.0, 2.5)


def compiled_top_k(data, indices, indptr, rows, n_items, k, fill,
                   ceiling=np.inf):
    backend = kernels_cc.load_compiled()
    if backend is None:
        pytest.skip("compiled CSR kernel unavailable (no C compiler)")
    return backend.csr_top_k(data, indices, indptr, rows, n_items, k, fill,
                         ceiling, 2)


IMPLEMENTATIONS = {
    "compiled": compiled_top_k,
    # The fallback ranks a block by one sort, with no scan to stop: it
    # takes no ceiling, so a passed one is dropped.
    "numpy": lambda *args: kernels._csr_top_k_numpy(*args[:7]),
}


def assert_bit_identical(got, expected):
    __tracebackhide__ = True
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(
        np.ascontiguousarray(got[1]).view(np.uint64),
        np.ascontiguousarray(expected[1]).view(np.uint64),
    )


@st.composite
def csr_instances(draw):
    """A CSR matrix, its densified rows, a row selection, k, fill, ceiling.

    The ceiling is the largest stored value (the fill for an empty matrix)
    or ``+inf``: both bound every stored value.
    """
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_items = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    fill = draw(st.sampled_from(LEVELS))
    stored = rng.random((n_rows, n_items)) < draw(st.floats(0.0, 1.0))
    values = rng.choice(LEVELS, size=(n_rows, n_items))
    if draw(st.booleans()):
        values[0] = fill  # an all-fill row (every stored entry equals fill)
    if n_rows > 1 and draw(st.booleans()):
        stored[-1] = False  # an empty row
    dense = np.where(stored, values, fill)
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix(
        (values[rows, cols], (rows, cols)), shape=(n_rows, n_items)
    )
    index_dtype = draw(st.sampled_from((np.int32, np.int64)))
    csr.indices = csr.indices.astype(index_dtype)
    csr.indptr = csr.indptr.astype(index_dtype)
    selection = rng.permutation(n_rows)[: draw(st.integers(0, n_rows))]
    k = draw(st.integers(min_value=1, max_value=n_items))
    top = float(csr.data.max()) if csr.nnz else fill
    ceiling = draw(st.sampled_from((top, np.inf)))
    return csr, dense, selection.astype(np.int64), k, fill, ceiling


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@settings(max_examples=300, deadline=None)
@given(instance=csr_instances(), budget=st.integers(min_value=1, max_value=40))
def test_matches_dense_top_k(implementation, instance, budget):
    # ``budget`` shrinks the numpy fallback's row blocks (the compiled
    # kernel has none), and every selected row is ranked twice.
    csr, dense, rows, k, fill, ceiling = instance
    rows = np.concatenate([rows, rows[::-1]])
    with mock.patch.object(kernels, "_CSR_BLOCK_ENTRIES", budget):
        got = IMPLEMENTATIONS[implementation](
            csr.data, csr.indices, csr.indptr, rows, csr.shape[1], k, fill,
            ceiling,
        )
    if rows.size:
        expected = kernels.top_k_table(dense[rows], k)
    else:
        expected = (np.empty((0, k), np.int64), np.empty((0, k)))
    assert_bit_identical(got, expected)


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("fill", [2.0, 0.0])
def test_bands_and_signed_zeros(implementation, fill):
    # Row 0 stores 1, 3, 2, 0.5: with fill 2.0 two stored values rank below
    # the fill and the stored 2.0 joins the fill band at its own index.
    # Row 1 stores -0.0 and 5: with fill 0.0 the -0.0 ties the unstored
    # +0.0 cells, ranks by index and keeps its sign bit.
    csr = sp.csr_matrix(
        ([1.0, 3.0, 2.0, 0.5, -0.0, 5.0], [0, 1, 2, 3, 0, 2], [0, 4, 6]),
        shape=(2, 5),
    )
    dense = np.array(
        [[1.0, 3.0, 2.0, 0.5, fill], [-0.0, fill, 5.0, fill, fill]]
    )
    got = IMPLEMENTATIONS[implementation](
        csr.data, csr.indices, csr.indptr, np.array([0, 1]), 5, 5, fill
    )
    assert_bit_identical(got, kernels.top_k_table(dense, 5))


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("k", [1, 3, 4])
def test_entries_at_the_ceiling(implementation, k):
    # Ceiling 5, fill 1.  Row 0: its first three stored entries sit at the
    # ceiling, a later 5 at item 6 must not enter (ties keep the lower
    # index), and a 4 follows.  Row 1: a 4 before three ceiling entries.
    # Then a row read with fill == ceiling, so no stored value lies above
    # the fill.
    csr = sp.csr_matrix(
        (
            [5.0, 5.0, 5.0, 2.0, 5.0, 4.0, 4.0, 5.0, 5.0, 5.0],
            [0, 2, 3, 5, 6, 7, 0, 1, 4, 7],
            [0, 6, 10],
        ),
        shape=(2, 8),
    )
    dense = csr.toarray()
    dense[csr.toarray() == 0] = 1.0
    got = IMPLEMENTATIONS[implementation](
        csr.data, csr.indices, csr.indptr, np.array([0, 1, 0]), 8, k, 1.0, 5.0
    )
    assert_bit_identical(got, kernels.top_k_table(dense[[0, 1, 0]], k))
    if k == 3:
        assert got[0][0].tolist() == [0, 2, 3]
    at_fill = sp.csr_matrix(([5.0, 2.0], [1, 3], [0, 2]), shape=(1, 5))
    got = IMPLEMENTATIONS[implementation](
        at_fill.data, at_fill.indices, at_fill.indptr, np.array([0]), 5, k,
        5.0, 5.0,
    )
    expected = kernels.top_k_table(np.array([[5.0, 5.0, 5.0, 2.0, 5.0]]), k)
    assert_bit_identical(got, expected)


def test_compiled_scan_stops_at_the_ceiling():
    # The stop itself, seen through a ceiling that is *not* a bound: once
    # the k best values so far reach it, the row's later stored entries are
    # never read, so the larger 7.0 does not enter.  Below the ceiling (the
    # k-th best is 5.0 < 6.0) the scan goes on, as it does with +inf.
    csr = sp.csr_matrix(([5.0, 6.0, 5.0, 7.0], [0, 1, 2, 3], [0, 4]),
                        shape=(1, 6))
    args = (csr.data, csr.indices, csr.indptr, np.array([0]), 6, 2, 1.0)
    items, values = compiled_top_k(*args, 5.0)
    assert items.tolist() == [[1, 0]] and values.tolist() == [[6.0, 5.0]]
    for ceiling in (6.0, np.inf):
        items, values = compiled_top_k(*args, ceiling)
        assert items.tolist() == [[3, 1]] and values.tolist() == [[7.0, 6.0]]


@pytest.mark.parametrize("k", [1, 5, 12])
def test_sparse_store_ranks_like_dense_store_at_the_maximum(k):
    # Most stored ratings sit at the scale maximum (heavy ties where the
    # scan stops), with explicit fill-valued entries, empty rows and rows
    # holding fewer than k maximum ratings.
    rng = np.random.default_rng(11)
    scale = RatingScale(1.0, 5.0)
    stored = rng.random((300, 40)) < 0.4
    stored[[7, 150]] = False
    values = rng.choice([5.0, 5.0, 5.0, 4.0, 2.5, 1.0], size=stored.shape)
    store = SparseStore(
        sp.csr_matrix((values[stored], np.nonzero(stored)), shape=stored.shape),
        fill_value=1.0, scale=scale,
    )
    dense = DenseStore(store.to_dense(), scale=scale)
    rows = rng.permutation(300)[:200]
    for selection in (None, slice(13, 290), rows):
        assert_bit_identical(store.top_k(selection, k), dense.top_k(selection, k))


@pytest.mark.parametrize("implementation", sorted(IMPLEMENTATIONS))
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_index_arrays_read_in_place(implementation, index_dtype):
    # Ranking three rows of a large matrix must not copy or convert the
    # nnz-sized index array: peak allocation stays far below its size.
    n_rows, per_row, stride = 20_000, 50, 100
    n_items = per_row * stride
    rng = np.random.default_rng(3)
    shifts = rng.integers(0, stride, size=(n_rows, 1))
    indices = (np.arange(per_row) * stride + shifts).ravel().astype(index_dtype)
    indptr = np.arange(0, n_rows * per_row + 1, per_row, dtype=index_dtype)
    data = rng.integers(1, 6, size=indices.size).astype(np.float64)
    rows = np.array([5, 0, 19_999])
    IMPLEMENTATIONS[implementation](data, indices, indptr, rows, n_items, 4, 1.0)
    tracemalloc.start()
    try:
        IMPLEMENTATIONS[implementation](data, indices, indptr, rows, n_items, 4, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < indices.nbytes // 16


@pytest.mark.parametrize("budget", [1, 16, 64])
def test_numpy_row_blocks_match_dense_top_k(budget):
    # Heavy ties (few levels), stored entries equal to the fill, empty
    # rows 3/17/40, row 5 fully stored (30 entries, above a budget of 16),
    # and unsorted, repeated row ids.
    rng = np.random.default_rng(8)
    stored = rng.random((60, 30)) < 0.3
    stored[5] = True
    stored[[3, 17, 40]] = False
    values = rng.choice(LEVELS + (2.0,), size=(60, 30))
    dense = np.where(stored, values, 2.0)
    csr = sp.csr_matrix((values[stored], np.nonzero(stored)), shape=(60, 30))
    assert (csr.data == 2.0).any()
    rows = np.concatenate([rng.permutation(60), [5, 5, 3, 0]])
    blocks = []
    block_kernel = kernels._csr_top_k_block

    def spy(data, indices, indptr, block_rows, n_items, k, fill, levels):
        stored = int((indptr[block_rows + 1] - indptr[block_rows]).sum())
        blocks.append((block_rows.size, stored + k * block_rows.size))
        return block_kernel(
            data, indices, indptr, block_rows, n_items, k, fill, levels
        )

    with mock.patch.object(kernels, "_CSR_BLOCK_ENTRIES", budget), \
            mock.patch.object(kernels, "_csr_top_k_block", spy):
        for k in (1, 3, 30):
            blocks.clear()
            got = kernels._csr_top_k_numpy(
                csr.data, csr.indices, csr.indptr, rows, 30, k, 2.0
            )
            assert_bit_identical(got, kernels.top_k_table(dense[rows], k))
            assert sum(size for size, _ in blocks) == rows.size
            assert len(blocks) > 4
            # Every block keeps to the budget unless it is one heavier row.
            assert all(size == 1 or cost <= budget for size, cost in blocks)
            if budget == 16:
                assert any(size == 1 and cost > budget for size, cost in blocks)


def test_public_entry_point_validates_and_dispatches():
    csr = sp.csr_matrix(np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 4.0]]))
    items, values = kernels.csr_top_k_table(csr, np.array([1, 0]), 2, 1.0, np.inf)
    assert items.tolist() == [[2, 0], [0, 2]]
    assert values.tolist() == [[4.0, 1.0], [3.0, 2.0]]
    with pytest.raises(ValueError):
        kernels.csr_top_k_table(csr, np.array([0]), 4, 1.0, np.inf)
    with pytest.raises(IndexError):
        kernels.csr_top_k_table(csr, np.array([2]), 1, 1.0, np.inf)
