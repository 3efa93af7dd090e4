"""The row splice behind ``SparseStore.upsert`` / ``delete``.

The oracle is the assignment the splice replaced: scipy's CSR fancy
assignment followed by a full ``sort_indices``.  Upserts must reproduce
its ``indptr``, ``indices`` and ``data`` byte for byte (dtypes included).
Deletes no longer insert fill-valued entries for unstored cells, so they
are compared with the oracle through the dense view, and their CSR must
keep the stored pattern unchanged.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.topk_index import MutableTopKIndex, TopKIndex
from repro.execution.shm import SharedExports, attach_store, detach_all
from repro.ingest import SnapshotManager
from repro.recsys.matrix import RatingScale
from repro.recsys.store import (
    DenseStore,
    SparseStore,
    _index_dtype,
    _validate_update_coords,
)


def _as_index_dtype(csr: sp.csr_matrix, dtype) -> sp.csr_matrix:
    """``csr`` with its ``indices``/``indptr`` forced to ``dtype``."""
    csr.indices = csr.indices.astype(dtype)
    csr.indptr = csr.indptr.astype(dtype)
    return csr


def _copy(csr: sp.csr_matrix) -> sp.csr_matrix:
    """A deep copy keeping the index dtype (scipy's constructor may narrow it)."""
    out = sp.csr_matrix(csr.shape, dtype=np.float64)
    out.data, out.indices, out.indptr = (
        csr.data.copy(), csr.indices.copy(), csr.indptr.copy()
    )
    out.has_canonical_format = True
    return out


def _oracle_set(csr: sp.csr_matrix, users, items, values) -> None:
    """The replaced write path: scipy assignment, then a full index sort."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
        csr[users, items] = values
    csr.sort_indices()


def _random_store(rng, n_users, n_items, density, fill, dtype) -> SparseStore:
    """A random store with empty rows and some explicit fill-valued entries."""
    mask = rng.random((n_users, n_items)) < density
    mask[rng.random(n_users) < 0.2] = False  # empty rows
    rows, cols = np.nonzero(mask)
    data = rng.integers(1, 6, rows.size).astype(np.float64)
    data[rng.random(rows.size) < 0.1] = fill  # explicit fill-valued cells
    csr = sp.csr_matrix((data, (rows, cols)), shape=(n_users, n_items))
    return SparseStore(_as_index_dtype(csr, dtype), fill_value=fill)


def _assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _assert_canonical_flags(csr: sp.csr_matrix) -> None:
    """The store's flags agree with scipy's own scan of a fresh copy."""
    scanned = sp.csr_matrix(
        (csr.data.copy(), csr.indices.copy(), csr.indptr.copy()), shape=csr.shape
    )
    assert scanned.has_sorted_indices and scanned.has_canonical_format
    assert csr.has_sorted_indices and csr.has_canonical_format


def _random_batch(rng, shape, fill):
    n_users, n_items = shape
    size = int(rng.integers(1, 3 * n_items))
    users = rng.integers(0, n_users, size)
    items = rng.integers(0, n_items, size)
    values = rng.integers(1, 6, size).astype(np.float64)
    values[rng.random(size) < 0.1] = fill
    # Reach the edges often: first/last user, first/last item.
    users[rng.random(size) < 0.1] = 0
    users[rng.random(size) < 0.1] = n_users - 1
    items[rng.random(size) < 0.1] = 0
    items[rng.random(size) < 0.1] = n_items - 1
    return users, items, values


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("fill", [1.0, 3.0])
def test_random_batches_match_the_scipy_assignment(dtype, fill):
    rng = np.random.default_rng(int(fill) * 100 + np.dtype(dtype).itemsize)
    for _ in range(40):
        shape = (int(rng.integers(1, 25)), int(rng.integers(1, 25)))
        store = _random_store(rng, *shape, rng.random() * 0.6, fill, dtype)
        oracle = _copy(store.csr)
        for _ in range(6):
            users, items, values = _random_batch(rng, shape, fill)
            if rng.random() < 0.3:
                before = store.to_dense()
                pattern = (store.csr.indptr.copy(), store.csr.indices.copy())
                store.delete(users, items)
                assert np.array_equal(store.csr.indptr, pattern[0])
                assert np.array_equal(store.csr.indices, pattern[1])
                u, i, _ = _validate_update_coords(
                    users, items, shape, None, store.scale
                )
                _oracle_set(oracle, u, i, np.full(u.size, fill))
                want = before.copy()
                want[u, i] = fill
                assert np.array_equal(store.to_dense(), want)
                assert np.array_equal(
                    store.to_dense(),
                    SparseStore(_copy(oracle), fill_value=fill).to_dense(),
                )
                oracle = _copy(store.csr)  # deletes legitimately diverge
            else:
                store.upsert(users, items, values)
                u, i, v = _validate_update_coords(
                    users, items, shape, values, store.scale
                )
                _oracle_set(oracle, u, i, v)
                _assert_same_csr(store.csr, oracle)
            _assert_canonical_flags(store.csr)


def _stored(store: SparseStore) -> np.ndarray:
    """Dense mask of the cells the CSR stores (fill-valued entries included)."""
    csr = store.csr
    mask = np.zeros(store.shape, dtype=bool)
    mask[np.repeat(np.arange(store.n_users), np.diff(csr.indptr)), csr.indices] = True
    return mask


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_edge_batches_match_the_scipy_assignment(dtype):
    rng = np.random.default_rng(5)
    store = _random_store(rng, 12, 9, 0.3, 1.0, dtype)
    n_users, n_items = store.shape
    empty_row = int(np.flatnonzero(np.diff(store.csr.indptr) == 0)[0])

    def all_existing():
        users, items = np.nonzero(_stored(store))
        return users, items, np.full(users.size, 3.0)

    def all_new():
        users, items = np.nonzero(~_stored(store))
        return users[:7], items[:7], np.arange(7) % 5 + 1.0

    batches = [
        lambda: ([0], [0], [5.0]),                            # single cell
        lambda: ([n_users - 1], [n_items - 1], [4.0]),        # last cell
        lambda: ([empty_row] * n_items, range(n_items), [2.0] * n_items),
        lambda: ([0, 0], [0, n_items - 1], [1.0, 1.0]),       # explicit fill
        all_existing,
        all_new,
    ]
    for batch in batches:
        users, items, values = batch()
        oracle = _copy(store.csr)
        store.upsert(users, items, values)
        u, i, v = _validate_update_coords(
            users, items, store.shape, values, store.scale
        )
        _oracle_set(oracle, u, i, v)
        _assert_same_csr(store.csr, oracle)
        _assert_canonical_flags(store.csr)


def test_a_batch_of_stored_cells_reallocates_nothing():
    rng = np.random.default_rng(9)
    store = _random_store(rng, 15, 10, 0.4, 1.0, np.int32)
    users = np.repeat(np.arange(15), np.diff(store.csr.indptr))
    items = store.csr.indices.astype(np.int64)
    arrays = (store.csr.data, store.csr.indices, store.csr.indptr)
    store.upsert(users, items, np.full(users.size, 4.0))
    store.delete(users[:5], items[:5])
    assert all(a is b for a, b in zip(arrays, (
        store.csr.data, store.csr.indices, store.csr.indptr
    )))
    assert (store.csr.data[5:] == 4.0).all() and (store.csr.data[:5] == 1.0).all()


def test_an_inserting_splice_flags_the_csr_canonical():
    # scipy caches the flags and never re-derives them after the arrays are
    # swapped, so the splice must set them itself.
    store = _random_store(np.random.default_rng(3), 10, 8, 0.3, 1.0, np.int32)
    store.csr.has_sorted_indices = False
    store.csr.has_canonical_format = False
    users, items = np.nonzero(~_stored(store))
    store.upsert(users[:3], items[:3], [2.0, 3.0, 4.0])
    _assert_canonical_flags(store.csr)


def test_index_dtype_widens_past_the_int32_range():
    small = sp.csr_matrix(np.eye(3))
    assert small.indices.dtype == np.int32
    assert _index_dtype(small, 2**31 - 1) == np.int32
    assert _index_dtype(small, 2**31) == np.int64
    wide = _as_index_dtype(sp.csr_matrix(np.eye(3)), np.int64)
    assert _index_dtype(wide, 3) == np.int64


def test_deleting_unstored_cells_never_grows_the_csr():
    rng = np.random.default_rng(11)
    values = rng.integers(1, 6, size=(30, 12)).astype(np.float64)
    values[rng.random(values.shape) < 0.7] = 1.0
    store = SparseStore(sp.csr_matrix(values * (values != 1.0)), fill_value=1.0)
    index = MutableTopKIndex(store, k_max=4)
    nnz = store.csr.nnz
    users, items = np.nonzero(values == 1.0)
    pick = rng.choice(users.size, 40, replace=False)
    stats = index.apply(deletes=np.column_stack((users[pick], items[pick])))
    assert store.csr.nnz == nnz
    assert np.array_equal(store.to_dense(), values)
    fresh = TopKIndex.build(DenseStore(values), 4)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)
    assert stats["deletes"] == 40


def _spliced_store() -> SparseStore:
    rng = np.random.default_rng(13)
    store = _random_store(rng, 25, 10, 0.3, 1.0, np.int32)
    for _ in range(5):
        store.upsert(*_random_batch(rng, store.shape, 1.0))
        store.delete(*_random_batch(rng, store.shape, 1.0)[:2])
    return store


def test_spliced_store_round_trips_through_shared_memory():
    store = _spliced_store()
    with SharedExports() as exports:
        attached = attach_store(exports.export_store(store))
        _assert_same_csr(attached.csr, store.csr)
        assert np.array_equal(attached.to_dense(), store.to_dense())
        assert np.array_equal(attached.top_k(None, 4)[0], store.top_k(None, 4)[0])
        detach_all()


def test_spliced_store_round_trips_through_a_snapshot(tmp_path):
    store = _spliced_store()
    index = MutableTopKIndex(store, k_max=4)
    manager = SnapshotManager(tmp_path)
    manager.save(index, applied_seq=3)
    state = manager.load_latest()
    _assert_same_csr(state.store.csr, store.csr)
    assert state.store.fill_value == store.fill_value
    assert state.store.scale == RatingScale(1.0, 5.0)
    assert np.array_equal(state.index_items, index.items)
    assert np.array_equal(state.index_values, index.values)
