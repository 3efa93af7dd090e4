"""Shared-memory adapter round-trips: export → attach must be bit-exact."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.topk_index import TopKIndex
from repro.execution.shm import (
    SharedExports,
    attach_array,
    attach_store,
    attach_tables,
    detach_all,
)
from repro.recsys.matrix import RatingMatrix, RatingScale
from repro.recsys.store import DenseStore, SparseStore


@pytest.fixture(autouse=True)
def _detach():
    yield
    detach_all()


@pytest.fixture
def values():
    return np.random.default_rng(3).integers(1, 6, size=(40, 12)).astype(float)


def test_array_round_trip_preserves_bytes_and_dtype():
    with SharedExports() as exports:
        for array in (
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.linspace(0.0, 1.0, 7),
            np.array([], dtype=np.float64),
        ):
            spec = exports.export_array(array)
            attached = attach_array(spec)
            assert attached.dtype == array.dtype
            assert attached.shape == array.shape
            assert np.array_equal(attached, array)
        detach_all()


def test_dense_store_round_trip(values):
    store = DenseStore(values.copy(), scale=RatingScale(1.0, 5.0))
    with SharedExports() as exports:
        attached = attach_store(exports.export_store(store))
        assert isinstance(attached, DenseStore)
        assert attached.shape == store.shape
        assert attached.scale == store.scale
        assert np.array_equal(attached.values, store.values)
        # Zero-copy: the attached values view shared pages, not a pickle copy.
        assert attached.values.base is not None
        detach_all()


def test_sparse_store_round_trip(values):
    matrix = RatingMatrix(values.copy())
    store = SparseStore.from_matrix(matrix)
    with SharedExports() as exports:
        attached = attach_store(exports.export_store(store))
        assert isinstance(attached, SparseStore)
        assert attached.fill_value == store.fill_value
        assert attached.csr.nnz == store.csr.nnz
        assert np.array_equal(attached.to_dense(), store.to_dense())
        assert np.array_equal(attached.block(5, 20), store.block(5, 20))
        detach_all()


def test_sparse_store_with_explicit_fill_and_empty_rows():
    explicit = sp.csr_matrix(
        (np.array([4.0, 2.0]), (np.array([0, 2]), np.array([1, 0]))), shape=(4, 3)
    )
    store = SparseStore(explicit, fill_value=3.0)
    with SharedExports() as exports:
        attached = attach_store(exports.export_store(store))
        assert np.array_equal(attached.to_dense(), store.to_dense())
        detach_all()


def test_sparse_attach_skips_the_canonical_scan(values, monkeypatch):
    # The exporter's CSR is canonical; replicas adopt it without rescanning
    # (or re-sorting) pages shared with their siblings.
    from scipy.sparse import _compressed

    store = SparseStore.from_matrix(RatingMatrix(values.copy()))

    def no_scan(*args):
        raise AssertionError("attached CSR was rescanned")

    with SharedExports() as exports:
        spec = exports.export_store(store)
        monkeypatch.setattr(_compressed, "csr_has_canonical_format", no_scan)
        monkeypatch.setattr(_compressed, "csr_has_sorted_indices", no_scan)
        attached = attach_store(spec)
        assert attached.csr.has_canonical_format
        assert np.array_equal(attached.top_k(None, 4)[0], store.top_k(None, 4)[0])
        detach_all()


def test_tables_and_index_round_trip(values):
    index = TopKIndex.build(DenseStore(values.copy()), 6)
    with SharedExports() as exports:
        spec = exports.export_tables(index.items, index.values, index.n_items)
        items, vals = attach_tables(spec)
        assert np.array_equal(items, index.items)
        assert np.array_equal(vals, index.values)
        detach_all()


def test_close_unlinks_segments(values):
    exports = SharedExports()
    spec = exports.export_store(DenseStore(values.copy()))
    attach_store(spec)
    detach_all()
    exports.close()
    with pytest.raises(FileNotFoundError):
        attach_array(spec.arrays[0][1])
    # close is idempotent.
    exports.close()


def test_detach_releases_named_segments_only(values):
    from repro.execution.shm import _ATTACHED, detach

    with SharedExports() as exports:
        spec_a = exports.export_array(values)
        spec_b = exports.export_array(values * 2.0)
        a = attach_array(spec_a)
        b = attach_array(spec_b)
        assert spec_a.segment in _ATTACHED and spec_b.segment in _ATTACHED
        del a
        detach([spec_a.segment])
        assert spec_a.segment not in _ATTACHED
        assert spec_b.segment in _ATTACHED
        assert np.array_equal(b, values * 2.0)  # untouched segment still valid
        # Re-attaching a detached (but not yet unlinked) segment works.
        assert np.array_equal(attach_array(spec_a), values)
        detach_all()


def test_export_rejects_unknown_store_types():
    class FakeStore:
        pass

    with SharedExports() as exports:
        with pytest.raises(TypeError):
            exports.export_store(FakeStore())
