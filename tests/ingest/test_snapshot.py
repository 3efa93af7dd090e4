"""Snapshot round-trips, retention, and torn-file tolerance."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core import MutableTopKIndex
from repro.core.errors import IngestError
from repro.ingest import SnapshotManager
from repro.recsys import DenseStore, SparseStore
from repro.recsys.matrix import RatingScale


def make_index(kind: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 6, size=(20, 8)).astype(float)
    if kind == "dense":
        store = DenseStore(values, scale=RatingScale(1.0, 5.0))
    else:
        store = SparseStore(sp.csr_matrix(values), fill_value=1.0)
    return MutableTopKIndex(store, k_max=4)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_snapshot_round_trip_is_bit_identical(kind, tmp_path):
    index = make_index(kind)
    index.apply(upserts=[(0, 1, 5.0), (3, 2, 4.0)], deletes=[(1, 0)])
    index.remove_users([7])
    manager = SnapshotManager(tmp_path)
    manager.save(index, applied_seq=11)

    state = manager.load_latest()
    assert state.applied_seq == 11
    assert state.version == index.version
    assert state.staleness == index.staleness
    assert set(int(u) for u in state.removed) == set(index.removed)
    assert state.k_max == index.k_max
    assert np.array_equal(state.index_items, index.items)
    assert np.array_equal(state.index_values, index.values)
    assert type(state.store) is type(index.store)
    assert np.array_equal(state.store.to_dense(), index.store.to_dense())
    assert state.store.scale == index.store.scale
    if kind == "sparse":
        # The CSR internals round-trip exactly, not just the dense view.
        assert np.array_equal(state.store.csr.data, index.store.csr.data)
        assert np.array_equal(state.store.csr.indices, index.store.csr.indices)
        assert np.array_equal(state.store.csr.indptr, index.store.csr.indptr)
        assert state.store.fill_value == index.store.fill_value


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_compressed_snapshot_from_earlier_versions_still_loads(kind, tmp_path):
    # Earlier versions wrote snapshots with np.savez_compressed; rewrite one
    # in that format and check it recovers bit-identically.
    import zipfile

    index = make_index(kind)
    index.apply(upserts=[(0, 1, 5.0), (3, 2, 4.0)], deletes=[(1, 0)])
    manager = SnapshotManager(tmp_path)
    path = manager.save(index, applied_seq=5)
    with zipfile.ZipFile(path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
    fresh = manager.load_latest()
    with np.load(path) as data:
        payload = {name: data[name] for name in data.files}
    with path.open("wb") as handle:
        np.savez_compressed(handle, **payload)
    with zipfile.ZipFile(path) as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}

    state = manager.load_latest()
    assert state.applied_seq == 5 and state.version == fresh.version
    assert state.index_items.tobytes() == fresh.index_items.tobytes()
    assert state.index_values.tobytes() == fresh.index_values.tobytes()
    if kind == "sparse":
        for name in ("data", "indices", "indptr"):
            got, want = getattr(state.store.csr, name), getattr(fresh.store.csr, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert state.store.values.tobytes() == fresh.store.values.tobytes()


def test_retention_prunes_oldest(tmp_path):
    index = make_index("dense")
    manager = SnapshotManager(tmp_path, retain=2)
    for seq in (3, 7, 12, 20):
        manager.save(index, applied_seq=seq)
    names = sorted(p.name for p in tmp_path.glob("snapshot-*.npz"))
    assert names == [
        "snapshot-0000000000000012.npz",
        "snapshot-0000000000000020.npz",
    ]
    assert manager.oldest_retained_seq() == 12
    assert manager.load_latest().applied_seq == 20
    assert manager.load(12).applied_seq == 12
    with pytest.raises(IngestError):
        manager.load(7)


def test_torn_latest_snapshot_falls_back_to_previous(tmp_path):
    index = make_index("dense")
    manager = SnapshotManager(tmp_path)
    manager.save(index, applied_seq=5)
    manager.save(index, applied_seq=9)
    latest = tmp_path / "snapshot-0000000000000009.npz"
    latest.write_bytes(latest.read_bytes()[:40])  # torn mid-write
    state = manager.load_latest()
    assert state is not None and state.applied_seq == 5


def test_empty_directory_loads_none(tmp_path):
    manager = SnapshotManager(tmp_path)
    assert manager.load_latest() is None
    assert manager.oldest_retained_seq() is None


def test_invalid_parameters_raise(tmp_path):
    with pytest.raises(IngestError):
        SnapshotManager(tmp_path, retain=0)
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(IngestError):
        SnapshotManager(target)
