"""Snapshot crash-window faults: stray cleanup, atomic replace, prune."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import MutableTopKIndex
from repro.ingest import ExplicitRating, IngestPipeline, SnapshotManager
from repro.recsys import DenseStore
from repro.recsys.matrix import RatingScale
from repro.service import FormationService


@pytest.fixture(autouse=True)
def _reset_faults():
    faults.reset()
    yield
    faults.reset()


def make_index(seed: int = 0):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 6, size=(12, 6)).astype(float)
    store = DenseStore(values, scale=RatingScale(1.0, 5.0))
    return MutableTopKIndex(store, k_max=3)


def make_factory(values: np.ndarray):
    from repro.core.topk_index import TopKIndex

    def factory(state):
        if state is None:
            return FormationService(DenseStore(values.copy()), k_max=3)
        service = FormationService(
            state.store,
            k_max=state.k_max,
            base_index=TopKIndex(
                state.index_items, state.index_values, state.store.n_items
            ),
        )
        service.index.adopt_state(state.version, state.removed)
        return service

    return factory


def test_fault_before_replace_leaves_no_stray_and_keeps_previous(tmp_path):
    index = make_index()
    manager = SnapshotManager(tmp_path)
    manager.save(index, applied_seq=5)
    faults.configure("snapshot.replace=enospc@once:1")
    with pytest.raises(OSError):
        manager.save(index, applied_seq=9)
    # The failed save cleaned its temp file and never published a partial.
    assert list(tmp_path.glob("*.tmp")) == []
    assert not (tmp_path / "snapshot-0000000000000009.npz").exists()
    state = manager.load_latest()
    assert state is not None and state.applied_seq == 5
    # The window closed: the next save publishes normally.
    manager.save(index, applied_seq=9)
    assert manager.load_latest().applied_seq == 9


def test_fault_during_tmp_write_leaves_no_stray(tmp_path):
    index = make_index()
    manager = SnapshotManager(tmp_path)
    manager.save(index, applied_seq=3)
    faults.configure("snapshot.write=enospc@once:1")
    with pytest.raises(OSError):
        manager.save(index, applied_seq=7)
    assert list(tmp_path.glob("*.tmp")) == []
    assert manager.load_latest().applied_seq == 3


def test_stray_tmp_is_swept_at_pipeline_open(tmp_path):
    values = np.random.default_rng(1).integers(1, 6, size=(8, 4)).astype(float)
    factory = make_factory(values)
    pipeline = IngestPipeline.open(tmp_path, factory, snapshot_every=1)
    pipeline.ingest([ExplicitRating(0, 0, 5.0)])
    live = pipeline.service
    del pipeline  # crash without close()

    # Simulate a process that died between tmp write and os.replace.
    snapshots_dir = tmp_path / "snapshots"
    stray = snapshots_dir / "snapshot-0000000000000099.npz.tmp"
    stray.write_bytes(b"half a snapshot")

    recovered = IngestPipeline.open(tmp_path, factory, snapshot_every=1)
    assert list(snapshots_dir.glob("*.tmp")) == []
    # Recovery used the latest intact snapshot, not the stray.
    assert np.array_equal(
        recovered.service.store.to_dense(), live.store.to_dense()
    )
    assert recovered.service.index.version == live.index.version
    recovered.close()


def test_prune_fault_is_best_effort(tmp_path):
    index = make_index()
    manager = SnapshotManager(tmp_path, retain=1)
    manager.save(index, applied_seq=1)
    faults.configure("snapshot.prune=io@always")
    # The save itself must succeed even when retention unlinks fail.
    manager.save(index, applied_seq=2)
    names = sorted(p.name for p in tmp_path.glob("snapshot-*.npz"))
    assert len(names) == 2  # the doomed snapshot survived the failed unlink
    faults.reset()
    manager.save(index, applied_seq=3)
    names = sorted(p.name for p in tmp_path.glob("snapshot-*.npz"))
    assert names == ["snapshot-0000000000000003.npz"]
    assert manager.load_latest().applied_seq == 3
