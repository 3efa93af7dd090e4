"""The recovery invariant: snapshot + WAL-tail replay is bit-identical.

Hypothesis drives random event streams (plus user additions/removals)
through an :class:`~repro.ingest.IngestPipeline` with a tight snapshot
cadence, then "crashes" by abandoning the pipeline and recovering from
disk.  The recovered store and :class:`~repro.core.MutableTopKIndex` must
match the live process **bit for bit** — tables, version, tombstones —
and also match a second recovery from the *baseline* snapshot replaying
the whole log (two different snapshot/tail splits, one state).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core.errors import IngestError
from repro.core.topk_index import TopKIndex
from repro.ingest import (
    Click,
    Completion,
    ExplicitRating,
    IngestPipeline,
    RatingDelete,
    SnapshotManager,
)
from repro.recsys import DenseStore, SparseStore
from repro.service import FormationService


def make_factory(values: np.ndarray, store_kind: str, k_max: int):
    """The ``service_factory`` recovery contract over a fixed instance."""

    def factory(state):
        if state is None:
            if store_kind == "dense":
                store = DenseStore(values.copy())
            else:
                store = SparseStore(sp.csr_matrix(values), fill_value=1.0)
            return FormationService(store, k_max=k_max)
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


def assert_bit_identical(recovered: FormationService, live: FormationService):
    assert np.array_equal(recovered.index.items, live.index.items)
    assert np.array_equal(recovered.index.values, live.index.values)
    assert recovered.index.version == live.index.version
    assert recovered.index.removed == live.index.removed
    assert np.array_equal(
        recovered.store.to_dense(), live.store.to_dense()
    )
    if isinstance(live.store, SparseStore):
        assert np.array_equal(recovered.store.csr.data, live.store.csr.data)
        assert np.array_equal(
            recovered.store.csr.indices, live.store.csr.indices
        )
        assert np.array_equal(recovered.store.csr.indptr, live.store.csr.indptr)


@st.composite
def ingest_runs(draw):
    """An instance plus a random mixed batch/event workload."""
    n_users = draw(st.integers(min_value=3, max_value=12))
    n_items = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    store_kind = draw(st.sampled_from(["dense", "sparse"]))
    k_max = draw(st.integers(min_value=1, max_value=n_items))
    snapshot_every = draw(st.integers(min_value=1, max_value=4))
    n_batches = draw(st.integers(min_value=1, max_value=8))
    batches = []
    for _ in range(n_batches):
        kind = draw(st.sampled_from(["events", "events", "events", "users"]))
        if kind == "events":
            events = []
            for _ in range(draw(st.integers(0, 5))):
                ev = draw(st.sampled_from(["rating", "delete", "click", "completion"]))
                user = draw(st.integers(0, n_users - 1))
                item = draw(st.integers(0, n_items - 1))
                if ev == "rating":
                    events.append(
                        ExplicitRating(user, item, float(draw(st.integers(1, 5))))
                    )
                elif ev == "delete":
                    events.append(RatingDelete(user, item))
                elif ev == "click":
                    events.append(Click(user, item))
                else:
                    events.append(
                        Completion(user, item, draw(st.sampled_from([0.0, 0.5, 1.0])))
                    )
            batches.append(("events", events))
        else:
            batches.append(
                ("remove" if draw(st.booleans()) else "add",
                 draw(st.integers(0, n_users - 1)))
            )
    return n_users, n_items, seed, store_kind, k_max, snapshot_every, batches


@given(data=ingest_runs())
@settings(max_examples=20, deadline=None)
def test_recovery_is_bit_identical(tmp_path_factory, data):
    n_users, n_items, seed, store_kind, k_max, snapshot_every, batches = data
    tmp_path = tmp_path_factory.mktemp("wal")
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 6, size=(n_users, n_items)).astype(float)
    factory = make_factory(values, store_kind, k_max)

    pipeline = IngestPipeline.open(
        tmp_path, factory, snapshot_every=snapshot_every
    )
    for kind, payload in batches:
        if kind == "events":
            pipeline.ingest(payload)
        elif kind == "remove":
            pipeline.apply(remove_users=[payload])
        else:
            new_rows = rng.integers(1, 6, size=(1, n_items)).astype(float)
            pipeline.apply(add_users=new_rows)
    live = pipeline.service
    # Crash: abandon the pipeline without close(); every acknowledged
    # batch was journaled (sync_every=1) before it was applied.
    del pipeline

    recovered = IngestPipeline.open(
        tmp_path, factory, snapshot_every=snapshot_every
    )
    assert_bit_identical(recovered.service, live)

    # Same state again from the opposite split: baseline snapshot (seq 0)
    # + full-log replay, provided retention kept the baseline around.
    snapshots = SnapshotManager(tmp_path / "snapshots")
    if snapshots.oldest_retained_seq() == 0:
        baseline = factory(snapshots.load(0))
        for _seq, record in recovered.wal.replay(after=0):
            IngestPipeline.replay_record(baseline, record)
        assert_bit_identical(baseline, live)
    recovered.close()


def test_reopen_with_mismatched_shape_raises(tmp_path):
    values = np.random.default_rng(0).integers(1, 6, size=(8, 5)).astype(float)
    pipeline = IngestPipeline.open(
        tmp_path, make_factory(values, "dense", k_max=3)
    )
    pipeline.ingest([ExplicitRating(0, 0, 5.0)])
    pipeline.close()

    def bad_factory(state):
        service = make_factory(values, "dense", k_max=3)(state)
        return service

    # A factory that re-attaches a journal is rejected (would re-journal
    # the replay).
    def journaled_factory(state):
        service = make_factory(values, "dense", k_max=3)(state)
        service.journal = object()
        return service

    with pytest.raises(IngestError):
        IngestPipeline.open(tmp_path, journaled_factory)
    # bad_factory is fine — sanity-check the fixture itself.
    IngestPipeline.open(tmp_path, bad_factory).close()


def test_rejected_batches_replay_identically(tmp_path):
    values = np.random.default_rng(1).integers(1, 6, size=(6, 4)).astype(float)
    factory = make_factory(values, "dense", k_max=2)
    pipeline = IngestPipeline.open(tmp_path, factory, snapshot_every=0)
    pipeline.ingest([ExplicitRating(0, 0, 4.0)])
    # Journaled then rejected: item 99 is out of range (the event layer
    # cannot know the catalogue size; the store rejects atomically).
    with pytest.raises(Exception):
        pipeline.ingest([ExplicitRating(0, 99, 4.0)])
    pipeline.ingest([ExplicitRating(1, 1, 2.0)])
    live = pipeline.service
    del pipeline

    recovered = IngestPipeline.open(tmp_path, factory, snapshot_every=0)
    assert recovered.recovery["batches_skipped"] == 1
    assert recovered.recovery["batches_replayed"] >= 2
    assert_bit_identical(recovered.service, live)
    recovered.close()


def test_snapshot_truncates_the_log(tmp_path):
    values = np.random.default_rng(2).integers(1, 6, size=(6, 4)).astype(float)
    factory = make_factory(values, "dense", k_max=2)
    pipeline = IngestPipeline.open(
        tmp_path, factory, snapshot_every=2, retain=1
    )
    for i in range(8):
        pipeline.ingest([ExplicitRating(i % 6, 0, float(1 + i % 5))])
    stats = pipeline.stats()
    assert stats["snapshots_taken"] >= 4
    # retain=1 keeps only the newest snapshot; every sealed segment fully
    # covered by it has been deleted, so replay starts near the tail.
    oldest = SnapshotManager(tmp_path / "snapshots").oldest_retained_seq()
    replayable = [seq for seq, _ in pipeline.wal.replay()]
    assert not replayable or min(replayable) > 0
    assert oldest == pipeline.wal.last_seq  # cadence hit exactly at the end
    live = pipeline.service
    del pipeline
    recovered = IngestPipeline.open(tmp_path, factory, snapshot_every=2)
    assert recovered.recovery["batches_replayed"] == 0
    assert_bit_identical(recovered.service, live)
    recovered.close()
