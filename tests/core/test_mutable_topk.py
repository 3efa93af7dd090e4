"""Property suite: incremental index maintenance equals a fresh build.

The :class:`~repro.core.topk_index.MutableTopKIndex` contract is that after
*any* sequence of rating upserts/deletes (and user additions/removals), its
tables are **bit-identical** to ``TopKIndex.build(store, k_max)`` over the
store's current contents — for both store backends and for both engine
backends' top-k kernels.  Hypothesis drives randomised tie-heavy update
sequences; explicit tests cover the fast-path bookkeeping, compaction and
error handling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import FormationEngine, MutableTopKIndex, TopKIndex, kernels
from repro.core.errors import GroupFormationError, RatingDataError
from repro.core.preferences import _top_k_table_sorted
from repro.recsys import DenseStore, SparseStore

BACKENDS = ("reference", "numpy")
#: The dense top-k kernel of each backend: the reference's naive full sort
#: and the numpy backend's blocked kernel (which its stores rank with).
KERNELS = {"reference": _top_k_table_sorted, "numpy": kernels.top_k_table}
STORES = ("dense", "sparse")


def make_store(values: np.ndarray, kind: str):
    if kind == "dense":
        return DenseStore(values.copy())
    return SparseStore(sp.csr_matrix(values), fill_value=1.0)


@st.composite
def update_sequences(draw):
    """An instance plus a sequence of upsert/delete batches."""
    n_users = draw(st.integers(min_value=2, max_value=18))
    n_items = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Few levels => heavy ties => the regime where the tie-break matters.
    values = rng.integers(1, 4, size=(n_users, n_items)).astype(float)
    k_max = draw(st.integers(min_value=1, max_value=n_items))
    n_batches = draw(st.integers(min_value=1, max_value=5))
    batches = []
    for _ in range(n_batches):
        n_ups = draw(st.integers(min_value=0, max_value=6))
        upserts = [
            (
                draw(st.integers(0, n_users - 1)),
                draw(st.integers(0, n_items - 1)),
                float(draw(st.integers(1, 5))),
            )
            for _ in range(n_ups)
        ]
        n_dels = draw(st.integers(min_value=0, max_value=3))
        deletes = [
            (draw(st.integers(0, n_users - 1)), draw(st.integers(0, n_items - 1)))
            for _ in range(n_dels)
        ]
        batches.append((upserts, deletes))
    return values, k_max, batches


@pytest.mark.parametrize("store_kind", STORES)
@pytest.mark.parametrize("backend_name", BACKENDS)
@given(data=update_sequences())
@settings(max_examples=25, deadline=None)
def test_incremental_matches_fresh_build(store_kind, backend_name, data):
    values, k_max, batches = data
    table_fn = KERNELS[backend_name]
    store = make_store(values, store_kind)
    index = MutableTopKIndex(
        store, k_max, table_fn=table_fn, compaction_fraction=None
    )
    for upserts, deletes in batches:
        index.apply(upserts=upserts, deletes=deletes)
        fresh = TopKIndex.build(store, k_max, table_fn=table_fn)
        assert np.array_equal(index.items, fresh.items)
        assert np.array_equal(index.values, fresh.values)


@pytest.mark.parametrize("store_kind", STORES)
@given(data=update_sequences())
@settings(max_examples=10, deadline=None)
def test_formation_after_updates_matches_cold_engine(store_kind, data):
    """Formation through an updated index equals a cold run, for every
    semantics x aggregation x backend combination."""
    values, k_max, batches = data
    store = make_store(values, store_kind)
    index = MutableTopKIndex(store, k_max, compaction_fraction=None)
    for upserts, deletes in batches:
        index.apply(upserts=upserts, deletes=deletes)
    max_groups = min(3, store.n_users)
    for backend_name in BACKENDS:
        engine = FormationEngine(backend_name)
        for semantics in ("lm", "av"):
            for aggregation in ("min", "sum"):
                warm = engine.run(
                    store, max_groups, k_max, semantics, aggregation, topk=index
                )
                cold = engine.run(store, max_groups, k_max, semantics, aggregation)
                context = (backend_name, semantics, aggregation)
                assert warm.objective == cold.objective, context
                assert [g.members for g in warm.groups] == [
                    g.members for g in cold.groups
                ], context
                assert [g.items for g in warm.groups] == [
                    g.items for g in cold.groups
                ], context


@pytest.mark.parametrize("store_kind", STORES)
def test_add_and_remove_users_keep_parity(store_kind):
    rng = np.random.default_rng(7)
    store = make_store(rng.integers(1, 6, size=(12, 6)).astype(float), store_kind)
    index = MutableTopKIndex(store, k_max=4)
    new_ids = index.add_users(rng.integers(1, 6, size=(3, 6)).astype(float))
    assert new_ids.tolist() == [12, 13, 14]
    index.remove_users([0, 5])
    fresh = TopKIndex.build(store, 4)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)
    assert index.removed == frozenset({0, 5})
    assert index.active_users().tolist() == [1, 2, 3, 4] + list(range(6, 15))


def test_fast_path_skips_sub_boundary_updates():
    store = DenseStore(np.array([[5.0, 4.0, 3.0, 1.0], [3.0, 5.0, 4.0, 1.0]]))
    index = MutableTopKIndex(store, k_max=2)
    # Item 3 rated 2.0 still ranks below user 0's k-th entry (4.0 at item 1).
    stats = index.apply(upserts=[(0, 3, 2.0)])
    assert stats["skipped_updates"] == 1
    assert stats["repaired_users"] == 0
    # ... but the store took the write.
    assert store.values[0, 3] == 2.0
    # A tie with a larger item index than the boundary still ranks below
    # it (rating desc, item asc) and is skipped too.
    stats = index.apply(upserts=[(1, 3, 4.0)])
    assert stats["skipped_updates"] == 1 and stats["repaired_users"] == 0
    # User 1's boundary is (4.0, item 2); a tie at a *smaller* item index
    # enters the row and must repair.
    stats = index.apply(upserts=[(1, 0, 4.0)])
    assert stats["repaired_users"] == 1
    fresh = TopKIndex.build(store, 2)
    assert np.array_equal(index.items, fresh.items)
    assert index.items[1].tolist() == [1, 0]


def test_version_bumps_even_for_skipped_batches():
    store = DenseStore(np.array([[5.0, 4.0, 3.0, 1.0]]))
    index = MutableTopKIndex(store, k_max=2)
    assert index.version == 0
    index.apply(upserts=[(0, 3, 2.0)])  # skipped repair, store changed
    assert index.version == 1
    index.apply()  # genuinely empty batch
    assert index.version == 1


def test_staleness_triggers_compaction():
    rng = np.random.default_rng(11)
    store = DenseStore(rng.integers(1, 6, size=(10, 5)).astype(float))
    index = MutableTopKIndex(store, k_max=5, compaction_fraction=0.3)
    compacted = False
    for user in range(10):
        stats = index.apply(upserts=[(user, 0, 5.0), (user, 4, 5.0)])
        compacted = compacted or stats["compacted"]
    assert compacted
    assert index.staleness <= 3
    fresh = TopKIndex.build(store, 5)
    assert np.array_equal(index.items, fresh.items)


def test_slice_caches_follow_updates():
    rng = np.random.default_rng(13)
    store = DenseStore(rng.integers(1, 6, size=(8, 6)).astype(float))
    index = MutableTopKIndex(store, k_max=4)
    before_items, _ = index.top_k(2)
    index.apply(upserts=[(0, 0, 5.0), (0, 1, 5.0)])
    after_items, after_values = index.top_k(2)
    fresh_items, fresh_values = TopKIndex.build(store, 4).top_k(2)
    assert np.array_equal(after_items, fresh_items)
    assert np.array_equal(after_values, fresh_values)
    assert before_items is not after_items


def test_rejects_invalid_batches_atomically():
    store = DenseStore(np.array([[5.0, 4.0], [3.0, 2.0]]))
    index = MutableTopKIndex(store, k_max=2)
    snapshot = store.values.copy()
    with pytest.raises(RatingDataError):
        index.apply(upserts=[(0, 0, 99.0)])  # off scale
    with pytest.raises(GroupFormationError):
        index.apply(upserts=[(0, 0, 5.0)], deletes=[(5, 0)])  # bad delete coord
    with pytest.raises(GroupFormationError):
        index.apply(upserts=[(0, 0)])  # malformed triple
    with pytest.raises(GroupFormationError):
        index.apply(upserts=[(0.7, 0, 5.0)])  # fractional user index
    with pytest.raises(GroupFormationError):
        index.apply(deletes=[(0, 1.5)])  # fractional item index
    assert np.array_equal(store.values, snapshot)
    assert index.version == 0


def test_requires_a_mutable_store():
    class Frozen:
        pass

    with pytest.raises(GroupFormationError):
        MutableTopKIndex(Frozen(), k_max=1)
