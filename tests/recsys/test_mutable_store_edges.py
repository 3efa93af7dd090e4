"""MutableRatingStore edge cases: empty stores, cross-shard duplicate
upserts, and ``clear_rows`` followed by index repair.

Both store implementations must agree exactly on these paths — they are
the corners the online serving layer actually hits (a brand-new tenant
with no ratings, write bursts straddling shard boundaries, user removal
followed by incremental repair).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.errors import RatingDataError
from repro.core.topk_index import MutableTopKIndex, TopKIndex
from repro.recsys.matrix import RatingMatrix
from repro.recsys.store import DenseStore, SparseStore
from repro.service import FormationService


def empty_sparse(n_users: int = 2, n_items: int = 4) -> SparseStore:
    """A store with zero explicit ratings (every cell reads the fill value)."""
    return SparseStore(sp.csr_matrix((n_users, n_items)), fill_value=1.0)


def empty_dense(n_users: int = 2, n_items: int = 4) -> DenseStore:
    """The dense equivalent: every cell at the scale minimum."""
    return DenseStore(np.full((n_users, n_items), 1.0))


# --------------------------------------------------------------------- #
# append_users on an empty store
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("factory", [empty_sparse, empty_dense])
def test_append_users_on_empty_store(factory):
    store = factory()
    rows = np.array([[5.0, 1.0, 3.0, 2.0], [4.0, 4.0, 1.0, 5.0]])
    store.append_users(rows)
    assert store.n_users == 4
    dense = store.to_dense()
    assert np.array_equal(dense[2:], rows)
    assert np.array_equal(dense[:2], np.full((2, 4), 1.0))
    # The appended rows are mutable like any others.
    store.upsert([2], [0], [1.0])
    assert store.to_dense()[2, 0] == 1.0


def test_append_users_on_empty_store_stores_only_non_fill_cells():
    store = empty_sparse()
    store.append_users(np.array([[1.0, 1.0, 5.0, 1.0]]))
    # fill_value == 1.0, so only the single 5.0 costs explicit storage.
    assert store.csr.nnz == 1
    assert np.array_equal(store.block(2, 3), np.array([[1.0, 1.0, 5.0, 1.0]]))


@pytest.mark.parametrize("factory", [empty_sparse, empty_dense])
def test_append_users_validates_against_the_empty_store_contract(factory):
    store = factory()
    with pytest.raises(RatingDataError):
        store.append_users(np.array([[1.0, 2.0]]))  # ragged (wrong n_items)
    with pytest.raises(RatingDataError):
        store.append_users(np.array([[np.nan, 1.0, 1.0, 1.0]]))
    with pytest.raises(RatingDataError):
        store.append_users(np.array([[9.0, 1.0, 1.0, 1.0]]))  # off-scale
    assert store.n_users == 2  # nothing was appended


def test_mutable_index_over_empty_store_append_then_build_parity():
    store = empty_sparse(3, 5)
    index = MutableTopKIndex(store, k_max=2)
    new_ids = index.add_users(np.array([[1.0, 5.0, 1.0, 4.0, 1.0]]))
    assert new_ids.tolist() == [3]
    fresh = TopKIndex.build(store, 2)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)


# --------------------------------------------------------------------- #
# upsert batches touching a user twice across shard boundaries
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("sparse", [False, True])
def test_duplicate_upserts_collapse_last_wins_across_stores(sparse):
    values = np.random.default_rng(1).integers(1, 6, size=(30, 8)).astype(float)
    store = (
        SparseStore.from_matrix(RatingMatrix(values.copy()))
        if sparse
        else DenseStore(values.copy())
    )
    # One batch writes the same cell twice (and a second user once); the
    # batch must behave like its updates applied in order.
    store.upsert([7, 7, 12], [3, 3, 0], [2.0, 5.0, 4.0])
    assert store.to_dense()[7, 3] == 5.0
    assert store.to_dense()[12, 0] == 4.0


def test_batch_touching_one_user_twice_across_shard_boundaries():
    """A service batch hitting the first and the last user — twice each —
    keeps the last write and stays bit-identical to a cold engine run."""
    values = np.random.default_rng(2).integers(1, 6, size=(40, 10)).astype(float)
    service = FormationService(DenseStore(values.copy()), k_max=4)
    first_user, last_user = 0, 39
    service.recommend(k=3, max_groups=5)       # warm the result memo
    service.apply_updates(
        upserts=[
            (first_user, 1, 5.0),
            (first_user, 1, 2.0),        # same user+item again: last wins
            (last_user, 2, 5.0),
            (last_user, 2, 4.0),
        ]
    )
    assert service.store.to_dense()[first_user, 1] == 2.0
    assert service.store.to_dense()[last_user, 2] == 4.0
    served = service.recommend(k=3, max_groups=5)
    from repro.core.engine import FormationEngine

    cold = FormationEngine("numpy").run(
        service.store.to_dense().copy(), 5, 3, "lm", "min"
    )
    assert served.objective == cold.objective
    assert [g.members for g in served.groups] == [g.members for g in cold.groups]


def test_mutable_index_repairs_user_touched_twice_in_one_batch():
    values = np.random.default_rng(3).integers(1, 6, size=(12, 6)).astype(float)
    store = SparseStore.from_matrix(RatingMatrix(values.copy()))
    index = MutableTopKIndex(store, k_max=3)
    stats = index.apply(upserts=[(4, 0, 5.0), (4, 0, 1.0), (4, 5, 5.0)])
    assert stats["repaired_users"] == 1  # the user repairs once, not per update
    fresh = TopKIndex.build(store, 3)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)


# --------------------------------------------------------------------- #
# clear_rows followed by index repair
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("sparse", [False, True])
def test_clear_rows_then_repair_matches_fresh_build(sparse):
    values = np.random.default_rng(4).integers(1, 6, size=(20, 7)).astype(float)
    store = (
        SparseStore.from_matrix(RatingMatrix(values.copy()))
        if sparse
        else DenseStore(values.copy())
    )
    index = MutableTopKIndex(store, k_max=3)
    index.remove_users([5, 6])  # clear_rows + targeted repair under the hood
    assert set(index.removed) == {5, 6}
    fresh = TopKIndex.build(store, 3)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)
    # Cleared rows rank as all-fill rows under the deterministic tie-break:
    # items 0..k-1 at the fill value.
    fill = store.fill_value
    assert index.items[5].tolist() == [0, 1, 2]
    assert index.values[5].tolist() == [fill] * 3


def test_clear_rows_then_upsert_resurrects_the_row():
    values = np.random.default_rng(5).integers(1, 6, size=(15, 5)).astype(float)
    store = SparseStore.from_matrix(RatingMatrix(values.copy()))
    index = MutableTopKIndex(store, k_max=2)
    store_before = store.to_dense().copy()
    index.remove_users([3])
    index.apply(upserts=[(3, 4, 5.0)])
    fresh = TopKIndex.build(store, 2)
    assert np.array_equal(index.items, fresh.items)
    assert np.array_equal(index.values, fresh.values)
    assert index.values[3, 0] == 5.0
    # Other rows were never disturbed.
    assert np.array_equal(store.to_dense()[:3], store_before[:3])


def test_clear_rows_out_of_range_is_rejected_before_any_write():
    store = empty_sparse(3, 4)
    store.upsert([0], [1], [5.0])
    with pytest.raises(RatingDataError):
        store.clear_rows([0, 7])
    assert store.to_dense()[0, 1] == 5.0
