"""Unit tests for the RatingStore protocol implementations."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core.errors import RatingDataError
from repro.recsys import (
    DenseStore,
    RatingMatrix,
    RatingScale,
    RatingStore,
    SparseStore,
    as_store,
)


@pytest.fixture
def values():
    rng = np.random.default_rng(7)
    return rng.integers(1, 6, size=(23, 11)).astype(float)


@pytest.fixture
def dense(values):
    return DenseStore(values)


@pytest.fixture
def sparse(values):
    return SparseStore.from_matrix(RatingMatrix(values))


class TestDenseStore:
    def test_protocol_conformance(self, dense):
        assert isinstance(dense, RatingStore)

    def test_shape_and_density(self, dense, values):
        assert dense.shape == values.shape
        assert dense.n_users == 23 and dense.n_items == 11
        assert dense.density == 1.0
        assert dense.nbytes == values.nbytes

    def test_block_rows_gather_are_exact(self, dense, values):
        assert np.array_equal(dense.block(3, 9), values[3:9])
        assert np.array_equal(dense.rows([5, 1, 5]), values[[5, 1, 5]])
        assert np.array_equal(
            dense.gather([2, 4], [0, 10, 3]), values[np.ix_([2, 4], [0, 10, 3])]
        )

    def test_iter_blocks_covers_everything(self, dense, values):
        seen = np.vstack([block for _, _, block in dense.iter_blocks(7)])
        assert np.array_equal(seen, values)

    def test_rejects_incomplete_or_nonfinite(self):
        with pytest.raises(RatingDataError):
            DenseStore(np.array([[1.0, np.nan]]))
        with pytest.raises(RatingDataError):
            DenseStore(np.array([[1.0, np.inf]]))
        with pytest.raises(RatingDataError):
            DenseStore(np.empty((0, 3)))


class TestSparseStore:
    def test_protocol_conformance(self, sparse):
        assert isinstance(sparse, RatingStore)

    def test_complete_matrix_round_trips_bitwise(self, sparse, values):
        assert np.array_equal(sparse.to_dense(), values)
        assert np.array_equal(sparse.block(4, 13), values[4:13])
        assert np.array_equal(sparse.rows([9, 0, 2]), values[[9, 0, 2]])
        assert np.array_equal(
            sparse.gather([1, 7, 3], [10, 0]), values[np.ix_([1, 7, 3], [10, 0])]
        )

    def test_missing_entries_read_back_as_fill(self):
        csr = sp.csr_matrix(([5.0, 3.0], ([0, 1], [1, 0])), shape=(2, 3))
        store = SparseStore(csr, fill_value=2.0)
        expected = np.array([[2.0, 5.0, 2.0], [3.0, 2.0, 2.0]])
        assert np.array_equal(store.to_dense(), expected)
        assert store.density == pytest.approx(2 / 6)

    def test_default_fill_is_scale_minimum(self):
        csr = sp.csr_matrix(([4.0], ([0], [0])), shape=(1, 2))
        store = SparseStore(csr)
        assert store.fill_value == 1.0
        assert np.array_equal(store.to_dense(), np.array([[4.0, 1.0]]))

    def test_explicit_rating_equal_to_fill_survives(self):
        # "Stored" must not be conflated with "nonzero"/"different from fill".
        csr = sp.csr_matrix(([1.0, 5.0], ([0, 0], [0, 2])), shape=(1, 3))
        store = SparseStore(csr, fill_value=1.0)
        assert np.array_equal(store.to_dense(), np.array([[1.0, 1.0, 5.0]]))

    def test_validates_scale_and_finiteness(self):
        bad = sp.csr_matrix(([9.0], ([0], [0])), shape=(1, 1))
        with pytest.raises(RatingDataError):
            SparseStore(bad)
        with pytest.raises(RatingDataError):
            SparseStore(
                sp.csr_matrix(([np.inf], ([0], [0])), shape=(1, 1))
            )
        with pytest.raises(RatingDataError):
            SparseStore(sp.csr_matrix(([3.0], ([0], [0])), shape=(1, 1)),
                        fill_value=0.0)

    def test_conflicting_duplicate_entries_rejected(self):
        # Cell (0, 1) stored twice with different ratings: densify used to
        # keep the last one while nnz/density counted both.
        csr = sp.csr_matrix(
            (np.array([2.0, 3.0, 4.0]), np.array([1, 1, 0]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        with pytest.raises(RatingDataError, match="conflicting duplicate"):
            SparseStore(csr)

    def test_exact_duplicate_entries_collapse(self):
        csr = sp.csr_matrix(
            (np.array([2.0, 2.0, 5.0, 4.0]), np.array([1, 1, 2, 0]),
             np.array([0, 3, 4])),
            shape=(2, 3),
        )
        store = SparseStore(csr)
        assert store.csr.nnz == 3
        assert store.density == pytest.approx(3 / 6)
        assert store.to_dense().tolist() == [[1.0, 2.0, 5.0], [4.0, 1.0, 1.0]]
        assert store.top_k(None, 2)[0].tolist() == [[2, 1], [0, 1]]

    def test_iter_blocks_matches_dense(self, sparse, values):
        seen = np.vstack([block for _, _, block in sparse.iter_blocks(5)])
        assert np.array_equal(seen, values)

    def test_nbytes_reflects_sparsity(self, values):
        matrix = RatingMatrix(values)
        hidden, _ = matrix.mask_random(0.9, rng=0)
        store = SparseStore.from_matrix(hidden)
        assert store.nbytes < values.nbytes


class TestFromTriples:
    def test_streaming_generator_positional(self):
        def triples():
            yield 0, 1, 5.0
            yield 2, 0, 3.0
            yield 1, 2, 4.0

        store = SparseStore.from_triples(triples(), n_users=3, n_items=3)
        expected = np.full((3, 3), 1.0)
        expected[0, 1], expected[2, 0], expected[1, 2] = 5.0, 3.0, 4.0
        assert np.array_equal(store.to_dense(), expected)

    def test_labels_first_seen_order(self):
        store = SparseStore.from_triples(
            [("bob", "x", 2.0), ("alice", "y", 3.0), ("bob", "y", 4.0)]
        )
        assert store.user_ids == ("bob", "alice")
        assert store.item_ids == ("x", "y")
        assert np.array_equal(
            store.to_dense(), np.array([[2.0, 4.0], [1.0, 3.0]])
        )

    def test_exact_duplicates_tolerated_conflicts_raise(self):
        store = SparseStore.from_triples(
            [(0, 0, 2.0), (0, 0, 2.0)], n_users=1, n_items=1
        )
        assert store.csr.nnz == 1
        with pytest.raises(RatingDataError):
            SparseStore.from_triples(
                [(0, 0, 2.0), (0, 0, 3.0)], n_users=1, n_items=1
            )

    def test_out_of_range_and_empty_raise(self):
        with pytest.raises(RatingDataError):
            SparseStore.from_triples([(5, 0, 2.0)], n_users=2, n_items=1)
        with pytest.raises(RatingDataError):
            SparseStore.from_triples([], n_users=2, n_items=2)

    def test_chunked_consumption_matches_unchunked(self):
        rng = np.random.default_rng(3)
        triples = [
            (int(u), int(i), float(r))
            for u, i, r in zip(
                rng.integers(0, 40, 300),
                rng.integers(0, 15, 300),
                rng.integers(1, 6, 300),
            )
        ]
        # Conflicting duplicates would raise; keep first occurrence per cell.
        unique = {}
        for u, i, r in triples:
            unique.setdefault((u, i), r)
        triples = [(u, i, r) for (u, i), r in unique.items()]
        small = SparseStore.from_triples(triples, n_users=40, n_items=15,
                                         chunk_size=17)
        big = SparseStore.from_triples(triples, n_users=40, n_items=15)
        assert np.array_equal(small.to_dense(), big.to_dense())


class TestAsStore:
    def test_pass_through_and_wrapping(self, values, dense, sparse):
        assert as_store(dense) is dense
        assert as_store(sparse) is sparse
        wrapped = as_store(values)
        assert isinstance(wrapped, DenseStore)
        assert wrapped.values is values

    def test_rating_matrix_keeps_scale(self, values):
        matrix = RatingMatrix(values, scale=RatingScale(1.0, 6.0))
        store = as_store(matrix)
        assert store.scale == matrix.scale


class TestMemberIdValidation:
    """Out-of-range member ids raise instead of wrapping to another user."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("bad", [[-1], [0, -3], [23], [5, 99]])
    def test_scoring_rejects_ids_outside_the_store(self, request, kind, bad):
        from repro.core.aggregation import get_aggregation
        from repro.core.errors import GroupFormationError
        from repro.core.group_recommender import group_item_scores
        from repro.core.grouping import build_group
        from repro.core.semantics import Semantics

        store = request.getfixturevalue(kind)
        for semantics in ("lm", "av"):
            with pytest.raises(GroupFormationError, match="member ids"):
                group_item_scores(store, bad, semantics)
        with pytest.raises(GroupFormationError, match="member ids"):
            build_group(store, bad, [0, 1], Semantics.AGGREGATE_VOTING,
                        get_aggregation("sum"))
        with pytest.raises(GroupFormationError, match="member ids"):
            store.segment_item_scores(
                np.array(bad), np.array([0, len(bad)]), np.array([[0, 1]]),
                Semantics.LEAST_MISERY,
            )

    def test_csr_kernel_rejects_ids_before_reading_indptr(self, sparse):
        from repro.core import kernels
        from repro.core.errors import GroupFormationError
        from repro.core.semantics import Semantics

        for bad in ([-1], [sparse.n_users]):
            with pytest.raises(GroupFormationError, match="member ids"):
                kernels.csr_item_scores(
                    sparse.csr, np.array(bad), sparse.fill_value,
                    Semantics.AGGREGATE_VOTING,
                )
