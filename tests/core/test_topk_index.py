"""Tests for the shared TopKIndex ranking artifact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FormationConfig, FormationEngine, TopKIndex, top_k_table
from repro.core.errors import GroupFormationError
from repro.datasets import synthetic_yahoo_music
from repro.recsys import RatingMatrix, SparseStore


@pytest.fixture(scope="module")
def ratings():
    return synthetic_yahoo_music(n_users=120, n_items=30, rng=5)


class TestBuildContract:
    def test_matches_top_k_table(self, ratings):
        index = TopKIndex.build(ratings, 7)
        items, values = index.top_k(7)
        expected_items, expected_values = top_k_table(ratings.values, 7)
        assert np.array_equal(items, expected_items)
        assert np.array_equal(values, expected_values)

    def test_slice_equals_direct_build(self, ratings):
        # The deterministic tie-break is a total order, so the top-k table is
        # a prefix of the top-k_max table for every k — the contract that
        # lets one index serve a whole sweep.
        index = TopKIndex.build(ratings, 10)
        for k in (1, 3, 10):
            items, values = index.top_k(k)
            expected_items, expected_values = top_k_table(ratings.values, k)
            assert np.array_equal(items, expected_items)
            assert np.array_equal(values, expected_values)

    def test_sparse_build_is_bit_identical(self, ratings):
        store = SparseStore.from_matrix(ratings)
        dense_index = TopKIndex.build(ratings, 6)
        sparse_index = TopKIndex.build(store, 6)
        assert np.array_equal(dense_index.items, sparse_index.items)
        assert np.array_equal(dense_index.values, sparse_index.values)

    def test_validation(self, ratings):
        with pytest.raises(GroupFormationError):
            TopKIndex.build(ratings, 0)
        with pytest.raises(GroupFormationError):
            TopKIndex.build(ratings, 31)
        index = TopKIndex.build(ratings, 4)
        with pytest.raises(GroupFormationError):
            index.top_k(5)
        with pytest.raises(GroupFormationError):
            index.top_k(0)


class TestQueries:
    def test_for_users(self, ratings):
        index = TopKIndex.build(ratings, 4)
        subset = index.for_users([5, 2, 9])
        assert np.array_equal(subset.items, index.items[[5, 2, 9]])
        assert subset.n_items == index.n_items


class TestEngineSharing:
    def test_run_many_builds_index_exactly_once(self, ratings, monkeypatch):
        calls = []
        original = TopKIndex.build.__func__

        def counting_build(cls, data, k_max, table_fn=None):
            calls.append(k_max)
            return original(cls, data, k_max, table_fn)

        monkeypatch.setattr(TopKIndex, "build", classmethod(counting_build))
        configs = [
            FormationConfig(6, k, semantics, "min")
            for k in (2, 5, 3)
            for semantics in ("lm", "av")
        ]
        FormationEngine("numpy").run_many(ratings, configs)
        # One build at the sweep's largest k, sliced for every other config.
        assert calls == [5]

    def test_prebuilt_index_shared_across_runs(self, ratings):
        engine = FormationEngine("numpy")
        index = TopKIndex.build(ratings, 5)
        with_index = engine.run(ratings, 8, 3, "lm", "min", topk=index)
        without = engine.run(ratings, 8, 3, "lm", "min")
        assert with_index.objective == without.objective
        assert [g.members for g in with_index.groups] == [
            g.members for g in without.groups
        ]

    def test_mismatched_index_is_rejected(self, ratings):
        engine = FormationEngine("numpy")
        other = TopKIndex.build(
            RatingMatrix(np.ones((3, 4)) * 3.0), 2
        )
        with pytest.raises(GroupFormationError):
            engine.run(ratings, 4, 2, "lm", "min", topk=other)
        small = TopKIndex.build(ratings, 2)
        with pytest.raises(GroupFormationError):
            engine.run(ratings, 4, 3, "lm", "min", topk=small)
