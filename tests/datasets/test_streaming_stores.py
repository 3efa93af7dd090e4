"""Streaming iter_triples -> SparseStore construction across the loaders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    extract_top_pois,
    iter_movielens_triples,
    iter_poi_rating_triples,
    iter_synthetic_triples,
    iter_yahoo_music_triples,
    load_movielens_ratings,
    load_movielens_store,
    load_yahoo_music_ratings,
    load_yahoo_music_store,
    poi_rating_matrix,
    poi_rating_store,
    synthetic_flickr_log,
    synthetic_sparse_store,
)
from repro.recsys import SparseStore


class TestMovieLensStreaming:
    def test_iter_matches_loader(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::10::5::0\n1::20::3::0\n2::10::4::0\n")
        assert list(iter_movielens_triples(path)) == [
            ("1", "10", 5.0), ("1", "20", 3.0), ("2", "10", 4.0),
        ]
        assert len(list(iter_movielens_triples(path, max_rows=2))) == 2

    def test_store_agrees_with_dense_loader(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::10::5::0\n1::20::3::0\n2::10::4::0\n2::20::1::0\n")
        matrix = load_movielens_ratings(path)
        store = load_movielens_store(path)
        # Labels map in first-seen order for the store, sorted for the dense
        # loader; compare cell by cell through the label universes.
        for user in matrix.user_ids:
            for item in matrix.item_ids:
                dense_value = matrix.rating(
                    matrix.user_index(user), matrix.item_index(item)
                )
                u = store.user_ids.index(user)
                i = store.item_ids.index(item)
                sparse_value = store.to_dense()[u, i]
                if np.isnan(dense_value):
                    assert sparse_value == store.fill_value
                else:
                    assert sparse_value == dense_value


class TestYahooStreaming:
    def test_iter_and_store(self, tmp_path):
        path = tmp_path / "ydata.txt"
        path.write_text("u1\tsong9\t5\nu2\tsong9\t1\nu1\tsong3\t4\n")
        triples = list(iter_yahoo_music_triples(path))
        assert triples[0] == ("u1", "song9", 5.0)
        store = load_yahoo_music_store(path)
        assert isinstance(store, SparseStore)
        assert store.shape == (2, 2)
        matrix = load_yahoo_music_ratings(path)
        assert store.csr.nnz == matrix.num_ratings


class TestFlickrStreaming:
    def test_streamed_store_matches_dense_matrix_bitwise(self):
        log = synthetic_flickr_log(n_users=25, n_pois=12, rng=3)
        pois = extract_top_pois(log, 6)
        matrix = poi_rating_matrix(log, pois, rng=11)
        store = poi_rating_store(log, pois, rng=11)
        assert np.array_equal(store.to_dense(), matrix.values)
        assert store.user_ids == matrix.user_ids
        assert store.item_ids == matrix.item_ids

    def test_iter_is_lazy_and_deterministic(self):
        log = synthetic_flickr_log(n_users=5, n_pois=8, rng=0)
        pois = extract_top_pois(log, 4)
        a = list(iter_poi_rating_triples(log, pois, rng=7))
        b = list(iter_poi_rating_triples(log, pois, rng=7))
        assert a == b
        assert len(a) == 5 * 4


class TestSyntheticSparse:
    def test_store_statistics(self):
        store = synthetic_sparse_store(2000, 150, density=0.05, rng=1)
        assert store.shape == (2000, 150)
        # Collision dedup keeps the realised density within a few percent.
        assert store.density == pytest.approx(0.05, rel=0.05)
        dense = store.to_dense()
        assert dense.min() >= 1.0 and dense.max() <= 5.0

    def test_iter_matches_store_construction(self):
        direct = synthetic_sparse_store(
            300, 40, density=0.1, rng=42, block_users=64
        )
        streamed = SparseStore.from_triples(
            iter_synthetic_triples(300, 40, density=0.1, rng=42, block_users=64),
            n_users=300,
            n_items=40,
        )
        assert np.array_equal(direct.to_dense(), streamed.to_dense())

    def test_iter_matches_store_at_default_blocking(self):
        # The two entry points share one default block size, so the same
        # seed yields the same instance without pinning block_users.
        direct = synthetic_sparse_store(200, 30, density=0.2, rng=8)
        streamed = SparseStore.from_triples(
            iter_synthetic_triples(200, 30, density=0.2, rng=8),
            n_users=200,
            n_items=30,
        )
        assert np.array_equal(direct.to_dense(), streamed.to_dense())

    def test_forms_groups_end_to_end(self):
        from repro.core import ShardedFormation

        store = synthetic_sparse_store(1500, 80, density=0.02, rng=5)
        result = ShardedFormation(shards=4).run(store, 12, 5, "lm", "min")
        assert result.n_users == 1500
        assert result.n_groups <= 12
        assert result.objective >= 0.0
