"""Tests for repro.recsys.matrix (RatingScale and RatingMatrix)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import RatingDataError
from repro.recsys import RatingMatrix, RatingScale


class TestRatingScale:
    def test_default_scale(self):
        scale = RatingScale()
        assert scale.minimum == 1.0 and scale.maximum == 5.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            RatingScale(5.0, 1.0)

    def test_spread(self):
        assert RatingScale(1, 5).spread == 4.0

    def test_clip(self):
        scale = RatingScale(1, 5)
        np.testing.assert_allclose(scale.clip(np.array([-1.0, 3.0, 9.0])), [1.0, 3.0, 5.0])

    def test_round_to_scale(self):
        scale = RatingScale(1, 5)
        np.testing.assert_allclose(
            scale.round_to_scale(np.array([0.4, 2.6, 7.0])), [1.0, 3.0, 5.0]
        )

    def test_contains(self):
        scale = RatingScale(1, 5)
        assert scale.contains(np.array([1.0, 5.0, np.nan]))
        assert not scale.contains(np.array([0.5]))

    @pytest.mark.parametrize(
        ("values", "expected"),
        [
            (np.array([]), True),
            (np.empty((0, 3)), True),
            (np.array([np.nan, np.nan]), True),
            (np.full((2, 2), np.nan), True),
            (np.array([np.inf, -np.inf, np.nan]), True),
            (np.array([1.0, np.inf, 5.0, -np.inf]), True),
            (np.array([[1.0, 3.0], [np.nan, 5.0]]), True),
            (np.array([np.nan, 5.5]), False),
            (np.array([np.inf, 0.999]), False),
            (np.array([[1.0, 2.0], [3.0, -1.0]]), False),
            (3.0, True),
            (1.0, True),
            (5.0, True),
            (5.0001, False),
            (0.0, False),
            (np.nan, True),
            (np.inf, True),
            (-np.inf, True),
            (np.float64(4.0), True),
            (np.array(6.0), False),
            ([1, 2, 7], False),
            ([[1, 2], [3, 4]], True),
        ],
    )
    def test_contains_truth_table(self, values, expected):
        scale = RatingScale(1, 5)
        assert scale.contains(values) is expected
        # The finite-subset definition, written out.
        arr = np.asarray(values, dtype=float)
        finite = arr[np.isfinite(arr)]
        assert expected == bool(
            ((finite >= 1.0) & (finite <= 5.0)).all()
        )

    def test_contains_leaves_the_input_untouched(self):
        values = np.array([[1.0, np.nan], [np.inf, 4.0]])
        before = values.copy()
        assert RatingScale(1, 5).contains(values)
        np.testing.assert_array_equal(values, before)

    def test_integer_levels(self):
        assert RatingScale(1, 5).integer_levels().tolist() == [1, 2, 3, 4, 5]


class TestRatingMatrixConstruction:
    def test_basic_shape(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        assert matrix.shape == (4, 4)
        assert matrix.n_users == 4 and matrix.n_items == 4

    def test_rejects_1d(self):
        with pytest.raises(RatingDataError):
            RatingMatrix(np.array([1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(RatingDataError):
            RatingMatrix(np.empty((0, 3)))

    def test_rejects_out_of_scale(self):
        with pytest.raises(RatingDataError):
            RatingMatrix(np.array([[7.0, 1.0]]))

    def test_values_are_copied(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        tiny_values[0, 0] = 1.0
        assert matrix.values[0, 0] == 5.0

    def test_default_labels(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        assert matrix.user_ids == (0, 1, 2, 3)
        assert matrix.item_ids == (0, 1, 2, 3)

    def test_custom_labels(self):
        matrix = RatingMatrix(
            np.array([[1.0, 2.0]]), user_ids=["alice"], item_ids=["i1", "i2"]
        )
        assert matrix.user_index("alice") == 0
        assert matrix.item_index("i2") == 1

    def test_wrong_label_count_rejected(self):
        with pytest.raises(RatingDataError):
            RatingMatrix(np.array([[1.0, 2.0]]), user_ids=["a", "b"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(RatingDataError):
            RatingMatrix(np.array([[1.0], [2.0]]), user_ids=["a", "a"])

    def test_unknown_label_lookup_raises(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        with pytest.raises(KeyError):
            matrix.user_index("nobody")
        with pytest.raises(KeyError):
            matrix.item_index("nothing")

    def test_equality(self, tiny_values):
        assert RatingMatrix(tiny_values) == RatingMatrix(tiny_values)
        other = tiny_values.copy()
        other[0, 0] = 1.0
        assert RatingMatrix(tiny_values) != RatingMatrix(other)


class TestFromTriples:
    def test_round_trip(self):
        triples = [("u1", "a", 5.0), ("u1", "b", 3.0), ("u2", "a", 1.0)]
        matrix = RatingMatrix.from_triples(triples)
        assert matrix.num_ratings == 3
        assert set(matrix.to_triples()) == set(triples)

    def test_missing_entries_are_nan(self):
        matrix = RatingMatrix.from_triples([("u1", "a", 5.0), ("u2", "b", 1.0)])
        assert np.isnan(matrix.values).sum() == 2

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(RatingDataError):
            RatingMatrix.from_triples([("u", "i", 5.0), ("u", "i", 3.0)])

    def test_identical_duplicates_tolerated(self):
        matrix = RatingMatrix.from_triples([("u", "i", 5.0), ("u", "i", 5.0), ("v", "i", 3.0)])
        assert matrix.rating(matrix.user_index("u"), matrix.item_index("i")) == 5.0

    def test_explicit_universes(self):
        matrix = RatingMatrix.from_triples(
            [("u1", "a", 4.0)], user_ids=["u1", "u2"], item_ids=["a", "b"]
        )
        assert matrix.shape == (2, 2)

    def test_empty_without_universe_rejected(self):
        with pytest.raises(RatingDataError):
            RatingMatrix.from_triples([])

    def test_unknown_user_label_rejected(self):
        with pytest.raises(RatingDataError):
            RatingMatrix.from_triples([("ghost", "a", 1.0)], user_ids=["u1"], item_ids=["a"])


class TestStatistics:
    def test_density_and_counts(self, sparse_matrix):
        assert 0.0 < sparse_matrix.density < 1.0
        assert sparse_matrix.num_ratings == sparse_matrix.known_mask.sum()

    def test_complete_flag(self, tiny_values, sparse_matrix):
        assert RatingMatrix(tiny_values).is_complete
        assert not sparse_matrix.is_complete

    def test_global_mean(self):
        matrix = RatingMatrix(np.array([[1.0, np.nan], [3.0, 5.0]]))
        assert matrix.global_mean() == pytest.approx(3.0)

    def test_user_means_fall_back_to_global(self):
        matrix = RatingMatrix(np.array([[np.nan, np.nan], [2.0, 4.0]]))
        means = matrix.user_means()
        assert means[0] == pytest.approx(3.0)
        assert means[1] == pytest.approx(3.0)

    def test_item_means(self):
        matrix = RatingMatrix(np.array([[1.0, 5.0], [3.0, np.nan]]))
        np.testing.assert_allclose(matrix.item_means(), [2.0, 5.0])

    def test_ratings_per_user_and_item(self, sparse_matrix):
        assert sparse_matrix.ratings_per_user().sum() == sparse_matrix.num_ratings
        assert sparse_matrix.ratings_per_item().sum() == sparse_matrix.num_ratings

    def test_summary_keys(self, tiny_values):
        summary = RatingMatrix(tiny_values).summary()
        assert {"n_users", "n_items", "n_ratings", "density", "mean_rating"} <= set(summary)


class TestTransformations:
    def test_subset(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        sub = matrix.subset(user_indices=[0, 2], item_indices=[1, 3])
        assert sub.shape == (2, 2)
        assert sub.values[0, 0] == tiny_values[0, 1]

    def test_subset_preserves_labels(self):
        matrix = RatingMatrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]), user_ids=["a", "b"], item_ids=["x", "y"]
        )
        sub = matrix.subset(user_indices=[1])
        assert sub.user_ids == ("b",)

    def test_subset_empty_rejected(self, tiny_values):
        with pytest.raises(RatingDataError):
            RatingMatrix(tiny_values).subset(user_indices=[])

    def test_sample_deterministic(self, small_clustered):
        a = small_clustered.sample(n_users=10, rng=3)
        b = small_clustered.sample(n_users=10, rng=3)
        assert a == b

    def test_sample_too_many_rejected(self, tiny_values):
        with pytest.raises(RatingDataError):
            RatingMatrix(tiny_values).sample(n_users=100)

    def test_trim_reaches_fixed_point(self):
        values = np.full((6, 6), np.nan)
        values[:4, :4] = 3.0  # a dense 4x4 block
        values[4, 0] = 3.0  # a user with a single rating
        values[5, 5] = 3.0  # a user and item with a single rating each
        matrix = RatingMatrix(values)
        trimmed = matrix.trim(min_ratings_per_user=3, min_ratings_per_item=3)
        assert trimmed.shape == (4, 4)
        assert trimmed.is_complete

    def test_trim_too_strict_raises(self, sparse_matrix):
        with pytest.raises(RatingDataError):
            sparse_matrix.trim(min_ratings_per_user=10_000, min_ratings_per_item=10_000)

    def test_with_values_shape_checked(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        with pytest.raises(RatingDataError):
            matrix.with_values(np.ones((2, 2)))

    def test_mask_random_hides_requested_fraction(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        masked, hidden = matrix.mask_random(0.25, rng=0)
        assert len(hidden) == 4
        assert masked.num_ratings == matrix.num_ratings - 4
        for user, item, rating in hidden:
            assert np.isnan(masked.values[user, item])
            assert matrix.values[user, item] == rating

    def test_mask_random_invalid_fraction(self, tiny_values):
        with pytest.raises(ValueError):
            RatingMatrix(tiny_values).mask_random(0.0)

    def test_copy_is_independent(self, tiny_values):
        matrix = RatingMatrix(tiny_values)
        clone = matrix.copy()
        clone.values[0, 0] = 1.0
        assert matrix.values[0, 0] == 5.0
