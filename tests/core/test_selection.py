"""Greedy selection and fingerprint grouping against their sort specifications.

* :func:`repro.core.kernels.select_best_buckets` equals
  ``np.lexsort((reps, -scores))[:count]`` — score descending, ties by
  representative, then by index — on tie-heavy scores with ``±0.0``,
  ``±inf`` and NaN, for ``count`` of 0, 1, ``n`` and more than ``n``.
* The fingerprint grouping orders rows exactly as a stable argsort of the
  fingerprints would, although it sorts them with an unstable one, and a
  fingerprint collision still hands the grouping to the exact lexsort.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels

SCORE_ALPHABET = [0.0, -0.0, 1.0, 2.5, -1.0, np.inf, -np.inf, np.nan]


def lexsort_spec(scores, reps, count):
    return np.lexsort((reps, -scores))[: max(count, 0)]


@st.composite
def bucket_scores(draw):
    n = draw(st.integers(1, 120))
    alphabet = draw(
        st.lists(st.sampled_from(SCORE_ALPHABET), min_size=1, max_size=4)
    )
    scores = np.array(
        draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    if draw(st.booleans()):
        # Representatives of real buckets are distinct users.
        reps = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    else:
        reps = np.array(
            draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
            dtype=np.int64,
        )
    count = draw(
        st.one_of(st.sampled_from([0, 1, n, n + 3]), st.integers(0, n))
    )
    return scores, reps, count


class TestSelectBestBuckets:
    @settings(max_examples=300, deadline=None)
    @given(case=bucket_scores())
    def test_matches_lexsort(self, case):
        scores, reps, count = case
        got = kernels.select_best_buckets(scores, reps, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, lexsort_spec(scores, reps, count))

    def test_all_tied_picks_smallest_representatives(self):
        rng = np.random.default_rng(0)
        reps = rng.permutation(1000).astype(np.int64)
        scores = np.full(1000, 5.0)
        got = kernels.select_best_buckets(scores, reps, 63)
        assert np.array_equal(reps[got], np.arange(63))
        assert np.array_equal(got, lexsort_spec(scores, reps, 63))

    def test_signed_zeros_tie(self):
        scores = np.array([0.0, -0.0, 0.0, -0.0, -1.0])
        reps = np.array([3, 2, 1, 0, 4], dtype=np.int64)
        for count in range(7):
            got = kernels.select_best_buckets(scores, reps, count)
            assert np.array_equal(got, lexsort_spec(scores, reps, count))

    def test_empty(self):
        empty = np.empty(0)
        got = kernels.select_best_buckets(empty, empty.astype(np.int64), 5)
        assert got.size == 0


def stable_grouping(fingerprints):
    order = np.argsort(fingerprints, kind="stable")
    sorted_fp = fingerprints[order]
    new_segment = np.ones(fingerprints.size, dtype=bool)
    new_segment[1:] = sorted_fp[1:] != sorted_fp[:-1]
    return order, new_segment


def group(fingerprints, packed):
    return kernels._group_by_fingerprint(
        fingerprints,
        lambda: packed,
        lambda a, b: np.any(packed[a] != packed[b], axis=1),
    )


FINGERPRINT_ALPHABET = [0, 1, 7, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]


class TestGroupByFingerprint:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 150),
        width=st.integers(1, len(FINGERPRINT_ALPHABET)),
    )
    def test_matches_stable_argsort(self, data, n, width):
        """Without a collision, rows come out in stable-argsort order."""
        values = data.draw(
            st.lists(
                st.sampled_from(FINGERPRINT_ALPHABET[:width]),
                min_size=n, max_size=n,
            )
        )
        fingerprints = np.array(values, dtype=np.uint64)
        order, new_segment = group(fingerprints, fingerprints[:, None])
        spec_order, spec_segment = stable_grouping(fingerprints)
        assert np.array_equal(order, spec_order)
        assert np.array_equal(new_segment, spec_segment)

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=2, max_size=120,
        ).filter(lambda rows: len(set(rows)) > 1)
    )
    def test_forced_collision_falls_back_to_lexsort(self, keys):
        """Distinct keys sharing a fingerprint: the exact lexsort groups."""
        packed = np.array(keys, dtype=np.uint64)
        fingerprints = packed[:, 0] % np.uint64(2)  # lossy on purpose
        colliding = any(
            len({key for key in keys if key[0] % 2 == parity}) > 1
            for parity in (0, 1)
        )
        order, new_segment = group(fingerprints, packed)
        spec_order, spec_segment = kernels._group_rows_lexsort(packed)
        if colliding:
            assert np.array_equal(order, spec_order)
            assert np.array_equal(new_segment, spec_segment)
        else:
            assert np.array_equal(order, stable_grouping(fingerprints)[0])
