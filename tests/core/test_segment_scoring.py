"""Segmented group scoring: every group of a formation in one pass.

Step 3 of GRD scores the ℓ−1 selected groups on their shared top-k lists
and ranks items for the left-over group.  Both now run as one vectorised
reduction per kind of group:

* the selected groups go through
  :meth:`~repro.recsys.store.RatingStore.segment_item_scores` (flat
  ``(member_ids, offsets)`` segments reduced by
  :func:`repro.core.kernels.segment_scores`);
* the left-over group goes through
  :func:`repro.core.kernels.csr_item_scores` on a sparse store (one
  in-place column reduce, compiled when a C compiler is available).

Each must be bit-identical to the single-group path it replaced —
:func:`~repro.core.grouping.build_group` and
:func:`~repro.core.group_recommender.group_satisfaction` — on tie-heavy
instances, fill-valued cells stored explicitly, fractional ratings and
``-0.0`` (gate fallbacks) and AV sums straddling the ``2**53`` gate.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core import FormationEngine, kernels
from repro.core.aggregation import get_aggregation
from repro.core.group_recommender import group_satisfaction
from repro.core.grouping import build_group
from repro.core.semantics import Semantics
from repro.recsys.matrix import RatingScale
from repro.recsys.store import DenseStore, SparseStore

LM, AV = Semantics.LEAST_MISERY, Semantics.AGGREGATE_VOTING
_VARIANTS = [("lm", "min"), ("lm", "sum"), ("av", "sum"), ("av", "max")]
_WIDE = RatingScale(-1.0, float(2**53))


def stores(rng, n_users, n_items, values, fill, density=0.5, scale=None):
    """The dense matrix plus its DenseStore and SparseStore.

    ``values`` may contain ``fill``: such cells are stored explicitly in
    the CSR matrix and must read exactly like unstored ones.
    """
    scale = scale or RatingScale(-1.0, 5.0)
    stored = rng.random((n_users, n_items)) < density
    ratings = rng.choice(np.asarray(values, dtype=np.float64), size=stored.shape)
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix((ratings[rows, cols], (rows, cols)), shape=stored.shape)
    dense = np.where(stored, ratings, fill)
    return (
        dense,
        DenseStore(dense, scale=scale),
        SparseStore(csr, fill_value=fill, scale=scale),
    )


def random_segments(rng, n_users, n_items, k, max_groups=8):
    """Disjoint ascending groups of random users, each with a random list."""
    users = rng.permutation(n_users)[: rng.integers(1, n_users + 1)]
    n_groups = int(rng.integers(1, min(max_groups, users.size) + 1))
    cuts = np.sort(rng.choice(np.arange(1, users.size), n_groups - 1, replace=False))
    groups = [np.sort(part) for part in np.split(users, cuts)]
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum([g.size for g in groups], out=offsets[1:])
    items_rows = np.array([rng.permutation(n_items)[:k] for _ in groups])
    return np.concatenate(groups), offsets, items_rows


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_segments_match_build_group(store, dense, member_ids, offsets,
                                      items_rows, semantics):
    """Each segment's scores equal build_group's on the engine's input."""
    __tracebackhide__ = True
    # finalise_plan scores dense stores through the raw array.
    values = dense if isinstance(store, DenseStore) else store
    scores = store.segment_item_scores(member_ids, offsets, items_rows, semantics)
    assert scores.shape == items_rows.shape
    aggregation = get_aggregation("sum")
    for g in range(items_rows.shape[0]):
        expected = build_group(
            values, member_ids[offsets[g]:offsets[g + 1]], items_rows[g],
            semantics, aggregation,
        )
        assert np.array_equal(bits(scores[g]), bits(expected.item_scores)), g


def assert_bitwise_identical(got, expected):
    """Two formation results agree bit for bit (timings excluded)."""
    __tracebackhide__ = True
    assert got.n_groups == expected.n_groups
    assert bits(got.objective) == bits(expected.objective)
    for a, b in zip(got.groups, expected.groups):
        assert a.members == b.members
        assert a.items == b.items
        assert np.array_equal(bits(a.item_scores), bits(b.item_scores))
        assert bits(a.satisfaction) == bits(b.satisfaction)
    assert (got.extras["last_group_pseudocode_score"]
            == expected.extras["last_group_pseudocode_score"])


def assert_groups_match_single_group_paths(result, dense, store):
    """Every group of ``result`` re-scored by the single-group paths."""
    __tracebackhide__ = True
    values = dense if isinstance(store, DenseStore) else store
    groups = list(result.groups)
    if result.extras["last_group_pseudocode_score"] is not None:
        leftover = groups.pop()
        items, scores, satisfaction = group_satisfaction(
            values, leftover.members, result.k, result.semantics,
            result.aggregation,
        )
        assert leftover.items == items
        assert np.array_equal(bits(leftover.item_scores), bits(scores))
        assert bits(leftover.satisfaction) == bits(satisfaction)
    for group in groups:
        expected = build_group(values, group.members, group.items,
                               result.semantics, result.aggregation)
        assert np.array_equal(bits(group.item_scores), bits(expected.item_scores))
        assert bits(group.satisfaction) == bits(expected.satisfaction)


# --------------------------------------------------------------------------- #
# Selected groups: RatingStore.segment_item_scores
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("fill", [1.0, 3.0])
@pytest.mark.parametrize("semantics", [LM, AV])
@pytest.mark.parametrize("seed", range(6))
def test_segments_match_build_group_on_tied_instances(seed, semantics, fill):
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(2, 40)), int(rng.integers(1, 9))
    # A tiny alphabet including the fill: ties everywhere, and fill-valued
    # cells stored explicitly in the CSR matrix.
    dense, dense_store, sparse_store = stores(
        rng, n_users, n_items, (1.0, 2.0, 3.0, fill), fill, rng.random()
    )
    for k in {1, n_items, int(rng.integers(1, n_items + 1))}:
        segments = random_segments(rng, n_users, n_items, k)
        for store in (dense_store, sparse_store):
            assert_segments_match_build_group(store, dense, *segments, semantics)


@pytest.mark.parametrize("semantics", [LM, AV])
@pytest.mark.parametrize(
    "values, fill",
    [
        ((1.25, 2.5, 4.75, 0.1), 1.0),   # fractional: AV falls back
        ((-0.0, 0.0, 2.0), 0.0),         # signed zeros: both fall back
        ((1.0, 2.0, 3.0), -0.0),         # a -0.0 fill
    ],
)
def test_gate_fallback_groups_match_build_group(semantics, values, fill):
    rng = np.random.default_rng(3)
    dense, dense_store, sparse_store = stores(rng, 60, 7, values, fill)
    for k in (1, 4, 7):
        segments = random_segments(rng, 60, 7, k)
        for store in (dense_store, sparse_store):
            assert_segments_match_build_group(store, dense, *segments, semantics)


def test_fractional_sums_really_take_the_per_column_fallback():
    # 0.1 + 0.2 + 0.3 differs between sequential and pairwise summation
    # orders for long columns; the fallback must reproduce build_group.
    rng = np.random.default_rng(8)
    dense = rng.choice([0.1, 0.2, 0.3, 0.7], size=(400, 3))
    store = DenseStore(dense, scale=_WIDE)
    member_ids = np.arange(400)
    offsets = np.array([0, 400])
    items_rows = np.array([[0, 1, 2]])
    sequential = np.add.reduceat(dense, [0], axis=0)[0]
    pairwise = np.array([dense[:, j].sum() for j in range(3)])
    assert not np.array_equal(sequential, pairwise)  # the orders differ
    assert_segments_match_build_group(store, dense, member_ids, offsets,
                                      items_rows, AV)


@pytest.mark.parametrize("size, exact", [(2, True), (3, False)])
def test_av_sums_straddling_the_exact_integer_limit(size, exact):
    # 2**52 * 2 == 2**53 still sums exactly; a third member crosses the
    # gate and the group is reduced per column like build_group.
    big = float(2**52)
    dense = np.array([[big, 1.0], [big, 3.0], [big - 1.0, 1.0], [1.0, 1.0]])
    dense_store = DenseStore(dense, scale=_WIDE)
    sparse_store = SparseStore(sp.csr_matrix(dense), fill_value=1.0, scale=_WIDE)
    offsets = np.array([0, size])
    items_rows = np.array([[0, 1]])
    member_ids = np.arange(size)
    largest = np.abs(dense[:size]).max()
    assert bool(largest * size <= kernels._EXACT_INTEGER_LIMIT) is exact
    for store in (dense_store, sparse_store):
        assert_segments_match_build_group(store, dense, member_ids, offsets,
                                          items_rows, AV)


def test_single_member_groups_and_no_groups():
    rng = np.random.default_rng(4)
    dense, dense_store, sparse_store = stores(rng, 12, 5, (1.0, 2.5, 5.0), 1.0)
    member_ids = np.array([3, 0, 11, 7])
    offsets = np.arange(5)
    items_rows = np.array([rng.permutation(5)[:3] for _ in range(4)])
    for store in (dense_store, sparse_store):
        for semantics in (LM, AV):
            assert_segments_match_build_group(store, dense, member_ids, offsets,
                                              items_rows, semantics)
            empty = store.segment_item_scores(
                np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                np.zeros((0, 3), dtype=np.int64), semantics,
            )
            assert empty.shape == (0, 3)


def test_malformed_segments_are_rejected():
    from repro.core.errors import GroupFormationError

    store = DenseStore(np.ones((4, 3)))
    with pytest.raises(GroupFormationError, match="empty group"):
        store.segment_item_scores(np.array([0, 1]), np.array([0, 0, 2]),
                                  np.zeros((2, 1), dtype=np.int64), LM)
    with pytest.raises(GroupFormationError, match="offsets"):
        store.segment_item_scores(np.array([0, 1]), np.array([0, 1]),
                                  np.zeros((1, 1), dtype=np.int64), LM)


# --------------------------------------------------------------------------- #
# Left-over group: kernels.csr_item_scores
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
@pytest.mark.parametrize("fill", [1.0, 3.0])
def test_column_reduce_is_exact_for_every_thread_count(threads, fill):
    rng = np.random.default_rng(int(fill) * 10 + threads)
    dense, _, store = stores(rng, 300, 40, (1.0, 2.0, 4.0, fill), fill, 0.2)
    members = rng.choice(300, size=120, replace=False)
    with kernels.use_kernel_threads(threads):
        for semantics in (LM, AV):
            got = kernels.csr_item_scores(store.csr, members, fill, semantics)
            assert got is not None
            expected = semantics.item_scores(dense, members)
            assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize(
    "semantics, values, fill",
    [
        (AV, (1.25, 2.5), 1.0),         # fractional value
        (AV, (1.0, 2.0), 1.5),          # fractional fill
        (AV, (-0.0, 2.0), 1.0),         # stored -0.0
        (LM, (-0.0, 2.0), 1.0),
        (LM, (1.0, 2.0), -0.0),         # -0.0 fill
        (AV, (float(2**52),), 1.0),     # |v| * n > 2**53
    ],
)
def test_column_reduce_gate_declines_order_dependent_input(semantics, values, fill):
    rng = np.random.default_rng(6)
    _, _, store = stores(rng, 30, 6, values, fill, 0.9, scale=_WIDE)
    assert kernels.csr_item_scores(store.csr, np.arange(30), fill, semantics) is None


def test_column_reduce_reads_int64_index_arrays():
    rng = np.random.default_rng(9)
    dense, _, store = stores(rng, 50, 12, (1.0, 3.0, 5.0), 1.0, 0.3)
    csr = store.csr.copy()
    csr.indices = csr.indices.astype(np.int64)
    csr.indptr = csr.indptr.astype(np.int64)
    members = np.arange(0, 50, 2)
    for semantics in (LM, AV):
        got = kernels.csr_item_scores(csr, members, 1.0, semantics)
        assert np.array_equal(bits(got), bits(semantics.item_scores(dense, members)))


def test_column_reduce_is_observed_in_the_score_histogram():
    from repro.obs.registry import H_KERNEL_SCORE
    from repro.obs.runtime import get_registry

    rng = np.random.default_rng(12)
    _, _, store = stores(rng, 20, 5, (1.0, 2.0), 1.0)
    before = get_registry().histogram(H_KERNEL_SCORE)["count"]
    store.item_scores(np.arange(20), LM)
    store.item_scores(np.arange(20), AV)
    assert get_registry().histogram(H_KERNEL_SCORE)["count"] == before + 2


# --------------------------------------------------------------------------- #
# End to end: engine backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("semantics, aggregation", _VARIANTS)
@pytest.mark.parametrize("seed", range(4))
def test_formations_match_reference_and_single_group_paths(
    seed, semantics, aggregation
):
    rng = np.random.default_rng(100 + seed)
    fill = (1.0, 3.0)[seed % 2]
    n_users, n_items = int(rng.integers(10, 80)), int(rng.integers(2, 7))
    dense, dense_store, sparse_store = stores(
        rng, n_users, n_items, (1.0, 2.0, 3.0, fill), fill, rng.random()
    )
    for k in (1, n_items):
        for max_groups in (2, 5, n_users + 1):  # n_users + 1: budget filling
            reference = FormationEngine("reference").run(
                dense_store, max_groups, k, semantics, aggregation
            )
            for store in (dense_store, sparse_store):
                result = FormationEngine("numpy").run(
                    store, max_groups, k, semantics, aggregation
                )
                assert_bitwise_identical(result, reference)
                assert_groups_match_single_group_paths(result, dense, store)


@pytest.mark.parametrize("store_kind", ["dense", "sparse"])
def test_budget_filling_without_a_leftover_group(store_kind):
    # Two rating levels over two items and k=1: at most four buckets, so a
    # budget of 12 selects them all, leaves no left-over group and splits
    # groups until the budget is used.
    rng = np.random.default_rng(21)
    dense, dense_store, sparse_store = stores(rng, 30, 2, (1.0, 2.0), 1.0)
    store = dense_store if store_kind == "dense" else sparse_store
    for semantics, aggregation in (("lm", "min"), ("av", "sum")):
        reference = FormationEngine("reference").run(
            dense_store, 12, 1, semantics, aggregation
        )
        result = FormationEngine("numpy").run(store, 12, 1, semantics, aggregation)
        assert result.extras["last_group_pseudocode_score"] is None
        assert result.n_groups == 12
        assert_bitwise_identical(result, reference)
        assert_groups_match_single_group_paths(result, dense, store)
