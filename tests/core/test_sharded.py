"""Tests for batch formation's steps 1–2 (:mod:`repro.core.sharded`).

Batch formation has one path, ``FormationEngine``; its numpy backend
summarises and selects through :mod:`repro.core.sharded`, and must equal
the ``reference`` backend bit for bit.  The merge of several summaries
(no production caller) keeps its documented fold order.
"""

from __future__ import annotations

import numpy as np
import pytest

from scipy import sparse as sp

from repro.core import FormationEngine
from repro.core.errors import GroupFormationError
from repro.core.greedy_framework import make_variant
from repro.core.preferences import _top_k_table_sorted
from repro.core.sharded import ShardedFormation, merge_summaries, summarise_tables
from repro.datasets import (
    synthetic_sparse_store,
    synthetic_yahoo_music,
    uniform_random_ratings,
)
from repro.recsys import RatingScale, SparseStore

SEMANTICS = ("lm", "av")
AGGREGATIONS = ("min", "max", "sum")


def assert_results_identical(a, b, context=None):
    __tracebackhide__ = True
    assert a.objective == b.objective, context
    assert [g.members for g in a.groups] == [g.members for g in b.groups], context
    assert [g.items for g in a.groups] == [g.items for g in b.groups], context
    assert [g.item_scores for g in a.groups] == [
        g.item_scores for g in b.groups
    ], context
    assert [g.satisfaction for g in a.groups] == [
        g.satisfaction for g in b.groups
    ], context
    assert (
        a.extras["n_intermediate_groups"] == b.extras["n_intermediate_groups"]
    ), context
    assert (
        a.extras["last_group_pseudocode_score"]
        == b.extras["last_group_pseudocode_score"]
    ), context


@pytest.fixture(scope="module")
def clustered():
    return synthetic_yahoo_music(n_users=240, n_items=40, rng=3)


@pytest.fixture(scope="module")
def adversarial():
    return uniform_random_ratings(80, 12, rng=9)


class TestNumpyMatchesReference:
    """The numpy engine reproduces the reference backend bit for bit."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_every_variant(self, clustered, semantics, aggregation):
        expected = FormationEngine("reference").run(
            clustered, 9, 4, semantics, aggregation
        )
        got = FormationEngine("numpy").run(clustered, 9, 4, semantics, aggregation)
        assert_results_identical(expected, got, (semantics, aggregation))

    def test_integer_instance_bit_identical(self, clustered):
        for semantics in SEMANTICS:
            expected = FormationEngine("reference").run(
                clustered, 10, 5, semantics, "min"
            )
            got = FormationEngine("numpy").run(clustered, 10, 5, semantics, "min")
            assert_results_identical(expected, got, semantics)

    def test_adversarial_singleton_heavy_instance(self, adversarial):
        # Uniform random data degenerates to mostly singleton buckets.
        for semantics, aggregation in (("lm", "sum"), ("av", "sum"), ("lm", "max")):
            expected = FormationEngine("reference").run(
                adversarial, 6, 3, semantics, aggregation
            )
            got = FormationEngine("numpy").run(
                adversarial, 6, 3, semantics, aggregation
            )
            assert_results_identical(expected, got, (semantics, aggregation))

    # Bucket {1, 2, 3} sums to 0.1 + 0.2 + 0.3 = 0.6000000000000001 in
    # user order; folding partial sums of user chunks (0.1 + 0.5) gives
    # 0.6, which ties bucket {0} and loses on its representative.
    REASSOCIATING = np.array(
        [[0.0, 0.6, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0], [0.3, 0.0, 0.0]]
    )

    def test_fractional_ratings_bit_identical_to_reference(self):
        rng = np.random.default_rng(4)
        random_values = np.round(rng.uniform(1.0, 5.0, size=(60, 10)), 3)
        cases = (
            (random_values, 5, 3),
            (self.REASSOCIATING, 2, 1),
        )
        for values, max_groups, k in cases:
            for semantics, aggregation in (("av", "sum"), ("lm", "min")):
                expected = FormationEngine("reference").run(
                    values, max_groups, k, semantics, aggregation
                )
                got = FormationEngine("numpy").run(
                    values, max_groups, k, semantics, aggregation
                )
                assert_results_identical(expected, got, (values.shape, semantics))


def explicit_fill_store(n_users, n_items, fill, rng):
    """A tie-heavy CSR store that stores fill-valued cells explicitly."""
    rng = np.random.default_rng(rng)
    stored = rng.random((n_users, n_items)) < 0.4
    values = rng.integers(1, 6, size=(n_users, n_items)).astype(float)
    # A third of the stored cells hold exactly the fill value.
    values[stored & (rng.random((n_users, n_items)) < 0.33)] = fill
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix(
        (values[rows, cols], (rows, cols)), shape=(n_users, n_items)
    )
    store = SparseStore(csr, fill_value=fill)
    assert (store.csr.data == fill).any()
    return store


class TestExplicitFillCSRParity:
    """CSR stores with explicitly stored fill values and heavy ties: the
    numpy engine equals the reference backend."""

    N_USERS = 90

    @pytest.fixture(scope="class", params=[1.0, 3.0], ids=["fill1", "fill3"])
    def store(self, request):
        return explicit_fill_store(self.N_USERS, 7, request.param, rng=5)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_every_variant_matches_reference(self, store, semantics, aggregation):
        for k in (1, 3):
            expected = FormationEngine("reference").run(
                store, 8, k, semantics, aggregation
            )
            got = FormationEngine("numpy").run(store, 8, k, semantics, aggregation)
            assert_results_identical(expected, got, k)


class TestCSRRowBlocks:
    """The numpy CSR top-k ranks in row blocks of an entry budget; formation
    over a sparse store equals the reference backend for every budget."""

    @pytest.mark.parametrize("budget", [1, 16, 200, None], ids=str)
    def test_formation_bit_identical_to_reference(self, monkeypatch, budget):
        from repro.core import kernels

        monkeypatch.setattr(kernels, "_load_csr", lambda: None)
        if budget is not None:
            monkeypatch.setattr(kernels, "_CSR_BLOCK_ENTRIES", budget)
        blocks = []
        block_kernel = kernels._csr_top_k_block

        def spy(data, indices, indptr, rows, n_items, k, fill):
            stored = int((indptr[rows + 1] - indptr[rows]).sum())
            blocks.append((rows.size, stored + k * rows.size))
            return block_kernel(data, indices, indptr, rows, n_items, k, fill)

        monkeypatch.setattr(kernels, "_csr_top_k_block", spy)
        rng = np.random.default_rng(4)
        fractional = np.round(rng.uniform(1.0, 5.0, size=(60, 10)), 3)
        fractional[rng.random(fractional.shape) < 0.5] = 0.0
        unit = RatingScale(0.0, 1.0)
        cases = (
            (SparseStore(sp.csr_matrix(fractional), fill_value=1.0), 5, 3),
            (
                SparseStore(
                    sp.csr_matrix(TestNumpyMatchesReference.REASSOCIATING),
                    fill_value=0.0,
                    scale=unit,
                ),
                2,
                1,
            ),
            (explicit_fill_store(90, 7, 3.0, rng=5), 8, 3),
        )
        for store, max_groups, k in cases:
            for semantics, aggregation in (("av", "sum"), ("lm", "min")):
                blocks.clear()
                expected = FormationEngine("reference").run(
                    store, max_groups, k, semantics, aggregation
                )
                got = FormationEngine("numpy").run(
                    store, max_groups, k, semantics, aggregation
                )
                assert_results_identical(
                    expected, got, (store.n_users, semantics, budget)
                )
                # The numpy kernel ranked every row, in blocks that keep to
                # the budget unless a block is one heavier row.
                assert sum(size for size, _ in blocks) >= store.n_users
                if budget is None:
                    assert len(blocks) == 1
                else:
                    assert all(size == 1 or cost <= budget for size, cost in blocks)
                    if sum(cost for _, cost in blocks) > budget:
                        assert len(blocks) > 1


def _shard_summaries(items, scores, shards, variant):
    bounds = np.linspace(0, items.shape[0], shards + 1).astype(np.int64)
    return [
        summarise_tables(items[a:b], scores[a:b], int(a), variant)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def _constituents(summaries, members):
    """Per shard (in order), the index of the shard bucket holding part of
    a merged bucket's ``members``."""
    found = []
    for summary in summaries:
        bucket_of = np.repeat(
            np.arange(summary.scores.size), np.diff(summary.offsets)
        )
        hit = np.flatnonzero(np.isin(summary.member_ids, members))
        if hit.size:
            assert np.unique(bucket_of[hit]).size == 1
            found.append((summary, int(bucket_of[hit[0]])))
    return found


class TestMergeFoldOrder:
    """AV merges fold bucket partial sums sequentially in shard order
    (``0.0 + s0 + s1 + ...``); LM merges take the first constituent."""

    # Fractional ratings whose sums depend on association order.
    LEVELS = np.array([0.1, 0.2, 0.3, 0.7, 1.0 / 3.0])

    def tables(self):
        rng = np.random.default_rng(11)
        values = rng.choice(self.LEVELS, size=(120, 3))
        return _top_k_table_sorted(values, 1)

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_av_scores_are_the_shard_order_fold(self, shards):
        items, scores = self.tables()
        variant = make_variant("av", "sum")
        summaries = _shard_summaries(items, scores, shards, variant)
        merged, _, member_ids, offsets, _ = merge_summaries(summaries, "sum")
        unsharded = summarise_tables(items, scores, 0, variant)
        reassociated = 0
        for b in range(merged.size):
            members = member_ids[offsets[b]:offsets[b + 1]]
            total = 0.0
            for summary, bucket in _constituents(summaries, members):
                total += summary.scores[bucket]
            assert merged[b].tobytes() == np.float64(total).tobytes()
            whole = np.flatnonzero(unsharded.reps == members[0])[0]
            reassociated += unsharded.scores[whole] != merged[b]
        # The data must make the fold order observable.
        assert reassociated > 0

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_lm_scores_take_the_first_constituent(self, shards):
        items, scores = self.tables()
        variant = make_variant("lm", "sum")
        summaries = _shard_summaries(items, scores, shards, variant)
        merged, reps, member_ids, offsets, _ = merge_summaries(summaries, "first")
        for b in range(merged.size):
            members = member_ids[offsets[b]:offsets[b + 1]]
            assert np.all(np.diff(members) > 0)
            summary, bucket = _constituents(summaries, members)[0]
            assert merged[b] == summary.scores[bucket]
            assert reps[b] == summary.reps[bucket] == members[0]


class TestBatchPath:
    def test_sparse_store_matches_dense(self, clustered):
        store = SparseStore.from_matrix(clustered)
        dense_result = FormationEngine("numpy").run(clustered, 9, 5, "lm", "min")
        sparse_result = FormationEngine("numpy").run(store, 9, 5, "lm", "min")
        assert_results_identical(dense_result, sparse_result)

    def test_validation(self, clustered):
        with pytest.raises(GroupFormationError):
            FormationEngine("numpy").run(clustered, 4, 99, "lm", "min")

    def test_shards_keyword_is_gone(self, clustered):
        from repro.core import form_groups
        from repro.experiments.runner import run_algorithms

        with pytest.raises(TypeError):
            form_groups(clustered, 4, 2, shards=3)
        with pytest.raises(TypeError):
            run_algorithms(clustered, 4, 2, "lm", "min", shards=3)

    def test_sharded_formation_is_the_numpy_engine(self, clustered):
        # The former sharded class survives only under its old name: it
        # validates ``shards`` and otherwise is FormationEngine("numpy").
        with pytest.raises(ValueError):
            ShardedFormation(shards=0)
        shim = ShardedFormation(shards=7)
        assert isinstance(shim, FormationEngine)
        assert shim.backend.name == "numpy"
        assert_results_identical(
            shim.run(clustered, 9, 4, "av", "sum"),
            FormationEngine("numpy").run(clustered, 9, 4, "av", "sum"),
        )

    def test_batch_path_never_merges_or_packs_keys(self, monkeypatch):
        # A batch run summarises one table: there is nothing to merge, so
        # no key row is packed either.
        from repro.core import kernels, sharded

        store = synthetic_sparse_store(3000, 400, density=0.02, rng=6)
        calls = []

        def spy(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            sharded, "merge_summaries", spy("merge", sharded.merge_summaries)
        )
        monkeypatch.setattr(
            kernels, "pack_key_rows", spy("pack", kernels.pack_key_rows)
        )
        for semantics, aggregation in (("lm", "min"), ("av", "sum")):
            FormationEngine("numpy").run(store, 8, 3, semantics, aggregation)
        assert calls == []

    def test_never_densifies_more_than_a_block(self, monkeypatch):
        # Ranking, left-over scoring and the selected groups' segment
        # scoring all read the CSR arrays directly: nothing is densified.
        store = synthetic_sparse_store(500, 50, density=0.1, rng=2)
        densified = []
        original = SparseStore._densify

        def spy(self, csr):
            densified.append(csr.shape)
            return original(self, csr)

        monkeypatch.setattr(SparseStore, "_densify", spy)
        for semantics, aggregation in (("lm", "min"), ("av", "sum")):
            result = FormationEngine("numpy").run(store, 6, 3, semantics, aggregation)
            assert result.n_users == 500
            assert result.n_groups <= 6
        assert densified == []
