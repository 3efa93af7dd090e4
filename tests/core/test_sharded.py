"""Tests for the sharded formation path and its documented objective bound."""

from __future__ import annotations

import numpy as np
import pytest

from scipy import sparse as sp

from repro.core import FormationEngine, ShardedFormation
from repro.core.errors import GroupFormationError
from repro.core.greedy_framework import make_variant
from repro.core.preferences import _top_k_table_sorted
from repro.core.sharded import merge_summaries, shard_bounds, summarise_tables
from repro.datasets import (
    synthetic_sparse_store,
    synthetic_yahoo_music,
    uniform_random_ratings,
)
from repro.recsys import SparseStore

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


class TestShardsOneBitIdentical:
    """``--shards 1`` must reproduce the engine result bit for bit."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_every_variant(self, clustered, semantics, aggregation):
        engine_result = FormationEngine("numpy").run(
            clustered, 9, 4, semantics, aggregation
        )
        sharded_result = ShardedFormation(shards=1).run(
            clustered, 9, 4, semantics, aggregation
        )
        assert_results_identical(
            engine_result, sharded_result, (semantics, aggregation)
        )


class TestMultiShardBound:
    """Batch runs are bit-identical for every shard count.

    ``shards`` only cuts the ranking into chunks; bucketing, selection and
    scoring see one table, so no bucket sum is ever re-associated.
    """

    @pytest.mark.parametrize("shards", [2, 3, 7, 240])
    def test_integer_instance_bit_identical(self, clustered, shards):
        for semantics in SEMANTICS:
            engine_result = FormationEngine("numpy").run(
                clustered, 10, 5, semantics, "min"
            )
            sharded_result = ShardedFormation(shards=shards).run(
                clustered, 10, 5, semantics, "min"
            )
            assert_results_identical(
                engine_result, sharded_result, (semantics, shards)
            )

    def test_adversarial_singleton_heavy_instance(self, adversarial):
        # Uniform random data degenerates to mostly singleton buckets — the
        # worst case for the merge (every bucket crosses the merge path).
        for semantics, aggregation in (("lm", "sum"), ("av", "sum"), ("lm", "max")):
            engine_result = FormationEngine("numpy").run(
                adversarial, 6, 3, semantics, aggregation
            )
            sharded_result = ShardedFormation(shards=5).run(
                adversarial, 6, 3, semantics, aggregation
            )
            assert_results_identical(
                engine_result, sharded_result, (semantics, aggregation)
            )

    # Bucket {1, 2, 3} sums to 0.1 + 0.2 + 0.3 = 0.6000000000000001 in
    # user order; folding per-shard partial sums (0.1 + 0.5) gives 0.6,
    # which ties bucket {0} and loses on its representative.
    REASSOCIATING = np.array(
        [[0.0, 0.6, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0], [0.3, 0.0, 0.0]]
    )

    @pytest.mark.parametrize("shards", [1, 2, 3, 7, "n_users"])
    def test_fractional_ratings_bit_identical_to_reference(self, shards):
        rng = np.random.default_rng(4)
        random_values = np.round(rng.uniform(1.0, 5.0, size=(60, 10)), 3)
        cases = (
            (random_values, 5, 3),
            (self.REASSOCIATING, 2, 1),
        )
        for values, max_groups, k in cases:
            n_shards = values.shape[0] if shards == "n_users" else shards
            for semantics, aggregation in (("av", "sum"), ("lm", "min")):
                expected = FormationEngine("reference").run(
                    values, max_groups, k, semantics, aggregation
                )
                got = ShardedFormation(shards=n_shards).run(
                    values, max_groups, k, semantics, aggregation
                )
                assert_results_identical(
                    expected, got, (values.shape, n_shards, semantics)
                )


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
    sharded path and the numpy engine both equal the reference backend."""

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
            assert_results_identical(expected, got, ("numpy", k))
            for shards in (1, 2, 3, 7, self.N_USERS):
                got = ShardedFormation(shards=shards).run(
                    store, 8, k, semantics, aggregation
                )
                assert_results_identical(expected, got, (shards, k))


def _shard_summaries(items, scores, shards, variant):
    bounds = shard_bounds(items.shape[0], shards)
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


class TestExecutionModes:
    def test_sparse_store_through_sharded_path(self, clustered):
        store = SparseStore.from_matrix(clustered)
        dense_result = FormationEngine("numpy").run(clustered, 9, 5, "lm", "min")
        sharded_sparse = ShardedFormation(shards=4).run(store, 9, 5, "lm", "min")
        assert_results_identical(dense_result, sharded_sparse)
        assert sharded_sparse.extras["store"] == "SparseStore"

    def test_more_shards_than_users_is_clamped(self):
        values = uniform_random_ratings(5, 6, rng=1)
        result = ShardedFormation(shards=50).run(values, 3, 2, "lm", "min")
        assert result.n_users == 5
        assert result.extras["n_shards"] == 5

    def test_validation(self, clustered):
        with pytest.raises(ValueError):
            ShardedFormation(shards=0)
        with pytest.raises(GroupFormationError):
            ShardedFormation(shards=2).run(clustered, 4, 99, "lm", "min")

    def test_conflicting_backend_is_rejected_not_substituted(self, clustered):
        from repro.core import form_groups
        from repro.experiments.runner import run_algorithms

        with pytest.raises(ValueError, match="sharded"):
            form_groups(clustered, 4, 2, shards=3, backend="reference")
        with pytest.raises(ValueError, match="sharded"):
            run_algorithms(
                clustered, 4, 2, "lm", "min",
                algorithms=("GRD",), backend="reference", shards=3,
            )
        # The engine-default backend (numpy) composes with sharding fine.
        result = form_groups(clustered, 4, 2, shards=3)
        assert result.n_groups <= 4

    def test_batch_path_never_merges_or_packs_keys(self, monkeypatch):
        # A batch run ranks every chunk into one table and summarises it
        # once: there is nothing to merge, so no key row is packed either.
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
            result = ShardedFormation(shards=4).run(
                store, 8, 3, semantics, aggregation
            )
            assert result.extras["n_shards"] == 4
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
            result = ShardedFormation(shards=3).run(
                store, 6, 3, semantics, aggregation
            )
            assert result.n_users == 500
            assert result.n_groups <= 6
        assert densified == []
