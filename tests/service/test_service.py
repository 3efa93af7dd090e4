"""FormationService: parity with the cold engine, caching, invalidation.

The serving layer's contract is that memoization, shard-summary recycling
and incremental index maintenance are *execution strategies only*: every
response is bit-identical to a cold :class:`~repro.core.FormationEngine`
run over the store's current ratings.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse as sp

from repro.core import FormationEngine, kernels
from repro.core.errors import GroupFormationError
from repro.core.semantics import Semantics
from repro.recsys import DenseStore, SparseStore
from repro.service import FormationService

SEMANTICS = ("lm", "av")
AGGREGATIONS = ("min", "sum")


def make_instance(
    store_kind: str,
    n_users: int = 48,
    n_items: int = 12,
    seed: int = 0,
    fractional: bool = False,
):
    """``(store, shadow)``: two equal stores over integer ratings 1-4.

    ``fractional`` adds one random decimal to every rating: AV sums then
    depend on the order rows are added, and a sparse store's left-over
    scoring takes the dense streaming path (its exactness gate refuses
    them).
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 5, size=(n_users, n_items)).astype(float)
    if fractional:
        values = np.round(values + rng.integers(0, 10, size=values.shape) / 10, 1)
    if store_kind == "dense":
        return DenseStore(values.copy()), DenseStore(values.copy())
    return (
        SparseStore(sp.csr_matrix(values), fill_value=1.0),
        SparseStore(sp.csr_matrix(values), fill_value=1.0),
    )


def assert_same_result(got, want, context=""):
    __tracebackhide__ = True
    assert got.objective == want.objective, context
    assert [g.members for g in got.groups] == [g.members for g in want.groups], context
    assert [g.items for g in got.groups] == [g.items for g in want.groups], context
    assert [g.item_scores for g in got.groups] == [
        g.item_scores for g in want.groups
    ], context


@pytest.mark.parametrize("store_kind", ("dense", "sparse"))
def test_recommend_matches_cold_engine_through_updates(store_kind):
    store, shadow = make_instance(store_kind)
    service = FormationService(store, k_max=5, shards=4)
    engine = FormationEngine("numpy")
    rng = np.random.default_rng(99)

    for round_no in range(4):
        for semantics in SEMANTICS:
            for aggregation in AGGREGATIONS:
                got = service.recommend(
                    k=3, max_groups=6, semantics=semantics, aggregation=aggregation
                )
                want = engine.run(shadow, 6, 3, semantics, aggregation)
                assert_same_result(got, want, (store_kind, round_no, semantics))
        ups = [
            (int(rng.integers(0, 48)), int(rng.integers(0, 12)),
             float(rng.integers(1, 5)))
            for _ in range(6)
        ]
        dels = [(int(rng.integers(0, 48)), int(rng.integers(0, 12)))]
        service.apply_updates(upserts=ups, deletes=dels)
        shadow.upsert([u for u, _, _ in ups], [i for _, i, _ in ups],
                      [v for _, _, v in ups])
        shadow.delete([u for u, _ in dels], [i for _, i in dels])


def test_memoization_and_invalidation_on_update():
    store, _ = make_instance("dense")
    service = FormationService(store, k_max=4, shards=4)
    first = service.recommend(k=2, max_groups=4)
    again = service.recommend(k=2, max_groups=4)
    assert again is first  # cache hit returns the same object
    assert service.stats()["result_hits"] == 1

    service.apply_updates(upserts=[(0, 0, 4.0)])
    fresh = service.recommend(k=2, max_groups=4)
    assert fresh is not first  # version bump invalidated the memo
    assert fresh.extras["service_version"] == 1


def test_localised_update_recycles_untouched_shards():
    store, _ = make_instance("dense", n_users=64)
    service = FormationService(store, k_max=4, shards=4)
    service.recommend(k=3, max_groups=5)  # populate all 4 summaries
    base = service.stats()

    # Users 0 and 1 live in shard 0; shards 1-3 must be recycled.
    service.apply_updates(upserts=[(0, 2, 5.0), (1, 3, 5.0)])
    result = service.recommend(k=3, max_groups=5)
    assert result.extras["shards_recomputed"] <= 1
    assert result.extras["shards_recycled"] >= 3
    stats = service.stats()
    assert stats["shards_recycled"] - base["shards_recycled"] >= 3


def test_skipped_updates_keep_summaries_but_refresh_results():
    store = DenseStore(
        np.tile(np.array([[5.0, 4.0, 3.0, 1.0]]), (16, 1))
    )
    service = FormationService(store, k_max=2, shards=2)
    first = service.recommend(k=2, max_groups=3)
    # Rating 2.0 at item 3 stays below every user's top-2 boundary.
    stats = service.apply_updates(upserts=[(0, 3, 2.0)])
    assert stats["repaired_users"] == 0
    assert stats["invalidated_shards"] == 0
    second = service.recommend(k=2, max_groups=3)
    assert second is not first  # below-top-k ratings still affect scoring
    assert second.extras["shards_recycled"] == 2


SUBSET = np.random.default_rng(5).choice(48, size=16, replace=False)
ORDERS = {
    "sorted": np.sort(SUBSET),
    "shuffled": SUBSET,
    "reversed": np.sort(SUBSET)[::-1],
}


@pytest.mark.parametrize("store_kind", ("dense", "sparse"))
@pytest.mark.parametrize("values_kind", ("integer", "fractional"))
@pytest.mark.parametrize("variant", (("lm", "min"), ("av", "sum")), ids=("lm", "av"))
@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("budget", ("leftover", "fill"))
def test_subset_requests_match_engine_on_gathered_rows(
    store_kind, values_kind, variant, order, budget
):
    """Subset reads equal the reference backend on the gathered rows, bit for bit.

    ``budget="fill"`` asks for more groups than the subset has users, so
    every intermediate group is selected and budget filling splits them.
    """
    store, shadow = make_instance(store_kind, seed=3, fractional=values_kind == "fractional")
    service = FormationService(store, k_max=4, shards=4)
    subset = [int(u) for u in ORDERS[order]]
    semantics, aggregation = variant
    max_groups = 5 if budget == "leftover" else len(subset) + 2
    for k in (1, 2):
        got = service.recommend(
            k=k, max_groups=max_groups, semantics=semantics,
            aggregation=aggregation, user_ids=subset,
        )
        want = FormationEngine("reference").run(
            DenseStore(shadow.rows(subset)), max_groups, k, semantics, aggregation
        )
        context = (k, budget)
        assert got.objective == want.objective, context
        assert len(got.groups) == len(want.groups), context
        for got_group, want_group in zip(got.groups, want.groups):
            assert got_group.members == tuple(
                subset[m] for m in want_group.members
            ), context
            assert got_group.items == want_group.items, context
            assert got_group.item_scores == want_group.item_scores, context
            assert got_group.satisfaction == want_group.satisfaction, context
        for key in ("last_group_pseudocode_score", "n_intermediate_groups"):
            assert got.extras[key] == want.extras[key], (key, context)
        if budget == "fill":
            assert got.extras["last_group_pseudocode_score"] is None
            assert len(got.groups) == len(subset)


@pytest.fixture()
def densified_rows(monkeypatch):
    """Count the store rows densified or gathered whole, outermost calls only."""
    counter = {"rows": 0, "depth": 0}

    def counting(method, n_rows):
        def wrapper(self, arg):
            counter["depth"] += 1
            try:
                if counter["depth"] == 1:
                    counter["rows"] += n_rows(arg)
                return method(self, arg)
            finally:
                counter["depth"] -= 1

        return wrapper

    monkeypatch.setattr(DenseStore, "rows", counting(DenseStore.rows, len))
    monkeypatch.setattr(SparseStore, "rows", counting(SparseStore.rows, len))
    monkeypatch.setattr(
        SparseStore, "_densify",
        counting(SparseStore._densify, lambda csr: csr.shape[0]),
    )
    return counter


def leftover_size(result) -> int:
    """Size of the left-over group (0 when budget filling left none)."""
    if result.extras["last_group_pseudocode_score"] is None:
        return 0
    return result.groups[-1].size


@pytest.mark.parametrize("store_kind", ("dense", "sparse"))
@pytest.mark.parametrize("values_kind", ("integer", "fractional"))
@pytest.mark.parametrize("variant", (("lm", "min"), ("av", "sum")), ids=("lm", "av"))
def test_subset_reads_never_densify_the_whole_subset(
    densified_rows, store_kind, values_kind, variant
):
    store, _ = make_instance(store_kind, seed=3, fractional=values_kind == "fractional")
    service = FormationService(store, k_max=4, shards=4)
    semantics, aggregation = variant
    subset = [int(u) for u in ORDERS["shuffled"]]
    densified_rows["rows"] = 0
    result = service.recommend(
        k=2, max_groups=5, semantics=semantics, aggregation=aggregation,
        user_ids=subset,
    )
    assert leftover_size(result) > 0
    assert densified_rows["rows"] <= leftover_size(result)

    # A full read after a removal forms over the active users the same way.
    service.apply_updates(remove_users=[0, 7, 31])
    densified_rows["rows"] = 0
    result = service.recommend(
        k=2, max_groups=5, semantics=semantics, aggregation=aggregation
    )
    assert result.extras["subset_size"] == 45
    assert leftover_size(result) > 0
    assert densified_rows["rows"] <= leftover_size(result)


@pytest.mark.skipif(
    not kernels.parallel_available(), reason="compiled kernels unavailable"
)
@pytest.mark.parametrize("variant", (("lm", "min"), ("av", "sum")), ids=("lm", "av"))
def test_dense_leftover_reads_copy_no_row(densified_rows, monkeypatch, variant):
    # The compiled column reduce reads the left-over rows in place: no
    # store row is copied and the copying spec reduction never runs.
    spec_calls = []
    spec = Semantics.item_scores
    monkeypatch.setattr(
        Semantics, "item_scores",
        lambda self, *args: spec_calls.append(self) or spec(self, *args),
    )
    store, _ = make_instance("dense", seed=3)
    service = FormationService(store, k_max=4, shards=4)
    semantics, aggregation = variant
    densified_rows["rows"] = 0
    result = service.recommend(
        k=2, max_groups=5, semantics=semantics, aggregation=aggregation,
        user_ids=[int(u) for u in ORDERS["shuffled"]],
    )
    assert leftover_size(result) > 0
    service.apply_updates(remove_users=[0, 7, 31])
    result = service.recommend(k=2, max_groups=5, semantics=semantics,
                               aggregation=aggregation)
    assert leftover_size(result) > 0
    assert densified_rows["rows"] == 0
    assert spec_calls == []


def test_subset_request_validation():
    store, _ = make_instance("dense")
    service = FormationService(store, k_max=4)
    with pytest.raises(GroupFormationError):
        service.recommend(k=2, max_groups=3, user_ids=[])
    with pytest.raises(GroupFormationError):
        service.recommend(k=2, max_groups=3, user_ids=[1, 1])
    with pytest.raises(GroupFormationError):
        service.recommend(k=2, max_groups=3, user_ids=[999])
    with pytest.raises(GroupFormationError):
        service.recommend(k=2, max_groups=3, user_ids=[[1, 2]])
    with pytest.raises(GroupFormationError):
        service.recommend(k=99, max_groups=3)


def test_removed_users_leave_formations():
    store, _ = make_instance("dense")
    service = FormationService(store, k_max=4, shards=4)
    service.apply_updates(remove_users=[0, 1, 2])
    result = service.recommend(k=2, max_groups=5)
    formed = {u for g in result.groups for u in g.members}
    assert formed == set(range(3, 48))
    with pytest.raises(GroupFormationError):
        service.recommend(k=2, max_groups=3, user_ids=[0, 5])


def test_added_users_join_formations():
    store, _ = make_instance("dense")
    service = FormationService(store, k_max=4, shards=4)
    rng = np.random.default_rng(3)
    service.recommend(k=2, max_groups=5)  # populate the 4 shard summaries
    stats = service.apply_updates(
        add_users=rng.integers(1, 5, size=(4, 12)).astype(float)
    )
    # Growing the user axis drops every cached summary — and says so.
    assert stats["invalidated_shards"] == 4
    assert service.stats()["n_users"] == 52
    result = service.recommend(k=2, max_groups=5)
    formed = {u for g in result.groups for u in g.members}
    assert formed == set(range(52))


def test_result_cache_is_bounded():
    store, _ = make_instance("dense")
    service = FormationService(store, k_max=4, result_cache_size=2)
    for k in (1, 2, 3, 4):
        service.recommend(k=k, max_groups=3)
    assert service.stats()["cached_results"] == 2


def test_store_writes_are_observed_once_per_write():
    from repro.obs.registry import H_STORE_WRITE
    from repro.obs.runtime import get_registry

    store, _ = make_instance("sparse")
    service = FormationService(store, k_max=4, shards=2)

    def count() -> int:
        return get_registry().histogram(H_STORE_WRITE)["count"]

    before = count()
    service.apply_updates(upserts=[(0, 1, 4.0), (2, 3, 2.0)])
    assert count() == before + 1
    service.apply_updates(upserts=[(1, 1, 3.0)], deletes=[(5, 2)])
    assert count() == before + 3
    service.apply_updates(deletes=[(4, 4)])
    assert count() == before + 4
