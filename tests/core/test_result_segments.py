"""Segment-backed formation results.

A :class:`~repro.core.grouping.GroupFormationResult` stores its groups as
flat ``member_ids``/``offsets`` segments plus ``(n_groups, k)`` item and
score arrays; ``groups`` is derived from them and ``as_dict()`` is built
straight from the arrays.  Every view must agree field for field with the
reference backend and with the :class:`~repro.core.grouping.Group` objects
it derives, for left-over, budget-filling and exact-solver
(``evaluate_partition``) results.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core import FormationEngine, evaluate_partition
from repro.core.group_recommender import group_satisfaction
from repro.recsys import DenseStore
from repro.service import FormationService

VARIANTS = [("lm", "min"), ("av", "sum"), ("lm", "sum"), ("av", "max")]


def views(result):
    """Every public view of a result, as plain comparable values."""
    groups = result.groups
    return {
        "groups": [g.as_dict() for g in groups],
        "partition": result.members_partition(),
        "sizes": result.group_sizes,
        "n_groups": result.n_groups,
        "n_users": result.n_users,
        "objective": result.objective,
        "owner": {
            u: result.group_of_user(u) for g in groups for u in g.members
        },
        "as_dict": {key: value for key, value in result.as_dict().items()
                    if key != "extras"},
    }


def assert_consistent(result):
    """The array-built dict and the derived Group objects say the same."""
    __tracebackhide__ = True
    payload = result.as_dict()
    assert payload["groups"] == [g.as_dict() for g in result.groups]
    assert payload["n_groups"] == len(result.groups)
    assert result.members_partition() == [g.members for g in result.groups]
    assert result.group_sizes == [g.size for g in result.groups]
    assert result.n_users == sum(g.size for g in result.groups)
    assert result.objective == float(sum(g.satisfaction for g in result.groups))
    for index, group in enumerate(result.groups):
        for user in group.members:
            assert result.group_of_user(user) == index
    # Python scalars only: the body must encode without a default hook.
    json.dumps(payload)


def instance(seed, n_users=40, n_items=9, levels=4):
    rng = np.random.default_rng(seed)
    return rng.integers(1, levels + 1, size=(n_users, n_items)).astype(float)


@pytest.mark.parametrize("semantics, aggregation", VARIANTS)
@pytest.mark.parametrize("seed", range(3))
def test_leftover_results_match_the_reference_backend(seed, semantics, aggregation):
    values = instance(seed)
    got = FormationEngine("numpy").run(values, 5, 2, semantics, aggregation)
    want = FormationEngine("reference").run(values, 5, 2, semantics, aggregation)
    assert got.extras["last_group_pseudocode_score"] is not None
    assert_consistent(got)
    assert views(got) == views(want)


@pytest.mark.parametrize("semantics, aggregation", VARIANTS)
def test_budget_filling_results_match_the_reference_backend(semantics, aggregation):
    # Two distinct rows: two buckets, both selected, then split up to ℓ.
    values = np.array([[5.0, 1.0, 3.0]] * 4 + [[1.0, 4.0, 2.0]] * 3)
    got = FormationEngine("numpy").run(values, 6, 2, semantics, aggregation)
    want = FormationEngine("reference").run(values, 6, 2, semantics, aggregation)
    assert got.extras["last_group_pseudocode_score"] is None
    assert got.n_groups == 6
    assert_consistent(got)
    assert views(got) == views(want)


@pytest.mark.parametrize("semantics, aggregation", VARIANTS)
def test_partition_results_score_every_block(semantics, aggregation):
    values = instance(7, n_users=9, n_items=5)
    partition = [[4, 0, 8], [1], [2, 3, 5, 6, 7]]
    result = evaluate_partition(values, partition, 2, semantics, aggregation)
    assert_consistent(result)
    for block, group in zip(partition, result.groups):
        items, scores, satisfaction = group_satisfaction(
            values, sorted(block), 2, semantics, aggregation
        )
        assert group.members == tuple(sorted(block))
        assert (group.items, group.item_scores, group.satisfaction) == (
            items, scores, satisfaction
        )


def test_group_of_user_rejects_users_outside_the_result():
    result = FormationEngine().run(instance(1, n_users=6), 3, 1, "lm", "min")
    with pytest.raises(KeyError):
        result.group_of_user(6)


def test_memoised_groups_are_built_whole_under_concurrent_reads():
    service = FormationService(DenseStore(instance(3, n_users=200)), k_max=3)
    subset = list(range(0, 200, 3))
    result = service.recommend(k=2, max_groups=6, user_ids=subset)
    assert service.recommend(k=2, max_groups=6, user_ids=subset) is result
    barrier = threading.Barrier(2)
    seen = []

    def read():
        barrier.wait()
        seen.append(result.groups)

    threads = [threading.Thread(target=read) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(seen) == 2
    assert seen[0] == seen[1]
    assert sum(g.size for g in seen[0]) == len(subset)
    assert [g.as_dict() for g in seen[0]] == result.as_dict()["groups"]
