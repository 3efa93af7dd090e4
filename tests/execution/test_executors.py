"""Executor parity: every strategy must reproduce the serial path bit-for-bit.

The process suite keeps ONE pool alive for the whole module (fork-started
workers are cheap, but not per-hypothesis-example cheap) — re-using the
pool across examples also exercises the worker-side attachment cache the
way a long-lived service would.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import FormationConfig, FormationEngine
from repro.core.greedy_framework import make_variant
from repro.core.sharded import ShardedFormation, form_from_summaries, shard_bounds
from repro.core.topk_index import TopKIndex
from repro.execution.executor import (
    EXECUTION_MODES,
    ProcessExecutor,
    SerialExecutor,
    executor_scope,
    get_executor,
)
from repro.recsys.matrix import RatingMatrix
from repro.recsys.store import DenseStore, SparseStore


@pytest.fixture(scope="module")
def process_executor():
    executor = ProcessExecutor(workers=2)
    yield executor
    executor.close()


def results_match(a, b) -> bool:
    """Bit-identity over groups, scores and bookkeeping (timings excluded)."""
    return (
        a.objective == b.objective
        and [g.members for g in a.groups] == [g.members for g in b.groups]
        and [g.items for g in a.groups] == [g.items for g in b.groups]
        and [g.item_scores for g in a.groups] == [g.item_scores for g in b.groups]
        and a.extras["n_intermediate_groups"] == b.extras["n_intermediate_groups"]
        and a.extras["last_group_pseudocode_score"]
        == b.extras["last_group_pseudocode_score"]
    )


def integer_instance(seed: int, n_users: int, n_items: int) -> np.ndarray:
    """A tie-heavy integer-rated instance (the bit-identity regime)."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 6, size=(n_users, n_items)).astype(float)


# --------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------- #


def test_get_executor_resolution():
    assert isinstance(get_executor("serial"), SerialExecutor)
    assert isinstance(get_executor("processes", 2), ProcessExecutor)
    # Default: processes when workers > 1, serial otherwise.
    assert get_executor(None, None).name == "serial"
    assert get_executor(None, 1).name == "serial"
    assert get_executor(None, 4).name == "processes"
    assert EXECUTION_MODES == ("serial", "processes")


def test_get_executor_passthrough_and_errors():
    executor = SerialExecutor()
    assert get_executor(executor) is executor
    with pytest.raises(ValueError, match="unknown execution mode"):
        get_executor("gpu")
    with pytest.raises(ValueError, match="unknown execution mode"):
        get_executor("threads", 2)
    with pytest.raises(ValueError):
        get_executor("processes", 0)


def test_executor_scope_ownership():
    with executor_scope("processes", 2) as executor:
        assert isinstance(executor, ProcessExecutor)
    # A passed-in executor is not closed by the scope.
    outer = ProcessExecutor(2)
    with executor_scope(outer) as executor:
        assert executor is outer
    outer.map_configs(
        DenseStore(integer_instance(0, 10, 5)),
        [FormationConfig(3, 2)],
        "numpy",
        TopKIndex.build(integer_instance(0, 10, 5), 2),
    )
    outer.close()


# --------------------------------------------------------------------- #
# map_shards parity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("semantics,aggregation", [("lm", "min"), ("av", "sum")])
@pytest.mark.parametrize("sparse", [False, True])
def test_map_shards_processes_match_serial(
    process_executor, semantics, aggregation, sparse
):
    values = integer_instance(11, 90, 18)
    store = (
        SparseStore.from_matrix(RatingMatrix(values.copy()))
        if sparse
        else DenseStore(values.copy())
    )
    variant = make_variant(semantics, aggregation)
    bounds = shard_bounds(90, 5)
    serial = SerialExecutor().map_shards(store, bounds, 4, variant)
    processed = process_executor.map_shards(store, bounds, 4, variant)
    assert len(processed) == len(serial)
    for a, b in zip(serial, processed):
        assert a.start == b.start
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.reps, b.reps)
        assert all(np.array_equal(x, y) for x, y in zip(a.members, b.members))
    # End-to-end: the merged plan built from process summaries matches the
    # plain engine.
    baseline = FormationEngine("numpy").run(values.copy(), 6, 4, semantics, aggregation)
    merged = form_from_summaries(store, processed, variant, 6, 4)
    assert results_match(baseline, merged)


def test_map_shards_shard_ids_subset(process_executor):
    values = integer_instance(5, 60, 10)
    store = DenseStore(values.copy())
    variant = make_variant("lm", "min")
    bounds = shard_bounds(60, 4)
    full = SerialExecutor().map_shards(store, bounds, 3, variant)
    subset = process_executor.map_shards(store, bounds, 3, variant, shard_ids=[2, 0])
    assert subset[0].start == full[2].start
    assert subset[1].start == full[0].start
    assert np.array_equal(subset[0].keys, full[2].keys)


# --------------------------------------------------------------------- #
# map_table_shards parity (the serving layer's unit of work)
# --------------------------------------------------------------------- #


def test_map_table_shards_matches_serial_with_and_without_token(process_executor):
    values = integer_instance(7, 80, 14)
    index = TopKIndex.build(DenseStore(values.copy()), 4)
    items, scores = index.top_k(4)
    variant = make_variant("av", "min")
    bounds = shard_bounds(80, 4)
    serial = SerialExecutor().map_table_shards(
        items, scores, bounds, [0, 1, 2, 3], variant
    )
    anonymous = process_executor.map_table_shards(
        items, scores, bounds, [0, 1, 2, 3], variant, token=None
    )
    keyed = process_executor.map_table_shards(
        items, scores, bounds, [0, 1, 2, 3], variant, token=("v0", 4)
    )
    # Second keyed call re-uses the cached export.
    keyed_again = process_executor.map_table_shards(
        items, scores, bounds, [1, 3], variant, token=("v0", 4)
    )
    for a, b in zip(serial, anonymous):
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.scores, b.scores)
    for a, b in zip(serial, keyed):
        assert np.array_equal(a.keys, b.keys) and np.array_equal(a.scores, b.scores)
    assert np.array_equal(keyed_again[0].keys, serial[1].keys)
    assert np.array_equal(keyed_again[1].keys, serial[3].keys)


# --------------------------------------------------------------------- #
# map_configs parity (run_many sweep fan-out)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("execution", ["processes"])
def test_run_many_executor_matches_serial(process_executor, execution):
    values = integer_instance(23, 70, 16)
    engine = FormationEngine("numpy")
    configs = [
        FormationConfig(max_groups=5, k=3, semantics="lm", aggregation="min"),
        FormationConfig(max_groups=4, k=5, semantics="av", aggregation="sum"),
        FormationConfig(max_groups=8, k=2, semantics="lm", aggregation="max"),
    ]
    serial = engine.run_many(values.copy(), configs)
    parallel = engine.run_many(values.copy(), configs, executor=process_executor)
    assert len(parallel) == len(serial)
    for a, b in zip(serial, parallel):
        assert results_match(a, b)


# --------------------------------------------------------------------- #
# Hypothesis parity suite: the acceptance contract.  Process-executor
# results must be bit-identical to the serial path for LM and for
# integer-rated AV instances, across random shapes, shard counts and ties.
# --------------------------------------------------------------------- #


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(5, 70),
    n_items=st.integers(3, 14),
    shards=st.integers(2, 6),
    semantics=st.sampled_from(["lm", "av"]),
    aggregation=st.sampled_from(["min", "max", "sum"]),
)
def test_process_executor_bit_identical_on_integer_instances(
    process_executor, seed, n_users, n_items, shards, semantics, aggregation
):
    values = integer_instance(seed, n_users, n_items)
    k = min(3, n_items)
    max_groups = max(2, n_users // 6)
    baseline = ShardedFormation(shards=shards, execution="serial").run(
        values.copy(), max_groups, k, semantics, aggregation
    )
    parallel = ShardedFormation(
        shards=shards, workers=2, execution=process_executor
    ).run(values.copy(), max_groups, k, semantics, aggregation)
    assert results_match(baseline, parallel)
    assert parallel.extras["execution"] == "processes"
