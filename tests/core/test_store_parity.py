"""Property suite: dense and sparse stores are bit-identical end to end.

The :class:`~repro.recsys.store.SparseStore` contract is that it is a pure
storage change: for the same ratings, the TopKIndex, every formation result
(groups, recommended lists, floating-point satisfaction values, objective)
and the bookkeeping extras must equal the dense path bit for bit, for every
(semantics, aggregation, backend) combination.  Hypothesis drives randomised
instances — tie-heavy integer ratings (the realistic case, and the one that
stresses bucket-key equality) and fractional ratings (which stress the
float-exactness of sparse densification).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FormationEngine, TopKIndex
from repro.recsys import RatingMatrix, SparseStore

SEMANTICS = ("lm", "av")
AGGREGATIONS = ("min", "max", "sum")
BACKENDS = ("reference", "numpy")


@st.composite
def instances(draw):
    """A complete rating matrix plus formation parameters."""
    n_users = draw(st.integers(min_value=2, max_value=24))
    n_items = draw(st.integers(min_value=2, max_value=10))
    integer_ratings = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if integer_ratings:
        # Few levels => heavy ties => many shared top-k sequences, the
        # regime the bucket hashing actually faces.
        values = rng.integers(1, 4, size=(n_users, n_items)).astype(float)
    else:
        values = np.round(rng.uniform(1.0, 5.0, size=(n_users, n_items)), 3)
    max_groups = draw(st.integers(min_value=1, max_value=n_users + 1))
    k = draw(st.integers(min_value=1, max_value=n_items))
    return values, max_groups, k


def assert_results_identical(a, b, context):
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


@settings(max_examples=40, deadline=None)
@given(instance=instances())
def test_topk_index_dense_sparse_identical(instance):
    values, _, k = instance
    matrix = RatingMatrix(values)
    dense_index = TopKIndex.build(matrix, k)
    sparse_index = TopKIndex.build(SparseStore.from_matrix(matrix), k)
    assert np.array_equal(dense_index.items, sparse_index.items)
    assert np.array_equal(dense_index.values, sparse_index.values)


@settings(max_examples=25, deadline=None)
@given(instance=instances())
def test_formation_dense_sparse_identical_all_variants(instance):
    values, max_groups, k = instance
    matrix = RatingMatrix(values)
    store = SparseStore.from_matrix(matrix)
    for backend in BACKENDS:
        engine = FormationEngine(backend)
        for semantics in SEMANTICS:
            for aggregation in AGGREGATIONS:
                dense_result = engine.run(matrix, max_groups, k, semantics, aggregation)
                sparse_result = engine.run(store, max_groups, k, semantics, aggregation)
                assert_results_identical(
                    dense_result,
                    sparse_result,
                    context=(backend, semantics, aggregation, max_groups, k),
                )


@settings(max_examples=25, deadline=None)
@given(instance=instances())
def test_partial_store_parity_against_densified_fill(instance):
    """A genuinely sparse store equals the dense matrix it densifies to."""
    values, max_groups, k = instance
    rng = np.random.default_rng(int(values.sum()) % (2**31))
    observed = rng.random(values.shape) < 0.4
    observed[0, 0] = True  # keep at least one explicit rating
    fill = 1.0
    sparse_values = np.where(observed, values, fill)
    rows, cols = np.nonzero(observed)
    from scipy import sparse as sp

    store = SparseStore(
        sp.csr_matrix((values[rows, cols], (rows, cols)), shape=values.shape),
        fill_value=fill,
    )
    engine = FormationEngine("numpy")
    for semantics, aggregation in (("lm", "min"), ("av", "sum")):
        dense_result = engine.run(sparse_values, max_groups, k, semantics, aggregation)
        sparse_result = engine.run(store, max_groups, k, semantics, aggregation)
        assert_results_identical(
            dense_result, sparse_result, context=(semantics, aggregation)
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_weighted_sum_parity_smoke(backend):
    """Weighted-sum aggregation (not in the hypothesis matrix) stays exact."""
    rng = np.random.default_rng(11)
    values = rng.integers(1, 6, size=(40, 12)).astype(float)
    matrix = RatingMatrix(values)
    store = SparseStore.from_matrix(matrix)
    engine = FormationEngine(backend)
    for semantics in SEMANTICS:
        dense_result = engine.run(matrix, 6, 4, semantics, "weighted-sum")
        sparse_result = engine.run(store, 6, 4, semantics, "weighted-sum")
        assert_results_identical(
            dense_result, sparse_result, context=(backend, semantics)
        )
