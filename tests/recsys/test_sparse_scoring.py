"""Sparse group scoring: ``SparseStore.item_scores`` against the dense path.

The sparse path reduces the members' stored CSR entries per item (LM-min
folded with the fill, AV-sum plus ``fill x`` the members lacking the item)
and must be bit-identical to the dense reduction
(:meth:`~repro.core.semantics.Semantics.item_scores` on the densified
rows).  It only runs where its reduction order cannot matter — the
exactness gate:

* LM takes it on any input without ``-0.0``, fractional ratings included;
* AV takes it on integer ratings (and fill), including groups larger than
  one chunk of the former streaming reduction (3,355 rows at 10k items);
* fractional AV input and any ``-0.0`` keep the dense streaming path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core.semantics import Semantics
from repro.recsys import store as store_module
from repro.recsys.matrix import RatingScale
from repro.recsys.store import SparseStore

LM, AV = Semantics.LEAST_MISERY, Semantics.AGGREGATE_VOTING


@pytest.fixture
def streamed(monkeypatch):
    """Record every call of the dense streaming reduction."""
    calls = []
    original = store_module._stream_item_scores

    def spy(store, members, semantics):
        calls.append(semantics)
        return original(store, members, semantics)

    monkeypatch.setattr(store_module, "_stream_item_scores", spy)
    return calls


def sparse_instance(rng, n_users, n_items, density, values, fill):
    """A SparseStore and the dense matrix it densifies to."""
    stored = rng.random((n_users, n_items)) < density
    ratings = rng.choice(values, size=(n_users, n_items))
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix(
        (ratings[rows, cols], (rows, cols)), shape=(n_users, n_items)
    )
    store = SparseStore(csr, fill_value=fill, scale=RatingScale(-1.0, 5.0))
    return store, np.where(stored, ratings, fill)


def assert_bits_equal(got, expected):
    __tracebackhide__ = True
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_users=st.integers(1, 30),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    fill=st.sampled_from([1.0, 2.5, 5.0]),
)
def test_lm_bit_identical_on_fractional_ratings(
    seed, n_users, n_items, density, fill
):
    rng = np.random.default_rng(seed)
    fractional = np.round(rng.uniform(1.0, 5.0, size=16), 3)
    store, dense = sparse_instance(rng, n_users, n_items, density, fractional, fill)
    members = rng.choice(n_users, size=rng.integers(1, n_users + 1), replace=False)
    assert_bits_equal(
        store.item_scores(members, LM), LM.item_scores(dense, members)
    )


def test_av_integer_group_larger_than_a_streaming_chunk(streamed):
    n_users, n_items = 3_400, 10_000
    assert n_users > store_module._STREAM_TARGET_ELEMENTS // n_items
    rng = np.random.default_rng(5)
    stored = rng.random((n_users, n_items)) < 0.01
    rows, cols = np.nonzero(stored)
    csr = sp.csr_matrix(
        (rng.integers(1, 6, size=rows.size).astype(float), (rows, cols)),
        shape=(n_users, n_items),
    )
    store = SparseStore(csr, fill_value=1.0)
    members = np.arange(n_users)
    for semantics in (AV, LM):
        got = store.item_scores(members, semantics)
        # The dense reduction column-block by column-block: each column's
        # reduction over the members is the one the full dense array gets.
        expected = np.concatenate([
            semantics.item_scores(store.gather(members, block), members)
            for block in np.array_split(np.arange(n_items), 10)
        ])
        assert_bits_equal(got, expected)
    assert streamed == []


@pytest.mark.parametrize(
    "semantics, values, fill",
    [
        (AV, (1.25, 2.5, 4.75), 1.0),   # fractional AV
        (AV, (1.0, 2.0, 3.0), 1.5),     # fractional fill
        (AV, (-0.0, 0.0, 2.0), 0.0),    # signed zeros
        (LM, (-0.0, 0.0, 2.0), 0.0),
        (LM, (1.0, 2.0, 3.0), -0.0),    # a -0.0 fill
    ],
)
def test_gate_keeps_order_dependent_inputs_on_the_streaming_path(
    streamed, semantics, values, fill
):
    rng = np.random.default_rng(11)
    store, dense = sparse_instance(rng, 40, 9, 0.5, values, fill)
    members = np.arange(0, 40, 3)
    assert_bits_equal(
        store.item_scores(members, semantics),
        semantics.item_scores(dense, members),
    )
    assert streamed == [semantics]


@pytest.mark.parametrize(
    "semantics, values",
    [
        (LM, (1.0, 2.0, 5.0)),
        (AV, (1.0, 2.0, 5.0)),
        (LM, (1.25, 2.5, 4.75)),   # LM-min is exact on fractional ratings
    ],
)
def test_gate_admits_order_independent_inputs(streamed, semantics, values):
    rng = np.random.default_rng(2)
    store, dense = sparse_instance(rng, 50, 20, 0.3, values, 1.0)
    members = np.arange(1, 50, 2)
    assert_bits_equal(
        store.item_scores(members, semantics),
        semantics.item_scores(dense, members),
    )
    assert streamed == []
