"""Dense left-over scoring: the column reduce reading a dense array in place.

:meth:`repro.recsys.store.DenseStore.item_scores` scores the left-over
group with :func:`repro.core.kernels.dense_item_scores` — the compiled
column reduce of :func:`repro.core.kernels.csr_item_scores` with a dense
row source — and falls back to the streaming reduction where its exactness
gate declines or no compiler is available.  Either way the scores must be
bit-identical to the specification
:meth:`~repro.core.semantics.Semantics.item_scores` on the raw array, for
integer and fractional ratings, ``±0.0``, tie-heavy columns, one-member
groups, shuffled member orders, AV sums at the ``2**53`` gate and every
kernel thread count.  The store-level cases run on both kernel legs; the
cases that call the compiled kernel directly skip without a compiler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels, kernels_cc
from repro.core.errors import GroupFormationError
from repro.core.semantics import Semantics
from repro.recsys.store import DenseStore

LM, AV = Semantics.LEAST_MISERY, Semantics.AGGREGATE_VOTING

compiled = pytest.mark.skipif(
    not kernels.parallel_available(), reason="compiled kernels unavailable"
)

#: Rating alphabets: few levels make every column tie-heavy.
ALPHABETS = {
    "integer": (1.0, 2.0, 3.0, 4.0, 5.0),
    "ties": (2.0, 3.0),
    "fractional": (1.0, 1.5, 2.25, 4.1),
    "signed_zero": (-0.0, 0.0, 1.0, 2.0),
    "zeros": (0.0, 1.0, -2.0),
}


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def instance(rng, alphabet, n_users=90, n_items=37):
    values = rng.choice(np.asarray(ALPHABETS[alphabet]), size=(n_users, n_items))
    return values, DenseStore(values)


def assert_matches_spec(store, values, members, semantics):
    __tracebackhide__ = True
    got = store.item_scores(members, semantics)
    expected = semantics.item_scores(values, members)
    assert np.array_equal(bits(got), bits(expected))


@pytest.fixture()
def small_chunks(monkeypatch):
    """Let every chunk hold one cell, so thread counts really split rows."""
    monkeypatch.setattr(kernels_cc, "_SCORE_MIN_CHUNK_CELLS", 1)


@pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
@pytest.mark.parametrize("semantics", (LM, AV), ids=("lm", "av"))
@pytest.mark.parametrize("order", ("sorted", "shuffled"))
def test_store_scores_match_the_spec(alphabet, semantics, order):
    rng = np.random.default_rng(len(alphabet) * 7 + (order == "sorted"))
    values, store = instance(rng, alphabet)
    for size in (1, 2, 5, 33, 90):
        members = rng.choice(90, size=size, replace=False)
        if order == "sorted":
            members = np.sort(members)
        assert_matches_spec(store, values, members, semantics)


@compiled
@pytest.mark.parametrize("threads", (1, 2, 8))
@pytest.mark.parametrize("alphabet", ("integer", "ties", "zeros"))
def test_kernel_is_exact_for_every_thread_count(small_chunks, threads, alphabet):
    rng = np.random.default_rng(threads)
    values, _ = instance(rng, alphabet, n_users=120, n_items=41)
    members = rng.permutation(120)[:77]
    with kernels.use_kernel_threads(threads):
        for semantics in (LM, AV):
            got = kernels.dense_item_scores(values, members, semantics)
            assert got is not None
            assert np.array_equal(
                bits(got), bits(semantics.item_scores(values, members))
            )


@compiled
@pytest.mark.parametrize("size", (1, 3, 4, 5, 8, 9))
def test_kernel_handles_every_row_block_remainder(size):
    # Rows are folded four at a time; the remainder runs cell by cell.
    rng = np.random.default_rng(size)
    values, _ = instance(rng, "ties", n_users=12, n_items=7)
    members = rng.permutation(12)[:size]
    for semantics in (LM, AV):
        got = kernels.dense_item_scores(values, members, semantics)
        assert np.array_equal(bits(got), bits(semantics.item_scores(values, members)))


@compiled
@pytest.mark.parametrize(
    "semantics, alphabet",
    [(AV, "fractional"), (AV, "signed_zero"), (LM, "signed_zero")],
)
def test_gate_declines_order_dependent_input(semantics, alphabet):
    rng = np.random.default_rng(4)
    values, store = instance(rng, alphabet)
    members = np.arange(90)
    assert kernels.dense_item_scores(values, members, semantics) is None
    assert_matches_spec(store, values, members, semantics)


@compiled
def test_gate_admits_lm_on_fractional_and_zero_ratings():
    rng = np.random.default_rng(5)
    for alphabet in ("fractional", "zeros"):
        values, _ = instance(rng, alphabet)
        got = kernels.dense_item_scores(values, np.arange(90), LM)
        assert got is not None
        assert np.array_equal(bits(got), bits(LM.item_scores(values, np.arange(90))))


@compiled
@pytest.mark.parametrize(
    "value, n_members, admitted",
    [
        (float(2**52), 2, True),            # |v| * n == 2**53
        (float(2**52), 3, False),           # |v| * n > 2**53
        (float(2**31), 4, True),            # beyond the int32 screen
        (float(2**51 - 1), 4, True),        # odd, |v| * n == 2**53 - 4
        (float(2**51 + 1), 4, False),       # odd, |v| * n == 2**53 + 4
        (-float(2**50), 8, True),
        (float(2**50) + 0.5, 2, False),     # fractional
    ],
)
def test_av_gate_at_two_to_the_53(value, n_members, admitted):
    values = np.full((n_members, 3), value)
    values[0, 1] = 1.0
    members = np.arange(n_members)
    got = kernels.dense_item_scores(values, members, AV)
    assert (got is not None) == admitted
    assert_matches_spec(DenseStore(values), values, members, AV)


def test_members_are_validated_before_any_row_is_read():
    store = DenseStore(np.ones((4, 3)))
    for members in ([], [0, 4], [-1]):
        with pytest.raises(GroupFormationError):
            store.item_scores(np.asarray(members, dtype=np.int64), LM)
        with pytest.raises(GroupFormationError):
            kernels.dense_item_scores(store.values, np.asarray(members), LM)


def test_non_contiguous_arrays_take_the_streaming_path():
    rng = np.random.default_rng(8)
    values = np.asfortranarray(rng.integers(1, 6, size=(20, 9)).astype(float))
    members = np.array([3, 1, 7])
    assert kernels.dense_item_scores(values, members, AV) is None
    assert_matches_spec(DenseStore(values), values, members, AV)


@compiled
def test_dense_reduce_is_observed_in_the_score_histogram():
    from repro.obs.registry import H_KERNEL_SCORE
    from repro.obs.runtime import get_registry

    store = DenseStore(np.random.default_rng(12).integers(1, 6, (20, 5)).astype(float))
    before = get_registry().histogram(H_KERNEL_SCORE)["count"]
    store.item_scores(np.arange(20), LM)
    store.item_scores(np.arange(20), AV)
    assert get_registry().histogram(H_KERNEL_SCORE)["count"] == before + 2
