"""Steps 1–2 of greedy formation, vectorised: bucket summaries and selection.

The bucket key of a user depends only on *her own* top-k prefix, never on
other users, so step 1 of the GRD skeleton is row-independent.  This
module is the one vectorised implementation of steps 1–2 that the numpy
engine backend (:class:`~repro.core.engine.NumpyBackend`) and the service
(:class:`~repro.service.FormationService`, on its incrementally maintained
top-k index) share: a ranked ``(n_users, k)`` top-k table is summarised
once into buckets (:func:`summarise_tables`) and the ℓ − 1 best buckets
are selected from that summary directly (:func:`plan_from_summaries`).
Step 3 (scoring, budget filling, left-over group) then runs through
:func:`~repro.core.engine.finalise_plan`.

A :class:`ShardSummary` stores bucket membership as flat segments — one
``member_ids`` array with each bucket's members contiguous and ascending,
cut by ``offsets`` — so summarise and select run without a Python loop
over buckets: summarise buckets through
:func:`repro.core.kernels.bucketize`, and select picks the ℓ − 1 best
buckets with :func:`repro.core.kernels.select_best_buckets` and slices
their segments out in selection order — the format the plan carries on to
step 3, where all selected groups are scored by one
:meth:`~repro.recsys.store.RatingStore.segment_item_scores` call.

Memory: ranking goes through :meth:`RatingStore.top_k
<repro.recsys.store.RatingStore.top_k>`, so a sparse store is ranked
straight from its CSR rows and only the ``(n_users, k)`` top-k tables are
dense; the CSR kernel bounds its own temporaries (the numpy fallback ranks
in row blocks of a fixed entry budget, see
:func:`repro.core.kernels.csr_top_k_table`).  The left-over group is scored
from its members' stored entries
(:meth:`~repro.recsys.store.SparseStore.item_scores`).  That is what lets a
1M-user x 10k-item sparse instance form groups in the memory of its stored
ratings where the dense matrix alone would need ~80 GB.

Three names stay only because the repository benchmark (``perfbench/``)
constructs or patches them, and go with its next change:
:class:`ShardedFormation` (the numpy engine under its former name),
:func:`summarise_store_shard` (one ranking call plus
:func:`summarise_tables`) and :func:`merge_summaries` (folding several
summaries into global buckets; no production path merges).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core import kernels
from repro.core.aggregation import (
    Aggregation,
    MaxAggregation,
    MinAggregation,
    SumAggregation,
    WeightedSumAggregation,
)
# finalise_plan is re-exported for perfbench's tracer, which patches it here.
from repro.core.engine import FormationEngine, FormationPlan, finalise_plan  # noqa: F401
from repro.core.greedy_framework import GreedyVariant
from repro.recsys.store import RatingStore
from repro.utils.validation import require_positive_int

__all__ = [
    "ShardedFormation",
    "ShardSummary",
    "merge_summaries",
    "plan_from_summaries",
    "summarise_store_shard",
    "summarise_tables",
]


@dataclass
class ShardSummary:
    """Bucket-level digest of one user shard (step 1 output).

    Bucket membership is one flat segment array, not a list per bucket:
    bucket ``b``'s members are ``member_ids[offsets[b]:offsets[b + 1]]``.
    Buckets are numbered in ascending representative order (the order
    :func:`repro.core.kernels.bucketize` numbers them in).

    Attributes
    ----------
    items_table, scores_table:
        The shard's ``(shard_size, k)`` ranked top-k tables (row ``i`` is
        user ``start + i``), kept by reference: the representatives' rows
        are gathered only on first use of :attr:`items_rows` or
        :attr:`keys`.
    start:
        Global index of the shard's first user.
    key_scores:
        Which score columns join the bucket key (the variant's
        ``key_scores``).
    reps:
        Global index of each bucket's first (smallest-index) member.
    scores:
        Bucket heap-score contribution of the shard: the full score for
        ``combine="first"`` variants, a partial sum for ``combine="sum"``.
    member_ids:
        ``(shard_size,)`` global user indices, each bucket's members
        contiguous and ascending.
    offsets:
        ``(n_buckets + 1,)`` segment boundaries into ``member_ids``.
    contributions:
        ``(shard_size,)`` per-user personal aggregated top-k values, in
        shard-local user order.
    """

    items_table: np.ndarray
    scores_table: np.ndarray
    start: int
    key_scores: str
    reps: np.ndarray
    scores: np.ndarray
    member_ids: np.ndarray
    offsets: np.ndarray
    contributions: np.ndarray

    @cached_property
    def items_rows(self) -> np.ndarray:
        """``(n_buckets, k)`` shared top-k item sequence of each bucket.

        Gathered from the representatives' rows on first use; only
        :func:`merge_summaries` reads it, so no production path does.
        """
        return np.take(self.items_table, self.reps - self.start, axis=0)

    @cached_property
    def keys(self) -> np.ndarray:
        """``(n_buckets, width)`` packed ``uint64`` key rows, one per bucket.

        Packed from the representatives' rows on first use — only
        :func:`merge_summaries` reads them, so no production path does.
        Comparing rows for equality is exactly the reference backend's
        byte-key equality.
        """
        rep_scores = np.take(self.scores_table, self.reps - self.start, axis=0)
        return kernels.pack_key_rows(self.items_rows, rep_scores, self.key_scores)


def summarise_store_shard(
    store: RatingStore,
    start: int,
    stop: int,
    k: int,
    variant: GreedyVariant,
) -> ShardSummary:
    """Rank, bucket and score users ``start:stop`` of a store.

    One :meth:`RatingStore.top_k <repro.recsys.store.RatingStore.top_k>`
    call followed by :func:`summarise_tables`.  Nothing in the library
    calls it; it stays because perfbench's tracer patches it by name.

    Parameters
    ----------
    store:
        Rating storage the users are read from.
    start, stop:
        Global user range to summarise.
    k:
        Top-k prefix length of the run.
    variant:
        The greedy variant being executed.

    Returns
    -------
    ShardSummary
        The range's bucket-level digest.
    """
    items_table, scores_table = store.top_k(slice(start, stop), k)
    return summarise_tables(items_table, scores_table, start, variant)


def merge_summaries(
    summaries: list[ShardSummary], combine: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge shard bucket digests into the global intermediate groups.

    No production path merges: batch runs and the service both summarise
    one table.  The function stays because perfbench's tracer patches it,
    and as the spec of the shard-commutation property
    (``tests/core/test_sharded.py``).

    The key rows (:attr:`ShardSummary.keys`, packed here on first use)
    are concatenated and grouped by
    :func:`repro.core.kernels.group_key_rows` (collision-checked
    fingerprints), and the members are gathered segment by segment.
    Shards must be in ascending user order; the stable grouping then keeps
    each merged bucket's constituents in shard order, so its gathered
    members are ascending and its first constituent's representative is
    the global (smallest-index) representative — matching the unsharded
    engine.  Groups come out in order of their first constituent, so the
    merged buckets are numbered in ascending representative order, as
    :func:`summarise_tables` numbers the unsharded table's.

    LM merges are bit-identical to summarising the unsharded table, as
    are AV merges of small-integer sums (exact in ``float64`` in any
    association).  Fractional AV sums may deviate: the merge folds
    per-shard partial sums (``0.0 + s0 + s1 + ...``), which re-associates
    each bucket's member-contribution sum.  A perturbed sum can only swap
    the selection order of two buckets whose scores differ by less than
    the accumulated rounding error ``n_g · ε · max|contribution|`` (``n_g``
    = bucket size, ``ε`` = machine epsilon); each swap changes the
    objective by at most the satisfaction gap of the swapped buckets,
    itself bounded by ``k · r_max``, so ``|Obj_merged − Obj_unsharded| ≤
    ℓ · k · r_max``.

    Parameters
    ----------
    summaries:
        Per-shard digests in ascending user order.
    combine:
        The variant's combine rule — ``"first"`` (LM) or ``"sum"`` (AV).

    Returns
    -------
    tuple
        ``(scores, reps, member_ids, offsets, items_rows)`` over the merged
        buckets, membership in the :class:`ShardSummary` segment format.
    """
    bucket_scores = np.concatenate([s.scores for s in summaries])
    bucket_reps = np.concatenate([s.reps for s in summaries])
    bucket_items = np.vstack([s.items_rows for s in summaries])
    member_ids = np.concatenate([s.member_ids for s in summaries])
    sizes = np.concatenate([np.diff(s.offsets) for s in summaries])

    order, new_segment = kernels.group_key_rows(
        np.vstack([s.keys for s in summaries])
    )
    starts = np.flatnonzero(new_segment)
    first = order[starts]

    # Gather the constituents' member segments in grouped order.
    sorted_sizes = sizes[order]
    gather = kernels.segment_positions((np.cumsum(sizes) - sizes)[order], sorted_sizes)
    merged_offsets = np.append(
        (np.cumsum(sorted_sizes) - sorted_sizes)[starts], member_ids.size
    )

    if combine == "sum":
        # Sequential fold in shard order (0.0 + s0 + s1 + ...), one pass
        # per constituent rank: exact for integer-valued ratings; see the
        # docstring for the general FP bound.
        n_constituents = np.diff(np.append(starts, order.size))
        merged_scores = np.zeros(starts.size, dtype=np.float64)
        for rank in range(int(n_constituents.max())):
            live = np.flatnonzero(n_constituents > rank)
            merged_scores[live] += bucket_scores[order[starts[live] + rank]]
    else:
        merged_scores = bucket_scores[first]
    return (
        merged_scores,
        bucket_reps[first],
        member_ids[gather],
        merged_offsets,
        bucket_items[first],
    )


def plan_from_summaries(summary: ShardSummary, max_groups: int) -> FormationPlan:
    """Greedily select from one global summary under the group budget.

    Step 2 of the algorithm: pick the ``max_groups - 1`` best buckets
    (:func:`repro.core.kernels.select_best_buckets`: highest score first,
    ties by smallest representative — the reference heap's total order)
    and package the outcome as the backend-independent
    :class:`~repro.core.engine.FormationPlan`.

    Parameters
    ----------
    summary:
        The digest of every user (one :func:`summarise_tables` call over
        the whole table).
    max_groups:
        Group budget ℓ.

    Returns
    -------
    FormationPlan
        The chosen groups as flat segments in selection order, ready for
        :func:`~repro.core.engine.finalise_plan` with their item rows
        (``items_table[plan.reps]`` of the summarised table).
    """
    n_users = summary.member_ids.size
    offsets = summary.offsets
    chosen = kernels.select_best_buckets(summary.scores, summary.reps, max_groups - 1)
    n_select = chosen.size
    # Slice the chosen segments out, in selection order.
    sizes = np.diff(offsets)[chosen]
    selected_offsets = np.zeros(n_select + 1, dtype=np.int64)
    np.cumsum(sizes, out=selected_offsets[1:])
    selected_ids = summary.member_ids[
        kernels.segment_positions(offsets[chosen], sizes)
    ]
    selected_mask = np.zeros(n_users, dtype=bool)
    selected_mask[selected_ids] = True

    remaining = np.flatnonzero(~selected_mask)
    return FormationPlan(
        member_ids=selected_ids,
        offsets=selected_offsets,
        reps=summary.reps[chosen],
        remaining_users=remaining,
        remaining_values=summary.contributions[remaining],
        n_intermediate_groups=int(summary.scores.size),
        n_users=n_users,
    )


class ShardedFormation(FormationEngine):
    """``FormationEngine("numpy")`` under its former sharded name.

    Batch formation has one path, :class:`~repro.core.engine.FormationEngine`;
    ``shards`` is validated and otherwise ignored, because the CSR top-k
    kernel bounds its own temporaries.  The class stays only because
    ``perfbench/batch_sparse.py`` constructs it.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.sharded import ShardedFormation
    >>> ratings = np.array(
    ...     [[1, 4, 3], [2, 3, 5], [2, 5, 1], [2, 5, 1], [3, 1, 1], [1, 2, 5]],
    ...     dtype=float,
    ... )
    >>> ShardedFormation(shards=3).run(ratings, max_groups=3, k=1).objective
    11.0
    """

    def __init__(self, shards: int = 1) -> None:
        require_positive_int(shards, "shards")
        super().__init__("numpy")


def summarise_tables(
    items_table: np.ndarray,
    scores_table: np.ndarray,
    start: int,
    variant: GreedyVariant,
) -> ShardSummary:
    """Bucket and score already-ranked top-k tables (step 1).

    The numpy engine backend summarises its whole table here — including
    the serving layer's tables, read straight from its incrementally maintained
    :class:`~repro.core.topk_index.MutableTopKIndex` (bit-identical to
    ranking the store because the index maintains build parity).  The
    representatives' rows and packed key rows a merge needs are left to
    :attr:`ShardSummary.items_rows` and :attr:`ShardSummary.keys`.

    Parameters
    ----------
    items_table, scores_table:
        The shard's ``(shard_size, k)`` ranked top-k tables.
    start:
        Global index of the shard's first user.
    variant:
        The greedy variant being executed.

    Returns
    -------
    ShardSummary
        The shard's bucket-level digest.
    """
    inverse, sorted_users, starts = kernels.bucketize(
        items_table, scores_table, variant.key_scores
    )
    contributions = _user_contributions(scores_table, variant.aggregation)
    reps_local = sorted_users[starts]
    scores = kernels.bucket_reduce(
        inverse, contributions, starts.size, variant.combine, reps_local
    )
    return ShardSummary(
        items_table=items_table,
        scores_table=scores_table,
        start=start,
        key_scores=variant.key_scores,
        reps=reps_local + start,
        scores=scores,
        member_ids=sorted_users + start,
        offsets=np.append(starts, items_table.shape[0]),
        contributions=contributions,
    )


def _user_contributions(
    scores_table: np.ndarray, aggregation: Aggregation
) -> np.ndarray:
    """Every user's personal aggregated top-k value, vectorised.

    Matches ``aggregation.aggregate(scores_row.tolist())`` bit for bit:
    Min/Max pick single columns, and the Sum/Weighted-Sum row reductions
    use the same pairwise summation over the same contiguous k elements as
    the reference's per-row ``np.sum``.

    Parameters
    ----------
    scores_table:
        The ``(n_users, k)`` ranked top-k scores.
    aggregation:
        The variant's top-k aggregation.
    """
    kind = type(aggregation)
    if kind is MinAggregation:
        return np.ascontiguousarray(scores_table[:, -1])
    if kind is MaxAggregation:
        return np.ascontiguousarray(scores_table[:, 0])
    if kind is SumAggregation:
        return scores_table.sum(axis=1)
    if kind is WeightedSumAggregation:
        weights = aggregation.weights(scores_table.shape[1])
        return (scores_table * weights).sum(axis=1)
    # Unknown user-defined aggregation: fall back to the reference rule.
    return np.array([aggregation.aggregate(row.tolist()) for row in scores_table])
