"""Sharded greedy formation: million-user instances in bounded memory.

The greedy GRD skeleton has a property the dense engine never exploited: the
bucket key of a user depends only on *her own* top-k prefix, never on other
users.  Partitioning the user axis into contiguous shards therefore commutes
with step 1 of the algorithm — each shard can be ranked and bucketed
independently, and shard-level buckets with equal keys are *exactly* the
global intermediate groups once merged.
Step 2 (greedy selection under the ℓ-group budget) and step 3 (scoring,
budget filling, left-over group) then run once on the bucket summaries,
through the same :func:`~repro.core.engine.finalise_plan` path as the
in-memory engine.

This module is the one vectorised implementation of steps 1–2, with two
callers of different shape:

* **Batch** (:class:`ShardedFormation`) is one pass.  The users are ranked
  in shard-sized chunks into one ``(n_users, k)`` top-k table
  (:func:`summarise_store_shard`), the table is summarised once
  (:func:`summarise_tables`) and selected from directly
  (``plan_from_summaries([summary], ...)``) — the numpy engine backend's
  path, so nothing is merged.  ``shards`` only bounds the ranking chunks.
* **Serving** (:class:`~repro.service.FormationService`) caches one
  summary per shard of its top-k index and recomputes only the shards
  whose users changed; :func:`merge_summaries` folds them into the global
  buckets before selection.

A :class:`ShardSummary` stores bucket membership as flat segments — one
``member_ids`` array with each bucket's members contiguous and ascending,
cut by ``offsets`` — so summarise, merge and select run without a Python
loop over buckets: summarise buckets through
:func:`repro.core.kernels.bucketize`, merge groups the per-bucket key
rows with :func:`repro.core.kernels.group_key_rows` and gathers member
segments through ``np.repeat`` offsets, and select picks the ℓ − 1 best
buckets with :func:`repro.core.kernels.select_best_buckets` and slices
their segments out in selection order — the format the plan carries on
to step 3, where all selected groups are scored by one
:meth:`~repro.recsys.store.RatingStore.segment_item_scores` call.

Memory: ranking goes through :meth:`RatingStore.top_k
<repro.recsys.store.RatingStore.top_k>`, so a sparse store is ranked
straight from its CSR rows and only the ``(n_users, k)`` top-k tables are
dense; the left-over group is scored from its members' stored entries
(:meth:`~repro.recsys.store.SparseStore.item_scores`).  That is what lets a
1M-user x 10k-item sparse instance form groups in the memory of its stored
ratings where the dense matrix alone would need ~80 GB.

Parity contract (asserted by ``tests/core/test_sharded.py``):

* Batch runs are **bit-identical** to ``FormationEngine.run`` and to the
  ``reference`` backend for every shard count and every rating alphabet,
  fractional ratings included — same groups, objective and bookkeeping —
  because ranking is row-independent and everything after it sees one
  table.
* Only the service's merged summaries may deviate, and only for AV
  variants on fractional ratings: the merge folds per-shard partial sums
  (``0.0 + s0 + s1 + ...``), which re-associates the bucket's
  member-contribution sum.  A perturbed sum can only swap the selection
  order of two buckets whose scores differ by less than the accumulated
  rounding error ``n_g · ε · max|contribution|`` (``n_g`` = bucket size,
  ``ε`` = machine epsilon); each swap changes the objective by at most the
  satisfaction gap of the swapped buckets, itself bounded by ``k ·
  r_max``, so ``|Obj_merged − Obj_unsharded| ≤ ℓ · k · r_max``.  LM
  variants share one contribution per bucket, and small-integer sums are
  exact in ``float64`` regardless of association, so both stay
  bit-identical.
* Left-over group scoring adds no deviation: a sparse store sums AV scores
  in its own order only behind an exactness gate (integer inputs, see
  :meth:`~repro.recsys.store.SparseStore.item_scores`) and keeps the dense
  reduction order for everything else.
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
from repro.core.engine import FormationPlan, coerce_store, finalise_plan
from repro.core.greedy_framework import GreedyVariant, make_variant
from repro.core.grouping import GroupFormationResult
from repro.core.semantics import Semantics
from repro.recsys.matrix import RatingMatrix
from repro.recsys.store import RatingStore
from repro.utils.timing import Stopwatch
from repro.utils.validation import require_positive_int
from repro.core.errors import GroupFormationError

__all__ = [
    "ShardedFormation",
    "ShardSummary",
    "form_from_summaries",
    "merge_summaries",
    "plan_from_summaries",
    "shard_bounds",
    "summarise_store_shard",
    "summarise_tables",
]


def shard_bounds(n_users: int, shards: int) -> np.ndarray:
    """Contiguous shard boundaries over the user axis.

    Parameters
    ----------
    n_users:
        Total number of users being partitioned.
    shards:
        Requested shard count (capped at ``n_users``).

    Returns
    -------
    numpy.ndarray
        ``int64`` array of ``min(shards, n_users) + 1`` boundaries;
        shard ``s`` covers users ``bounds[s]:bounds[s + 1]``.
    """
    n_shards = min(shards, n_users)
    return np.linspace(0, n_users, n_shards + 1).astype(np.int64)


@dataclass
class ShardSummary:
    """Bucket-level digest of one user shard (step 1 output).

    Bucket membership is one flat segment array, not a list per bucket:
    bucket ``b``'s members are ``member_ids[offsets[b]:offsets[b + 1]]``.

    Attributes
    ----------
    start:
        First global user index of the shard.
    items_rows:
        ``(n_buckets, k)`` shared top-k item sequence of each bucket (the
        recommended list if the bucket is selected).
    rep_scores:
        ``(n_buckets, k)`` top-k scores of each bucket's representative.
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

    start: int
    items_rows: np.ndarray
    rep_scores: np.ndarray
    key_scores: str
    reps: np.ndarray
    scores: np.ndarray
    member_ids: np.ndarray
    offsets: np.ndarray
    contributions: np.ndarray

    @cached_property
    def keys(self) -> np.ndarray:
        """``(n_buckets, width)`` packed ``uint64`` key rows, one per bucket.

        Packed from the representatives' rows on first use — only
        :func:`merge_summaries` reads them.  Comparing rows for equality
        is exactly the reference backend's byte-key equality.
        """
        return kernels.pack_key_rows(self.items_rows, self.rep_scores, self.key_scores)


def summarise_store_shard(
    store: RatingStore,
    start: int,
    stop: int,
    k: int,
    variant: GreedyVariant,
    chunks: int = 1,
) -> ShardSummary:
    """Rank, bucket and score users ``start:stop`` of a store.

    The users are ranked through :meth:`RatingStore.top_k
    <repro.recsys.store.RatingStore.top_k>` in ``chunks`` contiguous
    blocks written into one ``(stop - start, k)`` table, which is then
    summarised once by :func:`summarise_tables`.  A dense store ranks a
    view of its rows, a sparse store ranks straight from its CSR arrays;
    the chunks only bound the ranking kernel's temporaries (the numpy
    fallback's scratch grows with the rows it ranks at once).

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
    chunks:
        Number of ranking blocks (capped at the user count).

    Returns
    -------
    ShardSummary
        The range's bucket-level digest.
    """
    bounds = shard_bounds(stop - start, chunks).tolist()
    items_table = np.empty((stop - start, k), dtype=np.int64)
    scores_table = np.empty((stop - start, k), dtype=np.float64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        items_table[lo:hi], scores_table[lo:hi] = store.top_k(
            slice(start + lo, start + hi), k
        )
    return summarise_tables(items_table, scores_table, start, variant)


def merge_summaries(
    summaries: list[ShardSummary], combine: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge shard bucket digests into the global intermediate groups.

    The key rows (:attr:`ShardSummary.keys`, packed here on first use)
    are concatenated and grouped by
    :func:`repro.core.kernels.group_key_rows` (collision-checked
    fingerprints), and the members are gathered segment by segment.
    Shards must be in ascending user order; the stable grouping then keeps
    each merged bucket's constituents in shard order, so its gathered
    members are ascending and its first constituent's representative is
    the global (smallest-index) representative — matching the unsharded
    engine.  The merged buckets' *enumeration order* is fingerprint order,
    which no consumer reads (selection totally orders buckets by
    ``(score, representative)``).

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
        # module docstring for the general FP bound.
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


def plan_from_summaries(
    summaries: list[ShardSummary],
    variant: GreedyVariant,
    n_users: int,
    max_groups: int,
) -> tuple[FormationPlan, list[np.ndarray]]:
    """Merge shard summaries and greedily select under the group budget.

    Step 2 of the algorithm over already-summarised shards: merge bucket
    digests exactly by key (:func:`merge_summaries`; a single summary is
    already global and is read as is), pick the ``max_groups - 1`` best
    buckets (:func:`repro.core.kernels.select_best_buckets`: highest score
    first, ties by smallest representative — the reference heap's total
    order), and package the outcome as the backend-independent
    :class:`~repro.core.engine.FormationPlan`.

    Parameters
    ----------
    summaries:
        Per-shard digests in ascending user order (one per shard).
    variant:
        The greedy variant being executed.
    n_users:
        Total user count covered by the summaries.
    max_groups:
        Group budget ℓ.

    Returns
    -------
    tuple
        ``(plan, selected_items_rows)`` ready for
        :func:`~repro.core.engine.finalise_plan`: the plan carries the
        chosen groups as flat segments in selection order, and
        ``selected_items_rows`` is their ``(n_selected, k)`` item rows.
    """
    if len(summaries) == 1:
        # One summary is already global: nothing to merge.
        only = summaries[0]
        scores, reps, member_ids, offsets, items_rows = (
            only.scores, only.reps, only.member_ids, only.offsets, only.items_rows
        )
        contributions = only.contributions
    else:
        scores, reps, member_ids, offsets, items_rows = merge_summaries(
            summaries, variant.combine
        )
        contributions = np.concatenate([s.contributions for s in summaries])

    n_buckets = scores.size
    chosen = kernels.select_best_buckets(scores, reps, max_groups - 1)
    n_select = chosen.size
    # Slice the chosen segments out, in selection order.
    sizes = np.diff(offsets)[chosen]
    selected_offsets = np.zeros(n_select + 1, dtype=np.int64)
    np.cumsum(sizes, out=selected_offsets[1:])
    selected_ids = member_ids[kernels.segment_positions(offsets[chosen], sizes)]
    selected_mask = np.zeros(n_users, dtype=bool)
    selected_mask[selected_ids] = True

    remaining = np.flatnonzero(~selected_mask)
    plan = FormationPlan(
        member_ids=selected_ids,
        offsets=selected_offsets,
        reps=reps[chosen],
        remaining_users=remaining,
        remaining_values=contributions[remaining],
        n_intermediate_groups=int(n_buckets),
        n_users=n_users,
    )
    return plan, items_rows[chosen]


def form_from_summaries(
    store: RatingStore,
    summaries: list[ShardSummary],
    variant: GreedyVariant,
    max_groups: int,
    k: int,
    extra_extras: dict | None = None,
    watch: Stopwatch | None = None,
) -> GroupFormationResult:
    """Run steps 2–3 over prepared shard summaries and score the result.

    The entry point the online serving layer uses: shard summaries may be
    freshly computed or recycled from a cache (only shards whose users
    changed need recomputation), and this function turns whatever mix it
    is given into a final scored :class:`GroupFormationResult` through the
    exact :func:`~repro.core.engine.finalise_plan` path of the engine.

    Parameters
    ----------
    store:
        Rating storage used to score the selected groups.
    summaries:
        Per-shard digests in ascending user order covering every user.
    variant:
        The greedy variant being executed.
    max_groups:
        Group budget ℓ.
    k:
        Top-k prefix length of the run.
    extra_extras:
        Extra bookkeeping merged into the result's ``extras``.
    watch:
        Stopwatch already carrying time spent on the summaries (a fresh
        one when omitted); step 2 is added to its formation lap.

    Returns
    -------
    GroupFormationResult
        Same contract as ``FormationEngine.run`` (see the parity notes in
        the module docstring).
    """
    watch = Stopwatch() if watch is None else watch
    with watch.lap("formation"):
        plan, selected_items_rows = plan_from_summaries(
            summaries, variant, store.shape[0], max_groups
        )
    return finalise_plan(
        store,
        plan,
        selected_items_rows,
        k,
        variant,
        max_groups,
        watch,
        backend_name="numpy",
        extra_extras=extra_extras,
    )


class ShardedFormation:
    """Greedy formation over a store, ranked in bounded user chunks.

    One pass: the users are ranked ``shards`` contiguous chunks at a time
    into one ``(n_users, k)`` top-k table
    (:func:`summarise_store_shard`), which is summarised once and fed to
    the same selection and scoring as the unsharded engine — so results
    are bit-identical to ``FormationEngine`` for every shard count.

    Parameters
    ----------
    shards:
        Number of contiguous ranking chunks (≥ 1).  They bound the ranking
        kernel's temporaries, never the result.

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
        self.shards = require_positive_int(shards, "shards")

    def run(
        self,
        ratings: RatingStore | RatingMatrix | np.ndarray,
        max_groups: int,
        k: int,
        semantics: Semantics | str = "lm",
        aggregation: Aggregation | str = "min",
    ) -> GroupFormationResult:
        """Run one greedy formation through the sharded path.

        Parameters
        ----------
        ratings:
            A complete array, :class:`~repro.recsys.matrix.RatingMatrix`,
            or any :class:`~repro.recsys.store.RatingStore`.
        max_groups:
            Group budget ℓ.
        k:
            Recommended-list length.
        semantics:
            ``"lm"`` / ``"av"`` or a :class:`~repro.core.semantics.Semantics`.
        aggregation:
            ``"min"`` / ``"max"`` / ``"sum"`` / a weighted-sum name, or an
            :class:`~repro.core.aggregation.Aggregation` instance.

        Returns
        -------
        GroupFormationResult
            See the module docstring for the parity guarantees versus the
            unsharded engine.
        """
        return self.run_variant(
            ratings, max_groups, k, make_variant(semantics, aggregation)
        )

    def run_variant(
        self,
        ratings: RatingStore | RatingMatrix | np.ndarray,
        max_groups: int,
        k: int,
        variant: GreedyVariant,
    ) -> GroupFormationResult:
        """Run one prebuilt variant through the sharded path.

        Parameters
        ----------
        ratings:
            A complete array, :class:`~repro.recsys.matrix.RatingMatrix`,
            or any :class:`~repro.recsys.store.RatingStore`.
        max_groups:
            Group budget ℓ.
        k:
            Recommended-list length.
        variant:
            A prebuilt :class:`~repro.core.greedy_framework.GreedyVariant`.

        Returns
        -------
        GroupFormationResult
            See the module docstring for the parity guarantees.
        """
        store = coerce_store(ratings)
        n_users, n_items = store.shape
        max_groups = require_positive_int(max_groups, "max_groups")
        k = require_positive_int(k, "k")
        if k > n_items:
            raise GroupFormationError(
                f"k={k} exceeds the number of items ({n_items})"
            )
        n_shards = min(self.shards, n_users)

        watch = Stopwatch()
        with watch.lap("formation"):
            summary = summarise_store_shard(
                store, 0, n_users, k, variant, chunks=n_shards
            )
        return form_from_summaries(
            store,
            [summary],
            variant,
            max_groups,
            k,
            extra_extras={
                "n_shards": int(n_shards),
                "store": type(store).__name__,
            },
            watch=watch,
        )


def summarise_tables(
    items_table: np.ndarray,
    scores_table: np.ndarray,
    start: int,
    variant: GreedyVariant,
) -> ShardSummary:
    """Bucket and score already-ranked top-k tables (step 1).

    :func:`summarise_store_shard` ends here, the numpy engine backend
    summarises its whole table here, and the serving layer summarises
    each shard straight from its incrementally maintained
    :class:`~repro.core.topk_index.MutableTopKIndex` slices — skipping
    ranking entirely — which is bit-identical to summarising from the
    store because the index maintains build parity.  The packed key rows
    a merge needs are left to :attr:`ShardSummary.keys`.

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
        start=start,
        # np.take gathers whole rows several times faster than fancy
        # indexing does.
        items_rows=np.take(items_table, reps_local, axis=0),
        rep_scores=np.take(scores_table, reps_local, axis=0),
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
