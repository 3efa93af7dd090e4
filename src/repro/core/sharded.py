"""Sharded greedy formation: million-user instances in bounded memory.

The greedy GRD skeleton has a property the dense engine never exploited: the
bucket key of a user depends only on *her own* top-k prefix, never on other
users.  Partitioning the user axis into contiguous shards therefore commutes
with step 1 of the algorithm — each shard can be ranked and bucketed
independently, and shard-level buckets with equal keys are *exactly* the
global intermediate groups once merged.
Step 2 (greedy selection under the ℓ-group budget) and step 3 (scoring,
budget filling, left-over group) then run once on the merged bucket
summaries, through the same
:func:`~repro.core.engine.finalise_plan` path as the in-memory engine.

Memory: ranking goes through :meth:`RatingStore.top_k
<repro.recsys.store.RatingStore.top_k>`, so a sparse shard is ranked
straight from its CSR rows and only the ``(n_users, k)`` top-k summaries are
dense; the left-over group is scored from its members' stored entries
(:meth:`~repro.recsys.store.SparseStore.item_scores`).  That is what lets a
1M-user x 10k-item sparse instance form groups in the memory of its stored
ratings where the dense matrix alone would need ~80 GB.

Objective-loss bound (documented contract, asserted by
``tests/core/test_sharded.py``):

* ``shards=1`` is **bit-identical** to ``FormationEngine.run`` on the same
  backend-independent result — same groups, objective and bookkeeping.
* For ``shards > 1`` the merge is exact at the bucket level, so the *only*
  possible deviation from the unsharded run is floating-point
  re-association when an AV variant's per-bucket member-contribution sums
  are folded across shards (LM variants share one contribution per bucket
  and are always bit-identical).  A perturbed sum can only swap the
  selection order of two buckets whose scores differ by less than the
  accumulated rounding error ``n_g · ε · max|contribution|`` (``n_g`` =
  bucket size, ``ε`` = machine epsilon); each swap changes the objective by
  at most the satisfaction gap of the swapped buckets, itself bounded by
  ``k · r_max``.  Hence ``|Obj_sharded − Obj_unsharded| ≤ ℓ · k · r_max``
  in the adversarial worst case — and **zero** (bit-identical) whenever
  ratings are integer-valued on the scale, as in every bundled dataset,
  because small-integer sums are exact in ``float64`` regardless of
  association.
* Left-over group scoring adds no deviation: a sparse store sums AV scores
  in its own order only behind an exactness gate (integer inputs, see
  :meth:`~repro.recsys.store.SparseStore.item_scores`) and keeps the dense
  reduction order for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import kernels
from repro.core.aggregation import Aggregation
from repro.core.engine import (
    FormationPlan,
    NumpyBackend,
    coerce_store,
    finalise_plan,
)
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

    Attributes
    ----------
    start:
        First global user index of the shard.
    keys:
        ``(n_buckets, width)`` packed ``uint64`` key rows (one per bucket,
        in key-sorted order) — comparing rows for equality is exactly the
        reference backend's byte-key equality.
    items_rows:
        ``(n_buckets, k)`` shared top-k item sequence of each bucket (the
        recommended list if the bucket is selected).
    reps:
        Global index of each bucket's first (smallest-index) member.
    scores:
        Bucket heap-score contribution of the shard: the full score for
        ``combine="first"`` variants, a partial sum for ``combine="sum"``.
    members:
        Per bucket, the ascending global user indices of the shard's
        members.
    contributions:
        ``(shard_size,)`` per-user personal aggregated top-k values, in
        shard-local user order.
    """

    start: int
    keys: np.ndarray
    items_rows: np.ndarray
    reps: np.ndarray
    scores: np.ndarray
    members: list[np.ndarray]
    contributions: np.ndarray


def summarise_store_shard(
    store: RatingStore,
    start: int,
    stop: int,
    k: int,
    variant: GreedyVariant,
) -> ShardSummary:
    """Rank, bucket and score users ``start:stop`` of a store.

    This is the per-shard unit of work shared by :class:`ShardedFormation`
    and the online :class:`~repro.service.FormationService` (which caches
    summaries per shard and recomputes only the shards whose users
    changed).  Ranking goes through :meth:`RatingStore.top_k
    <repro.recsys.store.RatingStore.top_k>`: a dense store ranks a view of
    its rows, a sparse store ranks straight from its CSR arrays without
    building a dense block.

    Parameters
    ----------
    store:
        Rating storage the shard is read from.
    start, stop:
        Global user range of the shard.
    k:
        Top-k prefix length of the run.
    variant:
        The greedy variant being executed.

    Returns
    -------
    ShardSummary
        The shard's bucket-level digest.
    """
    items_table, scores_table = store.top_k(slice(start, stop), k)
    return summarise_tables(items_table, scores_table, start, variant)


def merge_summaries(
    summaries: list[ShardSummary], combine: str
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """Merge shard bucket digests into the global intermediate groups.

    Shards must be in ascending user order; the stable key grouping
    (:func:`repro.core.kernels.group_key_rows`, collision-checked
    fingerprints) then keeps each merged bucket's constituents in shard
    order, so concatenated member arrays are ascending and the first
    constituent's representative is the global (smallest-index)
    representative — matching the unsharded engine.  The merged buckets'
    *enumeration order* is fingerprint order, which no consumer reads
    (selection totally orders buckets by ``(score, representative)``).

    Parameters
    ----------
    summaries:
        Per-shard digests in ascending user order.
    combine:
        The variant's combine rule — ``"first"`` (LM) or ``"sum"`` (AV).

    Returns
    -------
    tuple
        ``(scores, reps, members, items_rows)`` over the merged buckets.
    """
    all_keys = np.vstack([s.keys for s in summaries])
    bucket_scores = np.concatenate([s.scores for s in summaries])
    bucket_reps = np.concatenate([s.reps for s in summaries])
    bucket_members: list[np.ndarray] = [m for s in summaries for m in s.members]
    bucket_items = np.vstack([s.items_rows for s in summaries])

    n_total = all_keys.shape[0]
    order, new_segment = kernels.group_key_rows(all_keys)
    starts = np.flatnonzero(new_segment)
    ends = np.append(starts[1:], n_total)

    merged_scores = np.empty(starts.size, dtype=np.float64)
    merged_reps = np.empty(starts.size, dtype=np.int64)
    merged_members: list[np.ndarray] = []
    merged_items = np.empty((starts.size, bucket_items.shape[1]), dtype=np.int64)
    for b in range(starts.size):
        constituents = order[starts[b]:ends[b]]
        first = constituents[0]
        merged_reps[b] = bucket_reps[first]
        merged_items[b] = bucket_items[first]
        merged_members.append(
            np.concatenate([bucket_members[c] for c in constituents])
            if constituents.size > 1
            else bucket_members[first]
        )
        if combine == "sum":
            # Sequential fold in shard order: exact for integer-valued
            # ratings; see the module docstring for the general FP bound.
            total = 0.0
            for c in constituents:
                total += bucket_scores[c]
            merged_scores[b] = total
        else:
            merged_scores[b] = bucket_scores[first]
    return merged_scores, merged_reps, merged_members, merged_items


def plan_from_summaries(
    summaries: list[ShardSummary],
    variant: GreedyVariant,
    n_users: int,
    max_groups: int,
) -> tuple[FormationPlan, list[np.ndarray]]:
    """Merge shard summaries and greedily select under the group budget.

    Steps 2 of the algorithm over already-summarised shards: merge bucket
    digests exactly by key, pick the ``max_groups - 1`` best buckets
    (highest score first, ties by smallest representative — the engine's
    total order), and package the outcome as the backend-independent
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
        :func:`~repro.core.engine.finalise_plan`.
    """
    scores, reps, members, items_rows = merge_summaries(summaries, variant.combine)
    contributions = np.concatenate([s.contributions for s in summaries])

    n_buckets = scores.size
    n_select = min(max_groups - 1, n_buckets)
    chosen = np.lexsort((reps, -scores))[:n_select]
    selected = [
        (tuple(int(u) for u in members[b]), int(reps[b])) for b in chosen
    ]
    selected_mask = np.zeros(n_users, dtype=bool)
    for b in chosen:
        selected_mask[members[b]] = True
    remaining_users = [int(u) for u in np.flatnonzero(~selected_mask)]

    plan = FormationPlan(
        selected=selected,
        remaining_users=remaining_users,
        n_intermediate_groups=int(n_buckets),
        user_values=lambda users: contributions[np.asarray(users, dtype=np.int64)],
    )
    return plan, [items_rows[b] for b in chosen]


def form_from_summaries(
    store: RatingStore,
    summaries: list[ShardSummary],
    variant: GreedyVariant,
    max_groups: int,
    k: int,
    extra_extras: dict | None = None,
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

    Returns
    -------
    GroupFormationResult
        Same contract as ``FormationEngine.run`` (see the parity notes in
        the module docstring).
    """
    watch = Stopwatch()
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
    """Greedy formation over user shards with bounded peak memory.

    Parameters
    ----------
    shards:
        Number of contiguous user partitions (≥ 1).  Shards are
        summarised in-process, one after another.

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
        bounds = shard_bounds(n_users, self.shards)
        n_shards = bounds.size - 1

        watch = Stopwatch()
        with watch.lap("formation"):
            summaries = [
                summarise_store_shard(
                    store, int(bounds[shard]), int(bounds[shard + 1]), k, variant
                )
                for shard in range(n_shards)
            ]
            plan, selected_items_rows = plan_from_summaries(
                summaries, variant, n_users, max_groups
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
            extra_extras={
                "n_shards": int(n_shards),
                "store": type(store).__name__,
            },
        )


def summarise_tables(
    items_table: np.ndarray,
    scores_table: np.ndarray,
    start: int,
    variant: GreedyVariant,
) -> ShardSummary:
    """:func:`summarise_store_shard` for already-ranked top-k tables.

    This is how the serving layer summarises a shard straight from its
    incrementally maintained :class:`~repro.core.topk_index.MutableTopKIndex`
    slices — skipping densification and ranking entirely — which is
    bit-identical to summarising from the store because the index maintains
    build parity.

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
    # Pack once and reuse the matrix for both the grouping and the summary
    # keys (kernels.bucketize would pack a second time internally).
    packed = kernels.pack_key_rows(items_table, scores_table, variant.key_scores)
    n_users = items_table.shape[0]
    sorted_users, new_segment = kernels.group_key_rows(packed)
    starts = np.flatnonzero(new_segment)
    inverse = np.empty(n_users, dtype=np.int64)
    inverse[sorted_users] = np.cumsum(new_segment) - 1
    contributions = NumpyBackend._contributions(scores_table, variant.aggregation)
    n_buckets = starts.size
    ends = np.append(starts[1:], n_users)
    reps_local = sorted_users[starts]
    scores = kernels.bucket_reduce(
        inverse, contributions, n_buckets, variant.combine, reps_local
    )
    members = [
        sorted_users[starts[b]:ends[b]].astype(np.int64) + start
        for b in range(n_buckets)
    ]
    return ShardSummary(
        start=start,
        keys=packed[reps_local],
        items_rows=items_table[reps_local],
        reps=reps_local.astype(np.int64) + start,
        scores=scores,
        members=members,
        contributions=contributions,
    )
