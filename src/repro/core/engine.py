"""Vectorised batch formation engine with pluggable backends.

This module is the execution layer of the greedy group-formation algorithms
(paper §4, §5).  The algorithm *definition* — hashing key, per-user
contribution, combine rule — lives in
:class:`~repro.core.greedy_framework.GreedyVariant`; this engine decides *how*
the three-step skeleton is executed:

``"reference"``
    The loop-based implementation the library shipped with: per-user dict
    hashing of bucket keys and a heap over intermediate-group scores.  It is
    the executable specification the other backends are tested against.
``"numpy"``
    The vectorised implementation of the same specification, run through
    :mod:`repro.core.sharded`: all users are summarised at once
    (fingerprint bucketing with :func:`repro.core.kernels.bucketize`,
    bucket membership as one flat ``member_ids``/``offsets`` segment array,
    heap scores from one ``np.bincount`` in the reference's ascending-user
    order) and selected by :func:`~repro.core.sharded.plan_from_summaries`.
    The engine keeps no bucketing or selection code of its own, so steps
    1–2 have one vectorised implementation shared with the service.  Its
    results are bit-identical to the reference backend — the parity suite
    in ``tests/core/test_engine.py`` asserts this on randomised, tie-heavy
    instances for every GRD variant, and ``tests/core/test_kernels.py``
    checks each kernel path against the specification.

Rating data reaches the engine through the
:class:`~repro.recsys.store.RatingStore` interface (a raw complete array or
:class:`~repro.recsys.matrix.RatingMatrix` is wrapped in a
:class:`~repro.recsys.store.DenseStore`; a
:class:`~repro.recsys.store.SparseStore` is ranked and scored straight from
its CSR arrays without ever densifying the full matrix), and each user's
ranked prefix comes from a
:class:`~repro.core.topk_index.TopKIndex` — built on demand, or passed in to
be shared across runs.  :meth:`FormationEngine.run_many` builds **one** index
at the sweep's largest ``k`` and slices it per configuration, so a
``(k, ℓ, semantics, aggregation)`` sweep computes rankings exactly once,
and the numpy backend memoises each ``(k, variant)`` summary across it.

Both backends share one finalisation path (greedy selection outcome → groups,
budget filling, left-over group), so they can only differ in how intermediate
groups are discovered, never in how groups are scored.  The service's reads
end in the same finalisation.

Examples
--------
>>> import numpy as np
>>> from repro.core.engine import FormationEngine, FormationConfig
>>> ratings = np.array(
...     [[1, 4, 3], [2, 3, 5], [2, 5, 1], [2, 5, 1], [3, 1, 1], [1, 2, 5]],
...     dtype=float,
... )
>>> engine = FormationEngine(backend="numpy")
>>> engine.run(ratings, max_groups=3, k=1, semantics="lm",
...            aggregation="min").objective
11.0
>>> configs = [FormationConfig(max_groups=3, k=1, semantics=s, aggregation="min")
...            for s in ("lm", "av")]
>>> [round(r.objective, 1) for r in engine.run_many(ratings, configs)]
[11.0, 27.0]
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core.errors import GroupFormationError
from repro.core.greedy_framework import (
    GreedyVariant,
    as_complete_values,
    make_variant,
    variant_token,
)
from repro.core.group_recommender import group_satisfaction
from repro.core.grouping import GroupFormationResult, build_group
from repro.core.preferences import _top_k_table_sorted
from repro.core.semantics import Semantics
from repro.core.topk_index import TopKIndex
from repro.recsys.matrix import RatingMatrix
from repro.recsys.store import DenseStore, RatingStore
from repro.utils.timing import Stopwatch
from repro.utils.validation import require_positive_int

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FormationBackend",
    "FormationConfig",
    "FormationEngine",
    "FormationPlan",
    "NumpyBackend",
    "ReferenceBackend",
    "coerce_store",
    "finalise_plan",
    "get_backend",
]


@dataclass(frozen=True)
class FormationConfig:
    """One greedy group-formation setting inside a batch sweep.

    Attributes
    ----------
    max_groups:
        Group budget ℓ.
    k:
        Length of the recommended top-k list per group.
    semantics:
        ``"lm"`` / ``"av"`` or a :class:`~repro.core.semantics.Semantics`.
    aggregation:
        ``"min"`` / ``"max"`` / ``"sum"`` / a weighted-sum name, or an
        :class:`~repro.core.aggregation.Aggregation` instance.
    """

    max_groups: int
    k: int
    semantics: Semantics | str = "lm"
    aggregation: Aggregation | str = "min"


@dataclass
class FormationPlan:
    """Backend-independent outcome of the formation steps (1 and 2).

    The selected groups are flat segments, the format bucketing and
    merging already use: group ``g`` is
    ``member_ids[offsets[g]:offsets[g + 1]]``.  User ids index the tables
    the plan was formed on; :meth:`remapped` carries a plan formed on a
    restricted index over to the ids of the full store.

    Attributes
    ----------
    member_ids:
        ``int64`` members of the greedily selected intermediate groups,
        best group first, each group's members contiguous and in
        ascending table order.
    offsets:
        ``(n_selected + 1,)`` segment boundaries into ``member_ids``.
    reps:
        ``(n_selected,)`` representative user of each selected group; its
        top-k row is the group's recommended list.
    remaining_users:
        ``int64`` users merged into the left-over ℓ-th group, in ascending
        table order (empty when every intermediate group was selected).
    remaining_values:
        Personal top-k contribution of each of ``remaining_users`` (used
        for the left-over group's pseudocode score).
    n_intermediate_groups:
        Number of distinct bucket keys found in step 1.
    n_users:
        Number of users the plan partitions; budget filling forms at most
        this many groups.
    """

    member_ids: np.ndarray
    offsets: np.ndarray
    reps: np.ndarray
    remaining_users: np.ndarray
    remaining_values: np.ndarray
    n_intermediate_groups: int
    n_users: int

    def remapped(self, users: np.ndarray) -> "FormationPlan":
        """This plan with every table-row id ``u`` replaced by ``users[u]``.

        One fancy index per id array; segment order and the member order
        inside each segment are kept, so a store scoring the remapped
        groups gathers their rows in the order the restricted tables gave
        them, and sums round exactly as on the gathered rows.

        Parameters
        ----------
        users:
            ``int64`` global id of each row of the tables the plan was
            formed on.
        """
        return replace(
            self,
            member_ids=users[self.member_ids],
            reps=users[self.reps],
            remaining_users=users[self.remaining_users],
        )


class FormationBackend(ABC):
    """Strategy interface: how the formation hot path is executed.

    A backend supplies the bucketing/selection steps and the kernel its
    indexes are ranked with; everything downstream (scoring the selected
    groups, budget filling, the left-over group) is shared engine code,
    which guarantees backends can only disagree on speed, never on results.
    """

    #: Canonical backend name (``"reference"`` / ``"numpy"``).
    name: str = "abstract"

    #: The ``table_fn`` the engine builds indexes with; ``None`` lets the
    #: store rank itself (:meth:`~repro.recsys.store.RatingStore.top_k` —
    #: the CSR kernel on a sparse store).  Every kernel is bit-identical.
    index_kernel: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]] | None = None

    @abstractmethod
    def form(
        self,
        items_table: np.ndarray,
        scores_table: np.ndarray,
        variant: GreedyVariant,
        max_groups: int,
        cache: dict[Any, Any] | None = None,
    ) -> FormationPlan:
        """Bucket users and greedily select the ``max_groups - 1`` best buckets.

        ``items_table`` / ``scores_table`` are a ``TopKIndex`` slice for the
        run's ``k``; ``variant`` supplies the bucket key and contribution
        rules.  ``cache`` (when provided by
        :meth:`FormationEngine.run_many`) lets the backend reuse work shared
        between configurations of a batch; it may be ignored.
        """


class ReferenceBackend(FormationBackend):
    """The original loop-based implementation, preserved as the specification.

    Indexes are ranked by the naive full stable sort; step 1 hashes every
    user with a per-user Python loop over ``variant.key_fn`` /
    ``variant.user_value_fn``; step 2 pops a heap of ``(-score,
    representative, key)`` tuples.  Kept deliberately simple — the numpy
    backend is validated against it bit for bit.
    """

    name = "reference"
    index_kernel = staticmethod(_top_k_table_sorted)

    def form(
        self,
        items_table: np.ndarray,
        scores_table: np.ndarray,
        variant: GreedyVariant,
        max_groups: int,
        cache: dict[Any, Any] | None = None,
    ) -> FormationPlan:
        """Bucket and select via the per-user dict/heap loop (``cache`` unused).

        See :meth:`FormationBackend.form` for the meaning of
        ``items_table`` / ``scores_table`` / ``variant`` / ``max_groups``.
        """
        n_users = items_table.shape[0]

        # Step 1: intermediate groups — hash users on the variant's key.
        buckets: dict[bytes, list[int]] = {}
        bucket_scores: dict[bytes, float] = {}
        bucket_rep: dict[bytes, int] = {}
        for user in range(n_users):
            items_row = items_table[user]
            scores_row = scores_table[user]
            key = variant.key_fn(items_row, scores_row)
            contribution = variant.user_value_fn(scores_row)
            if key not in buckets:
                buckets[key] = [user]
                bucket_rep[key] = user
                bucket_scores[key] = contribution
            else:
                buckets[key].append(user)
                if variant.combine == "sum":
                    bucket_scores[key] += contribution
                # combine == "first": all members share the same contribution.

        # Step 2: greedily select the (ℓ - 1) intermediate groups with the
        # highest scores.  Ties break on the smallest representative user
        # index for determinism.
        heap = [
            (-bucket_scores[key], bucket_rep[key], key) for key in buckets
        ]
        heapq.heapify(heap)
        selected_keys: list[bytes] = []
        while heap and len(selected_keys) < max_groups - 1:
            _, _, key = heapq.heappop(heap)
            selected_keys.append(key)
        remaining_users = sorted(
            user for _, _, key in heap for user in buckets[key]
        )
        selected = [sorted(buckets[key]) for key in selected_keys]
        offsets = np.zeros(len(selected) + 1, dtype=np.int64)
        np.cumsum([len(members) for members in selected], out=offsets[1:])

        return FormationPlan(
            member_ids=np.array(
                [user for members in selected for user in members], dtype=np.int64
            ),
            offsets=offsets,
            reps=np.array([bucket_rep[key] for key in selected_keys], dtype=np.int64),
            remaining_users=np.array(remaining_users, dtype=np.int64),
            remaining_values=np.array(
                [variant.user_value_fn(scores_table[user]) for user in remaining_users]
            ),
            n_intermediate_groups=len(buckets),
            n_users=n_users,
        )


class NumpyBackend(FormationBackend):
    """Vectorised backend: steps 1–2 through :mod:`repro.core.sharded`.

    Steps 1–2 run as one summary of the whole table
    (:func:`~repro.core.sharded.summarise_tables`: fingerprint bucketing
    with :func:`repro.core.kernels.bucketize`, flat member segments) fed to
    :func:`~repro.core.sharded.plan_from_summaries`, so batch formation and
    the service share one vectorised implementation.  Bit-identical to
    :class:`ReferenceBackend` by construction:

    * bucket keys compare raw ``uint64`` bit patterns of the same columns the
      reference concatenates into its byte keys, so float equality semantics
      match ``bytes`` equality exactly;
    * summed bucket scores are accumulated by ``np.bincount`` in ascending
      user order — the same sequential order as the reference dict loop —
      so floating-point results carry the same rounding;
    * selection orders buckets by ``(score descending, representative)``,
      the reference heap's total order.
    """

    name = "numpy"

    def form(
        self,
        items_table: np.ndarray,
        scores_table: np.ndarray,
        variant: GreedyVariant,
        max_groups: int,
        cache: dict[Any, Any] | None = None,
    ) -> FormationPlan:
        """Summarise all users at once, then select from that summary.

        See :meth:`FormationBackend.form` for the meaning of
        ``items_table`` / ``scores_table`` / ``variant`` / ``max_groups``;
        ``cache`` shares the summary across a :meth:`FormationEngine.run_many`
        sweep, keyed by ``(k, variant_token(variant))``.
        """
        # Looked up at call time: repro.core.sharded imports this module.
        from repro.core import sharded

        key = (items_table.shape[1], variant_token(variant))
        summary = None if cache is None else cache.get(key)
        if summary is None:
            summary = sharded.summarise_tables(items_table, scores_table, 0, variant)
            if cache is not None:
                cache[key] = summary
        plan, _ = sharded.plan_from_summaries(summary, max_groups)
        return plan


_BACKENDS: dict[str, type[FormationBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    NumpyBackend.name: NumpyBackend,
}

#: Names accepted by :func:`get_backend` and the ``--backend`` CLI flag.
BACKENDS: tuple[str, ...] = tuple(sorted(_BACKENDS))

#: Backend used when none is requested explicitly.
DEFAULT_BACKEND = "numpy"


def get_backend(name: str | FormationBackend | None = None) -> FormationBackend:
    """Resolve a backend name (or instance) to a :class:`FormationBackend`.

    ``None`` selects :data:`DEFAULT_BACKEND`.

    Examples
    --------
    >>> get_backend("reference").name
    'reference'
    >>> get_backend(None).name
    'numpy'
    """
    if isinstance(name, FormationBackend):
        return name
    key = DEFAULT_BACKEND if name is None else str(name).strip().lower()
    if key not in _BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown formation backend {name!r}; expected one of: {known}")
    return _BACKENDS[key]()


def coerce_store(ratings: RatingStore | RatingMatrix | np.ndarray) -> RatingStore:
    """Coerce formation input into a validated :class:`RatingStore`.

    Dense inputs (arrays, :class:`RatingMatrix`) go through
    :func:`~repro.core.greedy_framework.as_complete_values`, preserving the
    historical :class:`~repro.core.errors.GroupFormationError` diagnostics
    for missing / non-finite ratings; stores (which validated completeness at
    construction) pass through untouched.
    """
    if isinstance(ratings, (DenseStore,)) or (
        not isinstance(ratings, (RatingMatrix, np.ndarray, list, tuple))
        and isinstance(ratings, RatingStore)
    ):
        return ratings
    values = as_complete_values(ratings)
    scale = ratings.scale if isinstance(ratings, RatingMatrix) else None
    return DenseStore(values, scale=scale, validate=False)


def _validate_index(topk: TopKIndex, store: RatingStore, k: int) -> None:
    """Check a caller-provided index matches the instance and covers ``k``."""
    n_users, n_items = store.shape
    if topk.n_users != n_users or topk.n_items != n_items:
        raise GroupFormationError(
            f"top-k index shape ({topk.n_users} users, {topk.n_items} items) does "
            f"not match the rating data ({n_users} users, {n_items} items)"
        )
    if k > topk.k_max:
        raise GroupFormationError(
            f"k={k} exceeds the index's k_max ({topk.k_max}); rebuild the "
            f"TopKIndex with a larger k_max"
        )


def finalise_plan(
    store: RatingStore,
    plan: FormationPlan,
    selected_items_rows: np.ndarray,
    k: int,
    variant: GreedyVariant,
    max_groups: int,
    watch: Stopwatch,
    backend_name: str,
    extra_extras: dict[str, Any] | None = None,
) -> GroupFormationResult:
    """Turn a :class:`FormationPlan` into the final scored result.

    This is the single path shared by every execution strategy (both
    backends and the service): score the selected groups on their
    recommended lists, fill the group budget by splitting homogeneous
    groups, and merge the remaining users into the left-over ℓ-th group.

    Parameters
    ----------
    store:
        Rating storage used to score groups, indexed by the plan's user
        ids: the store the plan was formed on, or the full store for a
        :meth:`FormationPlan.remapped` subset plan (the group budget is
        capped at ``plan.n_users``, never the store's size).  The
        selected groups are scored together by one
        :meth:`~repro.recsys.store.RatingStore.segment_item_scores` call
        (only their ``(members, k)`` cells are read); the left-over group
        is scored by :meth:`~repro.recsys.store.RatingStore.item_scores`.
    plan:
        The backend's selection outcome.
    selected_items_rows:
        ``(n_selected, k)`` recommended top-``k`` item rows, row ``g``
        belonging to the plan's selected group ``g``.
    k:
        Recommended-list length.
    variant:
        The greedy variant being executed.
    max_groups:
        Group budget ℓ.
    watch:
        Stopwatch carrying the formation lap; the recommendation lap is
        added here.
    backend_name:
        Recorded in the result's ``extras``.
    extra_extras:
        Additional bookkeeping merged into ``extras``.

    Returns
    -------
    GroupFormationResult
        The fully scored formation outcome.
    """
    items_rows = np.asarray(selected_items_rows, dtype=np.int64).reshape(-1, k)
    aggregate = variant.aggregation.aggregate
    member_ids, offsets = plan.member_ids, plan.offsets

    with watch.lap("recommendation"):
        # One vectorised reduction scores every selected group, each
        # bit-identical to build_group on its own.
        scores = store.segment_item_scores(
            member_ids, offsets, items_rows, variant.semantics
        )
        satisfactions = [aggregate(row) for row in scores.tolist()]

        remaining = plan.remaining_users
        if not remaining.size:
            member_ids, offsets, items_rows, scores, satisfactions = _fill_budget(
                store, member_ids, offsets, items_rows, scores, satisfactions,
                min(max_groups, plan.n_users), variant,
            )

        last_group_pseudocode_score = None
        if remaining.size:
            items, left_scores, satisfaction = group_satisfaction(
                store, remaining, k, variant.semantics, variant.aggregation
            )
            member_ids = np.concatenate([member_ids, remaining])
            offsets = np.append(offsets, member_ids.size)
            items_rows = np.vstack([items_rows, [items]])
            scores = np.vstack([scores, [left_scores]])
            satisfactions.append(satisfaction)
            # The score Algorithm 1 (line 18) would assign: aggregate
            # each remaining user's *personal* top-k scores, then combine
            # per the semantics (min across users for LM, sum for AV).
            personal = plan.remaining_values
            if variant.semantics is Semantics.LEAST_MISERY:
                last_group_pseudocode_score = float(personal.min())
            else:
                last_group_pseudocode_score = float(personal.sum())

    extras = {
        "n_intermediate_groups": plan.n_intermediate_groups,
        "last_group_pseudocode_score": last_group_pseudocode_score,
        "formation_seconds": watch.laps.get("formation", 0.0),
        "recommendation_seconds": watch.laps.get("recommendation", 0.0),
        "backend": backend_name,
    }
    if extra_extras:
        extras.update(extra_extras)
    return GroupFormationResult.from_segments(
        member_ids,
        offsets,
        items_rows,
        scores,
        satisfactions,
        algorithm=variant.name,
        semantics=variant.semantics,
        aggregation=variant.aggregation,
        k=k,
        max_groups=max_groups,
        extras=extras,
    )


def _fill_budget(
    store: RatingStore,
    member_ids: np.ndarray,
    offsets: np.ndarray,
    items_rows: np.ndarray,
    scores: np.ndarray,
    satisfactions: list[float],
    target_groups: int,
    variant: GreedyVariant,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Split selected groups until ``target_groups`` groups exist.

    Runs when every intermediate group was selected (no users remain for
    an ℓ-th group) and fewer than ``min(ℓ, n)`` groups exist.  The paper
    observes that "Obj is maximized when all ℓ groups are formed" and
    Theorem 2's domination argument assumes ℓ greedy groups exist;
    because every member of a selected group shares the key the group
    was hashed on, splitting never lowers a group's LM satisfaction and
    preserves the summed AV satisfaction, so this step only helps.  Each
    split takes the most satisfied splittable group, keeps all but its
    last member in place and appends the last member as a new group on
    the same list, both rescored by :func:`build_group`.

    Returns
    -------
    tuple
        The new ``(member_ids, offsets, items_rows, scores,
        satisfactions)``; the inputs themselves when nothing splits.
    """
    if len(satisfactions) >= target_groups:
        return member_ids, offsets, items_rows, scores, satisfactions
    bounds = offsets.tolist()
    groups = [
        [members, items, group_scores, satisfaction]
        for members, items, group_scores, satisfaction in zip(
            [member_ids[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])],
            items_rows.tolist(), scores.tolist(), satisfactions,
        )
    ]
    while len(groups) < target_groups:
        splittable = [i for i, group in enumerate(groups) if len(group[0]) > 1]
        if not splittable:
            break
        source = groups[max(splittable, key=lambda i: groups[i][3])]
        members, items = source[0], source[1]
        for part, slot in ((members[:-1], source), (members[-1:], None)):
            scored = build_group(
                store, part, items, variant.semantics, variant.aggregation
            )
            rescored = [part, items, list(scored.item_scores), scored.satisfaction]
            if slot is None:
                groups.append(rescored)
            else:
                slot[:] = rescored
    sizes = [len(group[0]) for group in groups]
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return (
        np.array([user for group in groups for user in group[0]], dtype=np.int64),
        offsets,
        np.array([group[1] for group in groups], dtype=np.int64),
        np.array([group[2] for group in groups], dtype=np.float64),
        [group[3] for group in groups],
    )


class FormationEngine:
    """Runs greedy group formation through a selected backend.

    Parameters
    ----------
    backend:
        ``"reference"``, ``"numpy"`` (default), or a
        :class:`FormationBackend` instance.

    Notes
    -----
    The engine owns everything backends must agree on: input validation,
    timing, scoring of the selected groups, budget filling and the left-over
    group.  Backends only implement the formation hot path, which is why a
    backend switch can never change results, only runtimes.

    Ratings may be a complete array, a :class:`RatingMatrix`, or any
    :class:`~repro.recsys.store.RatingStore` (dense or sparse).  Every run
    method accepts an optional prebuilt
    :class:`~repro.core.topk_index.TopKIndex` so the ranking artifact can be
    shared across engines, algorithms and processes.
    """

    def __init__(self, backend: str | FormationBackend | None = None) -> None:
        self.backend = get_backend(backend)

    def run(
        self,
        ratings: RatingStore | RatingMatrix | np.ndarray,
        max_groups: int,
        k: int,
        semantics: Semantics | str = "lm",
        aggregation: Aggregation | str = "min",
        topk: TopKIndex | None = None,
    ) -> GroupFormationResult:
        """Run one greedy formation (see :func:`repro.core.greedy_framework.run_greedy`).

        Parameters
        ----------
        ratings:
            A complete array, :class:`RatingMatrix`, or any
            :class:`~repro.recsys.store.RatingStore`.
        max_groups:
            Group budget ℓ.
        k:
            Recommended-list length.
        semantics:
            ``"lm"`` / ``"av"`` or a :class:`~repro.core.semantics.Semantics`.
        aggregation:
            ``"min"`` / ``"max"`` / ``"sum"`` / a weighted-sum name, or an
            :class:`~repro.core.aggregation.Aggregation` instance.
        topk:
            Optional prebuilt :class:`~repro.core.topk_index.TopKIndex`
            covering this instance at ``k_max >= k``.

        Returns
        -------
        GroupFormationResult
            The scored formation outcome.
        """
        return self.run_variant(
            ratings, max_groups, k, make_variant(semantics, aggregation), topk=topk
        )

    def run_variant(
        self,
        ratings: RatingStore | RatingMatrix | np.ndarray,
        max_groups: int,
        k: int,
        variant: GreedyVariant,
        topk: TopKIndex | None = None,
    ) -> GroupFormationResult:
        """Run one prebuilt :class:`~repro.core.greedy_framework.GreedyVariant`.

        Parameters are as in :meth:`run`, with ``variant`` replacing the
        ``semantics`` / ``aggregation`` pair; ``ratings``, ``max_groups``,
        ``k`` and ``topk`` keep their meanings.
        """
        store = coerce_store(ratings)
        return self._run_one(store, max_groups, k, variant, topk, {})

    def run_many(
        self,
        ratings: RatingStore | RatingMatrix | np.ndarray,
        configs: Sequence[FormationConfig],
        topk: TopKIndex | None = None,
    ) -> list[GroupFormationResult]:
        """Run a batch of ``configs`` over one ``ratings`` instance.

        One :class:`~repro.core.topk_index.TopKIndex` is built at the
        sweep's largest ``k`` (unless a prebuilt ``topk`` is passed in) and
        sliced per configuration, and (on the numpy backend) each
        ``(k, variant)`` summary is shared across the configurations
        that differ only in ``ℓ`` — so a sweep of ``(k, ℓ, semantics,
        aggregation)`` settings computes rankings exactly once and buckets
        each variant once per ``k``.  Results are
        returned in config order and are identical to running each config
        through :meth:`run`.

        Parameters
        ----------
        ratings:
            A complete array, :class:`RatingMatrix`, or any
            :class:`~repro.recsys.store.RatingStore`.
        configs:
            The ``(k, ℓ, semantics, aggregation)`` sweep points.
        topk:
            Optional prebuilt index covering the sweep's largest ``k``.
        """
        store = coerce_store(ratings)
        if not configs:
            return []
        n_items = store.shape[1]
        for config in configs:
            k = require_positive_int(config.k, "k")
            if k > n_items:
                raise GroupFormationError(
                    f"k={k} exceeds the number of items ({n_items})"
                )
        if topk is None:
            k_sweep = max(int(config.k) for config in configs)
            topk = TopKIndex.build(store, k_sweep, table_fn=self.backend.index_kernel)
        form_cache: dict[Any, Any] = {}
        return [
            self._run_one(
                store,
                config.max_groups,
                config.k,
                make_variant(config.semantics, config.aggregation),
                topk,
                form_cache,
            )
            for config in configs
        ]

    # ----------------------------------------------------------------- #
    # Shared pipeline
    # ----------------------------------------------------------------- #

    def _run_one(
        self,
        store: RatingStore,
        max_groups: int,
        k: int,
        variant: GreedyVariant,
        topk: TopKIndex | None,
        form_cache: dict[Any, Any],
    ) -> GroupFormationResult:
        n_users, n_items = store.shape
        max_groups = require_positive_int(max_groups, "max_groups")
        k = require_positive_int(k, "k")
        if k > n_items:
            raise GroupFormationError(
                f"k={k} exceeds the number of items ({n_items})"
            )

        watch = Stopwatch()
        with watch.lap("formation"):
            if topk is None:
                # Build with the backend's own top-k kernel so the reference
                # backend remains the naive end-to-end specification (all
                # kernels are bit-identical; only the build time differs).
                topk = TopKIndex.build(store, k, table_fn=self.backend.index_kernel)
            else:
                _validate_index(topk, store, k)
            items_table, scores_table = topk.top_k(k)
            plan = self.backend.form(
                items_table, scores_table, variant, max_groups, cache=form_cache
            )

        return finalise_plan(
            store,
            plan,
            items_table[plan.reps],
            k,
            variant,
            max_groups,
            watch,
            self.backend.name,
        )
