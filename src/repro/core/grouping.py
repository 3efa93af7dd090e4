"""Group and grouping containers plus partition evaluation.

Every group-formation algorithm in the library — the greedy algorithms, the
clustering baselines and the exact solvers — returns the same
:class:`GroupFormationResult` structure so that the experiment harness,
metrics and tests can treat them interchangeably.  A result records, per
group, the member user indices, the top-k list recommended to the group under
the chosen semantics, the per-item group scores and the aggregated group
satisfaction; plus the overall objective (the sum of group satisfactions,
``Obj`` in §2.4 of the paper).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.aggregation import Aggregation, get_aggregation
from repro.core.errors import GroupFormationError
from repro.core.group_recommender import group_satisfaction
from repro.core.semantics import Semantics, get_semantics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.store import RatingStore

__all__ = [
    "Group",
    "GroupFormationResult",
    "build_group",
    "validate_partition",
    "evaluate_partition",
]


@dataclass(frozen=True)
class Group:
    """One formed group together with its recommendation and satisfaction.

    Attributes
    ----------
    members:
        Positional user indices belonging to the group (non-empty, sorted).
    items:
        The top-k item indices recommended to the group, best first.
    item_scores:
        Group preference scores (under the result's semantics) of ``items``,
        aligned with ``items``.
    satisfaction:
        Aggregated satisfaction ``gs(I^k_g)`` of the group with ``items``.
    """

    members: tuple[int, ...]
    items: tuple[int, ...]
    item_scores: tuple[float, ...]
    satisfaction: float

    @property
    def size(self) -> int:
        """Number of members in the group."""
        return len(self.members)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (useful for JSON reporting)."""
        return {
            "members": list(self.members),
            "items": list(self.items),
            "item_scores": list(self.item_scores),
            "satisfaction": self.satisfaction,
            "size": self.size,
        }


@dataclass(eq=False)
class GroupFormationResult:
    """The outcome of running a group-formation algorithm on an instance.

    Groups are stored as flat segments, the format formation and scoring
    already use: group ``g`` is ``member_ids[offsets[g]:offsets[g + 1]]``
    with the list ``items[g]``, its scores ``item_scores[g]`` and the
    satisfaction ``satisfactions[g]``.  :meth:`as_dict` (the
    ``/v1/recommend`` body) is built straight from these arrays;
    :attr:`groups` derives :class:`Group` objects from them for library
    callers.  Results compare by identity (the ``==`` of numpy arrays is
    elementwise); compare fields to test equality.

    Attributes
    ----------
    member_ids:
        ``int64`` members of every group, group after group.
    offsets:
        ``(n_groups + 1,)`` ``int64`` segment boundaries into
        ``member_ids``.
    items:
        ``(n_groups, k)`` ``int64`` top-k item indices recommended to each
        group, best first.
    item_scores:
        ``(n_groups, k)`` float64 group preference scores (under the
        result's semantics) of ``items``.
    satisfactions:
        ``(n_groups,)`` float64 aggregated satisfaction ``gs(I^k_g)`` of
        each group with its list.
    objective:
        ``sum(satisfactions)``, added as Python floats in group order —
        the quantity maximised by the paper's optimisation problem.
    algorithm:
        Human-readable algorithm name, e.g. ``"GRD-LM-MIN"`` or
        ``"Baseline-AV-SUM"``.
    semantics:
        The :class:`~repro.core.semantics.Semantics` used.
    aggregation:
        The :class:`~repro.core.aggregation.Aggregation` used.
    k:
        Length of each group's recommended list.
    max_groups:
        The group budget ℓ the algorithm was run with.
    extras:
        Free-form metadata (timings, intermediate group counts, the
        pseudocode score of the left-over group, solver gap, ...).
    """

    member_ids: np.ndarray
    offsets: np.ndarray
    items: np.ndarray
    item_scores: np.ndarray
    satisfactions: np.ndarray
    objective: float
    algorithm: str
    semantics: Semantics
    aggregation: Aggregation
    k: int
    max_groups: int
    extras: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_segments(
        cls,
        member_ids: np.ndarray,
        offsets: np.ndarray,
        items: "np.ndarray | Sequence[Sequence[int]]",
        item_scores: "np.ndarray | Sequence[Sequence[float]]",
        satisfactions: Sequence[float],
        **fields: Any,
    ) -> "GroupFormationResult":
        """Build a result from group segments; ``objective`` is derived.

        Parameters
        ----------
        member_ids, offsets:
            The group segments (see the class attributes).
        items, item_scores:
            Each group's list and its scores, one row per group.
        satisfactions:
            Each group's satisfaction, as Python floats in group order;
            ``objective`` is their built-in ``sum``, whose left-to-right
            additions a numpy sum would reassociate.
        **fields:
            The remaining attributes (``algorithm``, ``semantics``,
            ``aggregation``, ``k``, ``max_groups``, ``extras``).
        """
        k = fields["k"]
        return cls(
            member_ids=np.asarray(member_ids, dtype=np.int64),
            offsets=np.asarray(offsets, dtype=np.int64),
            items=np.asarray(items, dtype=np.int64).reshape(-1, k),
            item_scores=np.asarray(item_scores, dtype=np.float64).reshape(-1, k),
            satisfactions=np.asarray(satisfactions, dtype=np.float64),
            objective=float(sum(satisfactions)),
            **fields,
        )

    @cached_property
    def groups(self) -> list[Group]:
        """The formed groups as :class:`Group` objects (derived, cached).

        Built once per result from the segment arrays.  Concurrent first
        readers may each build the list, but every reader gets a complete
        one: it is published only after it is built.
        """
        members = self.member_ids.tolist()
        bounds = self.offsets.tolist()
        return [
            Group(
                members=tuple(members[lo:hi]),
                items=tuple(items),
                item_scores=tuple(scores),
                satisfaction=satisfaction,
            )
            for lo, hi, items, scores, satisfaction in zip(
                bounds, bounds[1:], self.items.tolist(),
                self.item_scores.tolist(), self.satisfactions.tolist(),
            )
        ]

    @property
    def n_groups(self) -> int:
        """Number of groups actually formed."""
        return self.offsets.size - 1

    @property
    def group_sizes(self) -> list[int]:
        """Sizes of the formed groups, in formation order."""
        return np.diff(self.offsets).tolist()

    @property
    def n_users(self) -> int:
        """Total number of users covered by the grouping."""
        return int(self.offsets[-1])

    def members_partition(self) -> list[tuple[int, ...]]:
        """The member tuples of every group (the raw partition)."""
        return [group.members for group in self.groups]

    def average_satisfaction(self) -> float:
        """Mean group satisfaction across the formed groups."""
        if not self.n_groups:
            return 0.0
        return self.objective / self.n_groups

    def group_of_user(self, user: int) -> int:
        """Index (within ``groups``) of the group containing ``user``."""
        found = np.flatnonzero(self.member_ids == user)
        if not found.size:
            raise KeyError(f"user {user} is not part of any group in this result")
        return int(np.searchsorted(self.offsets, found[0], side="right")) - 1

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view of the result (useful for JSON reporting).

        Built from the segment arrays with one ``tolist`` each; every
        group dict carries ``members``, ``items``, ``item_scores``,
        ``satisfaction`` and ``size`` (as :meth:`Group.as_dict`).
        """
        members = self.member_ids.tolist()
        bounds = self.offsets.tolist()
        return {
            "algorithm": self.algorithm,
            "semantics": self.semantics.value,
            "aggregation": self.aggregation.name,
            "k": self.k,
            "max_groups": self.max_groups,
            "objective": self.objective,
            "n_groups": self.n_groups,
            "groups": [
                {
                    "members": members[lo:hi],
                    "items": items,
                    "item_scores": scores,
                    "satisfaction": satisfaction,
                    "size": hi - lo,
                }
                for lo, hi, items, scores, satisfaction in zip(
                    bounds, bounds[1:], self.items.tolist(),
                    self.item_scores.tolist(), self.satisfactions.tolist(),
                )
            ],
            "extras": dict(self.extras),
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: {self.n_groups} groups over {self.n_users} users, "
            f"objective {self.objective:.3f} "
            f"({self.semantics.short_name}/{self.aggregation.name}, k={self.k})"
        )


def build_group(
    values: "np.ndarray | RatingStore",
    members: Sequence[int],
    items: Sequence[int],
    semantics: Semantics,
    aggregation: Aggregation,
) -> Group:
    """Score a fixed recommended list for ``members`` and build the :class:`Group`.

    Unlike :func:`evaluate_partition` the recommended ``items`` are given, not
    recomputed — this is the step the greedy algorithms perform for each
    selected intermediate group, whose list is the members' shared top-k
    sequence.  ``values`` may also be a
    :class:`~repro.recsys.store.RatingStore`, in which case only the
    ``(members, items)`` sub-matrix is ever densified.
    """
    members = tuple(int(user) for user in members)
    items = tuple(int(item) for item in items)
    member_array = np.asarray(members, dtype=np.int64)
    n_users = values.shape[0]
    if member_array.size and (member_array.min() < 0 or member_array.max() >= n_users):
        # numpy and scipy would silently wrap a negative id to another user.
        raise GroupFormationError(f"group member ids must lie in [0, {n_users})")
    if isinstance(values, np.ndarray):
        scores = tuple(
            semantics.item_score(values, member_array, item) for item in items
        )
    else:
        sub = values.gather(member_array, np.asarray(items, dtype=np.int64))
        scores = tuple(
            semantics.item_score(sub, np.arange(len(members)), idx)
            for idx in range(len(items))
        )
    return Group(
        members=members,
        items=items,
        item_scores=scores,
        satisfaction=aggregation.aggregate(scores),
    )


def validate_partition(
    partition: Iterable[Sequence[int]], n_users: int, max_groups: int | None = None
) -> list[tuple[int, ...]]:
    """Validate that ``partition`` is a disjoint cover of ``0..n_users-1``.

    Parameters
    ----------
    partition:
        Iterable of member-index collections.
    n_users:
        Expected number of users.
    max_groups:
        When given, also check that the partition uses at most this many
        groups.

    Returns
    -------
    list of tuple of int
        The partition with each block sorted and converted to a tuple.

    Raises
    ------
    GroupFormationError
        If a block is empty, a user appears twice, a user is missing, an
        index is out of range, or the group budget is exceeded.
    """
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for block in partition:
        members = tuple(sorted(int(u) for u in block))
        if not members:
            raise GroupFormationError("a group in the partition is empty")
        for user in members:
            if not 0 <= user < n_users:
                raise GroupFormationError(
                    f"user index {user} out of range [0, {n_users})"
                )
            if user in seen:
                raise GroupFormationError(f"user {user} appears in more than one group")
            seen.add(user)
        blocks.append(members)
    missing = set(range(n_users)) - seen
    if missing:
        raise GroupFormationError(
            f"partition does not cover users {sorted(missing)[:10]}"
            + ("..." if len(missing) > 10 else "")
        )
    if max_groups is not None and len(blocks) > max_groups:
        raise GroupFormationError(
            f"partition uses {len(blocks)} groups, exceeding the budget {max_groups}"
        )
    return blocks


def evaluate_partition(
    values: np.ndarray,
    partition: Iterable[Sequence[int]],
    k: int,
    semantics: Semantics | str,
    aggregation: Aggregation | str,
    algorithm: str = "partition",
    max_groups: int | None = None,
    extras: dict[str, Any] | None = None,
) -> GroupFormationResult:
    """Score an arbitrary user partition under a semantics and aggregation.

    For every block of the partition the group's top-k list, per-item group
    scores and aggregated satisfaction are computed with the group
    recommender; the objective is their sum.  This is the single evaluation
    path shared by the greedy algorithms (for the left-over group), the
    baselines and the exact solvers, which guarantees all algorithms are
    compared on exactly the same objective.

    Parameters
    ----------
    values:
        Complete ``(n_users, n_items)`` rating array.
    partition:
        Iterable of member-index collections forming a disjoint cover of all
        users.
    k, semantics, aggregation:
        Problem parameters (see :func:`~repro.core.group_recommender.group_satisfaction`).
    algorithm:
        Name recorded on the returned result.
    max_groups:
        Group budget recorded on the result (defaults to the number of
        blocks); also validated when provided.
    extras:
        Optional metadata dict copied onto the result.
    """
    if isinstance(values, np.ndarray) or not hasattr(values, "iter_blocks"):
        values = np.asarray(values, dtype=float)
    semantics = get_semantics(semantics)
    aggregation = get_aggregation(aggregation)
    blocks = validate_partition(partition, values.shape[0], max_groups)
    scored = [
        group_satisfaction(values, members, k, semantics, aggregation)
        for members in blocks
    ]
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(members) for members in blocks], out=offsets[1:])
    return GroupFormationResult.from_segments(
        [user for members in blocks for user in members],
        offsets,
        [items for items, _, _ in scored],
        [scores for _, scores, _ in scored],
        [satisfaction for _, _, satisfaction in scored],
        algorithm=algorithm,
        semantics=semantics,
        aggregation=aggregation,
        k=k,
        max_groups=max_groups if max_groups is not None else len(blocks),
        extras=dict(extras or {}),
    )
