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


@dataclass
class GroupFormationResult:
    """The outcome of running a group-formation algorithm on an instance.

    Attributes
    ----------
    groups:
        The formed groups (at most ``max_groups`` of them), each a
        :class:`Group`.
    objective:
        ``sum(g.satisfaction for g in groups)`` — the quantity maximised by
        the paper's optimisation problem.
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

    groups: list[Group]
    objective: float
    algorithm: str
    semantics: Semantics
    aggregation: Aggregation
    k: int
    max_groups: int
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def n_groups(self) -> int:
        """Number of groups actually formed."""
        return len(self.groups)

    @property
    def group_sizes(self) -> list[int]:
        """Sizes of the formed groups, in formation order."""
        return [group.size for group in self.groups]

    @property
    def n_users(self) -> int:
        """Total number of users covered by the grouping."""
        return sum(self.group_sizes)

    def members_partition(self) -> list[tuple[int, ...]]:
        """The member tuples of every group (the raw partition)."""
        return [group.members for group in self.groups]

    def average_satisfaction(self) -> float:
        """Mean group satisfaction across the formed groups."""
        if not self.groups:
            return 0.0
        return self.objective / len(self.groups)

    def group_of_user(self, user: int) -> int:
        """Index (within ``groups``) of the group containing ``user``."""
        for idx, group in enumerate(self.groups):
            if user in group.members:
                return idx
        raise KeyError(f"user {user} is not part of any group in this result")

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view of the result (useful for JSON reporting)."""
        return {
            "algorithm": self.algorithm,
            "semantics": self.semantics.value,
            "aggregation": self.aggregation.name,
            "k": self.k,
            "max_groups": self.max_groups,
            "objective": self.objective,
            "n_groups": self.n_groups,
            "groups": [group.as_dict() for group in self.groups],
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
    groups: list[Group] = []
    for members in blocks:
        items, scores, satisfaction = group_satisfaction(
            values, members, k, semantics, aggregation
        )
        groups.append(
            Group(
                members=members,
                items=items,
                item_scores=scores,
                satisfaction=satisfaction,
            )
        )
    objective = float(sum(group.satisfaction for group in groups))
    return GroupFormationResult(
        groups=groups,
        objective=objective,
        algorithm=algorithm,
        semantics=semantics,
        aggregation=aggregation,
        k=k,
        max_groups=max_groups if max_groups is not None else len(groups),
        extras=dict(extras or {}),
    )
