"""Group recommendation engine: top-k lists and satisfaction for a *given* group.

This is the substrate the paper assumes exists (§1, §2): given a group of
users, a semantics (LM or AV), and a list length ``k``, produce the top-k
item list recommended to the group and the group's satisfaction with it under
a chosen aggregation.  The group-formation algorithms call into this module
to evaluate the groups they build (most importantly the left-over ℓ-th
group), and the experiment harness uses it to score groupings produced by the
baselines and the exact solvers.

Ratings may be a dense array or a :class:`~repro.recsys.store.RatingStore`,
which scores a group itself (``store.item_scores(members, semantics)``).  A
dense store reduces the members' rows in place
(:func:`repro.core.kernels.dense_item_scores`), without the row copy and
NaN pass of the array path.  A sparse CSR store never densifies the
left-over group: one column-reduce pass over the members' stored entries
(:func:`repro.core.kernels.csr_item_scores`) — LM-min is the minimum of
the stored values, folded with the fill where a member lacks the item;
AV-sum is the stored sum plus ``fill x`` the members lacking it.  The
result is bit-identical to the dense reduction because of an exactness
gate checked on every call: AV takes the sparse path only on integer
values and fill (integer ``float64`` sums are exact in any order), LM only
without ``-0.0`` (signed zeros make ``min`` order-dependent); any other
input keeps the dense streaming reduction.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.aggregation import Aggregation, get_aggregation
from repro.core.errors import GroupFormationError
from repro.core.semantics import Semantics, get_semantics
from repro.recsys.matrix import RatingMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.store import RatingStore

__all__ = [
    "group_item_scores",
    "recommend_top_k",
    "group_satisfaction",
    "GroupRecommender",
]


def _is_store(ratings: object) -> bool:
    """Whether ``ratings`` is a RatingStore rather than a dense array."""
    return not isinstance(ratings, np.ndarray) and hasattr(ratings, "iter_blocks")


def group_item_scores(
    values: "np.ndarray | RatingStore",
    members: Sequence[int],
    semantics: Semantics | str,
) -> np.ndarray:
    """Group preference score of every item for the group ``members``.

    Thin wrapper over :meth:`Semantics.item_scores` accepting semantics
    names.  ``values`` may also be a :class:`~repro.recsys.store.RatingStore`,
    which scores the group itself
    (:meth:`~repro.recsys.store.RatingStore.item_scores`): a dense store
    reduces the members' rows of its array in place, a sparse CSR store
    reduces the members' stored entries directly, so even a million-user
    left-over group never materialises the full matrix.
    """
    semantics = get_semantics(semantics)
    members = np.asarray(members, dtype=int)
    if _is_store(values):
        return values.item_scores(members, semantics)
    return semantics.item_scores(np.asarray(values, dtype=float), members)


def recommend_top_k(
    values: "np.ndarray | RatingStore",
    members: Sequence[int],
    k: int,
    semantics: Semantics | str,
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Top-``k`` item list recommended to the group under ``semantics``.

    Items are ranked by group score descending with ties broken by ascending
    item index (the library-wide tie-break).  Returns the item indices and
    their group scores, both in recommended rank order.

    Parameters
    ----------
    values:
        Complete ``(n_users, n_items)`` rating array.
    members:
        Positional user indices of the group (non-empty).
    k:
        Length of the recommended list, ``1 <= k <= n_items``.
    semantics:
        ``"lm"`` / ``"av"`` or a :class:`~repro.core.semantics.Semantics`.
    """
    if not _is_store(values):
        values = np.asarray(values, dtype=float)
    n_items = values.shape[1]
    if not 1 <= k <= n_items:
        raise GroupFormationError(
            f"k must be between 1 and the number of items ({n_items}), got {k}"
        )
    scores = group_item_scores(values, members, semantics)
    order = np.argsort(-scores, kind="stable")[:k]
    return (
        tuple(int(item) for item in order),
        tuple(float(scores[item]) for item in order),
    )


def group_satisfaction(
    values: "np.ndarray | RatingStore",
    members: Sequence[int],
    k: int,
    semantics: Semantics | str,
    aggregation: Aggregation | str,
) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """Recommended list, its group scores, and the aggregated satisfaction.

    Returns
    -------
    (items, scores, satisfaction):
        The recommended item indices in rank order, their group scores, and
        the aggregation of those scores (``gs(I^k_g)`` in the paper).
    """
    items, scores = recommend_top_k(values, members, k, semantics)
    satisfaction = get_aggregation(aggregation).aggregate(scores)
    return items, scores, satisfaction


class GroupRecommender:
    """Object-oriented facade over the group recommendation primitives.

    Binds a complete :class:`~repro.recsys.matrix.RatingMatrix` and a
    semantics so that applications can repeatedly query recommendations for
    different groups without re-validating inputs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.recsys import RatingMatrix
    >>> ratings = RatingMatrix(np.array([[5.0, 1.0, 3.0], [4.0, 2.0, 3.0]]))
    >>> rec = GroupRecommender(ratings, semantics="lm")
    >>> rec.recommend([0, 1], k=2)
    ((0, 2), (4.0, 3.0))
    """

    def __init__(self, ratings: RatingMatrix, semantics: Semantics | str = "lm") -> None:
        if not ratings.is_complete:
            raise GroupFormationError(
                "GroupRecommender requires a complete rating matrix; run "
                "repro.recsys.complete_matrix first"
            )
        self.ratings = ratings
        self.semantics = get_semantics(semantics)

    def item_scores(self, members: Sequence[int]) -> np.ndarray:
        """Group preference score of every item for ``members``."""
        return self.semantics.item_scores(
            self.ratings.values, np.asarray(members, dtype=int)
        )

    def recommend(
        self, members: Sequence[int], k: int
    ) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Top-``k`` items and group scores for ``members``."""
        return recommend_top_k(self.ratings.values, members, k, self.semantics)

    def satisfaction(
        self, members: Sequence[int], k: int, aggregation: Aggregation | str = "min"
    ) -> float:
        """Aggregated group satisfaction of ``members`` with their top-``k`` list."""
        _, _, value = group_satisfaction(
            self.ratings.values, members, k, self.semantics, aggregation
        )
        return value

    def recommend_labels(
        self, members: Sequence[int], k: int
    ) -> list[tuple[object, float]]:
        """Top-``k`` recommendation as ``(item_label, group_score)`` pairs."""
        items, scores = self.recommend(members, k)
        return [
            (self.ratings.item_ids[item], score) for item, score in zip(items, scores)
        ]
