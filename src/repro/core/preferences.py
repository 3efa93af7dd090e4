"""Per-user preference lists and top-k tables.

The greedy algorithms of the paper (§4, §5) start from each user's personal
preference list ``L_u`` — the items sorted in non-increasing order of the
user's rating — and its top-k prefix.  This module builds those lists with a
single deterministic tie-breaking rule used everywhere in the library:

    *equal ratings are broken by ascending item index.*

Determinism matters both for reproducibility of the experiments and because
the greedy algorithms hash users on their exact top-k item *sequence*; a
stable tie-break keeps users with identical rating rows in the same bucket.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import GroupFormationError

__all__ = [
    "full_ranking",
    "top_k_items",
    "top_k_sequence",
    "top_k_table",
    "preference_list",
]


def _require_complete_row(row: np.ndarray) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise GroupFormationError(f"expected a 1-D rating row, got shape {row.shape}")
    if np.isnan(row).any():
        raise GroupFormationError(
            "preference lists require a complete rating row (no NaN); "
            "complete the matrix with repro.recsys.complete_matrix first"
        )
    return row


def full_ranking(row: np.ndarray) -> np.ndarray:
    """Item indices sorted by rating descending, ties by item index ascending.

    Examples
    --------
    >>> full_ranking([3.0, 5.0, 3.0]).tolist()
    [1, 0, 2]
    """
    row = _require_complete_row(row)
    # A stable sort of the negated ratings preserves ascending item order
    # among equal ratings, which is exactly the tie-break we document.
    return np.argsort(-row, kind="stable")


def top_k_items(row: np.ndarray, k: int) -> np.ndarray:
    """The user's top-``k`` item indices in preference order."""
    row = _require_complete_row(row)
    if not 1 <= k <= row.size:
        raise GroupFormationError(
            f"k must be between 1 and the number of items ({row.size}), got {k}"
        )
    return full_ranking(row)[:k]


def top_k_sequence(row: np.ndarray, k: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The user's top-``k`` sequence as ``(item_ids, ratings)`` tuples.

    This is the hashable form used as (part of) the grouping key by the greedy
    algorithms: GRD-LM-MIN keys on ``(item_ids, ratings[-1])``, GRD-LM-SUM on
    ``(item_ids, ratings)`` and GRD-AV-* on ``item_ids`` alone.
    """
    items = top_k_items(row, k)
    ratings = np.asarray(row, dtype=float)[items]
    return tuple(int(i) for i in items), tuple(float(r) for r in ratings)


def _validate_table_args(values: np.ndarray, k: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise GroupFormationError(
            f"expected a 2-D rating array, got shape {values.shape}"
        )
    if np.isnan(values).any():
        raise GroupFormationError(
            "top-k tables require a complete rating matrix (no NaN)"
        )
    n_items = values.shape[1]
    if not 1 <= k <= n_items:
        raise GroupFormationError(
            f"k must be between 1 and the number of items ({n_items}), got {k}"
        )
    return values


def _top_k_table_sorted(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Full stable argsort path (validation already done)."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    scores = np.take_along_axis(values, order, axis=1)
    return order, scores


def top_k_table(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised top-``k`` items and scores for every user.

    Parameters
    ----------
    values:
        Complete ``(n_users, n_items)`` rating array.
    k:
        Top-k prefix length, ``1 <= k <= n_items``.

    Returns
    -------
    (items, scores):
        ``items`` is an ``(n_users, k)`` integer array of item indices in
        preference order (rating descending, item index ascending on ties);
        ``scores`` is the matching ``(n_users, k)`` float array of ratings.
    """
    values = _validate_table_args(values, k)
    return _top_k_table_sorted(values, k)


def preference_list(row: np.ndarray) -> list[tuple[int, float]]:
    """The full preference list ``L_u`` as ``(item, rating)`` pairs.

    Mirrors the paper's notation, e.g. for user ``u2`` of Example 1
    ``L_u2 = <i3, 5; i2, 3; i1, 2>``.
    """
    row = _require_complete_row(row)
    ranking = full_ranking(row)
    return [(int(item), float(row[item])) for item in ranking]
