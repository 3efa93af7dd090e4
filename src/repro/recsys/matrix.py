"""The central user x item rating container used throughout the library.

The paper's data model (§2.1) is an explicit-feedback rating matrix
``sc(u, i)`` on a bounded scale (e.g. 1–5), where a rating is either provided
by the user or predicted by the recommender system.  :class:`RatingMatrix`
represents both cases with a dense ``numpy`` array using ``NaN`` for missing
entries; a *complete* matrix (no ``NaN``) is what the group-formation
algorithms consume.

Dense storage is a deliberate choice: the paper's experiments use at most a
few hundred thousand users and ten thousand items for the greedy algorithms,
and the algorithms themselves need row-wise top-k scans which are fastest on
contiguous arrays.  For genuinely sparse workflows, :meth:`RatingMatrix.from_triples`
and :meth:`RatingMatrix.to_triples` provide a coordinate-format bridge.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.errors import RatingDataError

__all__ = ["RatingScale", "RatingMatrix"]


@dataclass(frozen=True)
class RatingScale:
    """A closed rating scale ``[minimum, maximum]``.

    The paper assumes ratings come from a bounded discrete set ``R`` with
    ``rmin`` and ``rmax`` (e.g. 1–5 stars).  The absolute-error guarantees of
    the greedy LM algorithms are expressed in terms of ``rmax`` (Theorem 2)
    and ``k * rmax`` (Theorem 3), so the scale is carried alongside the data.

    Attributes
    ----------
    minimum:
        Smallest representable rating (``rmin``).
    maximum:
        Largest representable rating (``rmax``).
    """

    minimum: float = 1.0
    maximum: float = 5.0

    def __post_init__(self) -> None:
        if not self.maximum > self.minimum:
            raise ValueError(
                f"rating scale maximum ({self.maximum}) must exceed minimum "
                f"({self.minimum})"
            )

    @property
    def spread(self) -> float:
        """``maximum - minimum``."""
        return self.maximum - self.minimum

    def clip(self, values: np.ndarray | float) -> np.ndarray | float:
        """Clip ``values`` into the scale."""
        return np.clip(values, self.minimum, self.maximum)

    def round_to_scale(self, values: np.ndarray | float) -> np.ndarray | float:
        """Round ``values`` to the nearest integer rating and clip to the scale."""
        return self.clip(np.rint(values))

    def contains(self, values: np.ndarray | float) -> bool:
        """Return ``True`` when every finite entry of ``values`` is within scale."""
        arr = np.asarray(values, dtype=float)
        # Masked reductions never copy a store-sized input; with no finite
        # entry the initials make both bounds hold.
        finite = np.isfinite(arr)
        low = np.min(arr, where=finite, initial=np.inf)
        high = np.max(arr, where=finite, initial=-np.inf)
        return bool(low >= self.minimum and high <= self.maximum)

    def integer_levels(self) -> np.ndarray:
        """All integer rating levels in the scale (used by synthetic generators)."""
        return np.arange(int(np.ceil(self.minimum)), int(np.floor(self.maximum)) + 1)


class RatingMatrix:
    """Dense user x item rating matrix with optional missing entries.

    Parameters
    ----------
    values:
        Array of shape ``(n_users, n_items)``; ``NaN`` marks a missing rating.
        The array is copied and stored as ``float64``.
    user_ids:
        Optional external user labels (defaults to ``0..n_users-1``).  Labels
        are only used for presentation and data loading; all algorithms work
        with positional indices.
    item_ids:
        Optional external item labels (defaults to ``0..n_items-1``).
    scale:
        The :class:`RatingScale`; out-of-scale finite values raise
        :class:`~repro.core.errors.RatingDataError`.

    Examples
    --------
    >>> import numpy as np
    >>> ratings = RatingMatrix(np.array([[5.0, 3.0], [np.nan, 4.0]]))
    >>> ratings.n_users, ratings.n_items
    (2, 2)
    >>> ratings.is_complete
    False
    """

    def __init__(
        self,
        values: np.ndarray | Sequence[Sequence[float]],
        user_ids: Sequence[Hashable] | None = None,
        item_ids: Sequence[Hashable] | None = None,
        scale: RatingScale | None = None,
    ) -> None:
        array = np.array(values, dtype=float, copy=True)
        if array.ndim != 2:
            raise RatingDataError(
                f"rating matrix must be 2-dimensional, got shape {array.shape}"
            )
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise RatingDataError(
                f"rating matrix must have at least one user and one item, "
                f"got shape {array.shape}"
            )
        self._values = array
        self.scale = scale if scale is not None else RatingScale()
        if not self.scale.contains(array):
            raise RatingDataError(
                "rating matrix contains values outside the declared scale "
                f"[{self.scale.minimum}, {self.scale.maximum}]"
            )
        self.user_ids = self._normalise_labels(user_ids, array.shape[0], "user")
        self.item_ids = self._normalise_labels(item_ids, array.shape[1], "item")
        self._user_index = {label: idx for idx, label in enumerate(self.user_ids)}
        self._item_index = {label: idx for idx, label in enumerate(self.item_ids)}

    @staticmethod
    def _normalise_labels(
        labels: Sequence[Hashable] | None, expected: int, kind: str
    ) -> tuple[Hashable, ...]:
        if labels is None:
            return tuple(range(expected))
        labels = tuple(labels)
        if len(labels) != expected:
            raise RatingDataError(
                f"expected {expected} {kind} labels, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise RatingDataError(f"{kind} labels must be unique")
        return labels

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[Hashable, Hashable, float]],
        scale: RatingScale | None = None,
        user_ids: Sequence[Hashable] | None = None,
        item_ids: Sequence[Hashable] | None = None,
    ) -> "RatingMatrix":
        """Build a matrix from ``(user, item, rating)`` triples.

        Unknown entries become ``NaN``.  Duplicate ``(user, item)`` pairs with
        conflicting ratings raise :class:`~repro.core.errors.RatingDataError`;
        exact duplicates are tolerated.

        Parameters
        ----------
        triples:
            Iterable of ``(user_label, item_label, rating)``.
        scale:
            Rating scale (default 1–5).
        user_ids, item_ids:
            Optional explicit label universes.  When omitted the labels found
            in the triples are used, sorted for determinism.
        """
        triples = list(triples)
        if not triples and (user_ids is None or item_ids is None):
            raise RatingDataError(
                "cannot build a RatingMatrix from zero triples without explicit "
                "user_ids and item_ids"
            )
        if user_ids is None:
            user_ids = sorted({t[0] for t in triples}, key=repr)
        if item_ids is None:
            item_ids = sorted({t[1] for t in triples}, key=repr)
        user_pos = {label: idx for idx, label in enumerate(user_ids)}
        item_pos = {label: idx for idx, label in enumerate(item_ids)}
        values = np.full((len(user_ids), len(item_ids)), np.nan)
        if not triples:
            return cls(values, user_ids=user_ids, item_ids=item_ids, scale=scale)
        # Label lookups stream through fromiter at C speed (-1 marks an
        # unknown label); duplicate detection and the scatter are vectorised.
        count = len(triples)
        rows = np.fromiter(
            (user_pos.get(t[0], -1) for t in triples), dtype=np.int64, count=count
        )
        cols = np.fromiter(
            (item_pos.get(t[1], -1) for t in triples), dtype=np.int64, count=count
        )
        vals = np.fromiter((t[2] for t in triples), dtype=np.float64, count=count)
        if (rows < 0).any():
            offender = triples[int(np.flatnonzero(rows < 0)[0])][0]
            raise RatingDataError(f"unknown user label {offender!r} in triples")
        if (cols < 0).any():
            offender = triples[int(np.flatnonzero(cols < 0)[0])][1]
            raise RatingDataError(f"unknown item label {offender!r} in triples")
        order = np.lexsort((cols, rows))
        srt_rows, srt_cols, srt_vals = rows[order], cols[order], vals[order]
        duplicate = (srt_rows[1:] == srt_rows[:-1]) & (srt_cols[1:] == srt_cols[:-1])
        # The stable lexsort keeps same-cell triples in stream order, so this
        # reproduces the historical sequential rule exactly: a NaN already in
        # the cell means "unset" and may be overwritten by anything (including
        # another NaN), while a set value conflicts with any different
        # successor (NaN included, since NaN != value).
        conflict = duplicate & ~np.isnan(srt_vals[:-1]) & (srt_vals[1:] != srt_vals[:-1])
        if conflict.any():
            where = int(np.flatnonzero(conflict)[0])
            user, item, _ = triples[int(order[where])]
            raise RatingDataError(
                f"conflicting ratings for user {user!r}, item {item!r}: "
                f"{srt_vals[where]} vs {srt_vals[where + 1]}"
            )
        values[rows, cols] = vals
        return cls(values, user_ids=user_ids, item_ids=item_ids, scale=scale)

    def copy(self) -> "RatingMatrix":
        """Deep copy of the matrix."""
        return RatingMatrix(
            self._values, user_ids=self.user_ids, item_ids=self.item_ids, scale=self.scale
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """The underlying ``(n_users, n_items)`` float array (not a copy)."""
        return self._values

    @property
    def n_users(self) -> int:
        """Number of users (rows)."""
        return self._values.shape[0]

    @property
    def n_items(self) -> int:
        """Number of items (columns)."""
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_users, n_items)``."""
        return self._values.shape

    @property
    def known_mask(self) -> np.ndarray:
        """Boolean mask of observed (non-missing) entries."""
        return ~np.isnan(self._values)

    @property
    def num_ratings(self) -> int:
        """Number of observed ratings."""
        return int(self.known_mask.sum())

    @property
    def density(self) -> float:
        """Fraction of observed entries."""
        return self.num_ratings / (self.n_users * self.n_items)

    @property
    def is_complete(self) -> bool:
        """``True`` when every entry is observed (required by group formation)."""
        return bool(self.known_mask.all())

    def user_index(self, user_label: Hashable) -> int:
        """Positional index of ``user_label``."""
        try:
            return self._user_index[user_label]
        except KeyError as exc:
            raise KeyError(f"unknown user label {user_label!r}") from exc

    def item_index(self, item_label: Hashable) -> int:
        """Positional index of ``item_label``."""
        try:
            return self._item_index[item_label]
        except KeyError as exc:
            raise KeyError(f"unknown item label {item_label!r}") from exc

    def rating(self, user: int, item: int) -> float:
        """Rating of positional ``user`` for positional ``item`` (may be ``NaN``)."""
        return float(self._values[user, item])

    def user_ratings(self, user: int) -> np.ndarray:
        """Copy of the rating row for positional index ``user``."""
        return self._values[user].copy()

    def item_ratings(self, item: int) -> np.ndarray:
        """Copy of the rating column for positional index ``item``."""
        return self._values[:, item].copy()

    def to_triples(self) -> list[tuple[Hashable, Hashable, float]]:
        """Observed entries as ``(user_label, item_label, rating)`` triples."""
        rows, cols = np.nonzero(self.known_mask)
        return [
            (self.user_ids[r], self.item_ids[c], float(self._values[r, c]))
            for r, c in zip(rows.tolist(), cols.tolist())
        ]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def global_mean(self) -> float:
        """Mean of all observed ratings."""
        if self.num_ratings == 0:
            raise RatingDataError("cannot compute the mean of an empty rating matrix")
        return float(np.nanmean(self._values))

    def _axis_means(self, axis: int) -> np.ndarray:
        """Observed-rating means along ``axis`` with the global mean as fallback."""
        mask = self.known_mask
        counts = mask.sum(axis=axis)
        sums = np.where(mask, self._values, 0.0).sum(axis=axis)
        fallback = self.global_mean()
        return np.where(counts > 0, sums / np.maximum(counts, 1), fallback)

    def user_means(self) -> np.ndarray:
        """Per-user mean of observed ratings (global mean for rating-less users)."""
        return self._axis_means(axis=1)

    def item_means(self) -> np.ndarray:
        """Per-item mean of observed ratings (global mean for unrated items)."""
        return self._axis_means(axis=0)

    def ratings_per_user(self) -> np.ndarray:
        """Number of observed ratings per user."""
        return self.known_mask.sum(axis=1)

    def ratings_per_item(self) -> np.ndarray:
        """Number of observed ratings per item."""
        return self.known_mask.sum(axis=0)

    def summary(self) -> dict[str, float]:
        """Dataset statistics in the shape of the paper's Table 3."""
        return {
            "n_users": float(self.n_users),
            "n_items": float(self.n_items),
            "n_ratings": float(self.num_ratings),
            "density": float(self.density),
            "mean_rating": float(self.global_mean()) if self.num_ratings else float("nan"),
            "min_ratings_per_user": float(self.ratings_per_user().min()),
            "min_ratings_per_item": float(self.ratings_per_item().min()),
        }

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def subset(
        self,
        user_indices: Sequence[int] | np.ndarray | None = None,
        item_indices: Sequence[int] | np.ndarray | None = None,
    ) -> "RatingMatrix":
        """Sub-matrix restricted to the given positional user/item indices."""
        users = (
            np.arange(self.n_users)
            if user_indices is None
            else np.asarray(user_indices, dtype=int)
        )
        items = (
            np.arange(self.n_items)
            if item_indices is None
            else np.asarray(item_indices, dtype=int)
        )
        if users.size == 0 or items.size == 0:
            raise RatingDataError("subset must keep at least one user and one item")
        values = self._values[np.ix_(users, items)]
        return RatingMatrix(
            values,
            user_ids=[self.user_ids[u] for u in users.tolist()],
            item_ids=[self.item_ids[i] for i in items.tolist()],
            scale=self.scale,
        )

    def sample(
        self,
        n_users: int | None = None,
        n_items: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "RatingMatrix":
        """Random sub-sample of users and/or items (without replacement).

        Mirrors the paper's experimental setup, e.g. "We randomly select 200
        users and 100 items" for the quality experiments.
        """
        from repro.utils.rng import ensure_rng

        generator = ensure_rng(rng)
        user_indices = None
        item_indices = None
        if n_users is not None:
            if n_users > self.n_users:
                raise RatingDataError(
                    f"cannot sample {n_users} users from {self.n_users}"
                )
            user_indices = np.sort(
                generator.choice(self.n_users, size=n_users, replace=False)
            )
        if n_items is not None:
            if n_items > self.n_items:
                raise RatingDataError(
                    f"cannot sample {n_items} items from {self.n_items}"
                )
            item_indices = np.sort(
                generator.choice(self.n_items, size=n_items, replace=False)
            )
        return self.subset(user_indices, item_indices)

    def trim(
        self, min_ratings_per_user: int = 20, min_ratings_per_item: int = 20
    ) -> "RatingMatrix":
        """Iteratively drop users/items with too few ratings.

        Reproduces the paper's pre-processing of the Yahoo! Music snapshot:
        "each user has rated at least 20 songs, and each song has been rated
        by at least 20 users".  Trimming repeats until a fixed point because
        dropping items can push users back below the threshold and vice versa.
        """
        users = np.arange(self.n_users)
        items = np.arange(self.n_items)
        values = self._values
        while True:
            mask = ~np.isnan(values)
            user_counts = mask.sum(axis=1)
            item_counts = mask.sum(axis=0)
            keep_users = user_counts >= min_ratings_per_user
            keep_items = item_counts >= min_ratings_per_item
            if keep_users.all() and keep_items.all():
                break
            if not keep_users.any() or not keep_items.any():
                raise RatingDataError(
                    "trimming removed every user or item; thresholds "
                    f"({min_ratings_per_user}, {min_ratings_per_item}) are too strict"
                )
            users = users[keep_users]
            items = items[keep_items]
            values = values[np.ix_(keep_users.nonzero()[0], keep_items.nonzero()[0])]
        return RatingMatrix(
            values,
            user_ids=[self.user_ids[u] for u in users.tolist()],
            item_ids=[self.item_ids[i] for i in items.tolist()],
            scale=self.scale,
        )

    def with_values(self, values: np.ndarray) -> "RatingMatrix":
        """New matrix with the same labels/scale but different ``values``."""
        if values.shape != self.shape:
            raise RatingDataError(
                f"replacement values must have shape {self.shape}, got {values.shape}"
            )
        return RatingMatrix(
            values, user_ids=self.user_ids, item_ids=self.item_ids, scale=self.scale
        )

    def mask_random(
        self, fraction: float, rng: np.random.Generator | int | None = None
    ) -> tuple["RatingMatrix", list[tuple[int, int, float]]]:
        """Hide a random ``fraction`` of observed entries (for CF evaluation).

        Returns the masked matrix and the list of hidden ``(user, item,
        rating)`` positional triples, which become the test set.
        """
        from repro.utils.rng import ensure_rng

        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        generator = ensure_rng(rng)
        rows, cols = np.nonzero(self.known_mask)
        n_hide = max(1, int(round(fraction * rows.size)))
        chosen = generator.choice(rows.size, size=n_hide, replace=False)
        values = self._values.copy()
        hidden: list[tuple[int, int, float]] = []
        for idx in chosen:
            r, c = int(rows[idx]), int(cols[idx])
            hidden.append((r, c, float(values[r, c])))
            values[r, c] = np.nan
        return self.with_values(values), hidden

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RatingMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"density={self.density:.3f}, scale=[{self.scale.minimum}, "
            f"{self.scale.maximum}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and self.item_ids == other.item_ids
            and self.scale == other.scale
            and np.array_equal(self._values, other._values, equal_nan=True)
        )
