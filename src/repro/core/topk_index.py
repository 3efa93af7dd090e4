"""The shared top-k ranking artifact consumed by every formation operator.

The paper's greedy GRD algorithms (§4, §5) never look at a full rating row —
they only consume each user's *top-k prefix*: the items and ratings of her
``k`` best-ranked items.  :class:`TopKIndex` materialises that prefix once,
as a pair of ``(n_users, k_max)`` arrays, under the library-wide
deterministic tie-break contract:

    *items are ranked by rating descending; equal ratings are broken by
    ascending item index.*

Because that contract defines a total order per user, the top-``k`` table
for any ``k <= k_max`` is exactly the first ``k`` columns of the
top-``k_max`` table — so one index, built once per ``(ratings, k_max)``,
serves an entire ``(k, ℓ, semantics, aggregation)`` configuration sweep.

The index is built through :meth:`RatingStore.top_k
<repro.recsys.store.RatingStore.top_k>`: a dense store runs the exact
ranking kernels of :mod:`repro.core.kernels` (compiled and numpy paths
are bit-identical by contract), a sparse million-user store runs the CSR top-k
kernel straight from its arrays and never densifies.  The kernels share one
tie-break, so an index built from a :class:`~repro.recsys.store.SparseStore`
is bit-identical to one built from the equivalent dense array.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core import kernels
from repro.core.errors import GroupFormationError
from repro.obs.registry import H_STORE_WRITE
from repro.obs.runtime import observed
from repro.utils.arrays import sorted_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.recsys.matrix import RatingMatrix
    from repro.recsys.store import MutableRatingStore, RatingStore

__all__ = ["TopKIndex", "MutableTopKIndex"]


class TopKIndex:
    """Precomputed per-user top-``k_max`` items and ratings.

    Attributes
    ----------
    items:
        ``(n_users, k_max)`` integer array; ``items[u, r]`` is the item index
        ranked ``r``-th for user ``u`` under the deterministic tie-break
        (rating descending, item index ascending).
    values:
        Matching ``(n_users, k_max)`` float array of ratings.
    n_items:
        Catalogue size of the source ratings (needed to validate ``k``).
    """

    def __init__(self, items: np.ndarray, values: np.ndarray, n_items: int) -> None:
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if items.ndim != 2 or items.shape != values.shape:
            raise GroupFormationError(
                f"TopKIndex needs matching 2-D item/value tables, got "
                f"{items.shape} and {values.shape}"
            )
        n_items = int(n_items)
        if not 1 <= items.shape[1] <= n_items:
            raise GroupFormationError(
                f"k_max must be between 1 and n_items ({n_items}), got {items.shape[1]}"
            )
        self.items = items
        self.values = values
        self.n_items = n_items
        # Contiguous per-k slices, materialised lazily; keyed by k so a sweep
        # re-slicing the same k pays the copy once.
        self._slices: dict[int, tuple[np.ndarray, np.ndarray]] = {
            items.shape[1]: (items, values)
        }

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        ratings: "RatingStore | RatingMatrix | np.ndarray",
        k_max: int,
        table_fn: "Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]] | None" = None,
    ) -> "TopKIndex":
        """Build the index for ``ratings`` through its store.

        Parameters
        ----------
        ratings:
            A :class:`~repro.recsys.store.RatingStore` (dense or sparse), a
            complete :class:`~repro.recsys.matrix.RatingMatrix`, or a raw
            complete array.
        k_max:
            Largest top-k prefix the index must serve.
        table_fn:
            Dense top-k kernel ``(dense_block, k) -> (items, values)``.  The
            default (``None``) lets the store rank itself
            (:meth:`~repro.recsys.store.RatingStore.top_k`): the library's
            fastest exact kernel over a dense array, the CSR kernel over a
            sparse store.  The reference engine backend passes its
            deliberately naive full-sort here, which densifies sparse stores
            in blocks of :data:`~repro.recsys.store.DEFAULT_BLOCK_USERS`
            rows (every kernel is bit-identical — only build time differs).
        """
        from repro.recsys.store import DEFAULT_BLOCK_USERS, DenseStore, as_store

        store = as_store(ratings)
        n_users, n_items = store.shape
        k_max = int(k_max)
        if not 1 <= k_max <= n_items:
            raise GroupFormationError(
                f"k_max must be between 1 and the number of items ({n_items}), "
                f"got {k_max}"
            )
        if table_fn is None:
            items_table, values_table = store.top_k(None, k_max)
            return cls(items_table, values_table, n_items)
        if isinstance(store, DenseStore):
            items_table, values_table = table_fn(store.values, k_max)
            return cls(items_table, values_table, n_items)

        items_table = np.empty((n_users, k_max), dtype=np.int64)
        values_table = np.empty((n_users, k_max), dtype=np.float64)
        for start, stop, block in store.iter_blocks(DEFAULT_BLOCK_USERS):
            items_table[start:stop], values_table[start:stop] = table_fn(block, k_max)
        return cls(items_table, values_table, n_items)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        """Number of users covered by the index."""
        return self.items.shape[0]

    @property
    def k_max(self) -> int:
        """Largest prefix length this index can serve."""
        return self.items.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident size of the two tables in bytes."""
        return int(self.items.nbytes + self.values.nbytes)

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(items, values)`` top-``k`` tables for any ``k <= k_max``.

        ``k < k_max`` returns cached C-contiguous copies of the first ``k``
        columns, so downstream kernels see the same layout a direct
        :func:`repro.core.preferences.top_k_table` call would give them; the
        full-width tables are returned as built.
        """
        k = int(k)
        if not 1 <= k <= self.k_max:
            raise GroupFormationError(
                f"k must be between 1 and k_max ({self.k_max}), got {k}"
            )
        cached = self._slices.get(k)
        if cached is None:
            cached = (
                np.ascontiguousarray(self.items[:, :k]),
                np.ascontiguousarray(self.values[:, :k]),
            )
            self._slices[k] = cached
        return cached

    def for_users(self, users: np.ndarray | list[int]) -> "TopKIndex":
        """A new index restricted to ``users`` (rows in the given order)."""
        users = np.asarray(users, dtype=np.int64)
        return TopKIndex(self.items[users], self.values[users], self.n_items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopKIndex(n_users={self.n_users}, k_max={self.k_max}, "
            f"n_items={self.n_items})"
        )


class MutableTopKIndex(TopKIndex):
    """A :class:`TopKIndex` that stays fresh under online rating updates.

    The batch index is immutable by design: one build per ``(ratings,
    k_max)``.  The online serving layer (:mod:`repro.service`) instead needs
    the index to *follow* a stream of rating upserts/deletes and user
    additions/removals without paying a full ``O(n_users · n_items)``
    rebuild per batch.  This class owns a **mutable backing store**
    (:class:`~repro.recsys.store.MutableRatingStore`) and keeps the index
    under one rule: every update batch is first written to the store (the
    single source of truth), then every user the batch touched is
    re-ranked through the exact same top-k kernel a fresh build would
    use.  Ranking is row-independent, so the index is **bit-identical** to
    ``TopKIndex.build(store, k_max)`` after every batch (the property suite
    in ``tests/core/test_mutable_topk.py`` asserts this).

    Every mutating batch bumps :attr:`version` — including batches that
    leave every top-k row unchanged, because formation *results* also read
    below-top-k ratings from the store when scoring groups.  The serving
    layer memoizes formation results keyed on this version.

    Parameters
    ----------
    store:
        The mutable rating store the index tracks.  All updates must flow
        through this index so store and index cannot drift apart.
    k_max:
        Largest top-k prefix the index serves (``1 <= k_max <= n_items``).
    table_fn:
        Top-k kernel ``(dense_block, k) -> (items, values)``; defaults to
        the library's fastest exact kernel (same default as
        :meth:`TopKIndex.build`).
    base:
        Optional prebuilt :class:`TopKIndex` over the *current* contents of
        ``store`` (e.g. a snapshot's saved tables).  Its tables are adopted
        in place instead of building from scratch, and repair writes into
        them — the caller is responsible for the base actually matching
        the store's ratings.  Shape or ``k_max`` mismatches raise.

    Raises
    ------
    GroupFormationError
        When the store lacks the mutation interface or ``k_max`` is out of
        range.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.topk_index import MutableTopKIndex, TopKIndex
    >>> from repro.recsys.store import DenseStore
    >>> store = DenseStore(np.array([[5.0, 1.0, 3.0], [2.0, 4.0, 4.0]]))
    >>> index = MutableTopKIndex(store, k_max=2)
    >>> index.items.tolist()
    [[0, 2], [1, 2]]
    >>> index.apply(upserts=[(0, 1, 4.0)])["repaired_users"]
    1
    >>> index.items.tolist()
    [[0, 1], [1, 2]]
    >>> fresh = TopKIndex.build(store, 2)
    >>> bool(np.array_equal(index.items, fresh.items))
    True
    """

    def __init__(
        self,
        store: "MutableRatingStore",
        k_max: int,
        table_fn: "Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]] | None" = None,
        base: "TopKIndex | None" = None,
    ) -> None:
        for method in ("upsert", "delete", "clear_rows", "append_users"):
            if not hasattr(store, method):
                raise GroupFormationError(
                    f"MutableTopKIndex needs a mutable rating store "
                    f"(missing .{method}()); DenseStore and SparseStore both qualify"
                )
        if base is not None:
            if base.n_users != store.shape[0] or base.n_items != store.shape[1]:
                raise GroupFormationError(
                    f"base index shape ({base.n_users} users, {base.n_items} items) "
                    f"does not match the store {store.shape}"
                )
            if base.k_max != int(k_max):
                raise GroupFormationError(
                    f"base index k_max ({base.k_max}) does not match the requested "
                    f"k_max ({k_max})"
                )
        else:
            base = TopKIndex.build(store, k_max, table_fn=table_fn)
        super().__init__(base.items, base.values, base.n_items)
        self._store = store
        self._table_fn = table_fn
        self._version = 0
        self._removed: set[int] = set()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> "MutableRatingStore":
        """The backing mutable store (single source of rating truth)."""
        return self._store

    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every mutating batch.

        Formation results computed at version ``v`` remain valid exactly as
        long as ``index.version == v`` — the serving layer's memoization
        key.
        """
        return self._version

    @property
    def removed(self) -> frozenset[int]:
        """Tombstoned user indices (rows kept, ratings cleared to fill)."""
        return frozenset(self._removed)

    def active_users(self) -> np.ndarray:
        """Ascending indices of users that have not been removed.

        Returns
        -------
        numpy.ndarray
            ``int64`` array of the non-tombstoned user indices.
        """
        if not self._removed:
            return np.arange(self.n_users, dtype=np.int64)
        mask = np.ones(self.n_users, dtype=bool)
        mask[np.fromiter(self._removed, dtype=np.int64)] = False
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def _repair(self, users: np.ndarray) -> None:
        """Re-rank ``users`` from the store with the build kernel.

        Row-independence of the top-k kernels makes this bit-identical to a
        fresh build restricted to those rows.
        """
        if self._table_fn is None:
            items_t, values_t = self._store.top_k(users, self.k_max)
        else:
            items_t, values_t = self._table_fn(self._store.rows(users), self.k_max)
        self.items[users] = items_t
        self.values[users] = values_t

    def _finish_batch(self) -> None:
        """Invalidate slice caches and bump the version."""
        self._slices = {self.k_max: (self.items, self.values)}
        self._version += 1

    def apply(
        self,
        upserts: "Sequence[tuple[int, int, float]] | np.ndarray" = (),
        deletes: "Sequence[tuple[int, int]] | np.ndarray" = (),
    ) -> dict[str, int]:
        """Apply one batch of rating updates to the store and the index.

        Parameters
        ----------
        upserts:
            ``(user, item, rating)`` triples to write.  Duplicate cells
            within a batch collapse last-wins.
        deletes:
            ``(user, item)`` pairs whose cells revert to the store's
            ``fill_value``.  Deletes are applied *after* upserts within a
            batch.
        upserts and deletes may be sequences of tuples or 2-D arrays.

        Returns
        -------
        dict
            ``{"upserts", "deletes", "repaired_users", "skipped_updates",
            "version"}`` — the batch's bookkeeping (``repaired_users``
            counts the distinct users the batch touched, each re-ranked
            once; ``skipped_updates`` is always 0).

        Raises
        ------
        RatingDataError
            Propagated from the store on out-of-range coordinates or
            off-scale ratings (the batch is rejected atomically *before*
            any write).
        """
        up = np.asarray(list(upserts) if not isinstance(upserts, np.ndarray) else upserts,
                        dtype=np.float64)
        de = np.asarray(list(deletes) if not isinstance(deletes, np.ndarray) else deletes,
                        dtype=np.float64)
        if up.size and (up.ndim != 2 or up.shape[1] != 3):
            raise GroupFormationError(
                f"upserts must be (user, item, rating) triples, got shape {up.shape}"
            )
        if de.size and (de.ndim != 2 or de.shape[1] != 2):
            raise GroupFormationError(
                f"deletes must be (user, item) pairs, got shape {de.shape}"
            )
        # Coordinates travel as float64 (one array with the ratings; JSON
        # clients may send floats) — reject fractional indices instead of
        # silently truncating onto a different cell.
        if up.size and (up[:, :2] != np.floor(up[:, :2])).any():
            raise GroupFormationError("upsert user/item indices must be integers")
        if de.size and (de != np.floor(de)).any():
            raise GroupFormationError("delete user/item indices must be integers")
        if not up.size and not de.size:
            return {
                "upserts": 0, "deletes": 0, "repaired_users": 0,
                "skipped_updates": 0, "version": self._version,
            }

        # Pre-validate delete coordinates so the batch cannot fail *between*
        # the upsert write and the delete write (upsert validation happens
        # inside the store before it writes anything).
        if de.size and (
            de[:, 0].min() < 0
            or de[:, 0].max() >= self.n_users
            or de[:, 1].min() < 0
            or de[:, 1].max() >= self.n_items
        ):
            raise GroupFormationError("delete coordinates out of range")

        # Write through to the store (validates and may raise before any
        # index state changed).
        touched = []
        if up.size:
            users = up[:, 0].astype(np.int64)
            with observed("store.write", H_STORE_WRITE):
                self._store.upsert(users, up[:, 1].astype(np.int64), up[:, 2])
            touched.append(users)
        if de.size:
            users = de[:, 0].astype(np.int64)
            with observed("store.write", H_STORE_WRITE):
                self._store.delete(users, de[:, 1].astype(np.int64))
            touched.append(users)

        # Re-rank every touched user: one kernel call over the distinct
        # rows costs less than screening each update for rows it cannot move.
        dirty_users = sorted_unique(np.concatenate(touched), overwrite_input=True)
        self._repair(dirty_users)
        self._finish_batch()
        return {
            "upserts": int(up.shape[0]) if up.size else 0,
            "deletes": int(de.shape[0]) if de.size else 0,
            "repaired_users": int(dirty_users.size),
            # Nothing is screened out, so nothing is skipped; the key stays
            # because perfbench/tracer.py reads it in traced runs.
            "skipped_updates": 0,
            "version": self._version,
        }

    def add_users(self, rows: np.ndarray) -> np.ndarray:
        """Append new users to the store and rank them into the index.

        Parameters
        ----------
        rows:
            Dense ``(m, n_items)`` ratings of the new users.

        Returns
        -------
        numpy.ndarray
            The global indices assigned to the new users.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[None, :]
        start = self.n_users
        self._store.append_users(rows)
        if self._table_fn is None:
            items_t, values_t = kernels.top_k_table(
                rows, self.k_max, assume_finite=True
            )
        else:
            items_t, values_t = self._table_fn(rows, self.k_max)
        self.items = np.vstack([self.items, items_t])
        self.values = np.vstack([self.values, values_t])
        self._finish_batch()
        return np.arange(start, start + rows.shape[0], dtype=np.int64)

    def remove_users(self, users: "Sequence[int] | np.ndarray") -> None:
        """Tombstone users: clear their ratings and mark them inactive.

        Rows are positional throughout the library, so removal keeps the
        row (cleared to the store's fill value — the index row repairs to
        the all-fill ranking, preserving build parity) and records the
        user in :attr:`removed`; :meth:`active_users` and the serving
        layer exclude tombstoned users from formation.

        Parameters
        ----------
        users:
            User indices to remove.  Removing an already-removed user is a
            no-op.
        """
        users = sorted_unique(np.asarray(users, dtype=np.int64))
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise GroupFormationError("remove_users index out of range")
        if not users.size:
            return
        self._store.clear_rows(users)
        self._removed.update(int(u) for u in users)
        self._repair(users)
        self._finish_batch()

    def adopt_state(
        self, version: int, removed: "Sequence[int] | np.ndarray" = ()
    ) -> None:
        """Restore snapshot bookkeeping onto a freshly-constructed index.

        Crash recovery (:mod:`repro.ingest`) rebuilds the index from a
        snapshot's tables via the ``base=`` constructor path, then calls
        this to restore the counters a live process would have had —
        making the recovered index indistinguishable from one that never
        restarted.

        Parameters
        ----------
        version:
            The :attr:`version` the index had when the snapshot was taken.
        removed:
            Tombstoned user indices recorded in the snapshot.
        """
        version = int(version)
        if version < 0:
            raise GroupFormationError(f"version must be >= 0, got {version}")
        removed = np.asarray(removed, dtype=np.int64).ravel()
        if removed.size and (removed.min() < 0 or removed.max() >= self.n_users):
            raise GroupFormationError("adopt_state removed index out of range")
        self._version = version
        self._removed = {int(u) for u in removed}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableTopKIndex(n_users={self.n_users}, k_max={self.k_max}, "
            f"n_items={self.n_items}, version={self._version})"
        )
