"""Rating storage backends: the :class:`RatingStore` protocol and its
dense / CSR-sparse implementations.

The greedy group-formation algorithms of the paper only ever consume rating
data through a handful of access patterns — each user's *top-k* prefix,
the *group score* of every item for the left-over group, and the
*segment scores* of the selected groups, each on its own recommended list
(groups as flat ``(member_ids, offsets)`` segments, scored in one
vectorised reduction).  :class:`RatingStore` captures exactly those patterns, so
every layer above (preferences, engine, baselines, exact solvers,
experiments) can run off either storage:

``DenseStore``
    The historical representation: one complete ``float64`` ndarray.  Zero
    conversion cost; ranking runs the dense kernels of
    :mod:`repro.core.kernels` over views of the array, so results through a
    ``DenseStore`` are bit-identical to passing the raw array.
``SparseStore``
    A ``scipy.sparse`` CSR matrix of the *explicit* ratings plus a
    ``fill_value`` giving the rating of every unobserved cell.  Real
    explicit-feedback data (MovieLens, Yahoo! Music) is >95% sparse, so the
    store ranks and scores straight from its CSR arrays and never builds a
    dense ``n_users x n_items`` canvas: :meth:`SparseStore.top_k` runs the
    CSR top-k kernel (``O(nnz + k)`` per row),
    :meth:`SparseStore.item_scores` reduces the members' stored entries in
    place (:func:`repro.core.kernels.csr_item_scores`), or, for a group of
    most of the rows, subtracts the other rows' entries from per-item
    level counts it keeps (:func:`repro.core.kernels.level_item_scores`),
    and
    :meth:`SparseStore.segment_item_scores` looks the selected groups'
    cells up with one ``searchsorted``.  Only
    ``block``/``rows``/``gather``/``to_dense`` (and the scoring fallback
    below) densify.

Densification of a ``SparseStore`` block writes the stored ratings over a
``fill_value`` canvas (no arithmetic on the stored values), so a
``SparseStore`` built from a complete matrix reproduces that matrix bit for
bit — the dense↔sparse parity suite in ``tests/core/test_store_parity.py``
relies on this.  The CSR paths keep that bit-identity by construction:
top-k only compares values, and the scoring reductions run only where
their arithmetic is order-independent (the exactness gates of
:func:`repro.core.kernels.csr_item_scores` and
:func:`repro.core.kernels.segment_scores`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import Hashable, Protocol, runtime_checkable

import numpy as np
from scipy import sparse as sp

from repro.core.errors import GroupFormationError, RatingDataError
from repro.core.semantics import Semantics
from repro.obs.runtime import observed
from repro.recsys.matrix import RatingMatrix, RatingScale

__all__ = [
    "RatingStore",
    "MutableRatingStore",
    "DenseStore",
    "SparseStore",
    "as_store",
    "DEFAULT_BLOCK_USERS",
    "DEFAULT_STORE",
    "STORES",
]

#: Rating-store implementations selectable via ``--store``.
STORES: tuple[str, ...] = ("dense", "sparse")

#: Store used when none is requested explicitly.
DEFAULT_STORE = "dense"

#: Default number of users densified at a time by block iteration.  Sized so
#: a block of a 10k-item catalogue costs ~160 MB — small enough to keep a
#: million-user run inside the acceptance memory budget, large enough that
#: per-block numpy dispatch overhead is negligible.
DEFAULT_BLOCK_USERS = 2048

#: Target dense working-set (in float64 elements, ~256 MB) of one chunk of
#: the streaming group-score reduction.  Groups that fit one chunk keep the
#: floating-point summation order of the AV semantics identical to the
#: dense path; larger groups fold chunk partials together (exact for LM —
#: min is associative — and for the integer-valued ratings all bundled
#: datasets produce).
_STREAM_TARGET_ELEMENTS = 1 << 25

#: Most integer levels a sparse store codes; a store on a wider scale
#: keeps only float64 values, ranks them by comparison and scores every
#: group with the direct reduce.
_MAX_LEVELS = 64

#: Complement-path scores a sparse store reduces directly before it builds
#: its level counts.  One build costs about four direct reduces of a group
#: of most rows (20 vs 3.5-4.9 ms on 5M entries, 2.8 vs 0.7-0.9 ms on
#: 0.8M), so the store builds once its direct reduces have cost as much:
#: a store scored a few times, like a one-shot formation or a replica's
#: copy of one index version, never pays the build.
_DIRECT_SCORES_BEFORE_BUILD = 4


@runtime_checkable
class RatingStore(Protocol):
    """Access patterns the formation stack needs from rating storage.

    All methods return dense ``float64`` arrays; implementations decide how
    the data lives at rest.  Ratings must be complete (every user/item cell
    has a value — explicit or via a documented fill) and finite.
    """

    @property
    def n_users(self) -> int:
        """Number of user rows."""
        ...

    @property
    def n_items(self) -> int:
        """Catalogue size (number of item columns)."""
        ...

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_users, n_items)``."""
        ...

    @property
    def scale(self) -> RatingScale:
        """The bounded rating scale every stored value lies on."""
        ...

    @property
    def density(self) -> float:
        """Fraction of cells stored explicitly (1.0 for dense storage)."""
        ...

    @property
    def nbytes(self) -> int:
        """Resident size of the stored representation in bytes."""
        ...

    def block(self, start: int, stop: int) -> np.ndarray:
        """Dense ``(stop - start, n_items)`` slice of contiguous user rows."""
        ...

    def rows(self, users: Sequence[int] | np.ndarray) -> np.ndarray:
        """Dense rows for an arbitrary set of users, in the given order."""
        ...

    def gather(
        self, users: Sequence[int] | np.ndarray, items: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Dense ``(len(users), len(items))`` sub-matrix."""
        ...

    def iter_blocks(
        self, block_users: int = DEFAULT_BLOCK_USERS
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, dense_block)`` in ``block_users``-row steps."""
        ...

    def to_dense(self) -> np.ndarray:
        """The full dense ``(n_users, n_items)`` array (use with care)."""
        ...

    def top_k(
        self, rows: slice | Sequence[int] | np.ndarray | None, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row top-``k`` ``(items, values)`` tables of the given rows.

        ``rows`` is a slice, an index array (output in that order) or
        ``None`` for every user; ties break by ascending item index.
        """
        ...

    def item_scores(
        self, members: Sequence[int] | np.ndarray, semantics: Semantics
    ) -> np.ndarray:
        """Group score of every item for ``members`` under ``semantics``.

        The minimum over members for LM, the sum for AV (Definitions 1 and
        2 of the paper), bit-identical to the dense reduction.
        """
        ...

    def segment_item_scores(
        self,
        member_ids: np.ndarray,
        offsets: np.ndarray,
        items_rows: np.ndarray,
        semantics: Semantics,
    ) -> np.ndarray:
        """``(n_groups, k)`` scores of many groups, each on its own item list.

        Parameters
        ----------
        member_ids:
            Group members, each group's ids contiguous.
        offsets:
            ``(n_groups + 1,)`` segment boundaries: group ``g`` is
            ``member_ids[offsets[g]:offsets[g + 1]]`` (never empty).
        items_rows:
            ``(n_groups, k)`` item list of each group.
        semantics:
            LM (minimum over members) or AV (sum over members).

        Every score equals the single-group reduction of
        :func:`repro.core.grouping.build_group` bit for bit.
        """
        ...


@runtime_checkable
class MutableRatingStore(RatingStore, Protocol):
    """A :class:`RatingStore` that additionally accepts in-place updates.

    This is the contract the online serving layer
    (:mod:`repro.service`) builds on: cells can be upserted or deleted and
    user rows appended or cleared, while every read-side method keeps the
    :class:`RatingStore` guarantees (complete, finite, on-scale ratings).
    Deleting a cell reverts it to the store's :attr:`fill_value`.
    """

    @property
    def fill_value(self) -> float:
        """Rating a deleted (or never-rated) cell reads back as."""
        ...

    def upsert(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Set ``store[users[j], items[j]] = values[j]`` for every ``j``."""
        ...

    def delete(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
    ) -> None:
        """Revert the cells ``(users[j], items[j])`` to :attr:`fill_value`."""
        ...

    def clear_rows(self, users: Sequence[int] | np.ndarray) -> None:
        """Revert every cell of the ``users`` rows to :attr:`fill_value`."""
        ...

    def append_users(self, rows: np.ndarray) -> None:
        """Append ``rows`` (dense ``(m, n_items)``) as new trailing users."""
        ...


def _validate_update_coords(
    users: Sequence[int] | np.ndarray,
    items: Sequence[int] | np.ndarray,
    shape: tuple[int, int],
    values: Sequence[float] | np.ndarray | None,
    scale: RatingScale,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate coordinate updates shared by every mutable store.

    Parameters
    ----------
    users, items:
        Parallel coordinate arrays of the cells to touch.
    shape:
        ``(n_users, n_items)`` of the store being mutated.
    values:
        New ratings (``None`` for deletions).
    scale:
        Rating scale the new values must lie on.

    Returns
    -------
    tuple
        ``(users, items, values)`` as validated ``int64`` / ``float64``
        arrays (``values`` is ``None`` for deletions).  Duplicate
        coordinates are collapsed **last-wins**, so a batch behaves like
        its updates applied in order regardless of the store backend.

    Raises
    ------
    RatingDataError
        On ragged inputs, out-of-range coordinates, or non-finite /
        off-scale values.
    """
    users = np.asarray(users, dtype=np.int64).ravel()
    items = np.asarray(items, dtype=np.int64).ravel()
    if users.shape != items.shape:
        raise RatingDataError(
            f"update coordinates must be parallel arrays, got {users.size} users "
            f"and {items.size} items"
        )
    if users.size and (users.min() < 0 or users.max() >= shape[0]):
        raise RatingDataError("update user index out of range")
    if items.size and (items.min() < 0 or items.max() >= shape[1]):
        raise RatingDataError("update item index out of range")
    if values is not None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape != users.shape:
            raise RatingDataError(
                f"updates need one value per coordinate, got {values.size} values "
                f"for {users.size} cells"
            )
        if values.size and not np.isfinite(values).all():
            raise RatingDataError("updates must be finite ratings")
        if values.size and not scale.contains(values):
            raise RatingDataError(
                f"updates contain values outside the rating scale "
                f"[{scale.minimum}, {scale.maximum}]"
            )
    if users.size > 1:
        # Collapse duplicate coordinates last-wins: np.unique on the
        # reversed flat coordinates returns the *last* occurrence of each.
        flat = users * np.int64(shape[1]) + items
        _, rev_idx = np.unique(flat[::-1], return_index=True)
        keep = users.size - 1 - rev_idx
        if keep.size != users.size:
            users, items = users[keep], items[keep]
            if values is not None:
                values = values[keep]
    return users, items, values


def _validate_new_rows(rows: np.ndarray, n_items: int, scale: RatingScale) -> np.ndarray:
    """Validate dense rows being appended to a mutable store.

    Parameters
    ----------
    rows:
        ``(m, n_items)`` dense ratings of the new users.
    n_items:
        Catalogue width of the store being appended to.
    scale:
        Rating scale the new rows must lie on.

    Returns
    -------
    numpy.ndarray
        The rows as a validated 2-D ``float64`` array.

    Raises
    ------
    RatingDataError
        When the rows are ragged, off-catalogue, non-finite or off-scale.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[1] != n_items:
        raise RatingDataError(
            f"appended users need shape (m, {n_items}), got {rows.shape}"
        )
    if rows.size and not np.isfinite(rows).all():
        raise RatingDataError("appended user rows must be finite")
    if rows.size and not scale.contains(rows):
        raise RatingDataError(
            f"appended user rows contain values outside the rating scale "
            f"[{scale.minimum}, {scale.maximum}]"
        )
    return rows


def _validate_dense(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise RatingDataError(
            f"rating store expects a 2-D user x item array, got shape {values.shape}"
        )
    if values.shape[0] == 0 or values.shape[1] == 0:
        raise RatingDataError(
            f"rating store needs at least one user and one item, got {values.shape}"
        )
    if not np.isfinite(values).all():
        raise RatingDataError(
            "rating store requires complete, finite ratings; fill missing entries "
            "(repro.recsys.complete_matrix) before building a store"
        )
    return values


def _stream_item_scores(
    store: RatingStore, members: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Group item scores reduced over densified member-row chunks.

    The dense scoring path of every store: member rows are densified
    :data:`_STREAM_TARGET_ELEMENTS` cells at a time, so even a
    million-user left-over group never materialises the full matrix.
    """
    accumulated = None
    block = max(1, _STREAM_TARGET_ELEMENTS // store.shape[1])
    for start in range(0, members.size, block):
        rows = store.rows(members[start:start + block])
        if semantics is Semantics.LEAST_MISERY:
            partial = rows.min(axis=0)
            accumulated = (
                partial if accumulated is None else np.minimum(accumulated, partial)
            )
        else:
            partial = rows.sum(axis=0)
            accumulated = partial if accumulated is None else accumulated + partial
    return accumulated


def _group_members(members: Sequence[int] | np.ndarray, n_users: int) -> np.ndarray:
    """``members`` as a validated ``int64`` array of user ids.

    Raises
    ------
    GroupFormationError
        When the group is empty or an id lies outside ``[0, n_users)`` —
        numpy and scipy would silently wrap a negative id to another user.
    """
    members = np.asarray(members, dtype=np.int64).ravel()
    if members.size == 0:
        raise GroupFormationError("cannot score items for an empty group")
    if members.min() < 0 or members.max() >= n_users:
        raise GroupFormationError(
            f"group member ids must lie in [0, {n_users})"
        )
    return members


def _group_segments(
    member_ids: np.ndarray,
    offsets: np.ndarray,
    items_rows: np.ndarray,
    n_users: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate flat group segments for :meth:`RatingStore.segment_item_scores`.

    Returns
    -------
    tuple
        ``(member_ids, offsets, columns)``: the ids and offsets as
        ``int64``, and each member's group list as an ``(n_members, k)``
        item array (row ``i`` is the list of the group member ``i``
        belongs to).

    Raises
    ------
    GroupFormationError
        On a malformed segment array, an empty group, or a member id
        outside ``[0, n_users)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64).ravel()
    items_rows = np.asarray(items_rows, dtype=np.int64)
    member_ids = np.asarray(member_ids, dtype=np.int64).ravel()
    sizes = np.diff(offsets)
    if (
        offsets.size == 0
        or offsets[0] != 0
        or offsets[-1] != member_ids.size
        or items_rows.ndim != 2
        or items_rows.shape[0] != sizes.size
    ):
        raise GroupFormationError(
            "group segments need offsets from 0 to len(member_ids) and one "
            "item row per group"
        )
    if (sizes <= 0).any():
        raise GroupFormationError("cannot score items for an empty group")
    if member_ids.size:
        _group_members(member_ids, n_users)
    return member_ids, offsets, np.repeat(items_rows, sizes, axis=0)


def _canonical_csr(csr: sp.csr_matrix) -> sp.csr_matrix:
    """``csr`` (indices already sorted) without duplicate ``(row, col)`` entries.

    scipy's O(nnz) canonical-format scan runs first (skipped when the
    matrix is already flagged canonical, as shared-memory attachments are);
    only a matrix that fails it pays the vectorised duplicate pass.  Exact
    duplicates collapse to one entry and conflicting ones raise — the rule
    of :meth:`SparseStore.from_triples`.

    Raises
    ------
    RatingDataError
        When one cell is stored twice with different ratings.
    """
    if csr.has_canonical_format:
        return csr
    nnz = csr.nnz
    data, indices, indptr = csr.data[:nnz], csr.indices[:nnz], csr.indptr
    row = np.repeat(np.arange(csr.shape[0]), np.diff(indptr))
    dup = (indices[1:] == indices[:-1]) & (row[1:] == row[:-1])
    if (data[1:][dup] != data[:-1][dup]).any():
        raise RatingDataError(
            "conflicting duplicate ratings for one (user, item) cell in the "
            "sparse rating store"
        )
    keep = np.concatenate(([True], ~dup))
    canonical_indptr = np.zeros_like(indptr)
    np.cumsum(np.bincount(row[keep], minlength=csr.shape[0]), out=canonical_indptr[1:])
    canonical = sp.csr_matrix(
        (data[keep], indices[keep], canonical_indptr), shape=csr.shape
    )
    canonical.has_canonical_format = True
    return canonical


def _index_dtype(csr: sp.csr_matrix, nnz: int) -> np.dtype:
    """Index dtype of ``csr`` once it holds ``nnz`` entries (scipy's rule).

    int32 ``indices``/``indptr`` widen to int64 when ``nnz`` passes the
    int32 range; int64 ones stay int64.
    """
    wide = csr.indices.dtype == np.int64 or csr.indptr.dtype == np.int64
    if wide or nnz > np.iinfo(np.int32).max:
        return np.dtype(np.int64)
    return np.dtype(np.int32)


def _splice(
    array: np.ndarray, at: np.ndarray, new: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """``array`` with ``new[j]`` inserted before position ``at[j]``, as ``dtype``.

    ``at`` is ascending.  One ``np.concatenate`` of the runs between the
    insertion points interleaved with the new elements (``np.insert``
    would build an ``array``-sized mask).
    """
    new = new.astype(dtype, copy=False)
    parts = []
    start = 0
    for j, stop in enumerate(at.tolist()):
        parts += (array[start:stop], new[j:j + 1])
        start = stop
    parts.append(array[start:])
    return np.concatenate(parts, dtype=dtype)


class DenseStore:
    """A :class:`RatingStore` over one complete in-memory ``float64`` array.

    Examples
    --------
    >>> import numpy as np
    >>> store = DenseStore(np.array([[5.0, 1.0], [2.0, 4.0]]))
    >>> store.block(0, 1)
    array([[5., 1.]])
    """

    def __init__(
        self,
        values: np.ndarray,
        scale: RatingScale | None = None,
        copy: bool = False,
        validate: bool = True,
    ) -> None:
        values = _validate_dense(values) if validate else np.asarray(values, dtype=float)
        self._values = np.array(values, copy=True) if copy else values
        self._scale = scale if scale is not None else RatingScale()

    @classmethod
    def from_matrix(cls, matrix: RatingMatrix) -> "DenseStore":
        """Wrap a complete :class:`~repro.recsys.matrix.RatingMatrix`."""
        return cls(matrix.values, scale=matrix.scale)

    @property
    def values(self) -> np.ndarray:
        """The wrapped dense array (not a copy)."""
        return self._values

    @property
    def n_users(self) -> int:
        """Number of user rows."""
        return self._values.shape[0]

    @property
    def n_items(self) -> int:
        """Catalogue size (number of item columns)."""
        return self._values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_users, n_items)``."""
        return self._values.shape

    @property
    def scale(self) -> RatingScale:
        """The bounded rating scale every stored value lies on."""
        return self._scale

    @property
    def density(self) -> float:
        """Fraction of cells stored explicitly — always ``1.0`` here."""
        return 1.0

    @property
    def nbytes(self) -> int:
        """Resident size of the wrapped array in bytes."""
        return int(self._values.nbytes)

    def block(self, start: int, stop: int) -> np.ndarray:
        """View of the contiguous user rows ``start:stop`` (no copy)."""
        return self._values[start:stop]

    def rows(self, users: Sequence[int] | np.ndarray) -> np.ndarray:
        """Dense rows for ``users``, in the given order (fancy-index copy)."""
        return self._values[np.asarray(users, dtype=np.int64)]

    def gather(
        self, users: Sequence[int] | np.ndarray, items: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Dense ``(len(users), len(items))`` sub-matrix of the given cells."""
        return self._values[
            np.ix_(np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64))
        ]

    def iter_blocks(
        self, block_users: int = DEFAULT_BLOCK_USERS
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, dense_view)`` over ``block_users``-row blocks."""
        for start in range(0, self.n_users, block_users):
            stop = min(start + block_users, self.n_users)
            yield start, stop, self._values[start:stop]

    def to_dense(self) -> np.ndarray:
        """The wrapped array itself (no copy)."""
        return self._values

    def top_k(
        self, rows: slice | Sequence[int] | np.ndarray | None, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` tables of ``rows`` from :func:`repro.core.kernels.top_k_table`.

        A slice (or ``None``: every user) ranks a view of the array, an
        index array a fancy-indexed copy of its rows.
        """
        from repro.core import kernels

        if rows is None:
            block = self._values
        elif isinstance(rows, slice):
            block = self._values[rows]
        else:
            block = self._values[np.asarray(rows, dtype=np.int64)]
        return kernels.top_k_table(block, k, assume_finite=True)

    def item_scores(
        self, members: Sequence[int] | np.ndarray, semantics: Semantics
    ) -> np.ndarray:
        """Group score of every item for ``members`` under ``semantics``.

        The members' rows are reduced per item in place by
        :func:`repro.core.kernels.dense_item_scores` (the compiled column
        reduce with a dense row source; no row is copied).  Where its
        exactness gate declines (``-0.0``, or fractional ratings for AV) or
        no compiled kernel is available, member rows are reduced in chunks
        of the wrapped array (the streaming path every store shares).
        """
        from repro.core import kernels

        # The kernel validates the member ids (and raises) before it can
        # decline, so only the fallback validates them again.
        scores = kernels.dense_item_scores(self._values, members, semantics)
        if scores is None:
            members = _group_members(members, self.n_users)
            return _stream_item_scores(self, members, semantics)
        return scores

    def segment_item_scores(
        self,
        member_ids: np.ndarray,
        offsets: np.ndarray,
        items_rows: np.ndarray,
        semantics: Semantics,
    ) -> np.ndarray:
        """Scores of every group on its own list (see :class:`RatingStore`).

        The ``(n_members, k)`` cells of ``member_ids`` x their group's
        ``items_rows`` row are one fancy index into the array;
        :func:`repro.core.kernels.segment_scores` reduces every group
        under ``semantics`` over ``offsets``.
        """
        from repro.core import kernels

        member_ids, offsets, columns = _group_segments(
            member_ids, offsets, items_rows, self.n_users
        )
        cells = self._values[member_ids[:, None], columns]
        return kernels.segment_scores(cells, offsets, semantics)

    # ------------------------------------------------------------------ #
    # MutableRatingStore interface
    # ------------------------------------------------------------------ #

    @property
    def fill_value(self) -> float:
        """Rating a deleted cell reverts to: the scale minimum.

        A dense store has no notion of "unobserved", so deletions adopt the
        same conservative completion the sparse store uses by default.
        """
        return float(self._scale.minimum)

    def upsert(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Write ratings into individual cells, in place.

        Parameters
        ----------
        users, items:
            Parallel coordinate arrays of the cells to write.
        values:
            New ratings; must be finite and on the store's scale.

        Raises
        ------
        RatingDataError
            On out-of-range coordinates or off-scale / non-finite values.
        """
        users, items, values = _validate_update_coords(
            users, items, self.shape, values, self._scale
        )
        self._values[users, items] = values

    def delete(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
    ) -> None:
        """Revert individual cells to :attr:`fill_value`, in place.

        Parameters
        ----------
        users, items:
            Parallel coordinate arrays of the cells to delete.

        Raises
        ------
        RatingDataError
            On out-of-range coordinates.
        """
        users, items, _ = _validate_update_coords(
            users, items, self.shape, None, self._scale
        )
        self._values[users, items] = self.fill_value

    def clear_rows(self, users: Sequence[int] | np.ndarray) -> None:
        """Revert whole user rows to :attr:`fill_value` (user "removal").

        Parameters
        ----------
        users:
            User indices whose every rating is deleted.  The rows stay in
            the store (indices are positional and must remain stable); the
            serving layer additionally tombstones the users.
        """
        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise RatingDataError("update user index out of range")
        self._values[users, :] = self.fill_value

    def append_users(self, rows: np.ndarray) -> None:
        """Append new trailing user rows.

        Parameters
        ----------
        rows:
            Dense ``(m, n_items)`` ratings of the new users; must be
            complete, finite and on the store's scale.

        Notes
        -----
        Appending reallocates the backing array (``O(n_users)``), so the
        serving layer batches user additions.
        """
        rows = _validate_new_rows(rows, self.n_items, self._scale)
        self._values = np.vstack([self._values, rows])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseStore(n_users={self.n_users}, n_items={self.n_items})"


class SparseStore:
    """A :class:`RatingStore` over a CSR matrix of explicit ratings.

    Parameters
    ----------
    explicit:
        ``scipy.sparse`` matrix (any format; converted to CSR) holding the
        explicitly observed ratings.  Stored values may legitimately equal
        ``fill_value`` — densification overwrites the fill canvas with the
        stored values, it does not rely on "nonzero means rated".  A cell
        stored twice with one rating is kept once; with two different
        ratings it raises :class:`~repro.core.errors.RatingDataError`.
    fill_value:
        Rating assumed for every unobserved cell (default: the scale
        minimum, the conservative completion for bounded explicit-feedback
        scales).  Must lie on the scale.
    scale:
        Rating scale (default 1–5).
    user_ids, item_ids:
        Optional external labels, carried for presentation only.
    """

    def __init__(
        self,
        explicit: sp.spmatrix | sp.sparray,
        fill_value: float | None = None,
        scale: RatingScale | None = None,
        user_ids: Sequence[Hashable] | None = None,
        item_ids: Sequence[Hashable] | None = None,
    ) -> None:
        if isinstance(explicit, sp.csr_matrix) and explicit.dtype == np.float64:
            csr = explicit  # adopt without copying (matters at 10^8 ratings)
        else:
            csr = sp.csr_matrix(explicit, dtype=np.float64)
        if csr.shape[0] == 0 or csr.shape[1] == 0:
            raise RatingDataError(
                f"rating store needs at least one user and one item, got {csr.shape}"
            )
        csr.sort_indices()
        self._scale = scale if scale is not None else RatingScale()
        self.fill_value = (
            float(self._scale.minimum) if fill_value is None else float(fill_value)
        )
        if not self._scale.contains(self.fill_value):
            raise RatingDataError(
                f"fill_value {self.fill_value} lies outside the rating scale "
                f"[{self._scale.minimum}, {self._scale.maximum}]"
            )
        # The scale's integer levels (lowest, count), None when there are
        # none, more than _MAX_LEVELS, or some is not an exact float64.
        self._level_range = None
        if self._scale.spread < _MAX_LEVELS:
            lowest = math.ceil(self._scale.minimum)
            n_levels = math.floor(self._scale.maximum) - lowest + 1
            if n_levels > 0 and abs(lowest) + n_levels <= 2**53:
                self._level_range = (float(lowest), n_levels)
        # The uint8 level code of every stored entry, aligned with the CSR
        # indices; None when some value is off the levels (or -0.0).
        # Encoding proves the values finite and on the scale, so only a
        # store without codes runs the two validation passes.
        self._codes = self._encode_entries(csr)
        if self._codes is None and csr.nnz:
            if not np.isfinite(csr.data).all():
                raise RatingDataError("sparse rating store contains non-finite ratings")
            if not self._scale.contains(csr.data):
                raise RatingDataError(
                    "sparse rating store contains values outside the declared "
                    f"scale [{self._scale.minimum}, {self._scale.maximum}]"
                )
        # The CSR kernels read each row's stored cells once, in order.
        self._csr = _canonical_csr(csr)
        if self._csr is not csr and self._codes is not None:
            self._codes = self._encode_entries(self._csr)  # duplicates dropped
        self.user_ids = tuple(user_ids) if user_ids is not None else None
        self.item_ids = tuple(item_ids) if item_ids is not None else None
        # Stored entries per (item, level), counted from the codes by
        # _level_table; None until then, and for good without codes.
        self._level_counts: np.ndarray | None = None
        self._direct_scores = 0

    def _encode_entries(self, csr: sp.csr_matrix) -> np.ndarray | None:
        """Level codes of ``csr``'s stored entries; ``None`` when off the levels."""
        if self._level_range is None:
            return None
        from repro.core import kernels

        return kernels.entry_levels(csr.data[:csr.nnz], *self._level_range)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_matrix(
        cls, matrix: RatingMatrix, fill_value: float | None = None
    ) -> "SparseStore":
        """Build from a :class:`RatingMatrix`.

        Missing entries of ``matrix`` read back as ``fill_value`` (default:
        the scale minimum).  A *complete* matrix round-trips bit for bit:
        every cell is stored explicitly, so the fill value never shows
        through.
        """
        mask = matrix.known_mask
        rows, cols = np.nonzero(mask)
        data = matrix.values[rows, cols]
        explicit = sp.csr_matrix(
            (data, (rows, cols)), shape=matrix.shape, dtype=np.float64
        )
        return cls(
            explicit,
            fill_value=fill_value,
            scale=matrix.scale,
            user_ids=matrix.user_ids,
            item_ids=matrix.item_ids,
        )

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[Hashable, Hashable, float]],
        n_users: int | None = None,
        n_items: int | None = None,
        fill_value: float | None = None,
        scale: RatingScale | None = None,
        chunk_size: int = 1 << 20,
    ) -> "SparseStore":
        """Build a store from a (possibly huge) stream of rating triples.

        The stream is consumed in ``chunk_size`` pieces, so only the
        coordinate arrays — never a dense matrix — are ever resident, and
        each chunk is converted **wholesale** with ``np.fromiter`` column
        extractions instead of appending triple by triple (the historical
        per-triple loop; ~4x slower on the conversion stage of a 2M-triple
        stream).  User and item labels are mapped to positional indices in
        first-seen order (deterministic for a deterministic stream); pass
        integer ``n_users`` / ``n_items`` with integer-index triples to
        skip label mapping.

        Unobserved cells read back as ``fill_value`` (default: the minimum
        of ``scale``, itself defaulting to 1-5 stars).  Duplicate
        ``(user, item)`` pairs with conflicting ratings raise
        :class:`~repro.core.errors.RatingDataError`; exact duplicates are
        tolerated (the same contract as ``RatingMatrix.from_triples``).
        """
        from itertools import islice

        direct = n_users is not None and n_items is not None
        user_pos: dict[Hashable, int] = {}
        item_pos: dict[Hashable, int] = {}
        row_chunks: list[np.ndarray] = []
        col_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []

        iterator = iter(triples)
        while True:
            chunk = list(islice(iterator, chunk_size))
            if not chunk:
                break
            count = len(chunk)
            try:
                if direct:
                    row_chunks.append(np.fromiter(
                        (t[0] for t in chunk), dtype=np.int64, count=count
                    ))
                    col_chunks.append(np.fromiter(
                        (t[1] for t in chunk), dtype=np.int64, count=count
                    ))
                else:
                    # fromiter consumes the dict lookups at C speed;
                    # setdefault assigns positions in first-seen order, as
                    # documented.
                    row_chunks.append(np.fromiter(
                        (user_pos.setdefault(t[0], len(user_pos)) for t in chunk),
                        dtype=np.int64, count=count,
                    ))
                    col_chunks.append(np.fromiter(
                        (item_pos.setdefault(t[1], len(item_pos)) for t in chunk),
                        dtype=np.int64, count=count,
                    ))
                val_chunks.append(np.fromiter(
                    (t[2] for t in chunk), dtype=np.float64, count=count,
                ))
            except (TypeError, IndexError) as exc:
                raise RatingDataError(
                    "triples must be (user, item, rating) sequences"
                ) from exc
        if not row_chunks:
            raise RatingDataError("cannot build a SparseStore from zero triples")

        row = np.concatenate(row_chunks)
        col = np.concatenate(col_chunks)
        val = np.concatenate(val_chunks)
        shape = (
            (int(n_users), int(n_items))
            if direct
            else (len(user_pos), len(item_pos))
        )
        if row.size and (row.min() < 0 or row.max() >= shape[0]):
            raise RatingDataError("triple user index out of range")
        if col.size and (col.min() < 0 or col.max() >= shape[1]):
            raise RatingDataError("triple item index out of range")

        order = np.lexsort((col, row))
        row, col, val = row[order], col[order], val[order]
        if row.size > 1:
            dup = (row[1:] == row[:-1]) & (col[1:] == col[:-1])
            if dup.any():
                if (val[1:][dup] != val[:-1][dup]).any():
                    raise RatingDataError(
                        "conflicting duplicate ratings in the triple stream"
                    )
                keep = np.concatenate(([True], ~dup))
                row, col, val = row[keep], col[keep], val[keep]

        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=shape[0]), out=indptr[1:])
        csr = sp.csr_matrix((val, col, indptr), shape=shape)
        return cls(
            csr,
            fill_value=fill_value,
            scale=scale,
            user_ids=None if direct else tuple(user_pos),
            item_ids=None if direct else tuple(item_pos),
        )

    # ------------------------------------------------------------------ #
    # RatingStore interface
    # ------------------------------------------------------------------ #

    @property
    def csr(self) -> sp.csr_matrix:
        """The underlying CSR matrix of explicit ratings (not a copy).

        Write through the store's methods only: :meth:`top_k` relies on
        every stored value lying on the scale.
        """
        return self._csr

    @property
    def n_users(self) -> int:
        """Number of user rows."""
        return self._csr.shape[0]

    @property
    def n_items(self) -> int:
        """Catalogue size (number of item columns)."""
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_users, n_items)``."""
        return tuple(self._csr.shape)

    @property
    def scale(self) -> RatingScale:
        """The bounded rating scale every stored value lies on."""
        return self._scale

    @property
    def density(self) -> float:
        """Fraction of cells stored explicitly (``nnz / (users * items)``)."""
        return self._csr.nnz / (self.n_users * self.n_items)

    @property
    def nbytes(self) -> int:
        """Resident size in bytes: the CSR arrays, the level codes (1 B per
        stored rating) and the level-count table once built."""
        csr = self._csr
        total = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        for extra in (self._codes, self._level_counts):
            if extra is not None:
                total += extra.nbytes
        return int(total)

    def _densify(self, csr: sp.csr_matrix) -> np.ndarray:
        """Write ``csr``'s stored ratings over a ``fill_value`` canvas."""
        n_rows = csr.shape[0]
        dense = np.full((n_rows, csr.shape[1]), self.fill_value, dtype=np.float64)
        counts = np.diff(csr.indptr)
        if csr.nnz:
            row_idx = np.repeat(np.arange(n_rows), counts)
            dense[row_idx, csr.indices] = csr.data
        return dense

    def block(self, start: int, stop: int) -> np.ndarray:
        """Densify the contiguous user rows ``start:stop``."""
        return self._densify(self._csr[start:stop])

    def rows(self, users: Sequence[int] | np.ndarray) -> np.ndarray:
        """Densify the rows of ``users``, in the given order."""
        users = np.asarray(users, dtype=np.int64)
        return self._densify(self._csr[users])

    def gather(
        self, users: Sequence[int] | np.ndarray, items: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Densify the ``(users, items)`` sub-matrix of the given cells."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        sub = self._csr[users][:, items]
        return self._densify(sp.csr_matrix(sub))

    def iter_blocks(
        self, block_users: int = DEFAULT_BLOCK_USERS
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, dense_block)`` over ``block_users``-row blocks."""
        for start in range(0, self.n_users, block_users):
            stop = min(start + block_users, self.n_users)
            yield start, stop, self.block(start, stop)

    def to_dense(self) -> np.ndarray:
        """Densify the whole matrix (use with care at scale)."""
        return self._densify(self._csr)

    def top_k(
        self, rows: slice | Sequence[int] | np.ndarray | None, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` tables of ``rows`` straight from the CSR arrays.

        Runs :func:`repro.core.kernels.csr_top_k_table` (no dense canvas),
        bit-identical to the dense kernels on the densified rows.  A store
        whose every value sits on an integer level passes its level codes,
        so the kernel ranks levels and stops a row once its top level
        holds ``k`` entries above the fill.  Any other store passes the
        scale maximum as the kernel's ``ceiling``, so a row's scan stops
        once its ``k`` best ratings sit at the maximum.  Both hold because
        every stored value is checked: ``__init__`` (which snapshot loads
        and shared-memory adoption also go through) encodes the values or
        rejects non-finite and off-scale data, and every write validates
        its values the same way and keeps the codes current.
        """
        from repro.core import kernels

        if rows is None:
            row_ids = np.arange(self.n_users, dtype=np.int64)
        elif isinstance(rows, slice):
            row_ids = np.arange(*rows.indices(self.n_users), dtype=np.int64)
        else:
            row_ids = np.asarray(rows, dtype=np.int64)
        levels = None if self._codes is None else (self._codes, *self._level_range)
        return kernels.csr_top_k_table(
            self._csr, row_ids, k, self.fill_value, self._scale.maximum, levels
        )

    def item_scores(
        self, members: Sequence[int] | np.ndarray, semantics: Semantics
    ) -> np.ndarray:
        """Group score of every item for ``members`` under ``semantics``.

        No dense canvas is built.  Two paths:

        * **Complement.**  When the members are unique and more than half
          the rows, the scores come from the store's per-item level counts
          (stored entries per item and integer level of the scale) minus
          those of the other rows — tombstoned ones included, so batch
          left-over groups and service full reads take it alike
          (:func:`repro.core.kernels.level_item_scores`).  LM-min is the
          lowest level with a remaining count, folded with ``fill_value``
          where some member lacks the item; AV-sum is the int64 sum of
          level x count plus ``fill_value`` times the members lacking it.
          The table is built lazily, in one pass over the entries' level
          codes (:func:`repro.core.kernels.csr_level_counts`), once the
          direct reduce has scored :data:`_DIRECT_SCORES_BEFORE_BUILD` such
          groups and so cost about one build; a store scored only a few
          times never pays it.  From then on every write keeps it current
          in time proportional to the cells it changes.  A store without
          codes (a value off the integer levels or a ``-0.0``, or a scale
          with more than :data:`_MAX_LEVELS` levels) never has one.
        * **Direct.**  Otherwise the members' CSR rows are reduced per item
          in place by :func:`repro.core.kernels.csr_item_scores`, with the
          same folds of ``fill_value``.

        Both run behind one exactness gate, so the result equals the dense
        streaming reduction bit for bit: each path only runs where its
        reduction order cannot matter.  LM requires that no value (or the
        fill) is ``-0.0`` — signed zeros make ``min`` order-dependent.  AV
        additionally requires every value and the fill to be an integer
        with every partial sum below ``2**53``, where sums are exact in any
        order (the complement checks the fill and every level, the direct
        reduce the fill and the members' values in its pass).  Any other
        input (e.g. fractional ratings for AV) takes the dense streaming
        path.
        """
        from repro.core import kernels

        scores = self._complement_scores(members, semantics)
        if scores is not None:
            return scores
        scores = kernels.csr_item_scores(
            self._csr, members, self.fill_value, semantics
        )
        if scores is None:
            members = _group_members(members, self.n_users)
            return _stream_item_scores(self, members, semantics)
        return scores

    def _complement_scores(
        self, members: Sequence[int] | np.ndarray, semantics: Semantics
    ) -> np.ndarray | None:
        """Scores of ``members`` by complement; ``None`` where it may not run.

        It runs when the store has level codes, the members are more
        than half the rows and unique, the gate
        (:func:`repro.core.kernels.level_scores_exact`) holds and the level
        table is built.  The checks that read no rows come first, so a
        score that reduces directly costs what it did without this path.
        """
        from repro.core import kernels

        n_members = np.size(members)
        if self._codes is None or 2 * n_members <= self.n_users:
            return None
        lowest, n_levels = self._level_range
        if not kernels.level_scores_exact(
            self.fill_value, lowest, n_levels, n_members, semantics
        ):
            return None
        table = self._level_table()
        if table is None:
            return None
        members = _group_members(members, self.n_users)
        outside = np.ones(self.n_users, dtype=bool)
        outside[members] = False
        complement = np.flatnonzero(outside)
        if complement.size + members.size != self.n_users:
            return None  # duplicate members
        return kernels.level_item_scores(
            table, self._csr, self._codes, complement, members.size,
            self.fill_value, lowest, semantics,
        )

    def _level_table(self) -> np.ndarray | None:
        """The level-count table of a coded store; ``None`` when not built yet.

        The first :data:`_DIRECT_SCORES_BEFORE_BUILD` calls only count,
        and their groups are reduced directly; the next builds the table.
        """
        if self._level_counts is None:
            if self._direct_scores < _DIRECT_SCORES_BEFORE_BUILD:
                self._direct_scores += 1
                return None
            from repro.core import kernels

            with observed("store.level_counts"):
                self._level_counts = kernels.csr_level_counts(
                    self._csr, self._codes, self._level_range[1]
                )
        return self._level_counts

    def segment_item_scores(
        self,
        member_ids: np.ndarray,
        offsets: np.ndarray,
        items_rows: np.ndarray,
        semantics: Semantics,
    ) -> np.ndarray:
        """Scores of every group on its own list (see :class:`RatingStore`).

        The cells of ``member_ids`` x their group's ``items_rows`` row are
        read from the CSR arrays by :func:`repro.core.kernels.csr_cells`
        (the members' rows gathered once, one ``searchsorted``; unstored
        cells read ``fill_value``), so nothing beyond the ``(n_members,
        k)`` cells is densified;
        :func:`repro.core.kernels.segment_scores` reduces them under
        ``semantics`` over ``offsets``.
        """
        from repro.core import kernels

        member_ids, offsets, columns = _group_segments(
            member_ids, offsets, items_rows, self.n_users
        )
        cells = kernels.csr_cells(self._csr, member_ids, columns, self.fill_value)
        return kernels.segment_scores(cells, offsets, semantics)

    # ------------------------------------------------------------------ #
    # MutableRatingStore interface
    # ------------------------------------------------------------------ #

    def _set_cells(
        self,
        users: np.ndarray,
        items: np.ndarray,
        values: np.ndarray,
        insert: bool = True,
    ) -> None:
        """Write validated, unique cells by splicing only the touched CSR rows.

        The cells are sorted by ``(user, item)`` and placed among the
        touched rows' entries with one ``searchsorted``
        (:func:`repro.core.kernels._cell_positions`).  Stored cells are
        overwritten in place, so a batch of stored cells reallocates
        nothing.  Unstored cells are inserted when ``insert`` is true
        (upserts) and skipped otherwise (deletes): the new ``indices`` and
        ``data`` are one ``np.concatenate`` of the untouched runs
        interleaved with the new cells, and ``indptr`` shifts by the
        cumulative per-row insert counts.  The cost is O(touched rows)
        plus one copy of the arrays, and the result is the sorted,
        canonical CSR scipy's assignment would build.  The level codes
        (and a built level-count table) follow every overwrite and
        insert, or are dropped for good by an off-level value.  The arrays are
        swapped without a lock: callers serialise writes with reads
        (:class:`~repro.service.FormationService` holds its lock around
        both).
        """
        if not users.size:
            return
        from repro.core import kernels

        csr = self._csr
        order = np.lexsort((items, users))
        users, items, values = users[order], items[order], values[order]
        rows, cell_row = np.unique(users, return_inverse=True)
        entry_row, positions = kernels._csr_row_entries(csr.indptr, rows)
        at, found = kernels._cell_positions(
            entry_row, csr.indices[positions], self.n_items, cell_row, items
        )
        stored = positions[at[found]]
        codes = self._encode(values[found])
        if codes is not None:
            self._recount(items[found], self._codes[stored], codes)
            self._codes[stored] = codes
        csr.data[stored] = values[found]
        new = ~found
        if not insert or not new.any():
            return
        users, items, values = users[new], items[new], values[new]
        codes = self._encode(values)
        # A new cell's place is its row's start plus its rank among the
        # row's stored entries (``at`` minus the row's first gathered entry).
        rank = at[new] - np.searchsorted(entry_row, cell_row[new])
        splice_at = csr.indptr[users].astype(np.int64) + rank
        nnz = int(csr.indptr[-1])
        dtype = _index_dtype(csr, nnz + users.size)
        indptr = csr.indptr.astype(dtype)
        indptr[1:] += np.cumsum(np.bincount(users, minlength=self.n_users), dtype=dtype)
        csr.indices = _splice(csr.indices[:nnz], splice_at, items, dtype)
        csr.data = _splice(csr.data[:nnz], splice_at, values, np.float64)
        csr.indptr = indptr
        csr.has_canonical_format = True  # implies has_sorted_indices
        if codes is not None:
            self._recount(items, None, codes)
            self._codes = _splice(self._codes, splice_at, codes, np.uint8)

    def upsert(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Write ratings into individual cells, in place.

        Parameters
        ----------
        users, items:
            Parallel coordinate arrays of the cells to write.
        values:
            New ratings; must be finite and on the store's scale.

        Raises
        ------
        RatingDataError
            On out-of-range coordinates or off-scale / non-finite values.
        """
        users, items, values = _validate_update_coords(
            users, items, self.shape, values, self._scale
        )
        self._set_cells(users, items, values)

    def delete(
        self,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
    ) -> None:
        """Revert individual cells to :attr:`fill_value`, in place.

        A stored cell is overwritten with an explicit ``fill_value``
        entry; an unstored cell already reads ``fill_value`` and is left
        alone, so deletes never grow the CSR.  Either way the cell is
        indistinguishable from a never-rated one on every read path
        (densification writes stored ratings over a ``fill_value``
        canvas, and the CSR kernels treat a stored ``fill_value`` like a
        missing entry).

        Parameters
        ----------
        users, items:
            Parallel coordinate arrays of the cells to delete.

        Raises
        ------
        RatingDataError
            On out-of-range coordinates.
        """
        users, items, _ = _validate_update_coords(
            users, items, self.shape, None, self._scale
        )
        self._set_cells(
            users,
            items,
            np.full(users.shape, self.fill_value, dtype=np.float64),
            insert=False,
        )

    def clear_rows(self, users: Sequence[int] | np.ndarray) -> None:
        """Revert whole user rows to :attr:`fill_value` (user "removal").

        Parameters
        ----------
        users:
            User indices whose every rating is deleted.  The rows stay in
            the store (indices are positional and must remain stable); the
            serving layer additionally tombstones the users.
        """
        from repro.core import kernels

        users = np.asarray(users, dtype=np.int64).ravel()
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise RatingDataError("update user index out of range")
        _, positions = kernels._csr_row_entries(self._csr.indptr, np.unique(users))
        fill = np.full(positions.size, self.fill_value)
        codes = self._encode(fill)
        if codes is not None:
            self._recount(self._csr.indices[positions], self._codes[positions], codes)
            self._codes[positions] = codes
        self._csr.data[positions] = fill

    def append_users(self, rows: np.ndarray) -> None:
        """Append new trailing user rows.

        Only cells differing from :attr:`fill_value` are stored explicitly,
        so appended rows cost memory proportional to their non-fill ratings.
        External ``user_ids`` labels (positional, presentation-only) are
        dropped because the new rows have none.

        Parameters
        ----------
        rows:
            Dense ``(m, n_items)`` ratings of the new users; must be
            complete, finite and on the store's scale.
        """
        rows = _validate_new_rows(rows, self.n_items, self._scale)
        mask = rows != self.fill_value
        r, c = np.nonzero(mask)
        new_csr = sp.csr_matrix(
            (rows[r, c], (r, c)), shape=(rows.shape[0], self.n_items), dtype=np.float64
        )
        nnz = int(self._csr.indptr[-1])
        self._csr = sp.vstack([self._csr, new_csr], format="csr")
        self._csr.sort_indices()
        # The new rows' entries, in their stored order, follow the old ones.
        added = slice(nnz, int(self._csr.indptr[-1]))
        codes = self._encode(self._csr.data[added])
        if codes is not None:
            self._recount(self._csr.indices[added], None, codes)
            self._codes = np.concatenate((self._codes, codes))
        self.user_ids = None

    def _encode(self, values: np.ndarray) -> np.ndarray | None:
        """Level codes of ``values`` about to be stored; ``None`` without.

        A value off the integer levels, or a ``-0.0``, drops the store's
        codes and level-count table for good: it then ranks by comparing
        values and scores by the direct reduce.
        """
        if self._codes is None:
            return None
        from repro.core import kernels

        codes = kernels.entry_levels(values, *self._level_range)
        if codes is None:
            self._codes = self._level_counts = None
        return codes

    def _recount(
        self, items: np.ndarray, old: np.ndarray | None, new: np.ndarray
    ) -> None:
        """Move a built level-count table across a write of ``items``' cells.

        ``old`` holds the cells' level codes before the write (``None``
        when none was stored) and ``new`` the codes written.
        """
        if self._level_counts is None or not items.size:
            return
        counts = self._level_counts.reshape(-1)
        columns = items.astype(np.int64) * self._level_range[1]
        np.add.at(counts, columns + new, 1)
        if old is not None:
            np.subtract.at(counts, columns + old, 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseStore(n_users={self.n_users}, n_items={self.n_items}, "
            f"nnz={self._csr.nnz}, fill={self.fill_value})"
        )


def as_store(ratings: "RatingStore | RatingMatrix | np.ndarray") -> RatingStore:
    """Coerce any accepted ``ratings`` input into a :class:`RatingStore`.

    Existing stores pass through untouched; a complete
    :class:`RatingMatrix` or raw 2-D array is wrapped in a
    :class:`DenseStore` without copying.
    """
    if isinstance(ratings, (DenseStore, SparseStore)):
        return ratings
    if isinstance(ratings, RatingStore):  # third-party implementations
        return ratings
    if isinstance(ratings, RatingMatrix):
        return DenseStore.from_matrix(ratings)
    return DenseStore(np.asarray(ratings, dtype=float))
