"""Zero-copy shared-memory adapters for multi-process serving.

Replica processes cannot share a parent's heap the way threads do, and
pickling a million-user rating store to every replica would erase the very
memory bound the sharded path exists for.  This module moves the *data*
into named ``multiprocessing.shared_memory`` segments exactly once and
moves only tiny, picklable **specs** (segment name + shape + dtype) across
the process boundary:

* the parent wraps the arrays backing a
  :class:`~repro.recsys.store.DenseStore`, a
  :class:`~repro.recsys.store.SparseStore` (CSR ``data`` / ``indices`` /
  ``indptr``) or a :class:`~repro.core.topk_index.TopKIndex`'s tables in
  shared segments through a :class:`SharedExports` owner;
* each worker re-materialises the object with :func:`attach_store` /
  :func:`attach_tables` as numpy arrays viewing the
  *same physical pages* — no copy, no pickling of bulk data — so results
  are bit-identical to operating on the original arrays by construction.

Lifetime and ownership rules (documented contract, also in
``docs/architecture.md``):

* the **exporting side owns the segments**: :meth:`SharedExports.close`
  (or the context manager) closes and unlinks every segment it created;
* workers keep attached segments alive in a module-level registry
  (a numpy array over ``shm.buf`` is only valid while the
  ``SharedMemory`` handle is open); :func:`detach_all` releases them;
* unlinking while workers still hold a mapping is safe on POSIX — the name
  disappears but the pages live until the last handle closes — which is
  what lets the parent clean up eagerly after a fan-out returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.faults import fire as fault_fire
from repro.recsys.matrix import RatingScale
from repro.recsys.store import DenseStore, RatingStore, SparseStore

__all__ = [
    "ArraySpec",
    "StoreSpec",
    "TablesSpec",
    "SharedExports",
    "attach_array",
    "attach_store",
    "attach_tables",
    "detach",
    "detach_all",
]


@dataclass(frozen=True)
class ArraySpec:
    """Picklable handle to one numpy array living in a shared segment.

    Attributes
    ----------
    segment:
        Name of the ``multiprocessing.shared_memory`` segment.
    shape:
        Array shape to reconstruct on attach.
    dtype:
        Array dtype string to reconstruct on attach.
    """

    segment: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class StoreSpec:
    """Picklable handle to a shared-memory :class:`~repro.recsys.store.RatingStore`.

    Attributes
    ----------
    kind:
        ``"dense"`` or ``"sparse"``.
    n_users, n_items:
        Store shape.
    scale_min, scale_max:
        The store's :class:`~repro.recsys.matrix.RatingScale` bounds.
    fill_value:
        The sparse store's fill rating (``None`` for dense stores).
    arrays:
        ``(name, ArraySpec)`` pairs of the backing arrays — ``values`` for
        dense; ``data`` / ``indices`` / ``indptr`` for sparse CSR.
    """

    kind: str
    n_users: int
    n_items: int
    scale_min: float
    scale_max: float
    fill_value: float | None
    arrays: tuple[tuple[str, ArraySpec], ...]


@dataclass(frozen=True)
class TablesSpec:
    """Picklable handle to shared per-user top-k ``(items, values)`` tables.

    Attributes
    ----------
    items, values:
        Specs of the two ``(n_users, k)`` ranking tables.
    n_items:
        Catalogue size of the source ratings.
    """

    items: ArraySpec
    values: ArraySpec
    n_items: int


class SharedExports:
    """Parent-side owner of a set of shared-memory segments.

    Create one per fan-out (or one per long-lived token), export the
    objects the workers need, ship the returned specs with the tasks, and
    :meth:`close` once every task has completed.  Usable as a context
    manager::

        with SharedExports() as exports:
            spec = exports.export_store(store)
            ... fan out tasks carrying `spec` ...
        # segments closed and unlinked here

    Notes
    -----
    ``close`` unlinks eagerly: workers that still hold an attachment keep
    their mapping (POSIX semantics) but no new attach can occur afterwards.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def export_array(self, array: np.ndarray) -> ArraySpec:
        """Copy ``array`` into a fresh shared segment and return its spec.

        Parameters
        ----------
        array:
            Any numpy array (made C-contiguous on export).
        """
        fault_fire("shm.export")
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self._segments.append(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ArraySpec(segment=segment.name, shape=array.shape, dtype=str(array.dtype))

    def export_store(self, store: RatingStore) -> StoreSpec:
        """Export a dense or sparse rating store's backing arrays.

        Parameters
        ----------
        store:
            A :class:`~repro.recsys.store.DenseStore` or
            :class:`~repro.recsys.store.SparseStore` (other implementations
            raise ``TypeError`` — export their arrays directly instead).
        """
        if not isinstance(store, (DenseStore, SparseStore)):
            raise TypeError(
                f"cannot export {type(store).__name__} to shared memory; expected "
                f"DenseStore or SparseStore"
            )
        scale = store.scale
        if isinstance(store, DenseStore):
            arrays = (("values", self.export_array(store.values)),)
            return StoreSpec(
                kind="dense",
                n_users=store.n_users,
                n_items=store.n_items,
                scale_min=float(scale.minimum),
                scale_max=float(scale.maximum),
                fill_value=None,
                arrays=arrays,
            )
        csr = store.csr
        arrays = (
            ("data", self.export_array(csr.data)),
            ("indices", self.export_array(csr.indices)),
            ("indptr", self.export_array(csr.indptr)),
        )
        return StoreSpec(
            kind="sparse",
            n_users=store.n_users,
            n_items=store.n_items,
            scale_min=float(scale.minimum),
            scale_max=float(scale.maximum),
            fill_value=float(store.fill_value),
            arrays=arrays,
        )

    def export_tables(
        self, items_table: np.ndarray, values_table: np.ndarray, n_items: int
    ) -> TablesSpec:
        """Export a pair of per-user top-k ranking tables.

        Parameters
        ----------
        items_table, values_table:
            The ``(n_users, k)`` tables (a ``TopKIndex``'s arrays or a
            ``top_k(k)`` slice).
        n_items:
            Catalogue size recorded on the spec.
        """
        return TablesSpec(
            items=self.export_array(items_table),
            values=self.export_array(values_table),
            n_items=int(n_items),
        )

    def close(self) -> None:
        """Close and unlink every segment this exporter created."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedExports":
        """Enter the context manager (returns ``self``)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close and unlink every segment on context exit (exc_info unused)."""
        self.close()


#: Worker-side registry of attached segments, keyed by segment name.  The
#: handles must stay referenced for as long as any array views their buffer.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach by name without registering with the resource tracker.

    The exporting process owns (and will unlink) the segment; letting the
    attach side register too would make the tracker unlink-or-warn on
    worker exit for segments it never owned.  Python >= 3.13 exposes this
    as ``track=False``; earlier versions need ``register`` suppressed for
    the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach a named segment once per process (idempotent)."""
    segment = _ATTACHED.get(name)
    if segment is None:
        segment = _attach_untracked(name)
        _ATTACHED[name] = segment
    return segment


def attach_array(spec: ArraySpec) -> np.ndarray:
    """Materialise the array behind ``spec`` as a view over shared pages.

    Parameters
    ----------
    spec:
        An :class:`ArraySpec` produced by :meth:`SharedExports.export_array`.
    """
    fault_fire("shm.attach")
    segment = _open_segment(spec.segment)
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)


def attach_store(spec: StoreSpec) -> RatingStore:
    """Rebuild the rating store behind ``spec`` without copying its arrays.

    Parameters
    ----------
    spec:
        A :class:`StoreSpec` produced by :meth:`SharedExports.export_store`.

    Returns
    -------
    RatingStore
        A :class:`~repro.recsys.store.DenseStore` or
        :class:`~repro.recsys.store.SparseStore` whose backing arrays view
        the shared segments directly.
    """
    arrays = {name: attach_array(array_spec) for name, array_spec in spec.arrays}
    scale = RatingScale(spec.scale_min, spec.scale_max)
    if spec.kind == "dense":
        return DenseStore(arrays["values"], scale=scale, validate=False)
    from scipy import sparse as sp

    csr = sp.csr_matrix(
        (arrays["data"], arrays["indices"], arrays["indptr"]),
        shape=(spec.n_users, spec.n_items),
        copy=False,
    )
    # The exporter's store keeps its CSR canonical (SparseStore sorts and
    # de-duplicates at construction); flag it so SparseStore.__init__
    # neither re-sorts in place over pages shared with sibling workers nor
    # re-scans for duplicates.
    csr.has_canonical_format = True
    return SparseStore(csr, fill_value=spec.fill_value, scale=scale)


def attach_tables(spec: TablesSpec) -> tuple[np.ndarray, np.ndarray]:
    """The shared ``(items_table, values_table)`` pair behind ``spec``.

    Parameters
    ----------
    spec:
        A :class:`TablesSpec` produced by :meth:`SharedExports.export_tables`.
    """
    return attach_array(spec.items), attach_array(spec.values)


def detach(segment_names: "tuple[str, ...] | list[str]") -> None:
    """Close specific attached segments, releasing their pages in this process.

    Callers must drop every array viewing the segments first; a segment
    whose buffer is still exported stays attached (closing it would
    invalidate live arrays), which makes this safe to call opportunistically
    when a replica swaps in a newer export.

    Parameters
    ----------
    segment_names:
        Segment names to release (e.g. collected from a spec's
        :class:`ArraySpec` entries).
    """
    for name in segment_names:
        segment = _ATTACHED.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
        except BufferError:  # pragma: no cover - arrays still alive
            _ATTACHED[name] = segment


def detach_all() -> None:
    """Close every segment this process attached (arrays become invalid)."""
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
    _ATTACHED.clear()
