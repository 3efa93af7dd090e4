"""Atomic store + index snapshots for the durable ingestion pipeline.

A snapshot is one uncompressed ``.npz`` holding everything recovery needs
to reconstruct a :class:`~repro.core.MutableTopKIndex` and its backing
:class:`~repro.recsys.store.MutableRatingStore` exactly as they were:

* the store payload (dense values, or CSR ``data``/``indices``/``indptr``
  plus ``fill_value``) and its rating scale,
* the index tables (``items``/``values``/``n_items``) — saved rather than
  rebuilt so recovery adopts the *incrementally repaired* tables and stays
  bit-identical without re-ranking a single row,
* the index bookkeeping (``version`` and tombstoned users),
* ``applied_seq`` — the newest WAL sequence number folded into this state,
  which is where replay resumes.

Files are named ``snapshot-%016d.npz`` by ``applied_seq`` and written
atomically: serialise to a temp file in the same directory, fsync, then
``os.replace`` — a crash mid-save leaves at most an ignorable ``*.tmp``,
never a torn snapshot.  :meth:`SnapshotManager.load_latest` additionally
skips snapshots that fail to parse, so a torn file from a pre-fsync crash
degrades to the previous snapshot plus a longer replay, not a failed
recovery.

Snapshots are written with ``np.savez``, not ``np.savez_compressed``: the
save blocks the writer under the ingest lock, and zlib made it ~26x
slower for a ~6x smaller file.  On a 20k x 2k store with 792k ratings
(2-core Xeon) a save takes 0.03 s instead of 0.84 s and a load 29 ms
instead of 59 ms, for a 16 MB file instead of 2.8 MB (64 MB at the
default ``retain=4``).  ``np.load`` reads both formats, so compressed
snapshots from earlier versions still recover.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING
from zipfile import BadZipFile

import numpy as np
from scipy import sparse as sp

from repro.core.errors import IngestError
from repro.core.topk_index import MutableTopKIndex
from repro.faults import fire as fault_fire
from repro.recsys.matrix import RatingScale
from repro.recsys.store import DenseStore, SparseStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recsys.store import MutableRatingStore

__all__ = ["SnapshotManager", "SnapshotState"]


class SnapshotState:
    """One loaded snapshot: the reconstructed store/index plus metadata.

    Attributes
    ----------
    store:
        The reconstructed mutable rating store.
    index_items, index_values:
        The saved top-k tables (adopted via the index's ``base=`` path).
    version:
        Index version at snapshot time.
    removed:
        Tombstoned user indices.
    applied_seq:
        Newest WAL sequence folded into this state (replay resumes after).
    """

    def __init__(
        self,
        store: "MutableRatingStore",
        index_items: np.ndarray,
        index_values: np.ndarray,
        version: int,
        removed: np.ndarray,
        applied_seq: int,
    ) -> None:
        self.store = store
        self.index_items = index_items
        self.index_values = index_values
        self.version = int(version)
        self.removed = np.asarray(removed, dtype=np.int64)
        self.applied_seq = int(applied_seq)

    @property
    def k_max(self) -> int:
        """The snapshot index's prefix width."""
        return int(self.index_items.shape[1])


class SnapshotManager:
    """Writes, prunes and loads the snapshot files of one WAL directory.

    Parameters
    ----------
    directory:
        Snapshot directory (created if missing); usually a subdirectory of
        the WAL directory so durability state travels as one tree.
    retain:
        Keep at most this many snapshots (oldest pruned first, default 4).
        Retention below 1 is rejected — recovery always needs one.

    Examples
    --------
    >>> import tempfile, numpy as np
    >>> from repro.core.topk_index import MutableTopKIndex
    >>> from repro.recsys.store import DenseStore
    >>> store = DenseStore(np.array([[5.0, 1.0], [2.0, 4.0]]))
    >>> index = MutableTopKIndex(store, k_max=2)
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     manager = SnapshotManager(tmp)
    ...     path = manager.save(index, applied_seq=7)
    ...     state = manager.load_latest()
    >>> (state.applied_seq, state.store.to_dense().tolist() == store.to_dense().tolist())
    (7, True)
    """

    def __init__(self, directory: "str | Path", retain: int = 4) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise IngestError(f"snapshot path {self.directory} is not a directory")
        self.directory.mkdir(parents=True, exist_ok=True)
        if retain < 1:
            raise IngestError(f"retain must be >= 1, got {retain}")
        self.retain = int(retain)
        self._clean_strays()

    def _clean_strays(self) -> None:
        """Remove ``*.tmp`` leftovers from a crash inside the save window.

        A process that dies between serialising the temp file and the
        atomic ``os.replace`` leaves exactly one stray; sweeping at open
        keeps the directory's invariant (only ``snapshot-*.npz`` entries)
        without ever touching a completed snapshot.
        """
        for stray in self.directory.glob("*.tmp"):
            try:
                stray.unlink()
            except OSError:  # pragma: no cover - racing another cleaner
                pass

    def _paths(self) -> list[Path]:
        """Existing snapshot paths, oldest first."""
        return sorted(self.directory.glob("snapshot-*.npz"))

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #

    def save(self, index: MutableTopKIndex, applied_seq: int) -> Path:
        """Atomically persist ``index`` (and its store) at ``applied_seq``.

        Parameters
        ----------
        index:
            The live mutable index; its backing store is captured too.
        applied_seq:
            Newest WAL sequence number already applied to the index.

        Returns
        -------
        pathlib.Path
            The snapshot file written.

        Raises
        ------
        IngestError
            When the backing store is neither dense nor CSR-sparse.
        """
        store = index.store
        payload: dict[str, np.ndarray] = {
            "index_items": index.items,
            "index_values": index.values,
            "n_items": np.int64(index.n_items),
            "version": np.int64(index.version),
            "removed": np.asarray(sorted(index.removed), dtype=np.int64),
            "applied_seq": np.int64(applied_seq),
            "scale_min": np.float64(store.scale.minimum),
            "scale_max": np.float64(store.scale.maximum),
        }
        if isinstance(store, DenseStore):
            payload["kind"] = np.bytes_(b"dense")
            payload["dense_values"] = store.values
        elif isinstance(store, SparseStore):
            csr = store.csr
            payload["kind"] = np.bytes_(b"sparse")
            payload["csr_data"] = csr.data
            payload["csr_indices"] = csr.indices
            payload["csr_indptr"] = csr.indptr
            payload["csr_shape"] = np.asarray(csr.shape, dtype=np.int64)
            payload["fill_value"] = np.float64(store.fill_value)
        else:
            raise IngestError(
                f"cannot snapshot store type {type(store).__name__}"
            )
        final = self.directory / f"snapshot-{int(applied_seq):016d}.npz"
        tmp = final.with_suffix(".npz.tmp")
        try:
            fault_fire("snapshot.write")
            with tmp.open("wb") as handle:
                np.savez(handle, **payload)
                handle.flush()
                os.fsync(handle.fileno())
            fault_fire("snapshot.replace")
            os.replace(tmp, final)
        finally:
            if tmp.exists():  # failure cleanup (fault/ENOSPC mid-save)
                tmp.unlink()
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._prune()
        return final

    def _prune(self) -> None:
        """Delete the oldest snapshots beyond the retention budget.

        Best-effort: a failed unlink only delays reclamation (the next
        prune retries) and must never fail the snapshot that was just
        written durably.
        """
        paths = self._paths()
        for path in paths[: max(0, len(paths) - self.retain)]:
            try:
                fault_fire("snapshot.prune")
                path.unlink()
            except OSError:
                continue

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #

    def latest_info(self) -> tuple[int, float] | None:
        """``(applied_seq, mtime)`` of the newest snapshot on disk.

        Returns ``None`` for an empty directory.  Used to seed the
        durability-lag readout (`/v1/healthz`) after recovery without
        parsing the snapshot payload.
        """
        paths = self._paths()
        if not paths:
            return None
        newest = paths[-1]
        try:
            mtime = newest.stat().st_mtime
        except OSError:  # pragma: no cover - racing an external prune
            return None
        return int(newest.stem.split("-", 1)[1]), float(mtime)

    def oldest_retained_seq(self) -> int | None:
        """``applied_seq`` of the oldest snapshot on disk (None when empty).

        The WAL may truncate every segment fully covered by this sequence
        — earlier records can never be needed again.
        """
        paths = self._paths()
        if not paths:
            return None
        return int(paths[0].stem.split("-", 1)[1])

    @staticmethod
    def _load_one(path: Path) -> SnapshotState:
        """Parse one snapshot file into a :class:`SnapshotState`."""
        with np.load(path) as data:
            kind = bytes(data["kind"]).decode("ascii")
            scale = RatingScale(float(data["scale_min"]), float(data["scale_max"]))
            if kind == "dense":
                store: "MutableRatingStore" = DenseStore(
                    np.array(data["dense_values"]), scale=scale, validate=False
                )
            elif kind == "sparse":
                shape = tuple(int(v) for v in data["csr_shape"])
                csr = sp.csr_matrix(
                    (
                        np.array(data["csr_data"]),
                        np.array(data["csr_indices"]),
                        np.array(data["csr_indptr"]),
                    ),
                    shape=shape,
                )
                store = SparseStore(
                    csr, fill_value=float(data["fill_value"]), scale=scale
                )
            else:  # pragma: no cover - forward-compat guard
                raise IngestError(f"unknown snapshot store kind {kind!r}")
            return SnapshotState(
                store=store,
                index_items=np.array(data["index_items"]),
                index_values=np.array(data["index_values"]),
                # Snapshots from earlier versions carry one more index
                # counter key; it is left unread.
                version=int(data["version"]),
                removed=np.array(data["removed"]),
                applied_seq=int(data["applied_seq"]),
            )

    def load_latest(self) -> SnapshotState | None:
        """Load the newest readable snapshot (None when the directory is empty).

        A snapshot that fails to parse — e.g. torn by a crash before its
        fsync — is skipped in favour of the next-older one, trading replay
        length for robustness.
        """
        for path in reversed(self._paths()):
            try:
                return self._load_one(path)
            except (OSError, KeyError, ValueError, BadZipFile):
                continue
        return None

    def load(self, applied_seq: int) -> SnapshotState:
        """Load the snapshot taken exactly at ``applied_seq``.

        Parameters
        ----------
        applied_seq:
            The sequence number in the snapshot's filename.

        Raises
        ------
        IngestError
            When no such snapshot exists.
        """
        path = self.directory / f"snapshot-{int(applied_seq):016d}.npz"
        if not path.exists():
            raise IngestError(f"no snapshot at applied_seq={applied_seq}")
        return self._load_one(path)
