"""The online formation service: live updates, cached formations.

:class:`FormationService` turns the batch data plane (store → index →
engine) into a request-serving component:

* it owns a :class:`~repro.recsys.store.MutableRatingStore` and a
  :class:`~repro.core.topk_index.MutableTopKIndex`, so rating upserts and
  deletes repair only the touched users' rankings instead of rebuilding
  the index (:meth:`FormationService.apply_updates`);
* every request — full population, full population after removals, or
  an explicit user subset — runs steps 1–2 through the engine backend on
  the index's ranked tables (restricted to the requested users) and
  scores the plan with :func:`~repro.core.engine.finalise_plan` on the
  service's own store, so rankings are never recomputed per request;
* finished formation results are memoized keyed by ``(parameters,
  index version)``, so identical requests between updates cost a
  dictionary lookup — and any update batch naturally invalidates them by
  bumping the version.

Every path produces results **bit-identical** to a cold
:class:`~repro.core.engine.FormationEngine` run on the current ratings —
caching and incrementality are pure execution strategies, never
approximations (``tests/service/test_service.py`` asserts this).

Examples
--------
>>> import numpy as np
>>> from repro.recsys.store import DenseStore
>>> from repro.service import FormationService
>>> ratings = np.array(
...     [[1, 4, 3], [2, 3, 5], [2, 5, 1], [2, 5, 1], [3, 1, 1], [1, 2, 5]],
...     dtype=float,
... )
>>> service = FormationService(DenseStore(ratings), k_max=2)
>>> service.recommend(k=1, max_groups=3).objective
11.0
>>> _ = service.apply_updates(upserts=[(4, 1, 5.0)])
>>> service.recommend(k=1, max_groups=3).objective
14.0
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

import numpy as np

# finalise_plan is looked up on the engine module at call time, so
# wrappers installed on repro.core.engine (perfbench's tracer) also see
# service reads.
from repro.core import engine
from repro.core.engine import get_backend
from repro.core.errors import GroupFormationError
from repro.core.greedy_framework import GreedyVariant, make_variant, variant_token
from repro.core.grouping import GroupFormationResult
# Unused here; the benchmark's tracer still patches this module attribute.
from repro.core.sharded import summarise_tables  # noqa: F401
from repro.core.topk_index import MutableTopKIndex, TopKIndex
from repro.obs.registry import (
    G_INDEX_VERSION,
    H_RECOMMEND,
    K_REQUESTS,
    K_RESULT_HITS,
    K_UPDATE_BATCHES,
    K_UPDATES_APPLIED,
    MetricsRegistry,
)
from repro.obs.runtime import observed
from repro.recsys.store import MutableRatingStore
from repro.utils.arrays import sorted_unique
from repro.utils.timing import Stopwatch
from repro.utils.validation import require_positive_int

__all__ = ["FormationService"]

#: Default number of memoized formation results kept (LRU).
DEFAULT_RESULT_CACHE = 128


class FormationService:
    """Serve group-formation requests over a live, updatable rating store.

    Parameters
    ----------
    store:
        A mutable rating store (:class:`~repro.recsys.store.DenseStore` or
        :class:`~repro.recsys.store.SparseStore`) holding the current
        ratings.  All further updates must flow through
        :meth:`apply_updates` so store and index stay in lock-step.
    k_max:
        Largest recommended-list length the service answers
        (``1 <= k_max <= n_items``).
    backend:
        Formation engine backend (default ``"numpy"``); results are
        bit-identical across backends.
    result_cache_size:
        Number of memoized formation results kept (LRU, default 128).
    base_index:
        Optional prebuilt :class:`~repro.core.topk_index.TopKIndex` over
        the *current* contents of ``store``, adopted instead of building.
        Crash recovery (:mod:`repro.ingest`) passes the snapshot's saved
        tables here so the recovered index keeps its incrementally-repaired
        state bit for bit.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` the service
        records its counters and recommend-latency histogram into.  A
        private local registry is created when omitted; ``ServiceConfig``
        passes the stack's shared slab-backed registry so service counters
        aggregate with the rest of the telemetry plane.

    Raises
    ------
    GroupFormationError
        When the store is not mutable or ``k_max`` is out of range.

    Notes
    -----
    The service is thread-safe: one re-entrant lock serialises updates and
    formations, which is the intended concurrency model for the asyncio
    front end (requests coalesce *before* reaching the service, and the
    heavy numpy work releases the GIL anyway).
    """

    def __init__(
        self,
        store: MutableRatingStore,
        k_max: int,
        backend: str | None = None,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        base_index: TopKIndex | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._backend = get_backend(backend)
        self._index = MutableTopKIndex(store, k_max, base=base_index)
        self._result_cache_size = require_positive_int(
            result_cache_size, "result_cache_size"
        )
        self._results: OrderedDict[tuple, GroupFormationResult] = OrderedDict()
        self._lock = threading.RLock()
        #: Optional write-ahead log (:class:`repro.ingest.WriteAheadLog` or
        #: anything with an ``append(record) -> int``): when attached, every
        #: :meth:`apply_updates` batch is journaled *before* it is applied.
        #: :meth:`repro.ingest.IngestPipeline.open` attaches it only after
        #: replay, so recovery never re-journals.
        self.journal = None

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> MutableRatingStore:
        """The backing rating store (read-only from the outside)."""
        return self._index.store

    @property
    def index(self) -> MutableTopKIndex:
        """The incrementally maintained top-k index."""
        return self._index

    @property
    def version(self) -> int:
        """Current index version — the freshness token of every cache."""
        return self._index.version

    def stats(self) -> dict[str, Any]:
        """Operational counters and sizes for monitoring.

        Returns
        -------
        dict
            Users/items/k_max/version, the result-cache size,
            and the request and update counters.  The counters are read from
            the service's :class:`~repro.obs.registry.MetricsRegistry`;
            when that registry is slab-backed (a replica stack) they are
            aggregated across every process recording into the slab.
        """
        counters = self._counter_values()
        with self._lock:
            return {
                "n_users": self._index.n_users,
                "n_items": self._index.n_items,
                "k_max": self._index.k_max,
                "version": self._index.version,
                "removed_users": len(self._index.removed),
                "cached_results": len(self._results),
                "backend": self._backend.name,
                **counters,
            }

    def _counter_values(self) -> dict[str, int]:
        """Read the service counters back out of the metrics registry."""
        cells = self.metrics.aggregate()
        offsets = self.metrics.schema.offsets
        return {
            name: int(cells[offsets[key]])
            for name, key in (
                ("requests", K_REQUESTS),
                ("result_hits", K_RESULT_HITS),
                ("update_batches", K_UPDATE_BATCHES),
                ("updates_applied", K_UPDATES_APPLIED),
            )
        }

    def close(self) -> None:
        """Release the service; idempotent.

        The service holds no pools or external resources, so this is a
        no-op kept for hosts that close every component uniformly.
        """

    def __enter__(self) -> "FormationService":
        """Enter the context manager (returns ``self``)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Call :meth:`close` on context exit (exc_info unused)."""
        self.close()

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def apply_updates(
        self,
        upserts: Sequence[tuple[int, int, float]] | np.ndarray = (),
        deletes: Sequence[tuple[int, int]] | np.ndarray = (),
        add_users: np.ndarray | None = None,
        remove_users: Sequence[int] | np.ndarray | None = None,
    ) -> dict[str, Any]:
        """Apply one batch of mutations and drop the memoized results.

        Parameters
        ----------
        upserts:
            ``(user, item, rating)`` triples to write (last-wins within the
            batch).
        deletes:
            ``(user, item)`` pairs reverting to the store's fill value.
        add_users:
            Optional dense ``(m, n_items)`` rows of new users to append.
        remove_users:
            Optional user indices to tombstone.

        Returns
        -------
        dict
            The index's batch bookkeeping plus ``{"version", "wal_seq"}``
            (``wal_seq`` is the journal sequence the batch was logged at,
            or ``None`` when no :attr:`journal` is attached or the batch
            is empty).

        Notes
        -----
        Every batch drops the memoized results, even one that moves no
        top-k row: scoring reads below-top-k ratings from the store.

        When a :attr:`journal` is attached, the batch is appended to it
        *before* any state changes (redo-log contract).  A batch that is
        journaled but then rejected (e.g. out-of-range coordinates) fails
        atomically here and — because validation is deterministic — fails
        identically on replay, so the journaled record is harmless.
        """
        with self._lock:
            wal_seq = None
            if self.journal is not None:
                record = self._journal_record(
                    upserts, deletes, add_users, remove_users
                )
                if record is not None:
                    wal_seq = self.journal.append(record)
            stats = self._index.apply(upserts=upserts, deletes=deletes)
            if remove_users is not None:
                self._index.remove_users(remove_users)
            if add_users is not None and np.asarray(add_users).size:
                self._index.add_users(add_users)
            self._results.clear()
            self.metrics.inc(K_UPDATE_BATCHES)
            self.metrics.inc(K_UPDATES_APPLIED, stats["upserts"] + stats["deletes"])
            self.metrics.gauge_set(G_INDEX_VERSION, self._index.version)
            stats["version"] = self._index.version
            stats["wal_seq"] = wal_seq
            return stats

    @staticmethod
    def _journal_record(
        upserts: Sequence[tuple[int, int, float]] | np.ndarray,
        deletes: Sequence[tuple[int, int]] | np.ndarray,
        add_users: np.ndarray | None,
        remove_users: Sequence[int] | np.ndarray | None,
    ) -> dict[str, Any] | None:
        """Normalise one batch into its JSON-serialisable journal record.

        Values are preserved exactly (coordinates stay floats so a
        fractional index is rejected identically live and on replay);
        ``None`` is returned for an empty batch, which is never journaled.

        Parameters
        ----------
        upserts, deletes, add_users, remove_users:
            The raw :meth:`apply_updates` arguments.

        Raises
        ------
        GroupFormationError
            When the batch cannot be normalised at all (malformed shapes
            — the same inputs the index would reject before writing).
        """
        try:
            record: dict[str, Any] = {
                "upserts": [[float(u), float(i), float(v)] for u, i, v in upserts],
                "deletes": [[float(u), float(i)] for u, i in deletes],
            }
            if add_users is not None:
                rows = np.asarray(add_users, dtype=np.float64)
                if rows.size:
                    record["add_users"] = rows.tolist()
            if remove_users is not None:
                removal = [float(u) for u in np.asarray(remove_users).ravel()]
                if removal:
                    record["remove_users"] = removal
        except (TypeError, ValueError) as exc:
            raise GroupFormationError(f"malformed update batch: {exc}") from exc
        if not any(record.get(key) for key in
                   ("upserts", "deletes", "add_users", "remove_users")):
            return None
        return record

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def recommend(
        self,
        k: int,
        max_groups: int,
        semantics: str = "lm",
        aggregation: str = "min",
        user_ids: Sequence[int] | None = None,
    ) -> GroupFormationResult:
        """Answer one formation request from the current ratings.

        Parameters
        ----------
        k:
            Recommended-list length (``1 <= k <= k_max``).
        max_groups:
            Group budget ℓ.
        semantics:
            ``"lm"`` or ``"av"``.
        aggregation:
            ``"min"`` / ``"max"`` / ``"sum"`` / a weighted-sum name.
        user_ids:
            Optional subset of users to form groups over (in the given
            order — the order defines the tie-break indices).  ``None``
            forms groups over every active user.

        Returns
        -------
        GroupFormationResult
            Bit-identical to a cold ``FormationEngine`` run on the current
            ratings restricted to the requested users; ``extras`` carries
            the serving bookkeeping (``service_version``, and
            ``subset_size`` when the read names or skips users).

        Raises
        ------
        GroupFormationError
            On out-of-range ``k``, unknown semantics/aggregation, or a
            request naming removed/unknown users.
        """
        try:
            k = require_positive_int(k, "k")
            max_groups = require_positive_int(max_groups, "max_groups")
            variant = make_variant(semantics, aggregation)
        except (TypeError, ValueError) as exc:
            raise GroupFormationError(str(exc)) from None
        if k > self._index.k_max:
            raise GroupFormationError(
                f"k={k} exceeds the service's k_max ({self._index.k_max})"
            )
        users = None if user_ids is None else np.asarray(user_ids, dtype=np.int64)
        with self._lock:
            self.metrics.inc(K_REQUESTS)
            users_key = None if users is None else users.tobytes()
            key = (k, max_groups, variant_token(variant), users_key, self._index.version)
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                self.metrics.inc(K_RESULT_HITS)
                return cached

            with observed("service.recommend", H_RECOMMEND, registry=self.metrics):
                if users is not None:
                    self._validate_subset(users)
                elif self._index.removed:
                    users = self._index.active_users()
                result = self._form(users, k, max_groups, variant)

            self._results[key] = result
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
            return result

    def _validate_subset(self, users: np.ndarray) -> None:
        """Reject a malformed, duplicated, out-of-range or removed subset."""
        if users.ndim != 1:
            raise GroupFormationError("user_ids must be a flat sequence")
        if users.size == 0:
            raise GroupFormationError("recommend needs at least one user")
        if sorted_unique(users).size != users.size:
            raise GroupFormationError("user_ids contains duplicates")
        if users.min() < 0 or users.max() >= self._index.n_users:
            raise GroupFormationError("user_ids out of range")
        removed = self._index.removed
        if removed and np.isin(users, list(removed)).any():
            raise GroupFormationError("user_ids names removed users")

    def _form(
        self,
        users: np.ndarray | None,
        k: int,
        max_groups: int,
        variant: GreedyVariant,
    ) -> GroupFormationResult:
        """Form groups over every user (``users=None``) or a user subset.

        Steps 1–2 run through the engine backend on the index's ranked
        tables, restricted with
        :meth:`~repro.core.topk_index.TopKIndex.for_users` for a subset
        (table row ``i`` is user ``users[i]``, so rankings are never
        recomputed and the order of ``users`` sets the tie-break).  A
        subset plan is mapped to global ids with one fancy index
        (:meth:`~repro.core.engine.FormationPlan.remapped`).  The shared
        :func:`~repro.core.engine.finalise_plan` scores the plan on the
        service's own store, reading only the selected groups'
        ``(members, k)`` cells and the left-over group's rows, so every
        score is bit-identical to the engine run on the gathered rows.
        """
        extras: dict[str, Any] = {"service_version": self._index.version}
        watch = Stopwatch()
        with watch.lap("formation"):
            index = self._index if users is None else self._index.for_users(users)
            items_table, scores_table = index.top_k(k)
            plan = self._backend.form(items_table, scores_table, variant, max_groups)
        selected_items_rows = items_table[plan.reps]
        if users is not None:
            plan = plan.remapped(users)
            extras["subset_size"] = int(users.size)
        return engine.finalise_plan(
            self.store,
            plan,
            selected_items_rows,
            k,
            variant,
            max_groups,
            watch,
            self._backend.name,
            extra_extras=extras,
        )
