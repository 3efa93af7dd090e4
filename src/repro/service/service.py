"""The online formation service: live updates, cached formations.

:class:`FormationService` turns the batch data plane (store → index →
engine) into a request-serving component:

* it owns a :class:`~repro.recsys.store.MutableRatingStore` and a
  :class:`~repro.core.topk_index.MutableTopKIndex`, so rating upserts and
  deletes repair only the touched users' rankings instead of rebuilding
  the index (:meth:`FormationService.apply_updates`);
* full-population formations run through the sharded path
  (:mod:`repro.core.sharded`): per-shard bucket summaries are **cached**
  and an update batch invalidates only the shards whose users' rankings
  actually changed, so the next request recomputes a few shards and
  recycles the rest through the exact merge-by-key;
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
>>> service = FormationService(DenseStore(ratings), k_max=2, shards=2)
>>> service.recommend(k=1, max_groups=3).objective
11.0
>>> _ = service.apply_updates(upserts=[(4, 1, 5.0)])
>>> service.recommend(k=1, max_groups=3).objective
13.0
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from typing import Any

import numpy as np

# finalise_plan is looked up on the engine module at call time, so
# wrappers installed on repro.core.engine (perfbench's tracer) also see
# subset reads.
from repro.core import engine
from repro.core.engine import get_backend
from repro.core.errors import GroupFormationError
from repro.core.greedy_framework import GreedyVariant, make_variant, variant_token
from repro.core.grouping import GroupFormationResult
from repro.core.sharded import (
    ShardSummary,
    form_from_summaries,
    shard_bounds,
    summarise_tables,
)
from repro.core.topk_index import MutableTopKIndex, TopKIndex
from repro.obs.registry import (
    G_INDEX_VERSION,
    H_RECOMMEND,
    K_REQUESTS,
    K_RESULT_HITS,
    K_SHARDS_RECOMPUTED,
    K_SHARDS_RECYCLED,
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
    shards:
        Number of contiguous user shards whose bucket summaries are cached
        (default 8).  More shards make update invalidation finer-grained
        at a small per-request merge cost.
    backend:
        Formation engine backend (default ``"numpy"``); results are
        bit-identical across backends.
    compaction_fraction:
        Forwarded to :class:`~repro.core.topk_index.MutableTopKIndex`.
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
        shards: int = 8,
        backend: str | None = None,
        compaction_fraction: float | None = 0.25,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        base_index: TopKIndex | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._backend = get_backend(backend)
        self._index = MutableTopKIndex(
            store, k_max, compaction_fraction=compaction_fraction, base=base_index
        )
        self._shards = require_positive_int(shards, "shards")
        self._bounds = shard_bounds(store.n_users, self._shards)
        self._result_cache_size = require_positive_int(
            result_cache_size, "result_cache_size"
        )
        self._summaries: dict[tuple[int, int, str], ShardSummary] = {}
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
            Users/items/k_max/version/staleness, cache sizes, request and
            shard recycle/recompute counters.  The counters are read from
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
                "shards": int(self._bounds.size - 1),
                "version": self._index.version,
                "staleness": self._index.staleness,
                "removed_users": len(self._index.removed),
                "cached_summaries": len(self._summaries),
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
                ("shards_recycled", K_SHARDS_RECYCLED),
                ("shards_recomputed", K_SHARDS_RECOMPUTED),
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
        """Apply one batch of mutations and invalidate exactly what changed.

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
            The index's batch bookkeeping plus ``{"invalidated_shards",
            "version", "wal_seq"}`` (``invalidated_shards`` counts the
            cached shard summaries dropped by this batch, including
            wholesale drops on compaction or user addition; ``wal_seq`` is
            the journal sequence the batch was logged at, or ``None``
            when no :attr:`journal` is attached or the batch is empty).

        Notes
        -----
        Shard summaries are dropped only for shards whose users' *top-k
        rankings* changed; an update that cannot move any ranking (the
        index's fast path) leaves every summary valid, and only the
        memoized results are refreshed (scoring reads below-top-k ratings
        from the store).

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
            touched = set(stats.pop("repaired_user_ids", ()))
            invalidated = 0
            if stats["compacted"]:
                # Compaction re-materialises the index arrays; cached
                # summaries hold views/copies of old slices — drop them all.
                invalidated += len(self._summaries)
                self._summaries.clear()
            if remove_users is not None:
                before = self._index.version
                self._index.remove_users(remove_users)
                if self._index.version != before:
                    touched.update(int(u) for u in np.asarray(remove_users).ravel())
            if add_users is not None and np.asarray(add_users).size:
                self._index.add_users(add_users)
                # The user axis grew: shard boundaries shift, so every
                # cached summary is positionally stale.
                self._bounds = shard_bounds(self._index.n_users, self._shards)
                invalidated += len(self._summaries)
                self._summaries.clear()

            invalidated += self._invalidate_shards(touched)
            self._results.clear()
            self.metrics.inc(K_UPDATE_BATCHES)
            self.metrics.inc(K_UPDATES_APPLIED, stats["upserts"] + stats["deletes"])
            self.metrics.gauge_set(G_INDEX_VERSION, self._index.version)
            stats["invalidated_shards"] = invalidated
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

    def _invalidate_shards(self, users: set[int]) -> int:
        """Drop cached summaries of every shard containing ``users``."""
        if not users or not self._summaries:
            return 0
        user_array = np.fromiter(users, dtype=np.int64)
        shards = set(
            np.searchsorted(self._bounds, user_array, side="right") - 1
        )
        stale = [key for key in self._summaries if key[0] in shards]
        for key in stale:
            del self._summaries[key]
        return len(stale)

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
            the serving bookkeeping (version, cache hits, shard counts).

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
                if users is None and not self._index.removed:
                    result = self._recommend_all(k, max_groups, variant)
                elif users is None:
                    result = self._recommend_subset(
                        self._index.active_users(), k, max_groups, variant,
                        validate=False,
                    )
                else:
                    result = self._recommend_subset(
                        users, k, max_groups, variant, validate=True
                    )

            self._results[key] = result
            while len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
            return result

    def _recommend_all(
        self, k: int, max_groups: int, variant: GreedyVariant
    ) -> GroupFormationResult:
        """Full-population request through cached shard summaries.

        Missing summaries are computed in-process straight from the
        index's ranked top-k tables.
        """
        items_table, scores_table = self._index.top_k(k)
        cached: dict[int, ShardSummary] = {}
        missing: list[int] = []
        for shard in range(self._bounds.size - 1):
            summary = self._summaries.get((shard, k, variant_token(variant)))
            if summary is None:
                missing.append(shard)
            else:
                cached[shard] = summary
        for shard in missing:
            start, stop = int(self._bounds[shard]), int(self._bounds[shard + 1])
            summary = summarise_tables(
                items_table[start:stop], scores_table[start:stop], start, variant
            )
            self._summaries[(shard, k, variant_token(variant))] = summary
            cached[shard] = summary
        summaries = [cached[shard] for shard in range(self._bounds.size - 1)]
        recycled = self._bounds.size - 1 - len(missing)
        recomputed = len(missing)
        self.metrics.inc(K_SHARDS_RECYCLED, recycled)
        self.metrics.inc(K_SHARDS_RECOMPUTED, recomputed)
        return form_from_summaries(
            self.store,
            summaries,
            variant,
            max_groups,
            k,
            extra_extras={
                "service_version": self._index.version,
                "shards_recycled": recycled,
                "shards_recomputed": recomputed,
            },
        )

    def _recommend_subset(
        self,
        users: np.ndarray,
        k: int,
        max_groups: int,
        variant: GreedyVariant,
        validate: bool,
    ) -> GroupFormationResult:
        """Form groups over an explicit user subset (request-sized path).

        Steps 1–2 run on the index restricted with
        :meth:`~repro.core.topk_index.TopKIndex.for_users` (table row ``i``
        is user ``users[i]``, so rankings are never recomputed and the
        order of ``users`` sets the tie-break).  The plan is mapped to
        global ids with one fancy index
        (:meth:`~repro.core.engine.FormationPlan.remapped`) and scored by
        the shared :func:`~repro.core.engine.finalise_plan` on the
        service's own store, which reads only the selected groups'
        ``(members, k)`` cells and the left-over group's rows — the
        subset's rows are never copied.  Members keep their order within
        the restricted tables, so every score is bit-identical to the
        engine run on the gathered rows.
        """
        if validate:
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
        watch = Stopwatch()
        with watch.lap("formation"):
            items_table, scores_table = self._index.for_users(users).top_k(k)
            plan = self._backend.form(items_table, scores_table, variant, max_groups)
        return engine.finalise_plan(
            self.store,
            plan.remapped(users),
            items_table[plan.reps],
            k,
            variant,
            max_groups,
            watch,
            self._backend.name,
            extra_extras={
                "service_version": self._index.version,
                "subset_size": int(users.size),
            },
        )
