"""The execution plane: one protocol, serial and process strategies.

Every parallel opportunity in the library has the same shape — a list of
independent, deterministic work items (per-shard summaries, per-config
sweep points) whose results are merged by the caller — so one small
:class:`Executor` protocol covers them all:

``SerialExecutor``
    Plain loops.  The executable specification the process strategy is
    tested against (results must be bit-identical — the work items are
    deterministic and independent, so only scheduling differs).
``ProcessExecutor``
    A process pool fed through the zero-copy shared-memory adapters of
    :mod:`repro.execution.shm`: bulk arrays are exported to named segments
    once, workers attach without pickling or copying, and only small specs
    and result digests cross the process boundary.  This is the strategy
    that escapes the GIL entirely for the pure-Python parts of the hot
    path (bucket bookkeeping, merge preparation) and scales with cores.

Work items are self-contained: a :class:`~repro.core.greedy_framework.GreedyVariant`
carries unpicklable closures, so tasks ship the picklable
``(semantics, aggregation)`` pair and rebuild the variant in the worker via
:func:`~repro.core.greedy_framework.make_variant` — the rebuilt variant is
equal by construction, which is what keeps process results bit-identical
to the serial path (asserted by ``tests/execution/test_executors.py``).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.execution.shm import (
    SharedExports,
    TablesSpec,
    attach_index,
    attach_store,
    attach_tables,
)
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import FormationConfig
    from repro.core.greedy_framework import GreedyVariant
    from repro.core.grouping import GroupFormationResult
    from repro.core.sharded import ShardSummary
    from repro.core.topk_index import TopKIndex
    from repro.recsys.store import RatingStore

__all__ = [
    "EXECUTION_MODES",
    "DEFAULT_EXECUTION",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "executor_scope",
]

#: Execution strategies selectable via ``--execution``.
EXECUTION_MODES: tuple[str, ...] = ("serial", "processes")

#: Strategy used when none is requested explicitly.
DEFAULT_EXECUTION = "serial"


def _variant_key(variant: "GreedyVariant") -> tuple[Any, Any]:
    """The picklable ``(semantics, aggregation)`` pair rebuilding ``variant``."""
    return (variant.semantics, variant.aggregation)


class Executor(ABC):
    """Strategy interface: how independent formation work items are executed.

    Parameters
    ----------
    workers:
        Degree of parallelism (ignored by :class:`SerialExecutor`;
        defaults to the CPU count for the process strategy).
    """

    #: Canonical strategy name (``"serial"`` / ``"processes"``).
    name: str = "abstract"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None:
            workers = require_positive_int(workers, "workers")
        self.workers = workers or (os.cpu_count() or 1)

    @abstractmethod
    def map_shards(
        self,
        store: "RatingStore",
        bounds: np.ndarray,
        k: int,
        variant: "GreedyVariant",
        shard_ids: Sequence[int] | None = None,
    ) -> "list[ShardSummary]":
        """Summarise shards of ``store`` (step 1 of the greedy skeleton).

        Parameters
        ----------
        store:
            Rating storage the shards are read from.
        bounds:
            Shard boundaries from :func:`~repro.core.sharded.shard_bounds`.
        k:
            Top-k prefix length of the run.
        variant:
            The greedy variant being executed.
        shard_ids:
            Which shards to summarise (default: all of them), e.g. the
            subset an artifact cache could not serve.

        Returns
        -------
        list of ShardSummary
            One digest per requested shard, in ``shard_ids`` order —
            element-wise identical to the serial path.
        """

    @abstractmethod
    def map_table_shards(
        self,
        items_table: np.ndarray,
        scores_table: np.ndarray,
        bounds: np.ndarray,
        shard_ids: Sequence[int],
        variant: "GreedyVariant",
        token: "tuple | None" = None,
    ) -> "list[ShardSummary]":
        """Summarise the requested shards straight from ranked top-k tables.

        This is the serving layer's unit of work: tables come from the
        incrementally maintained index, and only the shards whose cached
        summaries were invalidated are requested.

        Parameters
        ----------
        items_table, scores_table:
            Full ``(n_users, k)`` ranked tables.
        bounds:
            Shard boundaries over the user axis.
        shard_ids:
            Which shards to summarise.
        variant:
            The greedy variant being executed.
        token:
            Opaque freshness token for the tables (e.g. ``(version, k)``).
            :class:`ProcessExecutor` keys its shared-memory export on it so
            repeated calls with an unchanged token re-use one export; pass
            ``None`` to export (and release) per call.

        Returns
        -------
        list of ShardSummary
            One digest per requested shard, in ``shard_ids`` order.
        """

    @abstractmethod
    def map_configs(
        self,
        store: "RatingStore",
        configs: "Sequence[FormationConfig]",
        backend: str | None,
        topk: "TopKIndex",
    ) -> "list[GroupFormationResult]":
        """Run every sweep configuration as an independent formation.

        Parameters
        ----------
        store:
            Rating storage shared by every configuration.
        configs:
            The ``(k, ℓ, semantics, aggregation)`` sweep points.
        backend:
            Formation backend name (``None`` = engine default).
        topk:
            Prebuilt index at the sweep's largest ``k`` (built by the
            caller so ranking happens exactly once).

        Returns
        -------
        list of GroupFormationResult
            One result per config, in config order — identical to running
            each config through ``FormationEngine.run``.
        """

    def warm(self) -> None:
        """Start the strategy's workers eagerly (no-op for in-process ones).

        Long-lived hosts with background threads (the asyncio service)
        call this at construction time, while the process is still
        single-threaded: forking later — from a thread-pool callback —
        risks cloning another thread's held locks into the workers.
        """

    def close(self) -> None:
        """Release pools and shared-memory exports (idempotent)."""

    def __enter__(self) -> "Executor":
        """Enter the context manager (returns ``self``)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Call :meth:`close` on context exit (exc_info unused)."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


def _summarise_store_shard(store, start, stop, k, variant):
    """In-process shard summary."""
    from repro.core.sharded import summarise_store_shard

    return summarise_store_shard(store, start, stop, k, variant)


def _summarise_table_shard(items_table, scores_table, bounds, shard, variant):
    """In-process table-shard summary."""
    from repro.core.sharded import summarise_tables

    start, stop = int(bounds[shard]), int(bounds[shard + 1])
    return summarise_tables(
        items_table[start:stop], scores_table[start:stop], start, variant
    )


def _run_config(store, config, backend, topk):
    """In-process sweep point (serial path and process workers)."""
    from repro.core.engine import FormationEngine

    return FormationEngine(backend).run(
        store,
        config.max_groups,
        config.k,
        config.semantics,
        config.aggregation,
        topk=topk,
    )


class SerialExecutor(Executor):
    """Plain in-process loops — the executable specification."""

    name = "serial"

    def map_shards(self, store, bounds, k, variant, shard_ids=None):
        """Summarise shards one after another (see :meth:`Executor.map_shards`
        for ``store`` / ``bounds`` / ``k`` / ``variant`` / ``shard_ids``)."""
        if shard_ids is None:
            shard_ids = range(bounds.size - 1)
        return [
            _summarise_store_shard(
                store, int(bounds[s]), int(bounds[s + 1]), k, variant
            )
            for s in shard_ids
        ]

    def map_table_shards(
        self, items_table, scores_table, bounds, shard_ids, variant, token=None
    ):
        """Summarise the requested table shards sequentially (``token`` unused;
        see :meth:`Executor.map_table_shards` for ``items_table`` /
        ``scores_table`` / ``bounds`` / ``shard_ids`` / ``variant``)."""
        return [
            _summarise_table_shard(items_table, scores_table, bounds, s, variant)
            for s in shard_ids
        ]

    def map_configs(self, store, configs, backend, topk):
        """Run the sweep points sequentially (see :meth:`Executor.map_configs`
        for ``store`` / ``configs`` / ``backend`` / ``topk``)."""
        return [_run_config(store, config, backend, topk) for config in configs]


# ------------------------------------------------------------------------- #
# Process workers: module-level task functions (picklable by reference) and
# a per-process attachment cache so each worker attaches a spec only once.
# ------------------------------------------------------------------------- #

#: Per-worker cache of attached objects keyed by spec.  Bounded: stale
#: entries (older exports whose segments the parent already unlinked) are
#: dropped — and their segment handles closed — so long-lived pools do not
#: pin the pages of every store they ever attached.
_WORKER_ATTACHMENTS: dict[Any, Any] = {}
_WORKER_CACHE_CAP = 8


def _spec_segments(spec) -> tuple[str, ...]:
    """The shared-memory segment names a store/tables spec refers to."""
    if isinstance(spec, TablesSpec):
        return (spec.items.segment, spec.values.segment)
    return tuple(array_spec.segment for _, array_spec in spec.arrays)


def _worker_cached(spec, builder):
    """Attach-once cache for worker processes (evicts oldest beyond the cap).

    Eviction drops the rebuilt object *and* closes its underlying segment
    handles (:func:`repro.execution.shm.detach`) — without the close, a
    worker would keep the pages of every parent-unlinked export resident
    until process exit.
    """
    obj = _WORKER_ATTACHMENTS.get(spec)
    if obj is None:
        from repro.execution.shm import detach

        while len(_WORKER_ATTACHMENTS) >= _WORKER_CACHE_CAP:
            evicted = next(iter(_WORKER_ATTACHMENTS))
            _WORKER_ATTACHMENTS.pop(evicted)
            detach(_spec_segments(evicted))
        obj = builder(spec)
        _WORKER_ATTACHMENTS[spec] = obj
    return obj


# Every task tuple ends with the parent's kernel thread count: spawn-start
# workers do not inherit the process-wide setting.  Results are
# thread-count-independent; only the worker's wall-clock changes.


def _process_summarise_store(args):
    """Worker task: summarise one store shard from shared memory."""
    store_spec, start, stop, k, variant_key, threads = args
    from repro.core.greedy_framework import make_variant
    from repro.core.kernels import set_kernel_threads
    from repro.core.sharded import summarise_store_shard

    set_kernel_threads(threads)
    store = _worker_cached(store_spec, attach_store)
    variant = make_variant(*variant_key)
    return summarise_store_shard(store, start, stop, k, variant)


def _process_summarise_tables(args):
    """Worker task: summarise one table shard from shared memory."""
    tables_spec, start, stop, variant_key, threads = args
    from repro.core.greedy_framework import make_variant
    from repro.core.kernels import set_kernel_threads
    from repro.core.sharded import summarise_tables

    set_kernel_threads(threads)
    items_table, values_table = _worker_cached(tables_spec, attach_tables)
    variant = make_variant(*variant_key)
    return summarise_tables(
        items_table[start:stop], values_table[start:stop], start, variant
    )


def _process_run_config(args):
    """Worker task: run one sweep configuration from shared memory."""
    store_spec, tables_spec, config, backend, threads = args
    from repro.core.kernels import set_kernel_threads

    set_kernel_threads(threads)
    store = _worker_cached(store_spec, attach_store)
    topk = _worker_cached(tables_spec, attach_index)
    return _run_config(store, config, backend, topk)


class ProcessExecutor(Executor):
    """Process-pool fan-out over zero-copy shared-memory stores.

    The pool is created lazily on first use and re-used across calls (fork
    start method where available, so spin-up is cheap).  Bulk data crosses
    the process boundary exactly once per export — as named shared-memory
    segments workers attach to — and per-task traffic is limited to specs,
    scalars and result digests.

    Parameters
    ----------
    workers:
        Pool size (default: CPU count).
    """

    name = "processes"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._pool: ProcessPoolExecutor | None = None
        self._token_exports: dict[tuple, tuple[TablesSpec, SharedExports]] = {}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp

            from repro.obs import runtime as obs_runtime

            context = (
                mp.get_context("fork")
                if "fork" in mp.get_all_start_methods()
                else mp.get_context()
            )
            # When the telemetry plane reserved slab slots for executor
            # workers (ServiceConfig stacks), each worker claims one in its
            # initializer so its kernel metrics aggregate with the stack's.
            worker_init = obs_runtime.worker_initializer()
            if worker_init is not None:
                initializer, initargs = worker_init
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context,
                    initializer=initializer, initargs=initargs,
                )
            else:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
        return self._pool

    def map_shards(self, store, bounds, k, variant, shard_ids=None):
        """Fan shard summaries out across the process pool.

        The store is exported to shared memory for the duration of the call
        and unlinked before returning; see :meth:`Executor.map_shards` for
        ``store`` / ``bounds`` / ``k`` / ``variant`` / ``shard_ids``.
        """
        from repro.core.kernels import get_kernel_threads

        pool = self._ensure_pool()
        key = _variant_key(variant)
        threads = get_kernel_threads()
        if shard_ids is None:
            shard_ids = range(bounds.size - 1)
        with SharedExports() as exports:
            spec = exports.export_store(store)
            tasks = [
                (spec, int(bounds[s]), int(bounds[s + 1]), k, key, threads)
                for s in shard_ids
            ]
            return list(pool.map(_process_summarise_store, tasks))

    def map_table_shards(
        self, items_table, scores_table, bounds, shard_ids, variant, token=None
    ):
        """Fan table-shard summaries out across the process pool.

        With a ``token``, the tables' shared-memory export is cached until a
        call arrives with a different token (stale exports are released);
        with ``token=None`` the export lives only for this call.  See
        :meth:`Executor.map_table_shards` for ``items_table`` /
        ``scores_table`` / ``bounds`` / ``shard_ids`` / ``variant``.
        """
        from repro.core.kernels import get_kernel_threads

        pool = self._ensure_pool()
        key = _variant_key(variant)
        threads = get_kernel_threads()
        # The table-shard workers only ever attach_tables(); n_items is
        # recorded as 0 ("not a full index") rather than paying an
        # O(n_users * k) scan to derive a value nothing reads —
        # attach_index() on such a spec fails loudly by design.
        n_items = 0

        def run(spec: TablesSpec):
            tasks = [
                (spec, int(bounds[s]), int(bounds[s + 1]), key, threads)
                for s in shard_ids
            ]
            return list(pool.map(_process_summarise_tables, tasks))

        if token is None:
            with SharedExports() as exports:
                return run(exports.export_tables(items_table, scores_table, n_items))
        cached = self._token_exports.get(token)
        if cached is None:
            for stale_token in list(self._token_exports):
                _, stale_exports = self._token_exports.pop(stale_token)
                stale_exports.close()
            exports = SharedExports()
            cached = (
                exports.export_tables(items_table, scores_table, n_items),
                exports,
            )
            self._token_exports[token] = cached
        return run(cached[0])

    def map_configs(self, store, configs, backend, topk):
        """Fan sweep points out across the process pool.

        The store and the prebuilt index are exported to shared memory for
        the duration of the call; see :meth:`Executor.map_configs` for
        ``store`` / ``configs`` / ``backend`` / ``topk``.
        """
        from repro.core.kernels import get_kernel_threads

        pool = self._ensure_pool()
        threads = get_kernel_threads()
        with SharedExports() as exports:
            store_spec = exports.export_store(store)
            tables_spec = exports.export_tables(
                topk.items, topk.values, topk.n_items
            )
            tasks = [
                (store_spec, tables_spec, config, backend, threads)
                for config in configs
            ]
            return list(pool.map(_process_run_config, tasks))

    def warm(self) -> None:
        """Fork the full worker complement now, while this process is quiet.

        ``ProcessPoolExecutor`` forks lazily — one worker per submit that
        finds no idle worker — so this submits ``workers`` overlapping
        sleeps: each occupies the worker it spawned, forcing the next
        submit to fork another.  Doing this before the host starts any
        threads is what makes the fork start method safe for the service.
        """
        import time

        pool = self._ensure_pool()
        futures = [pool.submit(time.sleep, 0.05) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Shut the pool down and release cached shared-memory exports."""
        for _, exports in self._token_exports.values():
            exports.close()
        self._token_exports.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


_EXECUTORS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def get_executor(
    execution: str | Executor | None = None, workers: int | None = None
) -> Executor:
    """Resolve an ``--execution`` choice to an :class:`Executor`.

    Parameters
    ----------
    execution:
        ``"serial"`` / ``"processes"``, an existing :class:`Executor`
        (returned unchanged, ``workers`` ignored), or ``None`` for the
        default — processes when ``workers > 1``, serial otherwise.
    workers:
        Degree of parallelism for a newly built executor.

    Examples
    --------
    >>> get_executor("processes", 4).name
    'processes'
    >>> get_executor(None, 1).name
    'serial'
    >>> get_executor(None, 8).name
    'processes'
    """
    if isinstance(execution, Executor):
        return execution
    if execution is None:
        key = "processes" if workers is not None and workers > 1 else "serial"
    else:
        key = str(execution).strip().lower()
    if key not in _EXECUTORS:
        known = ", ".join(EXECUTION_MODES)
        raise ValueError(
            f"unknown execution mode {execution!r}; expected one of: {known}"
        )
    return _EXECUTORS[key](workers)


@contextmanager
def executor_scope(
    execution: str | Executor | None = None, workers: int | None = None
):
    """Yield an executor, closing it on exit only if this scope created it.

    Parameters
    ----------
    execution:
        As for :func:`get_executor`; a passed-in :class:`Executor` instance
        is yielded as-is and left open (the caller owns its lifetime).
    workers:
        Degree of parallelism for a newly built executor.
    """
    if isinstance(execution, Executor):
        yield execution
        return
    executor = get_executor(execution, workers)
    try:
        yield executor
    finally:
        executor.close()
