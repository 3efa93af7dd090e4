"""Multi-process replica pool: horizontal read scaling behind one front end.

``repro serve`` historically answered every ``/v1/recommend`` in the same
process that applied writes.  Recommend traffic is read-heavy and
embarrassingly replicable, so this module runs **N read-only worker
processes**, each attached *zero-copy* to the current store and top-k
index through the shared-memory adapters of :mod:`repro.execution.shm`,
behind the existing asyncio front end:

* **Routing** — :meth:`ReplicaPool.recommend` assigns each request
  round-robin across live replicas, with a per-replica in-flight cap and
  one bounded overflow queue.  A full queue is rejected immediately with
  :class:`PoolOverloaded` (a structured ``503 overloaded`` at the HTTP
  layer) instead of building unbounded backlog.
* **Single writer, versioned swap** — all writes keep flowing through the
  front-end process (the :class:`~repro.ingest.IngestPipeline` writer).
  After an applied batch, :meth:`ReplicaPool.publish` exports the new
  store + index tables under a fresh set of shared-memory segments keyed
  by the index version, tells every replica to adopt them, flips the
  pool's current-publication pointer, and retires the previous export
  once every live replica has switched.  Replicas serve the old version
  until the instant they adopt the new one — readers never block on
  writers, never observe a half-applied batch, and every response carries
  the exact index version (``extras["service_version"]``) it was computed
  at.
* **Supervision** — a heartbeat task pings idle replicas and watches
  liveness; a crashed replica (including ``SIGKILL``) is detected, its
  in-flight request is retried on a surviving replica, and a fresh worker
  is spawned and attached to the current publication.  Crash handling is
  invisible to clients beyond latency.

Replica answers are **bit-identical** to single-process serving: workers
run the very same :class:`~repro.service.FormationService` recommend path
over the very same bytes (the shared segments are exported from the
writer's arrays).  ``tests/service/test_pool_faults.py`` asserts the
parity across crashes; :func:`canonical_response` defines which response
keys are serving bookkeeping (replica id, cache counters) rather than
semantic payload.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.errors import ReproError
from repro.faults import fire as fault_fire
from repro.obs import trace
from repro.obs.registry import (
    G_REPLICAS_ALIVE,
    G_POOL_QUEUED,
    H_QUEUE_WAIT,
    H_REPLICA_CALL,
    H_RESPAWN_BACKOFF,
    K_POOL_DISPATCHED,
    K_POOL_PUBLISHED,
    K_POOL_REJECTED,
    K_POOL_RESPAWN_FAILURES,
    K_POOL_RESPAWNS,
    K_POOL_RETRIES,
    K_REPLICA_SERVED,
    MetricsRegistry,
    MetricsSlab,
)
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.obs.registry import SlabSpec
    from repro.execution.shm import SharedExports, StoreSpec, TablesSpec
    from repro.service.service import FormationService

__all__ = [
    "ReplicaPool",
    "ReplicaSettings",
    "ReplicaPoolError",
    "PoolOverloaded",
    "PoolShuttingDown",
    "ReplicaCrashed",
    "canonical_response",
]

#: Response keys (top-level and under ``extras``) that describe *how* a
#: response was served rather than *what* was recommended.  The replica
#: parity gates compare responses with these stripped; everything else —
#: groups, members, items, scores, objective, version — must match
#: single-process serving bit for bit.
BOOKKEEPING_KEYS = ("coalesced", "replica", "pool_version")
BOOKKEEPING_EXTRAS = (
    "shards_recycled",
    "shards_recomputed",
    "subset_size",
    "formation_seconds",
    "recommendation_seconds",
)


def canonical_response(payload: dict) -> dict:
    """Strip serving bookkeeping from a recommend response for parity checks.

    Parameters
    ----------
    payload:
        A ``/v1/recommend`` response body (or ``result.as_dict()``).

    Returns
    -------
    dict
        The payload minus :data:`BOOKKEEPING_KEYS` and, inside ``extras``,
        minus :data:`BOOKKEEPING_EXTRAS` — the part that must be
        bit-identical between single-process and replica serving.
    """
    out = {k: v for k, v in payload.items() if k not in BOOKKEEPING_KEYS}
    extras = out.get("extras")
    if isinstance(extras, dict):
        out["extras"] = {
            k: v for k, v in extras.items() if k not in BOOKKEEPING_EXTRAS
        }
    return out


class ReplicaPoolError(ReproError):
    """Base class for replica-pool failures (routing, supervision, swap)."""


class PoolOverloaded(ReplicaPoolError):
    """Raised when every replica is at its in-flight cap and the queue is full."""


class PoolShuttingDown(ReplicaPoolError):
    """Raised for requests queued (or arriving) after shutdown began."""


class ReplicaCrashed(ReplicaPoolError):
    """Raised when a replica dies (or stops answering) mid-request."""


@dataclass(frozen=True)
class ReplicaSettings:
    """Picklable knobs a replica worker needs to rebuild the serving stack.

    Attributes
    ----------
    k_max:
        Index width served (must match the exported tables).
    shards:
        Cached-summary shard count (same value as the writer, so replica
        results are bit-identical to single-process serving).
    backend:
        Formation-engine backend name (``None`` = default).
    kernel_threads:
        Compiled-kernel thread count adopted in the worker (``None`` =
        environment/CPU default).
    compaction_fraction:
        Forwarded to the replica's index wrapper (never triggers — the
        replica applies no updates — but kept identical for parity).
    """

    k_max: int
    shards: int = 8
    backend: str | None = None
    kernel_threads: int | None = None
    compaction_fraction: float | None = 0.25


@dataclass(frozen=True)
class _Publication:
    """One immutable published version of the serving state.

    Attributes
    ----------
    version:
        The writer index version these exports were taken at.
    store_spec, tables_spec:
        Shared-memory specs of the store and the ``(items, values)``
        top-k tables (see :mod:`repro.execution.shm`).
    removed:
        Tombstoned user ids at this version.
    staleness:
        The writer index's staleness counter (adopted for stats parity).
    exports:
        The owning :class:`~repro.execution.shm.SharedExports`; closed by
        the pool once every live replica has adopted a newer publication.
    """

    version: int
    store_spec: "StoreSpec"
    tables_spec: "TablesSpec"
    removed: tuple[int, ...]
    staleness: int
    exports: "SharedExports" = field(repr=False)


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #


def _publication_segments(store_spec, tables_spec) -> tuple[str, ...]:
    """Every shared-memory segment name a publication's specs refer to."""
    names = [array_spec.segment for _, array_spec in store_spec.arrays]
    names.extend((tables_spec.items.segment, tables_spec.values.segment))
    return tuple(names)


def _build_replica_service(store_spec, tables_spec, removed, staleness,
                           version, settings: ReplicaSettings,
                           metrics: MetricsRegistry | None = None):
    """Construct the read-only serving stack over attached shared memory.

    Parameters
    ----------
    store_spec, tables_spec:
        The publication's shared-memory specs.
    removed, staleness, version:
        Writer index state adopted so replica responses report the exact
        version (and serve the same active-user set).
    settings:
        The picklable :class:`ReplicaSettings`.
    metrics:
        The replica's metrics registry (its slot of the shared telemetry
        slab); ``None`` gives the service a private local registry.
    """
    from repro.core.topk_index import TopKIndex
    from repro.execution.shm import attach_store, attach_tables
    from repro.service.service import FormationService

    store = attach_store(store_spec)
    items, values = attach_tables(tables_spec)
    base = TopKIndex(items, values, store.n_items)
    service = FormationService(
        store,
        k_max=settings.k_max,
        shards=settings.shards,
        backend=settings.backend,
        compaction_fraction=settings.compaction_fraction,
        base_index=base,
        metrics=metrics,
    )
    service.index.adopt_state(version, removed, staleness)
    return service


def _replica_main(
    conn: "Connection",
    settings: ReplicaSettings,
    slab_spec: "SlabSpec | None" = None,
    slot: int | None = None,
) -> None:
    """Entry point of one replica worker process.

    Serves a tiny sequential message loop over ``conn``: ``adopt`` swaps in
    a newly published version (detaching the previous segments), ``recommend``
    answers one formation request from the attached state, ``ping`` confirms
    liveness, ``stop`` exits.  The loop is single-threaded on purpose: a
    version swap can never interleave with a request, so every response is
    computed against exactly one fully-applied publication.

    Parameters
    ----------
    conn:
        The worker end of the duplex control pipe.
    settings:
        Picklable service knobs (:class:`ReplicaSettings`).
    slab_spec:
        Shared telemetry-slab spec to attach to (``None`` = no shared
        metrics; the worker falls back to a private registry).
    slot:
        This replica's slot row in the slab.  Respawned workers reuse the
        slot of the replica they replace, so the row's counts accumulate
        across crashes without double-counting.
    """
    import signal

    from repro import faults
    from repro.core.kernels import set_kernel_threads
    from repro.execution.shm import detach, detach_all
    from repro.obs import runtime as obs_runtime

    # Forked workers inherit the parent's configured fault plane; spawned
    # workers pick the schedule up again from REPRO_FAULTS (a no-op when
    # the plane is already configured or the variable is unset).
    faults.configure_from_env()

    # The front end owns orchestrated shutdown; a terminal Ctrl-C must not
    # race it by killing workers mid-reply.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    set_kernel_threads(settings.kernel_threads)

    # A forked worker inherits the parent's process-global registry, whose
    # row belongs to the *writer*; rebind (or reset) before serving so the
    # replica only ever writes its own slot.
    metrics: MetricsRegistry | None = None
    obs_runtime.reset_registry()
    if slab_spec is not None and slot is not None:
        try:
            metrics = MetricsRegistry.attach(slab_spec, slot)
            obs_runtime.set_registry(metrics)
        except Exception:  # noqa: BLE001 - metrics must never kill a worker
            metrics = None

    service = None
    held_segments: tuple[str, ...] = ()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # parent gone: orphan cleanup
                break
            kind = message[0]
            if kind == "adopt":
                _, version, store_spec, tables_spec, removed, staleness = message
                old_service, old_segments = service, held_segments
                service = _build_replica_service(
                    store_spec, tables_spec, removed, staleness, version,
                    settings, metrics,
                )
                held_segments = _publication_segments(store_spec, tables_spec)
                del old_service  # drop array views before detaching
                if old_segments:
                    detach(old_segments)
                conn.send(("adopted", version))
            elif kind == "recommend":
                _, request_id, params, want_trace = message
                handle = trace.begin(str(request_id)) if want_trace else None
                try:
                    result = service.recommend(**params)
                except ReproError as exc:
                    conn.send(("error", request_id, "validation", str(exc)))
                except Exception as exc:  # noqa: BLE001 - process boundary
                    conn.send(("error", request_id, "internal", str(exc)))
                else:
                    spans = None
                    if handle is not None:
                        spans = trace.end(handle).spans
                        handle = None
                    if metrics is not None:
                        metrics.inc(K_REPLICA_SERVED)
                    conn.send(("ok", request_id, result.as_dict(), spans))
                finally:
                    if handle is not None:
                        trace.end(handle)
            elif kind == "ping":
                _, request_id = message
                conn.send(
                    ("pong", request_id,
                     service.version if service is not None else None)
                )
            elif kind == "stop":
                break
    finally:
        detach_all()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# --------------------------------------------------------------------- #
# Parent-side replica handle
# --------------------------------------------------------------------- #


class _ReplicaHandle:
    """Parent-side endpoint of one replica worker (blocking send/recv pairs).

    A :class:`threading.Lock` serialises request/response exchanges, so the
    sequential worker always answers the message it just received; the
    asyncio router enforces the in-flight cap above this and runs the
    blocking exchange on the default thread-pool executor.
    """

    def __init__(self, index: int, process, conn: "Connection") -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.inflight = 0
        self.alive = True
        self.adopted_version: int | None = None
        self.spawned_at = time.monotonic()
        self.last_reply = time.monotonic()
        self._request_ids = itertools.count()

    def _exchange(self, message: tuple, timeout: float) -> tuple:
        """Send one message and wait for its reply (caller holds the lock)."""
        try:
            fault_fire("pool.control")
            self.conn.send(message)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ReplicaCrashed(
                f"replica {self.index} pipe closed on send: {exc}"
            ) from exc
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.conn.poll(0.05):
                    reply = self.conn.recv()
                    self.last_reply = time.monotonic()
                    return reply
            except (EOFError, OSError) as exc:
                raise ReplicaCrashed(
                    f"replica {self.index} died mid-request"
                ) from exc
            if not self.process.is_alive():
                raise ReplicaCrashed(
                    f"replica {self.index} (pid {self.process.pid}) is dead"
                )
            if time.monotonic() > deadline:
                raise ReplicaCrashed(
                    f"replica {self.index} did not answer within {timeout:.1f}s"
                )

    def recommend(
        self, params: dict, timeout: float, want_trace: bool = False
    ) -> tuple[dict, list | None]:
        """Run one recommend request on this replica (blocking).

        Parameters
        ----------
        params:
            Keyword arguments for
            :meth:`~repro.service.FormationService.recommend`.
        timeout:
            Seconds before the replica is declared crashed.
        want_trace:
            When true the replica records its recommend span tree and
            ships it back alongside the payload.

        Returns
        -------
        tuple
            ``(payload, spans)`` — the recommend response dict and the
            replica-side span list (``None`` unless ``want_trace``).
        """
        with self.lock:
            request_id = next(self._request_ids)
            reply = self._exchange(
                ("recommend", request_id, params, want_trace), timeout
            )
        kind = reply[0]
        if kind == "ok" and reply[1] == request_id:
            return reply[2], reply[3]
        if kind == "error" and reply[1] == request_id:
            _, _, code, message = reply
            raise _REMOTE_ERRORS.get(code, RuntimeError)(message)
        raise ReplicaCrashed(
            f"replica {self.index} answered out of protocol: {reply[:1]}"
        )

    def adopt(self, publication: _Publication, timeout: float) -> None:
        """Switch this replica to ``publication`` (blocking, serialized).

        Parameters
        ----------
        publication:
            The freshly exported :class:`_Publication`.
        timeout:
            Seconds before the replica is declared crashed.
        """
        with self.lock:
            reply = self._exchange(
                ("adopt", publication.version, publication.store_spec,
                 publication.tables_spec, publication.removed,
                 publication.staleness),
                timeout,
            )
        if reply[:2] != ("adopted", publication.version):
            raise ReplicaCrashed(
                f"replica {self.index} failed to adopt version "
                f"{publication.version}: {reply[:1]}"
            )
        self.adopted_version = publication.version

    def ping(self, timeout: float) -> bool:
        """Heartbeat: ``True`` when the replica answers (or is busy serving).

        Parameters
        ----------
        timeout:
            Seconds to wait for the pong.
        """
        if not self.lock.acquire(blocking=False):
            return True  # busy serving a request — demonstrably alive
        try:
            request_id = next(self._request_ids)
            reply = self._exchange(("ping", request_id), timeout)
            return reply[0] == "pong"
        finally:
            self.lock.release()

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit; escalate to SIGKILL if it does not.

        Parameters
        ----------
        timeout:
            Seconds to wait for a voluntary exit before killing.
        """
        self.alive = False
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.kill()
            self.process.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


#: Remote error codes mapped back to local exception types.
def _validation_error(message: str) -> ReproError:
    """Rebuild a replica-side validation failure as a local ReproError."""
    from repro.core.errors import GroupFormationError

    return GroupFormationError(message)


_REMOTE_ERRORS: dict[str, Any] = {"validation": _validation_error}


@dataclass
class _RespawnState:
    """Per-slot respawn accounting: consecutive failures, backoff, breaker.

    Attributes
    ----------
    rng:
        Per-slot seeded jitter source (``Random(f"{seed}:{index}")``), so
        backoff delays are deterministic under a fixed ``backoff_seed``.
    failures:
        Consecutive failures (young deaths or failed bring-ups) since the
        slot last stayed up for ``respawn_min_uptime`` seconds.
    next_attempt:
        Monotonic time before which no respawn may be attempted.
    breaker:
        Circuit breaker: ``True`` once ``failures`` reached the budget.
        The supervisor half-opens it for a single trial respawn after a
        ``respawn_max_backoff`` cooldown.
    """

    rng: random.Random
    failures: int = 0
    next_attempt: float = 0.0
    breaker: bool = False


# --------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------- #


class ReplicaPool:
    """Route read traffic across N replica processes; publish writes to them.

    Parameters
    ----------
    service:
        The writer-side :class:`~repro.service.FormationService`.  The pool
        never mutates it; it exports its store/index state on
        :meth:`publish` and copies its configuration into the replicas.
    replicas:
        Number of worker processes (``>= 1``).
    inflight:
        Per-replica in-flight cap: how many requests may be assigned to
        one replica at a time (1 computing + the rest pipelined in its
        control pipe; default 2).
    queue_depth:
        Bounded overflow queue once every replica is at its cap; a request
        arriving with the queue full fails fast with
        :class:`PoolOverloaded` (default 64; 0 disables queueing).
    settings:
        Optional :class:`ReplicaSettings` override; derived from
        ``service``'s current kernel/backend state when omitted.
    request_timeout:
        Seconds a dispatched request may take before the replica is
        declared crashed and the request retried elsewhere (default 30).
    heartbeat_interval:
        Seconds between supervision sweeps (liveness check + idle pings;
        default 1.0).
    respawn_backoff:
        Base delay before the *second* consecutive respawn of one slot;
        doubles per further failure (default 0.5 s).  The first respawn
        after a healthy run is always immediate.
    respawn_max_backoff:
        Backoff ceiling, and the circuit-breaker cooldown before a
        half-open trial (default 30 s).
    respawn_budget:
        Consecutive failures after which the slot's breaker opens and
        respawning pauses for the cooldown (default 5).
    respawn_min_uptime:
        Seconds a replica must stay alive for its failure count to reset
        (default 5.0) — a crash-looping snapshot cannot ride forever on
        "each spawn briefly succeeded".
    backoff_seed:
        Seed for the deterministic per-slot backoff jitter (default 0).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` for pool telemetry.
        When it is slab-backed (the config wiring), replicas attach the
        same slab at slots ``1 + replica_index``; when it is local (or
        omitted), :meth:`start` migrates it onto a pool-owned slab so
        replica counters still aggregate.

    Notes
    -----
    Call :meth:`start` before serving, ideally while the host process has
    no running threads (the worker start method is chosen accordingly:
    ``fork`` from a single-threaded host, ``spawn`` otherwise).  The pool
    is asyncio-native: :meth:`recommend`, :meth:`publish` and
    :meth:`shutdown` are coroutines driven by the serving event loop.
    """

    def __init__(
        self,
        service: "FormationService",
        replicas: int,
        inflight: int = 2,
        queue_depth: int = 64,
        settings: ReplicaSettings | None = None,
        request_timeout: float = 30.0,
        heartbeat_interval: float = 1.0,
        respawn_backoff: float = 0.5,
        respawn_max_backoff: float = 30.0,
        respawn_budget: int = 5,
        respawn_min_uptime: float = 5.0,
        backoff_seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.service = service
        self.replicas = require_positive_int(replicas, "replicas")
        self.inflight = require_positive_int(inflight, "inflight")
        if queue_depth < 0:
            raise ReplicaPoolError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        self.queue_depth = int(queue_depth)
        if request_timeout <= 0 or heartbeat_interval <= 0:
            raise ReplicaPoolError(
                "request_timeout and heartbeat_interval must be positive"
            )
        self.request_timeout = float(request_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        if respawn_backoff <= 0 or respawn_max_backoff < respawn_backoff:
            raise ReplicaPoolError(
                "respawn_backoff must be positive and <= respawn_max_backoff"
            )
        if respawn_min_uptime < 0:
            raise ReplicaPoolError(
                f"respawn_min_uptime must be >= 0, got {respawn_min_uptime}"
            )
        self.respawn_backoff = float(respawn_backoff)
        self.respawn_max_backoff = float(respawn_max_backoff)
        self.respawn_budget = require_positive_int(
            respawn_budget, "respawn_budget"
        )
        self.respawn_min_uptime = float(respawn_min_uptime)
        self.backoff_seed = int(backoff_seed)
        self.settings = settings if settings is not None else self._derive_settings()
        self._context = self._pick_context()
        self._slots: list[_ReplicaHandle] = []
        self._current: _Publication | None = None
        self._rr = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._publish_lock: asyncio.Lock | None = None
        self._supervisor: asyncio.Task | None = None
        self._respawning: set[int] = set()
        self._respawn_state = {
            i: _RespawnState(rng=random.Random(f"{self.backoff_seed}:{i}"))
            for i in range(self.replicas)
        }
        self._closing = False
        self._started = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._own_slab: MetricsSlab | None = None
        self.counters = {
            "dispatched": 0,
            "retries": 0,
            "respawns": 0,
            "respawn_failures": 0,
            "rejected_overloaded": 0,
            "rejected_shutdown": 0,
            "published_versions": 0,
        }
        self._counter_keys = {
            "dispatched": K_POOL_DISPATCHED,
            "retries": K_POOL_RETRIES,
            "respawns": K_POOL_RESPAWNS,
            "respawn_failures": K_POOL_RESPAWN_FAILURES,
            "rejected_overloaded": K_POOL_REJECTED["overloaded"],
            "rejected_shutdown": K_POOL_REJECTED["shutdown"],
            "published_versions": K_POOL_PUBLISHED,
        }

    def _count(self, name: str, value: int = 1) -> None:
        """Bump one pool counter in both the stats dict and the registry.

        Parameters
        ----------
        name:
            Key into :attr:`counters` (and its registry mirror).
        value:
            Increment amount (default 1).
        """
        self.counters[name] += value
        self.metrics.inc(self._counter_keys[name], value)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _derive_settings(self) -> ReplicaSettings:
        """Replica settings mirroring the writer service's configuration."""
        from repro.core.kernels import get_kernel_threads

        stats = self.service.stats()
        return ReplicaSettings(
            k_max=int(stats["k_max"]),
            shards=int(stats["shards"]),
            backend=str(stats["backend"]),
            kernel_threads=get_kernel_threads(),
        )

    @staticmethod
    def _pick_context():
        """The multiprocessing context replica workers are started with.

        ``fork`` is cheapest and is safe while the host is single-threaded
        (the pool starts before the asyncio server spawns executor
        threads); a host that already runs threads gets ``spawn`` workers
        instead, which never inherit locks mid-acquire.
        """
        import multiprocessing as mp

        if ("fork" in mp.get_all_start_methods()
                and threading.active_count() == 1):
            return mp.get_context("fork")
        return mp.get_context("spawn")

    def _export_publication(self) -> _Publication:
        """Export the writer's current store + tables as a new publication."""
        from repro.execution.shm import SharedExports

        index = self.service.index
        exports = SharedExports()
        try:
            store_spec = exports.export_store(self.service.store)
            tables_spec = exports.export_tables(
                index.items, index.values, index.n_items
            )
        except Exception:
            exports.close()
            raise
        return _Publication(
            version=index.version,
            store_spec=store_spec,
            tables_spec=tables_spec,
            removed=tuple(sorted(int(u) for u in index.removed)),
            staleness=index.staleness,
            exports=exports,
        )

    def _spawn(self, index: int) -> _ReplicaHandle:
        """Start one worker process and return its parent-side handle.

        The ``pool.spawn`` failpoint fires parent-side (not in the child):
        an injected ``OSError`` here models a spawn that never comes up,
        and parent-side hit counting keeps ``first:N``-style schedules
        meaningful across forked children (each of which would otherwise
        start its own count at zero).
        """
        fault_fire("pool.spawn")
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_replica_main,
            args=(child_conn, self.settings, self.metrics.slab_spec, 1 + index),
            name=f"repro-replica-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _ReplicaHandle(index, process, parent_conn)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn every replica and attach it to the current service state.

        Blocking (fast at service-bootstrap time); call once, before the
        HTTP front end starts accepting.  Idempotent.
        """
        if self._started:
            return
        if self.metrics.slab_spec is None:
            # Bare pools (no config wiring) still get cross-process
            # aggregation: migrate the local registry onto a pool-owned
            # slab sized writer + replicas.
            slab = MetricsSlab(1 + self.replicas)
            self.metrics.rebind(slab, 0, own=True)
            self._own_slab = slab
        publication = self._export_publication()
        slots = []
        try:
            for index in range(self.replicas):
                slot = self._spawn(index)
                slot.adopt(publication, self.request_timeout)
                slots.append(slot)
        except Exception:
            for slot in slots:
                slot.stop()
            publication.exports.close()
            raise
        self._slots = slots
        self._current = publication
        self._started = True
        self._count("published_versions")

    @property
    def version(self) -> int:
        """The currently published index version (the routing cache token)."""
        return self._current.version if self._current is not None else -1

    def stats(self) -> dict[str, Any]:
        """Routing/supervision counters and per-replica liveness."""
        alive = sum(
            1 for s in self._slots if s.alive and s.process.is_alive()
        )
        queued = len(self._waiters)
        self.metrics.gauge_set(G_REPLICAS_ALIVE, float(alive))
        self.metrics.gauge_set(G_POOL_QUEUED, float(queued))
        return {
            "replicas": self.replicas,
            "alive": alive,
            "inflight": sum(s.inflight for s in self._slots),
            "queued": queued,
            "inflight_cap": self.inflight,
            "queue_depth": self.queue_depth,
            "published_version": self.version,
            "breakers_open": sum(
                1 for state in self._respawn_state.values() if state.breaker
            ),
            **self.counters,
        }

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Stop routing, drain in-flight work, stop workers, release exports.

        Queued-but-undispatched requests are rejected with
        :class:`PoolShuttingDown` (the HTTP layer answers them with a
        structured ``503 shutting_down`` instead of dropping the
        connection); dispatched requests get up to ``drain_timeout``
        seconds to finish.  Idempotent.

        Parameters
        ----------
        drain_timeout:
            Seconds to wait for dispatched requests before stopping the
            workers regardless.
        """
        if self._closing:
            return
        self._closing = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                self._count("rejected_shutdown")
                waiter.set_exception(
                    PoolShuttingDown("service is shutting down")
                )
        deadline = time.monotonic() + drain_timeout
        while any(s.inflight for s in self._slots):
            if time.monotonic() > deadline:  # pragma: no cover - wedged
                break
            await asyncio.sleep(0.02)
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(None, slot.stop) for slot in self._slots)
        )
        self._slots = []
        if self._current is not None:
            self._current.exports.close()
            self._current = None
        if self._own_slab is not None:
            # Migrate the aggregate back into a process-local registry so
            # post-shutdown stats still read, then release the segment.
            self.metrics.close()
            self._own_slab = None

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _ensure_async_state(self) -> None:
        """Create loop-bound state and the supervisor task lazily."""
        if self._publish_lock is None:
            self._publish_lock = asyncio.Lock()
        if self._supervisor is None or self._supervisor.done():
            self._supervisor = asyncio.ensure_future(self._supervise())

    def _pick_slot(self) -> _ReplicaHandle | None:
        """Next live replica below its in-flight cap, round-robin."""
        n = len(self._slots)
        for offset in range(n):
            slot = self._slots[(self._rr + offset) % n]
            if slot.alive and slot.inflight < self.inflight:
                self._rr = (self._rr + offset + 1) % n
                return slot
        return None

    async def _acquire(self) -> _ReplicaHandle:
        """Reserve one replica slot, queueing (bounded) when all are busy."""
        if self._closing:
            self._count("rejected_shutdown")
            raise PoolShuttingDown("service is shutting down")
        slot = self._pick_slot()
        if slot is not None:
            slot.inflight += 1
            return slot
        if self._slots and not any(
            s.alive and s.process.is_alive() for s in self._slots
        ) and all(
            self._respawn_state[s.index].breaker for s in self._slots
        ):
            # Nothing is alive and nothing will respawn before the breaker
            # cooldown — fail fast instead of queueing into a dead pool.
            raise ReplicaPoolError(
                "no live replicas and every respawn circuit breaker is open"
            )
        if len(self._waiters) >= self.queue_depth:
            self._count("rejected_overloaded")
            raise PoolOverloaded(
                f"all {len(self._slots)} replicas at in-flight cap "
                f"{self.inflight} and the queue ({self.queue_depth}) is full"
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        return await waiter

    def _release(self, slot: _ReplicaHandle) -> None:
        """Return a reserved slot and hand free capacity to queued waiters."""
        slot.inflight = max(0, slot.inflight - 1)
        self._dispatch_waiters()

    def _dispatch_waiters(self) -> None:
        """Assign free replica capacity to queued requests, FIFO."""
        while self._waiters:
            slot = self._pick_slot()
            if slot is None:
                return
            waiter = self._waiters.popleft()
            if waiter.done():  # cancelled by a disconnected client
                continue
            slot.inflight += 1
            waiter.set_result(slot)

    async def recommend(self, **params: Any) -> dict[str, Any]:
        """Answer one recommend request on some live replica.

        Crashed replicas are transparent: the request is retried on a
        surviving replica (up to one attempt per configured replica plus
        one) while the supervisor respawns the dead worker.

        Parameters
        ----------
        **params:
            Keyword arguments for
            :meth:`~repro.service.FormationService.recommend`
            (``k``, ``max_groups``, ``semantics``, ``aggregation``,
            ``user_ids``).

        Returns
        -------
        dict
            ``result.as_dict()`` plus the serving-bookkeeping keys
            ``replica`` and ``pool_version``.
        """
        self._ensure_async_state()
        loop = asyncio.get_running_loop()
        attempts = self.replicas + 1
        last_crash: ReplicaCrashed | None = None
        active = trace.active()
        want_trace = active is not None
        queue_handle = trace.push("pool.queue_wait")
        wait_start = time.perf_counter()
        try:
            slot = await self._acquire()
        finally:
            waited = time.perf_counter() - wait_start
            if queue_handle is not None:
                trace.pop(queue_handle, waited)
        self.metrics.observe(H_QUEUE_WAIT, waited)
        for attempt in range(attempts):
            if attempt:
                slot = await self._acquire()
            call_handle = trace.push("pool.replica_call")
            call_start = time.perf_counter()
            try:
                payload, spans = await loop.run_in_executor(
                    None, slot.recommend, params, self.request_timeout,
                    want_trace,
                )
            except ReplicaCrashed as exc:
                if call_handle is not None:
                    trace.pop(call_handle, time.perf_counter() - call_start)
                last_crash = exc
                self._count("retries")
                self._mark_dead(slot)
                continue
            finally:
                self._release(slot)
            elapsed = time.perf_counter() - call_start
            if call_handle is not None:
                trace.pop(call_handle, elapsed)
            self.metrics.observe(H_REPLICA_CALL, elapsed)
            if want_trace and spans:
                base_ms = (call_start - active.t0) * 1000.0
                trace.graft(spans, base_ms=base_ms, prefix="replica/")
            self._count("dispatched")
            payload["replica"] = slot.index
            payload["pool_version"] = self.version
            return payload
        raise ReplicaCrashed(
            f"no replica answered after {attempts} attempts: {last_crash}"
        )

    # ------------------------------------------------------------------ #
    # Versioned swap
    # ------------------------------------------------------------------ #

    async def publish(self) -> bool:
        """Publish the writer's current version to every replica.

        Exports the store + index tables under fresh shared-memory
        segments, adopts them on each live replica through its serialized
        control channel (so a swap never interleaves with a request), flips
        the current-publication pointer, and closes the previous export
        once every live replica has moved off it.  A no-op when the
        current publication already matches the writer's version.

        Returns
        -------
        bool
            ``True`` when a new version was published.
        """
        self._ensure_async_state()
        loop = asyncio.get_running_loop()
        async with self._publish_lock:
            if (self._current is not None
                    and self._current.version == self.service.version):
                return False
            fault_fire("pool.publish")
            publication = await loop.run_in_executor(
                None, self._export_publication
            )
            for slot in list(self._slots):
                if not slot.alive:
                    continue
                try:
                    await loop.run_in_executor(
                        None, slot.adopt, publication, self.request_timeout
                    )
                except ReplicaCrashed:
                    self._mark_dead(slot)
            retired, self._current = self._current, publication
            self.counters["published_versions"] += 1
            if retired is not None:
                # Every live replica now holds the new attachment (adopt is
                # serialized with requests), and dead replicas' mappings
                # died with their process — the old segments are drained.
                retired.exports.close()
            return True

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #

    def _mark_dead(self, slot: _ReplicaHandle) -> None:
        """Take a crashed replica out of rotation and plan its respawn.

        Respawning is governed by the slot's :class:`_RespawnState`: the
        first death after a healthy run respawns immediately, repeated
        young deaths back off exponentially with seeded jitter, and once
        ``respawn_budget`` consecutive failures accumulate the breaker
        opens — no more attempts until a ``respawn_max_backoff`` cooldown
        passes, after which the supervisor half-opens it for one trial.
        A poisoned publication therefore costs a bounded number of spawns,
        not a hot crash-loop.
        """
        if not slot.alive:
            return
        slot.alive = False
        try:
            slot.process.kill()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        if self._closing:
            return
        state = self._respawn_state[slot.index]
        uptime = time.monotonic() - slot.spawned_at
        if uptime >= self.respawn_min_uptime:
            state.failures = 1
        else:
            state.failures += 1
        self._plan_respawn(slot.index, state)

    def _backoff_delay(self, state: _RespawnState) -> float:
        """Backoff before the next attempt: exponential with seeded jitter."""
        if state.failures <= 1:
            return 0.0
        delay = min(
            self.respawn_max_backoff,
            self.respawn_backoff * 2.0 ** (state.failures - 2),
        )
        return delay * (1.0 + state.rng.random() * 0.25)

    def _plan_respawn(self, index: int, state: _RespawnState) -> None:
        """Open the breaker or schedule the next respawn attempt for ``index``."""
        now = time.monotonic()
        if state.failures >= self.respawn_budget:
            state.breaker = True
            state.next_attempt = now + self.respawn_max_backoff
            return
        delay = self._backoff_delay(state)
        state.next_attempt = now + delay
        if index not in self._respawning:
            self._schedule_respawn(index, delay)

    def _schedule_respawn(self, index: int, delay: float) -> None:
        """Launch the respawn task for ``index`` after ``delay`` seconds."""
        self._respawning.add(index)
        self.metrics.observe(H_RESPAWN_BACKOFF, delay)
        asyncio.ensure_future(self._respawn_after(index, delay))

    async def _respawn_after(self, index: int, delay: float) -> None:
        """Sleep out the backoff, then run the respawn attempt."""
        try:
            if delay > 0:
                await asyncio.sleep(delay)
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            self._respawning.discard(index)
            raise
        await self._respawn(index)

    async def _respawn(self, index: int) -> None:
        """Replace the dead replica at ``index`` with a fresh worker.

        A failed bring-up (spawn fault, crash during adopt) counts against
        the slot's respawn budget and pushes ``next_attempt`` out per the
        backoff policy; the supervisor retries once it passes.

        Parameters
        ----------
        index:
            Slot index of the replica being replaced.
        """
        loop = asyncio.get_running_loop()
        try:
            async with self._publish_lock:
                if self._closing or self._current is None:
                    return
                publication = self._current

                def bring_up() -> _ReplicaHandle:
                    slot = self._spawn(index)
                    try:
                        slot.adopt(publication, self.request_timeout)
                    except BaseException:
                        slot.stop()
                        raise
                    return slot

                try:
                    replacement = await loop.run_in_executor(None, bring_up)
                except (ReplicaCrashed, OSError):
                    state = self._respawn_state[index]
                    state.failures += 1
                    self._count("respawn_failures")
                    now = time.monotonic()
                    if state.failures >= self.respawn_budget:
                        state.breaker = True
                        state.next_attempt = now + self.respawn_max_backoff
                    else:
                        delay = self._backoff_delay(state)
                        self.metrics.observe(H_RESPAWN_BACKOFF, delay)
                        state.next_attempt = now + delay
                    return  # the supervisor retries once next_attempt passes
                old = self._slots[index]
                self._slots[index] = replacement
                self._count("respawns")
                await loop.run_in_executor(None, old.stop)
            self._dispatch_waiters()
        finally:
            self._respawning.discard(index)

    async def _supervise(self) -> None:
        """Heartbeat loop: detect silent crashes, respawn missing workers."""
        loop = asyncio.get_running_loop()
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            for slot in list(self._slots):
                state = self._respawn_state[slot.index]
                if not slot.alive:
                    if (slot.index not in self._respawning
                            and self._slots[slot.index] is slot
                            and time.monotonic() >= state.next_attempt):
                        # Backoff (or breaker cooldown) elapsed: attempt a
                        # respawn now; an open breaker half-opens for
                        # exactly this one trial.
                        self._schedule_respawn(slot.index, 0.0)
                    continue
                if not slot.process.is_alive():
                    self._mark_dead(slot)
                    continue
                if (state.failures or state.breaker) and (
                        time.monotonic() - slot.spawned_at
                        >= self.respawn_min_uptime):
                    # Survived the probation window: healthy again.
                    state.failures = 0
                    state.breaker = False
                idle_for = time.monotonic() - slot.last_reply
                if slot.inflight == 0 and idle_for >= self.heartbeat_interval:
                    try:
                        ok = await loop.run_in_executor(
                            None, slot.ping, self.heartbeat_interval * 5
                        )
                    except ReplicaCrashed:
                        ok = False
                    if not ok:
                        self._mark_dead(slot)
