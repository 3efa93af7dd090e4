"""One validated configuration object for building the serving stack.

Historically ``repro serve``, the service tests and the benchmarks each
hand-plumbed the same dozen knobs through ``FormationService`` /
``ServiceServer`` constructors.  :class:`ServiceConfig` consolidates them:
parse once (``from_args``), validate once (``__post_init__``), and build
every component the same way (:meth:`build_store`,
:meth:`build_service`, :meth:`build_pipeline`, :meth:`build_server`).
:func:`add_formation_arguments` defines the formation flags that
``repro serve`` and ``repro-experiments`` share, so both parse them the
same way.

``build_service`` doubles as the recovery factory: called with a
:class:`~repro.ingest.snapshot.SnapshotState` it reconstructs the service
around the snapshot's store and saved index tables instead of
bootstrapping a fresh instance — which is exactly the
``service_factory`` contract of
:meth:`repro.ingest.IngestPipeline.open`.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.core.engine import BACKENDS, DEFAULT_BACKEND
from repro.core.errors import IngestError
from repro.core.kernels import get_kernel_threads, set_kernel_threads
from repro.recsys.store import DEFAULT_STORE, STORES
from repro.utils.validation import require_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.pipeline import IngestPipeline
    from repro.ingest.snapshot import SnapshotState
    from repro.recsys.store import MutableRatingStore
    from repro.service.http import ServiceServer
    from repro.service.pool import ReplicaPool
    from repro.service.service import FormationService

__all__ = ["ServiceConfig", "add_formation_arguments"]


def _positive_int(text: str) -> int:
    """Parse a count flag: an integer >= 1, else an argparse error (rc 2)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def add_formation_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the formation flags both console scripts share.

    ``--backend``, ``--kernel-threads`` and ``--store`` are defined here
    once, with one help text and one positive-integer check.

    Parameters
    ----------
    parser:
        The ``repro serve`` or ``repro-experiments`` parser.
    """
    group = parser.add_argument_group("formation")
    group.add_argument(
        "--backend", default=DEFAULT_BACKEND, choices=list(BACKENDS),
        help="formation engine backend; every backend gives bit-identical "
             f"results (default: {DEFAULT_BACKEND})",
    )
    group.add_argument(
        "--kernel-threads", type=_positive_int, default=None,
        dest="kernel_threads", metavar="T",
        help="thread count for the compiled top-k kernels (default: "
             "REPRO_KERNEL_THREADS, else the CPU count); never changes results",
    )
    group.add_argument(
        "--store", default=DEFAULT_STORE, choices=list(STORES),
        help="rating storage: dense ndarray or CSR sparse store; results are "
             f"bit-identical (default: {DEFAULT_STORE})",
    )


@dataclass
class ServiceConfig:
    """Every knob of the serving stack, validated in one place.

    Attributes
    ----------
    users, items, density, store, seed:
        Synthetic bootstrap instance: size, explicit-rating density (only
        meaningful for ``store="sparse"``), storage kind and RNG seed.
    k_max, backend, kernel_threads:
        Formation-service parameters (``k_max`` is clamped to ``items``;
        ``kernel_threads=None`` resolves via ``REPRO_KERNEL_THREADS``,
        then the CPU count — a malformed variable fails validation).
    host, port, batch_window:
        HTTP front-end bind address and update-coalescing window.
    wal_dir, snapshot_every, fsync_every:
        Durability: the WAL/snapshot root directory (``None`` disables
        durability), snapshot cadence in applied batches, and the WAL
        group-commit size (1 = fsync every batch).
    replicas, replica_inflight, queue_depth, heartbeat_interval:
        Horizontal serving: number of read-only replica processes
        (``0`` disables the pool and serves reads in-process), the
        per-replica in-flight request cap, the bounded routing-queue
        depth, and the supervision heartbeat cadence in seconds.
    obs, trace_slow_ms, log_format:
        Telemetry: ``obs=False`` turns every metrics mutation into a
        no-op (the overhead-gate baseline), ``trace_slow_ms`` enables
        request tracing and dumps the span tree of any request slower
        than that many milliseconds, and ``log_format`` switches the
        request log between human ``text`` and JSON lines.
    faults, faults_seed:
        Deterministic fault injection: a failpoint schedule in the
        :func:`repro.faults.parse_schedule` grammar (``None`` — the
        default — leaves the plane disabled, a zero-cost no-op), and the
        seed behind its probabilistic triggers.
    request_timeout_ms, degraded_probe_interval:
        Graceful degradation: the optional per-request deadline (``504``
        past it) and the disk-probe cadence while in degraded read-only
        mode.
    respawn_backoff, respawn_max_backoff, respawn_budget, respawn_min_uptime:
        Replica respawn policy: base/exponential-cap backoff seconds,
        the consecutive-failure budget that opens the circuit breaker,
        and the uptime that resets the failure count.
    """

    users: int = 2000
    items: int = 300
    density: float = 0.05
    store: str = "dense"
    seed: int = 0
    k_max: int = 20
    backend: str | None = None
    kernel_threads: int | None = None
    host: str = "127.0.0.1"
    port: int = 8321
    batch_window: float = 0.01
    wal_dir: str | None = None
    snapshot_every: int = 64
    fsync_every: int = 1
    replicas: int = 0
    replica_inflight: int = 2
    queue_depth: int = 64
    heartbeat_interval: float = 1.0
    obs: bool = True
    trace_slow_ms: float | None = None
    log_format: str = "text"
    faults: str | None = None
    faults_seed: int = 0
    request_timeout_ms: float | None = None
    degraded_probe_interval: float = 1.0
    respawn_backoff: float = 0.5
    respawn_max_backoff: float = 30.0
    respawn_budget: int = 5
    respawn_min_uptime: float = 5.0

    def __post_init__(self) -> None:
        try:
            require_positive_int(self.users, "users")
            require_positive_int(self.items, "items")
            require_positive_int(self.fsync_every, "fsync_every")
        except (TypeError, ValueError) as exc:
            raise IngestError(str(exc)) from exc
        if self.store not in STORES:
            raise IngestError(
                f"store must be 'dense' or 'sparse', got {self.store!r}"
            )
        if not 0 < self.density <= 1:
            raise IngestError(f"density must be in (0, 1], got {self.density}")
        if self.kernel_threads is not None and self.kernel_threads < 1:
            raise IngestError(
                f"kernel_threads must be >= 1, got {self.kernel_threads}"
            )
        if self.kernel_threads is None:
            try:
                get_kernel_threads()
            except ValueError as exc:
                raise IngestError(str(exc)) from exc
        if self.snapshot_every < 0:
            raise IngestError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.k_max < 1:
            raise IngestError(f"k_max must be >= 1, got {self.k_max}")
        if self.batch_window < 0:
            raise IngestError(
                f"batch_window must be >= 0, got {self.batch_window}"
            )
        if self.replicas < 0:
            raise IngestError(f"replicas must be >= 0, got {self.replicas}")
        if self.replica_inflight < 1:
            raise IngestError(
                f"replica_inflight must be >= 1, got {self.replica_inflight}"
            )
        if self.queue_depth < 0:
            raise IngestError(
                f"queue_depth must be >= 0, got {self.queue_depth}"
            )
        if self.heartbeat_interval <= 0:
            raise IngestError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        from repro.obs.logs import LOG_FORMATS

        if self.log_format not in LOG_FORMATS:
            raise IngestError(
                f"log_format must be one of {LOG_FORMATS}, "
                f"got {self.log_format!r}"
            )
        if self.trace_slow_ms is not None and self.trace_slow_ms < 0:
            raise IngestError(
                f"trace_slow_ms must be >= 0, got {self.trace_slow_ms}"
            )
        if self.faults is not None:
            from repro.faults import FaultSpecError, parse_schedule

            try:
                parse_schedule(self.faults)
            except FaultSpecError as exc:
                raise IngestError(f"invalid --faults schedule: {exc}") from exc
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise IngestError(
                f"request_timeout_ms must be > 0, got {self.request_timeout_ms}"
            )
        if self.degraded_probe_interval <= 0:
            raise IngestError(
                "degraded_probe_interval must be > 0, "
                f"got {self.degraded_probe_interval}"
            )
        if self.respawn_backoff <= 0 or self.respawn_max_backoff < self.respawn_backoff:
            raise IngestError(
                "respawn_backoff must be positive and <= respawn_max_backoff"
            )
        if self.respawn_budget < 1:
            raise IngestError(
                f"respawn_budget must be >= 1, got {self.respawn_budget}"
            )
        if self.respawn_min_uptime < 0:
            raise IngestError(
                f"respawn_min_uptime must be >= 0, got {self.respawn_min_uptime}"
            )
        self._metrics = None

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ServiceConfig":
        """Build a config from parsed ``repro serve`` arguments.

        Unknown namespace attributes are ignored; missing ones fall back
        to the dataclass defaults, so the same function serves the CLI,
        tests and benchmarks.

        Parameters
        ----------
        args:
            An ``argparse.Namespace`` (or anything with the flag
            attributes).
        """
        values = {
            name: getattr(args, name)
            for name in cls.__dataclass_fields__
            if getattr(args, name, None) is not None
        }
        return cls(**values)

    def to_dict(self) -> dict[str, Any]:
        """The configuration as a plain JSON-serialisable dict."""
        return asdict(self)

    @property
    def effective_k_max(self) -> int:
        """``k_max`` clamped to the catalogue size."""
        return min(self.k_max, self.items)

    def validate_wal_dir(self) -> str | None:
        """Check the WAL directory is usable before the stack boots.

        Returns a one-line human-readable reason when :attr:`wal_dir`
        cannot host a WAL — it exists but is not a directory, cannot be
        created, or is not writable — and ``None`` when it is fine (or
        durability is disabled).  ``repro serve`` calls this up front so a
        misconfigured ``--wal-dir`` fails fast with a single error line
        instead of a recovery traceback.
        """
        if self.wal_dir is None:
            return None
        import os
        from pathlib import Path

        path = Path(self.wal_dir)
        try:
            if path.exists() and not path.is_dir():
                return f"--wal-dir {path} exists and is not a directory"
            path.mkdir(parents=True, exist_ok=True)
            probe = path / f".wal-probe-{os.getpid()}"
            with probe.open("wb") as handle:
                handle.write(b"probe")
            probe.unlink()
        except OSError as exc:
            return f"--wal-dir {path} is not writable: {exc}"
        return None

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    def build_metrics(self):
        """Build (once) the telemetry registry the whole stack shares.

        Sizes one shared-memory slab for every process this config will
        run — slot 0 for the writer and slots ``1..replicas`` for replica
        workers — and registers it as the process-global registry
        (:func:`repro.obs.runtime.get_registry`).  Without replicas the
        registry stays process-local (no segment at all).  Idempotent;
        ``obs=False`` additionally turns all metric mutations into no-ops.

        Returns
        -------
        MetricsRegistry
            The writer-slot registry to hand to every component.
        """
        from repro.obs import runtime as obs_runtime
        from repro.obs.registry import MetricsRegistry, set_enabled

        if self._metrics is not None:
            return self._metrics
        set_enabled(self.obs)
        if self.replicas:
            registry = MetricsRegistry.create_shared(1 + self.replicas)
        else:
            registry = MetricsRegistry()
        obs_runtime.set_registry(registry)
        self._metrics = registry
        return registry

    def close_metrics(self) -> None:
        """Release the telemetry slab built by :meth:`build_metrics`, if any."""
        registry, self._metrics = self._metrics, None
        if registry is not None:
            registry.close()

    def build_store(self) -> "MutableRatingStore":
        """Bootstrap the synthetic rating store this config describes."""
        if self.store == "sparse":
            from repro.datasets.synthetic import synthetic_sparse_store

            return synthetic_sparse_store(
                self.users, self.items, density=self.density, rng=self.seed
            )
        from repro.datasets import synthetic_yahoo_music
        from repro.recsys.store import DenseStore

        matrix = synthetic_yahoo_music(self.users, self.items, rng=self.seed)
        return DenseStore(matrix.values, scale=matrix.scale)

    def build_service(
        self, state: "SnapshotState | None" = None
    ) -> "FormationService":
        """Build the formation service — fresh, or from a snapshot.

        Parameters
        ----------
        state:
            ``None`` bootstraps the synthetic instance.  A
            :class:`~repro.ingest.snapshot.SnapshotState` instead adopts
            the snapshot's store and saved index tables (and restores the
            index version/tombstones), which is the
            ``service_factory`` contract of
            :meth:`repro.ingest.IngestPipeline.open`.

        Raises
        ------
        IngestError
            When the snapshot's ``k_max`` differs from this config's —
            changing ``--k-max`` over an existing WAL directory is not a
            recovery, it is a different index.
        """
        from repro.service.service import FormationService

        set_kernel_threads(self.kernel_threads)
        metrics = self.build_metrics()
        if state is None:
            return FormationService(
                self.build_store(),
                k_max=self.effective_k_max,
                backend=self.backend,
                metrics=metrics,
            )
        from repro.core.topk_index import TopKIndex

        if state.k_max != min(self.k_max, state.store.n_items):
            raise IngestError(
                f"snapshot k_max ({state.k_max}) does not match the "
                f"configured k_max ({min(self.k_max, state.store.n_items)}); "
                f"recover with the original --k-max"
            )
        service = FormationService(
            state.store,
            k_max=state.k_max,
            backend=self.backend,
            base_index=TopKIndex(
                state.index_items, state.index_values, state.store.n_items
            ),
            metrics=metrics,
        )
        service.index.adopt_state(state.version, state.removed)
        return service

    def build_pipeline(self) -> "IngestPipeline":
        """Open (or recover) the durable pipeline at :attr:`wal_dir`.

        Raises
        ------
        IngestError
            When no ``wal_dir`` is configured.
        """
        if self.wal_dir is None:
            raise IngestError("build_pipeline needs wal_dir to be set")
        from repro.ingest.pipeline import IngestPipeline

        return IngestPipeline.open(
            self.wal_dir,
            self.build_service,
            snapshot_every=self.snapshot_every,
            sync_every=self.fsync_every,
        )

    def build_pool(self, service: "FormationService") -> "ReplicaPool | None":
        """Build (without starting) the replica pool this config describes.

        Parameters
        ----------
        service:
            The writer-side formation service the pool publishes from.

        Returns
        -------
        ReplicaPool or None
            ``None`` when :attr:`replicas` is ``0`` (single-process
            serving); otherwise an unstarted
            :class:`~repro.service.pool.ReplicaPool` — call its
            ``start()`` before the HTTP front end begins accepting.
        """
        if self.replicas == 0:
            return None
        from repro.service.pool import ReplicaPool

        return ReplicaPool(
            service,
            replicas=self.replicas,
            inflight=self.replica_inflight,
            queue_depth=self.queue_depth,
            heartbeat_interval=self.heartbeat_interval,
            respawn_backoff=self.respawn_backoff,
            respawn_max_backoff=self.respawn_max_backoff,
            respawn_budget=self.respawn_budget,
            respawn_min_uptime=self.respawn_min_uptime,
            backoff_seed=self.faults_seed,
            metrics=self.build_metrics(),
        )

    def build_server(
        self,
        service: "FormationService",
        pipeline: "IngestPipeline | None" = None,
        pool: "ReplicaPool | None" = None,
    ) -> "ServiceServer":
        """Wrap ``service`` in the HTTP front end this config describes.

        Parameters
        ----------
        service:
            The formation service to serve.
        pipeline:
            Optional durable pipeline; when given, ``/v1/events`` batches
            are journaled and ``/v1/snapshot`` is enabled.
        pool:
            Optional started replica pool (see :meth:`build_pool`); when
            given, reads are routed across its replicas.
        """
        from repro.service.http import ServiceServer

        return ServiceServer(
            service,
            host=self.host,
            port=self.port,
            batch_window=self.batch_window,
            pipeline=pipeline,
            pool=pool,
            metrics=self.build_metrics(),
            trace_slow_ms=self.trace_slow_ms,
            log_format=self.log_format,
            request_timeout_ms=self.request_timeout_ms,
            degraded_probe_interval=self.degraded_probe_interval,
        )
