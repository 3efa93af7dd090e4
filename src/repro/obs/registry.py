"""Cross-process metrics registry backed by a preallocated shared-memory slab.

The serving stack runs as several cooperating processes (the writer and N
read-only replicas).  A traditional pull model — every scrape asking every
process for its counters — would put IPC on the read path and lose counts
whenever a replica is killed.  This module instead borrows the
``SharedExports`` idiom (:mod:`repro.execution.shm`): the stack
preallocates **one** float64 slab of shape ``(n_slots, n_cells)`` in
``multiprocessing.shared_memory``, every process is assigned a private
*slot* (row) it alone mutates, and reading is a plain ``sum`` over the slot
axis with zero IPC.

Key properties:

* **lock-cheap writes** — a mutation is one process-local
  ``threading.Lock`` acquire plus one aligned float64 add; there are no
  cross-process locks anywhere (each row has exactly one writing process);
* **crash-safe counters** — rows live in the slab, not the process, and a
  respawned replica re-attaches the *same* slot, so counts survive
  ``kill -9`` without loss and respawn without double-counting;
* **fixed layout** — the metric catalogue is compiled into a
  :class:`MetricsSchema` mapping every sample (name + fixed label set) to a
  cell offset, so slots are byte-compatible across processes and a schema
  fingerprint guards against attaching mismatched layouts.

Counters and gauges occupy one cell; histograms occupy
``len(LATENCY_BUCKETS) + 2`` cells (one count per finite ``le`` bucket, one
overflow count, one running sum of observed values).  Quantile readout
(:func:`bucket_quantile`) returns the upper bound of the bucket containing
the requested rank — exact to one bucket width by construction.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LATENCY_BUCKETS",
    "MetricSpec",
    "MetricsSchema",
    "MetricsSlab",
    "SlabSpec",
    "MetricsRegistry",
    "default_schema",
    "sample_key",
    "bucket_index",
    "bucket_quantile",
    "set_enabled",
    "enabled",
]

# Upper bounds (seconds) of the finite latency buckets, log-spaced so one
# bucket is ~2.5x the previous: 100us resolution at the bottom, 10s at the
# top.  All histograms share this layout — that is what makes the slab a
# fixed-size rectangle and lets bench_load compare client and server
# percentiles by bucket index.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# Cells per histogram: finite buckets + overflow count + sum of values.
_HIST_CELLS = len(LATENCY_BUCKETS) + 2
_OVERFLOW = len(LATENCY_BUCKETS)
_SUM = len(LATENCY_BUCKETS) + 1

# Process-wide instrumentation switch.  ``False`` turns every registry
# mutation in this process into an early return; used by ``--no-obs`` and
# by the ``check_regression --obs-overhead`` gate.
_ENABLED = True


def set_enabled(flag: bool) -> None:
    """Enable or disable all metric recording in this process.

    Parameters
    ----------
    flag:
        ``True`` to record metrics (the default), ``False`` to turn every
        ``inc``/``observe``/``gauge_set`` into a cheap no-op.
    """
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    """Return whether metric recording is currently enabled in this process."""
    return _ENABLED


def sample_key(name: str, **labels: str) -> str:
    """Return the canonical sample key for ``name`` with fixed ``labels``.

    Parameters
    ----------
    name:
        Metric family name, e.g. ``"repro_http_requests_total"``.
    **labels:
        Fixed label values, e.g. ``route="recommend"``; rendered in sorted
        label-name order so keys are canonical.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class MetricSpec:
    """One sample (metric family + fixed label set) in the slab layout.

    Attributes
    ----------
    name:
        Metric family name (``repro_*``).
    kind:
        ``"counter"``, ``"gauge"`` or ``"histogram"``.
    help:
        One-line description emitted as the Prometheus ``# HELP`` text.
    labels:
        Fixed ``(label, value)`` pairs; the registry has no dynamic label
        creation — every labelled series is declared up front so the slab
        layout is static.
    """

    name: str
    kind: str
    help: str
    labels: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> str:
        """Canonical sample key (``name`` or ``name{label="value",...}``)."""
        return sample_key(self.name, **dict(self.labels))


class MetricsSchema:
    """Compiled slab layout: sample key -> cell offset.

    Parameters
    ----------
    specs:
        Ordered :class:`MetricSpec` entries; offsets are assigned in order,
        so two processes constructing the same spec list agree on the
        layout byte for byte (checked via :attr:`fingerprint`).
    """

    def __init__(self, specs: tuple[MetricSpec, ...]) -> None:
        self.specs = tuple(specs)
        offsets: dict[str, int] = {}
        kinds: dict[str, str] = {}
        cells = 0
        for spec in self.specs:
            key = spec.key
            if key in offsets:
                raise ValueError(f"duplicate metric sample: {key}")
            offsets[key] = cells
            kinds[key] = spec.kind
            cells += _HIST_CELLS if spec.kind == HISTOGRAM else 1
        self.offsets = offsets
        self.kinds = kinds
        self.cells = cells
        digest = hashlib.sha1(
            "|".join(f"{s.key}:{s.kind}" for s in self.specs).encode()
        ).hexdigest()
        self.fingerprint = digest[:16]


# ---------------------------------------------------------------------------
# Metric catalogue.  Every sample the stack records is declared here; call
# sites import the precomputed key constants below so the hot path does no
# string formatting.
# ---------------------------------------------------------------------------

HTTP_ROUTES = (
    "recommend", "events", "snapshot", "stats", "healthz", "metrics", "other",
)
HTTP_HIST_ROUTES = ("recommend", "events", "other")
RESPONSE_CLASSES = ("2xx", "4xx", "5xx")
REJECT_REASONS = ("overloaded", "shutdown")
HTTP_REJECT_REASONS = (
    "bad_request", "request_timeout", "payload_too_large", "header_too_large",
    "not_implemented",
)

K_HTTP_REQUESTS = {
    r: sample_key("repro_http_requests_total", route=r) for r in HTTP_ROUTES
}
K_HTTP_RESPONSES = {
    c: sample_key("repro_http_responses_total", **{"class": c})
    for c in RESPONSE_CLASSES
}
K_HTTP_REJECTED = {
    r: sample_key("repro_http_rejected_total", reason=r)
    for r in HTTP_REJECT_REASONS
}
K_COALESCED = "repro_coalesced_recommends_total"
K_BATCHED_UPDATES = "repro_batched_update_requests_total"
K_TRACES_DUMPED = "repro_traces_dumped_total"

K_REQUESTS = "repro_service_requests_total"
K_RESULT_HITS = "repro_service_result_cache_hits_total"
# Retired with the service's shard-summary cache: declared (the benchmark
# still reads them) but never incremented, so they always read 0.
K_SHARDS_RECYCLED = "repro_service_shards_recycled_total"
K_SHARDS_RECOMPUTED = "repro_service_shards_recomputed_total"
K_UPDATE_BATCHES = "repro_service_update_batches_total"
K_UPDATES_APPLIED = "repro_service_updates_applied_total"

K_INGEST_BATCHES = "repro_ingest_batches_total"
K_EVENTS_INGESTED = "repro_ingest_events_total"
K_WAL_APPENDS = "repro_wal_appends_total"
K_WAL_FSYNCS = "repro_wal_fsyncs_total"
K_SNAPSHOTS = "repro_snapshots_total"

K_POOL_DISPATCHED = "repro_pool_dispatched_total"
K_POOL_RETRIES = "repro_pool_retries_total"
K_POOL_RESPAWNS = "repro_pool_respawns_total"
K_POOL_PUBLISHED = "repro_pool_published_versions_total"
K_POOL_REJECTED = {
    r: sample_key("repro_pool_rejected_total", reason=r) for r in REJECT_REASONS
}
K_REPLICA_SERVED = "repro_replica_requests_total"

K_KERNEL_TOPK_CALLS = "repro_kernel_topk_calls_total"
K_KERNEL_BUCKETIZE_CALLS = "repro_kernel_bucketize_calls_total"

DEGRADED_DIRECTIONS = ("enter", "exit")
K_FAULTS_INJECTED = "repro_faults_injected_total"
K_DEGRADED_TRANSITIONS = {
    d: sample_key("repro_degraded_transitions_total", direction=d)
    for d in DEGRADED_DIRECTIONS
}
K_POOL_RESPAWN_FAILURES = "repro_pool_respawn_failures_total"

G_INDEX_VERSION = "repro_index_version"
G_REPLICAS_ALIVE = "repro_replicas_alive"
G_POOL_QUEUED = "repro_pool_queued_requests"
G_WAL_BACKLOG = "repro_wal_backlog_records"
G_LAST_SNAPSHOT_TS = "repro_last_snapshot_timestamp_seconds"
G_LAST_FSYNC = "repro_wal_last_fsync_seconds"
G_SERVICE_STATE = "repro_service_state"

H_HTTP = {
    r: sample_key("repro_http_request_seconds", route=r) for r in HTTP_HIST_ROUTES
}
H_RECOMMEND = "repro_recommend_seconds"
H_QUEUE_WAIT = "repro_pool_queue_wait_seconds"
H_REPLICA_CALL = "repro_pool_replica_call_seconds"
H_KERNEL_TOPK = "repro_kernel_topk_seconds"
H_KERNEL_BUCKETIZE = "repro_kernel_bucketize_seconds"
H_KERNEL_SCORE = "repro_kernel_score_seconds"
H_WAL_APPEND = "repro_wal_append_seconds"
H_WAL_FSYNC = "repro_wal_fsync_seconds"
H_SNAPSHOT = "repro_snapshot_seconds"
H_INGEST_APPLY = "repro_ingest_apply_seconds"
H_STORE_WRITE = "repro_store_write_seconds"
H_RESPAWN_BACKOFF = "repro_pool_respawn_backoff_seconds"


def _catalogue() -> tuple[MetricSpec, ...]:
    specs: list[MetricSpec] = []

    def counter(name: str, help_: str, **labels: str) -> None:
        specs.append(MetricSpec(name, COUNTER, help_, tuple(sorted(labels.items()))))

    def gauge(name: str, help_: str) -> None:
        specs.append(MetricSpec(name, GAUGE, help_))

    def histogram(name: str, help_: str, **labels: str) -> None:
        specs.append(MetricSpec(name, HISTOGRAM, help_, tuple(sorted(labels.items()))))

    for r in HTTP_ROUTES:
        counter("repro_http_requests_total", "HTTP requests by route.", route=r)
    for c in RESPONSE_CLASSES:
        counter("repro_http_responses_total", "HTTP responses by status class.",
                **{"class": c})
    for r in HTTP_REJECT_REASONS:
        counter("repro_http_rejected_total",
                "HTTP requests rejected before routing, by error code.", reason=r)
    counter(K_COALESCED, "Recommend requests answered by piggy-backing on an "
            "identical in-flight computation.")
    counter(K_BATCHED_UPDATES, "Update requests folded into a batch window.")
    counter(K_TRACES_DUMPED, "Slow-request traces dumped to the log.")

    counter(K_REQUESTS, "Recommend calls handled by a FormationService.")
    counter(K_RESULT_HITS, "Recommend calls served from the memoised result cache.")
    counter(K_SHARDS_RECYCLED, "Retired: always 0 (no shard-summary cache).")
    counter(K_SHARDS_RECOMPUTED, "Retired: always 0 (no shard-summary cache).")
    counter(K_UPDATE_BATCHES, "Update batches applied to the index.")
    counter(K_UPDATES_APPLIED, "Individual rating upserts/deletes applied.")

    counter(K_INGEST_BATCHES, "Event batches folded by the ingest pipeline.")
    counter(K_EVENTS_INGESTED, "Individual feedback events ingested.")
    counter(K_WAL_APPENDS, "Records appended to the write-ahead log.")
    counter(K_WAL_FSYNCS, "fsync group commits issued by the write-ahead log.")
    counter(K_SNAPSHOTS, "Store+index snapshots written.")

    counter(K_POOL_DISPATCHED, "Recommend requests dispatched to a replica.")
    counter(K_POOL_RETRIES, "Requests retried on a surviving replica after a crash.")
    counter(K_POOL_RESPAWNS, "Replica processes respawned by the supervisor.")
    counter(K_POOL_PUBLISHED, "Index versions published to the replica pool.")
    for r in REJECT_REASONS:
        counter("repro_pool_rejected_total", "Requests rejected by the pool.",
                reason=r)
    counter(K_REPLICA_SERVED, "Recommend requests fully served by a replica "
            "process (incremented just before the reply is sent).")

    counter(K_KERNEL_TOPK_CALLS, "top_k_table kernel invocations.")
    counter(K_KERNEL_BUCKETIZE_CALLS, "bucketize kernel invocations.")

    counter(K_FAULTS_INJECTED, "Faults injected by the failpoint plane.")
    for d in DEGRADED_DIRECTIONS:
        counter("repro_degraded_transitions_total",
                "Degraded read-only mode transitions by direction.",
                direction=d)
    counter(K_POOL_RESPAWN_FAILURES,
            "Replica respawn attempts that failed (backoff accounting).")

    gauge(G_INDEX_VERSION, "Current writer index version.")
    gauge(G_REPLICAS_ALIVE, "Replica processes currently alive.")
    gauge(G_POOL_QUEUED, "Requests waiting in the pool queue.")
    gauge(G_WAL_BACKLOG, "WAL records appended since the last snapshot.")
    gauge(G_LAST_SNAPSHOT_TS, "Unix timestamp of the newest snapshot.")
    gauge(G_LAST_FSYNC, "Duration of the most recent WAL fsync, in seconds.")
    gauge(G_SERVICE_STATE, "Serving state: 0 = ok, 1 = degraded read-only.")

    for r in HTTP_HIST_ROUTES:
        histogram("repro_http_request_seconds",
                  "End-to-end HTTP request latency by route group.", route=r)
    histogram(H_RECOMMEND, "FormationService recommend latency (computed "
              "requests; cache hits are excluded).")
    histogram(H_QUEUE_WAIT, "Time a routed request waited for a replica slot.")
    histogram(H_REPLICA_CALL, "Round-trip time of one replica recommend call.")
    histogram(H_KERNEL_TOPK, "top_k_table kernel latency.")
    histogram(H_KERNEL_BUCKETIZE, "bucketize kernel latency.")
    histogram(H_KERNEL_SCORE, "Column-reduce kernel latency (left-over "
              "group scoring on a sparse or dense store).")
    histogram(H_WAL_APPEND, "WAL append latency (excluding group-commit fsync).")
    histogram(H_WAL_FSYNC, "WAL fsync latency.")
    histogram(H_SNAPSHOT, "Snapshot write latency.")
    histogram(H_INGEST_APPLY, "Ingest batch fold+apply latency.")
    histogram(H_STORE_WRITE, "Rating-store write latency (one upsert or "
              "delete call of an index batch).")
    histogram(H_RESPAWN_BACKOFF,
              "Backoff delay scheduled before a replica respawn attempt.")
    return tuple(specs)


_DEFAULT_SCHEMA: MetricsSchema | None = None
_DEFAULT_LOCK = threading.Lock()


def default_schema() -> MetricsSchema:
    """Return the process-wide compiled default metric catalogue."""
    global _DEFAULT_SCHEMA
    if _DEFAULT_SCHEMA is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_SCHEMA is None:
                _DEFAULT_SCHEMA = MetricsSchema(_catalogue())
    return _DEFAULT_SCHEMA


# ---------------------------------------------------------------------------
# Shared slab + registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlabSpec:
    """Picklable handle to a shared metrics slab (mirrors ``ArraySpec``).

    Attributes
    ----------
    segment:
        Name of the ``multiprocessing.shared_memory`` segment.
    slots:
        Number of rows (one per writing process).
    cells:
        Cells per row; must match the attaching process's schema.
    fingerprint:
        Schema fingerprint; attach refuses a mismatched layout.
    """

    segment: str
    slots: int
    cells: int
    fingerprint: str


class MetricsSlab:
    """Owner of a preallocated ``(slots, cells)`` shared-memory metrics slab.

    Parameters
    ----------
    slots:
        Number of rows to preallocate — one per process that will record
        metrics (writer + replicas).
    schema:
        Slab layout; defaults to :func:`default_schema`.

    The creating process owns the segment: :meth:`close` unlinks it.
    Unlinking while other processes are attached is safe on POSIX — pages
    live until the last handle closes (same contract as ``SharedExports``).
    """

    def __init__(self, slots: int = 1, schema: MetricsSchema | None = None) -> None:
        from multiprocessing import shared_memory

        self.schema = schema or default_schema()
        self.slots = int(slots)
        if self.slots < 1:
            raise ValueError("a metrics slab needs at least one slot")
        nbytes = self.slots * self.schema.cells * 8
        self._segment = shared_memory.SharedMemory(create=True, size=nbytes)
        self.array: np.ndarray | None = np.ndarray(
            (self.slots, self.schema.cells), dtype=np.float64,
            buffer=self._segment.buf,
        )
        self.array[:] = 0.0
        self.closed = False

    def spec(self) -> SlabSpec:
        """Return the picklable :class:`SlabSpec` other processes attach with."""
        return SlabSpec(self._segment.name, self.slots, self.schema.cells,
                        self.schema.fingerprint)

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.array = None
        try:
            self._segment.close()
        except BufferError:  # a registry still holds a row view; pages stay
            pass             # mapped until it is garbage-collected
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass


def _attach_slab_array(spec: SlabSpec) -> np.ndarray:
    """Attach the slab named by ``spec`` and return the ``(slots, cells)`` view.

    Parameters
    ----------
    spec:
        The :class:`SlabSpec` shipped from the owning process.
    """
    schema = default_schema()
    if spec.fingerprint != schema.fingerprint or spec.cells != schema.cells:
        raise ValueError(
            "metrics slab layout mismatch: "
            f"{spec.fingerprint}/{spec.cells} cells vs local "
            f"{schema.fingerprint}/{schema.cells}"
        )
    from repro.execution.shm import ArraySpec, attach_array

    return attach_array(ArraySpec(spec.segment, (spec.slots, spec.cells), "float64"))


class MetricsRegistry:
    """Counters, gauges and fixed-bucket latency histograms for one process.

    A registry always has a backing ``(slots, cells)`` float64 array and a
    *slot* — the single row this process mutates.  Standalone components
    get a private local 1-row array (zero setup cost, fully isolated);
    the serving stack binds every process to one row of a shared
    :class:`MetricsSlab` so :meth:`aggregate` sums the whole stack without
    IPC.

    Parameters
    ----------
    schema:
        Slab layout; defaults to :func:`default_schema`.
    data:
        Backing array; a fresh local ``(1, cells)`` array when omitted.
    slot:
        Row of ``data`` this registry writes to.
    slab:
        A :class:`MetricsSlab` this registry owns (closed by :meth:`close`).

    All mutation is guarded by one process-local ``threading.Lock``; reads
    (:meth:`aggregate`, :meth:`snapshot`) take no lock at all — float64
    loads are atomic and counters are monotonic, so a concurrent read is
    simply a slightly-stale consistent view.
    """

    def __init__(
        self,
        schema: MetricsSchema | None = None,
        *,
        data: np.ndarray | None = None,
        slot: int = 0,
        slab: MetricsSlab | None = None,
    ) -> None:
        self.schema = schema or default_schema()
        self._slab = slab
        if data is None:
            if slab is not None:
                data = slab.array
            else:
                data = np.zeros((1, self.schema.cells), dtype=np.float64)
        self._data = data
        self._slot = int(slot)
        self._row = data[self._slot]
        self._lock = threading.Lock()
        self.slab_spec: SlabSpec | None = slab.spec() if slab is not None else None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def create_shared(cls, slots: int, schema: MetricsSchema | None = None
                      ) -> "MetricsRegistry":
        """Create a registry owning a fresh shared slab, bound to slot 0.

        Parameters
        ----------
        slots:
            Rows to preallocate (writer + replicas).
        schema:
            Slab layout; defaults to :func:`default_schema`.
        """
        slab = MetricsSlab(slots, schema)
        return cls(slab.schema, slab=slab, slot=0)

    @classmethod
    def attach(cls, spec: SlabSpec, slot: int) -> "MetricsRegistry":
        """Attach to an existing slab from a worker process.

        Parameters
        ----------
        spec:
            The :class:`SlabSpec` shipped from the owner.
        slot:
            This process's assigned row.  Re-attaching a previously used
            slot (replica respawn) deliberately does **not** reset the row,
            which is what makes counters survive ``kill -9`` without loss.
        """
        data = _attach_slab_array(spec)
        registry = cls(default_schema(), data=data, slot=slot)
        registry.slab_spec = spec
        return registry

    def rebind(self, slab: MetricsSlab, slot: int, own: bool = False) -> None:
        """Migrate this registry onto ``slot`` of a shared ``slab``.

        Parameters
        ----------
        slab:
            The freshly created slab to move onto.
        slot:
            Row of the slab this registry will write from now on.
        own:
            When true the registry takes ownership of the slab and
            releases it in :meth:`close`; otherwise the caller keeps it.

        Counts recorded so far are added into the target row so nothing is
        lost when a standalone component is promoted into a shared stack.
        """
        with self._lock:
            slab.array[slot] += self._row
            self._data = slab.array
            self._slot = int(slot)
            self._row = slab.array[self._slot]
            self.slab_spec = slab.spec()
        if own:
            self._slab = slab

    def close(self) -> None:
        """Release the owned slab, if any, keeping the aggregate (idempotent).

        The cross-slot sum is folded into a fresh process-local row first,
        so counters accumulated by (now dead) workers stay readable from
        this registry after the segment is gone.
        """
        slab, self._slab = self._slab, None
        if slab is not None:
            # Drop our views first so the segment's buffer can be released.
            local = np.zeros((1, self.schema.cells), dtype=np.float64)
            with self._lock:
                local[0] = self._data.sum(axis=0)
                self._data = local
                self._row = local[0]
                self.slab_spec = None
            slab.close()

    # -- writes --------------------------------------------------------------

    def inc(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to the counter ``key`` (no-op when disabled).

        Parameters
        ----------
        key:
            Canonical sample key (one of the ``K_*`` constants).
        value:
            Amount to add; defaults to 1.
        """
        if not _ENABLED:
            return
        offset = self.schema.offsets[key]
        with self._lock:
            self._row[offset] += value

    def gauge_set(self, key: str, value: float) -> None:
        """Set the gauge ``key`` to ``value`` (single-writer per gauge).

        Parameters
        ----------
        key:
            Canonical sample key (one of the ``G_*`` constants).
        value:
            New gauge value.  Gauges are summed across slots on read, so
            each gauge must only ever be set from one process (the writer).
        """
        if not _ENABLED:
            return
        self._row[self.schema.offsets[key]] = value

    def observe(self, key: str, seconds: float, counter: str | None = None) -> None:
        """Record one latency observation into the histogram ``key``.

        Parameters
        ----------
        key:
            Canonical sample key (one of the ``H_*`` constants).
        seconds:
            Observed duration in seconds.
        counter:
            Optional counter sample key to increment by one under the same
            lock acquisition — the fused form :class:`~repro.obs.runtime.observed`
            uses to keep hot-path instrumentation to a single locked write.
        """
        if not _ENABLED:
            return
        offsets = self.schema.offsets
        base = offsets[key]
        idx = bisect_left(LATENCY_BUCKETS, seconds)
        row = self._row
        with self._lock:
            row[base + idx] += 1.0
            row[base + _SUM] += seconds
            if counter is not None:
                row[offsets[counter]] += 1.0

    # -- reads ---------------------------------------------------------------

    def aggregate(self) -> np.ndarray:
        """Return one cells-vector summed across every slot (lock-free)."""
        data = self._data
        if data.shape[0] == 1:
            return data[0].copy()
        return data.sum(axis=0)

    def value(self, key: str) -> float:
        """Return the aggregated value of the counter or gauge ``key``.

        Parameters
        ----------
        key:
            Canonical sample key of a counter or gauge.
        """
        return float(self.aggregate()[self.schema.offsets[key]])

    def slot_value(self, key: str, slot: int) -> float:
        """Return one slot's (un-aggregated) value for counter/gauge ``key``.

        Parameters
        ----------
        key:
            Canonical sample key of a counter or gauge.
        slot:
            Slab row to read.
        """
        return float(self._data[slot, self.schema.offsets[key]])

    def histogram(self, key: str) -> dict:
        """Return the aggregated histogram ``key`` as a readout dict.

        Parameters
        ----------
        key:
            Canonical sample key of a histogram.

        Returns a dict with per-bucket (non-cumulative) ``buckets``
        ``[le, count]`` pairs, the ``overflow`` count, total ``count``,
        ``sum`` of observations, and ``p50``/``p95``/``p99`` readouts.
        """
        return self._histogram_from(self.aggregate(), key)

    def _histogram_from(self, cells: np.ndarray, key: str) -> dict:
        base = self.schema.offsets[key]
        counts = cells[base:base + _OVERFLOW + 1]
        total = int(counts.sum())
        return {
            "buckets": [
                [le, int(c)] for le, c in zip(LATENCY_BUCKETS, counts)
            ],
            "overflow": int(counts[_OVERFLOW]),
            "count": total,
            "sum": float(cells[base + _SUM]),
            "p50": bucket_quantile(counts, 0.50),
            "p95": bucket_quantile(counts, 0.95),
            "p99": bucket_quantile(counts, 0.99),
        }

    def snapshot(self) -> dict:
        """Return every metric, aggregated across slots, as plain dicts."""
        cells = self.aggregate()
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for spec in self.schema.specs:
            key = spec.key
            offset = self.schema.offsets[key]
            if spec.kind == HISTOGRAM:
                histograms[key] = self._histogram_from(cells, key)
            elif spec.kind == GAUGE:
                gauges[key] = float(cells[offset])
            else:
                counters[key] = int(cells[offset])
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def bucket_index(seconds: float) -> int:
    """Return the bucket index a latency of ``seconds`` falls into.

    Parameters
    ----------
    seconds:
        Observed duration; values above the last finite bound map to the
        overflow index ``len(LATENCY_BUCKETS)``.
    """
    return bisect_left(LATENCY_BUCKETS, seconds)


def bucket_quantile(counts, q: float) -> float | None:
    """Return the ``q``-quantile upper bound from per-bucket ``counts``.

    Parameters
    ----------
    counts:
        Sequence of per-bucket (non-cumulative) counts, finite buckets
        first, overflow last — length ``len(LATENCY_BUCKETS) + 1``.
    q:
        Quantile in ``(0, 1]``.

    Returns the upper bound of the bucket containing the requested rank
    (exact to one bucket width), or ``None`` for an empty histogram or a
    rank landing in the overflow bucket.
    """
    total = float(sum(counts))
    if total <= 0:
        return None
    rank = q * total
    cum = 0.0
    for i, count in enumerate(counts):
        cum += float(count)
        if cum >= rank:
            return LATENCY_BUCKETS[i] if i < len(LATENCY_BUCKETS) else None
    return None
