"""Asyncio JSON-over-HTTP front end for the formation service.

A deliberately dependency-free server (stdlib ``asyncio`` only — no
aiohttp, no web framework) speaking just enough HTTP/1.1 to serve JSON.
The **v1 surface** (see ``docs/api.md`` for the full reference):

``GET /v1/healthz``
    Liveness probe; reports the current index version and durability.
``GET /v1/stats``
    Service counters plus (when durable) the pipeline's WAL bookkeeping.
``POST /v1/recommend``
    Body ``{"k": 5, "max_groups": 8, "semantics": "lm",
    "aggregation": "min", "user_ids": null}`` → the formation result.
``POST /v1/events``
    Body ``{"events": [{"kind": "rating", "user": 0, "item": 1,
    "score": 4.5}, ...]}`` — a typed feedback batch
    (:mod:`repro.ingest.events`) → the applied batch's bookkeeping.
``POST /v1/snapshot``
    Force a checkpoint (``409 not_durable`` without a pipeline).

Errors are uniformly ``{"error": {"code": "...", "message": "..."}}``.
Any other path answers ``404 not_found``.

Two serving-layer behaviours make the thin protocol production-shaped:

* **Update batching** — concurrent event batches arriving within
  ``batch_window`` seconds are coalesced into a *single* apply (one WAL
  append, one store write, one index repair, one invalidation), with
  the event streams concatenated in arrival order and folded once, so
  cross-request last-wins ordering is preserved.  Every caller receives
  the shared batch's bookkeeping.
* **Request coalescing** — identical concurrent ``POST /v1/recommend``
  requests (same parameters, same index version) share one in-flight
  computation instead of each paying for the formation.

The blocking service calls run on the default thread-pool executor, so
the event loop keeps accepting connections while numpy works (the
kernels release the GIL).
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import logging
import re
import time
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

import numpy as np

from repro.core.errors import ReproError
from repro.faults import check as fault_check
from repro.faults import execute as fault_execute
from repro.ingest.events import (
    Event,
    FoldPolicy,
    event_from_dict,
    fold_events,
)
from repro.obs import trace
from repro.obs.expo import (
    CONTENT_TYPE_PROMETHEUS,
    render_json,
    render_prometheus,
)
from repro.obs.registry import (
    G_SERVICE_STATE,
    H_HTTP,
    K_BATCHED_UPDATES,
    K_COALESCED,
    K_DEGRADED_TRANSITIONS,
    K_HTTP_REJECTED,
    K_HTTP_REQUESTS,
    K_HTTP_RESPONSES,
    K_TRACES_DUMPED,
    MetricsRegistry,
)
from repro.service.pool import (
    PoolOverloaded,
    PoolShuttingDown,
    ReplicaPoolError,
)
from repro.service.service import FormationService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.pipeline import IngestPipeline
    from repro.service.pool import ReplicaPool

__all__ = ["ServiceServer"]

_MAX_BODY = 32 * 1024 * 1024  # 32 MiB request-body cap
_MAX_HEADERS = 100  # header lines per request; more answers 431
_MAX_HEADER_BYTES = 64 * 1024  # total header bytes per request; more answers 431
_READ_DEADLINE_S = 30.0  # seconds to receive a whole request; slower answers 408

#: A client ``X-Request-Id`` is echoed only when it is a short token of
#: visible ASCII; anything else (CR, LF, spaces, control bytes) gets a
#: fresh id instead, so the header block can never be split.
_REQUEST_ID = re.compile(r"[!-~]{1,128}")

_LOG = logging.getLogger("repro.service")
_REQUEST_LOG = logging.getLogger("repro.service.request")

#: Route label per path, for the request counters; unknown paths count
#: as ``other``.
_ROUTE_LABELS = {
    "/v1/recommend": "recommend",
    "/v1/events": "events",
    "/v1/snapshot": "snapshot",
    "/v1/stats": "stats",
    "/v1/healthz": "healthz",
    "/v1/metrics": "metrics",
}

#: Latency-histogram family per route label (the low-traffic admin routes
#: share the ``other`` family to keep the exposition small).
_ROUTE_HIST_GROUPS = {
    "recommend": "recommend",
    "events": "events",
}

#: Default error code per HTTP status (overridable per raise site).
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "request_timeout",
    409: "conflict",
    413: "payload_too_large",
    431: "header_too_large",
    500: "internal",
    501: "not_implemented",
    503: "service_unavailable",
    504: "deadline_exceeded",
}


def _json_default(obj: Any) -> Any:
    """Make numpy scalars/arrays (which leak into result extras) JSON-safe."""
    if hasattr(obj, "item") and not isinstance(obj, dict):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _error_payload(status: int, message: str, code: str | None = None) -> dict:
    """The structured ``{"error": {"code", "message"}}`` body."""
    return {
        "error": {
            "code": code or _DEFAULT_CODES.get(status, "error"),
            "message": message,
        }
    }


def _int_field(body: dict[str, Any], name: str, default: int) -> int:
    """The JSON integer ``body[name]`` (``default`` when absent).

    Floats, strings and booleans are rejected rather than truncated:
    ``2.7`` must not run as ``2``, nor ``true`` as ``1``.
    """
    value = body.get(name, default)
    if type(value) is not int:
        raise _HTTPError(400, f"{name} must be an integer", code="validation")
    return value


def _user_ids_field(value: Any) -> np.ndarray | None:
    """A ``user_ids`` body field as one ``int64`` array (``None`` stays ``None``).

    Every element must be a JSON integer that fits 64 bits; anything else
    (strings, ``null``, lists, floats, booleans) is a 400, never a
    truncation or a 500.
    """
    if value is None:
        return None
    if not isinstance(value, list):
        raise _HTTPError(400, "user_ids must be a list or null", code="validation")
    if not set(map(type, value)) <= {int}:
        raise _HTTPError(400, "user_ids must be a list of integers", code="validation")
    try:
        return np.array(value, dtype=np.int64)
    except OverflowError:
        raise _HTTPError(
            400, "user_ids must be 64-bit integers", code="validation"
        ) from None


class _HTTPError(Exception):
    """Internal: maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str, code: str | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code

    def payload(self) -> dict:
        """The structured error body for this exception."""
        return _error_payload(self.status, self.message, self.code)


class _Raw:
    """Internal: a pre-serialised response body with its own content type."""

    __slots__ = ("content_type", "data")

    def __init__(self, content_type: str, data: bytes) -> None:
        self.content_type = content_type
        self.data = data


class ServiceServer:
    """Serve a :class:`~repro.service.FormationService` over HTTP.

    Parameters
    ----------
    service:
        The formation service answering the requests.
    host, port:
        Bind address (default ``127.0.0.1:8321``; port ``0`` picks a free
        port, readable from :attr:`port` after :meth:`start`).
    batch_window:
        Seconds an update batch stays open to coalesce concurrent writers
        (default ``0.01``).
    pipeline:
        Optional :class:`~repro.ingest.IngestPipeline`: event batches are
        applied through it (journaled to the WAL before any state
        changes, snapshotted at its cadence) and ``POST /v1/snapshot``
        becomes available.  Without a pipeline the server serves the same
        API non-durably.
    fold_policy:
        Implicit-event folding policy used when no ``pipeline`` is given
        (a pipeline brings its own).
    pool:
        Optional started :class:`~repro.service.pool.ReplicaPool`: when
        given, ``/v1/recommend`` traffic is routed across its replica
        processes and every applied write batch is published to them via
        the pool's versioned index swap.  Overload and shutdown reject
        with structured ``503`` bodies (codes ``overloaded`` /
        ``shutting_down``).  Without a pool the service answers reads
        in-process, exactly as before.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` behind ``/v1/metrics``;
        defaults to the service's own registry so the single-component
        wiring stays one line.
    trace_slow_ms:
        When set, every request carries a span-recording trace and any
        request slower than this many milliseconds has its span tree
        logged as JSON (``0`` dumps every request).  ``None`` (default)
        disables tracing entirely — requests pay one ``ContextVar`` read.
    log_format:
        ``"json"`` emits one structured JSON line per request on the
        ``repro.service.request`` logger; ``"text"`` (default) logs
        nothing per request.
    request_timeout_ms:
        Optional per-request deadline: a request still unanswered after
        this many milliseconds gets a structured ``504 deadline_exceeded``
        (coalesced computations are shielded — the shared work keeps
        running for the requests still inside their deadline).  ``None``
        (default) disables deadlines.
    degraded_probe_interval:
        Seconds between disk probes while in degraded read-only mode
        (default 1.0).  After a WAL append/fsync failure flips the server
        read-only, each probe runs :meth:`IngestPipeline.heal`; the first
        success re-enables writes.

    Examples
    --------
    Programmatic startup (the ``repro serve`` CLI wraps exactly this)::

        server = ServiceServer(service, port=0)
        asyncio.run(server.run_forever())
    """

    def __init__(
        self,
        service: FormationService,
        host: str = "127.0.0.1",
        port: int = 8321,
        batch_window: float = 0.01,
        pipeline: "IngestPipeline | None" = None,
        fold_policy: FoldPolicy | None = None,
        pool: "ReplicaPool | None" = None,
        metrics: MetricsRegistry | None = None,
        trace_slow_ms: float | None = None,
        log_format: str = "text",
        request_timeout_ms: float | None = None,
        degraded_probe_interval: float = 1.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.batch_window = float(batch_window)
        self.pipeline = pipeline
        self.pool = pool
        self.metrics = metrics if metrics is not None else service.metrics
        self.trace_slow_ms = trace_slow_ms
        self.log_format = log_format
        self.fold_policy = (
            pipeline.policy if pipeline is not None
            else (fold_policy if fold_policy is not None else FoldPolicy())
        )
        if request_timeout_ms is not None and request_timeout_ms <= 0:
            raise ReproError(
                f"request_timeout_ms must be positive, got {request_timeout_ms}"
            )
        self.request_timeout_ms = (
            float(request_timeout_ms) if request_timeout_ms is not None else None
        )
        if degraded_probe_interval <= 0:
            raise ReproError(
                "degraded_probe_interval must be positive, "
                f"got {degraded_probe_interval}"
            )
        self.degraded_probe_interval = float(degraded_probe_interval)
        self._degraded: dict[str, Any] | None = None
        self._probe_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pending_updates: list[tuple[list[Event], asyncio.Future]] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._inflight: dict[tuple, asyncio.Future] = {}
        self.coalesced_recommends = 0
        self.batched_updates = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listening socket (resolves ``port=0`` to the real port)."""
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # The real port is set before the server is: a thread that waits
        # for ``_server`` (as the test harness does) then reads ``port``.
        self.port = server.sockets[0].getsockname()[1]
        self._server = server

    async def run_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and close the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def shutdown(self) -> None:
        """Graceful stop: stop accepting, flush updates, fsync, release.

        This is the SIGINT/SIGTERM path of ``repro serve``: the listener
        stops accepting new connections, the open update batch (if any) is
        applied as one final batch so acknowledged-but-batched writers get
        their bookkeeping instead of a dropped future, the replica routing
        queue is drained (in-flight reads finish; queued-but-undispatched
        reads are answered with a structured ``503 shutting_down`` instead
        of a dropped connection), the WAL is fsynced (a clean shutdown
        must never require replay), and only then is the socket awaited
        closed.  The flush and the pool drain must come *before*
        ``wait_closed()``: on Python >= 3.12 ``wait_closed`` waits for
        in-flight connection handlers, and those handlers are themselves
        awaiting the batch futures the flush resolves and the replica
        replies the drain settles — waiting first would deadlock.
        Idempotent.
        """
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if self._pending_updates:
            await self._flush_updates()
        if self.pool is not None:
            # Settles every routed read: dispatched requests drain,
            # queued ones are rejected with PoolShuttingDown, which the
            # recommend handler answers as a 503 shutting_down body.
            await self.pool.shutdown()
        if self.pipeline is not None:
            # Group-committed appends may still be buffered; make the
            # clean-shutdown state durable before the listener is gone.
            # A disk still failing (degraded shutdown) must not turn the
            # graceful stop into a crash.
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.pipeline.sync
                )
            except OSError as exc:
                _LOG.error("final WAL sync failed during shutdown: %s", exc)
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection; a cancelled handler drops it quietly.

        When the loop closes (after :meth:`shutdown`), handlers still
        pending — a read parked on its executor future, a client that has
        not sent its request — are cancelled.  On Python 3.11 the stream
        protocol's done-callback asks the task for its exception, which a
        *cancelled* task raises, and the loop logs a traceback.  This is
        the outermost frame of a task nothing awaits, so the cancellation
        ends here, with the connection closed, and is not re-raised.
        """
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Parse one HTTP/1.1 request, route it, write the JSON response."""
        t0 = time.perf_counter()
        try:
            try:
                # An idle or slow-drip client must not hold the connection:
                # the whole request (line, headers, body) has one deadline.
                method, target, body, req_headers = await asyncio.wait_for(
                    self._read_request(reader), _READ_DEADLINE_S
                )
            except asyncio.TimeoutError:
                exc = _HTTPError(
                    408, f"request not received within {_READ_DEADLINE_S:g} s"
                )
                await self._reject(writer, exc, t0)
                return
            except _HTTPError as exc:
                await self._reject(writer, exc, t0)
                return
            except Exception as exc:  # noqa: BLE001 - unreadable request
                _LOG.debug("closing unreadable connection: %r", exc)
                return
            path, _, query_string = target.partition("?")
            query = parse_qs(query_string) if query_string else {}
            request_id = req_headers.get("x-request-id", "")
            if not _REQUEST_ID.fullmatch(request_id):
                request_id = trace.new_request_id()
            route = _ROUTE_LABELS.get(path, "other")
            handle = (
                trace.begin(request_id)
                if self.trace_slow_ms is not None else None
            )
            headers: dict[str, str] = {"X-Request-Id": request_id}
            try:
                if self.request_timeout_ms is not None:
                    status, payload = await asyncio.wait_for(
                        self._route(method, path, body, query),
                        self.request_timeout_ms / 1000.0,
                    )
                else:
                    status, payload = await self._route(method, path, body, query)
            except asyncio.TimeoutError:
                status, payload = 504, _error_payload(
                    504,
                    f"request exceeded the {self.request_timeout_ms:g} ms "
                    "deadline",
                    "deadline_exceeded",
                )
            except _HTTPError as exc:
                status, payload = exc.status, exc.payload()
            except ReproError as exc:
                status, payload = 400, _error_payload(400, str(exc), "validation")
            except Exception as exc:  # noqa: BLE001 - boundary of the server
                status, payload = 500, _error_payload(
                    500, f"internal error: {exc}"
                )
            finally:
                if handle is not None:
                    self._finish_trace(handle, t0)
            await self._respond(writer, status, payload, headers)
            self._account(route, status, time.perf_counter() - t0, request_id)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - socket already gone
                pass

    async def _reject(
        self, writer: asyncio.StreamWriter, exc: _HTTPError, t0: float
    ) -> None:
        """Answer a request rejected before routing and count it.

        Parameters
        ----------
        writer:
            The connection's stream writer.
        exc:
            The rejection; its error code labels ``repro_http_rejected_total``.
        t0:
            ``perf_counter`` at request start.
        """
        payload = exc.payload()
        await self._respond(writer, exc.status, payload)
        self.metrics.inc(K_HTTP_REJECTED[payload["error"]["code"]])
        self._account(
            "other", exc.status, time.perf_counter() - t0, trace.new_request_id()
        )

    def _finish_trace(self, handle, t0: float) -> None:
        """Close the request trace, dumping its span tree when too slow.

        Parameters
        ----------
        handle:
            The :func:`repro.obs.trace.begin` handle of this request.
        t0:
            ``perf_counter`` at request start.
        """
        finished = trace.end(handle)
        duration_ms = (time.perf_counter() - t0) * 1000.0
        if duration_ms >= self.trace_slow_ms:
            self.metrics.inc(K_TRACES_DUMPED)
            _LOG.warning(
                "slow request trace: %s",
                json.dumps(finished.as_dict(duration_ms)),
            )

    def _account(
        self, route: str, status: int, elapsed: float, request_id: str
    ) -> None:
        """Record the per-request counters, latency and (optional) log line.

        Parameters
        ----------
        route:
            Route label (see ``_ROUTE_LABELS``).
        status:
            HTTP status answered.
        elapsed:
            Wall seconds from first byte to response flushed.
        request_id:
            The request's ``X-Request-Id``.
        """
        metrics = self.metrics
        metrics.inc(K_HTTP_REQUESTS[route])
        klass = f"{status // 100}xx"
        metrics.inc(K_HTTP_RESPONSES.get(klass, K_HTTP_RESPONSES["5xx"]))
        group = _ROUTE_HIST_GROUPS.get(route, "other")
        metrics.observe(H_HTTP[group], elapsed)
        if self.log_format == "json":
            _REQUEST_LOG.info(
                "request",
                extra={"fields": {
                    "request_id": request_id,
                    "route": route,
                    "status": status,
                    "duration_ms": round(elapsed * 1000.0, 3),
                }},
            )

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, Any], dict[str, str]]:
        """Read request line, headers and (optional) JSON body."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            raise _HTTPError(400, "connection dropped")
        except ValueError:  # line longer than the StreamReader limit
            raise _HTTPError(431, "request line too long")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HTTPError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]

        content_length = 0
        req_headers: dict[str, str] = {}
        header_lines = header_bytes = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # line longer than the StreamReader limit
                raise _HTTPError(431, "request header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            header_bytes += len(line)
            if header_lines > _MAX_HEADERS or header_bytes > _MAX_HEADER_BYTES:
                raise _HTTPError(
                    431,
                    f"request headers exceed {_MAX_HEADERS} lines or "
                    f"{_MAX_HEADER_BYTES} bytes",
                )
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            req_headers[name] = value.strip()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HTTPError(400, "bad Content-Length")
        if "transfer-encoding" in req_headers:
            raise _HTTPError(
                501, "Transfer-Encoding is not supported; send a "
                "Content-Length body",
            )
        if content_length < 0:
            raise _HTTPError(400, "bad Content-Length")
        if content_length > _MAX_BODY:
            raise _HTTPError(413, "request body too large")
        body: dict[str, Any] = {}
        if content_length:
            try:
                raw = await reader.readexactly(content_length)
            except (asyncio.IncompleteReadError, ConnectionError):
                raise _HTTPError(400, "request body shorter than Content-Length")
            try:
                body = json.loads(raw)
            except ValueError as exc:
                # Undecodable bytes, malformed JSON, or an integer literal
                # past the interpreter's digit limit.
                raise _HTTPError(400, f"invalid JSON body: {exc}")
            except RecursionError:
                raise _HTTPError(400, "invalid JSON body: nested too deeply")
            if not isinstance(body, dict):
                raise _HTTPError(400, "JSON body must be an object")
        return method, path, body, req_headers

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any] | _Raw",
        headers: dict[str, str] | None = None,
    ) -> None:
        """Write one JSON (or pre-serialised) response and flush.

        Parameters
        ----------
        writer:
            The connection's stream writer.
        status:
            HTTP status code.
        payload:
            A JSON-serialisable dict, or a :class:`_Raw` body carrying its
            own content type (the Prometheus exposition).
        headers:
            Extra response headers.
        """
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 408: "Request Timeout",
                   409: "Conflict",
                   413: "Payload Too Large",
                   431: "Request Header Fields Too Large",
                   500: "Internal Server Error", 501: "Not Implemented",
                   503: "Service Unavailable", 504: "Gateway Timeout"}
        if isinstance(payload, _Raw):
            content_type = payload.content_type
            data = payload.data
        else:
            content_type = "application/json"
            data = json.dumps(payload, default=_json_default).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Degraded read-only mode
    # ------------------------------------------------------------------ #

    def _enter_degraded(self, reason: str) -> None:
        """Flip the server read-only after a durability-path write failure.

        Idempotent.  Reads keep serving; writes answer a structured
        ``503 degraded_read_only`` until the periodic disk probe
        (:meth:`_probe_degraded`) heals the WAL.  The transition is
        counted (``repro_degraded_transitions_total{direction="enter"}``)
        and mirrored into the ``repro_service_state`` gauge.

        Parameters
        ----------
        reason:
            Human-readable cause, surfaced in ``/v1/healthz`` and in the
            write rejections.
        """
        if self._degraded is not None:
            return
        self._degraded = {"reason": reason, "since": time.monotonic()}
        self.metrics.inc(K_DEGRADED_TRANSITIONS["enter"])
        self.metrics.gauge_set(G_SERVICE_STATE, 1.0)
        _LOG.error("entering degraded read-only mode: %s", reason)
        if self.pipeline is not None and (
                self._probe_task is None or self._probe_task.done()):
            self._probe_task = asyncio.ensure_future(self._probe_degraded())

    def _exit_degraded(self) -> None:
        """Re-enable writes after a successful disk probe (idempotent)."""
        if self._degraded is None:
            return
        outage = time.monotonic() - self._degraded["since"]
        self._degraded = None
        self.metrics.inc(K_DEGRADED_TRANSITIONS["exit"])
        self.metrics.gauge_set(G_SERVICE_STATE, 0.0)
        _LOG.warning(
            "degraded read-only mode cleared after %.3fs; writes re-enabled",
            outage,
        )

    async def _probe_degraded(self) -> None:
        """Periodically probe the disk; exit degraded mode on recovery.

        Each probe runs :meth:`IngestPipeline.heal` on the executor: it
        truncates any unacknowledged WAL tail and exercises the full
        write+fsync path, so a success proves the next append can be made
        durable.  ``OSError`` keeps the loop probing; a ``ReproError``
        (pipeline closed mid-shutdown) ends it.
        """
        loop = asyncio.get_running_loop()
        while self._degraded is not None:
            await asyncio.sleep(self.degraded_probe_interval)
            if self._degraded is None:  # pragma: no cover - raced an exit
                return
            try:
                await loop.run_in_executor(None, self.pipeline.heal)
            except OSError as exc:
                _LOG.info("degraded probe: disk still failing: %s", exc)
                continue
            except ReproError:  # pipeline closed underneath the probe
                return
            self._exit_degraded()
            return

    def _reject_degraded(self) -> _HTTPError:
        """The structured 503 every write gets while read-only."""
        reason = self._degraded["reason"] if self._degraded else "unknown"
        return _HTTPError(
            503,
            f"service is in degraded read-only mode ({reason}); "
            "writes are temporarily disabled",
            code="degraded_read_only",
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _refresh_gauges(self) -> None:
        """Bring the liveness gauges up to date before an exposition read.

        Gauges that describe *current* state (replicas alive, queue depth)
        are set when their owners are consulted, not on the hot path;
        ``/v1/metrics`` and ``/v1/stats`` consult them here.
        """
        if self.pool is not None:
            self.pool.stats()  # sets replicas_alive / queued gauges
        if self.pipeline is not None:
            self.pipeline.durability()  # sets the WAL-backlog gauge

    def _render_metrics(self, query: dict[str, list[str]]) -> tuple[int, Any]:
        """Answer ``GET /v1/metrics`` (Prometheus text, or JSON on request).

        Parameters
        ----------
        query:
            Parsed query string; ``format=json`` switches the body.
        """
        self._refresh_gauges()
        fmt = (query.get("format") or ["prometheus"])[0]
        if fmt == "json":
            return 200, render_json(self.metrics)
        if fmt not in ("prometheus", "text"):
            raise _HTTPError(
                400, f"unknown metrics format {fmt!r}", code="validation"
            )
        text = render_prometheus(self.metrics)
        return 200, _Raw(CONTENT_TYPE_PROMETHEUS, text.encode("utf-8"))

    async def _route(
        self,
        method: str,
        path: str,
        body: dict[str, Any],
        query: dict[str, list[str]] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Dispatch one parsed request to its handler."""
        action = fault_check("http.dispatch")
        if action is not None:
            if action.kind == "delay":
                # time.sleep would stall the event loop (and defeat the
                # per-request deadline); injected delays must be awaited.
                await asyncio.sleep(float(action.arg or 0.0) / 1000.0)
            else:
                fault_execute(action, "http.dispatch")
        if path == "/v1/healthz" and method == "GET":
            health = {
                "status": "ok",
                "state": (
                    "degraded_read_only" if self._degraded is not None
                    else "ok"
                ),
                "version": self.service.version,
                "durable": self.pipeline is not None,
            }
            if self._degraded is not None:
                health["degraded"] = {
                    "reason": self._degraded["reason"],
                    "since_seconds": round(
                        time.monotonic() - self._degraded["since"], 3
                    ),
                }
            if self.pipeline is not None:
                health["durability"] = self.pipeline.durability()
            if self.pool is not None:
                pool_stats = self.pool.stats()
                health["replicas"] = pool_stats["alive"]
                health["published_version"] = pool_stats["published_version"]
            return 200, health
        if path == "/v1/stats" and method == "GET":
            self._refresh_gauges()
            stats = self.service.stats()
            if self.pipeline is not None:
                stats["durability"] = self.pipeline.stats()
            if self.pool is not None:
                stats["pool"] = self.pool.stats()
            return 200, stats
        if path == "/v1/metrics" and method == "GET":
            return self._render_metrics(query or {})
        if path == "/v1/recommend" and method == "POST":
            return 200, await self._recommend(body)
        if path == "/v1/events" and method == "POST":
            return 200, await self._events(self._parse_events(body))
        if path == "/v1/snapshot" and method == "POST":
            return 200, await self._snapshot()
        if path in _ROUTE_LABELS:
            raise _HTTPError(405, f"{method} not allowed on {path}")
        raise _HTTPError(404, f"unknown path {path}")

    async def _recommend(self, body: dict[str, Any]) -> dict[str, Any]:
        """Run (or join) one coalesced recommend computation."""
        k = _int_field(body, "k", 5)
        max_groups = _int_field(body, "max_groups", 8)
        semantics = str(body.get("semantics", "lm"))
        aggregation = str(body.get("aggregation", "min"))
        user_ids = _user_ids_field(body.get("user_ids"))

        loop = asyncio.get_running_loop()
        routed = self.pool is not None
        key = (
            k, max_groups, semantics, aggregation,
            None if user_ids is None else user_ids.tobytes(),
            self.pool.version if routed else self.service.version,
        )
        future = self._inflight.get(key)
        if future is None:
            if routed:
                future = asyncio.ensure_future(
                    self.pool.recommend(
                        k=k,
                        max_groups=max_groups,
                        semantics=semantics,
                        aggregation=aggregation,
                        user_ids=user_ids,
                    )
                )
            else:
                compute = lambda: self.service.recommend(  # noqa: E731
                    k=k,
                    max_groups=max_groups,
                    semantics=semantics,
                    aggregation=aggregation,
                    user_ids=user_ids,
                )
                if trace.active() is not None:
                    # run_in_executor does not propagate contextvars;
                    # carry the active trace onto the worker thread.
                    context = contextvars.copy_context()
                    future = loop.run_in_executor(None, context.run, compute)
                else:
                    future = loop.run_in_executor(None, compute)
            self._inflight[key] = future
            future.add_done_callback(lambda _f, _k=key: self._inflight.pop(_k, None))
        else:
            self.coalesced_recommends += 1
            self.metrics.inc(K_COALESCED)
        span = trace.push("http.recommend_wait")
        wait_start = time.perf_counter()
        try:
            result = await asyncio.shield(future)
        except PoolShuttingDown as exc:
            raise _HTTPError(503, str(exc), code="shutting_down")
        except PoolOverloaded as exc:
            raise _HTTPError(503, str(exc), code="overloaded")
        except ReplicaPoolError as exc:
            raise _HTTPError(503, str(exc), code="replicas_unavailable")
        finally:
            if span is not None:
                trace.pop(span, time.perf_counter() - wait_start)
        payload = dict(result) if routed else result.as_dict()
        payload["coalesced"] = self.coalesced_recommends
        return payload

    @staticmethod
    def _parse_events(body: dict[str, Any]) -> list[Event]:
        """Parse a ``POST /v1/events`` body into typed events."""
        events = body.get("events")
        if not isinstance(events, list):
            raise _HTTPError(
                400, "body must be {\"events\": [...]}", code="validation"
            )
        # IngestError from a malformed event propagates as a structured
        # 400 via the ReproError handler in _serve_connection.
        return [event_from_dict(item) for item in events]

    def _apply_events_sync(self, events: list[Event]) -> dict[str, Any]:
        """Apply one folded event batch (runs on the executor thread)."""
        if self.pipeline is not None:
            return self.pipeline.ingest(events)
        upserts, deletes = fold_events(
            events, self.service.store.scale, self.fold_policy
        )
        stats = self.service.apply_updates(upserts=upserts, deletes=deletes)
        stats["events"] = len(events)
        return stats

    async def _events(self, events: list[Event]) -> dict[str, Any]:
        """Join the currently open event batch (opening one if needed).

        The queue stores each request's *event list*; the flush
        concatenates them in arrival order and folds once, so last-wins
        resolution spans requests exactly as it would a single stream.
        """
        if self._degraded is not None:
            raise self._reject_degraded()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self._pending_updates:
            self.batched_updates += 1
            self.metrics.inc(K_BATCHED_UPDATES)
        else:
            self._flush_handle = loop.call_later(
                self.batch_window, lambda: asyncio.ensure_future(self._flush_updates())
            )
        self._pending_updates.append((events, future))
        span = trace.push("http.batch_wait")
        wait_start = time.perf_counter()
        try:
            return await asyncio.shield(future)
        finally:
            if span is not None:
                trace.pop(span, time.perf_counter() - wait_start)

    async def _flush_updates(self) -> None:
        """Apply the open batch as one durable apply call.

        The merged call is atomic (validation happens before any write), so
        on failure the batch falls back to applying each request
        individually — a bad update rejects only its own request instead of
        poisoning every writer that happened to share the window.
        """
        pending, self._pending_updates = self._pending_updates, []
        self._flush_handle = None
        if not pending:
            return
        merged = [event for events, _ in pending for event in events]
        loop = asyncio.get_running_loop()
        try:
            stats = await loop.run_in_executor(
                None, lambda: self._apply_events_sync(merged)
            )
        except OSError as exc:
            # The durability path itself failed (WAL append/fsync): the
            # batch was journaled-or-nothing, so no state changed.  Flip
            # read-only and reject every writer in the window — retrying
            # per-request would just hammer the broken disk.
            if self.pipeline is not None:
                self._enter_degraded(f"durable apply failed: {exc}")
                error = self._reject_degraded()
            else:
                error = _HTTPError(500, f"apply failed: {exc}")
            for _, future in pending:
                if not future.done():
                    future.set_exception(error)
            return
        except Exception:  # noqa: BLE001 - isolate the offending request(s)
            for events, future in pending:
                if self._degraded is not None:
                    if not future.done():
                        future.set_exception(self._reject_degraded())
                    continue
                try:
                    stats = await loop.run_in_executor(
                        None, lambda _e=events: self._apply_events_sync(_e)
                    )
                except OSError as exc:
                    if self.pipeline is not None:
                        self._enter_degraded(f"durable apply failed: {exc}")
                        exc = self._reject_degraded()
                    if not future.done():
                        future.set_exception(exc)
                except Exception as exc:  # noqa: BLE001 - per-request verdict
                    if not future.done():
                        future.set_exception(exc)
                else:
                    stats["batched_requests"] = 1
                    if not future.done():
                        future.set_result(stats)
            await self._publish_pool()
            return
        stats["batched_requests"] = len(pending)
        await self._publish_pool()
        for _, future in pending:
            if not future.done():
                future.set_result(dict(stats))

    async def _publish_pool(self) -> None:
        """Push the writer's new index version to the replica pool.

        A no-op without a pool or when the version is unchanged; called
        after every applied batch so replicas adopt the new tables before
        the writers' acknowledgements go out (a client that writes and
        then reads observes its own write).

        Best-effort: a failed publish (export fault, replica trouble)
        must not fail the already-durable write — replicas simply keep
        serving the previous version until the next successful publish.
        """
        if self.pool is not None:
            try:
                await self.pool.publish()
            except Exception as exc:  # noqa: BLE001 - publish is advisory
                _LOG.warning(
                    "pool publish failed; replicas keep serving the "
                    "previous version: %s", exc,
                )

    async def _snapshot(self) -> dict[str, Any]:
        """Force a checkpoint through the pipeline (``409`` without one)."""
        if self.pipeline is None:
            raise _HTTPError(
                409,
                "server is not running with a WAL (--wal-dir); "
                "snapshots need a durable pipeline",
                code="not_durable",
            )
        if self._degraded is not None:
            raise self._reject_degraded()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, self.pipeline.snapshot)
        except OSError as exc:
            self._enter_degraded(f"snapshot failed: {exc}")
            raise self._reject_degraded()
