"""The ``repro`` console script: run the online formation service.

::

    repro serve --users 5000 --items 500 --port 8321
    repro serve --store sparse --users 100000 --items 1000 --density 0.02
    repro serve --wal-dir ./state --snapshot-every 64   # durable ingestion
    repro serve --replicas 2                            # horizontal serving

Boots a synthetic rating instance (the same generators the experiment
harness uses), wraps it in a :class:`~repro.service.FormationService` and
serves JSON over HTTP until interrupted.  With ``--wal-dir`` the server
runs durably: every accepted event batch is journaled to a write-ahead
log before it is applied, checkpoints are taken every
``--snapshot-every`` batches, and restarting over the same directory
recovers the pre-crash store and index bit for bit.  See ``docs/api.md``
for the endpoint reference and ``repro serve --help`` for every flag.

All flag plumbing funnels through
:class:`~repro.service.config.ServiceConfig`, so tests and benchmarks
build byte-identical stacks from the same object.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import os
import signal
import sys
from collections.abc import Sequence

from repro.service.config import add_formation_arguments

__all__ = ["main", "build_parser", "bootstrap_service"]

#: ``mallopt`` parameter number of glibc's mmap threshold.
_M_MMAP_THRESHOLD = -3
#: Blocks of at least this size get their own ``mmap`` (glibc's starting
#: value of the threshold).
_MMAP_THRESHOLD_BYTES = 128 * 1024


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (exposed separately for testing).

    Returns
    -------
    argparse.ArgumentParser
        The parser with the ``serve`` subcommand registered.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online group-formation service for the SIGMOD 2015 reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser(
        "serve",
        help="serve formation requests over JSON/HTTP",
        description=(
            "Bootstrap a rating instance, build the incremental top-k index and "
            "answer /v1/recommend and /v1/events requests over JSON/HTTP "
            "(durable when --wal-dir is given)."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port (0 picks a free port)")
    serve.add_argument("--users", type=int, default=2000,
                       help="synthetic instance size in users (default: 2000)")
    serve.add_argument("--items", type=int, default=300,
                       help="synthetic instance size in items (default: 300)")
    serve.add_argument("--density", type=float, default=0.05,
                       help="explicit-rating density of the sparse bootstrap "
                            "(default: 0.05; ignored for --store dense)")
    serve.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    serve.add_argument("--k-max", type=int, default=20, dest="k_max",
                       help="largest recommended-list length served (default: 20)")
    serve.add_argument("--batch-window", type=float, default=0.01,
                       help="seconds an update batch stays open to coalesce "
                            "concurrent writers (default: 0.01)")
    serve.add_argument("--wal-dir", default=None, dest="wal_dir",
                       help="durability root: write-ahead log + snapshots live "
                            "here, and restarting over the same directory "
                            "recovers the pre-crash state bit for bit "
                            "(default: non-durable)")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       dest="snapshot_every",
                       help="take a store+index snapshot (and truncate the "
                            "WAL) every N applied batches (default: 64; "
                            "0 disables automatic snapshots)")
    serve.add_argument("--fsync-every", type=int, default=1, dest="fsync_every",
                       help="group-commit size: fsync the WAL every N appends "
                            "(default: 1 — every batch is durable when "
                            "acknowledged)")
    serve.add_argument("--replicas", type=int, default=0,
                       help="read-only replica processes serving /v1/recommend "
                            "(attached zero-copy to the writer's store/index "
                            "exports; default: 0 — serve reads in-process)")
    serve.add_argument("--replica-inflight", type=int, default=2,
                       dest="replica_inflight",
                       help="per-replica in-flight request cap before reads "
                            "queue (default: 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       dest="queue_depth",
                       help="bounded routing queue once every replica is at "
                            "its cap; a full queue answers 503 overloaded "
                            "(default: 64)")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       dest="heartbeat_interval",
                       help="replica supervision cadence in seconds: liveness "
                            "checks, idle pings and respawn of crashed "
                            "replicas (default: 1.0)")
    serve.add_argument("--respawn-backoff", type=float, default=0.5,
                       dest="respawn_backoff",
                       help="base delay before the second consecutive respawn "
                            "of one replica slot; doubles per further failure "
                            "(default: 0.5)")
    serve.add_argument("--respawn-max-backoff", type=float, default=30.0,
                       dest="respawn_max_backoff",
                       help="respawn backoff ceiling, and the circuit-breaker "
                            "cooldown before a half-open trial (default: 30)")
    serve.add_argument("--respawn-budget", type=int, default=5,
                       dest="respawn_budget",
                       help="consecutive respawn failures after which a "
                            "replica slot's circuit breaker opens "
                            "(default: 5)")
    serve.add_argument("--respawn-min-uptime", type=float, default=5.0,
                       dest="respawn_min_uptime",
                       help="seconds a replica must stay alive for its "
                            "failure count to reset (default: 5)")
    serve.add_argument("--request-timeout-ms", type=float, default=None,
                       dest="request_timeout_ms",
                       help="per-request deadline in milliseconds; requests "
                            "past it answer a structured 504 "
                            "deadline_exceeded (default: no deadline)")
    serve.add_argument("--degraded-probe-interval", type=float, default=1.0,
                       dest="degraded_probe_interval",
                       help="seconds between disk probes while in degraded "
                            "read-only mode; the first success re-enables "
                            "writes (default: 1.0)")
    serve.add_argument("--faults", default=os.environ.get("REPRO_FAULTS"),
                       help="deterministic failpoint schedule, e.g. "
                            "'wal.fsync=enospc@first:3;http.dispatch="
                            "delay:50@prob:0.1' (default: $REPRO_FAULTS; "
                            "unset = fault plane disabled)")
    serve.add_argument("--faults-seed", type=int,
                       default=int(os.environ.get("REPRO_FAULTS_SEED", "0")),
                       dest="faults_seed",
                       help="seed behind probabilistic fault triggers and "
                            "respawn-backoff jitter (default: "
                            "$REPRO_FAULTS_SEED, else 0)")
    serve.add_argument("--no-obs", action="store_false", dest="obs",
                       help="disable the telemetry plane: every metric "
                            "mutation becomes a no-op (the overhead-gate "
                            "baseline; /v1/metrics then reads all zeros)")
    serve.add_argument("--trace-slow-ms", type=float, default=None,
                       dest="trace_slow_ms",
                       help="trace every request and log the span tree of "
                            "any request slower than this many milliseconds "
                            "(0 dumps every request; default: tracing off)")
    serve.add_argument("--log-format", default="text", dest="log_format",
                       choices=["text", "json"],
                       help="request/operational log format: human text, or "
                            "one JSON object per line for log shippers "
                            "(default: text)")
    add_formation_arguments(serve)
    return parser


def bootstrap_service(args: argparse.Namespace, config=None):
    """Build the service (and pipeline) a ``serve`` run uses.

    Parameters
    ----------
    args:
        Parsed ``repro serve`` arguments.
    config:
        Optional pre-built :class:`~repro.service.config.ServiceConfig` to
        reuse (its cached telemetry registry included); built from
        ``args`` when omitted.

    Returns
    -------
    tuple
        ``(service, pipeline)`` — the pipeline is ``None`` without
        ``--wal-dir``.
    """
    from repro.service.config import ServiceConfig

    if config is None:
        config = ServiceConfig.from_args(args)
    if config.wal_dir is not None:
        pipeline = config.build_pipeline()
        return pipeline.service, pipeline
    return config.build_service(), None


async def _serve(args: argparse.Namespace, config=None) -> None:
    """Start the server and run until SIGINT/SIGTERM, then shut down cleanly.

    Termination signals set an event instead of unwinding the event loop
    with ``KeyboardInterrupt``: the serve task is cancelled, the listening
    socket closes, any pending (batched but unflushed) update requests are
    applied as one final batch, and the WAL (if any) is fsynced — so
    Ctrl-C never tracebacks, never drops acknowledged updates, and a clean
    stop never needs replay.

    Parameters
    ----------
    args:
        Parsed ``repro serve`` arguments.
    config:
        Optional pre-validated :class:`ServiceConfig` (built from ``args``
        when omitted).
    """
    from repro.service.config import ServiceConfig

    # Register the handlers before binding the socket, so a signal arriving
    # any time after the address is announced is guaranteed a clean path.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            registered.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass

    from repro.obs.logs import configure_logging

    if config is None:
        config = ServiceConfig.from_args(args)
    configure_logging(config.log_format)
    if config.faults:
        from repro import faults

        faults.configure(config.faults, seed=config.faults_seed)
        # Spawn-context replica workers re-read the schedule from the
        # environment (forked ones inherit the configured plane directly).
        os.environ["REPRO_FAULTS"] = config.faults
        os.environ["REPRO_FAULTS_SEED"] = str(config.faults_seed)
    service, pipeline = bootstrap_service(args, config)
    pool = config.build_pool(service)
    if pool is not None:
        # Spawn the replicas before the front end accepts (and before the
        # event loop grows executor threads): each worker attaches to the
        # current store/index exports and is ready to serve immediately.
        pool.start()
    pin_mmap_threshold()
    server = config.build_server(service, pipeline, pool)
    await server.start()
    stats = service.stats()
    durability = ""
    if pipeline is not None:
        recovery = pipeline.recovery or {}
        durability = (
            f", wal at {config.wal_dir} (seq {pipeline.wal.last_seq}, "
            f"{recovery.get('batches_replayed', 0)} batches replayed)"
        )
    serving = ""
    if pool is not None:
        serving = (
            f", {pool.replicas} replicas (inflight {pool.inflight}, "
            f"queue {pool.queue_depth})"
        )
    print(
        f"repro serve: {stats['n_users']} users x {stats['n_items']} items "
        f"({args.store} store, k_max={stats['k_max']}, "
        f"{stats['backend']} backend"
        + serving
        + durability
        + ")"
    )
    print(f"listening on http://{server.host}:{server.port}  "
          f"(endpoints: /v1/healthz /v1/stats /v1/metrics /v1/recommend "
          f"/v1/events /v1/snapshot)", flush=True)

    serve_task = asyncio.create_task(server.run_forever())
    try:
        if registered:
            await stop.wait()
        else:  # pragma: no cover - fallback when signals are unavailable
            await serve_task
    finally:
        serve_task.cancel()
        try:
            await serve_task
        except (asyncio.CancelledError, Exception):
            pass
        await server.shutdown()
        if pipeline is not None:
            pipeline.close()
        service.close()
        config.close_metrics()
        for sig in registered:
            loop.remove_signal_handler(sig)
    print("repro serve: stopped (listener closed, pending updates flushed)")


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at :data:`_MMAP_THRESHOLD_BYTES`.

    glibc raises the threshold (up to 32 MiB) each time a mapped block is
    freed, after which the server's per-request numpy temporaries (event
    folds, index repairs, snapshot and publish copies) are carved from
    the malloc heaps of whichever threads ran them, and the process keeps
    whatever those heaps grew to.  Measured on a durable sparse
    20,000 x 2,000 server with one replica under mixed load, the writer's
    peak RSS then landed anywhere from ~150 to ~185 MiB from one run of
    the same load to the next; with the threshold fixed, every such block
    is mapped and unmapped on its own and the peak sat at ~109 MiB within
    1 MiB.  ``repro serve`` pins it once its replicas are forked: they
    keep glibc's default, under which their full-population reads reuse
    heap temporaries and ran ~20% faster than with every block mapped (a
    replica respawned later inherits the writer's setting).

    Returns
    -------
    bool
        ``False`` where the C library has no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES))


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script.

    Parameters
    ----------
    argv:
        Argument vector (default: ``sys.argv[1:]``).

    Returns
    -------
    int
        Process exit status.
    """
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        from repro.core.errors import IngestError
        from repro.service.config import ServiceConfig

        try:
            config = ServiceConfig.from_args(args)
        except IngestError as exc:
            print(f"repro serve: error: {exc}", file=sys.stderr)
            return 2
        reason = config.validate_wal_dir()
        if reason is not None:
            print(f"repro serve: error: {reason}", file=sys.stderr)
            return 2
        try:
            asyncio.run(_serve(args, config))
        except KeyboardInterrupt:  # pragma: no cover - signal race at startup
            print("repro serve: stopped")
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
