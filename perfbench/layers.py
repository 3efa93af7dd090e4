"""The per-layer metrics of a traced run, named after ``src/repro`` modules.

Every workload reports the same list (:data:`PER_LAYER`); a layer a
workload bypasses reads 0.  Seconds are *self* seconds — a span's
duration minus its traced children — summed over the traced phase and
divided by the operations completed in it (``/op``), so a faster layer
shows as a smaller number even though a faster run completes more
operations.  ``recovery.*`` are per restart and ``snapshot.write_s`` per
snapshot.
"""

from __future__ import annotations

from common import Outcome, hist_delta

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("store.densify_s", "s/op"), ("store.densify_cells", "count/op"),
    ("store.write_s", "s/op"),
    ("kernels.top_k_s", "s/op"), ("kernels.top_k_rows", "count/op"),
    ("kernels.top_k_bytes", "B/op"),
    ("kernels.group_s", "s/op"), ("kernels.group_rows", "count/op"),
    ("topk_index.apply_s", "s/op"), ("topk_index.repair_s", "s/op"),
    ("topk_index.repaired_rows", "count/op"), ("topk_index.skip_ratio", "ratio"),
    ("sharded.summarise_s", "s/op"), ("sharded.merge_s", "s/op"),
    ("sharded.select_s", "s/op"), ("sharded.buckets", "count/op"),
    ("engine.form_s", "s/op"), ("engine.finalise_s", "s/op"),
    ("scoring.s", "s/op"), ("scoring.leftover_users", "count/op"),
    ("scoring.groups", "count/op"),
    ("service.recommend_s", "s/op"), ("service.apply_s", "s/op"),
    ("service.memo_hit_ratio", "ratio"), ("service.shard_recycle_ratio", "ratio"),
    ("http.overhead_s", "s/op"), ("http.batch_wait_s", "s/op"),
    ("http.requests", "count/op"), ("http.responses_5xx", "count/op"),
    ("pool.queue_wait_s", "s/op"), ("pool.replica_call_s", "s/op"),
    ("pool.publish_s", "s/op"), ("pool.publishes", "count/op"),
    ("pool.retries", "count/op"),
    ("ingest.fold_s", "s/op"), ("ingest.apply_s", "s/op"),
    ("ingest.events", "count/op"),
    ("wal.append_s", "s/op"), ("wal.fsync_s", "s/op"),
    ("wal.fsyncs", "count/op"), ("wal.bytes", "B/op"),
    ("snapshot.write_s", "s"), ("snapshot.count", "count/op"),
    ("recovery.load_s", "s"), ("recovery.replay_s", "s"),
    ("recovery.replayed_batches", "count"),
    ("server.cpu_ms_per_op", "ms/op"),
    ("unattributed_s", "s/op"), ("trace.overhead_share", "ratio"),
]

#: per-layer metric -> (span name, field)
_FROM_SPANS = {
    "store.densify_s": ("store.densify", "self"),
    "store.densify_cells": ("store.densify", "cells"),
    "store.write_s": ("store.write", "self"),
    "kernels.top_k_s": ("kernels.top_k", "self"),
    "kernels.top_k_rows": ("kernels.top_k", "rows"),
    "kernels.top_k_bytes": ("kernels.top_k", "bytes"),
    "kernels.group_s": ("kernels.group", "self"),
    "kernels.group_rows": ("kernels.group", "rows"),
    "topk_index.apply_s": ("topk_index.apply", "self"),
    "topk_index.repair_s": ("topk_index.repair", "self"),
    "topk_index.repaired_rows": ("topk_index.repair", "rows"),
    "sharded.summarise_s": ("sharded.summarise", "self"),
    "sharded.merge_s": ("sharded.merge", "self"),
    "sharded.select_s": ("sharded.select", "self"),
    "sharded.buckets": ("sharded.merge", "buckets"),
    "engine.form_s": ("engine.form", "self"),
    "engine.finalise_s": ("engine.finalise", "self"),
    "scoring.s": ("scoring", "self"),
    "scoring.leftover_users": ("scoring", "leftover_users"),
    "scoring.groups": ("scoring", "groups"),
    "service.recommend_s": ("service.recommend", "self"),
    "service.apply_s": ("service.apply", "self"),
    "http.batch_wait_s": ("http.batch_wait", "wall"),
    "pool.publish_s": ("pool.publish", "wall"),
    "ingest.fold_s": ("ingest.fold", "self"),
    "ingest.apply_s": ("ingest.apply", "self"),
    "ingest.events": ("ingest.fold", "events"),
    "wal.append_s": ("wal.append", "self"),
    "wal.fsync_s": ("wal.fsync", "self"),
    "wal.fsyncs": ("wal.fsync", "fsyncs"),
    "wal.bytes": ("wal.append", "bytes"),
    "snapshot.count": ("snapshot.write", "calls"),
}

#: Spans on a synchronous call path, whose self times add up to the
#: traced share of an operation's wall time.
SYNC_SPANS = (
    "store.densify", "store.write", "kernels.top_k", "kernels.group",
    "topk_index.apply", "topk_index.repair", "sharded.summarise",
    "sharded.merge", "sharded.select", "engine.form", "engine.finalise",
    "scoring", "service.recommend", "service.apply", "ingest.fold",
    "ingest.apply", "wal.append", "wal.fsync", "snapshot.write",
)


def _get(totals: dict, span: str, field: str) -> float:
    entry = totals.get(span)
    return float(entry.get(field, 0.0)) if entry else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def server_deltas(before: dict, after: dict) -> dict:
    """Counter and histogram-sum deltas of two ``/v1/metrics`` scrapes."""
    from repro.obs.registry import (
        H_QUEUE_WAIT, H_REPLICA_CALL, K_HTTP_REQUESTS, K_HTTP_RESPONSES,
        K_POOL_PUBLISHED, K_POOL_RETRIES, K_REQUESTS, K_RESULT_HITS,
        K_SHARDS_RECOMPUTED, K_SHARDS_RECYCLED,
    )

    def counter(key: str) -> float:
        return after["counters"][key] - before["counters"][key]

    return {
        "requests": sum(counter(k) for k in K_HTTP_REQUESTS.values()),
        "responses_5xx": counter(K_HTTP_RESPONSES["5xx"]),
        "service_requests": counter(K_REQUESTS),
        "memo_hits": counter(K_RESULT_HITS),
        "recycled": counter(K_SHARDS_RECYCLED),
        "recomputed": counter(K_SHARDS_RECOMPUTED),
        "publishes": counter(K_POOL_PUBLISHED),
        "retries": counter(K_POOL_RETRIES),
        "queue_wait_s": hist_delta(before, after, H_QUEUE_WAIT)["sum"],
        "replica_call_s": hist_delta(before, after, H_REPLICA_CALL)["sum"],
    }


def report(outcome: Outcome, totals: dict, ops: int, op_wall: float,
           overhead_share: float, server: dict | None = None,
           cpu_seconds: float = 0.0, recovery: dict | None = None,
           restarts: int = 0, snapshots: dict | None = None) -> None:
    """Add every :data:`PER_LAYER` metric to ``outcome``.

    Parameters
    ----------
    totals:
        :func:`tracer.aggregate` of the traced phase.
    ops, op_wall:
        Operations completed in the traced phase and their summed
        latency as the benchmark observed it.
    overhead_share:
        Traced over untraced median operation latency, minus one.
    server:
        :func:`server_deltas` over the traced phase (serve workloads).
    cpu_seconds:
        CPU the program used in the traced phase.
    recovery, restarts:
        Aggregated spans of the restarted servers, and how many there were.
    snapshots:
        Aggregated spans of the loaded server's whole recorded life, so
        snapshots taken after the window count too.
    """
    server = server or {}
    per_op = 1.0 / ops if ops else 0.0
    values = {name: _get(totals, *src) * per_op for name, src in _FROM_SPANS.items()}
    values["topk_index.skip_ratio"] = _ratio(
        _get(totals, "topk_index.apply", "skipped"),
        _get(totals, "topk_index.apply", "updates"),
    )
    values["service.memo_hit_ratio"] = _ratio(
        server.get("memo_hits", 0.0), server.get("service_requests", 0.0))
    values["service.shard_recycle_ratio"] = _ratio(
        server.get("recycled", 0.0),
        server.get("recycled", 0.0) + server.get("recomputed", 0.0))
    for name, key in (("http.requests", "requests"),
                      ("http.responses_5xx", "responses_5xx"),
                      ("pool.queue_wait_s", "queue_wait_s"),
                      ("pool.replica_call_s", "replica_call_s"),
                      ("pool.publishes", "publishes"),
                      ("pool.retries", "retries")):
        values[name] = server.get(key, 0.0) * per_op

    traced = sum(_get(totals, span, "self") for span in SYNC_SPANS)
    request = _get(totals, "http.request", "wall")
    if request:
        # Server request time not spent in the service, the pool or a
        # write's batch; what remains of the client's latency is outside
        # the server (connection, client, scheduling).
        # With replicas the service runs inside the pool call, in another
        # process: count that time once.
        pool = server.get("queue_wait_s", 0.0) + server.get("replica_call_s", 0.0)
        served = ((pool or _get(totals, "service.recommend", "wall"))
                  + _get(totals, "http.batch_wait", "wall"))
        values["http.overhead_s"] = max(0.0, request - served) * per_op
        values["unattributed_s"] = max(0.0, op_wall - request) * per_op
    else:
        values["http.overhead_s"] = 0.0
        values["unattributed_s"] = max(0.0, op_wall - traced) * per_op
    recovery = recovery or {}
    per_restart = 1.0 / restarts if restarts else 0.0
    values["recovery.load_s"] = _get(recovery, "recovery.load", "self") * per_restart
    values["recovery.replay_s"] = (
        _get(recovery, "recovery.replay", "wall") * per_restart)
    values["recovery.replayed_batches"] = (
        _get(recovery, "recovery.replay", "batches") * per_restart)
    snapshots = snapshots or {}
    taken = _get(snapshots, "snapshot.write", "calls")
    values["snapshot.write_s"] = _ratio(
        _get(snapshots, "snapshot.write", "self"), taken)
    values["server.cpu_ms_per_op"] = cpu_seconds * 1000.0 * per_op
    values["trace.overhead_share"] = overhead_share
    for name, unit in PER_LAYER:
        if name.startswith("recovery."):
            samples = restarts
        elif name == "snapshot.write_s":
            samples = int(taken)
        else:
            samples = ops
        outcome.metric(name, values[name], unit, samples)
