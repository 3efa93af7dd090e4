"""``serve-ingest``: durable writes beside full-population reads.

``repro serve --store sparse`` (20,000 x 2,000 at 2% density) with a WAL
directory (default fsync-every-batch and snapshot cadence) and one
replica.  One closed-loop connection posts 64-event ``/v1/events``
batches; the other sends full-population reads cycling through 160
distinct (k, l, semantics) settings — more than the 128-entry result
memo — on an index version that moves with every write, so each read
merges and scores anew.  After the load the benchmark takes a snapshot,
writes a fixed tail of batches, reads a fixed set of answers, stops the
server and restarts it over the same WAL directory: the answers must be
identical, at the same version, after the restart.

This covers CSR upserts, index repair, WAL append and fsync, snapshots,
replica publish and the pool hop, and full-population merge and scoring.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

from common import (
    Outcome, Server, closed_loop, completed, fetch_metrics, fresh_dir,
    median, percentile, timed_post,
)

USERS, ITEMS, DENSITY, K_MAX = 20_000, 2_000, 0.02, 20
BATCH = 64
SEMANTICS = (("lm", "min"), ("av", "sum"))
#: 20 k x 4 budgets x 2 semantics = 160 distinct full-population reads.
READS = [
    {"k": k, "max_groups": groups, "semantics": s, "aggregation": a}
    for k in range(1, K_MAX + 1) for groups in (8, 16, 32, 64)
    for s, a in SEMANTICS
]
#: Fresh server boots per untraced run; setup_s is their median.
SETUPS = 3
#: Restarts over the loaded WAL directory.
RESTARTS = 2
#: Batches written after the forced snapshot, replayed by every restart.
TAIL_BATCHES = 8


def server_flags(seed: int, wal_dir: str) -> list[str]:
    return ["--store", "sparse", "--users", str(USERS), "--items", str(ITEMS),
            "--density", str(DENSITY), "--seed", str(seed),
            "--k-max", str(K_MAX), "--wal-dir", wal_dir, "--replicas", "1"]


def event_batch(rng: np.random.Generator) -> dict:
    """One seeded ``/v1/events`` body: ratings, clicks and deletes."""
    events = []
    for _ in range(BATCH):
        user, item = int(rng.integers(USERS)), int(rng.integers(ITEMS))
        draw = rng.random()
        if draw < 0.8:
            events.append({"kind": "rating", "user": user, "item": item,
                           "score": float(rng.integers(1, 6))})
        elif draw < 0.9:
            events.append({"kind": "click", "user": user, "item": item})
        else:
            events.append({"kind": "delete", "user": user, "item": item})
    return {"events": events}


def fixed_reads(seed: int) -> list[dict]:
    """The reads compared across the restart."""
    rng = np.random.default_rng([seed, 3])
    subset = sorted(int(u) for u in rng.choice(USERS, size=500, replace=False))
    return [
        {"k": 5, "max_groups": 16, "semantics": "lm", "aggregation": "min"},
        {"k": 10, "max_groups": 64, "semantics": "av", "aggregation": "sum"},
        {"k": 20, "max_groups": 8, "semantics": "lm", "aggregation": "min"},
        {"k": 5, "max_groups": 8, "semantics": "av", "aggregation": "sum",
         "user_ids": subset},
    ]


def mixed_load(port: int, seed: int, phase: int, seconds: float):
    """One writer and one reader connection for ``seconds``.

    Returns ``(writes, reads, wall seconds)``; each is a list of
    ``(latency, payload, error)``.
    """
    rng = np.random.default_rng([seed, 1, phase])
    order = np.random.default_rng([seed, 2]).permutation(len(READS))

    def write(_i: int) -> tuple:
        return timed_post(port, "/v1/events", event_batch(rng))

    def read(i: int) -> tuple:
        setting = READS[order[(i + phase * len(READS) // 2) % len(READS)]]
        return timed_post(port, "/v1/recommend", setting)

    (writes, reads), elapsed = closed_loop(seconds, [write, read])
    return writes, reads, elapsed


def account(writes: list, reads: list, outcome: Outcome) -> None:
    """Count the load's operations; an ack without a WAL sequence is wrong."""
    for _, payload, error in writes:
        outcome.attempted += 1
        if error is not None:
            outcome.fail(f"write: {error}")
        elif not isinstance(payload.get("wal_seq"), int):
            outcome.mismatch(f"write acknowledged without a WAL sequence: {payload}")
    for _, _, error in reads:
        outcome.attempted += 1
        if error is not None:
            outcome.fail(f"full read: {error}")


def answers(port: int, seed: int, outcome: Outcome) -> list:
    """Canonical answers of :func:`fixed_reads` (``None`` where one failed)."""
    from repro.service.pool import canonical_response

    out = []
    for body in fixed_reads(seed):
        outcome.attempted += 1
        _, payload, error = timed_post(port, "/v1/recommend", body)
        if error is not None:
            outcome.fail(f"fixed read: {error}")
        out.append(None if payload is None else canonical_response(payload))
    return out


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    root = fresh_dir("serve-ingest")
    trace_dir = fresh_dir("serve-ingest-trace", "load") if trace else None
    restart_dir = fresh_dir("serve-ingest-trace", "restart") if trace else None
    boots = []
    server = None
    for i in range(1 if trace else SETUPS):
        if server is not None:
            server.stop(outcome)
        wal_dir = f"{root}/wal-{i}"
        server = Server(server_flags(seed, wal_dir), "armed" if trace else None,
                        trace_dir)
        boots.append(server.boot_seconds)

    try:
        if not trace:
            writes, reads, elapsed = mixed_load(server.port, seed, 0, seconds)
        else:
            plain_writes, plain_reads, _ = mixed_load(
                server.port, seed, 0, seconds / 2)
            before = fetch_metrics(server.port)
            cpu0 = server.cpu_seconds()
            server.start_recording()
            window_start = time.perf_counter()
            writes, reads, elapsed = mixed_load(server.port, seed, 1, seconds / 2)
            window_end = time.perf_counter()
            cpu = server.cpu_seconds() - cpu0
            after = fetch_metrics(server.port)
            account(plain_writes, plain_reads, outcome)
        account(writes, reads, outcome)

        # A fixed tail after a checkpoint, so every restart replays the
        # same batches whatever the load managed to write.
        tail = np.random.default_rng([seed, 4])
        for path, body in [("/v1/snapshot", {})] + [
                ("/v1/events", event_batch(tail)) for _ in range(TAIL_BATCHES)]:
            outcome.attempted += 1
            error = timed_post(server.port, path, body)[2]
            if error is not None:
                outcome.fail(f"{path}: {error}")
        expected = answers(server.port, seed, outcome)
        rss = server.vmhwm_mib()
    finally:
        server.stop(outcome)

    recoveries = []
    for i in range(RESTARTS):
        restarted = Server(server_flags(seed, wal_dir),
                           "record" if trace else None, restart_dir)
        recoveries.append(restarted.boot_seconds)
        try:
            if i == RESTARTS - 1:
                got = answers(restarted.port, seed, outcome)
                for n, (old, new) in enumerate(zip(expected, got)):
                    if old is not None and new is not None and old != new:
                        outcome.mismatch(f"fixed read {n} changed across the "
                                         f"restart: {json.dumps(old)[:200]}")
        finally:
            restarted.stop(outcome)
    shutil.rmtree(root)

    write_ok, read_ok = completed(writes), completed(reads)
    if not write_ok or not read_ok:
        outcome.fail("no write or no full read completed")
        return outcome
    events = BATCH * len(write_ok)
    if not trace:
        outcome.metric("setup_s", median(boots), "s", len(boots))
        outcome.metric("op_p50_ms", median(write_ok) * 1000.0, "ms", len(write_ok))
        outcome.metric("op_tail_ms", percentile(write_ok, 90) * 1000.0, "ms",
                       len(write_ok))
        outcome.metric("throughput_per_s", events / elapsed, "1/s", len(write_ok))
        outcome.metric("peak_rss_mib", rss, "MiB", 1)
        outcome.metric("full_read_p50_ms", median(read_ok) * 1000.0, "ms",
                       len(read_ok), info=True)
        outcome.metric("full_read_p90_ms", percentile(read_ok, 90) * 1000.0,
                       "ms", len(read_ok), info=True)
        outcome.metric("recovery_s", median(recoveries), "s", len(recoveries),
                       info=True)
        return outcome

    from layers import report, server_deltas
    from tracer import aggregate, load_spans

    spans = load_spans(trace_dir)
    report(
        outcome, aggregate(spans, window_start, window_end),
        len(write_ok) + len(read_ok), sum(write_ok) + sum(read_ok),
        overhead_share=median(write_ok) / median(completed(plain_writes)) - 1.0,
        server=server_deltas(before, after), cpu_seconds=cpu,
        recovery=aggregate(load_spans(restart_dir)), restarts=RESTARTS,
        snapshots=aggregate(spans),
    )
    return outcome
