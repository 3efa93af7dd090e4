"""``serve-read``: request-sized ``/v1/recommend`` subset reads.

A ``repro serve`` process on a dense Yahoo-like store (20,000 x 1,000,
``k_max`` 20, no replicas, no WAL).  Two closed-loop connections send
subset reads only.  The subsets come from a seeded pool of 192 distinct
requests — more than the service's 128-entry result memo — with sizes
{64, 256, 1024}, k in {3, 5, 10} and LM-min / AV-sum; each connection
walks the pool round-robin, half the pool apart, so reads miss the memo.
This is the path dominated by HTTP, bucketing, selection and small-group
scoring; it never densifies, ranks, summarises shards, journals or hops
to a replica.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    Outcome, Server, closed_loop, completed, fetch_metrics, fresh_dir,
    median, percentile, timed_post,
)

USERS, ITEMS, K_MAX = 20_000, 1_000, 20
SIZES = (64, 256, 1024)
KS = (3, 5, 10)
SEMANTICS = (("lm", "min"), ("av", "sum"))
GROUPS = 16
#: Distinct requests; more than the 128-entry result memo.
POOL = 192
CLIENTS = 2
#: Server boots per untraced run; setup_s is their median.
SETUPS = 3


def server_flags(seed: int) -> list[str]:
    return ["--users", str(USERS), "--items", str(ITEMS), "--store", "dense",
            "--seed", str(seed), "--k-max", str(K_MAX)]


def request_pool(seed: int) -> list[dict]:
    """The seeded pool of distinct recommend bodies."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(POOL):
        semantics, aggregation = SEMANTICS[(i // 9) % 2]
        users = rng.choice(USERS, size=SIZES[i % 3], replace=False)
        pool.append({
            "k": KS[(i // 3) % 3], "max_groups": GROUPS,
            "semantics": semantics, "aggregation": aggregation,
            "user_ids": sorted(int(u) for u in users),
        })
    return pool


def read_load(port: int, pool: list[dict], seconds: float):
    """``(reads, wall seconds)``; a read is ``(latency, payload, error, index)``."""

    def client(c: int):
        def read(i: int) -> tuple:
            index = (i + c * POOL // CLIENTS) % POOL
            return (*timed_post(port, "/v1/recommend", pool[index]), index)
        return read

    records, elapsed = closed_loop(seconds, [client(c) for c in range(CLIENTS)])
    return [read for reads in records for read in reads], elapsed


def check_reads(seed: int, pool: list[dict], reads: list[tuple],
                outcome: Outcome) -> None:
    """Compare every answer with an in-process service on the same config."""
    import json

    from repro.service import ServiceConfig
    from repro.service.http import _json_default
    from repro.service.pool import canonical_response

    config = ServiceConfig(users=USERS, items=ITEMS, store="dense", seed=seed,
                           k_max=K_MAX, port=0)
    service = config.build_service()
    expected: dict[int, dict] = {}
    try:
        for _, payload, error, index in reads:
            outcome.attempted += 1
            if error is not None:
                outcome.fail(f"read {index}: {error}")
                continue
            if index not in expected:
                result = service.recommend(**pool[index]).as_dict()
                expected[index] = json.loads(json.dumps(
                    canonical_response(result), default=_json_default))
            if canonical_response(payload) != expected[index]:
                outcome.mismatch(f"read {index} differs from in-process serving")
    finally:
        service.close()
        config.close_metrics()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    pool = request_pool(seed)
    trace_dir = fresh_dir("trace-serve-read") if trace else None
    boots = []
    server = None
    for _ in range(1 if trace else SETUPS):
        if server is not None:
            server.stop(outcome)
        server = Server(server_flags(seed), "armed" if trace else None, trace_dir)
        boots.append(server.boot_seconds)

    try:
        if not trace:
            reads, elapsed = read_load(server.port, pool, seconds)
            rss = server.vmhwm_mib()
        else:
            # First half untraced, second half traced: the difference is
            # the tracing overhead.
            plain, _ = read_load(server.port, pool, seconds / 2)
            before = fetch_metrics(server.port)
            cpu0 = server.cpu_seconds()
            server.start_recording()
            window_start = time.perf_counter()
            traced, _ = read_load(server.port, pool, seconds / 2)
            window_end = time.perf_counter()
            cpu = server.cpu_seconds() - cpu0
            after = fetch_metrics(server.port)
            reads = plain + traced
    finally:
        server.stop(outcome)

    check_reads(seed, pool, reads, outcome)
    ok = completed(reads)
    if not ok:
        outcome.fail("no read completed")
        return outcome
    if not trace:
        outcome.metric("setup_s", median(boots), "s", len(boots))
        outcome.metric("op_p50_ms", median(ok) * 1000.0, "ms", len(ok))
        outcome.metric("op_tail_ms", percentile(ok, 90) * 1000.0, "ms", len(ok))
        outcome.metric("read_p99_ms", percentile(ok, 99) * 1000.0, "ms",
                       len(ok), info=True)
        outcome.metric("throughput_per_s", len(ok) / elapsed, "1/s", len(ok))
        outcome.metric("peak_rss_mib", rss, "MiB", 1)
        return outcome

    from layers import report, server_deltas
    from tracer import aggregate, load_spans

    traced_ok = completed(traced)
    report(
        outcome, aggregate(load_spans(trace_dir), window_start, window_end),
        len(traced_ok), sum(traced_ok),
        overhead_share=median(traced_ok) / median(completed(plain)) - 1.0,
        server=server_deltas(before, after), cpu_seconds=cpu,
    )
    return outcome
