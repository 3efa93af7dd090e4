#!/usr/bin/env python
"""Service bench: incremental maintenance and serve latency vs full rebuild.

Measures, on one bench instance (default: the 100k-user x 1k-item sparse
instance), the cost of keeping the serving stack fresh under a stream of
rating updates:

* **full rebuild** — ``TopKIndex.build`` over the whole store;
* **incremental batch** — ``FormationService.apply_updates`` for a batch
  of random upserts/deletes (store write + per-user index repair + shard
  invalidation);
* **write + rebuild** — what the same batch costs without the incremental
  index: the identical store write on a twin store, then a full
  ``TopKIndex.build``.  The twin's rebuilt index must equal the live one
  bit for bit.  The headline number is the *speedup* of the incremental
  batch over this write + rebuild, gated at ``--min-speedup`` (default
  1.2x): a regression in the store write, the safety screen or the row
  repair of the incremental path shows up in it, while a faster top-k
  kernel speeds up both sides alike;
* **recommend latency** — p50/p99 of ``FormationService.recommend`` over a
  mixed workload that interleaves update batches (so requests alternate
  between memo hits, shard-recycled recomputes and cold paths), plus the
  cold full-formation baseline for reference;
* **durable ingestion** — typed events streamed through the WAL-backed
  :class:`~repro.ingest.IngestPipeline` (journal + fsync + fold + apply)
  with a recommend request after every batch: sustained events/s under
  that mixed read/write load and the p99 of the interleaved reads.  The
  pipeline is then reopened over the same directory and the **recovery
  time** (latest snapshot + WAL-tail replay) is recorded; a recovered
  index that differs from the live one fails the bench.

Writes ``BENCH_service.json`` through the shared
:func:`~benchmarks._timing.write_bench_json` schema.

CI runs this at a small scale as a *non-blocking* trend gate
(``check_regression.py --service``); the acceptance-scale run is::

    PYTHONPATH=src python benchmarks/bench_service_updates.py

"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

from _timing import bench_entry, merge_bench_json

from repro.core import FormationEngine, TopKIndex
from repro.datasets.synthetic import synthetic_sparse_store
from repro.datasets import synthetic_yahoo_music
from repro.ingest import (
    Click,
    Completion,
    ExplicitRating,
    IngestPipeline,
    RatingDelete,
)
from repro.recsys import DenseStore
from repro.service import FormationService


def build_store(args: argparse.Namespace):
    """The bench instance as a mutable store."""
    if args.store == "sparse":
        return synthetic_sparse_store(
            args.users, args.items, density=args.density, rng=args.seed
        )
    matrix = synthetic_yahoo_music(args.users, args.items, rng=args.seed)
    return DenseStore(matrix.values, scale=matrix.scale)


def random_batch(rng, n_users, n_items, size):
    """One update batch: ~90% upserts, ~10% deletes."""
    n_del = max(1, size // 10)
    upserts = list(
        zip(
            rng.integers(0, n_users, size=size - n_del).tolist(),
            rng.integers(0, n_items, size=size - n_del).tolist(),
            rng.integers(1, 6, size=size - n_del).astype(float).tolist(),
        )
    )
    deletes = list(
        zip(
            rng.integers(0, n_users, size=n_del).tolist(),
            rng.integers(0, n_items, size=n_del).tolist(),
        )
    )
    return upserts, deletes


def percentile(samples, q):
    """Nearest-rank percentile of a sample list."""
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered) - 0.5))))
    return ordered[idx]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=100_000,
                        help="instance size in users (default: 100000)")
    parser.add_argument("--items", type=int, default=1000,
                        help="instance size in items (default: 1000)")
    parser.add_argument("--density", type=float, default=0.02,
                        help="explicit-rating density for --store sparse "
                             "(default: 0.02)")
    parser.add_argument("--store", default="sparse", choices=["dense", "sparse"],
                        help="rating storage backing the service (default: sparse)")
    parser.add_argument("--k-max", type=int, default=20, dest="k_max",
                        help="index width / largest served k (default: 20)")
    parser.add_argument("--k", type=int, default=10,
                        help="recommend request k (default: 10)")
    parser.add_argument("--groups", type=int, default=64,
                        help="recommend request group budget (default: 64)")
    parser.add_argument("--shards", type=int, default=8,
                        help="service shards (default: 8)")
    parser.add_argument("--batches", type=int, default=10,
                        help="update batches timed (default: 10)")
    parser.add_argument("--batch-size", type=int, default=1000, dest="batch_size",
                        help="updates per batch (default: 1000)")
    parser.add_argument("--requests", type=int, default=40,
                        help="recommend requests in the latency loop (default: 40)")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="required (store write + full rebuild) / "
                             "incremental-batch ratio (default: 1.2; 0 "
                             "disables the gate)")
    parser.add_argument("--event-batches", type=int, default=8,
                        dest="event_batches",
                        help="typed-event batches for the durable-ingest "
                             "section (default: 8; 0 skips the section)")
    parser.add_argument("--event-batch-size", type=int, default=500,
                        dest="event_batch_size",
                        help="events per durable batch (default: 500)")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args(argv)

    instance = (
        f"{args.users}x{args.items} {args.store}, k_max={args.k_max}, "
        f"batch={args.batch_size}"
    )
    print(f"bench_service_updates: {instance}")
    store = build_store(args)
    rng = np.random.default_rng(args.seed + 1)

    # Full rebuild baseline: what every update batch costs without the
    # incremental index (best of 2 to absorb warmup).
    rebuild_seconds = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        TopKIndex.build(store, args.k_max)
        rebuild_seconds = min(rebuild_seconds, time.perf_counter() - t0)
    print(f"  full index rebuild: {rebuild_seconds * 1000:8.1f} ms")

    service = FormationService(store, k_max=args.k_max, shards=args.shards)
    twin = build_store(args)
    failures = []

    # Incremental update batches through the full service path, each
    # followed by the same batch written to the twin store and a full
    # rebuild of its index: the work the incremental path replaces.
    batch_times = []
    baseline_times = []
    repaired = skipped = 0
    for _ in range(args.batches):
        upserts, deletes = random_batch(
            rng, service.index.n_users, args.items, args.batch_size
        )
        t0 = time.perf_counter()
        stats = service.apply_updates(upserts=upserts, deletes=deletes)
        batch_times.append(time.perf_counter() - t0)
        repaired += stats["repaired_users"]
        skipped += stats["skipped_updates"]

        up = np.asarray(upserts, dtype=np.float64).reshape(-1, 3)
        de = np.asarray(deletes, dtype=np.int64).reshape(-1, 2)
        t0 = time.perf_counter()
        if up.size:
            twin.upsert(
                up[:, 0].astype(np.int64), up[:, 1].astype(np.int64), up[:, 2]
            )
        twin.delete(de[:, 0], de[:, 1])
        rebuilt = TopKIndex.build(twin, args.k_max)
        baseline_times.append(time.perf_counter() - t0)
    live_items, live_values = service.index.top_k(args.k_max)
    if not (
        np.array_equal(rebuilt.items, live_items)
        and np.array_equal(rebuilt.values, live_values)
    ):
        failures.append("incremental index differs from a full rebuild")
    batch_mean = statistics.mean(batch_times)
    baseline_mean = statistics.mean(baseline_times)
    speedup = baseline_mean / batch_mean
    updates_per_second = args.batch_size / batch_mean
    print(
        f"  incremental batch ({args.batch_size} updates): "
        f"mean {batch_mean * 1000:8.1f} ms | {updates_per_second:,.0f} updates/s "
        f"({repaired} rows repaired, {skipped} skipped)"
    )
    print(
        f"  store write + full rebuild: mean {baseline_mean * 1000:8.1f} ms | "
        f"incremental is {speedup:.2f}x faster"
    )

    # Cold full-formation baseline (index rebuild + formation per request).
    engine = FormationEngine("numpy")
    t0 = time.perf_counter()
    cold_index = TopKIndex.build(store, args.k_max)
    engine.run(store, args.groups, args.k, "lm", "min", topk=cold_index)
    cold_seconds = time.perf_counter() - t0
    print(f"  cold rebuild+formation baseline: {cold_seconds * 1000:8.1f} ms")

    # Serve-latency loop: one update batch every 4 requests, so the mix
    # covers memo hits, shard-recycled recomputes and fresh versions.
    latencies = []
    for i in range(args.requests):
        if i % 4 == 3:
            upserts, deletes = random_batch(
                rng, service.index.n_users, args.items, args.batch_size
            )
            service.apply_updates(upserts=upserts, deletes=deletes)
        t0 = time.perf_counter()
        service.recommend(k=args.k, max_groups=args.groups)
        latencies.append(time.perf_counter() - t0)
    p50 = percentile(latencies, 50)
    p99 = percentile(latencies, 99)
    print(
        f"  recommend latency over {args.requests} requests: "
        f"p50 {p50 * 1000:7.1f} ms | p99 {p99 * 1000:7.1f} ms "
        f"(stats: {service.stats()['result_hits']} memo hits, "
        f"{service.stats()['shards_recycled']} shards recycled)"
    )

    # Durable ingestion: typed events through the WAL-backed pipeline,
    # with a read interleaved after every batch, then timed recovery.
    durable_entries = []
    if args.event_batches > 0:
        wal_root = tempfile.mkdtemp(prefix="bench-wal-")

        def factory(state):
            if state is None:
                return service  # first open wraps the live service
            recovered = FormationService(
                state.store, k_max=state.k_max, shards=args.shards,
                base_index=TopKIndex(
                    state.index_items, state.index_values, state.store.n_items
                ),
            )
            recovered.index.adopt_state(
                state.version, state.removed, state.staleness
            )
            return recovered

        # Cadence deliberately does not divide the batch count, so the
        # recovery timed below replays a real WAL tail past the snapshot.
        snapshot_every = max(1, args.event_batches // 2 + 1)
        pipeline = IngestPipeline.open(
            wal_root, factory, snapshot_every=snapshot_every
        )

        def random_events(n):
            events = []
            for _ in range(n):
                user = int(rng.integers(0, service.index.n_users))
                item = int(rng.integers(0, args.items))
                roll = rng.random()
                if roll < 0.7:
                    events.append(
                        ExplicitRating(user, item, float(rng.integers(1, 6)))
                    )
                elif roll < 0.8:
                    events.append(RatingDelete(user, item))
                elif roll < 0.9:
                    events.append(Click(user, item))
                else:
                    events.append(
                        Completion(user, item, float(rng.integers(0, 101)) / 100)
                    )
            return events

        read_latencies = []
        total_events = 0
        loop_start = time.perf_counter()
        for _ in range(args.event_batches):
            events = random_events(args.event_batch_size)
            pipeline.ingest(events)
            total_events += len(events)
            t0 = time.perf_counter()
            service.recommend(k=args.k, max_groups=args.groups)
            read_latencies.append(time.perf_counter() - t0)
        loop_seconds = time.perf_counter() - loop_start
        events_per_second = total_events / loop_seconds
        mixed_p99 = percentile(read_latencies, 99)
        print(
            f"  durable ingest ({total_events} events, fsync every batch, "
            f"1 read/batch): {events_per_second:,.0f} events/s sustained | "
            f"read p99 {mixed_p99 * 1000:7.1f} ms"
        )

        pipeline.close()
        t0 = time.perf_counter()
        recovered_pipeline = IngestPipeline.open(
            wal_root, factory, snapshot_every=snapshot_every
        )
        recovery_seconds = time.perf_counter() - t0
        recovery = recovered_pipeline.recovery or {}
        print(
            f"  recovery (snapshot seq {recovery.get('snapshot_seq', 0)} + "
            f"{recovery.get('batches_replayed', 0)} batches replayed): "
            f"{recovery_seconds * 1000:8.1f} ms"
        )
        live_index = service.index
        recovered_index = recovered_pipeline.service.index
        if not (
            np.array_equal(recovered_index.items, live_index.items)
            and np.array_equal(recovered_index.values, live_index.values)
        ):
            failures.append(
                "recovered index differs from the live index bit-for-bit"
            )
        recovered_pipeline.service.close()
        recovered_pipeline.close()
        shutil.rmtree(wal_root, ignore_errors=True)

        durable_entries = [
            bench_entry(instance, loop_seconds, backend="numpy",
                        store=args.store, metric="durable_ingest_mixed",
                        batch_size=args.event_batch_size,
                        events_per_second=events_per_second),
            bench_entry(instance, mixed_p99, backend="numpy", store=args.store,
                        metric="mixed_load_recommend_p99", k=args.k,
                        max_groups=args.groups),
            bench_entry(instance, recovery_seconds, backend="numpy",
                        store=args.store, metric="recovery_time",
                        batches_replayed=recovery.get("batches_replayed", 0)),
        ]

    entries = [
        bench_entry(instance, rebuild_seconds, backend="numpy", store=args.store,
                    metric="full_index_rebuild"),
        bench_entry(instance, baseline_mean, backend="numpy", store=args.store,
                    metric="write_and_rebuild_mean", batch_size=args.batch_size),
        bench_entry(instance, batch_mean, backend="numpy", store=args.store,
                    metric="incremental_batch_mean", batch_size=args.batch_size,
                    updates_per_second=updates_per_second, speedup=speedup),
        bench_entry(instance, cold_seconds, backend="numpy", store=args.store,
                    metric="cold_rebuild_and_formation", k=args.k,
                    max_groups=args.groups),
        bench_entry(instance, p50, backend="numpy", store=args.store,
                    metric="recommend_p50", k=args.k, max_groups=args.groups),
        bench_entry(instance, p99, backend="numpy", store=args.store,
                    metric="recommend_p99", k=args.k, max_groups=args.groups),
    ]
    entries.extend(durable_entries)
    # The load harness (bench_load.py) shares this file and owns the
    # "load_" metric namespace; merge so neither bench clobbers the other.
    path = merge_bench_json("service", entries, ("load_", "obs_"), owns_prefix=False)
    print(f"  timings written to {path}")

    if args.min_speedup and speedup < args.min_speedup:
        failures.append(
            f"incremental updates only {speedup:.2f}x faster than the store "
            f"write + full rebuild (required {args.min_speedup:.2f}x)"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(
        f"OK: incremental maintenance {speedup:.2f}x faster than the store "
        f"write + full rebuild"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
