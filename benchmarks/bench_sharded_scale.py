#!/usr/bin/env python
"""Million-user sharded formation: the sparse data plane's scale proof.

Generates a ``--users x --items`` instance at ``--density`` directly into a
CSR :class:`~repro.recsys.store.SparseStore` (no dense matrix is ever
materialised — the dense equivalent of the default 1M x 10k instance would
need ~80 GB), then forms groups through
:class:`~repro.core.sharded.ShardedFormation` and reports wall time and peak
RSS.  The default configuration is the PR acceptance check::

    PYTHONPATH=src python benchmarks/bench_sharded_scale.py

which must complete with peak RSS < 8 GB.  Results are appended to
``BENCH_sharded_scale.json`` via the shared timing writer.

``--workers`` accepts a comma-separated sweep (e.g. ``--workers 1,2,4,8``):
each worker count is timed separately and lands as its own entry, so the
execution plane's scaling curve is tracked across PRs.  ``--execution``
selects the fan-out strategy (``serial`` / ``processes`` — the process
pool attaches the CSR store through zero-copy shared memory);
the objective is asserted identical across every sweep point, as the
execution plane promises.  The acceptance speedup check for the process
executor is::

    PYTHONPATH=src python benchmarks/bench_sharded_scale.py \
        --workers 1,8 --execution processes --min-speedup 2.0

Not collected by pytest (no ``test_`` functions) — this is an operator
script, sized in minutes, not a CI gate.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from _timing import bench_entry, write_bench_json

from repro.core import ShardedFormation
from repro.datasets import synthetic_sparse_store
from repro.execution import EXECUTION_MODES


def peak_rss_gib() -> float:
    """Peak resident set size of this process in GiB (Linux: ru_maxrss is KiB)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        rss_kib /= 1024.0
    return rss_kib / (1024.0 * 1024.0)


def parse_workers(raw: str) -> list[int]:
    """Parse ``--workers`` (``"4"`` or a comma-separated sweep ``"1,2,4"``)."""
    values = [int(part) for part in str(raw).split(",") if part.strip()]
    if not values or any(value < 1 for value in values):
        raise argparse.ArgumentTypeError(
            f"--workers needs positive integers, got {raw!r}"
        )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=1_000_000)
    parser.add_argument("--items", type=int, default=10_000)
    parser.add_argument("--density", type=float, default=0.01)
    parser.add_argument("--groups", type=int, default=64, help="group budget l")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--shards", type=int, default=64)
    parser.add_argument("--workers", type=parse_workers, default=[4],
                        help="worker count, or a comma-separated sweep "
                             "(e.g. 1,2,4,8); each point is timed and recorded "
                             "separately (default: 4)")
    parser.add_argument("--execution", default=None, choices=list(EXECUTION_MODES),
                        help="fan-out strategy (default: processes when "
                             "workers > 1, else serial)")
    parser.add_argument("--semantics", default="lm", choices=["lm", "av"])
    parser.add_argument("--aggregation", default="min")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=None, dest="cache_dir",
                        help="artifact-cache directory for shard summaries "
                             "(repeat runs over the same instance skip "
                             "summarisation)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless (fewest-workers time) / "
                             "(most-workers time) of the --workers sweep "
                             "reaches this factor (default: 0 = report-only)")
    parser.add_argument("--max-rss-gib", type=float, default=8.0,
                        help="fail if peak RSS exceeds this (default: 8)")
    args = parser.parse_args(argv)

    instance = (
        f"{args.users}x{args.items} @ {args.density:.0%}, "
        f"l={args.groups}, k={args.k}, shards={args.shards}"
    )
    print(f"generating sparse instance: {instance}")
    t0 = time.perf_counter()
    store = synthetic_sparse_store(
        args.users, args.items, density=args.density, rng=args.seed
    )
    gen_seconds = time.perf_counter() - t0
    print(
        f"  generated in {gen_seconds:.1f}s: nnz={store.csr.nnz:,} "
        f"({store.nbytes / 2**30:.2f} GiB CSR; dense would be "
        f"{args.users * args.items * 8 / 2**30:.1f} GiB)"
    )

    entries = []
    timings: dict[int, float] = {}
    objectives: set[float] = set()
    result = None
    for workers in args.workers:
        engine = ShardedFormation(
            shards=args.shards,
            workers=workers,
            execution=args.execution,
            cache_dir=args.cache_dir,
        )
        t0 = time.perf_counter()
        result = engine.run(
            store, args.groups, args.k, args.semantics, args.aggregation
        )
        form_seconds = time.perf_counter() - t0
        rss = peak_rss_gib()
        timings[workers] = form_seconds
        objectives.add(result.objective)

        execution = result.extras.get("execution", "serial")
        print(f"  [{execution} x{workers}] {result.summary()}")
        print(
            f"  [{execution} x{workers}] formation {form_seconds:.1f}s "
            f"(groups={result.n_groups}, intermediate="
            f"{result.extras['n_intermediate_groups']:,}), "
            f"peak RSS so far {rss:.2f} GiB"
        )
        # ru_maxrss is a process-lifetime high-water mark, so in a sweep
        # every point after the first inherits its predecessors' peak; the
        # field name says so to keep the recorded curve honest (the first
        # entry of a run is a true per-point peak).
        entries.append(bench_entry(
            instance, form_seconds, backend="numpy", store="sparse",
            shards=args.shards, workers=workers, execution=execution,
            generate_seconds=gen_seconds,
            peak_rss_gib_process=round(rss, 3),
            objective=result.objective,
        ))

    write_bench_json("sharded_scale", entries)
    rss = peak_rss_gib()

    if len(objectives) > 1:
        print(f"FAIL: objective varies across the worker sweep: {objectives}",
              file=sys.stderr)
        return 1
    if len(timings) > 1:
        # Directional on purpose: fewest workers over most workers, so a
        # parallel *slowdown* reads below 1.0 instead of masquerading as a
        # speedup (a slowest/fastest ratio would pass either way).
        low, high = min(timings), max(timings)
        speedup = timings[low] / timings[high]
        print(f"  sweep speedup ({low} workers / {high} workers): {speedup:.2f}x "
              f"({ {w: round(s, 1) for w, s in timings.items()} })")
        if args.min_speedup > 0 and speedup < args.min_speedup:
            print(f"FAIL: sweep speedup {speedup:.2f}x < {args.min_speedup:.2f}x",
                  file=sys.stderr)
            return 1
    if rss > args.max_rss_gib:
        print(f"FAIL: peak RSS {rss:.2f} GiB > {args.max_rss_gib} GiB", file=sys.stderr)
        return 1
    print(f"OK: peak RSS {rss:.2f} GiB <= {args.max_rss_gib} GiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
