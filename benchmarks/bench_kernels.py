#!/usr/bin/env python
"""Kernel benchmark: compiled vs numpy top-k, dense and CSR.

**Dense leg.**  Times the two stages the kernel layer owns — the
``TopKIndex`` build (ranking every user's top-k) and step-1 bucketing
(grouping users by their bucket keys) — once with the compiled top-k
kernel and once with the numpy blocked kernel the layer runs without a C
compiler, asserts both paths are bit-identical (top-k tables, bucket
partitions, formation results), and records the per-stage timings, the
compiled/numpy speedup and the compiled thread-scaling curve
(``--threads`` comma sweep) in ``BENCH_kernels.json``.  Bucketing follows
the top-k: the compiled hash grouping on the compiled path, the numpy
fingerprint kernel on the numpy path, each on its path's tables.

The default instance is the paper's Figure 4(a) user-sweep shape at its
largest point: 100,000 users (the paper's scalability default) with the
10k-item catalogue scaled to 1,000 items so the dense instance fits in a
few GB of RAM; fig4(b) shows GRD runtime is flat in the catalogue size,
so the per-stage ratios carry.  ``l`` and ``k`` are the paper defaults
(10, 5) and the variant is GRD-LM-MIN, exactly as in the fig4 benches.

**CSR leg.**  Times the CSR top-k over every user of a sparse store
(default 50,000 x 10,000 at 1%, perfbench's batch-sparse instance) at
k = 5 and 20, on the store's float64 values (``values=float64``) and on
its ``uint8`` level codes (``values=codes``, the level-bucketed kernel
``SparseStore.top_k`` runs on integer-level stores): the numpy fallback
on each, and at every ``--threads`` count the compiled kernel three
times — on the codes (``store.top_k``), and on the values with the
store's scale maximum as its ceiling (``ceiling=scale_max``) and without
one (``ceiling=none``, the full row scan).  Every table must be
bit-identical to the numpy fallback's on the values, and a sample of
rows to the dense kernel on the densified rows; without a compiler the
numpy rows and the sample check run.  Step-1 bucketing (GRD-LM-MIN's
key) is timed on every ``k``'s tables too, numpy and, where it loads,
compiled; the two must return the same arrays.

Gate semantics: parity failures exit non-zero; the speedup is recorded,
never gated.  When the compiled backend cannot be built (no C compiler)
the compiled legs are skipped with a note — never silently::

    PYTHONPATH=src python benchmarks/bench_kernels.py                   # full size
    PYTHONPATH=src python benchmarks/bench_kernels.py --users 4000 --items 400 \
        --csr-users 4000 --csr-items 1000 --rounds 2 --threads 1,2      # smoke
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np

from _timing import bench_entry, best_seconds, results_identical, write_bench_json

from repro.core import FormationEngine, TopKIndex, kernels
from repro.core.engine import coerce_store
from repro.datasets import synthetic_yahoo_music
from repro.datasets.synthetic import synthetic_sparse_store

#: Rows of the CSR instance checked against the dense kernel (densified).
CSR_DENSE_SAMPLE = 1_000
#: Stored-rating density of the CSR instance (perfbench's batch-sparse).
CSR_DENSITY = 0.01
#: Top-k lengths of the CSR leg: the paper default and a long list.
CSR_K = (5, 20)


@contextmanager
def numpy_top_k():
    """Run a block with the numpy top-k and bucketing kernels, as on a box
    without cc."""
    with mock.patch.object(kernels, "_load_compiled", lambda: None):
        yield


def buckets_identical(a, b) -> bool:
    """Whether two bucketings return the same ``(inverse, sorted_users,
    starts)`` arrays."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def parse_threads(text: str) -> list[int]:
    """Parse the ``--threads`` comma sweep ("1,2,4,8") into thread counts."""
    counts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value = int(part)
        if value < 1:
            raise ValueError(f"thread counts must be >= 1, got {value}")
        counts.append(value)
    if not counts:
        raise ValueError("--threads needs at least one thread count")
    return counts


def tables_identical(a, b) -> bool:
    """Whether two ``(items, values)`` tables match, value bits included."""
    return np.array_equal(a[0], b[0]) and np.array_equal(
        a[1].view(np.uint64), b[1].view(np.uint64)
    )


def run_path(store, args):
    """Time both stages and form once on the active top-k path.

    Returns ``(timings, top-k tables, bucketing, formation result)``.
    """
    build_seconds, index = best_seconds(lambda: TopKIndex.build(store, args.k),
                                        args.rounds)
    items_table, scores_table = index.top_k(args.k)
    # GRD-LM-MIN keys on the item sequence plus the k-th score.
    bucket_seconds, bucketing = best_seconds(
        lambda: kernels.bucketize(items_table, scores_table, "last"), args.rounds
    )
    result = FormationEngine("numpy").run(
        store, args.groups, args.k, "lm", "min", topk=index
    )
    timings = {"index_build": build_seconds, "bucketing": bucket_seconds}
    return timings, (items_table, scores_table), bucketing, result


def run_csr_leg(args, entries, failures) -> None:
    """Time and check the CSR top-k over every user of a sparse store."""
    store = synthetic_sparse_store(
        args.csr_users, args.csr_items, density=CSR_DENSITY, rng=args.seed
    )
    csr, fill, ceiling = store.csr, store.fill_value, store.scale.maximum
    if store._codes is None:
        failures.append("the CSR instance has no level codes")
        return
    levels = (store._codes, *store._level_range)
    rows = np.arange(store.n_users, dtype=np.int64)
    sample = rows[:: max(1, rows.size // CSR_DENSE_SAMPLE)]
    dense_sample = store.rows(sample)
    instance = (f"sparse {args.csr_users}x{args.csr_items} "
                f"@ {CSR_DENSITY:.0%}, every user")
    print(instance)
    for k in CSR_K:
        numpy_seconds, numpy_tables = best_seconds(
            lambda: kernels._csr_top_k_numpy(
                csr.data, csr.indices, csr.indptr, rows, store.n_items, k, fill
            ),
            args.rounds,
        )
        entries.append(bench_entry(instance, numpy_seconds, backend="numpy",
                                   store="sparse", kernels="numpy",
                                   stage="csr_top_k", k=k, values="float64"))
        coded_seconds, coded_tables = best_seconds(
            lambda: kernels._csr_top_k_numpy(
                csr.data, csr.indices, csr.indptr, rows, store.n_items, k,
                fill, levels,
            ),
            args.rounds,
        )
        entries.append(bench_entry(instance, coded_seconds, backend="numpy",
                                   store="sparse", kernels="numpy",
                                   stage="csr_top_k", k=k, values="codes"))
        if not tables_identical(coded_tables, numpy_tables):
            failures.append(f"numpy CSR top-k on the level codes (k={k}) "
                            f"differs from it on the values")
        print(f"  k={k:<3} numpy:    {numpy_seconds * 1000:8.1f} ms on the "
              f"values | {coded_seconds * 1000:8.1f} ms on the codes")
        time_csr_bucketing(instance, numpy_tables, k, args, entries, failures)
        # The production path (the compiled kernel when it loaded) on a
        # sample of rows against the dense kernel on the densified rows.
        if not tables_identical(store.top_k(sample, k),
                                kernels.top_k_table(dense_sample, k)):
            failures.append(f"CSR top-k (k={k}) differs from the dense kernel "
                            f"on the densified sample")
        if not kernels.parallel_available():  # noted by the dense leg
            continue
        for threads in args.threads:
            timed = {}
            paths = (
                # The production path: the store ranks its level codes.
                ("codes", lambda: store.top_k(rows, k), {"values": "codes"}),
                ("scale_max",
                 lambda: kernels.csr_top_k_table(csr, rows, k, fill, ceiling),
                 {"values": "float64", "ceiling": "scale_max"}),
                ("none",
                 lambda: kernels.csr_top_k_table(csr, rows, k, fill, np.inf),
                 {"values": "float64", "ceiling": "none"}),
            )
            for label, call, config in paths:
                with kernels.use_kernel_threads(threads):
                    seconds, tables = best_seconds(call, args.rounds)
                timed[label] = seconds
                entries.append(bench_entry(
                    instance, seconds, backend="numpy", store="sparse",
                    kernels="compiled", threads=threads, stage="csr_top_k",
                    k=k, **config,
                ))
                if not tables_identical(tables, numpy_tables):
                    failures.append(f"compiled CSR top-k (k={k}, {threads} "
                                    f"threads, {label}) differs from numpy")
            print(f"  k={k:<3} compiled: {timed['codes'] * 1000:8.1f} ms on the "
                  f"codes | {timed['scale_max'] * 1000:8.1f} ms on the values "
                  f"with the scale-maximum stop | {timed['none'] * 1000:8.1f} ms "
                  f"without ({threads}t)")


def time_csr_bucketing(instance, tables, k, args, entries, failures) -> None:
    """Time step-1 bucketing of the CSR leg's tables, numpy and compiled."""
    def bucket():
        return kernels.bucketize(*tables, "last")

    with numpy_top_k():
        numpy_seconds, numpy_buckets = best_seconds(bucket, args.rounds)
    entries.append(bench_entry(instance, numpy_seconds, backend="numpy",
                               store="sparse", kernels="numpy",
                               stage="bucketing", k=k))
    line = f"  k={k:<3} bucketing: numpy {numpy_seconds * 1000:6.2f} ms"
    if kernels.parallel_available():
        seconds, buckets = best_seconds(bucket, args.rounds)
        entries.append(bench_entry(instance, seconds, backend="numpy",
                                   store="sparse", kernels="compiled",
                                   stage="bucketing", k=k))
        if not buckets_identical(buckets, numpy_buckets):
            failures.append(f"compiled bucketing of the CSR tables (k={k}) "
                            f"differs from numpy")
        line += f" | compiled {seconds * 1000:6.2f} ms"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=100_000,
                        help="instance size in users (default: 100000, the "
                             "paper's fig4 scalability default)")
    parser.add_argument("--items", type=int, default=1000,
                        help="instance size in items (default: 1000)")
    parser.add_argument("--groups", type=int, default=10, help="group budget l")
    parser.add_argument("--k", type=int, default=5, help="recommended list length")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds; the best round counts (default: 3)")
    parser.add_argument("--threads", type=parse_threads, default="1,2,4,8",
                        metavar="T1,T2,...",
                        help="comma-separated thread counts for the compiled "
                             "kernel scaling curve (default: 1,2,4,8)")
    parser.add_argument("--csr-users", type=int, default=50_000,
                        help="CSR leg instance size in users (default: 50000)")
    parser.add_argument("--csr-items", type=int, default=10_000,
                        help="CSR leg instance size in items (default: 10000)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    args = parser.parse_args(argv)
    if isinstance(args.threads, str):  # default string bypasses type=
        args.threads = parse_threads(args.threads)

    ratings = synthetic_yahoo_music(
        n_users=args.users, n_items=args.items, rng=args.seed
    )
    store = coerce_store(ratings)
    instance = (
        f"fig4 largest instance ({args.users}x{args.items}, "
        f"l={args.groups}, k={args.k})"
    )
    entries = []
    failures = []

    with numpy_top_k():
        numpy_times, numpy_tables, numpy_buckets, numpy_result = run_path(store, args)
    for stage, seconds in numpy_times.items():
        entries.append(bench_entry(instance, seconds, backend="numpy", store="dense",
                                   kernels="numpy", stage=stage))
    print(instance)
    print(f"  numpy:    build {numpy_times['index_build'] * 1000:8.1f} ms | "
          f"bucket {numpy_times['bucketing'] * 1000:8.1f} ms")

    if not kernels.parallel_available():
        from repro.core import kernels_cc

        reason = kernels_cc.unavailable_reason() or "unknown"
        print(f"note: compiled top-k backend unavailable ({reason}); "
              f"compiled legs skipped")
    else:
        curve: dict[int, dict[str, float]] = {}
        for threads in args.threads:
            with kernels.use_kernel_threads(threads):
                times, tables, buckets, result = run_path(store, args)
            curve[threads] = times
            for stage, seconds in times.items():
                entries.append(bench_entry(
                    instance, seconds, backend="numpy", store="dense",
                    kernels="compiled", threads=threads, stage=stage,
                ))
            if not tables_identical(numpy_tables, tables):
                failures.append(f"compiled top-k tables at {threads} threads "
                                f"differ from numpy")
            if not buckets_identical(buckets, numpy_buckets):
                failures.append(f"compiled bucketing at {threads} threads "
                                f"differs from numpy")
            if not results_identical(numpy_result, result):
                failures.append(f"formation result on the compiled path at "
                                f"{threads} threads differs")
            print(f"  compiled: build {times['index_build'] * 1000:8.1f} ms | "
                  f"bucket {times['bucketing'] * 1000:8.1f} ms ({threads}t)")
        best = min(curve, key=lambda t: curve[t]["index_build"])
        speedup = numpy_times["index_build"] / curve[best]["index_build"]
        entries.append(bench_entry(
            instance, curve[best]["index_build"], backend="numpy", store="dense",
            kernels="compiled", threads=best, stage="index_build",
            speedup_vs_numpy=round(speedup, 2),
        ))
        print(f"  compiled vs numpy index build: {speedup:.2f}x "
              f"(best at {best} threads; recorded, not gated)")

    run_csr_leg(args, entries, failures)

    path = write_bench_json("kernels", entries)
    print(f"timings written to {path}")
    if failures:
        print("\nFAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("OK: compiled and numpy kernel paths bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
