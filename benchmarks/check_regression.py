#!/usr/bin/env python
"""Benchmark smoke / regression gate for the formation engine backends.

Runs the fig4 (GRD-LM-MIN) and fig6 (GRD-AV-MIN) scalability benches at a
small scale through both engine backends and fails when

* the two backends disagree on any result (groups, objective, bookkeeping) —
  they are required to be bit-identical; or
* the ``numpy`` backend is slower than the ``reference`` backend (optionally
  by a stricter ``--min-speedup`` factor); or
* (``--store sparse`` / ``--store both``) the CSR sparse-store path
  disagrees with the dense baseline, or exceeds ``--max-sparse-slowdown``
  times the dense numpy runtime; or
* (``--kernel-gate``) the numpy or the compiled top-k path disagrees with
  the reference backend on any formation result (the compiled leg is
  skipped with a note when no C compiler is available).  The combined
  index build + bucketing time of each path and the compiled/numpy
  speedup are recorded, never gated; the full-size measurement lives in
  ``bench_kernels.py`` at the fig4 largest instance.

``--service`` additionally runs the online-service bench
(``bench_service_updates.py``) at a small scale as a **non-blocking trend
gate**: its numbers — incremental update throughput, durable typed-event
ingest (events/s under mixed read/write load) and the snapshot+WAL-replay
recovery time — are printed and written to ``BENCH_service.json`` so the
trajectory is tracked across PRs, but they never fail this gate (the
acceptance-scale speedup check lives in the bench's own
``--min-speedup``).  It then runs the replica load harness
(``bench_load.py``) with a 2-replica sweep: the throughput/latency
numbers are a trend report, but **replica-parity is blocking** — a
replica answering anything different from single-process serving fails
this gate (the scaling floor is left to the bench's own
``--min-scaling`` at acceptance scale).

``--obs-overhead`` gates the telemetry plane itself: the per-request
cost of the recommend path's instrumentation sequence (measured
differentially — a tight enabled loop minus the identical disabled
loop), divided by the median end-to-end recommend latency over
cache-busting subset reads, must stay within ``--max-obs-overhead``
(default 2%) — the instrumented hot path is required to stay
effectively free.  The measured ratio is recorded as ``obs_`` entries
in ``BENCH_service.json``.

``--faults-overhead`` gates the failpoint plane the same way: with no
schedule configured every ``fault_fire``/``fault_check`` call must be a
near-free early return.  The per-request cost of the hot path's site
visits (HTTP dispatch check plus the WAL append/fsync and pipeline apply
fires a write performs), measured differentially against an empty loop,
divided by the median recommend latency, must stay within
``--max-faults-overhead`` (default 2%).  Recorded as ``overhead_``
entries in ``BENCH_faults.json``.

Each run also writes ``BENCH_regression.json`` (per-instance wall time,
backend, store, commit) so the perf trajectory is tracked across PRs.

Intended for CI::

    PYTHONPATH=src python benchmarks/check_regression.py --store both

and for the full-size acceptance check locally::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --users 4000 --items 400 --min-speedup 5.0
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from _timing import (
    bench_entry,
    best_seconds,
    best_time,
    results_identical,
    write_bench_json,
)

from repro.core import FormationEngine
from repro.datasets import synthetic_yahoo_music
from repro.recsys import SparseStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=1500,
                        help="instance size in users (default: 1500)")
    parser.add_argument("--items", type=int, default=300,
                        help="instance size in items (default: 300)")
    parser.add_argument("--groups", type=int, default=10, help="group budget l")
    parser.add_argument("--k", type=int, default=5, help="recommended list length")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds; the best round counts (default: 3)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required reference/numpy runtime ratio (default: 1.0)")
    parser.add_argument("--store", default="dense",
                        choices=["dense", "sparse", "both"],
                        help="also gate the sparse-store path against the dense "
                             "baseline (default: dense only)")
    parser.add_argument("--max-sparse-slowdown", type=float, default=5.0,
                        help="max allowed sparse/dense numpy runtime ratio "
                             "(default: 5.0; the sparse path pays CSR "
                             "gathers on an instance that fits in RAM)")
    parser.add_argument("--service", action="store_true",
                        help="also run the online-service bench at small scale "
                             "as a non-blocking trend report")
    parser.add_argument("--kernel-gate", action="store_true", dest="kernel_gate",
                        help="also gate the numpy and compiled top-k paths: "
                             "formation-result parity with the reference "
                             "backend (blocking; the compiled leg is skipped "
                             "with a note when no C compiler is available) "
                             "plus a recorded kernel-stage speedup")
    parser.add_argument("--obs-overhead", action="store_true", dest="obs_overhead",
                        help="also gate the telemetry plane's cost on the "
                             "recommend hot path: interleaved metrics-on vs "
                             "metrics-off legs over cache-busting subset "
                             "reads, best-of-N each; blocking when the "
                             "enabled/disabled ratio exceeds "
                             "--max-obs-overhead")
    parser.add_argument("--max-obs-overhead", type=float, default=0.02,
                        dest="max_obs_overhead",
                        help="max allowed fractional slowdown from enabled "
                             "telemetry on the recommend hot path "
                             "(default: 0.02 = 2%%)")
    parser.add_argument("--faults-overhead", action="store_true",
                        dest="faults_overhead",
                        help="also gate the failpoint plane's disabled cost "
                             "on the hot path: per-request site-visit cost "
                             "(measured differentially against an empty "
                             "loop) over the median recommend latency; "
                             "blocking when the ratio exceeds "
                             "--max-faults-overhead")
    parser.add_argument("--max-faults-overhead", type=float, default=0.02,
                        dest="max_faults_overhead",
                        help="max allowed fractional slowdown from the "
                             "disabled failpoint plane on the hot path "
                             "(default: 0.02 = 2%%)")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")
    args = parser.parse_args(argv)

    ratings = synthetic_yahoo_music(
        n_users=args.users, n_items=args.items, rng=args.seed
    )
    sparse = (
        SparseStore.from_matrix(ratings)
        if args.store in {"sparse", "both"}
        else None
    )
    engines = {name: FormationEngine(name) for name in ("reference", "numpy")}
    instance = f"{args.users}x{args.items}, l={args.groups}, k={args.k}"

    failures = []
    entries = []
    for figure, semantics in (("fig4", "lm"), ("fig6", "av")):
        timings = {}
        results = {}
        for name, engine in engines.items():
            timings[name], results[name] = best_time(
                engine, ratings, args.groups, args.k, semantics, rounds=args.rounds
            )
            entries.append(bench_entry(
                f"{figure} {instance}", timings[name], backend=name, store="dense",
                semantics=semantics,
            ))
        speedup = timings["reference"] / timings["numpy"]
        status = "ok"
        if not results_identical(results["reference"], results["numpy"]):
            status = "PARITY MISMATCH"
            failures.append(f"{figure}: backends disagree on results")
        elif speedup < args.min_speedup:
            status = "TOO SLOW"
            failures.append(
                f"{figure}: numpy speedup {speedup:.2f}x < required "
                f"{args.min_speedup:.2f}x"
            )
        print(
            f"{figure} GRD-{semantics.upper()}-MIN "
            f"({instance}): "
            f"reference {timings['reference'] * 1000:7.1f} ms | "
            f"numpy {timings['numpy'] * 1000:7.1f} ms | "
            f"speedup {speedup:5.2f}x | {status}"
        )

        if sparse is not None:
            sparse_seconds, sparse_result = best_time(
                engines["numpy"], sparse, args.groups, args.k, semantics,
                rounds=args.rounds,
            )
            entries.append(bench_entry(
                f"{figure} {instance}", sparse_seconds, backend="numpy",
                store="sparse", semantics=semantics,
            ))
            slowdown = sparse_seconds / timings["numpy"]
            status = "ok"
            if not results_identical(results["numpy"], sparse_result):
                status = "PARITY MISMATCH"
                failures.append(f"{figure}: sparse store disagrees with dense")
            elif slowdown > args.max_sparse_slowdown:
                status = "TOO SLOW"
                failures.append(
                    f"{figure}: sparse store {slowdown:.2f}x slower than dense "
                    f"(limit {args.max_sparse_slowdown:.2f}x)"
                )
            print(
                f"{figure} GRD-{semantics.upper()}-MIN sparse store: "
                f"{sparse_seconds * 1000:7.1f} ms | {slowdown:5.2f}x dense | {status}"
            )

    if args.kernel_gate:
        from bench_kernels import numpy_top_k

        from repro.core import TopKIndex, kernels
        from repro.core.engine import coerce_store

        store = coerce_store(ratings)
        paths = ["numpy"]
        if kernels.parallel_available():
            paths.append("compiled")
        else:
            from repro.core import kernels_cc

            reason = kernels_cc.unavailable_reason() or "unknown"
            print(f"kernels: compiled leg skipped ({reason}); "
                  f"numpy-vs-reference parity still runs")

        def kernel_stages():
            index = TopKIndex.build(store, args.k)
            items_table, scores_table = index.top_k(args.k)
            kernels.bucketize(items_table, scores_table, "last")

        kernel_runs = {}
        stage_seconds = {}
        for path in paths:
            with numpy_top_k() if path == "numpy" else contextlib.nullcontext():
                stage_seconds[path], _ = best_seconds(
                    kernel_stages, rounds=args.rounds
                )
                kernel_runs[path] = {
                    semantics: engines["numpy"].run(
                        ratings, args.groups, args.k, semantics, "min"
                    )
                    for semantics in ("lm", "av")
                }
            entries.append(bench_entry(
                f"kernel stages {instance}", stage_seconds[path], backend="numpy",
                store="dense", kernels=path, stage="index_build+bucketing",
                threads=kernels.get_kernel_threads() if path == "compiled" else None,
            ))
        status = "ok"
        for path in paths:
            for semantics in ("lm", "av"):
                expected = engines["reference"].run(
                    ratings, args.groups, args.k, semantics, "min"
                )
                if not results_identical(expected, kernel_runs[path][semantics]):
                    status = "PARITY MISMATCH"
                    failures.append(
                        f"kernels: {path} top-k path disagrees with the "
                        f"reference backend (GRD-{semantics.upper()}-MIN)"
                    )
        cells = [f"{path} {stage_seconds[path] * 1000:7.1f} ms" for path in paths]
        if "compiled" in stage_seconds:
            speedup = stage_seconds["numpy"] / stage_seconds["compiled"]
            cells.append(f"compiled speedup {speedup:5.2f}x (recorded)")
        print(f"kernels ({instance}): " + " | ".join(cells) + f" | {status}")

    path = write_bench_json("regression", entries)
    print(f"\ntimings written to {path}")

    if args.service:
        # Non-blocking: the service bench reports its own trend numbers and
        # writes BENCH_service.json; a slow run never fails this gate.
        print("\nservice trend (non-blocking):")
        import bench_service_updates

        try:
            bench_service_updates.main([
                "--users", str(max(args.users, 2000)),
                "--items", str(args.items),
                "--batches", "3",
                "--batch-size", "200",
                "--requests", "12",
                "--event-batches", "4",
                "--event-batch-size", "100",
                "--min-speedup", "0",
            ])
        except Exception as exc:  # noqa: BLE001 - trend-only, never gate
            print(f"service trend bench failed (non-blocking): {exc}",
                  file=sys.stderr)

        # Replica load harness: throughput/latency are trend-only, but the
        # replica-parity leg inside the bench is blocking — replicas that
        # compute different answers are a correctness bug.
        print("\nreplica load harness (parity blocking, scaling trend):")
        import bench_load

        try:
            load_rc = bench_load.main([
                "--users", "300",
                "--items", "60",
                "--replicas", "0,2",
                "--clients", "4",
                "--requests", "6",
                "--subsets", "8",
                "--min-scaling", "0",
            ])
        except Exception as exc:  # noqa: BLE001 - harness crash = gate fail
            load_rc = 1
            print(f"load harness crashed: {exc}", file=sys.stderr)
        if load_rc != 0:
            failures.append(
                "replica serving failed the load harness (parity with "
                "single-process serving is blocking)"
            )

    if args.obs_overhead:
        # Telemetry-cost gate: the metrics plumbing on the recommend hot
        # path must cost <= --max-obs-overhead when enabled.  End-to-end
        # A/B wall-clock timing cannot gate this honestly on a shared CI
        # box: A/A runs of an interleaved, order-balanced leg protocol
        # swing by +-2% — the same magnitude as the threshold.  So the
        # gate measures the two factors separately and combines them:
        #
        # * the median end-to-end recommend latency over cache-busting
        #   subset reads (every request names a distinct subset and the
        #   subset count exceeds the result memo, so each one computes);
        # * the per-request cost of the exact instrumentation sequence
        #   the recommend path executes (one counter inc + the two fused
        #   span/histogram blocks — see the mutation audit in
        #   docs/observability.md), timed differentially: a tight loop
        #   with metrics enabled minus the identical loop disabled.
        #
        # overhead = instrumentation_cost / median_latency — the
        # throughput delta attributable to telemetry, with engine noise
        # factored out of the numerator.
        import time as _time

        import numpy as np

        from _timing import merge_bench_json

        from repro.obs.registry import (
            H_KERNEL_BUCKETIZE,
            H_RECOMMEND,
            K_KERNEL_BUCKETIZE_CALLS,
            K_REQUESTS,
            set_enabled,
        )
        from repro.obs.runtime import observed
        from repro.recsys import DenseStore
        from repro.service import FormationService

        print("\ntelemetry overhead gate:")
        service = FormationService(
            DenseStore(ratings.values, scale=ratings.scale), k_max=args.k
        )
        obs_registry = service.metrics
        rng = np.random.default_rng(args.seed + 2015)
        subset_size = max(8, min(64, args.users // 4))
        n_subsets = 160  # > the result memo (128): every request computes
        subsets = [
            np.sort(rng.choice(args.users, size=subset_size, replace=False)).tolist()
            for _ in range(n_subsets)
        ]

        def obs_request_times() -> list:
            times = []
            for subset in subsets:
                t0 = _time.perf_counter()
                service.recommend(k=args.k, max_groups=args.groups,
                                  user_ids=subset)
                times.append(_time.perf_counter() - t0)
            return times

        def obs_instrumentation_seconds(reps: int) -> float:
            t0 = _time.perf_counter()
            for _ in range(reps):
                obs_registry.inc(K_REQUESTS)
                with observed("kernel.bucketize", H_KERNEL_BUCKETIZE,
                              counter=K_KERNEL_BUCKETIZE_CALLS,
                              registry=obs_registry):
                    pass
                with observed("service.recommend", H_RECOMMEND,
                              registry=obs_registry):
                    pass
            return _time.perf_counter() - t0

        obs_reps = 20000
        try:
            obs_request_times()  # warm (allocator, numpy, code paths)
            latencies = sorted(obs_request_times())
            median_latency = latencies[len(latencies) // 2]
            obs_cost = {True: float("inf"), False: float("inf")}
            for _ in range(max(args.rounds, 3)):
                for obs_on in (True, False):
                    set_enabled(obs_on)
                    obs_cost[obs_on] = min(
                        obs_cost[obs_on], obs_instrumentation_seconds(obs_reps)
                    )
        finally:
            set_enabled(True)
            service.close()
        per_request = max(0.0, (obs_cost[True] - obs_cost[False]) / obs_reps)
        obs_overhead = per_request / median_latency
        status = "ok"
        if obs_overhead > args.max_obs_overhead:
            status = "TOO SLOW"
            failures.append(
                f"telemetry: enabled-metrics overhead "
                f"{obs_overhead * 100:.2f}% > allowed "
                f"{args.max_obs_overhead * 100:.2f}% on the recommend hot path"
            )
        print(
            f"recommend hot path ({n_subsets} subset reads of "
            f"{subset_size} users): "
            f"median request {median_latency * 1000:7.3f} ms | "
            f"instrumentation {per_request * 1e6:5.2f} us/request | "
            f"overhead {obs_overhead * 100:+.2f}% | {status}"
        )
        obs_path = merge_bench_json("service", [
            bench_entry(
                f"obs overhead {instance}", median_latency, backend="numpy",
                store="dense", metric="obs_recommend_median",
                requests=n_subsets, obs_overhead=obs_overhead,
            ),
            bench_entry(
                f"obs overhead {instance}", per_request, backend="numpy",
                store="dense", metric="obs_instrumentation_per_request",
            ),
        ], "obs_")
        print(f"telemetry overhead written to {obs_path}")

    if args.faults_overhead:
        # Failpoint-cost gate: with no schedule configured, every
        # fault_fire/fault_check must be a near-free early return — the
        # plane ships in production builds and sits on the WAL, pipeline
        # and dispatch hot paths.  Same two-factor methodology as the
        # telemetry gate: the median end-to-end recommend latency over
        # cache-busting subset reads, and the per-request cost of the
        # site-visit sequence a durable write performs (the densest
        # failpoint traffic any request generates), timed differentially
        # against an empty loop of the same shape.
        import time as _time

        import numpy as np

        from _timing import merge_bench_json

        from repro import faults as _faults
        from repro.recsys import DenseStore
        from repro.service import FormationService

        print("\nfailpoint overhead gate (plane disabled):")
        _faults.reset()
        service = FormationService(
            DenseStore(ratings.values, scale=ratings.scale), k_max=args.k
        )
        rng = np.random.default_rng(args.seed + 2015)
        subset_size = max(8, min(64, args.users // 4))
        n_subsets = 160  # > the result memo (128): every request computes
        subsets = [
            np.sort(rng.choice(args.users, size=subset_size, replace=False)).tolist()
            for _ in range(n_subsets)
        ]

        def fault_request_times() -> list:
            times = []
            for subset in subsets:
                t0 = _time.perf_counter()
                service.recommend(k=args.k, max_groups=args.groups,
                                  user_ids=subset)
                times.append(_time.perf_counter() - t0)
            return times

        fire, chk = _faults.fire, _faults.check

        def fault_site_visit_seconds(reps: int) -> float:
            t0 = _time.perf_counter()
            for _ in range(reps):
                chk("http.dispatch")
                fire("wal.append")
                fire("wal.fsync")
                fire("pipeline.apply")
            return _time.perf_counter() - t0

        def empty_loop_seconds(reps: int) -> float:
            t0 = _time.perf_counter()
            for _ in range(reps):
                pass
            return _time.perf_counter() - t0

        fault_reps = 20000
        try:
            fault_request_times()  # warm (allocator, numpy, code paths)
            latencies = sorted(fault_request_times())
            median_latency = latencies[len(latencies) // 2]
            visit_cost = {True: float("inf"), False: float("inf")}
            for _ in range(max(args.rounds, 3)):
                visit_cost[True] = min(
                    visit_cost[True], fault_site_visit_seconds(fault_reps)
                )
                visit_cost[False] = min(
                    visit_cost[False], empty_loop_seconds(fault_reps)
                )
        finally:
            service.close()
        per_request = max(
            0.0, (visit_cost[True] - visit_cost[False]) / fault_reps
        )
        faults_ratio = per_request / median_latency
        status = "ok"
        if faults_ratio > args.max_faults_overhead:
            status = "TOO SLOW"
            failures.append(
                f"failpoints: disabled-plane overhead "
                f"{faults_ratio * 100:.2f}% > allowed "
                f"{args.max_faults_overhead * 100:.2f}% on the hot path"
            )
        print(
            f"recommend hot path ({n_subsets} subset reads of "
            f"{subset_size} users): "
            f"median request {median_latency * 1000:7.3f} ms | "
            f"disabled site visits {per_request * 1e6:5.2f} us/request | "
            f"overhead {faults_ratio * 100:+.2f}% | {status}"
        )
        faults_path = merge_bench_json("faults", [
            bench_entry(
                f"faults overhead {instance}", median_latency,
                backend="numpy", store="dense",
                metric="overhead_recommend_median",
                requests=n_subsets, faults_overhead=faults_ratio,
            ),
            bench_entry(
                f"faults overhead {instance}", per_request, backend="numpy",
                store="dense", metric="overhead_site_visits_per_request",
            ),
        ], "overhead_")
        print(f"failpoint overhead written to {faults_path}")

    if failures:
        print("\nFAIL:", "; ".join(failures), file=sys.stderr)
        return 1
    print("OK: all gated paths are bit-identical and within their time budgets "
          f"(numpy >= {args.min_speedup:.2f}x reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
