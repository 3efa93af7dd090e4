#!/usr/bin/env python
"""Closed-loop load harness: serving throughput/latency vs replica count.

For each requested replica count this harness boots a real ``repro
serve`` subprocess (``0`` replicas = the single-process baseline), then:

* **parity leg (blocking)** — replays a deterministic script of
  recommend requests and event batches and asserts every response is
  bit-identical to the single-process baseline at the same index version
  (serving bookkeeping stripped via
  :func:`repro.service.pool.canonical_response`).  Replicas that compute
  anything different from the writer are a correctness bug, not a perf
  trade-off, so a mismatch fails the bench regardless of throughput.
* **load leg** — N closed-loop client threads issue mixed traffic
  (``--read-ratio`` recommend requests, the rest event batches) until
  each has completed its quota.  Reads cycle through a pool of distinct
  ``user_ids`` subsets larger than the service's result memo, so the
  replicas do real formation work instead of answering from cache.
  Records read throughput and p50/p99 latency.
* **telemetry cross-check (blocking)** — the server's ``/v1/metrics``
  histograms are scraped before and after the load leg; the delta's
  p50/p99 must land within one log-spaced bucket of the client-observed
  percentiles, and (with replicas) the queue-wait vs replica-service
  mean split is recorded as ``load_latency_split``.

Results land in ``BENCH_service.json`` under the ``load_`` metric
namespace (merged, so the update/recovery bench's entries survive):
``load_read_throughput`` (``requests_per_second``, plus ``writes`` and
wall ``seconds``), ``load_read_p50`` and ``load_read_p99`` (latency
seconds), one triple per replica count, each entry carrying
``replicas``, ``clients`` and ``read_ratio``.

The scaling gate — best multi-replica read throughput must exceed the
single-process baseline — is enforced when the bench host has more than
one usable core.  On a single-core host replica parallelism cannot beat
one process on compute-bound reads (there is literally one core to run
either way); the gate is then recorded as ``physical_cap`` and reported,
keeping the parity gate blocking everywhere.  ``--min-scaling`` overrides
(``0`` disables, values > 1 tighten).

CI runs this at a tiny scale through ``check_regression.py --service``;
the acceptance-scale run is::

    PYTHONPATH=src python benchmarks/bench_load.py

"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from _timing import bench_entry, merge_bench_json

from repro.obs.registry import LATENCY_BUCKETS, bucket_index, bucket_quantile
from repro.service.pool import canonical_response


def percentile(samples, q):
    """Nearest-rank percentile of a sample list."""
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, int(round(q / 100 * len(ordered) - 0.5))))
    return ordered[idx]


def fetch_metrics(port: int) -> dict:
    """Scrape the server's ``/v1/metrics`` JSON exposition."""
    url = f"http://127.0.0.1:{port}/v1/metrics?format=json"
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def hist_delta(before: dict, after: dict, key: str) -> dict:
    """Per-bucket delta of one histogram between two metric scrapes.

    The registry's counters are monotonic, so the difference isolates
    exactly the observations made between the scrapes — here, the load
    leg — regardless of what the parity script did earlier.
    """
    b = before["histograms"][key]
    a = after["histograms"][key]
    counts = [ab[1] - bb[1] for ab, bb in zip(a["buckets"], b["buckets"])]
    counts.append(a["overflow"] - b["overflow"])
    return {
        "counts": counts,
        "count": a["count"] - b["count"],
        "sum": a["sum"] - b["sum"],
    }


def cross_check_latency(client_p50: float, client_p99: float,
                        delta: dict, failures: list[str],
                        label: str) -> dict:
    """Require client- and server-side p50/p99 to land within one bucket.

    The server histogram has fixed log-spaced buckets, so the strongest
    honest claim is bucket-level agreement: the client-side percentile
    must fall in the same bucket as the server-side one, or an adjacent
    one (timestamps straddle the socket, so exact agreement is not
    guaranteed).  A larger gap means the exposition is lying about the
    latency distribution — that fails the bench.
    """
    report = {"server_count": delta["count"]}
    if delta["count"] <= 0:
        failures.append(
            f"{label}: server recommend histogram recorded no observations "
            f"during the load leg"
        )
        return report
    for name, q, client_value in (("p50", 0.5, client_p50),
                                  ("p99", 0.99, client_p99)):
        server_bound = bucket_quantile(delta["counts"], q)
        report[f"server_{name}_le"] = server_bound
        if server_bound is None:  # overflow bucket: cannot localise
            continue
        server_idx = LATENCY_BUCKETS.index(server_bound)
        client_idx = bucket_index(client_value)
        report[f"{name}_bucket_gap"] = abs(client_idx - server_idx)
        if abs(client_idx - server_idx) > 1:
            failures.append(
                f"{label}: client {name} {client_value * 1000:.2f} ms "
                f"(bucket {client_idx}) vs server histogram {name} "
                f"<= {server_bound * 1000:.2f} ms (bucket {server_idx}) "
                f"disagree by more than one bucket"
            )
    return report


def usable_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def start_server(args: argparse.Namespace, replicas: int):
    """Boot one ``repro serve`` subprocess and wait for its port.

    Returns ``(process, port)``; the caller stops it with
    :func:`stop_server`.
    """
    cmd = [
        sys.executable, "-m", "repro.service.cli", "serve",
        "--users", str(args.users), "--items", str(args.items),
        "--store", args.store, "--seed", str(args.seed),
        "--k-max", str(args.k_max),
        "--port", "0", "--batch-window", "0.005",
    ]
    if replicas:
        cmd += ["--replicas", str(replicas),
                "--replica-inflight", str(args.replica_inflight),
                "--queue-depth", str(args.queue_depth)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    port = None
    deadline = time.time() + 60
    while time.time() < deadline and port is None:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            break
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
    if port is None:
        proc.kill()
        raise RuntimeError(f"server with {replicas} replicas never came up")
    return proc, port


def stop_server(proc) -> None:
    """SIGTERM the server and require a clean (exit 0) shutdown."""
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    tail = proc.stdout.read()
    if rc != 0 or "Traceback" in tail:
        raise RuntimeError(f"server exited uncleanly (rc={rc}):\n{tail}")


def post(port: int, path: str, body: dict, timeout: float = 60.0) -> dict:
    """POST a JSON body and return the parsed JSON response."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as response:
        return json.load(response)


def make_subsets(args: argparse.Namespace) -> list[list[int]]:
    """Deterministic pool of distinct ``user_ids`` subsets for read traffic.

    More subsets than the service's result memo (128 entries), so cycling
    through them keeps reads compute-bound instead of cache-bound.
    """
    import numpy as np

    rng = np.random.default_rng(args.seed + 17)
    size = max(8, min(64, args.users // 4))
    return [
        sorted(rng.choice(args.users, size=size, replace=False).tolist())
        for _ in range(args.subsets)
    ]


def script_events(args: argparse.Namespace, batch: int) -> list[dict]:
    """The deterministic event batch ``batch`` of the parity script."""
    import numpy as np

    rng = np.random.default_rng(args.seed + 1000 + batch)
    return [
        {
            "kind": "rating",
            "user": int(rng.integers(0, args.users)),
            "item": int(rng.integers(0, args.items)),
            "score": float(rng.integers(1, 6)),
        }
        for _ in range(32)
    ]


def parity_trace(port: int, args: argparse.Namespace,
                 subsets: list[list[int]]) -> list[dict]:
    """Replay the deterministic read/write script; return canonical reads.

    The script interleaves whole-population reads, subset reads and event
    batches; each read's canonical response (bookkeeping stripped, index
    version kept) must match the single-process baseline bit for bit.
    """
    trace = []

    def read(user_ids=None):
        payload = post(port, "/v1/recommend", {
            "k": args.k, "max_groups": args.groups, "user_ids": user_ids,
        })
        trace.append(canonical_response(payload))

    read()
    for i in range(3):
        read(subsets[i % len(subsets)])
    for batch in range(3):
        post(port, "/v1/events", {"events": script_events(args, batch)})
        read()
        read(subsets[(3 + batch) % len(subsets)])
    return trace


def run_load(port: int, args: argparse.Namespace,
             subsets: list[list[int]]) -> dict:
    """The closed-loop mixed load; returns throughput/latency figures."""
    read_latencies: list[float] = []
    writes = 0
    errors: list[str] = []
    lock = threading.Lock()

    def client(client_id: int) -> None:
        nonlocal writes
        import numpy as np

        rng = np.random.default_rng(args.seed + 31 * (client_id + 1))
        local_reads: list[float] = []
        local_writes = 0
        for i in range(args.requests):
            try:
                if rng.random() < args.read_ratio:
                    subset = subsets[int(rng.integers(0, len(subsets)))]
                    t0 = time.perf_counter()
                    post(port, "/v1/recommend", {
                        "k": args.k, "max_groups": args.groups,
                        "user_ids": subset,
                    })
                    local_reads.append(time.perf_counter() - t0)
                else:
                    post(port, "/v1/events", {"events": [{
                        "kind": "rating",
                        "user": int(rng.integers(0, args.users)),
                        "item": int(rng.integers(0, args.items)),
                        "score": float(rng.integers(1, 6)),
                    }]})
                    local_writes += 1
            except Exception as exc:  # noqa: BLE001 - collected, reported
                with lock:
                    errors.append(f"client {client_id} request {i}: {exc}")
                return
        with lock:
            read_latencies.extend(local_reads)
            writes += local_writes

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(args.clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    if errors:
        raise RuntimeError("load clients failed: " + "; ".join(errors[:3]))
    return {
        "seconds": seconds,
        "reads": len(read_latencies),
        "writes": writes,
        "read_throughput": len(read_latencies) / seconds,
        "p50": percentile(read_latencies, 50),
        "p99": percentile(read_latencies, 99),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=2000,
                        help="instance size in users (default: 2000)")
    parser.add_argument("--items", type=int, default=300,
                        help="instance size in items (default: 300)")
    parser.add_argument("--store", default="dense",
                        choices=["dense", "sparse"],
                        help="rating storage (default: dense)")
    parser.add_argument("--k-max", type=int, default=20, dest="k_max",
                        help="index width (default: 20)")
    parser.add_argument("--k", type=int, default=10,
                        help="recommend request k (default: 10)")
    parser.add_argument("--groups", type=int, default=16,
                        help="recommend group budget (default: 16)")
    parser.add_argument("--replicas", default="0,1,2",
                        help="comma-separated replica counts to sweep "
                             "(0 = single-process baseline; default: 0,1,2)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads (default: 8)")
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per client (default: 40)")
    parser.add_argument("--read-ratio", type=float, default=0.9,
                        dest="read_ratio",
                        help="fraction of requests that are reads "
                             "(default: 0.9)")
    parser.add_argument("--subsets", type=int, default=160,
                        help="distinct user_ids subsets the reads cycle "
                             "through; > the 128-entry result memo keeps "
                             "reads compute-bound (default: 160)")
    parser.add_argument("--replica-inflight", type=int, default=2,
                        dest="replica_inflight",
                        help="per-replica in-flight cap (default: 2)")
    parser.add_argument("--queue-depth", type=int, default=256,
                        dest="queue_depth",
                        help="routing queue depth (default: 256)")
    parser.add_argument("--min-scaling", type=float, default=1.0,
                        dest="min_scaling",
                        help="required best-multi-replica/single-process "
                             "read-throughput ratio on multi-core hosts "
                             "(default: 1.0; 0 disables the gate)")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args(argv)

    replica_counts = [int(r) for r in str(args.replicas).split(",") if r != ""]
    if 0 not in replica_counts:
        replica_counts = [0] + replica_counts
    instance = (
        f"{args.users}x{args.items} {args.store}, k_max={args.k_max}, "
        f"clients={args.clients}"
    )
    cores = usable_cores()
    print(f"bench_load: {instance} ({cores} usable cores)")
    subsets = make_subsets(args)

    baseline_trace = None
    results: dict[int, dict] = {}
    failures: list[str] = []
    entries: list[dict] = []
    for replicas in replica_counts:
        proc, port = start_server(args, replicas)
        try:
            trace = parity_trace(port, args, subsets)
            if baseline_trace is None:
                baseline_trace = trace
            elif trace != baseline_trace:
                mismatch = sum(
                    1 for a, b in zip(trace, baseline_trace) if a != b
                )
                failures.append(
                    f"{replicas}-replica responses differ from single-process "
                    f"serving in {mismatch}/{len(trace)} scripted reads"
                )
            metrics_before = fetch_metrics(port)
            load = run_load(port, args, subsets)
            metrics_after = fetch_metrics(port)
        finally:
            stop_server(proc)
        recommend_key = 'repro_http_request_seconds{route="recommend"}'
        check = cross_check_latency(
            load["p50"], load["p99"],
            hist_delta(metrics_before, metrics_after, recommend_key),
            failures, f"replicas={replicas}",
        )
        split = {}
        if replicas:
            for metric, key in (("queue_wait", "repro_pool_queue_wait_seconds"),
                                ("service_time",
                                 "repro_pool_replica_call_seconds")):
                d = hist_delta(metrics_before, metrics_after, key)
                if d["count"] > 0:
                    split[f"{metric}_mean"] = d["sum"] / d["count"]
        results[replicas] = load
        parity = "parity ok" if not failures else "PARITY MISMATCH"
        split_text = ""
        if split:
            split_text = " | " + " ".join(
                f"{name.replace('_mean', '')} {value * 1000:.2f} ms"
                for name, value in sorted(split.items())
            )
        print(
            f"  replicas={replicas}: {load['read_throughput']:7.1f} reads/s "
            f"({load['reads']} reads, {load['writes']} writes in "
            f"{load['seconds']:.1f}s) | p50 {load['p50'] * 1000:6.1f} ms | "
            f"p99 {load['p99'] * 1000:6.1f} ms | {parity}{split_text}"
        )
        common = {
            "replicas": replicas,
            "clients": args.clients,
            "read_ratio": args.read_ratio,
        }
        entries.extend([
            bench_entry(instance, load["seconds"], backend="numpy",
                        store=args.store, metric="load_read_throughput",
                        requests_per_second=load["read_throughput"],
                        reads=load["reads"], writes=load["writes"], **common),
            bench_entry(instance, load["p50"], backend="numpy",
                        store=args.store, metric="load_read_p50",
                        k=args.k, max_groups=args.groups,
                        server_p50_le=check.get("server_p50_le"), **common),
            bench_entry(instance, load["p99"], backend="numpy",
                        store=args.store, metric="load_read_p99",
                        k=args.k, max_groups=args.groups,
                        server_p99_le=check.get("server_p99_le"), **common),
        ])
        if split:
            entries.append(
                bench_entry(instance, load["seconds"], backend="numpy",
                            store=args.store, metric="load_latency_split",
                            **split, **common)
            )

    single = results.get(0)
    multi = {r: v for r, v in results.items() if r > 0}
    physical_cap = cores <= 1
    scaling = None
    if single and multi:
        best_replicas, best = max(
            multi.items(), key=lambda item: item[1]["read_throughput"]
        )
        scaling = best["read_throughput"] / single["read_throughput"]
        print(
            f"  scaling: best multi-replica ({best_replicas} replicas) = "
            f"{scaling:.2f}x single-process read throughput"
        )
        if physical_cap:
            print(
                "  note: single-core host — replica parallelism cannot beat "
                "one process on compute-bound reads here; scaling recorded, "
                "not gated (physical_cap)"
            )
        elif args.min_scaling and scaling < args.min_scaling:
            failures.append(
                f"multi-replica read throughput only {scaling:.2f}x the "
                f"single-process baseline (required {args.min_scaling:.2f}x)"
            )
        for entry in entries:
            if entry["metric"] == "load_read_throughput":
                entry["scaling_vs_single"] = scaling
                entry["physical_cap"] = physical_cap

    path = merge_bench_json("service", entries, "load_")
    print(f"  timings written to {path}")

    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    counts = ", ".join(str(r) for r in replica_counts)
    print(f"OK: parity held across replica counts [{counts}]"
          + (f", scaling {scaling:.2f}x" if scaling is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
