#!/usr/bin/env python
"""Chaos harness: seeded fault schedules against a real ``repro serve``.

Four legs, each driving a subprocess server through a deterministic fault
schedule (``REPRO_FAULTS`` grammar / replica ``kill -9``) and holding one
**blocking invariant: every successful response must be bit-identical to
fault-free serving** (bookkeeping stripped via
:func:`repro.service.pool.canonical_response`).  Faults may cost
availability — they must never change an answer.

* **read_parity** — scripted reads against ``--replicas 2`` while replica
  workers are SIGKILLed at scripted points; every answered read must match
  the single-process reference, and the pool must return to full strength.
* **degraded** — ``wal.fsync=enospc@window:2:3`` breaks the disk under a
  durable writer: the failed write gets a structured ``503
  degraded_read_only``, reads keep serving, ``/v1/healthz`` exposes the
  state machine, and the probe auto-recovers.  Final state must equal a
  fault-free server that applied exactly the *acknowledged* writes.
* **torn_tail** — ``kill -9`` on a durable server, garbage appended to the
  WAL tail, restart: recovery must land on the acknowledged state, with
  the recovery time recorded.
* **crash_loop** — ``pool.spawn=io@window:2:4`` makes the first three
  respawn attempts fail: the loop must be paced by exponential backoff,
  stay within the respawn budget, and recover when the window expires.

Availability, error taxonomy, degraded enter/exit latency and recovery
times land in ``BENCH_faults.json``.  CI runs this at a tiny scale through
``check_regression.py --service``-style smoke; the acceptance run is::

    PYTHONPATH=src python benchmarks/bench_faults.py

"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from _timing import bench_entry, merge_bench_json

from repro.service.pool import canonical_response


def _serve_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def start_server(args: argparse.Namespace, extra: list[str],
                 faults: str | None = None):
    """Boot one ``repro serve`` subprocess; return ``(proc, port)``."""
    cmd = [
        sys.executable, "-m", "repro.service.cli", "serve",
        "--users", str(args.users), "--items", str(args.items),
        "--store", args.store, "--seed", str(args.seed),
        "--k-max", str(args.k_max),
        "--port", "0", "--batch-window", "0.005", *extra,
    ]
    if faults:
        cmd += ["--faults", faults, "--faults-seed", str(args.seed)]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_serve_env(),
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
        raise RuntimeError("server never came up")
    return proc, port


def stop_server(proc) -> None:
    """SIGTERM the server and require a clean (exit 0) shutdown."""
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    tail = proc.stdout.read()
    if rc != 0 or "Traceback" in tail:
        raise RuntimeError(f"server exited uncleanly (rc={rc}):\n{tail}")


def request(port: int, path: str, body: dict | None = None,
            timeout: float = 30.0):
    """``(status, payload)`` of one JSON request; HTTP errors decoded."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.load(resp)


class Taxonomy:
    """Success/error bookkeeping for one leg's request stream."""

    def __init__(self) -> None:
        self.successes = 0
        self.errors: dict[str, int] = {}

    def record_error(self, exc: Exception) -> None:
        """Classify one failed request by its structured error code."""
        if isinstance(exc, urllib.error.HTTPError):
            try:
                code = json.load(exc)["error"]["code"]
            except Exception:  # noqa: BLE001 - unstructured error body
                code = f"http_{exc.code}"
            key = f"{exc.code}:{code}"
        else:
            key = "connection"
        self.errors[key] = self.errors.get(key, 0) + 1

    @property
    def total(self) -> int:
        return self.successes + sum(self.errors.values())

    @property
    def availability(self) -> float:
        return self.successes / self.total if self.total else 0.0


def replica_pids(parent_pid: int) -> list[int]:
    """PIDs of a serve process's replica workers (via /proc)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != parent_pid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ")
            if b"tracker" in cmdline:
                continue
            pids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return pids


def read_params(args: argparse.Namespace, i: int) -> dict:
    """The deterministic read request ``i`` of the scripted workload."""
    import numpy as np

    if i % 3 == 0:
        return {"k": args.k, "max_groups": args.groups}
    rng = np.random.default_rng(args.seed + 71 * i)
    size = max(6, min(40, args.users // 5))
    subset = sorted(rng.choice(args.users, size=size, replace=False).tolist())
    return {"k": args.k, "max_groups": args.groups, "user_ids": subset}


def write_body(args: argparse.Namespace, batch: int) -> dict:
    """The deterministic event batch ``batch`` of the scripted workload."""
    import numpy as np

    rng = np.random.default_rng(args.seed + 5000 + batch)
    return {"events": [
        {
            "kind": "rating",
            "user": int(rng.integers(0, args.users)),
            "item": int(rng.integers(0, args.items)),
            "score": float(rng.integers(1, 6)),
        }
        for _ in range(16)
    ]}


def wait_for(predicate, timeout: float, message: str) -> float:
    """Poll ``predicate`` until truthy; return the seconds it took."""
    start = time.monotonic()
    deadline = start + timeout
    while True:
        if predicate():
            return time.monotonic() - start
        if time.monotonic() > deadline:
            raise RuntimeError(message)
        time.sleep(0.05)


# --------------------------------------------------------------------- #
# Legs
# --------------------------------------------------------------------- #


def leg_read_parity(args, failures, entries) -> None:
    """Replica kills under scripted reads: answered == fault-free, always."""
    n_reads = args.reads
    proc, port = start_server(args, [])
    try:
        reference = [
            canonical_response(request(port, "/v1/recommend",
                                       read_params(args, i))[1])
            for i in range(n_reads)
        ]
    finally:
        stop_server(proc)

    proc, port = start_server(args, ["--replicas", "2",
                                     "--heartbeat-interval", "0.1"])
    taxonomy = Taxonomy()
    kills = 0
    mismatches = 0
    start = time.monotonic()
    try:
        kill_points = {n_reads // 3, (2 * n_reads) // 3}
        for i in range(n_reads):
            if i in kill_points:
                victims = replica_pids(proc.pid)
                if victims:
                    os.kill(victims[kills % len(victims)], signal.SIGKILL)
                    kills += 1
            try:
                _, payload = request(port, "/v1/recommend",
                                     read_params(args, i))
            except Exception as exc:  # noqa: BLE001 - taxonomy records it
                taxonomy.record_error(exc)
                continue
            taxonomy.successes += 1
            if canonical_response(payload) != reference[i]:
                mismatches += 1
        recovery = wait_for(
            lambda: request(port, "/v1/stats")[1]["pool"]["alive"] == 2,
            30, "pool never returned to full strength",
        )
        pool = request(port, "/v1/stats")[1]["pool"]
    finally:
        stop_server(proc)
    seconds = time.monotonic() - start
    if mismatches:
        failures.append(
            f"read_parity: {mismatches}/{taxonomy.successes} answered reads "
            f"differ from fault-free serving"
        )
    print(
        f"  read_parity: {taxonomy.successes}/{taxonomy.total} answered "
        f"({taxonomy.availability * 100:.1f}%) across {kills} replica kills | "
        f"respawns {pool['respawns']} | errors {taxonomy.errors or 'none'}"
    )
    entries.append(bench_entry(
        args.instance, seconds, backend="numpy", store=args.store,
        metric="read_parity_availability", availability=taxonomy.availability,
        answered=taxonomy.successes, requests=taxonomy.total,
        replica_kills=kills, respawns=pool["respawns"],
        pool_recovery_seconds=recovery, errors=taxonomy.errors,
        parity_mismatches=mismatches,
    ))


def leg_degraded(args, failures, entries, wal_root: Path) -> None:
    """ENOSPC window on WAL fsync: 503 writes, live reads, auto-recovery."""
    wal_dir = wal_root / "degraded"
    durable = ["--wal-dir", str(wal_dir), "--fsync-every", "1",
               "--degraded-probe-interval", "0.1"]
    taxonomy = Taxonomy()
    acked_batches: list[int] = []
    proc, port = start_server(args, durable,
                              faults="wal.fsync=enospc@window:2:3")
    try:
        # Write 1 lands (fsync hit 1); write 2 hits the ENOSPC window.
        status, _ = request(port, "/v1/events", write_body(args, 0))
        assert status == 200
        acked_batches.append(0)
        taxonomy.successes += 1

        t_fail = time.monotonic()
        try:
            request(port, "/v1/events", write_body(args, 1))
            failures.append("degraded: the broken-disk write was accepted")
        except urllib.error.HTTPError as exc:
            payload = json.load(exc)
            code = payload.get("error", {}).get("code", f"http_{exc.code}")
            key = f"{exc.code}:{code}"
            taxonomy.errors[key] = taxonomy.errors.get(key, 0) + 1
            if exc.code != 503 or payload["error"]["code"] != "degraded_read_only":
                failures.append(
                    f"degraded: expected 503 degraded_read_only, got "
                    f"{exc.code} {payload}"
                )
        _, health = request(port, "/v1/healthz")
        enter_latency = time.monotonic() - t_fail
        if health["state"] != "degraded_read_only":
            failures.append(f"degraded: healthz state {health['state']!r} "
                            f"while writes were failing")

        # Reads keep serving while the writer is fenced.
        _, read_payload = request(port, "/v1/recommend", read_params(args, 0))
        taxonomy.successes += 1

        recovery = wait_for(
            lambda: request(port, "/v1/healthz")[1]["state"] == "ok",
            30, "degraded mode never auto-recovered",
        )
        status, _ = request(port, "/v1/events", write_body(args, 2))
        assert status == 200
        acked_batches.append(2)
        taxonomy.successes += 1
        final = canonical_response(
            request(port, "/v1/recommend", read_params(args, 0))[1]
        )
        _, metrics = request(port, "/v1/metrics?format=json")
        transitions = {
            d: metrics["counters"].get(
                f'repro_degraded_transitions_total{{direction="{d}"}}', 0)
            for d in ("enter", "exit")
        }
        injected = metrics["counters"].get("repro_faults_injected_total", 0)
    finally:
        stop_server(proc)

    if transitions != {"enter": 1, "exit": 1}:
        failures.append(f"degraded: transition counters {transitions} != "
                        f"one enter + one exit")

    # No wrong answers: a fault-free server that applies exactly the
    # acknowledged writes must answer the final read bit-identically.
    proc, port = start_server(args, [])
    try:
        for batch in acked_batches:
            request(port, "/v1/events", write_body(args, batch))
        reference = canonical_response(
            request(port, "/v1/recommend", read_params(args, 0))[1]
        )
    finally:
        stop_server(proc)
    if final != reference:
        failures.append(
            "degraded: state after recovery differs from a fault-free "
            "server that applied exactly the acknowledged writes"
        )
    print(
        f"  degraded: enter {enter_latency * 1000:.0f} ms after failed "
        f"write, recovered in {recovery:.2f}s | transitions {transitions} | "
        f"injected {injected} | errors {taxonomy.errors}"
    )
    entries.append(bench_entry(
        args.instance, recovery, backend="numpy", store=args.store,
        metric="degraded_recovery", enter_latency_seconds=enter_latency,
        transitions=transitions, faults_injected=injected,
        acked_writes=len(acked_batches), errors=taxonomy.errors,
        availability=taxonomy.availability,
    ))


def leg_torn_tail(args, failures, entries, wal_root: Path) -> None:
    """kill -9 + garbage on the WAL tail: restart recovers acked state."""
    wal_dir = wal_root / "torn"
    durable = ["--wal-dir", str(wal_dir), "--fsync-every", "1"]
    proc, port = start_server(args, durable)
    try:
        for batch in range(5):
            status, _ = request(port, "/v1/events", write_body(args, batch))
            assert status == 200
        before = canonical_response(
            request(port, "/v1/recommend", read_params(args, 0))[1]
        )
    finally:
        proc.kill()  # the crash: no flush, no graceful shutdown
        proc.wait(timeout=30)

    segments = sorted((wal_dir / "wal").glob("wal-*.log"))
    assert segments, "durable server left no WAL segments"
    with segments[-1].open("ab") as handle:
        handle.write(b"\xde\xad\xbe\xef" * 16)  # torn garbage past the tail

    t_restart = time.monotonic()
    proc, port = start_server(args, durable)
    try:
        recovery = time.monotonic() - t_restart
        _, health = request(port, "/v1/healthz")
        after = canonical_response(
            request(port, "/v1/recommend", read_params(args, 0))[1]
        )
    finally:
        stop_server(proc)
    if health["state"] != "ok" or not health["durable"]:
        failures.append(f"torn_tail: unhealthy after restart: {health}")
    if after != before:
        failures.append(
            "torn_tail: recovered state differs from the acknowledged "
            "pre-crash state"
        )
    print(f"  torn_tail: 5 acked writes survived kill -9 + garbled tail | "
          f"restart to serving in {recovery:.2f}s")
    entries.append(bench_entry(
        args.instance, recovery, backend="numpy", store=args.store,
        metric="torn_tail_recovery", acked_writes=5,
        garbage_bytes=64, parity_ok=after == before,
    ))


def leg_crash_loop(args, failures, entries) -> None:
    """Spawn faults crash the respawn loop: backoff-paced, budget-capped."""
    proc, port = start_server(
        args,
        ["--replicas", "1", "--heartbeat-interval", "0.05",
         "--respawn-backoff", "0.05", "--respawn-max-backoff", "0.5",
         "--respawn-budget", "10", "--respawn-min-uptime", "600"],
        faults="pool.spawn=io@window:2:4",
    )
    taxonomy = Taxonomy()
    try:
        _, payload = request(port, "/v1/recommend", read_params(args, 1))
        baseline = canonical_response(payload)
        victims = replica_pids(proc.pid)
        assert len(victims) == 1
        t_kill = time.monotonic()
        os.kill(victims[0], signal.SIGKILL)
        # Spawn hits 2..4 fail by schedule; hit 5 succeeds: exactly one
        # respawn after exactly three backoff-paced failures.
        recovery = wait_for(
            lambda: request(port, "/v1/stats")[1]["pool"]["respawns"] >= 1,
            30, "crash loop never recovered",
        )
        pool = request(port, "/v1/stats")[1]["pool"]
        for i in range(4):
            try:
                _, payload = request(port, "/v1/recommend",
                                     read_params(args, 1))
            except Exception as exc:  # noqa: BLE001 - taxonomy records it
                taxonomy.record_error(exc)
                continue
            taxonomy.successes += 1
            if canonical_response(payload) != baseline:
                failures.append("crash_loop: post-recovery read differs "
                                "from pre-crash serving")
        _, metrics = request(port, "/v1/metrics?format=json")
        backoff_hist = metrics["histograms"].get(
            "repro_pool_respawn_backoff_seconds", {"count": 0, "sum": 0.0})
    finally:
        stop_server(proc)
    elapsed = time.monotonic() - t_kill
    if pool["respawn_failures"] != 3:
        failures.append(
            f"crash_loop: expected exactly 3 failed bring-ups from the "
            f"window:2:4 schedule, saw {pool['respawn_failures']}"
        )
    if pool["respawns"] != 1:
        failures.append(f"crash_loop: {pool['respawns']} respawns != 1")
    if pool["respawn_failures"] + pool["respawns"] > 10:
        failures.append("crash_loop: attempts exceeded the respawn budget")
    # Backoff pacing: attempts at +0, +~0.05, +~0.1, +~0.2 — the loop
    # must not have burned through its four attempts instantaneously.
    if backoff_hist["sum"] < 0.3:
        failures.append(
            f"crash_loop: scheduled backoff sums to {backoff_hist['sum']:.3f}s"
            f" — the loop was not exponentially paced"
        )
    print(
        f"  crash_loop: {pool['respawn_failures']} failed bring-ups, "
        f"then recovery in {recovery:.2f}s | backoff observations "
        f"{backoff_hist['count']} totalling {backoff_hist['sum']:.2f}s"
    )
    entries.append(bench_entry(
        args.instance, recovery, backend="numpy", store=args.store,
        metric="crash_loop_backoff", respawn_failures=pool["respawn_failures"],
        respawns=pool["respawns"], backoff_attempts=backoff_hist["count"],
        backoff_sum_seconds=backoff_hist["sum"], elapsed_seconds=elapsed,
        errors=taxonomy.errors,
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=300,
                        help="instance size in users (default: 300)")
    parser.add_argument("--items", type=int, default=60,
                        help="instance size in items (default: 60)")
    parser.add_argument("--store", default="dense",
                        choices=["dense", "sparse"],
                        help="rating storage (default: dense)")
    parser.add_argument("--k-max", type=int, default=10, dest="k_max",
                        help="index width (default: 10)")
    parser.add_argument("--k", type=int, default=5,
                        help="recommend request k (default: 5)")
    parser.add_argument("--groups", type=int, default=8,
                        help="recommend group budget (default: 8)")
    parser.add_argument("--reads", type=int, default=18,
                        help="scripted reads in the parity leg (default: 18)")
    parser.add_argument("--seed", type=int, default=0,
                        help="instance + fault-schedule seed")
    parser.add_argument("--wal-root", default=None, dest="wal_root",
                        help="directory for the durable legs' WAL trees "
                             "(default: a fresh temp directory)")
    args = parser.parse_args(argv)
    args.instance = (
        f"{args.users}x{args.items} {args.store}, k_max={args.k_max}, "
        f"seed={args.seed}"
    )

    import tempfile

    print(f"bench_faults: {args.instance}")
    failures: list[str] = []
    entries: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-faults-") as tmp:
        wal_root = Path(args.wal_root) if args.wal_root else Path(tmp)
        leg_read_parity(args, failures, entries)
        leg_degraded(args, failures, entries, wal_root)
        leg_torn_tail(args, failures, entries, wal_root)
        leg_crash_loop(args, failures, entries)

    # This bench owns every metric except the overhead gate's namespace
    # (check_regression --faults-overhead shares BENCH_faults.json).
    path = merge_bench_json("faults", entries, "overhead_", owns_prefix=False)
    print(f"  timings written to {path}")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("OK: every answered response was bit-identical to fault-free "
          "serving across all four fault legs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
