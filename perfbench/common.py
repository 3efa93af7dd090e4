"""Helpers shared by the benchmark's workloads.

The statistics and server lifecycle reuse the repository's own bench
harness (``benchmarks/bench_load.py``: ``percentile``, ``post``,
``fetch_metrics``, ``hist_delta``, ``stop_server``; ``benchmarks/_timing.py``:
commit stamping) instead of forking a second copy.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from bench_load import fetch_metrics, hist_delta, percentile, post, stop_server

__all__ = [
    "Outcome", "Server", "bench_dir", "closed_loop", "completed",
    "fetch_metrics", "fresh_dir", "hist_delta", "median", "percentile",
    "self_rss_mib", "timed_post",
]

#: Launcher of every server process (plain ``repro serve`` when untraced).
LAUNCHER = os.path.join("perfbench", "launcher.py")


def bench_dir(*parts: str) -> str:
    """A scratch directory under ``.bench_build/perfbench`` in the checkout."""
    path = os.path.join(".bench_build", "perfbench", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def median(samples) -> float:
    """Median of a non-empty sample list."""
    return float(statistics.median(samples))


def self_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss``) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: list[str] = field(default_factory=list)
    #: name -> (value, unit, sample count)
    metrics: dict = field(default_factory=dict)
    #: Figures printed beside the metrics but not part of the JSON result.
    info: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed operation and keep the first messages."""
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)

    def mismatch(self, message: str) -> None:
        """Count one wrong answer (a failed operation and a correctness miss)."""
        self.mismatches += 1
        self.fail("mismatch: " + message)

    def metric(self, name: str, value: float, unit: str, samples: int,
               info: bool = False) -> None:
        """Record one figure: a result metric, or with ``info`` a printed one."""
        target = self.info if info else self.metrics
        target[name] = (float(value), unit, int(samples))


def fresh_dir(*parts: str) -> str:
    """:func:`bench_dir`, emptied first."""
    shutil.rmtree(os.path.join(".bench_build", "perfbench", *parts),
                  ignore_errors=True)
    return bench_dir(*parts)


def get_json(port: int, path: str, timeout: float = 30.0) -> dict:
    """GET a JSON endpoint of the server."""
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def timed_post(port: int, path: str, body: dict) -> tuple:
    """``(latency seconds, payload or None, error or None)`` of one POST.

    A failed request (connection error, non-2xx answer) is returned, not
    raised, so the caller counts it as a failed operation.
    """
    t0 = time.perf_counter()
    try:
        payload = post(port, path, body)
    except Exception as exc:  # noqa: BLE001 - recorded as a failure
        return time.perf_counter() - t0, None, repr(exc)
    return time.perf_counter() - t0, payload, None


def completed(records: list) -> list[float]:
    """Latencies of the records (``(latency, payload, error, ...)``) that succeeded."""
    return [record[0] for record in records if record[1] is not None]


def closed_loop(seconds: float, clients: list) -> tuple[list[list], float]:
    """Run each client on its own connection, back to back, for ``seconds``.

    A client is called with its iteration number and returns one record.
    Returns the records of each client and the wall seconds until the last
    call ended.
    """
    started = time.perf_counter()
    stop_at = started + seconds
    records: list[list] = [[] for _ in clients]

    def drive(c: int) -> None:
        i = 0
        while time.perf_counter() < stop_at:
            records[c].append(clients[c](i))
            i += 1

    threads = [threading.Thread(target=drive, args=(c,))
               for c in range(len(clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def _proc_stat(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="latin-1") as handle:
        return handle.read().rsplit(")", 1)[1].split()


class Server:
    """One ``repro serve`` process started through the benchmark launcher.

    ``trace`` is ``None`` (untraced), ``"armed"`` (wrappers installed,
    recording from :meth:`start_recording`) or ``"record"`` (recording
    from process start).
    """

    def __init__(self, flags: list[str], trace: str | None = None,
                 trace_dir: str | None = None) -> None:
        env = dict(os.environ)
        if trace is not None:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
            env["PERFBENCH_TRACE_START"] = "1" if trace == "record" else "0"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, "serve", "--port", "0", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        self.port = None
        deadline = time.time() + 120
        while time.time() < deadline and self.port is None:
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
        if self.port is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server never came up: {self.proc.stdout.read()}")
        while True:
            try:
                get_json(self.port, "/v1/healthz")
                break
            except (OSError, urllib.error.URLError):
                if time.time() > deadline:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
                    raise
                time.sleep(0.01)
        #: Process start to first healthy ``/v1/healthz``.
        self.boot_seconds = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def replica_pids(self) -> list[int]:
        """Forked replica workers (children sharing the writer's cmdline)."""
        with open(f"/proc/{self.pid}/cmdline", "rb") as handle:
            cmdline = handle.read()
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                if int(_proc_stat(int(entry))[1]) != self.pid:
                    continue
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    if handle.read() == cmdline:
                        pids.append(int(entry))
            except OSError:  # exited while scanning
                continue
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU of the writer and its replicas so far."""
        tick = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for pid in [self.pid, *self.replica_pids()]:
            try:
                fields = _proc_stat(pid)
            except OSError:
                continue
            total += (int(fields[11]) + int(fields[12])) / tick
        return total

    def vmhwm_mib(self) -> float:
        """The writer's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="latin-1") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def start_recording(self) -> None:
        """Switch an ``"armed"`` server's wrappers on, replicas included."""
        for pid in [self.pid, *self.replica_pids()]:
            os.kill(pid, signal.SIGUSR1)

    def stop(self, outcome: Outcome) -> None:
        """SIGTERM the server; an unclean exit or a traceback is a failure."""
        outcome.attempted += 1
        try:
            stop_server(self.proc)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            outcome.fail(f"server stop: {str(exc)[-400:]}")
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
