"""Fault injection: replica crashes mid-flight, respawn, signal shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool
from repro.service.pool import canonical_response


@pytest.fixture
def service():
    values = np.random.default_rng(11).integers(1, 6, size=(40, 12)).astype(float)
    service = FormationService(DenseStore(values), k_max=5)
    yield service
    service.close()


async def wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.02)


def test_sigkill_mid_flight_is_retried_respawned_and_bit_identical(service):
    """A replica killed while holding a request must not lose it: the pool
    retries on a survivor, the answer stays bit-identical to single-process
    serving, and the dead replica is respawned and serves again."""
    pool = ReplicaPool(
        service, replicas=2, inflight=1, queue_depth=16,
        request_timeout=60.0, heartbeat_interval=0.2,
    )
    pool.start()
    single = canonical_response(service.recommend(k=3, max_groups=5).as_dict())

    async def scenario():
        victim = pool._slots[0]
        os.kill(victim.process.pid, signal.SIGSTOP)
        # With inflight=1 and one replica frozen, two requests pin one
        # request on each slot — one stuck on the victim mid-flight.
        futures = [
            asyncio.ensure_future(pool.recommend(k=3, max_groups=5))
            for _ in range(2)
        ]
        await wait_for(
            lambda: victim.inflight == 1, 10,
            "no request was dispatched to the frozen replica",
        )
        os.kill(victim.process.pid, signal.SIGKILL)

        payloads = await asyncio.wait_for(asyncio.gather(*futures), timeout=60)
        for payload in payloads:
            assert canonical_response(payload) == single
        assert pool.counters["retries"] >= 1

        # The supervisor respawns the dead replica and it serves again.
        await wait_for(
            lambda: pool.counters["respawns"] >= 1
            and all(s.alive and s.process.is_alive() for s in pool._slots),
            30, "killed replica was never respawned",
        )
        seen = set()
        for _ in range(6):
            payload = await pool.recommend(k=3, max_groups=5)
            assert canonical_response(payload) == single
            seen.add(payload["replica"])
        assert seen == {0, 1}, f"respawned replica never served: {seen}"
        await pool.shutdown()

    asyncio.run(scenario())


def test_single_replica_crash_recovers_via_immediate_respawn(service):
    """Killing the *only* replica must not strand the request: the crash
    schedules an immediate respawn and the queued retry lands on the fresh
    worker, still bit-identical to single-process serving."""
    pool = ReplicaPool(service, replicas=1, request_timeout=60.0)
    pool.start()
    single = canonical_response(service.recommend(k=3, max_groups=5).as_dict())

    async def scenario():
        slot = pool._slots[0]
        os.kill(slot.process.pid, signal.SIGKILL)
        slot.process.join(timeout=10)
        payload = await asyncio.wait_for(
            pool.recommend(k=3, max_groups=5), timeout=60
        )
        assert canonical_response(payload) == single
        assert pool.counters["respawns"] == 1
        assert pool.counters["retries"] == 1
        await pool.shutdown()

    asyncio.run(scenario())


# --------------------------------------------------------------------- #
# Subprocess end-to-end: the served pool under kill -9 and signals
# --------------------------------------------------------------------- #


def _serve_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    return env


def _start_serve(extra_args: list[str]) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "serve",
         "--users", "40", "--items", "12", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_serve_env(),
    )
    deadline = time.time() + 60
    port = None
    while time.time() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    assert port is not None, "server never reported its listening address"
    return proc, port


def _post(port: int, path: str, body: dict) -> dict:
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=30
    ) as resp:
        return json.loads(resp.read())


def _replica_pids(parent_pid: int) -> list[int]:
    """PIDs of the serve process's replica workers.

    Direct children of the serve process, minus multiprocessing's
    resource-tracker helper (which is also a child but not a replica).
    """
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
            # ppid is the field after the parenthesised comm.
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


def test_served_pool_survives_replica_sigkill():
    """kill -9 on a replica worker of a live ``repro serve --replicas 2``:
    requests keep being answered with the same payload, and healthz reports
    the pool back at full strength."""
    proc, port = _start_serve(["--replicas", "2"])
    try:
        body = {"k": 3, "max_groups": 5}
        baseline = canonical_response(_post(port, "/v1/recommend", body))
        health = _get(port, "/v1/healthz")
        assert health["replicas"] == 2

        replicas = _replica_pids(proc.pid)
        assert len(replicas) == 2, f"expected 2 replica workers, saw {replicas}"
        os.kill(replicas[0], signal.SIGKILL)

        # Every request during and after the crash is answered identically.
        for _ in range(8):
            assert canonical_response(_post(port, "/v1/recommend", body)) == baseline

        deadline = time.time() + 30
        while time.time() < deadline:
            stats = _get(port, "/v1/stats")["pool"]
            if stats["respawns"] >= 1 and stats["alive"] == 2:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("pool never reported the respawned replica")
        survivors = _replica_pids(proc.pid)
        assert len(survivors) == 2 and replicas[0] not in survivors
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            proc.kill()
            out, _ = proc.communicate()
    assert proc.returncode == 0, f"serve exited {proc.returncode}: {out}"
    assert "Traceback" not in out


def test_replica_serve_exits_cleanly_on_signals():
    """``repro serve --replicas 2`` under live traffic must exit 0 on SIGINT
    and SIGTERM, leaving no replica workers behind; any request refused
    during the drain gets a structured 503 ``shutting_down`` body."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        proc, port = _start_serve(
            ["--replicas", "2", "--batch-window", "0.005"]
        )
        refused: list[dict] = []
        workers: list[int] = []
        try:
            _post(port, "/v1/recommend", {"k": 2, "max_groups": 4})
            workers = _replica_pids(proc.pid)
            assert len(workers) == 2
            proc.send_signal(sig)
            # Hammer the draining server: every connection must either be
            # answered normally or refused with a structured 503.
            for _ in range(20):
                try:
                    _post(port, "/v1/recommend", {"k": 2, "max_groups": 4})
                except urllib.error.HTTPError as exc:
                    payload = json.loads(exc.read())
                    assert exc.code == 503, payload
                    assert payload["error"]["code"] == "shutting_down"
                    refused.append(payload)
                except (ConnectionError, urllib.error.URLError, OSError):
                    break  # listener closed: connections refused at accept
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung server
                proc.kill()
                out, _ = proc.communicate()
        assert proc.returncode == 0, f"{sig!r} exited {proc.returncode}: {out}"
        assert "stopped" in out
        assert "Traceback" not in out
        for pid in workers:
            assert not os.path.exists(f"/proc/{pid}"), (
                f"replica worker {pid} outlived the server after {sig!r}"
            )
