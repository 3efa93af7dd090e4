"""Service-level parity, and the graceful shutdown path (listener closed,
pending update batches flushed)."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.engine import FormationEngine
from repro.recsys.store import DenseStore
from repro.service import FormationService, ServiceServer


@pytest.fixture
def values():
    return np.random.default_rng(21).integers(1, 6, size=(60, 15)).astype(float)


# --------------------------------------------------------------------- #
# Shard-summary parity
# --------------------------------------------------------------------- #


def test_service_with_executor_matches_cold_engine(values):
    with FormationService(DenseStore(values.copy()), k_max=5) as service:
        served = service.recommend(k=3, max_groups=5)
        cold = FormationEngine("numpy").run(values.copy(), 5, 3, "lm", "min")
        assert served.objective == cold.objective
        assert [g.members for g in served.groups] == [g.members for g in cold.groups]
        # After an update, the service recomputes only what changed and
        # still matches a cold run on the new ratings.
        service.apply_updates(upserts=[(0, 0, 5.0), (59, 14, 5.0)])
        served = service.recommend(k=3, max_groups=5)
        cold = FormationEngine("numpy").run(
            service.store.to_dense().copy(), 5, 3, "lm", "min"
        )
        assert served.objective == cold.objective


def test_service_distinguishes_weighted_sum_schemes(values):
    """Result memo and shard-summary caches must not collide on the shared
    ``weighted-sum`` algorithm name across schemes."""
    service = FormationService(DenseStore(values.copy()), k_max=4)
    engine = FormationEngine("numpy")
    for scheme in ("weighted-sum-inverse", "weighted-sum-log"):
        served = service.recommend(k=3, max_groups=5, aggregation=scheme)
        cold = engine.run(values.copy(), 5, 3, "lm", scheme)
        assert served.objective == cold.objective
        assert [g.members for g in served.groups] == [g.members for g in cold.groups]
    service.close()


# --------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------- #


def test_shutdown_flushes_the_open_update_batch(values):
    service = FormationService(DenseStore(values.copy()), k_max=4)
    # A huge batch window guarantees the update is still pending at shutdown.
    server = ServiceServer(service, port=0, batch_window=30.0)
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.time() + 5
    while server._server is None:
        assert time.time() < deadline
        time.sleep(0.01)

    responses = []

    def post_update() -> None:
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/events",
            data=json.dumps(
                {"events": [{"kind": "rating", "user": 0, "item": 0, "score": 5.0}]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            responses.append(json.loads(resp.read()))

    poster = threading.Thread(target=post_update)
    poster.start()
    deadline = time.time() + 5
    while not server._pending_updates:
        assert time.time() < deadline, "update never reached the batch queue"
        time.sleep(0.01)

    asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(timeout=10)
    poster.join(timeout=10)
    # Let the connection handler finish writing/closing before the loop
    # stops, so no pending task is destroyed with the loop.
    asyncio.run_coroutine_threadsafe(asyncio.sleep(0.1), loop).result(timeout=5)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)

    assert responses and responses[0]["upserts"] == 1
    assert service.store.to_dense()[0, 0] == 5.0
    assert server._pending_updates == []
    service.close()


def _recommend_until_refused(port: int, first: int, answered: list) -> None:
    """Post distinct recommend requests (each misses the result memo) until
    the server stops answering; count the answers in ``answered``."""
    for max_groups in range(first, first + 10_000, 4):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/recommend",
            data=json.dumps({"k": 3, "max_groups": max_groups}).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=15) as resp:
                resp.read()
        except OSError:  # HTTPError, URLError, reset, refused: going away
            return
        answered.append(max_groups)


def test_repro_serve_exits_cleanly_on_signals():
    """``repro serve`` must exit 0 on SIGINT and SIGTERM without a
    traceback while clients keep sending requests through the drain: a
    handler still pending when the loop closes is cancelled, and must end
    quietly."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.cli", "serve",
             "--users", "2000", "--items", "100", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        clients: list[threading.Thread] = []
        try:
            deadline = time.time() + 30
            port = None
            while time.time() < deadline:
                match = re.search(r"listening on http://[^:]+:(\d+)",
                                  proc.stdout.readline())
                if match:
                    port = int(match.group(1))
                    break
            assert port is not None, "server never reported its listening address"
            answered: list[int] = []
            clients = [
                threading.Thread(
                    target=_recommend_until_refused, args=(port, 2 + i, answered)
                )
                for i in range(4)
            ]
            for client in clients:
                client.start()
            while len(answered) < 8 and time.time() < deadline:
                time.sleep(0.01)
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=15)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung server
                proc.kill()
                out, _ = proc.communicate()
            for client in clients:
                client.join(timeout=30)
        assert not any(client.is_alive() for client in clients)
        assert proc.returncode == 0, f"{sig!r} exited {proc.returncode}: {out}"
        assert "stopped" in out
        assert "Traceback" not in out
