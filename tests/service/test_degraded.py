"""Degraded read-only mode and per-request deadlines, end to end.

A fault schedule breaks the WAL fsync under a live server: writes must
turn into structured ``503 degraded_read_only`` responses while reads
keep serving, ``/v1/healthz`` must expose the state machine, and the
periodic disk probe must re-enable writes once the injected outage ends.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.recsys import DenseStore
from repro.service import FormationService, ServiceServer
from repro.service.config import ServiceConfig


@pytest.fixture(autouse=True)
def _reset_faults():
    faults.reset()
    yield
    faults.reset()


def raw_request(srv, path, body=None, method=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}",
        data=data,
        method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def json_request(srv, path, body=None, method=None, headers=None):
    status, raw, resp_headers = raw_request(srv, path, body, method, headers)
    return status, json.loads(raw), resp_headers


EVENT = {"events": [{"kind": "rating", "user": 0, "item": 1, "score": 5.0}]}


def test_degraded_read_only_lifecycle(tmp_path, background_server):
    config = ServiceConfig(
        users=30, items=8, wal_dir=str(tmp_path), batch_window=0.02,
        degraded_probe_interval=0.1, port=0,
    )
    pipeline = config.build_pipeline()
    srv = config.build_server(pipeline.service, pipeline)
    # Hit 1 is the write's group-commit fsync; hit 2 the first heal probe.
    faults.configure("wal.fsync=enospc@first:2")
    try:
        with background_server(srv):
            status, payload, _ = json_request(srv, "/v1/events", EVENT)
            assert status == 503
            assert payload["error"]["code"] == "degraded_read_only"

            status, health, _ = json_request(srv, "/v1/healthz")
            assert status == 200
            assert health["state"] == "degraded_read_only"
            assert "durable apply failed" in health["degraded"]["reason"]
            assert health["degraded"]["since_seconds"] >= 0

            # Reads keep serving while writes are fenced.
            status, _, _ = json_request(
                srv, "/v1/recommend", {"k": 3, "max_groups": 4}
            )
            assert status == 200
            status, payload, _ = json_request(srv, "/v1/snapshot", {})
            assert status == 503
            assert payload["error"]["code"] == "degraded_read_only"

            # The disk "recovers" (fault window expires): the probe heals
            # the WAL and re-enables writes without a restart.
            deadline = time.time() + 5
            while True:
                _, health, _ = json_request(srv, "/v1/healthz")
                if health["state"] == "ok":
                    break
                if time.time() > deadline:  # pragma: no cover - stuck probe
                    raise AssertionError("degraded mode never exited")
                time.sleep(0.05)

            status, payload, _ = json_request(srv, "/v1/events", EVENT)
            assert status == 200
            # The rejected write never reached durable state: the accepted
            # one is the first acknowledged record.
            assert payload["wal_seq"] == 1
    finally:
        pipeline.close()
        pipeline.service.close()
        config.close_metrics()


def test_degraded_write_never_leaves_phantom_state(tmp_path, background_server):
    config = ServiceConfig(
        users=20, items=6, wal_dir=str(tmp_path), batch_window=0.02,
        degraded_probe_interval=0.05, port=0,
    )
    pipeline = config.build_pipeline()
    srv = config.build_server(pipeline.service, pipeline)
    faults.configure("wal.fsync=enospc@first:1")
    try:
        with background_server(srv):
            status, _, _ = json_request(srv, "/v1/events", EVENT)
            assert status == 503
            deadline = time.time() + 5
            while json_request(srv, "/v1/healthz")[1]["state"] != "ok":
                if time.time() > deadline:  # pragma: no cover - stuck probe
                    raise AssertionError("degraded mode never exited")
                time.sleep(0.02)
            # The failed write was healed away: WAL and live index agree
            # that nothing was applied.
            assert pipeline.wal.last_seq == 0
            assert pipeline.wal.acked_seq == 0
            assert pipeline.service.version == 0
    finally:
        pipeline.close()
        pipeline.service.close()
        config.close_metrics()


def test_request_deadline_returns_structured_504(background_server):
    values = np.random.default_rng(5).integers(1, 6, size=(30, 8)).astype(float)
    service = FormationService(DenseStore(values), k_max=4, shards=2)
    srv = ServiceServer(service, port=0, request_timeout_ms=100.0)
    with background_server(srv):
        faults.configure("http.dispatch=delay:3000@once:1")
        status, payload, headers = json_request(
            srv, "/v1/recommend", {"k": 3, "max_groups": 4},
            headers={"X-Request-Id": "slow-1"},
        )
        assert status == 504
        assert payload["error"]["code"] == "deadline_exceeded"
        assert headers["X-Request-Id"] == "slow-1"
        # The stall was one scheduled fault, not a sick server.
        status, _, _ = json_request(srv, "/v1/recommend", {"k": 3, "max_groups": 4})
        assert status == 200
    service.close()


def test_request_timeout_must_be_positive():
    values = np.random.default_rng(6).integers(1, 6, size=(10, 4)).astype(float)
    service = FormationService(DenseStore(values), k_max=2, shards=1)
    from repro.core.errors import ReproError

    with pytest.raises(ReproError):
        ServiceServer(service, port=0, request_timeout_ms=0.0)
    service.close()
