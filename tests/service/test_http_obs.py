"""End-to-end tests of the HTTP telemetry plane: request ids, /v1/metrics
and the healthz durability block."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import faults
from repro.obs.registry import LATENCY_BUCKETS
from repro.recsys import DenseStore
from repro.service import FormationService, ServiceServer


@pytest.fixture(autouse=True)
def _reset_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def server(background_server):
    values = np.random.default_rng(23).integers(1, 6, size=(50, 12)).astype(float)
    service = FormationService(DenseStore(values.copy()), k_max=5, shards=3)
    with background_server(ServiceServer(service, port=0, batch_window=0.05)) as srv:
        yield srv


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


def test_request_id_is_honoured_end_to_end(server):
    status, _, headers = json_request(
        server, "/v1/recommend", {"k": 3, "max_groups": 4},
        headers={"X-Request-Id": "trace-me-42"},
    )
    assert status == 200
    assert headers["X-Request-Id"] == "trace-me-42"


def test_request_id_is_generated_when_absent(server):
    ids = set()
    for _ in range(2):
        status, _, headers = json_request(server, "/v1/healthz")
        assert status == 200
        rid = headers["X-Request-Id"]
        int(rid, 16)  # opaque 32-hex id
        assert len(rid) == 32
        ids.add(rid)
    assert len(ids) == 2  # fresh id per request


def test_error_responses_still_carry_a_request_id(server):
    status, _, headers = json_request(
        server, "/nope", headers={"X-Request-Id": "err-1"}
    )
    assert status == 404
    assert headers["X-Request-Id"] == "err-1"


def test_metrics_prometheus_text_default(server):
    json_request(server, "/v1/recommend", {"k": 3, "max_groups": 4})
    status, raw, headers = raw_request(server, "/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    text = raw.decode()
    assert "# TYPE repro_http_requests_total counter" in text
    assert 'repro_http_requests_total{route="recommend"} 1' in text
    assert 'repro_http_request_seconds_bucket{route="recommend",le="+Inf"} 1' in text
    assert "repro_service_requests_total" in text


def test_metrics_json_format(server):
    json_request(server, "/v1/recommend", {"k": 3, "max_groups": 4})
    status, payload, headers = json_request(server, "/v1/metrics?format=json")
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    assert payload["buckets"] == list(LATENCY_BUCKETS)
    assert payload["counters"]['repro_http_requests_total{route="recommend"}'] >= 1
    hist = payload["histograms"]['repro_http_request_seconds{route="recommend"}']
    assert hist["count"] >= 1
    assert hist["sum"] > 0


def test_metrics_rejects_unknown_format_and_post(server):
    status, payload, _ = json_request(server, "/v1/metrics?format=xml")
    assert status == 400 and payload["error"]["code"] == "validation"
    status, payload, _ = json_request(server, "/v1/metrics", {}, method="POST")
    assert status == 405


def test_http_latency_histogram_matches_request_count(server):
    for _ in range(3):
        json_request(server, "/v1/recommend", {"k": 3, "max_groups": 4})
    _, payload, _ = json_request(server, "/v1/metrics?format=json")
    hist = payload["histograms"]['repro_http_request_seconds{route="recommend"}']
    assert hist["count"] == 3
    assert sum(c for _, c in hist["buckets"]) + hist["overflow"] == 3
    assert hist["p50"] is not None


def test_healthz_durability_block(tmp_path, background_server):
    from repro.service.config import ServiceConfig

    config = ServiceConfig(
        users=40, items=10, wal_dir=str(tmp_path), snapshot_every=2,
        batch_window=0.05,
    )
    pipeline = config.build_pipeline()
    srv = config.build_server(pipeline.service, pipeline)
    try:
        with background_server(srv):
            status, health, _ = json_request(srv, "/v1/healthz")
            assert status == 200 and health["durable"] is True
            durability = health["durability"]
            assert durability["wal_backlog"] == 0
            assert "last_snapshot_age_seconds" in durability
            assert "last_fsync_seconds" in durability
            # One applied event batch raises the backlog until the next snapshot.
            status, _, _ = json_request(
                srv, "/v1/events",
                {"events": [{"kind": "rating", "user": 0, "item": 1, "score": 5.0}]},
            )
            assert status == 200
            _, health, _ = json_request(srv, "/v1/healthz")
            assert health["durability"]["wal_backlog"] >= 1
            assert health["durability"]["last_fsync_seconds"] > 0
            # The WAL backlog gauge mirrors the healthz readout.
            _, metrics, _ = json_request(srv, "/v1/metrics?format=json")
            assert metrics["gauges"]["repro_wal_backlog_records"] >= 1
    finally:
        pipeline.close()
        pipeline.service.close()
        config.close_metrics()


def test_degraded_and_fault_metrics_end_to_end(tmp_path, background_server):
    from repro.service.config import ServiceConfig

    config = ServiceConfig(
        users=30, items=8, wal_dir=str(tmp_path), batch_window=0.02,
        degraded_probe_interval=0.05, port=0,
    )
    pipeline = config.build_pipeline()
    srv = config.build_server(pipeline.service, pipeline)
    faults.configure("wal.fsync=enospc@first:1")
    try:
        with background_server(srv):
            _, metrics, _ = json_request(srv, "/v1/metrics?format=json")
            assert metrics["gauges"].get("repro_service_state", 0) == 0

            status, _, _ = json_request(
                srv, "/v1/events",
                {"events": [{"kind": "rating", "user": 0, "item": 1, "score": 5.0}]},
            )
            assert status == 503
            _, metrics, _ = json_request(srv, "/v1/metrics?format=json")
            counters = metrics["counters"]
            assert counters["repro_faults_injected_total"] >= 1
            assert counters['repro_degraded_transitions_total{direction="enter"}'] == 1
            assert metrics["gauges"]["repro_service_state"] == 1

            deadline = time.time() + 5
            while True:
                _, metrics, _ = json_request(srv, "/v1/metrics?format=json")
                if metrics["gauges"]["repro_service_state"] == 0:
                    break
                if time.time() > deadline:  # pragma: no cover - stuck probe
                    raise AssertionError("service_state gauge never recovered")
                time.sleep(0.05)
            counters = metrics["counters"]
            assert counters['repro_degraded_transitions_total{direction="exit"}'] == 1

            # The same story renders in the Prometheus text exposition.
            status, raw, _ = raw_request(srv, "/v1/metrics")
            text = raw.decode()
            assert "# TYPE repro_service_state gauge" in text
            assert "repro_service_state 0" in text
            assert 'repro_degraded_transitions_total{direction="enter"} 1' in text
    finally:
        pipeline.close()
        pipeline.service.close()
        config.close_metrics()


def test_respawn_backoff_histogram_through_v1_metrics(background_server):
    import os
    import signal

    from repro.service.config import ServiceConfig

    config = ServiceConfig(users=30, items=8, replicas=1, batch_window=0.02, port=0)
    service = config.build_service(None)
    pool = config.build_pool(service)
    pool.start()
    srv = config.build_server(service, None, pool)
    try:
        with background_server(srv):
            os.kill(pool._slots[0].process.pid, signal.SIGKILL)
            # The next read detects the crash, retries, and schedules the
            # respawn — which records one backoff observation (0 s: first
            # death after a healthy run respawns immediately).
            deadline = time.time() + 30
            while pool.counters["respawns"] < 1:
                json_request(srv, "/v1/recommend", {"k": 3, "max_groups": 4})
                if time.time() > deadline:  # pragma: no cover - no respawn
                    raise AssertionError("replica was never respawned")
                time.sleep(0.05)
            _, metrics, _ = json_request(srv, "/v1/metrics?format=json")
            hist = metrics["histograms"]["repro_pool_respawn_backoff_seconds"]
            assert hist["count"] >= 1
            assert metrics["counters"].get("repro_pool_respawn_failures_total", 0) == 0
            status, raw, _ = raw_request(srv, "/v1/metrics")
            assert "# TYPE repro_pool_respawn_backoff_seconds histogram" in raw.decode()
    finally:
        service.close()
        config.close_metrics()
