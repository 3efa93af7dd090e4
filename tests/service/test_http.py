"""End-to-end tests of the asyncio JSON/HTTP front end.

Starts a real :class:`~repro.service.ServiceServer` on an ephemeral port
inside a background event loop and talks plain HTTP to it — the same wire
path ``repro serve`` exposes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import FormationEngine
from repro.recsys import DenseStore
from repro.service import FormationService, ServiceServer


@pytest.fixture()
def server(background_server):
    values = np.random.default_rng(17).integers(1, 6, size=(60, 15)).astype(float)
    service = FormationService(DenseStore(values.copy()), k_max=5)
    with background_server(ServiceServer(service, port=0, batch_window=0.2)) as srv:
        yield srv, values


def rating(user, item, score):
    """One explicit-rating event of a ``/v1/events`` body."""
    return {"kind": "rating", "user": user, "item": item, "score": score}


def request(srv: ServiceServer, path: str, body=None, method=None,
            with_headers=False):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}",
        data=data,
        method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            out = resp.status, json.loads(resp.read())
            headers = dict(resp.headers)
    except urllib.error.HTTPError as exc:
        out = exc.code, json.loads(exc.read())
        headers = dict(exc.headers)
    if with_headers:
        return (*out, headers)
    return out


def test_healthz_and_stats(server):
    srv, _ = server
    status, payload = request(srv, "/v1/healthz")
    assert status == 200 and payload["status"] == "ok"
    status, payload = request(srv, "/v1/stats")
    assert status == 200 and payload["n_users"] == 60


def test_recommend_end_to_end_matches_engine(server):
    srv, values = server
    status, payload = request(
        srv,
        "/v1/recommend",
        {"k": 3, "max_groups": 5, "semantics": "lm", "aggregation": "min"},
    )
    assert status == 200
    want = FormationEngine("numpy").run(DenseStore(values), 5, 3, "lm", "min")
    assert payload["algorithm"] == "GRD-LM-MIN"
    assert payload["objective"] == want.objective
    assert [tuple(g["members"]) for g in payload["groups"]] == [
        g.members for g in want.groups
    ]


def test_updates_change_subsequent_recommendations(server):
    srv, values = server
    _, before = request(srv, "/v1/recommend", {"k": 3, "max_groups": 5})
    status, stats = request(
        srv,
        "/v1/events",
        {"events": [rating(0, 1, 5.0), {"kind": "delete", "user": 2, "item": 3}]},
    )
    assert status == 200
    assert stats["upserts"] == 1 and stats["deletes"] == 1
    assert stats["version"] >= 1
    _, after = request(srv, "/v1/recommend", {"k": 3, "max_groups": 5})
    assert after["extras"]["service_version"] == stats["version"]
    # Verify against a cold engine over the mutated ratings.
    shadow = DenseStore(values.copy())
    shadow.upsert([0], [1], [5.0])
    shadow.delete([2], [3])
    want = FormationEngine("numpy").run(shadow, 5, 3, "lm", "min")
    assert after["objective"] == want.objective


def test_concurrent_updates_coalesce_into_one_batch(server):
    srv, _ = server
    with concurrent.futures.ThreadPoolExecutor(6) as pool:
        results = list(
            pool.map(
                lambda j: request(srv, "/v1/events", {"events": [rating(j, 0, 3.0)]}),
                range(6),
            )
        )
    assert all(status == 200 for status, _ in results)
    batches = {payload["version"] for _, payload in results}
    requests_batched = sum(payload["batched_requests"] for _, payload in results)
    # Fewer version bumps than requests proves coalescing happened.
    assert len(batches) < 6
    assert requests_batched >= 6


def test_bad_update_does_not_poison_the_shared_batch(server):
    srv, _ = server
    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        good = [
            pool.submit(
                lambda j=j: request(srv, "/v1/events", {"events": [rating(j, 0, 3.0)]})
            )
            for j in range(3)
        ]
        bad = pool.submit(
            lambda: request(srv, "/v1/events", {"events": [rating(0, 9999, 3.0)]})
        )
        results = [f.result() for f in good]
        bad_status, bad_payload = bad.result()
    assert bad_status == 400 and "error" in bad_payload
    assert all(status == 200 for status, _ in results)
    # Every valid update landed despite sharing a window with the bad one.
    assert request(srv, "/v1/stats")[1]["updates_applied"] >= 3


def test_malformed_framing_gets_a_400_not_a_dropped_connection(server):
    import socket

    srv, _ = server
    for raw in (
        b"POST /v1/events HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /v1/events HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort",
    ):
        with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 400"), raw


def _other_requests(srv: ServiceServer) -> int:
    """The ``other`` route's request counter as ``/v1/metrics`` reports it."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{srv.port}/v1/metrics", timeout=10
    ) as resp:
        text = resp.read().decode()
    prefix = 'repro_http_requests_total{route="other"} '
    line = next(line for line in text.splitlines() if line.startswith(prefix))
    return int(float(line[len(prefix):]))


def test_oversized_header_line_gets_a_431_not_a_traceback(server, caplog):
    import socket

    srv, _ = server
    before = _other_requests(srv)
    raw = (
        b"GET /v1/healthz HTTP/1.1\r\nX-Padding: "
        + b"a" * (70 * 1024)
        + b"\r\n\r\n"
    )
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 431"), response[:80]
        assert _other_requests(srv) == before + 1
    assert not [r for r in caplog.records if r.name == "asyncio"]


def _raw_exchange(srv: ServiceServer, raw: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes, read until close; return (status line + headers, body).

    A server that rejects a request before reading all of it closes with
    unread bytes, which may reset the connection after its response.
    """
    import socket

    response = b""
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass
        try:
            while chunk := sock.recv(4096):
                response += chunk
        except ConnectionResetError:
            pass
    head, _, body = response.partition(b"\r\n\r\n")
    return head, body


def test_undecodable_or_too_deep_bodies_get_a_structured_400(server, caplog):
    srv, _ = server
    before = _other_requests(srv)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        for body in (b'{"k": "\xff"}', b"[" * 200_000):
            head, payload = _raw_exchange(
                srv,
                b"POST /v1/recommend HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body,
            )
            assert head.startswith(b"HTTP/1.1 400"), head[:80]
            assert json.loads(payload)["error"]["code"] == "bad_request"
    assert _other_requests(srv) == before + 2
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_unsafe_request_id_is_replaced_not_echoed(server):
    srv, _ = server
    for bad in (b"abc\rSet-Cookie: evil=1", b"two words", b"x" * 200):
        head, _ = _raw_exchange(
            srv,
            b"GET /v1/healthz HTTP/1.1\r\nX-Request-Id: " + bad + b"\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 200"), head
        assert b"Set-Cookie" not in head and b"\r" not in head.replace(b"\r\n", b"")
        ids = [line for line in head.split(b"\r\n")
               if line.startswith(b"X-Request-Id: ")]
        assert len(ids) == 1
        minted = ids[0][len(b"X-Request-Id: "):]
        assert len(minted) == 32 and all(c in b"0123456789abcdef" for c in minted)


def test_transfer_encoding_gets_a_structured_501(server):
    srv, _ = server
    before = _other_requests(srv)
    body = b'{"k": 3, "max_groups": 4}'
    head, payload = _raw_exchange(
        srv,
        b"POST /v1/recommend HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + f"{len(body):x}".encode() + b"\r\n" + body + b"\r\n0\r\n\r\n",
    )
    assert head.startswith(b"HTTP/1.1 501"), head
    assert json.loads(payload)["error"]["code"] == "not_implemented"
    assert _other_requests(srv) == before + 1


def test_too_many_or_too_large_headers_get_a_431(server):
    srv, _ = server
    before = _other_requests(srv)
    for headers in (
        b"".join(b"X-H%d: v\r\n" % i for i in range(10_000)),
        b"".join(b"X-H%d: %s\r\n" % (i, b"a" * 2048) for i in range(40)),
    ):
        head, payload = _raw_exchange(
            srv, b"GET /v1/healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert head.startswith(b"HTTP/1.1 431"), head[:80]
        assert json.loads(payload)["error"]["code"] == "header_too_large"
    assert _other_requests(srv) == before + 2


def test_partial_request_gets_a_408_and_a_close(server, monkeypatch, caplog):
    # A client that sends part of a header and then idles must not hold the
    # connection: the read deadline answers 408 and closes.
    import socket

    from repro.service import http

    monkeypatch.setattr(http, "_READ_DEADLINE_S", 0.3)
    srv, _ = server
    before = _other_requests(srv)
    with caplog.at_level(logging.ERROR):
        with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nX-Partial: ")
            response = b""
            while chunk := sock.recv(4096):  # returns b"" once the server closes
                response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408"), head[:80]
    assert json.loads(payload)["error"]["code"] == "request_timeout"
    assert _other_requests(srv) == before + 1
    assert not [r for r in caplog.records if r.exc_info]


def test_each_pre_routing_rejection_counts_under_its_own_reason(
    server, monkeypatch
):
    import socket

    from repro.obs.registry import HTTP_REJECT_REASONS, K_HTTP_REJECTED
    from repro.service import http

    srv, _ = server
    monkeypatch.setattr(http, "_READ_DEADLINE_S", 0.3)
    cases = {
        "bad_request": b"GARBAGE\r\n\r\n",
        "request_timeout": b"GET /v1/healthz HTTP/1.1\r\nX-Partial: ",
        "payload_too_large": b"POST /v1/events HTTP/1.1\r\nContent-Length: %d"
        b"\r\n\r\n" % (http._MAX_BODY + 1),
        "header_too_large": b"GET /v1/healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % i for i in range(http._MAX_HEADERS + 1))
        + b"\r\n",
        "not_implemented": b"POST /v1/events HTTP/1.1\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    }
    assert set(cases) == set(HTTP_REJECT_REASONS)

    def counts() -> dict[str, float]:
        return {r: srv.metrics.value(K_HTTP_REJECTED[r]) for r in HTTP_REJECT_REASONS}

    for reason, raw in cases.items():
        before = counts()
        if reason == "request_timeout":
            # Send part of a header and idle until the read deadline fires.
            with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
                sock.sendall(raw)
                response = b""
                while chunk := sock.recv(4096):
                    response += chunk
            head, _, payload = response.partition(b"\r\n\r\n")
        else:
            head, payload = _raw_exchange(srv, raw)
        assert json.loads(payload)["error"]["code"] == reason, head[:80]
        after = counts()
        assert after == {**before, reason: before[reason] + 1}, reason


def test_fractional_coordinates_rejected_over_http(server):
    srv, _ = server
    status, payload = request(srv, "/v1/events", {"events": [rating(1.7, 2, 5.0)]})
    assert status == 400 and "integer" in payload["error"]["message"]


def test_error_responses(server):
    srv, _ = server
    assert request(srv, "/nope")[0] == 404
    assert request(srv, "/v1/recommend", method="GET")[0] == 405
    assert request(srv, "/v1/recommend", {"k": 999, "max_groups": 3})[0] == 400
    assert request(srv, "/v1/recommend", {"k": "x", "max_groups": 3})[0] == 400
    assert request(srv, "/v1/events", {"events": [rating(0, 999, 3.0)]})[0] == 400
    status, payload = request(srv, "/v1/events", {"events": "nope"})
    assert status == 400 and "error" in payload


def test_duplicate_subset_user_ids_get_a_structured_400(server):
    srv, _ = server
    for user_ids in ([3, 1, 3], [7, 7], [0, 59, 12, 59]):
        status, payload = request(
            srv, "/v1/recommend", {"k": 2, "max_groups": 3, "user_ids": user_ids}
        )
        assert status == 400
        assert payload["error"] == {
            "code": "validation", "message": "user_ids contains duplicates",
        }
    status, _ = request(
        srv, "/v1/recommend", {"k": 2, "max_groups": 3, "user_ids": [3, 1, 59]}
    )
    assert status == 200


@pytest.mark.parametrize(
    "field",
    [
        {"user_ids": [1, "x"]},
        {"user_ids": [1, None]},
        {"user_ids": [[1], 2]},
        {"user_ids": [2**70]},
        {"user_ids": [1.5, 2]},
        {"user_ids": [3, 1.0]},
        {"user_ids": [True, 4]},
        {"user_ids": "1,2"},
        {"k": 2.7},
        {"k": True},
        {"k": "3"},
        {"k": None},
        {"max_groups": 3.5},
        {"max_groups": False},
        {"max_groups": [3]},
    ],
    ids=repr,
)
def test_malformed_recommend_fields_get_a_structured_400(server, field):
    srv, _ = server
    body = {"k": 2, "max_groups": 3, "user_ids": [3, 1, 5], **field}
    status, payload = request(srv, "/v1/recommend", body)
    assert status == 400
    assert payload["error"]["code"] == "validation"
    assert next(iter(field)) in payload["error"]["message"]


def test_errors_are_structured_payloads(server):
    srv, _ = server
    status, payload = request(srv, "/nope")
    assert status == 404 and payload["error"]["code"] == "not_found"
    status, payload = request(srv, "/v1/recommend", method="GET")
    assert status == 405 and payload["error"]["code"] == "method_not_allowed"
    status, payload = request(srv, "/v1/events", {"events": [{"kind": "wat"}]})
    assert status == 400 and payload["error"]["code"] == "validation"
    assert "message" in payload["error"]


def test_v1_routes_serve_all_documented_endpoints(server):
    srv, values = server
    status, payload = request(srv, "/v1/healthz")
    assert status == 200 and payload["status"] == "ok"
    assert payload["durable"] is False
    status, payload = request(srv, "/v1/stats")
    assert status == 200 and payload["n_users"] == 60
    status, payload = request(srv, "/v1/recommend", {"k": 3, "max_groups": 5})
    assert status == 200
    want = FormationEngine("numpy").run(DenseStore(values), 5, 3, "lm", "min")
    assert payload["objective"] == want.objective
    status, payload = request(srv, "/v1/snapshot", {}, method="POST")
    assert status == 409 and payload["error"]["code"] == "not_durable"


def test_v1_events_apply_typed_feedback(server):
    srv, values = server
    events = [
        {"kind": "rating", "user": 0, "item": 1, "score": 5.0},
        {"kind": "delete", "user": 2, "item": 3},
        {"kind": "click", "user": 4, "item": 5},
        {"kind": "completion", "user": 5, "item": 6, "progress": 1.0},
    ]
    status, stats = request(srv, "/v1/events", {"events": events})
    assert status == 200
    assert stats["events"] == 4
    assert stats["upserts"] == 3 and stats["deletes"] == 1
    # Shadow the fold: click -> midpoint, completion 1.0 -> scale max.
    shadow = DenseStore(values.copy())
    shadow.upsert([0, 4, 5], [1, 5, 6], [5.0, 3.0, 5.0])
    shadow.delete([2], [3])
    want = FormationEngine("numpy").run(shadow, 5, 3, "lm", "min")
    _, after = request(srv, "/v1/recommend", {"k": 3, "max_groups": 5})
    assert after["objective"] == want.objective


def test_legacy_routes_answer_404_and_count_as_other(server):
    """The removed pre-v1 aliases are unknown paths: 404 ``not_found``,
    counted under the ``other`` route label, with no deprecation headers."""
    from repro.obs.registry import K_HTTP_REQUESTS

    srv, _ = server
    before = srv.metrics.snapshot()["counters"]
    legacy = [
        ("/recommend", {"k": 3, "max_groups": 5}),
        ("/updates", {"upserts": [[0, 0, 4.0]]}),
        ("/healthz", None),
        ("/stats", None),
    ]
    for path, body in legacy:
        status, payload, headers = request(srv, path, body, with_headers=True)
        assert status == 404 and payload["error"]["code"] == "not_found", path
        assert "Deprecation" not in headers and "Link" not in headers
    # Requests are counted just after the response is written, so poll.
    other = K_HTTP_REQUESTS["other"]
    deadline = time.time() + 5
    while True:
        after = srv.metrics.snapshot()["counters"]
        if after[other] - before.get(other, 0) >= len(legacy) or time.time() > deadline:
            break
        time.sleep(0.01)
    assert after[other] - before.get(other, 0) == len(legacy)
    assert not any("deprecated" in key for key in after)
