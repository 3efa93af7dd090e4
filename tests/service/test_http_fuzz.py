"""Property-based fuzzing of the HTTP boundary.

Two properties, each against one live server per module:

* **Byte streams.**  Arbitrary request-line, header and body bytes,
  followed by EOF, get an answer and a close well within the 30 s read
  deadline: a structured ``{"error": {"code", "message"}}`` body for
  every error, never a 500.  Every pre-routing
  rejection counts exactly once under its reason in
  ``repro_http_rejected_total``; no traceback is logged, and the server's
  event loop returns to its baseline task count after every exchange.
* **Recommend fields.**  Any JSON value for ``k``, ``max_groups`` or
  ``user_ids`` answers ``200`` or ``400 validation``, never a 500.

Example counts are bounded so the module runs in a few seconds.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs.registry import HTTP_REJECT_REASONS, K_HTTP_REJECTED
from repro.recsys import DenseStore
from repro.service import FormationService, ServiceServer

N_USERS = 40
#: Whole-exchange timeout: far below the server's 30 s read deadline, so a
#: hang fails instead of waiting for the deadline to answer.
EXCHANGE_TIMEOUT_S = 5.0

FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _Recorder(logging.Handler):
    """Keeps every record that is an error or carries a traceback."""

    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.bad: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno >= logging.ERROR or record.exc_info:
            self.bad.append(record)


@pytest.fixture(scope="module")
def live(background_server):
    """``(server, loop, log recorder)`` of one server shared by the module."""
    values = np.random.default_rng(31).integers(1, 6, size=(N_USERS, 10)).astype(float)
    service = FormationService(DenseStore(values), k_max=4)
    recorder = _Recorder()
    root = logging.getLogger()
    root.addHandler(recorder)
    try:
        with background_server(ServiceServer(service, port=0)) as srv:
            yield srv, srv._server.get_loop(), recorder
    finally:
        root.removeHandler(recorder)
        service.close()


def task_count(loop) -> int:
    """Tasks on the server loop, not counting the probe itself."""

    async def count() -> int:
        return len(asyncio.all_tasks()) - 1

    return asyncio.run_coroutine_threadsafe(count(), loop).result(timeout=5)


def settle_to(loop, baseline: int) -> int:
    """Wait (briefly) for the loop to return to ``baseline`` tasks."""
    deadline = time.time() + 2.0
    count = task_count(loop)
    while count != baseline and time.time() < deadline:
        time.sleep(0.005)
        count = task_count(loop)
    return count


def exchange(port: int, data: bytes) -> tuple[bytes, float]:
    """Send ``data`` then EOF; return everything read back and the seconds taken."""
    start = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=EXCHANGE_TIMEOUT_S) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered and closed before reading it all
        response = b""
        try:
            while chunk := sock.recv(65536):
                response += chunk
        except ConnectionResetError:
            pass
    return response, time.monotonic() - start


def rejected(srv) -> dict[str, float]:
    return {r: srv.metrics.value(K_HTTP_REJECTED[r]) for r in HTTP_REJECT_REASONS}


_METHODS = st.sampled_from([b"GET", b"POST", b"PUT", b"get", b"", b"\x00\xff"])
_PATHS = st.sampled_from([
    b"/v1/recommend", b"/v1/events", b"/v1/healthz", b"/v1/stats",
    b"/v1/metrics?format=json", b"/v1/snapshot", b"/", b"/x?%zz", b"",
])
_REQUEST_LINES = st.one_of(
    st.binary(max_size=80),
    st.builds(lambda m, p, v: b" ".join(x for x in (m, p, v) if x),
              _METHODS, _PATHS, st.sampled_from([b"HTTP/1.1", b"HTTP/9", b""])),
)
_HEADERS = st.lists(
    st.one_of(
        st.binary(max_size=60),
        st.builds(lambda v: b"Content-Length: " + v,
                  st.one_of(st.integers(-5, 400).map(lambda n: str(n).encode()),
                            st.binary(max_size=8))),
        st.just(b"Transfer-Encoding: chunked"),
        st.builds(lambda v: b"X-Request-Id: " + v, st.binary(max_size=40)),
    ),
    max_size=6,
)
_BODIES = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda v: json.dumps(v).encode(), st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=12,
    )),
)


@FUZZ
@given(request_line=_REQUEST_LINES, headers=_HEADERS, body=_BODIES)
@example(request_line=b"POST /v1/recommend HTTP/1.1",
         headers=[b"Content-Length: 5007"],
         body=b'{"k": ' + b"1" * 5000 + b"}")  # past the int digit limit
@example(request_line=b"", headers=[], body=b"")
@example(request_line=b"GET /v1/healthz HTTP/1.1",
         headers=[b"Content-Length: 99"], body=b"{}")
def test_arbitrary_bytes_get_a_structured_answer_or_a_close(
    live, request_line, headers, body
):
    srv, loop, recorder = live
    baseline = settle_to(loop, task_count(loop))
    before = rejected(srv)
    data = request_line + b"\r\n" + b"".join(h + b"\r\n" for h in headers)
    data += b"\r\n" + body
    response, seconds = exchange(srv.port, data)
    assert seconds < EXCHANGE_TIMEOUT_S

    # The client ends every request with a clean EOF, so the server has
    # read all of it and owes an answer: a silent close would be an
    # uncounted rejection.
    assert response
    counted = {r: n - before[r] for r, n in rejected(srv).items() if n != before[r]}
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    assert status != 500, payload[:200]
    if status >= 400:
        error = json.loads(payload)["error"]
        assert set(error) == {"code", "message"}
        if error["code"] in HTTP_REJECT_REASONS:
            assert counted == {error["code"]: 1}
        else:
            assert counted == {}
    else:
        assert counted == {}
    assert settle_to(loop, baseline) == baseline
    assert recorder.bad == [], [r.getMessage() for r in recorder.bad]


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.lists(st.integers(-3, N_USERS + 3), max_size=12),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.none(),
                       st.text(max_size=3), st.booleans()), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_FIELDS = st.fixed_dictionaries({}, optional={
    "k": st.one_of(st.integers(-2, 6), _JSON_VALUES),
    "max_groups": st.one_of(st.integers(-2, 9), _JSON_VALUES),
    "user_ids": st.one_of(
        st.lists(st.integers(0, N_USERS - 1), min_size=1, max_size=15, unique=True),
        _JSON_VALUES,
    ),
})


@FUZZ
@given(fields=_FIELDS)
@example(fields={"k": 0})
@example(fields={"max_groups": -1})
@example(fields={"k": 2, "max_groups": 2**70, "user_ids": [1, 2, 3]})
@example(fields={"user_ids": [2**63]})
def test_recommend_fields_answer_200_or_400_validation(live, fields):
    srv, _, recorder = live
    body = json.dumps(fields).encode()
    request = (
        b"POST /v1/recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    response, _ = exchange(srv.port, request)
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    answer = json.loads(payload)
    assert status in (200, 400), answer
    if status == 400:
        assert answer["error"]["code"] == "validation", answer
    else:
        assert sum(group["size"] for group in answer["groups"]) == (
            len(fields["user_ids"]) if fields.get("user_ids") is not None else N_USERS
        )
    assert recorder.bad == [], [r.getMessage() for r in recorder.bad]
