"""Golden ``/v1/recommend`` responses: pinned digests of the canonical bodies.

Each case posts one recommend body to a real
:class:`~repro.service.ServiceServer` over a seeded dense or sparse store
and hashes ``json.dumps(canonical_response(body))`` with the response's
key order kept.  The digests pin the served bytes (group order, member
order, float formatting, extras order) so any rewrite of the read path —
scoring on the shared store, encoding straight from arrays — must keep
every answer byte for byte.  Serving bookkeeping (``coalesced``, timing
extras) is stripped by :func:`~repro.service.pool.canonical_response`.

Regenerate the digests only for a change meant to alter answers:
``PYTHONPATH=src python tests/service/test_recommend_golden.py`` prints
the current ones.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import threading
import time
import urllib.request

import numpy as np
import pytest
from scipy import sparse as sp

from repro.recsys import DenseStore, SparseStore
from repro.service import FormationService, ServiceServer
from repro.service.pool import canonical_response

N_USERS, N_ITEMS = 80, 12

SORTED = [2, 5, 9, 14, 17, 23, 31, 38, 40, 44, 52, 57, 63, 66, 71, 79]
UNSORTED = [57, 3, 71, 14, 40, 9, 66, 23, 79, 31, 2, 52, 38, 17, 63, 44]

#: ``(case name, request body)``; the budget-filling read selects every
#: intermediate group of ten users under an eight-group budget, so
#: homogeneous groups are split until eight groups exist.
CASES = (
    ("full-lm", {"k": 2, "max_groups": 6, "semantics": "lm", "aggregation": "min"}),
    ("full-av", {"k": 3, "max_groups": 5, "semantics": "av", "aggregation": "sum"}),
    ("sorted-lm", {"k": 1, "max_groups": 4, "semantics": "lm",
                   "aggregation": "min", "user_ids": SORTED}),
    ("unsorted-lm", {"k": 1, "max_groups": 4, "semantics": "lm",
                     "aggregation": "min", "user_ids": UNSORTED}),
    ("unsorted-av", {"k": 2, "max_groups": 5, "semantics": "av",
                     "aggregation": "sum", "user_ids": UNSORTED}),
    ("budget-fill", {"k": 1, "max_groups": 8, "semantics": "av",
                     "aggregation": "sum",
                     "user_ids": [10, 20, 30, 40, 50, 60, 70, 11, 21, 31]}),
)

#: Users tombstoned before the last two full reads, which then form
#: groups over the remaining active users.
REMOVED = [0, 8, 13, 21, 34, 55, 56, 72]

GOLDEN = {
    "dense": {
        "full-lm": "e5d5f1b69555d26f0e5eecb35c6d5ddf00df5bb4334de969ce6974dccece284c",
        "full-av": "fc72c97a722ee4c0da65b4baf512f7d4d3f48322c525be5053c13e906e154ea3",
        "sorted-lm": "59a1cd625fe5bea7d38c4f241cc2fa1a0f1c823c3427ae3f518bb4473f89e56e",
        "unsorted-lm": "597064ea2b961bb3992a9a39bdd8cc562c988dac0a047d34ce80adace9f4aeae",
        "unsorted-av": "be58656ce49182fc746d162af0d500aa0be6fe91678a244434df7991b3b86990",
        "budget-fill": "7ff74bb2dba4e9228d85fb470e85b4d22343e4a86d497a9653f77bf0fbd94a57",
        "removed-full-lm": "b7455801b8da46b9b34dd2d9d1a5d1d47ac143bd9ca030ecbadd19a06fc97c0a",
        "removed-full-av": "b9da65f0b802af7f0ade9b80b3f7436445654216204d2466ea93d6ca8461a22f",
    },
    "sparse": {
        "full-lm": "55c36defc81e5ff3b877cb652f1cea357f3cae967533d4126e41188ae2e6b89f",
        "full-av": "ff285fe3e31c0df48be7a238dcb251acb77ae89097afa1b5179eb0b453fd2dd6",
        "sorted-lm": "8c99d2102a630184e00c871da30dd96099aa59e129bf708a2c027661fb6e6dc0",
        "unsorted-lm": "184503f7e225b4707cd7ca14adae6943058d601817c8d436c9d70c51e208f5ca",
        "unsorted-av": "1ab4b54e5551bd7b778150edfc42e5ad6c0e47166124699052f54f02dd6ea875",
        "budget-fill": "46de8c239e5952c3cedb8506c4fe348af7ff4f3b1d5deb8bb27b277f8d9b7449",
        "removed-full-lm": "ee8243e01119105e5d3810c94a92cca0f82c59cabc6d496688f8ab761baf2dd8",
        "removed-full-av": "3a3d7c7a38a2441bf953f2dcbfd107e53e94d03f16997596f77cfa91829f29df",
    },
}


def make_store(kind: str):
    """The seeded instance: integer ratings 1-5, sparse at ~35% stored."""
    rng = np.random.default_rng(20241018)
    values = rng.integers(1, 6, size=(N_USERS, N_ITEMS)).astype(float)
    if kind == "dense":
        return DenseStore(values)
    stored = np.where(rng.random(values.shape) < 0.35, values, 0.0)
    return SparseStore(sp.csr_matrix(stored), fill_value=1.0)


@contextlib.contextmanager
def running_server(kind: str):
    """A :class:`ServiceServer` over the seeded ``kind`` store, on a thread."""
    service = FormationService(make_store(kind), k_max=4)
    srv = ServiceServer(service, port=0)
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.time() + 5
    while srv._server is None:
        if time.time() > deadline:  # pragma: no cover - startup failure
            raise RuntimeError("server did not start")
        time.sleep(0.01)
    try:
        yield srv
    finally:

        async def settle() -> None:
            tasks = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(settle(), loop).result(timeout=5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)


def digest(srv: ServiceServer, body: dict) -> str:
    req = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}/v1/recommend",
        data=json.dumps(body).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        assert resp.status == 200
        payload = json.loads(resp.read())
    canonical = json.dumps(canonical_response(payload))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def served_digests(srv: ServiceServer) -> dict[str, str]:
    """Digest of every case, then of the full reads after :data:`REMOVED`."""
    got = {name: digest(srv, body) for name, body in CASES}
    srv.service.apply_updates(remove_users=REMOVED)
    for name, body in CASES[:2]:
        got[f"removed-{name}"] = digest(srv, body)
    return got


@pytest.mark.parametrize("kind", ("dense", "sparse"))
def test_recommend_responses_match_golden_digests(kind):
    with running_server(kind) as srv:
        assert served_digests(srv) == GOLDEN[kind]


if __name__ == "__main__":  # pragma: no cover - digest regeneration helper
    import pprint

    for kind in GOLDEN:
        with running_server(kind) as srv:
            print(kind)
            pprint.pprint(served_digests(srv))
