"""Replica pool: routing, parity, versioned swap, admission, shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.errors import IngestError
from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool, ServiceConfig, ServiceServer
from repro.service.pool import (
    PoolOverloaded,
    PoolShuttingDown,
    ReplicaPoolError,
    canonical_response,
)


@pytest.fixture
def values():
    return np.random.default_rng(3).integers(1, 6, size=(48, 14)).astype(float)


@pytest.fixture
def service(values):
    service = FormationService(DenseStore(values.copy()), k_max=5)
    yield service
    service.close()


def run_pool(pool, coro):
    """Drive one pool coroutine to completion on a fresh event loop."""
    async def body():
        try:
            return await coro
        finally:
            await pool.shutdown()

    return asyncio.run(body())


# --------------------------------------------------------------------- #
# Parity and the versioned swap
# --------------------------------------------------------------------- #


def test_replica_responses_bit_identical_to_single_process(service):
    pool = ReplicaPool(service, replicas=2)
    pool.start()

    async def scenario():
        results = []
        for params in (
            dict(k=3, max_groups=5),
            dict(k=2, max_groups=4, semantics="av", aggregation="sum"),
            dict(k=3, max_groups=5, user_ids=list(range(0, 20))),
        ):
            single = service.recommend(**params).as_dict()
            routed = await pool.recommend(**params)
            results.append((params, canonical_response(routed),
                            canonical_response(single), routed))
        return results

    for params, routed, single, raw in run_pool(pool, scenario()):
        assert routed == single, f"replica response differs for {params}"
        assert raw["replica"] in (0, 1)
        assert raw["pool_version"] == 0


def test_publish_swaps_to_the_writers_version(service):
    pool = ReplicaPool(service, replicas=2)
    pool.start()

    async def scenario():
        assert await pool.publish() is False  # same version: no-op
        service.apply_updates(upserts=[(0, 1, 5.0), (7, 3, 1.0)])
        assert pool.version == 0  # replicas still serve the old version
        stale = await pool.recommend(k=3, max_groups=5)
        assert stale["extras"]["service_version"] == 0
        assert await pool.publish() is True
        assert pool.version == service.version == 1
        fresh = await pool.recommend(k=3, max_groups=5)
        single = service.recommend(k=3, max_groups=5).as_dict()
        assert fresh["extras"]["service_version"] == 1
        assert canonical_response(fresh) == canonical_response(single)

    run_pool(pool, scenario())


def test_replicas_adopt_tombstones(service):
    pool = ReplicaPool(service, replicas=1)
    pool.start()

    async def scenario():
        service.apply_updates(remove_users=[5, 11])
        await pool.publish()
        routed = await pool.recommend(k=3, max_groups=5)
        single = service.recommend(k=3, max_groups=5).as_dict()
        assert canonical_response(routed) == canonical_response(single)
        members = {m for g in routed["groups"] for m in g["members"]}
        assert not members & {5, 11}

    run_pool(pool, scenario())


def test_canonical_response_strips_only_bookkeeping():
    payload = {
        "groups": [{"members": [1, 2]}],
        "objective": 4.5,
        "coalesced": 3,
        "replica": 1,
        "pool_version": 7,
        "extras": {
            "service_version": 7,
            "subset_size": 16,
            "formation_seconds": 0.01,
            "recommendation_seconds": 0.02,
            "backend": "numpy",
        },
    }
    stripped = canonical_response(payload)
    assert stripped == {
        "groups": [{"members": [1, 2]}],
        "objective": 4.5,
        "extras": {"service_version": 7, "backend": "numpy"},
    }
    # The original payload is untouched (callers keep their bookkeeping).
    assert payload["replica"] == 1


def test_replica_validation_errors_propagate(service):
    pool = ReplicaPool(service, replicas=1)
    pool.start()

    async def scenario():
        with pytest.raises(Exception) as excinfo:
            await pool.recommend(k=0, max_groups=5)
        assert "k" in str(excinfo.value)
        # The replica survives a rejected request and keeps serving.
        ok = await pool.recommend(k=2, max_groups=4)
        assert ok["n_groups"] >= 1

    run_pool(pool, scenario())


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #


def test_full_queue_rejects_with_overloaded(service):
    pool = ReplicaPool(service, replicas=1, inflight=1, queue_depth=0)
    pool.start()

    async def scenario():
        slot = await pool._acquire()  # occupy the only slot
        try:
            with pytest.raises(PoolOverloaded):
                await pool._acquire()
            assert pool.counters["rejected_overloaded"] == 1
        finally:
            pool._release(slot)
        # Capacity freed: requests flow again.
        assert (await pool.recommend(k=2, max_groups=4))["n_groups"] >= 1

    run_pool(pool, scenario())


def test_queued_request_runs_when_capacity_frees(service):
    pool = ReplicaPool(service, replicas=1, inflight=1, queue_depth=4)
    pool.start()

    async def scenario():
        slot = await pool._acquire()
        queued = asyncio.ensure_future(pool.recommend(k=2, max_groups=4))
        await asyncio.sleep(0.05)
        assert not queued.done() and len(pool._waiters) == 1
        pool._release(slot)
        payload = await asyncio.wait_for(queued, timeout=30)
        assert payload["n_groups"] >= 1

    run_pool(pool, scenario())


def test_shutdown_rejects_queued_requests(service):
    pool = ReplicaPool(service, replicas=1, inflight=1, queue_depth=4)
    pool.start()

    async def scenario():
        slot = await pool._acquire()
        queued = asyncio.ensure_future(pool.recommend(k=2, max_groups=4))
        await asyncio.sleep(0.05)
        await pool.shutdown()
        with pytest.raises(PoolShuttingDown):
            await queued
        assert pool.counters["rejected_shutdown"] >= 1
        slot.inflight = 0  # the reserved slot was never dispatched

    asyncio.run(scenario())


def test_pool_constructor_validation(service):
    with pytest.raises(Exception):
        ReplicaPool(service, replicas=0)
    with pytest.raises(ReplicaPoolError):
        ReplicaPool(service, replicas=1, queue_depth=-1)
    with pytest.raises(ReplicaPoolError):
        ReplicaPool(service, replicas=1, request_timeout=0)


# --------------------------------------------------------------------- #
# Config plumbing
# --------------------------------------------------------------------- #


def test_service_config_replica_validation():
    with pytest.raises(IngestError):
        ServiceConfig(replicas=-1)
    with pytest.raises(IngestError):
        ServiceConfig(replica_inflight=0)
    with pytest.raises(IngestError):
        ServiceConfig(queue_depth=-1)
    with pytest.raises(IngestError):
        ServiceConfig(heartbeat_interval=0)


def test_build_pool_disabled_by_default(service):
    assert ServiceConfig().build_pool(service) is None


def test_build_pool_carries_the_config(service):
    config = ServiceConfig(
        users=48, items=14, replicas=2, replica_inflight=3, queue_depth=9,
        heartbeat_interval=0.5,
    )
    pool = config.build_pool(service)
    assert isinstance(pool, ReplicaPool)
    assert (pool.replicas, pool.inflight, pool.queue_depth) == (2, 3, 9)
    assert pool.heartbeat_interval == 0.5
    assert pool.settings.k_max == service.stats()["k_max"]


# --------------------------------------------------------------------- #
# HTTP shutdown drains the routing queue with structured 503s
# --------------------------------------------------------------------- #


def test_http_shutdown_answers_queued_reads_with_503(values):
    """Reads stuck behind a wedged replica at shutdown get a structured
    ``503 shutting_down`` body, never a dropped connection."""
    service = FormationService(DenseStore(values.copy()), k_max=5)
    pool = ReplicaPool(
        service, replicas=1, inflight=1, queue_depth=8, request_timeout=2.0
    )
    pool.start()
    server = ServiceServer(service, port=0, pool=pool)
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

    # Freeze the only replica so requests pile up behind it.
    os.kill(pool._slots[0].process.pid, signal.SIGSTOP)

    statuses: list[tuple[int, dict]] = []
    lock = threading.Lock()

    def post_read(subset) -> None:
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend",
            data=json.dumps(
                {"k": 2, "max_groups": 4, "user_ids": subset}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                payload = json.loads(resp.read())
                with lock:
                    statuses.append((resp.status, payload))
        except urllib.error.HTTPError as exc:
            payload = json.loads(exc.read())
            with lock:
                statuses.append((exc.code, payload))

    posters = [
        threading.Thread(target=post_read, args=([0, i + 1, i + 2],))
        for i in range(3)
    ]
    for poster in posters:
        poster.start()
    deadline = time.time() + 10
    while len(pool._waiters) + sum(s.inflight for s in pool._slots) < 3:
        assert time.time() < deadline, "reads never queued behind the replica"
        time.sleep(0.01)

    asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(timeout=30)
    for poster in posters:
        poster.join(timeout=30)
        assert not poster.is_alive()
    asyncio.run_coroutine_threadsafe(asyncio.sleep(0.1), loop).result(timeout=5)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)

    assert len(statuses) == 3, "every connection must get an HTTP response"
    for status, payload in statuses:
        assert status == 503
        assert payload["error"]["code"] == "shutting_down"
    service.close()
