"""Metrics parity across the replica pool, including kill -9 + respawn.

The contract under test: ``repro_replica_requests_total`` summed across
every slab slot equals the number of successfully answered pool requests —
replica crashes and respawns may neither lose that count (respawn
re-attaches the same slot without resetting it) nor double it (the
counter is bumped exactly once, just before the reply is sent).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.obs.registry import (
    H_QUEUE_WAIT,
    H_REPLICA_CALL,
    K_POOL_DISPATCHED,
    K_REPLICA_SERVED,
    MetricsRegistry,
)
from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool


@pytest.fixture
def service():
    values = np.random.default_rng(29).integers(1, 6, size=(40, 12)).astype(float)
    service = FormationService(DenseStore(values), k_max=5)
    yield service
    service.close()


async def wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(message)
        await asyncio.sleep(0.02)


def test_replica_served_counts_aggregate_across_processes(service):
    registry = MetricsRegistry.create_shared(3)  # writer + 2 replicas
    pool = ReplicaPool(
        service, replicas=2, inflight=2, queue_depth=16, metrics=registry,
    )
    pool.start()

    async def scenario():
        for _ in range(6):
            payload = await pool.recommend(k=3, max_groups=5)
            assert "replica" in payload
        await pool.shutdown()

    try:
        asyncio.run(scenario())
        # Replica increments land in slots 1..2; the writer's slot stays 0.
        assert registry.value(K_REPLICA_SERVED) == 6
        assert registry.slot_value(K_REPLICA_SERVED, 0) == 0
        assert registry.value(K_POOL_DISPATCHED) == 6
        assert registry.histogram(H_QUEUE_WAIT)["count"] == 6
        assert registry.histogram(H_REPLICA_CALL)["count"] == 6
    finally:
        registry.close()


def test_counts_survive_replica_kill_dash_nine_without_double_counting(service):
    registry = MetricsRegistry.create_shared(3)
    pool = ReplicaPool(
        service, replicas=2, inflight=2, queue_depth=16,
        request_timeout=60.0, heartbeat_interval=0.2, metrics=registry,
    )
    pool.start()
    answered = 0

    async def scenario():
        nonlocal answered
        for _ in range(4):
            await pool.recommend(k=3, max_groups=5)
            answered += 1

        # kill -9 an IDLE replica: no request is in flight on it, so no
        # served count can be lost mid-increment.
        victim = pool._slots[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=10)

        # Requests keep being answered (retried on the survivor while the
        # supervisor respawns slot 0).
        for _ in range(4):
            await pool.recommend(k=3, max_groups=5)
            answered += 1
        await wait_for(
            lambda: pool.counters["respawns"] >= 1
            and all(s.alive and s.process.is_alive() for s in pool._slots),
            30, "killed replica was never respawned",
        )
        # The respawned replica re-attaches the same slab slot and resumes.
        seen = set()
        for _ in range(6):
            payload = await pool.recommend(k=3, max_groups=5)
            answered += 1
            seen.add(payload["replica"])
        assert seen == {0, 1}, f"respawned replica never served: {seen}"
        await pool.shutdown()

    try:
        asyncio.run(scenario())
        # Exactly one served increment per answered request: counts from
        # before the kill survived (attach does not reset the slot) and
        # nothing was counted twice through the crash/retry/respawn cycle.
        assert registry.value(K_REPLICA_SERVED) == answered
        assert registry.value(K_POOL_DISPATCHED) == answered
    finally:
        registry.close()


def test_pool_without_injected_registry_builds_its_own_slab(service):
    pool = ReplicaPool(service, replicas=1, request_timeout=60.0)
    pool.start()

    async def scenario():
        for _ in range(3):
            await pool.recommend(k=3, max_groups=5)
        # The pool created a private slab so replica counts still aggregate.
        assert pool.metrics.value(K_REPLICA_SERVED) == 3
        await pool.shutdown()

    asyncio.run(scenario())
    # Shutdown folded the slab into a local row; the numbers stay readable.
    assert pool.metrics.value(K_REPLICA_SERVED) == 3
