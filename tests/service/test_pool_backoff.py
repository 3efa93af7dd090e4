"""Respawn policy: exponential backoff, seeded jitter, circuit breaker."""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro import faults
from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool
from repro.service.pool import ReplicaPoolError


@pytest.fixture(autouse=True)
def _reset_faults():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def service():
    values = np.random.default_rng(17).integers(1, 6, size=(30, 10)).astype(float)
    service = FormationService(DenseStore(values), k_max=4)
    yield service
    service.close()


def _delays(service, seed, failures_through=6, backoff=0.5, ceiling=4.0):
    pool = ReplicaPool(
        service, replicas=1, respawn_backoff=backoff,
        respawn_max_backoff=ceiling, backoff_seed=seed,
    )
    state = pool._respawn_state[0]
    out = []
    for failures in range(1, failures_through + 1):
        state.failures = failures
        out.append(pool._backoff_delay(state))
    return out


def test_backoff_is_exponential_with_bounded_jitter(service):
    delays = _delays(service, seed=3, backoff=0.5, ceiling=4.0)
    # First consecutive failure respawns immediately; later ones double.
    assert delays[0] == 0.0
    for i, base in enumerate([0.5, 1.0, 2.0, 4.0, 4.0], start=1):
        assert base <= delays[i] <= base * 1.25, (i, delays[i])
    # The ceiling applies to the base, not the jitter.
    assert max(delays) <= 4.0 * 1.25


def test_backoff_jitter_is_deterministic_per_seed(service):
    assert _delays(service, seed=9) == _delays(service, seed=9)
    assert _delays(service, seed=9) != _delays(service, seed=10)


def test_first_death_after_healthy_run_respawns_immediately(service):
    pool = ReplicaPool(
        service, replicas=1, heartbeat_interval=0.1, respawn_min_uptime=0.0,
        request_timeout=60.0,
    )
    pool.start()

    async def scenario():
        os.kill(pool._slots[0].process.pid, signal.SIGKILL)
        payload = await asyncio.wait_for(
            pool.recommend(k=3, max_groups=4), timeout=30
        )
        assert payload["replica"] == 0
        assert pool.counters["respawns"] == 1
        assert pool.counters["respawn_failures"] == 0
        assert pool.stats()["breakers_open"] == 0
        await pool.shutdown()

    asyncio.run(scenario())


def test_crash_loop_opens_breaker_then_half_open_recovers(service):
    pool = ReplicaPool(
        service, replicas=1, heartbeat_interval=0.05,
        respawn_backoff=0.05, respawn_max_backoff=0.3,
        respawn_budget=3, respawn_min_uptime=2.0, request_timeout=60.0,
    )
    pool.start()

    async def scenario():
        # Healthy baseline, then the spawn path starts failing: every
        # respawn attempt dies at bring-up, a deterministic crash loop.
        await pool.recommend(k=3, max_groups=4)
        faults.configure("pool.spawn=io@always")
        os.kill(pool._slots[0].process.pid, signal.SIGKILL)

        deadline = time.monotonic() + 15
        while pool.stats()["breakers_open"] != 1:
            if time.monotonic() > deadline:  # pragma: no cover - no breaker
                raise AssertionError(
                    f"breaker never opened: {pool.counters}"
                )
            await asyncio.sleep(0.02)
        # budget=3 consecutive failures: the death plus 2 failed bring-ups.
        assert pool.counters["respawn_failures"] >= 2
        assert pool.counters["respawns"] == 0

        # Every slot dead + breaker open: requests fail fast, not queue.
        with pytest.raises(ReplicaPoolError):
            await pool.recommend(k=3, max_groups=4)

        # The disk/fork recovers: the next half-open trial brings the
        # replica back without a restart of the pool.
        faults.reset()
        deadline = time.monotonic() + 15
        while pool.counters["respawns"] < 1:
            if time.monotonic() > deadline:  # pragma: no cover - stuck
                raise AssertionError(
                    f"half-open trial never respawned: {pool.counters}"
                )
            await asyncio.sleep(0.05)
        payload = await asyncio.wait_for(
            pool.recommend(k=3, max_groups=4), timeout=30
        )
        assert payload["replica"] == 0

        # Probation: after respawn_min_uptime of healthy serving the
        # supervisor resets the failure count and closes the breaker.
        deadline = time.monotonic() + 15
        while pool.stats()["breakers_open"] != 0:
            if time.monotonic() > deadline:  # pragma: no cover - stuck
                raise AssertionError("breaker never reset after recovery")
            await asyncio.sleep(0.1)
        assert pool._respawn_state[0].failures == 0
        await pool.shutdown()

    asyncio.run(scenario())


def test_respawn_knob_validation(service):
    with pytest.raises(Exception):
        ReplicaPool(service, replicas=1, respawn_backoff=0.0)
    with pytest.raises(Exception):
        ReplicaPool(
            service, replicas=1, respawn_backoff=2.0, respawn_max_backoff=1.0
        )
    with pytest.raises(Exception):
        ReplicaPool(service, replicas=1, respawn_budget=0)
    with pytest.raises(Exception):
        ReplicaPool(service, replicas=1, respawn_min_uptime=-1.0)
