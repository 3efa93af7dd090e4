"""Shared-memory lifetime: replica churn must not leak segments."""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def shm_segments() -> set[str]:
    return set(os.listdir(SHM_DIR))


def test_spawn_kill_publish_churn_leaves_no_segments():
    """Three rounds of start → serve → publish → SIGKILL → respawn →
    shutdown leave ``/dev/shm`` exactly as it was found."""
    values = np.random.default_rng(5).integers(1, 6, size=(36, 10)).astype(float)
    before = shm_segments()

    for round_no in range(3):
        service = FormationService(DenseStore(values.copy()), k_max=5)
        pool = ReplicaPool(service, replicas=2, request_timeout=60.0)
        pool.start()

        async def churn() -> None:
            await pool.recommend(k=3, max_groups=5)
            service.apply_updates(upserts=[(round_no, 0, 5.0)])
            await pool.publish()  # retires the previous export
            victim = pool._slots[round_no % 2]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while pool.counters["respawns"] < 1:
                assert time.monotonic() < deadline, "respawn never happened"
                await asyncio.sleep(0.05)
            await pool.recommend(k=3, max_groups=5)
            await pool.shutdown()

        asyncio.run(churn())
        service.close()

    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


CHURN_SCRIPT = """
import asyncio, os, signal
import numpy as np
from repro.recsys.store import DenseStore
from repro.service import FormationService, ReplicaPool

values = np.random.default_rng(5).integers(1, 6, size=(36, 10)).astype(float)

async def main():
    for _ in range(2):
        service = FormationService(DenseStore(values.copy()), k_max=5)
        pool = ReplicaPool(service, replicas=2, request_timeout=60.0)
        pool.start()
        await pool.recommend(k=3, max_groups=5)
        service.apply_updates(upserts=[(0, 0, 5.0)])
        await pool.publish()
        os.kill(pool._slots[0].process.pid, signal.SIGKILL)
        while pool.counters["respawns"] < 1:
            await asyncio.sleep(0.05)
        await pool.recommend(k=3, max_groups=5)
        await pool.shutdown()
        service.close()
    print("CHURN-OK")

asyncio.run(main())
"""


def test_interpreter_exit_emits_no_resource_tracker_warnings():
    """A full churn run in a fresh interpreter must exit silently: no
    ``resource_tracker`` leak warnings, no ``KeyError`` unlink races on
    stderr at interpreter shutdown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHURN_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CHURN-OK" in proc.stdout
    for marker in ("resource_tracker", "leaked", "Traceback"):
        assert marker not in proc.stderr, (
            f"stderr mentions {marker!r}:\n{proc.stderr}"
        )
