"""Kill -9 a live ``repro serve`` mid-ingest and recover bit-for-bit.

The server runs with ``--wal-dir`` (fsync-every-batch group commit), so
every acknowledged ``/v1/events`` batch is on disk before the HTTP 200
leaves the process.  SIGKILL gives it no chance to flush anything else —
recovery must reconstruct the exact pre-crash store and index from the
latest snapshot plus the WAL tail, and they must equal an uninterrupted
in-process run that applied the same batches.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

import numpy as np

from repro.ingest import FoldPolicy, event_from_dict, fold_events
from repro.service import ServiceConfig

CONFIG = dict(users=40, items=12, seed=7, snapshot_every=3)

BATCHES = [
    [{"kind": "rating", "user": u, "item": (u * 3 + i) % 12,
      "score": float(1 + (u + i) % 5)}
     for i in range(3)]
    for u in range(6)
] + [
    [{"kind": "click", "user": 7, "item": 2},
     {"kind": "delete", "user": 1, "item": 3}],
    [{"kind": "completion", "user": 9, "item": 4, "progress": 1.0},
     {"kind": "rating", "user": 9, "item": 4, "score": 2.0}],
]


def start_server(wal_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service.cli", "serve",
         "--users", str(CONFIG["users"]), "--items", str(CONFIG["items"]),
         "--seed", str(CONFIG["seed"]),
         "--port", "0", "--batch-window", "0.001",
         "--wal-dir", str(wal_dir),
         "--snapshot-every", str(CONFIG["snapshot_every"])],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:  # pragma: no cover - startup failure
        proc.kill()
        raise RuntimeError("server never reported its listening address")
    return proc, port


def post_events(port, events):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/events",
        data=json.dumps({"events": events}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def test_sigkill_recovery_is_bit_identical(tmp_path):
    proc, port = start_server(tmp_path)
    try:
        acked = [post_events(port, batch) for batch in BATCHES]
    finally:
        proc.kill()  # SIGKILL: no shutdown hook, no final fsync, no flush
        proc.communicate()
    assert proc.returncode != 0
    acked_seqs = [stats["wal_seq"] for stats in acked]
    assert acked_seqs == list(range(1, len(BATCHES) + 1))

    # Recover over the same directory through the same ServiceConfig path
    # `repro serve` would use on restart.
    config = ServiceConfig(wal_dir=str(tmp_path), **CONFIG)
    recovered = config.build_pipeline()
    assert recovered.wal.last_seq == acked_seqs[-1], (
        "an acknowledged batch was lost"
    )
    assert recovered.recovery["batches_replayed"] >= 1

    # The uninterrupted reference: a fresh in-process service over the
    # same bootstrap, applying the same batches in the same order.
    reference = ServiceConfig(**CONFIG).build_service()
    policy = FoldPolicy()
    for batch in BATCHES:
        events = [event_from_dict(payload) for payload in batch]
        upserts, deletes = fold_events(events, reference.store.scale, policy)
        reference.apply_updates(upserts=upserts, deletes=deletes)

    live, ref = recovered.service, reference
    assert np.array_equal(live.index.items, ref.index.items)
    assert np.array_equal(live.index.values, ref.index.values)
    assert live.index.version == ref.index.version
    assert live.index.removed == ref.index.removed
    assert np.array_equal(live.store.to_dense(), ref.store.to_dense())
    # Spot-check the last acknowledged batch: explicit 2.0 beat the
    # completion-derived 5.0 on (9, 4).
    assert live.store.to_dense()[9, 4] == 2.0

    # The recovered process keeps serving: a restart is not read-only.
    recovered.ingest([event_from_dict(
        {"kind": "rating", "user": 0, "item": 0, "score": 4.0}
    )])
    assert recovered.wal.last_seq == acked_seqs[-1] + 1
    recovered.close()
    reference.close()
