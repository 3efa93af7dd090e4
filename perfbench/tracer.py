"""Span recorder and the timing wrappers of the traced benchmark run.

The benchmark measures the program from outside: a traced run replaces
public functions of the ``repro`` layers with wrappers that record one
span per call — ``(name, start, end, parent, self_seconds, counts)`` —
and otherwise call straight through.  Each name is patched where its
caller looks it up (``sharded.py`` imports ``finalise_plan`` by name, so
both ``repro.core.engine.finalise_plan`` and
``repro.core.sharded.finalise_plan`` are wrapped).  Nothing under
``src/`` changes.

Spans are kept in memory, one list per process, and written out once
(:meth:`Tracer.dump`) when the process ends.  Synchronous spans nest per
thread, so a span's self time is its duration minus that of its direct
children.  Coroutine spans (HTTP request handling, batch waits, replica
publishes) interleave on the event loop, so they are recorded flat and
never parent another span.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
process on the host, so the benchmark selects the spans of its
measurement window by timestamp across the server's processes.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one process.

    ``recording`` is the switch the wrappers consult on every call; when
    it is off they call straight through and record nothing.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every span (a forked child starts with an empty trace)."""
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _reserve(self) -> int:
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def wrap(self, name, fn, counts=None, before=None):
        """Wrap a synchronous callable in a nesting span.

        ``counts(args, kwargs, result, pre)`` returns the span's work
        counts (``pre`` is ``before(args, kwargs)``, taken before the
        call); both are evaluated only while recording.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [self._reserve(), 0.0]
            pre = before(args, kwargs) if before is not None else None
            stack.append(frame)
            start = time.perf_counter()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                extra = counts(args, kwargs, result, pre) if ok and counts else None
                self.spans[frame[0]] = (
                    name, start, end, parent[0] if parent else -1,
                    end - start - frame[1], extra,
                )

        return wrapper

    def wrap_async(self, name, fn):
        """Wrap a coroutine function in a flat (never-parenting) span."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.recording:
                return await fn(*args, **kwargs)
            index = self._reserve()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans[index] = (name, start, end, -1, end - start, None)

        return wrapper

    def patch(self, owner, attr, name, counts=None, before=None,
              is_async=False):
        """Replace ``owner.attr`` with its traced wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if is_async:
            wrapped = self.wrap_async(name, fn)
        else:
            wrapped = self.wrap(name, fn, counts, before)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def dump(self, directory: str) -> None:
        """Write this process's finished spans to ``spans-<pid>.json``."""
        spans = [span for span in self.spans if span is not None]
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": spans}, handle)


def aggregate(spans, start=float("-inf"), end=float("inf")) -> dict:
    """Per-name totals of the spans that began inside ``[start, end]``.

    Returns ``{name: {"self": s, "wall": s, "calls": n, <count>: total}}``.
    """
    totals: dict = defaultdict(lambda: defaultdict(float))
    for name, t0, t1, _parent, self_s, extra in spans:
        if not start <= t0 <= end:
            continue
        entry = totals[name]
        entry["self"] += self_s
        entry["wall"] += t1 - t0
        entry["calls"] += 1
        for key, value in (extra or {}).items():
            entry[key] += value
    return totals


def load_spans(directory: str) -> list:
    """Every span dumped into ``directory`` by any process."""
    spans: list = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                spans.extend(tuple(span) for span in json.load(handle)["spans"])
    return spans


# ---------------------------------------------------------------------- #
# The layers
# ---------------------------------------------------------------------- #


def _rows(args, kwargs, result, pre):
    return {"rows": int(args[0].shape[0])}


def _top_k(args, kwargs, result, pre):
    rows, items = args[0].shape
    # Bytes are computed, not measured: each ranked row is read once as
    # float64.
    return {"rows": int(rows), "bytes": int(rows) * int(items) * 8}


def _apply_counts(args, kwargs, result, pre):
    return {
        "updates": result["upserts"] + result["deletes"],
        "skipped": result["skipped_updates"],
    }


def _wal_bytes(args, kwargs, result, pre):
    from repro.ingest import wal

    payload = json.dumps(args[1], sort_keys=True, separators=(",", ":"))
    return {"bytes": len(payload.encode("utf-8")) + wal._HEADER.size + wal._CRC.size}


def install_layers(tracer: Tracer) -> None:
    """Patch every traced public function of the ``repro`` layers."""
    from repro.core import engine, kernels, sharded, topk_index
    from repro.ingest import pipeline, snapshot, wal
    from repro.recsys import store
    from repro.service import http, pool, service

    patch = tracer.patch
    patch(store.SparseStore, "_densify", "store.densify",
          counts=lambda a, k, r, p: {"cells": int(r.size)})
    for cls in (store.SparseStore, store.DenseStore):
        patch(cls, "upsert", "store.write")
        patch(cls, "delete", "store.write")

    patch(kernels, "top_k_table", "kernels.top_k", counts=_top_k)
    patch(kernels, "bucketize", "kernels.group", counts=_rows)
    patch(kernels, "group_key_rows", "kernels.group", counts=_rows)

    patch(topk_index.MutableTopKIndex, "apply", "topk_index.apply",
          counts=_apply_counts)
    patch(topk_index.MutableTopKIndex, "_repair", "topk_index.repair",
          counts=lambda a, k, r, p: {"rows": int(a[1].size)})

    patch(sharded, "summarise_store_shard", "sharded.summarise")
    patch(sharded, "summarise_tables", "sharded.summarise")
    patch(service, "summarise_tables", "sharded.summarise")
    patch(sharded, "merge_summaries", "sharded.merge",
          counts=lambda a, k, r, p: {"buckets": int(r[0].size)})
    patch(sharded, "plan_from_summaries", "sharded.select")

    patch(engine.NumpyBackend, "form", "engine.form")
    patch(engine, "finalise_plan", "engine.finalise")
    patch(sharded, "finalise_plan", "engine.finalise")
    patch(engine, "build_group", "scoring",
          counts=lambda a, k, r, p: {"groups": 1})
    patch(engine, "group_satisfaction", "scoring",
          counts=lambda a, k, r, p: {"groups": 1, "leftover_users": len(a[1])})

    patch(service.FormationService, "recommend", "service.recommend")
    patch(service.FormationService, "apply_updates", "service.apply")
    patch(http.ServiceServer, "_handle_connection", "http.request", is_async=True)
    patch(http.ServiceServer, "_events", "http.batch_wait", is_async=True)
    patch(pool.ReplicaPool, "publish", "pool.publish", is_async=True)

    patch(pipeline, "fold_events", "ingest.fold",
          counts=lambda a, k, r, p: {"events": len(a[0])})
    patch(pipeline.IngestPipeline, "ingest", "ingest.apply")
    patch(wal.WriteAheadLog, "append", "wal.append", counts=_wal_bytes)
    patch(wal.WriteAheadLog, "sync", "wal.fsync",
          before=lambda a, k: a[0].syncs,
          counts=lambda a, k, r, p: {"fsyncs": a[0].syncs - p})
    patch(snapshot.SnapshotManager, "save", "snapshot.write")
    patch(snapshot.SnapshotManager, "load_latest", "recovery.load")
    patch(pipeline.IngestPipeline, "replay_record", "recovery.replay",
          counts=lambda a, k, r, p: {"batches": int(bool(r))})
