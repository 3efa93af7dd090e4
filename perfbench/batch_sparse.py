"""``batch-sparse``: the paper's batch job on a sparse CSR store.

50,000 users x 10,000 items at 1% density (about 5M stored ratings),
formed by ``ShardedFormation(shards=8)`` serially with k=5 and a budget
of 64 groups, alternating LM-min and AV-sum.  Store densify, the top-k
kernel, shard summarise/merge and the left-over group's scoring all do
real work; no key is shared, so nearly every user ends in the left-over
group.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time

import numpy as np

from common import Outcome, median, percentile, self_rss_mib

USERS, ITEMS, DENSITY = 50_000, 10_000, 0.01
SHARDS, K, GROUPS = 8, 5, 64
VARIANTS = (("lm", "min"), ("av", "sum"))
#: Instance builds per untraced run; setup_s is their median.
SETUPS = 3
#: Users of the seeded sample checked against the reference backend.
SAMPLE_USERS = 2_000


def build_store(seed: int):
    """The seeded instance (generation is the workload's set-up)."""
    from repro.datasets.synthetic import synthetic_sparse_store

    return synthetic_sparse_store(USERS, ITEMS, density=DENSITY, rng=seed)


def digest(result) -> str:
    """Hash of a result with its timing bookkeeping stripped."""
    from repro.service.pool import canonical_response

    text = json.dumps(canonical_response(result.as_dict()), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def partition_error(result, n_users: int) -> str | None:
    """Why ``result`` is not a partition of the users within the budget."""
    if len(result.groups) > GROUPS:
        return f"{len(result.groups)} groups exceed the budget of {GROUPS}"
    members = np.concatenate([np.asarray(g.members, dtype=np.int64)
                              for g in result.groups])
    if not np.array_equal(np.sort(members), np.arange(n_users)):
        return "groups do not partition the users"
    return None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def check_reference(store, seed: int, outcome: Outcome) -> None:
    """Sharded results on a seeded user sample equal the reference backend."""
    from _timing import results_identical
    from repro.core import FormationEngine
    from repro.core.sharded import ShardedFormation
    from repro.recsys.store import SparseStore

    rng = np.random.default_rng(seed + 1)
    users = np.sort(rng.choice(USERS, size=SAMPLE_USERS, replace=False))
    sample = SparseStore(store.csr[users], fill_value=store.fill_value,
                         scale=store.scale)
    reference = FormationEngine("reference")
    for semantics, aggregation in VARIANTS:
        outcome.attempted += 1
        ours = ShardedFormation(shards=SHARDS).run(
            sample, GROUPS, K, semantics, aggregation)
        theirs = reference.run(sample, GROUPS, K, semantics, aggregation)
        if not results_identical(ours, theirs):
            outcome.mismatch(f"{semantics}-{aggregation} differs from the "
                             f"reference backend on a {SAMPLE_USERS}-user sample")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.sharded import ShardedFormation

    outcome = Outcome()
    setups = []
    store = None
    for _ in range(1 if trace else SETUPS):
        store = None  # release the previous instance before building anew
        started = time.perf_counter()
        store = build_store(seed)
        setups.append(time.perf_counter() - started)

    tracer = None
    if trace:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)

    formation = ShardedFormation(shards=SHARDS)
    # Untraced runs alternate LM, AV; traced runs alternate an untraced
    # LM+AV pair with a traced one, so both halves see the same mix.
    cycle = 4 if trace else 2
    plain: list[float] = []
    traced: list[float] = []
    traced_cpu = 0.0
    digests: dict[str, set] = {semantics: set() for semantics, _ in VARIANTS}
    started = time.perf_counter()
    i = 0
    while True:
        semantics, aggregation = VARIANTS[i % 2]
        recording = trace and (i // 2) % 2 == 1
        i += 1
        outcome.attempted += 1
        if tracer is not None:
            tracer.recording = recording
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = formation.run(store, GROUPS, K, semantics, aggregation)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            outcome.fail(f"formation {semantics}: {exc!r}")
            result = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        if result is not None:
            if recording:
                traced.append(elapsed)
                traced_cpu += _cpu_seconds() - cpu0
            else:
                plain.append(elapsed)
            error = partition_error(result, USERS)
            if error:
                outcome.mismatch(f"{semantics}: {error}")
            digests[semantics].add(digest(result))
        if time.perf_counter() - started >= seconds and i % cycle == 0:
            break

    for semantics, seen in digests.items():
        if len(seen) > 1:
            outcome.mismatch(f"{semantics}: {len(seen)} different results "
                             f"from one instance")
    check_reference(store, seed, outcome)
    if not plain:
        outcome.fail("no formation completed")
        return outcome

    if tracer is None:
        outcome.metric("setup_s", median(setups), "s", len(setups))
        outcome.metric("op_p50_ms", median(plain) * 1000.0, "ms", len(plain))
        outcome.metric("op_tail_ms", percentile(plain, 90) * 1000.0, "ms",
                       len(plain))
        outcome.metric("throughput_per_s", len(plain) / sum(plain), "1/s",
                       len(plain))
        outcome.metric("peak_rss_mib", self_rss_mib(), "MiB", 1)
        return outcome

    from layers import report
    from tracer import aggregate

    report(
        outcome, aggregate(tracer.spans), len(traced), sum(traced),
        overhead_share=sum(traced) / sum(plain) - 1.0,
        cpu_seconds=traced_cpu,
    )
    return outcome
