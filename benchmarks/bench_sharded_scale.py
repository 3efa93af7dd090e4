#!/usr/bin/env python
"""Million-user batch formation: the sparse data plane's scale proof.

Generates a ``--users x --items`` instance at ``--density`` directly into a
CSR :class:`~repro.recsys.store.SparseStore` (no dense matrix is ever
materialised — the dense equivalent of the default 1M x 10k instance would
need ~80 GB), then forms groups through
:class:`~repro.core.engine.FormationEngine` and reports wall time and peak
RSS, both right after generation (``generate_peak_rss_gib``) and at the
end of the run (``peak_rss_gib``).  The default configuration is the scale
acceptance check::

    PYTHONPATH=src python benchmarks/bench_sharded_scale.py

which must complete with peak RSS < 8 GB.  The run is written to
``BENCH_sharded_scale.json`` via the shared timing writer.  Without a C
compiler (``REPRO_KERNEL_CC=none``) the numpy CSR top-k ranks in row
blocks of a fixed entry budget; ``--users 200000 --max-rss-gib 1.0`` is the
quick check that this bound holds.

Not collected by pytest (no ``test_`` functions) — this is an operator
script, sized in minutes, not a CI gate.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from _timing import bench_entry, write_bench_json

from repro.core import FormationEngine
from repro.datasets import synthetic_sparse_store


def peak_rss_gib() -> float:
    """Peak resident set size of this process in GiB (Linux: ru_maxrss is KiB)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        rss_kib /= 1024.0
    return rss_kib / (1024.0 * 1024.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=1_000_000)
    parser.add_argument("--items", type=int, default=10_000)
    parser.add_argument("--density", type=float, default=0.01)
    parser.add_argument("--groups", type=int, default=64, help="group budget l")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--semantics", default="lm", choices=["lm", "av"])
    parser.add_argument("--aggregation", default="min")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rss-gib", type=float, default=8.0,
                        help="fail if peak RSS exceeds this (default: 8)")
    args = parser.parse_args(argv)

    instance = (
        f"{args.users}x{args.items} @ {args.density:.0%}, "
        f"l={args.groups}, k={args.k}"
    )
    print(f"generating sparse instance: {instance}")
    t0 = time.perf_counter()
    store = synthetic_sparse_store(
        args.users, args.items, density=args.density, rng=args.seed
    )
    gen_seconds = time.perf_counter() - t0
    gen_rss = peak_rss_gib()
    print(
        f"  generated in {gen_seconds:.1f}s (peak RSS {gen_rss:.2f} GiB): "
        f"nnz={store.csr.nnz:,} "
        f"({store.nbytes / 2**30:.2f} GiB CSR; dense would be "
        f"{args.users * args.items * 8 / 2**30:.1f} GiB)"
    )

    engine = FormationEngine("numpy")
    t0 = time.perf_counter()
    result = engine.run(store, args.groups, args.k, args.semantics, args.aggregation)
    form_seconds = time.perf_counter() - t0
    rss = peak_rss_gib()
    print(f"  {result.summary()}")
    recommendation_seconds = result.extras["recommendation_seconds"]
    print(
        f"  formation {form_seconds:.1f}s (scoring lap "
        f"{recommendation_seconds:.2f}s, groups={result.n_groups}, "
        f"intermediate={result.extras['n_intermediate_groups']:,}), "
        f"peak RSS {rss:.2f} GiB"
    )
    write_bench_json("sharded_scale", [bench_entry(
        instance, form_seconds, backend="numpy", store="sparse",
        recommendation_seconds=recommendation_seconds,
        generate_seconds=gen_seconds, generate_peak_rss_gib=round(gen_rss, 3),
        peak_rss_gib=round(rss, 3),
        objective=result.objective,
    )])

    if rss > args.max_rss_gib:
        print(f"FAIL: peak RSS {rss:.2f} GiB > {args.max_rss_gib} GiB", file=sys.stderr)
        return 1
    print(f"OK: peak RSS {rss:.2f} GiB <= {args.max_rss_gib} GiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
