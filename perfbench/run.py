#!/usr/bin/env python3
"""The repository benchmark: one command, named workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload batch-sparse --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen, the
layers it exercises and bypasses, and the layer-to-end-to-end map):

* ``batch-sparse`` — library formation on a 50,000 x 10,000 sparse store;
* ``serve-read``   — ``/v1/recommend`` subset reads against ``repro serve``;
* ``serve-ingest`` — durable ``/v1/events`` writes beside full-population
  reads, then a restart over the same WAL directory.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
installs the timing wrappers of ``perfbench/tracer.py`` and reports the
per-layer metrics instead, plus ``unattributed_s`` and the tracing
overhead.  Every metric is printed with its unit and sample count; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every output checked out, 1 on any wrong answer, 2 when the
repository sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

WORKLOADS = {
    "batch-sparse": "batch_sparse",
    "serve-read": "serve_read",
    "serve-ingest": "serve_ingest",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("benchmarks"), here]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p
    )
    # Keep every file the program writes inside the checkout.
    from common import bench_dir

    os.environ["REPRO_KERNEL_CACHE"] = os.path.abspath(bench_dir("kernels"))

    from _timing import _git_commit

    workload = importlib.import_module(WORKLOADS[args.workload])
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={_git_commit()}")
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))

    for note in outcome.notes:
        print(f"  ! {note}")
    for name, (value, unit, samples) in outcome.info.items():
        print(f"  ({name:30s} {value:14.6f} {unit:10s} (n={samples}))")
    metrics = {}
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:10s} (n={samples})")
        metrics[name] = {"value": value, "unit": unit}
    correct = outcome.mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
