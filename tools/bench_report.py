#!/usr/bin/env python
"""Aggregate ``benchmarks/BENCH_*.json`` into the docs trajectory table.

Every timed run in the repository writes machine-readable
``benchmarks/BENCH_<name>.json`` records through one writer
(``benchmarks/_timing.py::write_bench_json``).  This tool renders all of
them into one markdown table and splices it into ``docs/benchmarks.md``
between the ``<!-- bench-trajectory:begin -->`` / ``<!-- bench-trajectory:end -->``
markers, so the recorded performance trajectory in the docs is generated,
never hand-maintained::

    python tools/bench_report.py            # rewrite docs/benchmarks.md
    python tools/bench_report.py --check    # CI: fail if the docs are stale

Exit status: 0 on success (or up-to-date docs), 1 when ``--check`` finds
the committed table out of sync with the committed ``BENCH_*.json`` files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
DOCS_PATH = ROOT / "docs" / "benchmarks.md"
BEGIN = "<!-- bench-trajectory:begin -->"
END = "<!-- bench-trajectory:end -->"

#: Entry keys folded into the "configuration" column, in display order.
_CONFIG_KEYS = (
    "backend", "store", "kernels", "threads", "stage", "semantics",
    "metric", "replicas", "clients", "read_ratio", "batch_size", "k",
    "max_groups", "requests",
)
#: Entry keys folded into the "notes" column (derived figures).
_NOTE_KEYS = (
    "speedup", "speedup_vs_numpy", "updates_per_second", "events_per_second",
    "requests_per_second", "scaling_vs_single", "physical_cap",
    "batches_replayed",
    "peak_rss_gib", "objective", "recommendation_seconds", "generate_seconds",
    "generate_peak_rss_gib",
    "server_p50_le", "server_p99_le", "queue_wait_mean", "service_time_mean",
    "obs_overhead", "faults_overhead",
    "availability", "replica_kills", "respawns", "respawn_failures",
    "parity_mismatches", "parity_ok", "pool_recovery_seconds",
    "enter_latency_seconds", "faults_injected", "acked_writes",
    "backoff_attempts", "backoff_sum_seconds",
)


def _format_seconds(seconds: float) -> str:
    """Human-scale wall-clock rendering (ms below one second)."""
    if seconds < 1.0:
        return f"{seconds * 1000:.1f} ms"
    return f"{seconds:.2f} s"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_table(bench_files: list[Path]) -> str:
    """Render every bench entry as one markdown table.

    Parameters
    ----------
    bench_files:
        The ``BENCH_*.json`` paths to aggregate (sorted for stability).
    """
    lines = [
        "| Bench | Commit | Instance | Configuration | Time | Notes |",
        "|-------|--------|----------|---------------|------|-------|",
    ]
    for path in bench_files:
        with path.open(encoding="utf-8") as handle:
            payload = json.load(handle)
        name = payload.get("name", path.stem)
        commit = payload.get("commit", "?")
        for entry in payload.get("entries", []):
            config = ", ".join(
                f"{key}={_format_value(entry[key])}"
                for key in _CONFIG_KEYS
                if key in entry
            )
            notes = ", ".join(
                f"{key}={_format_value(entry[key])}"
                for key in _NOTE_KEYS
                if key in entry
            )
            seconds = entry.get("seconds")
            lines.append(
                f"| {name} | {commit} | {entry.get('instance', '?')} "
                f"| {config} | "
                f"{_format_seconds(seconds) if seconds is not None else '—'} "
                f"| {notes} |"
            )
    return "\n".join(lines)


def splice(document: str, table: str) -> str:
    """Replace the marker-delimited region of ``document`` with ``table``.

    Parameters
    ----------
    document:
        Current ``docs/benchmarks.md`` contents.
    table:
        Rendered markdown table.
    """
    try:
        head, rest = document.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
    except ValueError as exc:
        raise SystemExit(
            f"{DOCS_PATH} is missing the {BEGIN} / {END} markers"
        ) from exc
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main(argv=None) -> int:
    """Entry point: rewrite (or ``--check``) the docs trajectory table.

    Parameters
    ----------
    argv:
        Argument vector (default: ``sys.argv[1:]``).
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify docs/benchmarks.md is up to date instead "
                             "of rewriting it (CI mode)")
    args = parser.parse_args(argv)

    bench_files = sorted(BENCH_DIR.glob("BENCH_*.json"))
    if not bench_files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    table = render_table(bench_files)
    document = DOCS_PATH.read_text(encoding="utf-8")
    updated = splice(document, table)
    if args.check:
        if updated != document:
            print(
                f"{DOCS_PATH} trajectory table is stale; run "
                f"`python tools/bench_report.py` and commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"{DOCS_PATH} trajectory table is up to date "
              f"({len(bench_files)} bench files)")
        return 0
    if updated != document:
        DOCS_PATH.write_text(updated, encoding="utf-8")
        print(f"rewrote {DOCS_PATH} from {len(bench_files)} bench files")
    else:
        print(f"{DOCS_PATH} already up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
