"""Telemetry plane: cross-process metrics, request tracing, exposition.

The package has four small modules:

* :mod:`repro.obs.registry` — the lock-cheap metrics registry (counters,
  gauges, fixed-bucket latency histograms) and the shared-memory slab that
  makes it work across the writer and replica processes;
* :mod:`repro.obs.trace` — request-scoped span trees over ``contextvars``
  with ~zero cost when disabled;
* :mod:`repro.obs.runtime` — the process-global registry used by call
  sites too deep to plumb (kernels, WAL, snapshots) and the
  :class:`~repro.obs.runtime.observed` span+histogram timer;
* :mod:`repro.obs.expo` / :mod:`repro.obs.logs` — Prometheus-text and
  JSON exposition, and JSON-lines structured logging.

See ``docs/observability.md`` for the metric catalogue and span taxonomy.
"""

from repro.obs.expo import CONTENT_TYPE_PROMETHEUS, render_json, render_prometheus
from repro.obs.logs import JsonLineFormatter, configure_logging
from repro.obs.registry import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSlab,
    SlabSpec,
    bucket_index,
    bucket_quantile,
    default_schema,
    enabled,
    sample_key,
    set_enabled,
)

__all__ = [
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsSlab",
    "SlabSpec",
    "bucket_index",
    "bucket_quantile",
    "default_schema",
    "enabled",
    "sample_key",
    "set_enabled",
    "render_json",
    "render_prometheus",
    "CONTENT_TYPE_PROMETHEUS",
    "JsonLineFormatter",
    "configure_logging",
]
