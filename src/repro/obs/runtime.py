"""Process-global telemetry plumbing for call sites that cannot be plumbed.

The HTTP server, replica pool and :class:`FormationService` all carry an
explicit :class:`~repro.obs.registry.MetricsRegistry`.  The kernels, the
write-ahead log and the snapshot manager sit too deep to thread a registry
through every signature, so they record through the **process-global**
registry managed here:

* :func:`get_registry` lazily creates a local registry on first use, so
  standalone components always have somewhere to record;
* ``ServiceConfig`` calls :func:`set_registry` with the stack's
  slab-backed registry, after which the deep call sites contribute to the
  same aggregated view as everything else;
* replica processes call :func:`set_registry` with their slab-attached
  registry during startup.

:class:`observed` is the one-stop instrumentation helper combining a trace
span with a histogram observation.
"""

from __future__ import annotations

import threading
import time

from repro.obs import trace
from repro.obs.registry import MetricsRegistry

__all__ = [
    "get_registry",
    "set_registry",
    "reset_registry",
    "observed",
]

_registry: MetricsRegistry | None = None
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """Return the process-global registry, creating a local one if unset."""
    registry = _registry
    if registry is None:
        with _registry_lock:
            registry = _registry
            if registry is None:
                registry = MetricsRegistry()
                set_registry(registry)
    return registry


def set_registry(registry: MetricsRegistry) -> None:
    """Install ``registry`` as the process-global registry.

    Parameters
    ----------
    registry:
        The registry deep call sites (kernels, WAL, snapshots) record into
        from now on.
    """
    global _registry
    _registry = registry


def reset_registry() -> None:
    """Forget the process-global registry (test isolation helper)."""
    global _registry
    _registry = None


class observed:
    """Context manager timing a block into a span and/or a histogram.

    Parameters
    ----------
    span:
        Span name recorded on the active trace (skipped in ~100 ns when no
        trace is active).
    key:
        Histogram sample key to observe the duration into, or ``None`` for
        a trace-only span.
    counter:
        Optional counter sample key incremented once per entry.
    registry:
        Registry to record into; the process-global one when omitted.
    """

    __slots__ = ("_span", "_key", "_counter", "_registry", "_t0", "_handle")

    def __init__(self, span: str, key: str | None = None,
                 counter: str | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self._span = span
        self._key = key
        self._counter = counter
        self._registry = registry

    def __enter__(self) -> "observed":
        self._handle = trace.push(self._span)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        if self._handle is not None:
            trace.pop(self._handle, duration)
        registry = self._registry
        if self._key is not None:
            if registry is None:
                registry = get_registry()
            # Fused write: histogram sample + entry counter under one lock.
            registry.observe(self._key, duration, counter=self._counter)
        elif self._counter is not None:
            if registry is None:
                registry = get_registry()
            registry.inc(self._counter)
        return False
