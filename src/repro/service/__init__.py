"""Online serving layer: live rating updates and request-time formation.

Everything below this package turns the library's batch data plane into a
system that can take traffic:

* :class:`~repro.service.service.FormationService` — owns a mutable store
  and a :class:`~repro.core.topk_index.MutableTopKIndex`, forms every
  request on the index's ranked tables and memoizes formation results
  keyed by ``(parameters, index version)``.
* :class:`~repro.service.http.ServiceServer` — a dependency-free asyncio
  JSON/HTTP front end (versioned ``/v1`` API, typed event ingestion)
  with update batching and request coalescing.
* :class:`~repro.service.pool.ReplicaPool` — N read-only worker
  processes attached zero-copy to the writer's shared-memory
  store/index exports; round-robin routing with in-flight caps, a
  versioned index swap on every applied write, and crash supervision
  with transparent retry.
* :class:`~repro.service.config.ServiceConfig` — one validated config
  object from which the CLI, tests and benchmarks build identical
  stacks (and recover durable ones through :mod:`repro.ingest`).
* :mod:`repro.service.cli` — the ``repro serve`` console entry point.

See ``docs/architecture.md`` for how the pieces fit the data plane and
``docs/api.md`` for the request/response reference.
"""

from repro.service.config import ServiceConfig
from repro.service.http import ServiceServer
from repro.service.pool import ReplicaPool
from repro.service.service import FormationService

__all__ = ["FormationService", "ReplicaPool", "ServiceConfig", "ServiceServer"]
