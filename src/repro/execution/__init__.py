"""Shared memory and the artifact cache.

This package holds the two pieces of infrastructure the formation work
runs on besides the formation code itself: zero-copy shared-memory
adapters (:mod:`repro.execution.shm`) that let the serving layer's replica
processes view the writer's store and index without copying them, and
the content-addressed :class:`~repro.execution.cache.ArtifactCache` that
lets repeat runs and cold service starts load their ranking artifacts back
instead of rebuilding them.  Neither changes a result: shard summaries
always run in-process, and cached artifacts are bit-identical to rebuilt
ones (asserted by the suites in ``tests/execution/``).

See ``docs/architecture.md`` ("Shared memory and the artifact cache") for
the shared-memory lifetime/ownership rules and the cache key format.
"""

from repro.execution.cache import ArtifactCache, store_fingerprint
from repro.execution.shm import (
    ArraySpec,
    SharedExports,
    StoreSpec,
    TablesSpec,
    attach_array,
    attach_store,
    attach_tables,
    detach_all,
)

__all__ = [
    "ArtifactCache",
    "store_fingerprint",
    "ArraySpec",
    "SharedExports",
    "StoreSpec",
    "TablesSpec",
    "attach_array",
    "attach_store",
    "attach_tables",
    "detach_all",
]
