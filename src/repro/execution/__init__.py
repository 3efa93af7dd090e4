"""The parallel execution plane: executors, shared memory, artifact cache.

This package decides *where* the deterministic formation work runs — in
the calling thread or on a process pool attached to
zero-copy shared-memory stores — and *whether it runs at all* (the
content-addressed :class:`~repro.execution.cache.ArtifactCache` lets
repeat runs and cold service starts load their ranking artifacts back
instead of rebuilding them).  Every strategy is an execution detail:
results are bit-identical to the serial path by construction, which the
parity suites in ``tests/execution/`` assert.

See ``docs/architecture.md`` ("Execution plane") for the executor
protocol, the shared-memory lifetime/ownership rules and the cache key
format.
"""

from repro.execution.cache import ArtifactCache, store_fingerprint
from repro.execution.executor import (
    DEFAULT_EXECUTION,
    EXECUTION_MODES,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    executor_scope,
    get_executor,
)
from repro.execution.shm import (
    ArraySpec,
    SharedExports,
    StoreSpec,
    TablesSpec,
    attach_array,
    attach_index,
    attach_store,
    attach_tables,
    detach_all,
)

__all__ = [
    "ArtifactCache",
    "store_fingerprint",
    "DEFAULT_EXECUTION",
    "EXECUTION_MODES",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "executor_scope",
    "get_executor",
    "ArraySpec",
    "SharedExports",
    "StoreSpec",
    "TablesSpec",
    "attach_array",
    "attach_index",
    "attach_store",
    "attach_tables",
    "detach_all",
]
