"""Shared memory for multi-process serving.

Zero-copy shared-memory adapters (:mod:`repro.execution.shm`) let the
serving layer's replica processes view the writer's store and index
without copying them.  They never change a result: attached arrays view
the same physical pages as the originals (asserted by the suite in
``tests/execution/``).

See ``docs/architecture.md`` ("Shared memory") for the lifetime and
ownership rules.
"""

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
    "ArraySpec",
    "SharedExports",
    "StoreSpec",
    "TablesSpec",
    "attach_array",
    "attach_store",
    "attach_tables",
    "detach_all",
]
