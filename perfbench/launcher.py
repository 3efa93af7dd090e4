"""Start ``repro serve`` with the benchmark's timing wrappers installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py serve --users 2000 --port 0 ...

Without ``PERFBENCH_TRACE_DIR`` this is exactly ``repro serve``.  With it,
the launcher patches the ``repro`` layers (:mod:`tracer`) before calling
:func:`repro.service.cli.main`, so the writer and every replica it forks
carry the same wrappers.  ``PERFBENCH_TRACE_START=1`` records from the
first instruction; otherwise recording starts on ``SIGUSR1``, which the
benchmark sends when its traced phase begins.  Each process writes its
spans to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when it ends.
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list[str]) -> int:
    from repro.service import cli

    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        return cli.main(argv)

    from repro.service import pool
    from tracer import Tracer, install_layers

    tracer = Tracer()
    install_layers(tracer)
    tracer.recording = os.environ.get("PERFBENCH_TRACE_START") == "1"

    def start_recording(_signum, _frame) -> None:
        tracer.recording = True

    signal.signal(signal.SIGUSR1, start_recording)
    os.register_at_fork(after_in_child=tracer.reset)

    replica_main = pool._replica_main

    def traced_replica_main(*args, **kwargs):
        try:
            return replica_main(*args, **kwargs)
        finally:
            tracer.dump(trace_dir)

    pool._replica_main = traced_replica_main
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
