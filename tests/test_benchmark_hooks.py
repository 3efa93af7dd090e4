"""The names the repository benchmark hooks into must keep resolving.

``perfbench/tracer.py`` patches ``repro`` functions by name when a run is
traced, and ``perfbench/layers.py`` imports counter keys from
:mod:`repro.obs.registry` inside its functions.  A rename or deletion in
``src/`` would otherwise fail only a traced benchmark run.  The check runs
in a fresh interpreter, so the patches never leak into this test session.
A second test feeds the index's batch stats to the tracer's apply
counters, which would otherwise fail on a missing key only in a traced run.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core import MutableTopKIndex
from repro.recsys import DenseStore

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
sys.path[:0] = sys.argv[1:4]
from tracer import Tracer, install_layers

install_layers(Tracer())
from repro.obs import registry

missing = [name for name in sys.argv[4:] if not hasattr(registry, name)]
if missing:
    sys.exit("repro.obs.registry lacks " + ", ".join(missing))
print("ok")
"""


def registry_names_imported_by_layers() -> list[str]:
    """Every name ``perfbench/layers.py`` imports from the registry."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.obs.registry"
        for alias in node.names
    ]


def test_tracer_installs_and_registry_names_resolve():
    names = registry_names_imported_by_layers()
    assert "K_SHARDS_RECYCLED" in names  # the parse found the imports
    paths = [str(ROOT / part) for part in ("src", "perfbench", "benchmarks")]
    result = subprocess.run(
        [sys.executable, "-c", CHECK, *paths, *names],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_index_apply_returns_every_key_the_tracer_reads():
    """``tracer._apply_counts`` reads the batch stats of a traced apply."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    index = MutableTopKIndex(DenseStore(np.array([[5.0, 4.0, 1.0], [2.0, 3.0, 4.0]])), 2)
    for upserts, deletes in (((), ()), ([(0, 2, 3.0)], [(1, 0)])):
        result = index.apply(upserts=upserts, deletes=deletes)
        assert {"upserts", "deletes", "skipped_updates"} <= result.keys()
        counts = tracer._apply_counts((index,), {}, result, None)
        assert counts == {"updates": len(upserts) + len(deletes), "skipped": 0}
