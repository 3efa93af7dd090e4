"""Docstring gate for the documented public surface.

The modules referenced from ``docs/api.md`` promise NumPy-style docstrings
on every public class and function.  CI additionally runs ruff's
pydocstyle rules over the same files; this AST-based check enforces the
same floor locally without needing ruff installed:

* every module has a module docstring;
* every public (non-underscore) module-level class and function has a
  docstring;
* every public method of a public class has a docstring (dunder methods
  other than ``__init__`` are exempt — ``__init__`` is documented at the
  class level per the NumPy convention);
* public functions/methods taking parameters beyond ``self``/``cls``
  document them (a ``Parameters`` section, or prose mentioning each name).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DOCUMENTED_MODULES = [
    SRC / "core" / "engine.py",
    SRC / "core" / "kernels.py",
    SRC / "core" / "topk_index.py",
    SRC / "core" / "sharded.py",
    SRC / "recsys" / "store.py",
    SRC / "execution" / "__init__.py",
    SRC / "execution" / "shm.py",
    SRC / "service" / "__init__.py",
    SRC / "service" / "service.py",
    SRC / "service" / "http.py",
    SRC / "service" / "cli.py",
    SRC / "service" / "config.py",
    SRC / "service" / "pool.py",
    SRC / "ingest" / "__init__.py",
    SRC / "ingest" / "events.py",
    SRC / "ingest" / "wal.py",
    SRC / "ingest" / "snapshot.py",
    SRC / "ingest" / "pipeline.py",
    SRC / "faults" / "__init__.py",
    SRC / "faults" / "plane.py",
    SRC / "obs" / "__init__.py",
    SRC / "obs" / "registry.py",
    SRC / "obs" / "trace.py",
    SRC / "obs" / "runtime.py",
    SRC / "obs" / "expo.py",
    SRC / "obs" / "logs.py",
]


def iter_public_defs(tree: ast.Module):
    """Yield ``(qualname, node)`` for the public surface of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = item.name
                if name.startswith("__") and name.endswith("__"):
                    continue  # dunders: class docstring carries the contract
                if name.startswith("_"):
                    continue
                yield f"{node.name}.{name}", item


def param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return [n for n in names if n not in {"self", "cls"}]


@pytest.mark.parametrize("path", DOCUMENTED_MODULES, ids=lambda p: p.name)
def test_public_surface_is_documented(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{path.name}: missing module docstring"

    missing: list[str] = []
    undocumented_params: list[str] = []
    for qualname, node in iter_public_defs(tree):
        doc = ast.get_docstring(node)
        if not doc:
            missing.append(qualname)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_property = any(
                isinstance(dec, ast.Name) and dec.id == "property"
                for dec in node.decorator_list
            )
            params = param_names(node)
            if params and not is_property:
                for name in params:
                    if name not in doc:
                        undocumented_params.append(f"{qualname}({name})")
    assert not missing, f"{path.name}: missing docstrings: {', '.join(missing)}"
    assert not undocumented_params, (
        f"{path.name}: parameters not mentioned in docstring: "
        f"{', '.join(undocumented_params)}"
    )
