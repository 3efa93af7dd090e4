"""Command-line interface: regenerate any table or figure from a terminal.

Installed as the ``repro-experiments`` console script::

    repro-experiments list                  # what can be reproduced
    repro-experiments fig1 --scale bench    # Figure 1(a-c)
    repro-experiments table4                # Table 4
    repro-experiments calibration           # GRD vs Baseline vs OPT
    repro-experiments userstudy             # Figure 7
    repro-experiments all --scale smoke     # everything, tiny sizes

Results are printed as aligned text tables (the same rows/series the paper
plots); ``--json PATH`` additionally dumps the raw numbers for downstream
plotting.

The online serving layer has its own console script (``repro serve``, see
:mod:`repro.service.cli`); ``repro-experiments serve ...`` forwards there
so either spelling works.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from typing import Any

from repro.experiments import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    format_experiment,
    format_table_rows,
    optimal_calibration,
    table3,
    table4,
)
from repro.core.kernels import get_kernel_threads, set_kernel_threads
from repro.experiments.config import normalize_backend, normalize_store
from repro.service.config import add_formation_arguments

__all__ = ["main", "build_parser"]

_FIGURES = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'From Group Recommendations "
            "to Group Formation' (SIGMOD 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_FIGURES) + ["fig7", "table3", "table4", "calibration",
                                     "userstudy", "all", "list"],
        help="which experiment to run ('list' prints the catalogue)",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=["paper", "bench", "smoke"],
        help="experiment preset (default: bench)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    add_formation_arguments(parser, shards=None)
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also dump the raw results as JSON to this path",
    )
    return parser


def _run_experiment(
    name: str,
    scale: str,
    seed: int,
    backend: str | None = None,
    store: str | None = None,
    shards: int | None = None,
) -> tuple[str, list[Any]]:
    """Run one experiment and return (rendered text, raw result objects)."""
    if name in _FIGURES:
        results = _FIGURES[name](
            scale=scale,
            seed=seed,
            backend=backend,
            store=store,
            shards=shards,
        )
        text = "\n\n".join(format_experiment(result) for result in results)
        return text, [result.as_dict() for result in results]
    non_default = store not in (None, "dense") or shards is not None
    if name in {"fig7", "userstudy"}:
        if non_default:
            print(f"note: {name} runs the user-study protocol; "
                  "--store/--shards do not apply and are ignored")
        results = figure7(seed=seed or 7, backend=backend)
        text = "\n\n".join(format_experiment(result) for result in results)
        return text, [result.as_dict() for result in results]
    if name == "calibration":
        if shards is not None:
            print("note: calibration instances are exact-solver sized; "
                  "--shards does not apply and is ignored")
        results = optimal_calibration(seed=seed, backend=backend, store=store)
        text = "\n\n".join(format_experiment(result) for result in results)
        return text, [result.as_dict() for result in results]
    if name == "table3":
        if non_default:
            print("note: table3 only reports dataset statistics; "
                  "--store/--shards do not apply and are ignored")
        rows = table3(seed=seed)
        return format_table_rows(rows), rows
    if name == "table4":
        if non_default:
            print("note: table4 runs quality-sized instances dense; "
                  "--store/--shards do not apply and are ignored")
        rows = table4(scale=scale, seed=seed, backend=backend)
        return format_table_rows(rows), rows
    raise ValueError(f"unknown experiment {name!r}")


def _catalogue() -> str:
    lines = [
        "Available experiments:",
        "  fig1         Figure 1(a-c): objective vs users/items/groups (LM-Max)",
        "  fig2         Figure 2(a-b): objective vs top-k (LM-Min, LM-Sum)",
        "  fig3         Figure 3(a-d): avg satisfaction on top-k list (AV-Min)",
        "  fig4         Figure 4(a-c): runtime vs users/items/groups (LM-Min)",
        "  fig5         Figure 5(a-d): runtime vs top-k (LM/AV x Min/Sum)",
        "  fig6         Figure 6(a-c): runtime vs users/items/groups (AV-Min)",
        "  fig7         Figure 7(a-c): simulated user study",
        "  table3       Table 3: dataset statistics",
        "  table4       Table 4: distribution of group sizes",
        "  calibration  GRD vs Baseline vs OPT on exactly solvable instances",
        "  userstudy    alias of fig7",
        "  all          run every experiment at the selected scale",
        "",
        "Online serving (see docs/api.md):",
        "  serve        run the formation service (alias of `repro serve`)",
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-experiments`` console script.

    Parameters
    ----------
    argv:
        Argument vector (default: ``sys.argv[1:]``).

    Returns
    -------
    int
        Process exit status (non-zero on failure).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["serve"]:
        # The serving layer owns its own flags; forward verbatim.
        from repro.service.cli import main as serve_main

        return serve_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print(_catalogue())
        return 0

    names = (
        sorted(_FIGURES) + ["fig7", "table3", "table4", "calibration"]
        if args.experiment == "all"
        else [args.experiment]
    )
    backend = normalize_backend(args.backend)
    store = normalize_store(args.store)
    set_kernel_threads(args.kernel_threads)
    try:
        get_kernel_threads()
    except ValueError as exc:
        parser.error(str(exc))
    collected: dict[str, Any] = {}
    for name in names:
        text, raw = _run_experiment(
            name,
            args.scale,
            args.seed,
            backend,
            store=store,
            shards=args.shards,
        )
        print(f"\n===== {name} =====")
        print(text)
        collected[name] = raw

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=2, default=str)
        print(f"\nraw results written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
