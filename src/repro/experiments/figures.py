"""One function per figure of the paper's experimental evaluation (§7).

Each function returns one :class:`~repro.experiments.runner.ExperimentResult`
per panel, with the same axes, algorithms and parameter sweeps as the paper.
The ``scale`` argument selects the preset ("paper", "bench" or "smoke", see
:mod:`repro.experiments.config`); the scaled presets preserve the ratios
between sweep points so the curve *shapes* — who wins, how the metric moves
with each parameter — remain comparable to the published plots.

The OPT series of the quality figures deserves a note: the paper solves an
IP with CPLEX up to 200 users, which is far beyond our pure-Python exact
solvers.  The quality figures therefore plot GRD vs Baseline at the paper's
sizes, and :func:`optimal_calibration` reproduces the "GRD is close to OPT"
comparison on instances small enough for the exact solvers — the same
calibration role the IP plays in the paper.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.runner import ExperimentResult, SweepSeries, sweep
from repro.userstudy.protocol import UserStudyConfig, run_user_study

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "optimal_calibration",
]

_QUALITY_ALGORITHMS = ("GRD", "Baseline")
_SCALABILITY_ALGORITHMS = ("GRD", "Baseline")


def figure1(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "yahoo",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 1(a–c): objective value under LM-Max vs #users / #items / #groups.

    Yahoo! Music data; defaults #users=200, #items=100, #groups=10, k=5.
    """
    preset = get_scale(scale)
    defaults = asdict(preset.quality)
    sweeps = preset.quality_sweeps
    common = dict(
        dataset=dataset,
        defaults=defaults,
        semantics="lm",
        aggregation="max",
        metric="objective",
        algorithms=_QUALITY_ALGORITHMS,
        repeats=preset.repeats,
        seed=seed,
        backend=backend,
        store=store,
    )
    return [
        sweep("fig1a", "Objective value, varying number of users (LM-Max)",
              "n_users", sweeps.users, **common),
        sweep("fig1b", "Objective value, varying number of items (LM-Max)",
              "n_items", sweeps.items, **common),
        sweep("fig1c", "Objective value, varying number of groups (LM-Max)",
              "n_groups", sweeps.groups, **common),
    ]


def figure2(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "yahoo",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 2(a, b): objective value vs top-k under LM-Min and LM-Sum."""
    preset = get_scale(scale)
    defaults = asdict(preset.quality)
    sweeps = preset.quality_sweeps
    common = dict(
        dataset=dataset,
        defaults=defaults,
        metric="objective",
        algorithms=_QUALITY_ALGORITHMS,
        repeats=preset.repeats,
        seed=seed,
        semantics="lm",
        backend=backend,
        store=store,
    )
    return [
        sweep("fig2a", "Objective value, varying top-k (LM-Min)",
              "k", sweeps.top_k, aggregation="min", **common),
        sweep("fig2b", "Objective value, varying top-k (LM-Sum)",
              "k", sweeps.top_k, aggregation="sum", **common),
    ]


def figure3(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "movielens",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 3(a–d): average group satisfaction over the top-k list (AV-Min,
    MovieLens) vs #users / #items / #groups / top-k."""
    preset = get_scale(scale)
    defaults = asdict(preset.quality)
    sweeps = preset.quality_sweeps
    common = dict(
        dataset=dataset,
        defaults=defaults,
        semantics="av",
        aggregation="min",
        metric="avg_satisfaction",
        algorithms=_QUALITY_ALGORITHMS,
        repeats=preset.repeats,
        seed=seed,
        backend=backend,
        store=store,
    )
    return [
        sweep("fig3a", "Avg satisfaction on top-k itemset, varying number of users (AV-Min)",
              "n_users", sweeps.users, **common),
        sweep("fig3b", "Avg satisfaction on top-k itemset, varying number of items (AV-Min)",
              "n_items", sweeps.items, **common),
        sweep("fig3c", "Avg satisfaction on top-k itemset, varying number of groups (AV-Min)",
              "n_groups", sweeps.groups, **common),
        sweep("fig3d", "Avg satisfaction on top-k itemset, varying top-k (AV-Min)",
              "k", sweeps.top_k, **common),
    ]


def figure4(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "yahoo",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 4(a–c): runtime of LM-Min group formation vs #users / #items / #groups."""
    preset = get_scale(scale)
    defaults = asdict(preset.scalability)
    sweeps = preset.scalability_sweeps
    common = dict(
        dataset=dataset,
        defaults=defaults,
        semantics="lm",
        aggregation="min",
        metric="runtime",
        algorithms=_SCALABILITY_ALGORITHMS,
        repeats=1,
        seed=seed,
        backend=backend,
        store=store,
    )
    return [
        sweep("fig4a", "Run time, varying number of users (LM-Min)",
              "n_users", sweeps.users, **common),
        sweep("fig4b", "Run time, varying number of items (LM-Min)",
              "n_items", sweeps.items, **common),
        sweep("fig4c", "Run time, varying number of groups (LM-Min)",
              "n_groups", sweeps.groups, **common),
    ]


def figure5(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "yahoo",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 5(a–d): runtime vs top-k for LM-Min, LM-Sum, AV-Min and AV-Sum."""
    preset = get_scale(scale)
    defaults = asdict(preset.scalability)
    sweeps = preset.scalability_sweeps
    top_k_values = [k for k in sweeps.top_k if k <= defaults["n_items"]]
    common = dict(
        dataset=dataset,
        defaults=defaults,
        metric="runtime",
        algorithms=_SCALABILITY_ALGORITHMS,
        repeats=1,
        seed=seed,
        backend=backend,
        store=store,
    )
    panels = [
        ("fig5a", "lm", "min", "Run time, varying top-k (LM-Min)"),
        ("fig5b", "lm", "sum", "Run time, varying top-k (LM-Sum)"),
        ("fig5c", "av", "min", "Run time, varying top-k (AV-Min)"),
        ("fig5d", "av", "sum", "Run time, varying top-k (AV-Sum)"),
    ]
    return [
        sweep(panel_id, title, "k", top_k_values,
              semantics=semantics, aggregation=aggregation, **common)
        for panel_id, semantics, aggregation, title in panels
    ]


def figure6(
    scale: str | ExperimentScale = "bench",
    seed: int = 0,
    dataset: str = "yahoo",
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """Figure 6(a–c): runtime of AV-Min group formation vs #users / #items / #groups."""
    preset = get_scale(scale)
    defaults = asdict(preset.scalability)
    sweeps = preset.scalability_sweeps
    common = dict(
        dataset=dataset,
        defaults=defaults,
        semantics="av",
        aggregation="min",
        metric="runtime",
        algorithms=_SCALABILITY_ALGORITHMS,
        repeats=1,
        seed=seed,
        backend=backend,
        store=store,
    )
    return [
        sweep("fig6a", "Run time, varying number of users (AV-Min)",
              "n_users", sweeps.users, **common),
        sweep("fig6b", "Run time, varying number of items (AV-Min)",
              "n_items", sweeps.items, **common),
        sweep("fig6c", "Run time, varying number of groups (AV-Min)",
              "n_groups", sweeps.groups, **common),
    ]


def figure7(
    seed: int = 7,
    config: UserStudyConfig | None = None,
    backend: str | None = None,
) -> list[ExperimentResult]:
    """Figure 7(a–c): the (simulated) user study.

    Panel (a) is the percentage of workers preferring GRD-LM over
    Baseline-LM (for Min and Sum aggregation); panels (b) and (c) are the
    average worker satisfaction per user sample (similar / dissimilar /
    random) for Min and Sum aggregation respectively.  ``backend`` selects
    the formation backend for the GRD runs when no explicit ``config`` is
    given (a passed-in config keeps its own ``backend`` field).
    """
    study = run_user_study(config or UserStudyConfig(seed=seed, backend=backend))

    preference = study.preference_summary()
    panel_a = ExperimentResult(
        experiment_id="fig7a",
        title="% of workers preferring each method",
        x_label="Method",
        y_label="% users prefer",
        metadata={"seed": seed, "aggregations": list(study.config.aggregations)},
    )
    for aggregation, percentages in preference.items():
        series = SweepSeries(algorithm=f"aggregation={aggregation}")
        for method, value in sorted(percentages.items()):
            series.add(method, value)
        panel_a.series.append(series)

    panels = [panel_a]
    for panel_id, aggregation in (("fig7b", "min"), ("fig7c", "sum")):
        if aggregation not in study.config.aggregations:
            continue
        panel = ExperimentResult(
            experiment_id=panel_id,
            title=f"Average user satisfaction ({aggregation.capitalize()} aggregation)",
            x_label="User sample",
            y_label="Average user satisfaction",
            metadata={"seed": seed},
        )
        grd_series = SweepSeries(algorithm=f"GRD-LM-{aggregation.upper()}")
        base_series = SweepSeries(algorithm=f"Baseline-LM-{aggregation.upper()}")
        for sample_type in ("similar", "dissimilar", "random"):
            condition = study.condition(sample_type, aggregation)
            grd_series.add(sample_type, condition.grd_statistics.mean)
            base_series.add(sample_type, condition.baseline_statistics.mean)
        panel.series.extend([grd_series, base_series])
        panels.append(panel)
    return panels


def optimal_calibration(
    n_users: int = 12,
    n_items: int = 20,
    n_groups: int = 4,
    top_k_values: tuple[int, ...] = (1, 2, 3),
    dataset: str = "yahoo",
    seed: int = 0,
    repeats: int = 3,
    backend: str | None = None,
    store: str | None = None,
) -> list[ExperimentResult]:
    """GRD vs Baseline vs OPT on instances small enough for the exact solvers.

    Plays the role of the OPT-* series in the paper's Figures 1–3: it shows
    the greedy objective tracking the optimum closely (within the Theorem 2/3
    error bounds for LM), on instances where the optimum can actually be
    computed.  Returns one panel per (semantics, aggregation) pair, sweeping
    top-k.
    """
    defaults = {"n_users": n_users, "n_items": n_items, "n_groups": n_groups, "k": 1}
    panels = []
    for semantics in ("lm", "av"):
        for aggregation in ("min", "sum"):
            panels.append(
                sweep(
                    f"calibration-{semantics}-{aggregation}",
                    f"GRD vs Baseline vs OPT ({semantics.upper()}-{aggregation.capitalize()})",
                    "k",
                    list(top_k_values),
                    dataset=dataset,
                    defaults=defaults,
                    semantics=semantics,
                    aggregation=aggregation,
                    metric="objective",
                    algorithms=("GRD", "Baseline", "OPT"),
                    repeats=repeats,
                    seed=seed,
                    backend=backend,
                    store=store,
                )
            )
    return panels
