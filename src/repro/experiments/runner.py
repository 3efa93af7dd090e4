"""Generic machinery behind the figure/table reproduction functions.

The experiment functions in :mod:`repro.experiments.figures` are thin
declarative wrappers over three pieces defined here:

* :func:`make_dataset` — dataset factory ("yahoo", "movielens", "clustered",
  "uniform") producing complete rating matrices at a requested size;
* :func:`run_algorithms` — run a named set of algorithms (GRD, Baseline,
  Random, OPT) on one instance with one objective, skipping the exact solver
  when the instance exceeds its size limit (mirroring the paper, whose IP
  "does not complete in a reasonable time" beyond small instances);
* :func:`sweep` — vary one parameter, run the algorithm matrix at each value,
  and collect one metric (objective, average satisfaction or runtime) into
  the :class:`ExperimentResult` structure the reports and benchmarks print.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines.pipeline import baseline_clustering
from repro.baselines.random_partition import random_partition_baseline
from repro.core.aggregation import get_aggregation
from repro.core.engine import FormationConfig, FormationEngine
from repro.core.grouping import GroupFormationResult
from repro.core.semantics import get_semantics
from repro.core.sharded import ShardedFormation
from repro.core.topk_index import TopKIndex
from repro.datasets.movielens import synthetic_movielens
from repro.datasets.synthetic import clustered_population, uniform_random_ratings
from repro.datasets.yahoo_music import synthetic_yahoo_music
from repro.exact.brute_force import DEFAULT_MAX_USERS, optimal_groups_dp
from repro.experiments.config import normalize_store
from repro.metrics.satisfaction import average_group_satisfaction
from repro.recsys.matrix import RatingMatrix
from repro.recsys.store import SparseStore
from repro.utils.rng import derive_seed
from repro.utils.timing import time_call

__all__ = [
    "SweepSeries",
    "ExperimentResult",
    "apply_store",
    "make_dataset",
    "run_algorithms",
    "run_grd_configs",
    "sweep",
]


@dataclass
class SweepSeries:
    """One line of a figure: an algorithm's metric value at each sweep point."""

    algorithm: str
    x_values: list[Any] = field(default_factory=list)
    y_values: list[float] = field(default_factory=list)

    def add(self, x: Any, y: float) -> None:
        """Append one ``(x, y)`` observation."""
        self.x_values.append(x)
        self.y_values.append(float(y))

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view used by the reports."""
        return {
            "algorithm": self.algorithm,
            "x": list(self.x_values),
            "y": list(self.y_values),
        }


@dataclass
class ExperimentResult:
    """The reproduced content of one figure panel or table.

    Attributes
    ----------
    experiment_id:
        Short id such as ``"fig1a"`` or ``"table4"``.
    title:
        Human-readable description of the panel.
    x_label, y_label:
        Axis labels matching the paper's plot.
    series:
        One :class:`SweepSeries` per algorithm.
    metadata:
        Fixed parameters of the run (dataset, defaults, scale, seed, ...).
    """

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[SweepSeries] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def series_for(self, algorithm: str) -> SweepSeries:
        """Look up the series of one algorithm by name."""
        for entry in self.series:
            if entry.algorithm == algorithm:
                return entry
        raise KeyError(f"no series for algorithm {algorithm!r} in {self.experiment_id}")

    def algorithms(self) -> list[str]:
        """Names of the algorithms present in this result."""
        return [entry.algorithm for entry in self.series]

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (used for JSON dumps from the CLI)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": [entry.as_dict() for entry in self.series],
            "metadata": dict(self.metadata),
        }


# --------------------------------------------------------------------- #
# Dataset factory
# --------------------------------------------------------------------- #

_DATASETS: dict[str, Callable[..., RatingMatrix]] = {
    "yahoo": synthetic_yahoo_music,
    "movielens": synthetic_movielens,
    "clustered": clustered_population,
    "uniform": uniform_random_ratings,
}


def make_dataset(
    name: str, n_users: int, n_items: int, seed: int | None = None
) -> RatingMatrix:
    """Create a complete rating matrix of the requested size.

    ``name`` selects the generator: ``"yahoo"`` (Yahoo!-Music-like),
    ``"movielens"``, ``"clustered"`` (generic clustered population) or
    ``"uniform"`` (structure-free ratings).
    """
    key = str(name).strip().lower()
    if key not in _DATASETS:
        known = ", ".join(sorted(_DATASETS))
        raise ValueError(f"unknown dataset {name!r}; expected one of: {known}")
    factory = _DATASETS[key]
    if key in {"yahoo", "movielens"}:
        return factory(n_users=n_users, n_items=n_items, rng=seed)
    return factory(n_users, n_items, rng=seed)


# --------------------------------------------------------------------- #
# Algorithm matrix
# --------------------------------------------------------------------- #


def apply_store(
    ratings: RatingMatrix, store: str | None
) -> "RatingMatrix | SparseStore":
    """Resolve a ``--store`` choice for one experiment instance.

    ``None`` / ``"dense"`` keep the dense matrix; ``"sparse"`` re-homes the
    instance into a CSR :class:`~repro.recsys.store.SparseStore` (results
    are bit-identical either way — the dense↔sparse parity suite asserts
    this — so the flag only changes the storage the pipeline exercises).
    """
    key = normalize_store(store)
    if key == "sparse":
        return SparseStore.from_matrix(ratings)
    return ratings


def run_algorithms(
    ratings: RatingMatrix,
    max_groups: int,
    k: int,
    semantics: str,
    aggregation: str,
    algorithms: Sequence[str] = ("GRD", "Baseline"),
    seed: int | None = None,
    optimal_max_users: int = DEFAULT_MAX_USERS,
    backend: str | None = None,
    store: str | None = None,
    shards: int | None = None,
) -> dict[str, tuple[GroupFormationResult, float]]:
    """Run the requested algorithms on one instance.

    One :class:`~repro.core.topk_index.TopKIndex` is built per instance and
    shared by every consumer — the GRD engine, the clustering baseline's
    rank-vector embedding (the index is built over the full catalogue when
    the baseline participates) and the exact solver's singleton scores — so
    rankings are computed exactly once per instance regardless of how many
    algorithms run.

    Parameters
    ----------
    ratings, max_groups, k, semantics, aggregation:
        The group-formation instance and objective.
    algorithms:
        Any of ``"GRD"``, ``"Baseline"``, ``"Random"``, ``"OPT"``; unknown
        names raise, and ``"OPT"`` is silently skipped when the instance has
        more users than ``optimal_max_users`` (the exact solver's limit).
    seed:
        Seed for the stochastic algorithms (Baseline clustering / Random).
    optimal_max_users:
        Size limit for the exact solver.
    backend:
        Formation backend the GRD algorithm runs through (``"reference"`` /
        ``"numpy"``; ``None`` = engine default).  Backends are bit-identical,
        so this only affects the measured runtimes.
    store:
        ``"dense"`` (default) or ``"sparse"`` — which
        :class:`~repro.recsys.store.RatingStore` implementation the pipeline
        runs on.  Results are identical; only storage and runtimes change.
    shards:
        When > 1, the GRD algorithm runs through
        :class:`~repro.core.sharded.ShardedFormation` with this many user
        shards.

    Returns
    -------
    dict
        Maps a display name (``"GRD-LM-MIN"``, ``"Baseline-LM-MIN"``,
        ``"OPT-LM-MIN"``, ...) to ``(result, wall_clock_seconds)``.
    """
    semantics_obj = get_semantics(semantics)
    aggregation_obj = get_aggregation(aggregation)
    suffix = f"{semantics_obj.short_name}-{aggregation_obj.name.upper()}"
    outcomes: dict[str, tuple[GroupFormationResult, float]] = {}
    engine = FormationEngine(backend)
    data = apply_store(ratings, store)
    sharded = shards is not None and int(shards) > 1
    if sharded and engine.backend.name != "numpy":
        raise ValueError(
            f"shards={shards} runs the sharded numpy execution path and cannot "
            f"honour backend={backend!r}; drop one of the two"
        )

    # Build the shared ranking artifact once per instance, lazily: only when
    # some algorithm will actually consume it (the sharded GRD path ranks
    # per shard itself), and over the full catalogue when the clustering
    # baseline (which embeds users by their complete ranking) participates.
    keys = {algorithm.strip().lower() for algorithm in algorithms}
    index_consumers = ("grd" in keys and not sharded) or "baseline" in keys or (
        "opt" in keys and ratings.n_users <= optimal_max_users
    )
    topk = None
    topk_seconds = 0.0
    if index_consumers:
        k_index = ratings.n_items if "baseline" in keys else k
        topk, topk_seconds = time_call(TopKIndex.build, data, k_index)

    for algorithm in algorithms:
        key = algorithm.strip().lower()
        if key == "grd":
            if sharded:
                result, seconds = time_call(
                    ShardedFormation(shards=int(shards)).run,
                    data, max_groups, k, semantics_obj, aggregation_obj,
                )
            else:
                result, seconds = time_call(
                    engine.run,
                    data,
                    max_groups,
                    k,
                    semantics_obj,
                    aggregation_obj,
                    topk=topk,
                )
                # The published GRD runtimes include computing the top-k
                # lists, so the shared index build is charged to GRD — the
                # sharing saves wall clock for the *other* consumers without
                # changing what the scalability figures measure.
                seconds += topk_seconds
            outcomes[f"GRD-{suffix}"] = (result, seconds)
        elif key == "baseline":
            result, seconds = time_call(
                baseline_clustering,
                data,
                max_groups,
                k,
                semantics=semantics_obj,
                aggregation=aggregation_obj,
                rng=seed,
                topk=topk,
            )
            outcomes[f"Baseline-{suffix}"] = (result, seconds)
        elif key == "random":
            result, seconds = time_call(
                random_partition_baseline,
                data,
                max_groups,
                k,
                semantics=semantics_obj,
                aggregation=aggregation_obj,
                rng=seed,
            )
            outcomes[f"Random-{suffix}"] = (result, seconds)
        elif key == "opt":
            if ratings.n_users > optimal_max_users:
                continue
            result, seconds = time_call(
                optimal_groups_dp,
                data,
                max_groups,
                k,
                semantics=semantics_obj,
                aggregation=aggregation_obj,
                max_users=optimal_max_users,
                topk=topk,
            )
            outcomes[f"OPT-{suffix}"] = (result, seconds)
        else:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected GRD, Baseline, Random or OPT"
            )
    return outcomes


def run_grd_configs(
    ratings: RatingMatrix,
    configs: Sequence[FormationConfig],
    backend: str | None = None,
    store: str | None = None,
) -> list[tuple[str, GroupFormationResult]]:
    """Run a batch of GRD configurations through the engine's batch API.

    All configurations are executed over the same instance with one
    :meth:`~repro.core.engine.FormationEngine.run_many` call, so one
    :class:`~repro.core.topk_index.TopKIndex` (built at the sweep's largest
    ``k``) and, on the numpy backend, the bucketing structures are shared
    across the ``(k, ℓ, semantics, aggregation)`` sweep.  This is the path
    the scalability benchmarks use for multi-variant figures.

    Returns
    -------
    list of (name, result)
        One ``("GRD-<SEM>-<AGG> (k=.., l=..)", result)`` pair per config, in
        config order.  A list rather than a dict: display names need not be
        unique (e.g. two weighted-sum schemes share an algorithm name), and
        every config's result must be preserved.
    """
    engine = FormationEngine(backend)
    results = engine.run_many(apply_store(ratings, store), configs)
    return [
        (f"{result.algorithm} (k={config.k}, l={config.max_groups})", result)
        for config, result in zip(configs, results)
    ]


# --------------------------------------------------------------------- #
# Parameter sweeps
# --------------------------------------------------------------------- #


def _metric_value(
    metric: str,
    ratings: RatingMatrix,
    result: GroupFormationResult,
    seconds: float,
) -> float:
    """Extract the requested metric from one algorithm run."""
    if metric == "objective":
        return float(result.objective)
    if metric == "avg_satisfaction":
        return average_group_satisfaction(ratings, result)
    if metric == "runtime":
        return float(seconds)
    raise ValueError(
        f"unknown metric {metric!r}; expected objective, avg_satisfaction or runtime"
    )


def sweep(
    experiment_id: str,
    title: str,
    varying: str,
    values: Iterable[Any],
    dataset: str,
    defaults: dict[str, int],
    semantics: str,
    aggregation: str,
    metric: str = "objective",
    algorithms: Sequence[str] = ("GRD", "Baseline"),
    repeats: int = 1,
    seed: int = 0,
    y_label: str | None = None,
    backend: str | None = None,
    store: str | None = None,
    shards: int | None = None,
) -> ExperimentResult:
    """Vary one parameter and collect one metric per algorithm per value.

    Parameters
    ----------
    experiment_id, title:
        Identification of the produced figure panel.
    varying:
        Which parameter the sweep varies: ``"n_users"``, ``"n_items"``,
        ``"n_groups"`` or ``"k"``.
    values:
        The sweep points.
    dataset:
        Dataset factory name (see :func:`make_dataset`).
    defaults:
        Values of the non-varying parameters: ``n_users``, ``n_items``,
        ``n_groups``, ``k``.
    semantics, aggregation:
        Objective definition.
    metric:
        ``"objective"``, ``"avg_satisfaction"`` or ``"runtime"``.
    algorithms:
        Algorithm matrix (see :func:`run_algorithms`).
    repeats:
        Independent repetitions averaged per sweep point (paper: 3).
    seed:
        Master seed; each (sweep point, repeat) derives an independent child.
    y_label:
        Optional override for the metric's axis label.
    backend:
        Formation backend for the GRD runs (see :func:`run_algorithms`).
    store, shards:
        Rating-store / sharding selection per instance (see
        :func:`run_algorithms`); recorded in the result metadata.
    """
    if varying not in {"n_users", "n_items", "n_groups", "k"}:
        raise ValueError(
            f"varying must be one of n_users, n_items, n_groups, k; got {varying!r}"
        )
    values = list(values)
    series: dict[str, SweepSeries] = {}
    for value in values:
        params = dict(defaults)
        params[varying] = value
        totals: dict[str, list[float]] = {}
        for repeat in range(max(1, repeats)):
            instance_seed = derive_seed(seed, experiment_id, varying, value, repeat)
            ratings = make_dataset(
                dataset, params["n_users"], params["n_items"], seed=instance_seed
            )
            outcomes = run_algorithms(
                ratings,
                max_groups=params["n_groups"],
                k=params["k"],
                semantics=semantics,
                aggregation=aggregation,
                algorithms=algorithms,
                seed=instance_seed,
                backend=backend,
                store=store,
                shards=shards,
            )
            for name, (result, seconds) in outcomes.items():
                totals.setdefault(name, []).append(
                    _metric_value(metric, ratings, result, seconds)
                )
        for name, observations in totals.items():
            series.setdefault(name, SweepSeries(algorithm=name)).add(
                value, float(np.mean(observations))
            )

    labels = {
        "objective": "Objective function value",
        "avg_satisfaction": "Avg satisfaction on top-k itemset",
        "runtime": "Run time (seconds)",
    }
    x_labels = {
        "n_users": "Number of users",
        "n_items": "Number of items",
        "n_groups": "Number of groups",
        "k": "top-k",
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_labels[varying],
        y_label=y_label or labels[metric],
        series=list(series.values()),
        metadata={
            "dataset": dataset,
            "defaults": dict(defaults),
            "varying": varying,
            "values": values,
            "semantics": semantics,
            "aggregation": aggregation,
            "metric": metric,
            "repeats": repeats,
            "seed": seed,
            "backend": backend,
            "store": normalize_store(store),
            "shards": shards,
        },
    )
