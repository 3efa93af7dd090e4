"""Single public entry point for recommendation-aware group formation.

:func:`form_groups` dispatches to every algorithm family in the library —
the paper's greedy algorithms, the clustering / random baselines and the
exact (optimal) solvers — behind one uniform signature, so applications and
the experiment harness can switch algorithms with a string:

>>> import numpy as np
>>> from repro.core.formation import form_groups
>>> ratings = np.array(
...     [[1, 4, 3], [2, 3, 5], [2, 5, 1], [2, 5, 1], [3, 1, 1], [1, 2, 5]],
...     dtype=float,
... )
>>> form_groups(ratings, max_groups=3, k=1, semantics="lm",
...             aggregation="min", algorithm="greedy").objective
11.0
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.aggregation import Aggregation, get_aggregation
from repro.core.greedy_framework import make_variant, run_greedy
from repro.core.grouping import GroupFormationResult
from repro.core.semantics import Semantics, get_semantics
from repro.recsys.matrix import RatingMatrix

__all__ = ["form_groups", "available_algorithms"]


def _run_greedy(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    backend: str | None = None,
    shards: int | None = None,
    topk: object | None = None,
    **kwargs: object,
) -> GroupFormationResult:
    if shards is not None and int(shards) > 1:
        # The sharded path runs on the vectorised numpy kernels and ranks
        # each shard itself (a global top-k index would defeat its memory
        # bound), so a conflicting explicit backend is an error rather than
        # a silent substitution; a provided topk is simply not needed.
        if backend is not None and str(backend).strip().lower() != "numpy":
            raise ValueError(
                f"shards={shards} runs the sharded numpy execution path and "
                f"cannot honour backend={backend!r}; drop one of the two"
            )
        from repro.core.sharded import ShardedFormation

        return ShardedFormation(shards=int(shards)).run_variant(
            ratings, max_groups, k, make_variant(semantics, aggregation)
        )
    return run_greedy(
        ratings,
        max_groups,
        k,
        make_variant(semantics, aggregation),
        backend=backend,
        topk=topk,
    )


def _run_kmeans_baseline(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    **kwargs: object,
) -> GroupFormationResult:
    from repro.baselines.pipeline import baseline_clustering

    return baseline_clustering(
        ratings, max_groups, k, semantics=semantics, aggregation=aggregation, **kwargs
    )


def _run_random_baseline(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    **kwargs: object,
) -> GroupFormationResult:
    from repro.baselines.random_partition import random_partition_baseline

    return random_partition_baseline(
        ratings, max_groups, k, semantics=semantics, aggregation=aggregation, **kwargs
    )


def _run_exact_dp(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    **kwargs: object,
) -> GroupFormationResult:
    from repro.exact.brute_force import optimal_groups_dp

    return optimal_groups_dp(
        ratings, max_groups, k, semantics=semantics, aggregation=aggregation, **kwargs
    )


def _run_exact_ilp(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    **kwargs: object,
) -> GroupFormationResult:
    from repro.exact.ilp import optimal_groups_ilp

    return optimal_groups_ilp(
        ratings, max_groups, k, semantics=semantics, aggregation=aggregation, **kwargs
    )


def _run_branch_and_bound(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    semantics: Semantics,
    aggregation: Aggregation,
    **kwargs: object,
) -> GroupFormationResult:
    from repro.exact.branch_and_bound import optimal_groups_branch_and_bound

    return optimal_groups_branch_and_bound(
        ratings, max_groups, k, semantics=semantics, aggregation=aggregation, **kwargs
    )


_ALGORITHMS: dict[str, Callable[..., GroupFormationResult]] = {
    "greedy": _run_greedy,
    "grd": _run_greedy,
    "baseline": _run_kmeans_baseline,
    "baseline-kmeans": _run_kmeans_baseline,
    "baseline-random": _run_random_baseline,
    "exact": _run_exact_dp,
    "exact-dp": _run_exact_dp,
    "exact-ilp": _run_exact_ilp,
    "exact-bnb": _run_branch_and_bound,
}


def available_algorithms() -> list[str]:
    """The algorithm names accepted by :func:`form_groups`."""
    return sorted(_ALGORITHMS)


def form_groups(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int = 5,
    semantics: Semantics | str = "lm",
    aggregation: Aggregation | str = "min",
    algorithm: str = "greedy",
    **kwargs: object,
) -> GroupFormationResult:
    """Form at most ``max_groups`` groups maximising aggregate satisfaction.

    This is the library's main entry point, implementing the
    Recommendation-Aware Group Formation problem of §2.4: partition the users
    of ``ratings`` into at most ``max_groups`` non-overlapping groups such
    that the sum over groups of the group's satisfaction with its recommended
    top-``k`` list (under ``semantics`` + ``aggregation``) is as large as
    possible.

    Parameters
    ----------
    ratings:
        Complete rating matrix.  Sparse matrices must first be completed with
        :func:`repro.recsys.complete_matrix`.
    max_groups:
        Group budget ℓ.
    k:
        Recommended list length.
    semantics:
        ``"lm"`` (least misery) or ``"av"`` (aggregate voting).
    aggregation:
        ``"min"``, ``"max"``, ``"sum"`` or a weighted-sum variant.
    algorithm:
        One of :func:`available_algorithms`:

        ``"greedy"``
            The paper's GRD algorithms (default; scalable, with absolute
            error guarantees under LM).
        ``"baseline-kmeans"``
            Kendall-Tau + clustering baseline adapted from Ntoutsi et al.
        ``"baseline-random"``
            Random balanced partition (sanity-check baseline).
        ``"exact-dp"`` / ``"exact-ilp"`` / ``"exact-bnb"``
            Optimal algorithms (exponential; small instances only).
    kwargs:
        Extra keyword arguments forwarded to the selected algorithm (e.g.
        ``backend=`` for the greedy engine, ``rng=`` for the clustering
        baseline, ``time_limit=`` for the exact solvers).  The greedy
        family additionally accepts ``shards=`` (sharded formation, see
        :class:`~repro.core.sharded.ShardedFormation`).

    Returns
    -------
    GroupFormationResult
    """
    semantics = get_semantics(semantics)
    aggregation = get_aggregation(aggregation)
    key = str(algorithm).strip().lower()
    if key not in _ALGORITHMS:
        known = ", ".join(available_algorithms())
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of: {known}")
    runner = _ALGORITHMS[key]
    return runner(ratings, max_groups, k, semantics, aggregation, **kwargs)
