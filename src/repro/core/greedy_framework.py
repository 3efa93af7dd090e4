"""Shared machinery of the greedy group-formation algorithms (paper §4, §5).

All four published algorithms — GRD-LM-MIN, GRD-LM-SUM, GRD-AV-MIN and
GRD-AV-SUM — plus their Max-aggregation and Weighted-Sum variants used in the
experiments share the same three-step skeleton:

1. **Intermediate groups.**  Hash every user on a key derived from her top-k
   preference sequence (and, depending on the variant, some of its scores).
   Users with equal keys form an intermediate group.  A heap stores one
   satisfaction score per intermediate group.
2. **Greedy selection.**  Pop the ``ℓ - 1`` intermediate groups with the
   highest scores; each becomes a final group whose recommended list is the
   shared top-k sequence.
3. **Left-over group.**  All remaining users are merged into the ℓ-th group,
   whose top-k list and satisfaction are computed with the group recommender
   under the chosen semantics.

The variants differ only in (a) the hashing key and (b) how a user's top-k
scores contribute to the intermediate group's heap score, which is what
:class:`GreedyVariant` captures.  *Executing* the skeleton is the job of the
:mod:`repro.core.engine` subsystem, which offers a loop-based ``"reference"``
backend (the original implementation) and a vectorised ``"numpy"`` backend
producing bit-identical results; :func:`run_greedy` below is a thin wrapper
over that engine.  The public entry points in :mod:`repro.core.greedy_lm` and
:mod:`repro.core.greedy_av` wrap :func:`run_greedy` with the right variant.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import Aggregation, get_aggregation
from repro.core.errors import GroupFormationError
from repro.core.grouping import GroupFormationResult
from repro.core.semantics import Semantics, get_semantics
from repro.recsys.matrix import RatingMatrix

__all__ = [
    "GreedyVariant",
    "run_greedy",
    "as_complete_values",
    "make_variant",
    "variant_token",
]

#: Which top-k scores participate in the bucket key, besides the item
#: sequence itself: ``"none"`` (AV variants), ``"first"`` (LM-Max),
#: ``"last"`` (LM-Min) or ``"all"`` (LM-Sum / Weighted-Sum).
_KEY_SCORE_CHOICES = ("none", "first", "last", "all")


def as_complete_values(ratings: "RatingMatrix | np.ndarray") -> np.ndarray:
    """Return a complete ``(n_users, n_items)`` float array from any rating input.

    Accepts a :class:`RatingMatrix`, a raw array, or any
    :class:`~repro.recsys.store.RatingStore` (which is densified — callers
    that can stay sparse should consume the store directly instead).

    Raises :class:`~repro.core.errors.GroupFormationError` if any rating is
    missing, since the formation algorithms need full preference information,
    or non-finite: ``±inf`` ratings can make a user's aggregated top-k
    contribution NaN (``inf - inf``), for which the greedy selection order is
    undefined — rejecting them up front is what lets the engine guarantee
    bit-identical results across backends.
    """
    if isinstance(ratings, RatingMatrix):
        values = ratings.values
    elif not isinstance(ratings, np.ndarray) and hasattr(ratings, "to_dense"):
        values = ratings.to_dense()
    else:
        values = np.asarray(ratings, dtype=float)
    if values.ndim != 2:
        raise GroupFormationError(
            f"ratings must be a 2-D user x item array, got shape {values.shape}"
        )
    # One full-matrix scan on the fast path; distinguishing NaN from inf is
    # deferred to the error path.
    if not np.isfinite(values).all():
        if np.isnan(values).any():
            raise GroupFormationError(
                "group formation requires a complete rating matrix; fill missing "
                "ratings with repro.recsys.complete_matrix first"
            )
        raise GroupFormationError(
            "group formation requires finite ratings; replace +/-inf entries "
            "with values on the rating scale"
        )
    return values


@dataclass(frozen=True)
class GreedyVariant:
    """Configuration of one greedy algorithm variant.

    Attributes
    ----------
    name:
        Algorithm name recorded on results, e.g. ``"GRD-LM-MIN"``.
    semantics:
        Group recommendation semantics (LM or AV).
    aggregation:
        Top-k score aggregation (min / max / sum / weighted-sum).
    key_scores:
        Declarative form of the bucket key: which of a user's top-k scores
        join the item sequence in the key — ``"none"``, ``"first"``,
        ``"last"`` or ``"all"``.  LM variants include the
        aggregation-relevant score(s); AV variants key on the item sequence
        alone (paper §5).  Backends that vectorise the bucketing read this
        field instead of calling :attr:`key_fn` per user.
    key_fn:
        Maps a user's ``(top_k_items, top_k_scores)`` to the hashable bucket
        key; derived from :attr:`key_scores`.
    user_value_fn:
        Maps a user's top-k scores to that user's contribution to the bucket
        heap score.
    combine:
        ``"first"`` — the heap score of a bucket is the (identical)
        contribution of any member (LM variants); ``"sum"`` — it is the sum
        of member contributions (AV variants).
    """

    name: str
    semantics: Semantics
    aggregation: Aggregation
    key_scores: str
    key_fn: Callable[[np.ndarray, np.ndarray], bytes]
    user_value_fn: Callable[[np.ndarray], float]
    combine: str

    def __post_init__(self) -> None:
        if self.combine not in {"first", "sum"}:
            raise ValueError(f"combine must be 'first' or 'sum', got {self.combine!r}")
        if self.key_scores not in _KEY_SCORE_CHOICES:
            raise ValueError(
                f"key_scores must be one of {_KEY_SCORE_CHOICES}, "
                f"got {self.key_scores!r}"
            )


def _aggregation_value(aggregation: Aggregation, scores: np.ndarray) -> float:
    """A single user's aggregated value of her own top-k scores."""
    return aggregation.aggregate(scores.tolist())


def _key_fn_for(key_scores: str) -> Callable[[np.ndarray, np.ndarray], bytes]:
    """The byte-key function matching a declarative ``key_scores`` choice."""
    if key_scores == "none":

        def key_fn(items: np.ndarray, scores: np.ndarray) -> bytes:
            return items.tobytes()

    elif key_scores == "first":

        def key_fn(items: np.ndarray, scores: np.ndarray) -> bytes:
            return items.tobytes() + scores[:1].tobytes()

    elif key_scores == "last":

        def key_fn(items: np.ndarray, scores: np.ndarray) -> bytes:
            return items.tobytes() + scores[-1:].tobytes()

    else:  # "all"

        def key_fn(items: np.ndarray, scores: np.ndarray) -> bytes:
            return items.tobytes() + scores.tobytes()

    return key_fn


def make_variant(
    semantics: Semantics | str, aggregation: Aggregation | str
) -> GreedyVariant:
    """Build the :class:`GreedyVariant` for a semantics/aggregation combination.

    The published algorithms correspond to::

        make_variant("lm", "min")   # GRD-LM-MIN   (Algorithm 1)
        make_variant("lm", "sum")   # GRD-LM-SUM
        make_variant("av", "min")   # GRD-AV-MIN
        make_variant("av", "sum")   # GRD-AV-SUM

    Max aggregation (used by the paper's quality experiments, e.g.
    GRD-LM-MAX in Figure 1) and the Weighted-Sum extension of §6 follow the
    same pattern: the LM key carries the score(s) the aggregation depends on,
    the AV key carries only the item sequence.
    """
    semantics = get_semantics(semantics)
    aggregation = get_aggregation(aggregation)
    name = f"GRD-{semantics.short_name}-{aggregation.name.upper()}"

    def user_value(scores: np.ndarray, _agg: Aggregation = aggregation) -> float:
        return _aggregation_value(_agg, scores)

    if semantics is Semantics.LEAST_MISERY:
        if aggregation.name == "min":
            key_scores = "last"
        elif aggregation.name == "max":
            key_scores = "first"
        else:  # sum / weighted-sum: every score matters for the LM value.
            key_scores = "all"
        combine = "first"
    else:
        # Aggregate voting: grouping on the item sequence alone (§5) — the
        # scores of individual members are summed, not matched.
        key_scores = "none"
        combine = "sum"

    return GreedyVariant(
        name=name,
        semantics=semantics,
        aggregation=aggregation,
        key_scores=key_scores,
        key_fn=_key_fn_for(key_scores),
        user_value_fn=user_value,
        combine=combine,
    )


def variant_token(variant: GreedyVariant) -> str:
    """Stable string identity of a variant's *algorithmic behaviour*.

    ``variant.name`` alone is not enough for caching: every
    :class:`~repro.core.aggregation.WeightedSumAggregation` is named
    ``"weighted-sum"`` regardless of its ``scheme`` / ``normalize``
    parameters, yet those parameters change contributions and scores.
    This token appends the aggregation's constructor state, so two
    variants share a token exactly when they compute the same results —
    the property every summary/result cache key needs.

    Parameters
    ----------
    variant:
        The greedy variant being keyed.

    Examples
    --------
    >>> from repro.core.aggregation import WeightedSumAggregation
    >>> a = make_variant("lm", WeightedSumAggregation("inverse"))
    >>> b = make_variant("lm", WeightedSumAggregation("log"))
    >>> a.name == b.name and variant_token(a) != variant_token(b)
    True
    """
    params = ",".join(
        f"{key}={value!r}" for key, value in sorted(vars(variant.aggregation).items())
    )
    return f"{variant.name}[{params}]" if params else variant.name


def run_greedy(
    ratings: RatingMatrix | np.ndarray,
    max_groups: int,
    k: int,
    variant: GreedyVariant,
    backend: str | None = None,
    topk: "object | None" = None,
) -> GroupFormationResult:
    """Run the three-step greedy framework for one variant.

    Parameters
    ----------
    ratings:
        Complete rating matrix (``RatingMatrix`` or raw array).
    max_groups:
        The group budget ℓ (at most this many groups are formed).
    k:
        Length of the recommended top-k list per group.
    variant:
        The algorithm variant produced by :func:`make_variant`.
    backend:
        Formation backend name (``"reference"`` / ``"numpy"``); ``None``
        selects the engine default.  Backends produce bit-identical results.
    topk:
        Optional prebuilt :class:`~repro.core.topk_index.TopKIndex` for this
        instance; when given, the engine skips recomputing the rankings.

    Returns
    -------
    GroupFormationResult
        Groups in formation order (the ``ℓ - 1`` greedily selected groups
        first, the left-over group last), the objective value, and timing /
        bookkeeping information in ``extras``:

        ``n_intermediate_groups``
            number of distinct hash keys (intermediate groups) in step 1;
        ``last_group_pseudocode_score``
            the score Algorithm 1 line 18 would assign to the left-over group
            (min / sum of the members' personal scores) — the reported
            objective instead uses the group's *actual* satisfaction with the
            list it is recommended;
        ``formation_seconds`` / ``recommendation_seconds``
            wall-clock split between forming groups and producing their
            top-k lists;
        ``backend``
            name of the formation backend that executed the run.
    """
    # Imported lazily: the engine module builds on the variant machinery
    # defined here.
    from repro.core.engine import FormationEngine

    return FormationEngine(backend).run_variant(
        ratings, max_groups, k, variant, topk=topk
    )

