"""Core of the reproduction: group recommendation semantics and the
recommendation-aware group-formation algorithms.

The layering inside this subpackage follows the paper:

* :mod:`repro.core.semantics` and :mod:`repro.core.aggregation` — the LM / AV
  semantics (§2.2) and the Max / Min / Sum / Weighted-Sum aggregation
  functions (§2.3, §6).
* :mod:`repro.core.preferences` — per-user preference lists and top-k tables.
* :mod:`repro.core.group_recommender` — top-k recommendation for a *given*
  group (the substrate assumed by the paper).
* :mod:`repro.core.grouping` — result containers and partition evaluation.
* :mod:`repro.core.greedy_lm` / :mod:`repro.core.greedy_av` — the paper's
  GRD algorithms (§4, §5) built on the shared framework in
  :mod:`repro.core.greedy_framework`.
* :mod:`repro.core.engine` — the :class:`~repro.core.engine.FormationEngine`
  execution layer running the greedy skeleton through a pluggable backend
  (loop-based ``"reference"`` or vectorised ``"numpy"``, bit-identical), with
  a batch API sharing work across configuration sweeps.
* :mod:`repro.core.kernels` — the low-level ranking/bucketing kernels the
  vectorised hot path runs on: compiled top-k when a C compiler is
  available (threaded, honours ``--kernel-threads``), numpy otherwise, and
  numpy fingerprint bucketing.
* :mod:`repro.core.formation` — the :func:`~repro.core.formation.form_groups`
  facade dispatching to greedy, baseline and exact algorithms.
"""

from repro.core.aggregation import (
    Aggregation,
    MaxAggregation,
    MinAggregation,
    SumAggregation,
    WeightedSumAggregation,
    get_aggregation,
)
from repro.core.errors import (
    GroupFormationError,
    InfeasibleInstanceError,
    IngestError,
    RatingDataError,
    ReproError,
    SolverError,
)
from repro.core.engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    FormationBackend,
    FormationConfig,
    FormationEngine,
    NumpyBackend,
    ReferenceBackend,
    get_backend,
)
from repro.core.kernels import (
    get_kernel_threads,
    parallel_available,
    set_kernel_threads,
    use_kernel_threads,
)
from repro.core.topk_index import MutableTopKIndex, TopKIndex
from repro.core.formation import available_algorithms, form_groups
from repro.core.greedy_av import grd_av, grd_av_max, grd_av_min, grd_av_sum
from repro.core.greedy_lm import (
    absolute_error_bound,
    grd_lm,
    grd_lm_max,
    grd_lm_min,
    grd_lm_sum,
)
from repro.core.group_recommender import (
    GroupRecommender,
    group_item_scores,
    group_satisfaction,
    recommend_top_k,
)
from repro.core.grouping import (
    Group,
    GroupFormationResult,
    evaluate_partition,
    validate_partition,
)
from repro.core.preferences import (
    full_ranking,
    preference_list,
    top_k_items,
    top_k_sequence,
    top_k_table,
)
from repro.core.semantics import Semantics, get_semantics

__all__ = [
    # semantics & aggregation
    "Semantics",
    "get_semantics",
    "Aggregation",
    "MaxAggregation",
    "MinAggregation",
    "SumAggregation",
    "WeightedSumAggregation",
    "get_aggregation",
    # preferences
    "full_ranking",
    "preference_list",
    "top_k_items",
    "top_k_sequence",
    "top_k_table",
    # formation engine
    "BACKENDS",
    "DEFAULT_BACKEND",
    "FormationBackend",
    "FormationConfig",
    "FormationEngine",
    "NumpyBackend",
    "ReferenceBackend",
    "MutableTopKIndex",
    "TopKIndex",
    "get_backend",
    # kernel layer
    "get_kernel_threads",
    "parallel_available",
    "set_kernel_threads",
    "use_kernel_threads",
    # group recommendation
    "GroupRecommender",
    "group_item_scores",
    "group_satisfaction",
    "recommend_top_k",
    # grouping containers
    "Group",
    "GroupFormationResult",
    "evaluate_partition",
    "validate_partition",
    # algorithms
    "grd_lm",
    "grd_lm_min",
    "grd_lm_max",
    "grd_lm_sum",
    "grd_av",
    "grd_av_min",
    "grd_av_max",
    "grd_av_sum",
    "absolute_error_bound",
    "form_groups",
    "available_algorithms",
    # errors
    "ReproError",
    "RatingDataError",
    "GroupFormationError",
    "IngestError",
    "InfeasibleInstanceError",
    "SolverError",
]
