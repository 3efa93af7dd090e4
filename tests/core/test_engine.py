"""Parity and behaviour tests for the formation engine backends.

The central contract of :mod:`repro.core.engine` is that the vectorised
``"numpy"`` backend is *bit-identical* to the loop-based ``"reference"``
backend — same groups, same recommended lists, same floating-point
satisfaction values, same bookkeeping — on every GRD variant.  These tests
assert that contract property-style over randomised, heavily tied rating
matrices, plus on the structured edge cases (uniform populations, exhausted
budgets, k equal to the catalogue size).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BACKENDS,
    DEFAULT_BACKEND,
    FormationConfig,
    FormationEngine,
    GroupFormationResult,
    get_backend,
    top_k_table,
)
from repro.core import kernels
from repro.core.errors import GroupFormationError

_VARIANTS = [
    ("lm", "min"),
    ("lm", "max"),
    ("lm", "sum"),
    ("lm", "weighted-sum-log"),
    ("av", "min"),
    ("av", "max"),
    ("av", "sum"),
    ("av", "weighted-sum-inverse"),
]

_SETTINGS = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_results_identical(
    reference: GroupFormationResult, candidate: GroupFormationResult
) -> None:
    """Bitwise comparison of two formation results (timings excluded)."""
    assert candidate.algorithm == reference.algorithm
    assert candidate.semantics == reference.semantics
    assert candidate.k == reference.k
    assert candidate.max_groups == reference.max_groups
    assert candidate.objective == reference.objective
    assert candidate.n_groups == reference.n_groups
    for got, expected in zip(candidate.groups, reference.groups):
        assert got.members == expected.members
        assert got.items == expected.items
        assert got.item_scores == expected.item_scores
        assert got.satisfaction == expected.satisfaction
    assert (
        candidate.extras["n_intermediate_groups"]
        == reference.extras["n_intermediate_groups"]
    )
    assert (
        candidate.extras["last_group_pseudocode_score"]
        == reference.extras["last_group_pseudocode_score"]
    )


@st.composite
def tied_instances(draw, max_users: int = 24, max_items: int = 8):
    """A small instance drawn from a tiny rating alphabet (ties everywhere)."""
    n_users = draw(st.integers(min_value=1, max_value=max_users))
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    # Few distinct levels => many identical top-k sequences, shared buckets,
    # boundary ties in the top-k table, and score ties between buckets.
    values = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=n_items,
                max_size=n_items,
            ),
            min_size=n_users,
            max_size=n_users,
        )
    )
    max_groups = draw(st.integers(min_value=1, max_value=n_users + 2))
    k = draw(st.integers(min_value=1, max_value=n_items))
    return np.array(values, dtype=float), max_groups, k


class TestBackendParity:
    @pytest.mark.parametrize("semantics,aggregation", _VARIANTS)
    @given(instance=tied_instances())
    @settings(**_SETTINGS)
    def test_randomised_parity(self, semantics, aggregation, instance):
        values, max_groups, k = instance
        reference = FormationEngine("reference").run(
            values, max_groups, k, semantics, aggregation
        )
        candidate = FormationEngine("numpy").run(
            values, max_groups, k, semantics, aggregation
        )
        assert_results_identical(reference, candidate)

    @pytest.mark.parametrize("semantics,aggregation", _VARIANTS)
    def test_parity_on_fractional_ratings(self, semantics, aggregation):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(60, 12)).round(1)
        reference = FormationEngine("reference").run(values, 7, 4, semantics, aggregation)
        candidate = FormationEngine("numpy").run(values, 7, 4, semantics, aggregation)
        assert_results_identical(reference, candidate)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_uniform_population_budget_filling(self, backend):
        # Every user identical: one intermediate bucket, and the splitting
        # step must fill the budget the same way on both backends.
        values = np.tile(np.array([3.0, 2.0, 1.0]), (6, 1))
        result = FormationEngine(backend).run(values, 4, 2, "lm", "min")
        assert result.n_groups == 4
        assert result.extras["n_intermediate_groups"] == 1
        assert result.extras["backend"] == backend

    def test_parity_on_exhausted_budget_and_full_k(self, small_uniform):
        values = small_uniform.values
        for max_groups, k in ((1, 3), (values.shape[0] + 5, values.shape[1])):
            reference = FormationEngine("reference").run(
                values, max_groups, k, "av", "sum"
            )
            candidate = FormationEngine("numpy").run(values, max_groups, k, "av", "sum")
            assert_results_identical(reference, candidate)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_ratings_rejected(self, backend):
        # +/-inf ratings can make a user's aggregated contribution NaN
        # (inf - inf), for which the greedy selection order is undefined —
        # both backends must reject them identically at validation time.
        values = np.array(
            [
                [np.inf, -np.inf, 1.0],
                [np.inf, -np.inf, 1.0],
                [0.0, 1.0, 2.0],
            ]
        )
        with pytest.raises(GroupFormationError, match="finite ratings"):
            FormationEngine(backend).run(values, 3, 3, "av", "sum")


class TestRunMany:
    def test_matches_individual_runs(self, small_clustered):
        configs = [
            FormationConfig(max_groups=groups, k=k, semantics=sem, aggregation=agg)
            for groups in (3, 8)
            for k in (2, 5)
            for sem, agg in (("lm", "min"), ("lm", "sum"), ("av", "min"), ("av", "sum"))
        ]
        for backend in BACKENDS:
            engine = FormationEngine(backend)
            batched = engine.run_many(small_clustered, configs)
            assert len(batched) == len(configs)
            for config, result in zip(configs, batched):
                single = engine.run(
                    small_clustered,
                    config.max_groups,
                    config.k,
                    config.semantics,
                    config.aggregation,
                )
                assert_results_identical(single, result)

    def test_cross_backend_parity_in_batch(self, small_archetypes):
        configs = [
            FormationConfig(max_groups=5, k=k, semantics=sem, aggregation=agg)
            for k in (1, 3)
            for sem in ("lm", "av")
            for agg in ("min", "max", "sum")
        ]
        reference = FormationEngine("reference").run_many(small_archetypes, configs)
        candidate = FormationEngine("numpy").run_many(small_archetypes, configs)
        for expected, got in zip(reference, candidate):
            assert_results_identical(expected, got)

    def test_invalid_config_raises(self, small_uniform):
        engine = FormationEngine("numpy")
        with pytest.raises(GroupFormationError):
            engine.run_many(
                small_uniform,
                [FormationConfig(max_groups=2, k=small_uniform.n_items + 1)],
            )


class TestTopKTableFast:
    """The kernel layer's top-k (compiled, else numpy) against the spec."""

    @given(
        shape=st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=12),
        ),
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(**_SETTINGS)
    def test_matches_reference_table(self, shape, levels, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, levels + 1, size=shape).astype(float)
        for k in {1, (shape[1] + 1) // 2, shape[1]}:
            expected_items, expected_scores = top_k_table(values, k)
            items, scores = kernels.top_k_table(values, k)
            assert np.array_equal(expected_items, items)
            assert np.array_equal(expected_scores, scores)

    def test_negative_infinity_falls_back_to_sort(self, monkeypatch):
        # The numpy path's peel masks with -inf, so such rows take the sort.
        monkeypatch.setattr(kernels, "_load_compiled", lambda: None)
        values = np.array([[-np.inf, 1.0, 2.0], [-np.inf, -np.inf, -np.inf]])
        expected_items, expected_scores = top_k_table(values, 2)
        items, scores = kernels.top_k_table(values, 2)
        assert np.array_equal(expected_items, items)
        assert np.array_equal(expected_scores, scores)

    def test_validation_matches_reference(self):
        for backend in ("numpy", "reference"):
            engine = FormationEngine(backend)
            with pytest.raises(GroupFormationError):
                engine.run(np.array([[1.0, np.nan]]), 2, 1)
            with pytest.raises(GroupFormationError):
                engine.run(np.array([[1.0, 2.0]]), 2, 3)


class TestEngineSelection:
    def test_default_backend(self):
        assert FormationEngine().backend.name == DEFAULT_BACKEND
        assert get_backend(None).name == DEFAULT_BACKEND

    def test_named_backends(self):
        for name in BACKENDS:
            assert FormationEngine(name).backend.name == name
            assert get_backend(name.upper()).name == name

    def test_backend_instance_passthrough(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend
        assert FormationEngine(backend).backend is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown formation backend"):
            FormationEngine("cython")

    def test_backend_recorded_in_extras(self, tiny_values):
        for name in BACKENDS:
            result = FormationEngine(name).run(tiny_values, 2, 2, "lm", "min")
            assert result.extras["backend"] == name

    def test_run_greedy_backend_threading(self, tiny_values):
        from repro.core import grd_av_min, grd_lm_min

        for helper in (grd_lm_min, grd_av_min):
            reference = helper(tiny_values, 2, 2, backend="reference")
            candidate = helper(tiny_values, 2, 2, backend="numpy")
            assert_results_identical(reference, candidate)
