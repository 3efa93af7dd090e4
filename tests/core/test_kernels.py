"""Kernel-layer suites, anchored on the specifications.

Four families of guarantees:

* both top-k paths — the compiled kernel and the numpy blocked kernel the
  layer runs without a C compiler — are **bit-identical** to the
  stable-argsort specification :func:`repro.core.preferences.top_k_table`
  (ties, ``±0.0``, ``±inf``, ``k`` on both sides of the numpy peel/select
  crossover), the compiled one at every thread count;
* fingerprint bucketing yields the same partition and member order as the
  exact packed-key lexsort (:func:`repro.core.kernels._group_rows_lexsort`)
  and survives a forced fingerprint collision exactly (the compiled hash
  grouping is checked against it in ``tests/core/test_bucketing.py``);
* formation results equal the loop-based ``reference`` backend for every
  variant, on dense and sparse stores, under both top-k paths;
* the :func:`repro.core.kernels.float_to_ordinal` transform is a monotone
  bijection on IEEE-754 bit patterns, exercised on the nasty cases (NaN,
  ``±0.0``, ``±inf``, subnormals, ``float32`` and ``float64``).

The numpy path is selected in-process by monkeypatching
``kernels._load_compiled`` to report no compiled library.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import kernels, kernels_cc
from repro.core.engine import FormationEngine
from repro.core.preferences import top_k_table
from repro.recsys.store import SparseStore
from repro.recsys.matrix import RatingScale

requires_parallel = pytest.mark.skipif(
    not kernels.parallel_available(),
    reason="compiled top-k backend unavailable (no C compiler)",
)

NASTY_FLOATS = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    np.inf,
    -np.inf,
    5e-324,          # smallest positive subnormal
    -5e-324,
    2.2250738585072014e-308,   # smallest positive normal
    -2.2250738585072014e-308,
    1.5,
    -1.5,
    np.nextafter(1.0, 2.0),
    1.7976931348623157e308,    # largest finite
    -1.7976931348623157e308,
]


def run_result_fingerprint(result):
    """Everything a formation result promises, as a comparable tuple."""
    return (
        result.objective,
        [g.members for g in result.groups],
        [g.items for g in result.groups],
        [tuple(g.item_scores) for g in result.groups],
        [g.satisfaction for g in result.groups],
        result.extras["n_intermediate_groups"],
        result.extras["last_group_pseudocode_score"],
    )


@pytest.fixture
def numpy_path(monkeypatch):
    """Route the top-k and bucketing kernels to their numpy legs."""
    monkeypatch.setattr(kernels, "_load_compiled", lambda: None)


def numpy_top_k(values, k, assume_finite=False):
    """kernels.top_k_table on the numpy path, whatever the box offers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_load_compiled", lambda: None)
        return kernels.top_k_table(values, k, assume_finite=assume_finite)


def assert_tables_equal(expected, actual):
    """Identical item tables and bit-identical rating tables (-0.0 kept)."""
    assert np.array_equal(expected[0], actual[0])
    assert np.array_equal(expected[1].view(np.uint64), actual[1].view(np.uint64))


def by_first_row(order, new_segment):
    """A grouping's groups renumbered in ascending order of first row."""
    groups = sorted(
        np.split(order, np.flatnonzero(new_segment)[1:]), key=lambda g: g[0]
    )
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    new_segment = np.zeros(order.size, dtype=bool)
    new_segment[np.cumsum(sizes) - sizes] = True
    return np.concatenate(groups), new_segment


def lexsort_buckets(items_table, scores_table, key_scores):
    """The exact specification of bucketing: lexsort over packed keys,
    buckets renumbered in representative order."""
    packed = kernels.pack_key_rows(items_table, scores_table, key_scores)
    sorted_users, new_segment = by_first_row(*kernels._group_rows_lexsort(packed))
    starts = np.flatnonzero(new_segment)
    inverse = np.empty(items_table.shape[0], dtype=np.int64)
    inverse[sorted_users] = np.cumsum(new_segment) - 1
    return inverse, sorted_users, starts


def buckets_as_partition(inverse, sorted_users, starts):
    """Canonical form of a bucketing: the set of member tuples."""
    ends = np.append(starts[1:], sorted_users.size)
    buckets = sorted(
        tuple(sorted_users[a:b].tolist()) for a, b in zip(starts, ends)
    )
    # The inverse must agree with the segments.
    for bucket in buckets:
        ids = {int(inverse[u]) for u in bucket}
        assert len(ids) == 1
    return buckets


class TestFloatToOrdinal:
    """The monotone float -> uint64 transform on its documented contract."""

    @given(
        st.lists(
            st.floats(width=64, allow_nan=False) | st.sampled_from(NASTY_FLOATS),
            min_size=2,
            max_size=50,
        )
    )
    def test_strictly_monotone_on_non_nan(self, values):
        """``a < b`` implies ``ord(a) < ord(b)`` for every non-NaN pair."""
        arr = np.array(values, dtype=np.float64)
        ords = kernels.float_to_ordinal(arr)
        comparison = arr[:, None] < arr[None, :]
        assert np.array_equal(ords[:, None] < ords[None, :], comparison | (
            # -0.0 < +0.0 in ordinal space refines the IEEE tie; mask that
            # single permitted extra strictness out of the equivalence.
            (arr[:, None] == arr[None, :])
            & (np.signbit(arr)[:, None] & ~np.signbit(arr)[None, :])
        ))

    @given(
        st.lists(
            st.floats(width=64, allow_nan=True) | st.sampled_from(NASTY_FLOATS),
            min_size=1,
            max_size=50,
        )
    )
    def test_bijective_on_bit_patterns(self, values):
        """Equal ordinals exactly when the IEEE bit patterns are equal."""
        arr = np.array(values, dtype=np.float64)
        bits = arr.view(np.uint64)
        ords = kernels.float_to_ordinal(arr)
        assert np.array_equal(
            ords[:, None] == ords[None, :], bits[:, None] == bits[None, :]
        )

    def test_nasty_case_ordering(self):
        """-inf < min normal < subnormals < -0.0 < +0.0 < ... < +inf < NaN."""
        ladder = np.array(
            [
                -np.inf,
                -1.7976931348623157e308,
                -2.2250738585072014e-308,
                -5e-324,
                -0.0,
                0.0,
                5e-324,
                2.2250738585072014e-308,
                1.0,
                1.7976931348623157e308,
                np.inf,
                np.nan,
            ]
        )
        ords = kernels.float_to_ordinal(ladder)
        assert np.all(ords[1:] > ords[:-1])

    @given(st.lists(st.floats(width=32, allow_nan=False), min_size=1, max_size=50))
    def test_float32_consistent_with_float64(self, values):
        """float32 input shares the float64 ordinal space (exact upcast)."""
        arr32 = np.array(values, dtype=np.float32)
        assert np.array_equal(
            kernels.float_to_ordinal(arr32),
            kernels.float_to_ordinal(arr32.astype(np.float64)),
        )

    def test_zero_signs_stay_distinct_keys(self):
        """±0.0 map to distinct adjacent ordinals (byte-key equality kept)."""
        ords = kernels.float_to_ordinal(np.array([-0.0, 0.0]))
        assert ords[0] != ords[1]
        assert int(ords[1]) - int(ords[0]) == 1


def matrices(min_users=1, max_users=40, min_items=1, max_items=25):
    """Rating-matrix strategy mixing tie-heavy integers and nasty floats."""
    shapes = st.tuples(
        st.integers(min_users, max_users), st.integers(min_items, max_items)
    )
    return shapes.flatmap(
        lambda shape: st.one_of(
            hnp.arrays(
                np.float64, shape, elements=st.integers(1, 5).map(float)
            ),
            hnp.arrays(
                np.float64,
                shape,
                elements=st.floats(-10, 10, allow_nan=False) | st.sampled_from(
                    [0.0, -0.0, 2.0, -2.0]
                ),
            ),
        )
    )


class TestTopKParity:
    """The numpy top-k path == the stable-argsort specification."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), values=matrices())
    def test_numpy_matches_spec(self, data, values):
        """Random (tie-heavy and continuous) matrices, every k."""
        k = data.draw(st.integers(1, values.shape[1]))
        assert_tables_equal(top_k_table(values, k), numpy_top_k(values, k))

    @pytest.mark.parametrize("k", [1, 3, 16, 17, 40, 99, 100])
    def test_both_fast_branches_match_spec(self, k):
        """The numpy peel branch (k <= max(16, m // 8) = 16 here) and select
        branch (larger k) — and the compiled kernel, when it loads — agree
        with the full-sort specification on a tie-heavy instance."""
        rng = np.random.default_rng(k)
        values = rng.integers(1, 6, size=(257, 100)).astype(float)
        spec = top_k_table(values, k)
        assert_tables_equal(spec, numpy_top_k(values, k, assume_finite=True))
        assert_tables_equal(spec, kernels.top_k_table(values, k, assume_finite=True))

    def test_negative_infinity_rows(self):
        """-inf ratings (the numpy peel's sentinel) stay exact on both paths."""
        values = np.array(
            [
                [-np.inf, -np.inf, -np.inf],
                [1.0, -np.inf, 2.0],
                [np.inf, -np.inf, np.inf],
            ]
        )
        for k in (1, 2, 3):
            spec = top_k_table(values, k)
            assert_tables_equal(spec, numpy_top_k(values, k))
            assert_tables_equal(spec, kernels.top_k_table(values, k))

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range_rejected(self, k):
        """Both paths reject k outside [1, n_items] before ranking (the
        compiled kernel would otherwise index outside its row buffers)."""
        values = np.ones((3, 4))
        with pytest.raises(ValueError, match="k must be between"):
            kernels.top_k_table(values, k)
        with pytest.raises(ValueError, match="k must be between"):
            numpy_top_k(values, k)

    def test_blocking_is_invisible(self, monkeypatch, numpy_path):
        """Tiny row blocks produce the same table as one big block."""
        rng = np.random.default_rng(0)
        values = rng.integers(1, 6, size=(53, 12)).astype(float)
        whole = kernels.top_k_table(values, 4, assume_finite=True)
        monkeypatch.setattr(kernels, "_block_rows", lambda n_items: 7)
        blocked = kernels.top_k_table(values, 4, assume_finite=True)
        assert_tables_equal(whole, blocked)


class TestBucketizeParity:
    """Fingerprint bucketing == the packed-key lexsort partition."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), values=matrices(min_items=2))
    def test_same_partition_every_key_scheme(self, data, values):
        """Same buckets, member order and representatives as the lexsort,
        through bucketize and through group_key_rows."""
        k = data.draw(st.integers(1, values.shape[1]))
        items_table, scores_table = top_k_table(values, k)
        for key_scores in ("none", "first", "last", "all"):
            spec = buckets_as_partition(
                *lexsort_buckets(items_table, scores_table, key_scores)
            )
            fused = kernels.bucketize(items_table, scores_table, key_scores)
            assert buckets_as_partition(*fused) == spec
            packed = kernels.pack_key_rows(items_table, scores_table, key_scores)
            order, new_segment = kernels.group_key_rows(packed)
            groups = np.split(order, np.flatnonzero(new_segment)[1:])
            assert sorted(tuple(g.tolist()) for g in groups) == spec

    def test_collision_fallback_is_exact(self, monkeypatch, numpy_path):
        """With every fingerprint colliding, the numpy grouping degrades to
        the lexsort."""
        rng = np.random.default_rng(1)
        items_table = rng.integers(0, 3, size=(40, 2)).astype(np.int64)
        scores_table = rng.integers(1, 3, size=(40, 2)).astype(float)
        spec = lexsort_buckets(items_table, scores_table, "all")
        monkeypatch.setattr(
            kernels,
            "fused_fingerprint_rows",
            lambda items, scores, key_scores: np.zeros(
                items.shape[0], dtype=np.uint64
            ),
        )
        monkeypatch.setattr(
            kernels,
            "fingerprint_rows",
            lambda packed: np.zeros(packed.shape[0], dtype=np.uint64),
        )
        collided = kernels.bucketize(items_table, scores_table, "all")
        # The fallback is the lexsort itself: identical arrays, not just an
        # equivalent partition.
        for a, b in zip(spec, collided):
            assert np.array_equal(a, b)
        packed = kernels.pack_key_rows(items_table, scores_table, "all")
        for a, b in zip(
            by_first_row(*kernels._group_rows_lexsort(packed)),
            kernels.group_key_rows(packed),
        ):
            assert np.array_equal(a, b)

    def test_interleaved_collision_detected(self, monkeypatch, numpy_path):
        """An A,B,A interleave inside one fingerprint run cannot slip through."""
        items_table = np.array([[0], [1], [0], [1], [0]], dtype=np.int64)
        scores_table = np.ones((5, 1), dtype=float)
        monkeypatch.setattr(
            kernels,
            "fused_fingerprint_rows",
            lambda items, scores, key_scores: np.zeros(
                items.shape[0], dtype=np.uint64
            ),
        )
        inverse, sorted_users, starts = kernels.bucketize(
            items_table, scores_table, "none"
        )
        assert buckets_as_partition(inverse, sorted_users, starts) == [
            (0, 2, 4),
            (1, 3),
        ]


class TestParallelKernels:
    """The compiled top-k kernel: parity, threading, absence."""

    @requires_parallel
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), values=matrices())
    def test_top_k_three_way_parity(self, data, values):
        """compiled == numpy == specification bit for bit on random matrices."""
        k = data.draw(st.integers(1, values.shape[1]))
        spec = top_k_table(values, k)
        assert_tables_equal(spec, kernels.top_k_table(values, k))
        assert_tables_equal(spec, numpy_top_k(values, k))

    @requires_parallel
    def test_nasty_ordinal_inputs(self):
        """±inf / ±0.0 / subnormal ratings survive the compiled top-k exactly."""
        rng = np.random.default_rng(7)
        values = rng.integers(1, 4, size=(64, 9)).astype(float)
        values[::3, 0] = np.inf
        values[1::3, 1] = -np.inf
        values[::4, 2] = 0.0
        values[::5, 3] = -0.0
        values[::7, 4] = 5e-324
        for k in (1, 4, 9):
            assert_tables_equal(top_k_table(values, k), kernels.top_k_table(values, k))

    @requires_parallel
    def test_thread_count_independence(self):
        """1 vs N threads: bit-identical tables and buckets."""
        rng = np.random.default_rng(11)
        values = rng.integers(1, 5, size=(211, 17)).astype(float)
        with kernels.use_kernel_threads(1):
            one_tables = kernels.top_k_table(values, 5)
        with kernels.use_kernel_threads(5):
            many_tables = kernels.top_k_table(values, 5)
        assert_tables_equal(one_tables, many_tables)
        for a, b in zip(
            kernels.bucketize(*one_tables, "all"),
            kernels.bucketize(*many_tables, "all"),
        ):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("key_scores", ["none", "first", "last", "all"])
    def test_fused_fingerprints_match_packed(self, key_scores):
        """Fused fingerprints == fingerprint_rows(pack_key_rows(...)),
        including NaN score bit patterns."""
        rng = np.random.default_rng(13)
        items_table = rng.integers(0, 50, size=(97, 6)).astype(np.int64)
        scores_table = rng.normal(size=(97, 6))
        scores_table[::9, 2] = np.nan
        scores_table[::7, 4] = -0.0
        packed = kernels.pack_key_rows(items_table, scores_table, key_scores)
        expected = kernels.fingerprint_rows(packed)
        fused = kernels.fused_fingerprint_rows(items_table, scores_table, key_scores)
        assert np.array_equal(expected, fused)

    @requires_parallel
    def test_collision_fallback_under_threading(self, monkeypatch, request):
        """Tables ranked at 4 compiled threads, then all-colliding
        fingerprints: the numpy grouping still degrades to the exact
        lexsort."""
        rng = np.random.default_rng(17)
        values = rng.integers(1, 3, size=(60, 3)).astype(float)
        with kernels.use_kernel_threads(4):
            items_table, scores_table = kernels.top_k_table(values, 2)
        request.getfixturevalue("numpy_path")
        spec = lexsort_buckets(items_table, scores_table, "all")
        monkeypatch.setattr(
            kernels,
            "fused_fingerprint_rows",
            lambda items, scores, key_scores: np.zeros(
                items.shape[0], dtype=np.uint64
            ),
        )
        collided = kernels.bucketize(items_table, scores_table, "all")
        for a, b in zip(spec, collided):
            assert np.array_equal(a, b)

    def test_unavailable_backend_runs_numpy_silently(self, numpy_path):
        """Backend absent: top-k runs the numpy kernel, exact and silent."""
        assert not kernels.parallel_available()
        values = np.random.default_rng(3).integers(1, 5, size=(30, 8)).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = kernels.top_k_table(values, 3)
        assert_tables_equal(top_k_table(values, 3), tables)


#: Forms groups on a dense and on two sparse stores (one on the scale's
#: integer levels, one off them) and prints the compiled kernels that ran.
ONE_LIBRARY_SCRIPT = """
import numpy as np
from scipy import sparse as sp
from repro.core import FormationEngine, kernels_cc
from repro.recsys.matrix import RatingScale
from repro.recsys.store import SparseStore

ran = set()

def spy(name):
    method = getattr(kernels_cc.CompiledKernels, name)
    def call(self, *args):
        ran.add(name)
        return method(self, *args)
    return call

for name in ("top_k", "csr_top_k", "level_top_k", "column_reduce", "bucket_rows"):
    setattr(kernels_cc.CompiledKernels, name, spy(name))
values = np.random.default_rng(0).integers(1, 6, (60, 12)).astype(float)
off_levels = values.copy()
off_levels[0, 0] = 2.5
engine = FormationEngine("numpy")
engine.run(values, 4, 3, "av", "sum")
for ratings in (values, off_levels):
    store = SparseStore(sp.csr_matrix(ratings), scale=RatingScale(1.0, 5.0))
    engine.run(store, 4, 3, "lm", "min")
print(" ".join(sorted(ran)))
"""


class TestCompiledLibrary:
    """One library, loaded once, and the compiler switch."""

    @pytest.mark.parametrize("value", ["none", "off", " OFF "])
    def test_disable_values_turn_the_library_off(self, monkeypatch, value):
        monkeypatch.setenv(kernels_cc.CC_ENV, value)
        backend, reason = kernels_cc._load.__wrapped__()
        assert backend is None
        assert reason.startswith(f"disabled via {kernels_cc.CC_ENV}=")

    @pytest.mark.parametrize("value", ["", "   "])
    def test_empty_compiler_name_discovers_the_compiler(self, monkeypatch, value):
        monkeypatch.delenv(kernels_cc.CC_ENV, raising=False)
        discovered = kernels_cc._find_compiler()
        monkeypatch.setenv(kernels_cc.CC_ENV, value)
        assert kernels_cc._find_compiler() == discovered
        backend, reason = kernels_cc._load.__wrapped__()
        if discovered is None:
            assert backend is None and reason.startswith("no C compiler found")
        else:
            assert backend is not None and reason is None

    @requires_parallel
    def test_dense_and_sparse_formation_share_one_library(self, tmp_path):
        """A fresh process ranking both store kinds builds one ``.so`` into
        an empty cache, and every kernel runs compiled."""
        env = dict(os.environ)
        env[kernels_cc.CACHE_ENV] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kernels.__file__).parents[2]), env.get("PYTHONPATH", "")]
        )
        ran = subprocess.run(
            [sys.executable, "-c", ONE_LIBRARY_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout.split()
        assert ran == [
            "bucket_rows", "column_reduce", "csr_top_k", "level_top_k", "top_k",
        ]
        assert [path.suffix for path in tmp_path.iterdir()] == [".so"]


class TestKernelThreads:
    """The --kernel-threads / REPRO_KERNEL_THREADS switch."""

    def test_resolution_order(self, monkeypatch):
        """Explicit setting > environment variable > CPU count."""
        monkeypatch.delenv(kernels.KERNEL_THREADS_ENV, raising=False)
        previous = kernels.set_kernel_threads(None)
        try:
            assert kernels.get_kernel_threads() >= 1
            monkeypatch.setenv(kernels.KERNEL_THREADS_ENV, "3")
            assert kernels.get_kernel_threads() == 3
            kernels.set_kernel_threads(2)
            assert kernels.get_kernel_threads() == 2
        finally:
            kernels.set_kernel_threads(previous)

    def test_invalid_explicit_count_rejected(self):
        """Zero or negative thread counts raise instead of wedging OpenMP."""
        with pytest.raises(ValueError, match="thread count"):
            kernels.set_kernel_threads(0)
        with pytest.raises(ValueError, match="thread count"):
            kernels.set_kernel_threads(-2)

    @pytest.mark.parametrize("raw", ["banana", "0", "-3", "2.5"])
    def test_malformed_env_value_rejected(self, monkeypatch, raw):
        """A non-positive or non-integer environment value raises a
        ValueError naming the variable instead of using the CPU count."""
        monkeypatch.setenv(kernels.KERNEL_THREADS_ENV, raw)
        previous = kernels.set_kernel_threads(None)
        try:
            with pytest.raises(ValueError, match=kernels.KERNEL_THREADS_ENV):
                kernels.get_kernel_threads()
        finally:
            kernels.set_kernel_threads(previous)

    def test_use_kernel_threads_restores(self):
        """The context manager yields the active count and restores on exit."""
        previous = kernels.set_kernel_threads(None)
        try:
            outer = kernels.get_kernel_threads()
            with kernels.use_kernel_threads(7) as active:
                assert active == 7
                assert kernels.get_kernel_threads() == 7
            assert kernels.get_kernel_threads() == outer
        finally:
            kernels.set_kernel_threads(previous)


#: Both top-k paths; the ids keep the names these two kernels carried when
#: they were selectable generations ("fast" = numpy, "parallel" = compiled).
TOP_K_PATHS = [
    pytest.param("numpy", id="fast"),
    pytest.param("compiled", id="parallel", marks=requires_parallel),
]


class TestFormationParity:
    """Formation results equal the reference backend under both top-k paths."""

    @pytest.mark.parametrize("path", TOP_K_PATHS)
    @pytest.mark.parametrize("semantics", ["lm", "av"])
    @pytest.mark.parametrize("aggregation", ["min", "max", "sum", "weighted-sum"])
    @pytest.mark.parametrize("store_kind", ["dense", "sparse"])
    def test_full_matrix(self, monkeypatch, semantics, aggregation, store_kind, path):
        """semantics x aggregation x dense/sparse x k sweep vs the reference."""
        if path == "numpy":
            monkeypatch.setattr(kernels, "_load_compiled", lambda: None)
        rng = np.random.default_rng(abs(hash((semantics, aggregation))) % 2**32)
        values = rng.integers(1, 6, size=(120, 24)).astype(float)
        if store_kind == "sparse":
            import scipy.sparse as sp

            ratings = SparseStore(
                sp.csr_matrix(values), scale=RatingScale(1.0, 5.0)
            )
        else:
            ratings = values
        engine = FormationEngine("numpy")
        reference = FormationEngine("reference")
        for k in (1, 3, 8):
            for max_groups in (2, 7):
                expected = reference.run(
                    ratings, max_groups, k, semantics, aggregation
                )
                candidate = engine.run(
                    ratings, max_groups, k, semantics, aggregation
                )
                assert run_result_fingerprint(expected) == run_result_fingerprint(
                    candidate
                )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), values=matrices(min_users=2, min_items=2))
    def test_property_parity_against_reference(self, data, values):
        """Both top-k paths agree with the loop-based reference backend."""
        # The reference backend rejects non-finite ratings; clamp to finite.
        values = np.nan_to_num(values, posinf=10.0, neginf=-10.0)
        k = data.draw(st.integers(1, values.shape[1]))
        max_groups = data.draw(st.integers(1, 6))
        semantics = data.draw(st.sampled_from(["lm", "av"]))
        aggregation = data.draw(st.sampled_from(["min", "max", "sum"]))
        reference = FormationEngine("reference").run(
            values, max_groups, k, semantics, aggregation
        )
        numpy_run = FormationEngine("numpy")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_load_compiled", lambda: None)
            on_numpy = numpy_run.run(values, max_groups, k, semantics, aggregation)
        on_default = numpy_run.run(values, max_groups, k, semantics, aggregation)
        assert run_result_fingerprint(reference) == run_result_fingerprint(on_numpy)
        assert run_result_fingerprint(reference) == run_result_fingerprint(on_default)


class TestKernelSwitch:
    """RatingMatrix duplicate-triple contract."""

    def test_nan_duplicate_triples_keep_historical_contract(self):
        """RatingMatrix.from_triples: NaN in a cell means "unset" — exact NaN
        duplicates and NaN-then-value overwrites are tolerated, while a set
        value still conflicts with any different successor."""
        from repro.core.errors import RatingDataError
        from repro.recsys.matrix import RatingMatrix

        nan = float("nan")
        tolerated = RatingMatrix.from_triples(
            [("u", "i", nan), ("u", "i", nan), ("u", "i", 5.0), ("v", "i", 3.0)]
        )
        assert tolerated.rating(
            tolerated.user_index("u"), tolerated.item_index("i")
        ) == 5.0
        with pytest.raises(RatingDataError):
            RatingMatrix.from_triples([("u", "i", 5.0), ("u", "i", nan)])
        with pytest.raises(RatingDataError):
            RatingMatrix.from_triples([("u", "i", 5.0), ("u", "i", 3.0)])
